"""Anchor-indexed optimal stopping rules and consistency metrics.

Each anchor time carries its own stopping problem: stop when the
anchor's value envelope touches the obstacle.  The rule extracted at
anchor t_i generally differs from the anchor-0 rule continued past t_i;
the gap between the two expected payoffs measures how inconsistent the
family of problems is.  The envelope rows are the right object to
threshold; the diagonal satisfies no single backward recursion and
yields a different (wrong) rule on anchor-dependent instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rbsvie.grid import Lattice
from rbsvie.instances import InstanceSpec
from rbsvie.oracle import StoppingRule
from rbsvie.volterra import Solution, VolterraError


class StoppingError(ValueError):
    pass


@dataclass(frozen=True)
class StoppingFrontier:
    """Per-anchor stop regions over the lattice nodes.

    flags[i][j - i][k] marks node (j, k) as a stop node for anchor i,
    meaning the anchor's envelope sits within atol of the obstacle
    there; layer N is always marked (terminal domination).  The first
    marked layer along a path, at or after the anchor, realizes that
    anchor's optimal time.
    """

    n_steps: int
    atol: float
    flags: tuple

    def stops(self, i: int, j: int, k: int) -> bool:
        return bool(self.flags[i][j - i][k])

    def stop_layer_arrays(self, i: int) -> list:
        return [np.asarray(a) for a in self.flags[i]]

    def rule(self, i: int) -> StoppingRule:
        return StoppingRule(start=i, flags=self.flags[i])

    def restarted_rule(self, from_anchor: int, i: int) -> StoppingRule:
        """The from_anchor rule applied from layer i onward."""
        if i < from_anchor:
            raise StoppingError("restart layer precedes the rule's anchor")
        off = i - from_anchor
        return StoppingRule(start=i, flags=self.flags[from_anchor][off:])

    def same_rows(self, a: int, b: int) -> bool:
        """Whether anchors a <= b prescribe identical flags on shared layers."""
        lo, hi = sorted((a, b))
        off = hi - lo
        return self.flags[lo][off:] == self.flags[hi]


def _threshold_rows(row_values, lat: Lattice, spec: InstanceSpec, i: int,
                    atol: float) -> tuple:
    N = lat.n_steps
    grid = lat.grid
    rows = []
    for j in range(i, N + 1):
        if j == N:
            rows.append(tuple(True for _ in range(N + 1)))
            continue
        vals = np.asarray(row_values[j - i], dtype=float)
        barrier = np.asarray(spec.obstacle(grid.t(j), lat.x[j]), dtype=float)
        rows.append(tuple(bool(b) for b in (vals - barrier) <= atol))
    return tuple(rows)


def extract_frontier(sol: Solution, lat: Lattice, spec: InstanceSpec,
                     atol: float = 1e-9) -> StoppingFrontier:
    """Stop regions from the per-anchor envelope rows of a solution."""
    if sol.ytilde is None:
        raise VolterraError("frontier extraction needs stored fields")
    N = lat.n_steps
    flags = []
    for i in range(N + 1):
        row = [sol.ytilde.at(i, j) for j in range(i, N + 1)]
        flags.append(_threshold_rows(row, lat, spec, i, atol))
    return StoppingFrontier(n_steps=N, atol=atol, flags=tuple(flags))


def diagonal_frontier(sol: Solution, lat: Lattice, spec: InstanceSpec,
                      atol: float = 1e-9) -> StoppingFrontier:
    """Stop regions thresholded from the diagonal instead of the envelopes.

    This is the wrong construction on anchor-dependent instances; it is
    provided so tests can demonstrate that it disagrees with the
    envelope frontier there.
    """
    N = lat.n_steps
    flags = []
    for i in range(N + 1):
        row = [sol.y_diag[j] for j in range(i, N + 1)]
        flags.append(_threshold_rows(row, lat, spec, i, atol))
    return StoppingFrontier(n_steps=N, atol=atol, flags=tuple(flags))


def evaluate_J(lat: Lattice, spec: InstanceSpec, sol: Solution, i: int,
               rule: StoppingRule) -> float:
    """Expected payoff of following a stopping rule from anchor i.

    Exact backward induction with the driver frozen at the converged
    diagonal and the anchor's coefficient row: stopped nodes collect the
    obstacle (terminal value at the last layer), continuation nodes
    collect the one-step conditional expectation plus the running term.
    The result is the unconditional expectation over layer-i nodes.
    """
    N = lat.n_steps
    if rule.start != i:
        raise StoppingError(f"rule starts at {rule.start}, expected {i}")
    grid = lat.grid
    dt = grid.dt
    t_i = grid.t(i)
    vals = np.asarray(spec.terminal(t_i, lat.x[N]), dtype=float)
    for j in range(N - 1, i - 1, -1):
        cont = 0.5 * (vals[1:] + vals[:-1])
        x_j = lat.x[j]
        z_j = sol.z.at(i, j) if sol.z is not None else np.zeros(j + 1)
        f_j = np.asarray(spec.driver(t_i, grid.t(j), x_j, sol.y_diag[j], z_j),
                         dtype=float)
        barrier = np.asarray(spec.obstacle(grid.t(j), x_j), dtype=float)
        stop_mask = np.array([rule.stops(j, k) for k in range(j + 1)])
        vals = np.where(stop_mask, barrier, cont + f_j * dt)
    return float(lat.layer_expect(i, vals))


def expected_y(lat: Lattice, sol: Solution, i: int) -> float:
    return float(lat.layer_expect(i, sol.y_diag[i]))


@dataclass(frozen=True)
class ConsistencyReport:
    """Per-anchor payoffs of the own rule versus the restarted anchor-0 rule.

    gap[i] = J(t_i, own rule) - J(t_i, anchor-0 rule from layer i).  The
    own rule is optimal for anchor i, so gaps are nonnegative up to
    numerical tolerance; a strictly positive gap at an interior anchor
    certifies that the anchor-0 plan is no longer optimal later.
    frontier holds the stop regions the rules were read from.
    """

    anchor_times: tuple
    e_y: tuple
    j_own: tuple
    j_restarted: tuple
    gap: tuple
    frontiers_identical: bool
    frontier: StoppingFrontier

    @property
    def max_gap(self) -> float:
        return max(self.gap)

    @property
    def max_identity_error(self) -> float:
        return max(abs(a - b) for a, b in zip(self.j_own, self.e_y))

    def inconsistent(self, threshold: float = 1e-9) -> bool:
        return self.max_gap > threshold


def inconsistency_report(lat: Lattice, spec: InstanceSpec, sol: Solution,
                         atol: float = 1e-9) -> ConsistencyReport:
    frontier = extract_frontier(sol, lat, spec, atol)
    N = lat.n_steps
    times, e_ys, j_owns, j_rests, gaps = [], [], [], [], []
    for i in range(N + 1):
        times.append(lat.grid.t(i))
        e_ys.append(expected_y(lat, sol, i))
        j_own = evaluate_J(lat, spec, sol, i, frontier.rule(i))
        j_rest = evaluate_J(lat, spec, sol, i, frontier.restarted_rule(0, i))
        j_owns.append(j_own)
        j_rests.append(j_rest)
        gaps.append(j_own - j_rest)
    identical = all(frontier.same_rows(0, i) for i in range(1, N + 1))
    return ConsistencyReport(
        anchor_times=tuple(times), e_y=tuple(e_ys), j_own=tuple(j_owns),
        j_restarted=tuple(j_rests), gap=tuple(gaps),
        frontiers_identical=identical, frontier=frontier,
    )


def premature_increment_mass(sol: Solution, frontier: StoppingFrontier,
                             i: int) -> float:
    """Largest reflection increment on a non-stop node of anchor i's row.

    Zero certifies that the reflection term cannot accrue along any path
    before that anchor's rule stops: increments live only where the
    envelope is pinned to the obstacle, and those nodes are stop nodes.
    """
    if sol.kinc is None:
        raise VolterraError("needs stored fields")
    worst = 0.0
    N = frontier.n_steps
    for j in range(i, N):
        kj = np.asarray(sol.kinc.at(i, j))
        for k in range(j + 1):
            if not frontier.stops(i, j, k):
                worst = max(worst, abs(float(kj[k])))
    return worst


def frontier_rows(frontier: StoppingFrontier, lat: Lattice) -> list:
    """Flatten a frontier to (anchor_time, time, low_state, high_state) rows.

    One row per (anchor, layer) with a nonempty stop region; low and
    high are the smallest and largest stopped node states.
    """
    N = frontier.n_steps
    rows = []
    for i in range(N + 1):
        for j in range(i, N + 1):
            states = [float(lat.x[j][k]) for k in range(j + 1)
                      if frontier.stops(i, j, k)]
            if states:
                rows.append((lat.grid.t(i), lat.grid.t(j),
                             min(states), max(states)))
    return rows
