"""Anchor-indexed optimal stopping rules and consistency metrics.

Each anchor time carries its own stopping problem: stop when the
anchor's value envelope touches the obstacle.  The rule extracted at
anchor t_i generally differs from the anchor-0 rule continued past t_i;
the gap between the two expected payoffs measures how inconsistent the
family of problems is.  The envelope rows are the right object to
threshold; the diagonal satisfies no single backward recursion and
yields a different (wrong) rule on anchor-dependent instances.

Stop regions use the solver's layer layout (volterra.Solution): layer
j holds one boolean row per anchor 0..j over the layer-j nodes.  Rule
values come from one backward induction that steps every anchor's row
on a layer at once, as the solver's sweep does.  Every report reads the
layers in the sweep's order, j = N .. 0, so each is a per-layer step:
stream_report and stream_solve take them straight from volterra.sweep
and hold one layer at a time, and the functions on a stored Solution
(frontier_rows, inconsistency_report, evaluate_J) feed them the layers
_replay rebuilds from its fields; premature_increment_mass reduces the
stored increments against the stored stop regions.
The streamed reports index anchors only by first and last row, so they
read the sweep's shared-row layers of an anchor-free instance (see
volterra.Layer) as they read full ones: their flags, inductions and
frontier parts then hold one shared row and anchor j's.

Both engines report a strategy as frontier rows: one float64 array of
shape (rows, 4) holding anchor time, time, and the smallest and largest
stopped state, one row per (anchor, layer) with a nonempty stop region,
anchor-major.  _stops decides which nodes stop and _frontier_part and
_sorted_rows reduce them to rows, for the lattice here and for one
anchor-0 row per path in the regression Monte Carlo engine; on the
lattice's strictly increasing states _frontier_part scans the flags
instead of reducing the states.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from rbsvie.grid import Lattice, cond_expect
from rbsvie.instances import InstanceSpec
from rbsvie.oracle import StoppingRule
from rbsvie.volterra import Layer, Solution, increments, running_terms


STOP_TOLERANCE = 1e-9  # a node stops where the envelope is this close to L
GAP_THRESHOLD = 1e-9   # a larger replanning gap makes a report inconsistent


class StoppingError(ValueError):
    pass


@dataclass(frozen=True)
class StoppingFrontier:
    """Per-anchor stop regions over the lattice nodes.

    layers[j][i, k] marks node (j, k) as a stop node for anchor i <= j,
    meaning the anchor's envelope sits within STOP_TOLERANCE of the
    obstacle there; layer N is always marked (terminal domination).  The
    first marked layer along a path, at or after the anchor, realizes
    that anchor's optimal time.
    """

    n_steps: int
    layers: tuple

    def stops(self, i: int, j: int, k: int) -> bool:
        return bool(self.layers[j][i, k])

    def rule(self, i: int) -> StoppingRule:
        return StoppingRule(start=i, flags=tuple(f[i] for f in self.layers[i:]))


def _obstacle(lat: Lattice, spec: InstanceSpec, j: int) -> np.ndarray:
    return np.asarray(spec.obstacle(lat.grid.t(j), lat.x[j]), dtype=float)


def _stops(rows: np.ndarray, barrier) -> np.ndarray:
    """Stop flags of one layer: rows within STOP_TOLERANCE of the barrier,
    or every node on the terminal layer (barrier None)."""
    if barrier is None:
        return np.ones(rows.shape, dtype=bool)
    return (rows - barrier) <= STOP_TOLERANCE


def _threshold(lat: Lattice, spec: InstanceSpec, rows) -> StoppingFrontier:
    """Stop where rows[j], one row per anchor 0..j, is within STOP_TOLERANCE of L_j."""
    N = lat.n_steps
    layers = [_stops(rows[j], _obstacle(lat, spec, j)) for j in range(N)]
    layers.append(_stops(rows[N], None))
    return StoppingFrontier(n_steps=N, layers=tuple(layers))


def extract_frontier(sol: Solution, lat: Lattice, spec: InstanceSpec) -> StoppingFrontier:
    """Stop regions from the per-anchor envelope rows of a solution."""
    return _threshold(lat, spec, sol.ytilde)


def _rule_step(nxt: np.ndarray, stop, fdt, barrier) -> np.ndarray:
    """One layer of the rule induction from the next layer's rows nxt.

    Stopped nodes collect the obstacle, continuation nodes the one-step
    conditional expectation plus the running term fdt; stop is one row
    per anchor, one row for all, or a rule's flags (any array-like).
    The values grid.cond_expect(nxt) + fdt, the sweep's operator, are
    made in one new array, stepped in place, and the obstacle is copied
    onto their stopped nodes.  Flags with more rows than nxt, a shared-row
    layer's two rows over its one shared row, take np.where instead,
    which gives the result their rows.
    """
    out = cond_expect(nxt)
    out += fdt
    stop = np.asarray(stop)
    if stop.ndim == 2 and len(stop) > len(out):
        return np.where(stop, barrier, out)
    np.copyto(out, barrier, where=stop)
    return out


def _replay(lat: Lattice, spec: InstanceSpec, sol: Solution):
    """A stored solution's layers j = N .. 0, as volterra.sweep yields them.

    The running terms are recomputed from the stored diagonal and
    martingale coefficients by the sweep's own call, and the barrier from
    the obstacle, so a sweep's solution replays to its layers bit for bit.
    The stored increments are not replayed: premature_increment_mass
    reads them.
    """
    N = lat.n_steps
    grid = lat.grid
    anchor_t = grid.times[:, None]
    yield Layer(N, sol.ytilde[N], sol.y_diag[N])
    for j in range(N - 1, -1, -1):
        v, z = sol.y_diag[j], sol.z[j]
        fdt = running_terms(spec, anchor_t[: j + 1], grid.t(j), lat.x[j], v, z, grid.dt, j)
        yield Layer(j, sol.ytilde[j], v, z, fdt, _obstacle(lat, spec, j))


def evaluate_J(lat: Lattice, spec: InstanceSpec, sol: Solution, i: int,
               rule: StoppingRule) -> float:
    """Expected payoff of following a stopping rule from anchor i.

    Anchor i's row of the induction behind inconsistency_report, stepped
    on the replayed layers N .. i.
    """
    if rule.start != i:
        raise StoppingError(f"rule starts at {rule.start}, expected {i}")
    for layer in _replay(lat, spec, sol):
        j = layer.j
        if layer.barrier is None:
            vals = layer.rows[i: i + 1]
        else:
            fdt = np.broadcast_to(layer.fdt, layer.rows.shape)[i]
            vals = _rule_step(vals, rule.flags[j - i], fdt, layer.barrier)
        if j == i:
            return lat.layer_expect(i, vals[0])


@dataclass(frozen=True)
class ConsistencyReport:
    """Per-anchor payoffs of the own rule versus the restarted anchor-0 rule.

    gap[i] = J(t_i, own rule) - J(t_i, anchor-0 rule from layer i).  The
    own rule is optimal for anchor i, so gaps are nonnegative up to
    numerical tolerance; a strictly positive gap at an interior anchor
    certifies that the anchor-0 plan is no longer optimal later.
    """

    anchor_times: tuple
    e_y: tuple
    j_own: tuple
    j_restarted: tuple
    gap: tuple
    frontiers_identical: bool

    @property
    def max_gap(self) -> float:
        return max(self.gap)

    @property
    def max_identity_error(self) -> float:
        return max(abs(a - b) for a, b in zip(self.j_own, self.e_y))

    def inconsistent(self) -> bool:
        return self.max_gap > GAP_THRESHOLD


def _same_as_anchor0(stops: np.ndarray) -> bool:
    return bool(np.logical_and.reduce(stops == stops[0], axis=None))


def inconsistency_report(lat: Lattice, spec: InstanceSpec, sol: Solution) -> ConsistencyReport:
    """stream_report's consistency report of a stored solution."""
    return stream_report(lat, _replay(lat, spec, sol))[0]


def _mass_step(worst: np.ndarray, kinc: np.ndarray, stops: np.ndarray) -> None:
    """Raise worst[i] to anchor i's largest increment off its stop nodes on one layer."""
    rows = worst[: len(kinc)]
    np.maximum(rows, np.maximum.reduce(np.where(stops, 0.0, np.abs(kinc)), axis=1), out=rows)


def premature_increment_mass(lat: Lattice, spec: InstanceSpec, sol: Solution) -> np.ndarray:
    """Largest reflection increment on a non-stop node, one entry per anchor.

    Zero at anchor i certifies that the reflection term cannot accrue
    along any path before that anchor's rule stops: increments live only
    where the envelope is pinned to the obstacle, and those nodes are
    stop nodes.  Every row of the stored kinc is reduced against
    extract_frontier's stop regions, so fields that are not the sweep's
    own, such as the Picard reference's, are checked in full.
    """
    worst = np.zeros(lat.n_steps + 1)
    for kinc, stops in zip(sol.kinc, extract_frontier(sol, lat, spec).layers):
        _mass_step(worst, kinc, stops)
    return worst


def _frontier_part(j: int, stops: np.ndarray, x: np.ndarray, first: int = 1) -> tuple:
    """(anchor, layer, low, high) columns of layer j's nonempty stop regions.

    Row 0 of stops stands for anchors 0..first-1 and row r > 0 for anchor
    first - 1 + r: row 0 is read once and its columns repeated.  On
    strictly increasing states, every lattice layer's (sigma > 0), a layer
    without a stop flag has no parts, and a row's low and high are the
    states of its first and last flag, found by one scan of the flags from
    each end.  Other states, ties included, such as a Monte Carlo path
    cloud, are reduced under masks.  Both give the same bits.
    """
    if (x[:-1] < x[1:]).all():
        if not stops.any():
            return np.empty(0, dtype=np.intp), np.full(0, j), x[:0], x[:0]
        lo = stops.argmax(axis=1)  # each row's first flag, or 0 without one
        hit = stops[np.arange(len(stops)), lo]
        low, high = x[lo], x[stops.shape[1] - 1 - stops[:, ::-1].argmax(axis=1)]
    else:
        hit = np.logical_or.reduce(stops, axis=1)
        low = np.minimum.reduce(np.where(stops, x, np.inf), axis=1)
        high = np.maximum.reduce(np.where(stops, x, -np.inf), axis=1)
    if first > 1:
        reps = np.ones(len(hit), dtype=int)
        reps[0] = first
        hit, low, high = (np.repeat(a, reps) for a in (hit, low, high))
    anchors = hit.nonzero()[0]
    return anchors, np.full(len(anchors), j), low[hit], high[hit]


def _sorted_rows(parts: list, dt: float) -> np.ndarray:
    """The parts' frontier rows, anchor-major and then by time (see the module docstring).

    Empties parts once their columns are joined, and gathers each sorted
    column straight into the result.
    """
    cols = [np.concatenate(p) for p in zip(*parts)]
    parts.clear()
    order = np.lexsort((cols[1], cols[0]))  # by anchor, then by layer
    rows = np.empty((len(order), 4))
    for c, col in enumerate(cols):
        rows[:, c] = col[order] * dt if c < 2 else col[order]
    return rows


def frontier_rows(lat: Lattice, spec: InstanceSpec, sol: Solution) -> np.ndarray:
    """A stored solution's (anchor_time, time, low_state, high_state) rows.

    low and high are the smallest and largest stopped node states.
    """
    return stream_solve(lat, _replay(lat, spec, sol))[2]


def stream_report(lat: Lattice, layers: Iterable[Layer]) -> tuple:
    """Stop report and premature increment mass of the sweep's layers j = N .. 0.

    Per layer: the stop flags, one step of both rule inductions (each
    anchor's own flags, and anchor 0's row for all) on the sweep's own
    running terms, E[Y(t_j)] and the mass; only the previous layer's
    rows are kept.  While every anchor's stop row equals anchor 0's, the
    restarted induction steps the same values on the same flags as the
    own one, so it is the own one, and its payoff the own one's, until
    the rows first differ; after that a full layer steps it on anchor
    0's one flag row, which broadcasts.  The sweep's rows i < j are
    max(E + f dt, L), so their increments are 0.0 off the stop set, and
    only anchor j's increments are rebuilt from the previous rows, zeroed
    on its stop nodes in place and reduced to one float, which raises
    anchor j's mass if it is larger; the increments are max(., 0), so no
    absolute value is taken.
    Anchors are read by first and last row only (rows[:-1] step to the
    layer below, the last row is anchor j), so a shared-row layer steps
    its shared row and anchor j's, and its restarted induction keeps both
    rows.  Returns (ConsistencyReport, mass per anchor).
    """
    N = lat.n_steps
    probs = lat.probs  # E[Y(t_j)] = probs[j] @ Y(t_j), as lat.layer_expect
    e_y = [0.0] * (N + 1)
    j_own, j_rest, worst = np.empty(N + 1), np.empty(N + 1), np.zeros(N + 1)
    identical = True
    for layer in layers:
        j, barrier, p = layer.j, layer.barrier, probs[layer.j]
        if barrier is None:  # terminal layer: both inductions start at its rows
            own = rest = layer.rows
        else:
            fdt = layer.fdt
            stops = _stops(layer.rows, barrier)
            identical = identical and _same_as_anchor0(stops)
            own = _rule_step(own[:-1], stops, fdt, barrier)
            # anchor 0's flags over every row, on full and shared-row layers alike
            rest = own if identical else _rule_step(
                rest[:-1], np.broadcast_to(stops[0], stops.shape), fdt, barrier)
            fdt_j = fdt[-1:] if np.ndim(fdt) == 2 else fdt  # anchor j's running terms
            inc = increments(prev[-2:-1], fdt_j, barrier)[0]
            np.copyto(inc, 0.0, where=stops[-1])
            mass = np.maximum.reduce(inc)
            if mass > worst[j]:
                worst[j] = mass
        prev = layer.rows
        e_y[j] = float(p @ layer.v)
        j_own[j] = p @ own[-1]
        j_rest[j] = j_own[j] if rest is own else p @ rest[-1]
    rep = ConsistencyReport(
        anchor_times=tuple(lat.grid.times.tolist()), e_y=tuple(e_y),
        j_own=tuple(j_own.tolist()), j_restarted=tuple(j_rest.tolist()),
        gap=tuple((j_own - j_rest).tolist()), frontiers_identical=identical)
    return rep, worst


def stream_solve(lat: Lattice, layers: Iterable[Layer]) -> tuple:
    """Diagonal and frontier rows of the sweep's layers j = N .. 0.

    Keeps each layer's diagonal and frontier part, and sorts the rows
    anchor-major at the end.  The lattice's states increase strictly
    along each layer, so _frontier_part reads each row's low and high off
    its first and last stop flag, and a layer without a flag adds no rows
    after one scan.  A shared-row layer's shared stop row is read once, and
    its columns repeated for anchors 0..j-1.
    Returns (y_diag, largest last update of the per-node equations, rows).
    """
    N = lat.n_steps
    y_diag = [None] * (N + 1)
    parts = []
    largest_update = 0.0
    for layer in layers:
        j = layer.j
        y_diag[j] = layer.v
        largest_update = max(largest_update, layer.update)
        rows = layer.rows
        parts.append(_frontier_part(j, _stops(rows, layer.barrier), lat.x[j], j + 2 - len(rows)))
    return y_diag, largest_update, _sorted_rows(parts, lat.grid.dt)
