"""Ordered-instance checks and the monotone approximation scheme.

Two instances sharing the same state dynamics are ordered when their
terminal map, driver and obstacle are ordered pointwise; the solved
values then inherit the order.  Construction of an OrderedPair gates
the hypothesis: when drivers read y, at least one must be nondecreasing
in y, or the two drivers must coincide up to an additive constant (the
shift families used throughout the tests).  The solved-value check is
empirical either way: solve both, compare every node.

The monotone scheme approximates a y-coupled solution from above by
freezing the previous iterate in the y-slot, starting from the solution
of a driver-dominating instance.  Successive iterates decrease nodewise
and are Cauchy in an exponentially weighted norm whose weight grows
with the driver's slope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rbsvie.grid import Lattice
from rbsvie.instances import InstanceSpec, shift_driver
from rbsvie.snell import path_sum_moments
from rbsvie.volterra import PicardConfig, Solution, phi_step, solve


class CompareError(ValueError):
    pass


_PROBE_YZ = [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0), (0.0, 0.0),
             (0.3, -0.7), (-0.6, 0.2)]


def _driver_gap_stats(lo: InstanceSpec, hi: InstanceSpec, lat: Lattice,
                      box_yz) -> tuple:
    """(min, max) of f_hi - f_lo over lattice nodes and probed (y, z)."""
    lo_f, hi_f = lo.driver, hi.driver
    gmin, gmax = np.inf, -np.inf
    N = lat.n_steps
    for i in range(0, N + 1, max(1, N // 8)):
        t = lat.grid.t(i)
        for j in range(i, N):
            s = lat.grid.t(j)
            x = lat.x[j]
            for y, z in box_yz:
                g = np.asarray(hi_f(t, s, x, y, z), dtype=float) \
                    - np.asarray(lo_f(t, s, x, y, z), dtype=float)
                gmin = min(gmin, float(g.min()))
                gmax = max(gmax, float(g.max()))
    if gmin is np.inf:  # single-layer grid, no interior (t, s)
        gmin = gmax = 0.0
    return gmin, gmax


@dataclass(frozen=True)
class OrderedPair:
    """A lattice-verified ordered pair of instances (lo below hi).

    witnesses lists which data actually differ: subset of
    {"terminal", "driver", "obstacle"}.
    """

    lo: InstanceSpec
    hi: InstanceSpec
    witnesses: tuple

    @classmethod
    def build(cls, lo: InstanceSpec, hi: InstanceSpec, lat: Lattice,
              atol: float = 1e-12) -> "OrderedPair":
        if (lo.x0, lo.horizon, lo.dynamics.name) != (hi.x0, hi.horizon, hi.dynamics.name):
            raise CompareError("ordered pairs must share dynamics, start and horizon")
        N = lat.n_steps
        grid = lat.grid
        witnesses = set()

        xN = lat.x[N]
        for i in range(N + 1):
            t = grid.t(i)
            a = np.asarray(lo.terminal(t, xN), dtype=float)
            b = np.asarray(hi.terminal(t, xN), dtype=float)
            bad = a - b
            if float(bad.max()) > atol:
                k = int(np.argmax(bad))
                raise CompareError(
                    f"terminal order violated at anchor {i}, terminal node {k}: "
                    f"lo={a[k]:.6g} > hi={b[k]:.6g}")
            if float(np.max(np.abs(bad))) > atol:
                witnesses.add("terminal")

        for j in range(N + 1):
            u = grid.t(j)
            a = np.asarray(lo.obstacle(u, lat.x[j]), dtype=float)
            b = np.asarray(hi.obstacle(u, lat.x[j]), dtype=float)
            bad = a - b
            if float(bad.max()) > atol:
                k = int(np.argmax(bad))
                raise CompareError(
                    f"obstacle order violated at layer {j}, node {k}: "
                    f"lo={a[k]:.6g} > hi={b[k]:.6g}")
            if float(np.max(np.abs(bad))) > atol:
                witnesses.add("obstacle")

        gmin, gmax = _driver_gap_stats(lo, hi, lat, _PROBE_YZ)
        if gmin < -atol:
            raise CompareError(f"driver order violated: min(f_hi - f_lo) = {gmin:.3e}")
        if max(abs(gmin), abs(gmax)) > atol:
            witnesses.add("driver")

        reads_y = lo.driver.depends_on_y or hi.driver.depends_on_y
        if reads_y:
            monotone = lo.driver.monotone_in_y or hi.driver.monotone_in_y
            # an additive-constant gap keeps both drivers' y-coupling
            # identical, which is as good as monotonicity for comparison
            additive = (gmax - gmin) <= max(atol, 1e-10)
            if not (monotone or additive):
                raise CompareError(
                    "comparison hypothesis not met: drivers read y, neither is "
                    "nondecreasing in y, and they differ by more than a constant")
        return cls(lo=lo, hi=hi, witnesses=tuple(sorted(witnesses)))


@dataclass(frozen=True)
class ComparisonReport:
    max_diff: float
    ordered: bool
    witness: tuple | None
    driver_ordering_ok: bool
    y_range: tuple
    z_range: tuple

    def __str__(self):
        state = "ordered" if self.ordered else f"VIOLATED at {self.witness}"
        return (f"comparison: max(Y_lo - Y_hi) = {self.max_diff:.3e} ({state}); "
                f"driver ordering on realized ranges: "
                f"{'ok' if self.driver_ordering_ok else 'violated'}")


def _field_ranges(sol: Solution) -> tuple:
    y_lo = min(float(a.min()) for a in sol.y_diag)
    y_hi = max(float(a.max()) for a in sol.y_diag)
    z_lo, z_hi = 0.0, 0.0
    if sol.z is not None:
        for a in sol.z.layers:
            z_lo = min(z_lo, float(a.min()))
            z_hi = max(z_hi, float(a.max()))
    return (y_lo, y_hi), (z_lo, z_hi)


def _pad(lohi: tuple, frac: float) -> tuple:
    lo, hi = lohi
    w = max(hi - lo, 1e-6)
    return lo - frac * w, hi + frac * w


def check_comparison(lat: Lattice, pair: OrderedPair,
                     cfg: PicardConfig | None = None,
                     tolerance_order: float = 1e-9,
                     pad: float = 0.2) -> ComparisonReport:
    """Solve both instances and compare every diagonal node.

    Also recheck the driver ordering on the solved (y, z) ranges padded
    by the given fraction, the region the discrete comparison actually
    exercises.
    """
    cfg = cfg or PicardConfig()
    sol_lo = solve(lat, pair.lo, cfg)
    sol_hi = solve(lat, pair.hi, cfg)

    max_diff = -np.inf
    witness = None
    for i in range(lat.n_steps + 1):
        d = sol_lo.y_diag[i] - sol_hi.y_diag[i]
        k = int(np.argmax(d))
        if float(d[k]) > max_diff:
            max_diff = float(d[k])
            witness = (i, k, max_diff)

    (ya, za), (yb, zb) = _field_ranges(sol_lo), _field_ranges(sol_hi)
    yl, yh = _pad((min(ya[0], yb[0]), max(ya[1], yb[1])), pad)
    zl, zh = _pad((min(za[0], zb[0]), max(za[1], zb[1])), pad)
    corners = [(yl, zl), (yl, zh), (yh, zl), (yh, zh),
               (0.5 * (yl + yh), 0.5 * (zl + zh))]
    gmin, _ = _driver_gap_stats(pair.lo, pair.hi, lat, corners)
    driver_ok = gmin >= -1e-12

    ordered = max_diff <= tolerance_order
    return ComparisonReport(max_diff=max_diff, ordered=ordered,
                            witness=None if ordered else witness,
                            driver_ordering_ok=driver_ok,
                            y_range=(yl, yh), z_range=(zl, zh))


def random_ordered_pairs(names, lat_by_name, n_pairs: int, seed: int = 4242,
                         max_shift: float = 0.5):
    """Randomized ordered pairs, one datum perturbed per pair.

    Terminal and driver move up on the hi side; the obstacle moves down
    on the lo side, which never breaks the terminal-domination
    requirement of either member.  Instances whose driver decreases in y
    only receive driver shifts: moving the obstacle alone on such an
    instance can genuinely reverse the solution order (lowering the
    obstacle lowers the diagonal, which raises the driver term at other
    anchors), so those pairs fall outside what ordering guarantees.
    Returns (catalog name, OrderedPair) tuples.
    """
    from rbsvie.instances import catalog_instance, shift_obstacle, shift_terminal

    rng = np.random.default_rng(seed)
    names = list(names)
    out = []
    for _ in range(n_pairs):
        name = names[int(rng.integers(len(names)))]
        base = catalog_instance(name)
        c = float(rng.uniform(0.0, max_shift))
        if base.driver.depends_on_y and not base.driver.monotone_in_y:
            data = ("driver",)
        else:
            data = ("terminal", "driver", "obstacle")
        datum = data[int(rng.integers(len(data)))]
        if datum == "terminal":
            lo, hi = base, shift_terminal(base, c)
        elif datum == "driver":
            lo, hi = base, shift_driver(base, c)
        else:
            lo, hi = shift_obstacle(base, -c), base
        out.append((name, OrderedPair.build(lo, hi, lat_by_name[name])))
    return out


def theta_threshold(c_f: float, horizon: float) -> float:
    """Smallest admissible exponential weight, with a 1% margin."""
    return 1.01 * 2.0 * c_f * c_f * (1.0 + 2.0 * horizon)


def theta_norm(lat: Lattice, d_diag: list, d_z: list, d_kinc: list,
               theta: float) -> float:
    """Exponentially weighted norm of a solution-triple difference.

    Squared: sum_i dt e^(theta t_i) ( E[dY_i^2] + sum_j dt E[dZ_ij^2]
    + E[dK(t_i, T)^2] ), where dK(t_i, T) sums the per-step increment
    differences along each path (exact second moment, no sampling).
    d_z and d_kinc are differences of z.layers and kinc.layers: row i of
    layer j is anchor i's change on the layer-j nodes.
    """
    dt = lat.grid.dt
    N = lat.n_steps
    total = 0.0
    for i in range(N + 1):
        layer = float(lat.layer_expect(i, np.asarray(d_diag[i]) ** 2))
        for j in range(i, len(d_z)):
            layer += dt * float(lat.layer_expect(j, d_z[j][i] ** 2))
        _, k2 = path_sum_moments(lat, i, [dk[i] for dk in d_kinc[i:]])
        layer += k2
        total += dt * np.exp(theta * lat.grid.t(i)) * layer
    return float(np.sqrt(total))


@dataclass(frozen=True)
class MonotoneSchemeReport:
    diagonals: list
    increments: list
    theta: float
    max_monotonicity_violation: float

    @property
    def monotone_ok(self) -> bool:
        return self.max_monotonicity_violation <= 1e-9

    @property
    def increment_ratios(self) -> list:
        out = []
        for a, b in zip(self.increments, self.increments[1:]):
            if a > 1e-300:
                out.append(b / a)
        return out


def monotone_scheme(lat: Lattice, spec: InstanceSpec, n_max: int,
                    cfg: PicardConfig | None = None,
                    dom_shift: float = 1.0) -> MonotoneSchemeReport:
    """Nonincreasing approximation from a driver-dominated start.

    Iterate n freezes iterate n-1 in the driver's y-slot and solves the
    resulting y-free reflected system (one pass of the fixed-point map,
    which resolves z internally).  The start is the full solution of the
    same instance with driver f + dom_shift, which dominates every
    iterate.  Requires a driver nondecreasing in y and a step fine
    enough that the one-step map is monotone (|f_z| sqrt(dt) <= 1).
    """
    if n_max < 1:
        raise CompareError("n_max must be >= 1")
    if spec.driver.depends_on_y and not spec.driver.monotone_in_y:
        raise CompareError("monotone scheme needs a driver nondecreasing in y")
    if spec.driver.lipschitz * lat.grid.sqrt_dt > 1.0:
        raise CompareError("grid too coarse for a monotone one-step map")
    if dom_shift <= 0:
        raise CompareError("dom_shift must be positive")
    cfg = cfg or PicardConfig()

    prev = solve(lat, shift_driver(spec, dom_shift), cfg)
    diags = [prev.y_diag]
    theta = theta_threshold(spec.driver.lipschitz, spec.horizon)
    increments = []
    worst = 0.0
    for _ in range(1, n_max):
        nxt = phi_step(lat, spec, prev.y_diag)
        d_diag = [a - b for a, b in zip(nxt.y_diag, prev.y_diag)]
        worst = max(worst, max(float(np.max(d)) for d in d_diag))
        d_z = [a - b for a, b in zip(nxt.z.layers, prev.z.layers)]
        d_k = [a - b for a, b in zip(nxt.kinc.layers, prev.kinc.layers)]
        increments.append(theta_norm(lat, d_diag, d_z, d_k, theta))
        diags.append(nxt.y_diag)
        prev = nxt

    return MonotoneSchemeReport(diagonals=diags, increments=increments,
                                theta=theta, max_monotonicity_violation=worst)
