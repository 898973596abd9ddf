"""Ordered-instance checks.

Two instances sharing the same state dynamics are ordered when their
terminal map, driver and obstacle are ordered pointwise; the solved
values then inherit the order.  Construction of an OrderedPair gates
the hypothesis: unless a driver is declared nondecreasing in y or free
of it (DriverSpec.y_sign 1 or 0, which instances.verify_assumptions
checks), the pair must differ only in the driver, by an additive
constant (instances.shifted, which the tests use throughout), or both
instances must be declared anchor-free (InstanceSpec.anchor_free, which
instances.verify_assumptions checks), so that the system is a reflected
BSDE, for which comparison needs no monotonicity.  The driver order is
probed with the drivers called as the sweep calls them, on columns of
anchor times.  The solved-value check is empirical either way: sweep
both, compare every diagonal node, and recheck the driver order on the
solved (y, z) ranges, z as the sweep makes it.  The monotone scheme of
the comparison theorem is in snell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rbsvie.grid import Lattice, martingale_coeff
from rbsvie.instances import InstanceSpec, catalog_instance, shifted
from rbsvie.volterra import MAX_ITERS, check_anchor_axis, sweep

PAIR_ATOL = 1e-12       # slack of the data order in OrderedPair.build
ORDER_TOLERANCE = 1e-9  # largest max(Y_lo - Y_hi) check_comparison calls ordered
RANGE_PAD = 0.2         # check_comparison widens the solved (y, z) ranges by this
MAX_SHIFT = 0.5         # random_ordered_pairs draws shifts from [0, MAX_SHIFT)


class CompareError(ValueError):
    pass


_PROBE_YZ = [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0), (0.0, 0.0),
             (0.3, -0.7), (-0.6, 0.2)]


def _driver_gap_stats(lo: InstanceSpec, hi: InstanceSpec, lat: Lattice,
                      box_yz) -> tuple:
    """(min, max) of f_hi - f_lo over every (N // 8)-th anchor i, layers
    i..N-1's nodes and each (y, z), one call per layer and (y, z) on a
    column of anchor times as in the sweep; (nan, nan) once a gap is not
    finite, and a CompareError naming the layer if one does not broadcast."""
    every = max(1, lat.n_steps // 8)
    anchor_t = lat.grid.times[::every, None]
    gmin, gmax = np.inf, -np.inf
    for j in range(lat.n_steps):
        t, s, x = anchor_t[: j // every + 1], lat.grid.t(j), lat.x[j]
        for y, z in box_yz:
            try:
                g = np.asarray(hi.driver(t, s, x, y, z), dtype=float) \
                    - np.asarray(lo.driver(t, s, x, y, z), dtype=float)
            except ValueError as exc:
                raise CompareError(f"driver gap on layer {j}: {exc}") from None
            if not np.isfinite(g).all():
                return np.nan, np.nan
            gmin = min(gmin, float(g.min()))
            gmax = max(gmax, float(g.max()))
    return gmin, gmax


def _data_differ(lo_vals, hi_vals, datum: str, where: str, node: str) -> bool:
    """Whether lo's datum values differ from hi's beyond PAIR_ATOL at
    where; a non-finite gap, or lo above hi beyond it, is a CompareError
    naming the node."""
    a = np.asarray(lo_vals, dtype=float)
    b = np.asarray(hi_vals, dtype=float)
    bad = a - b
    finite = np.isfinite(bad)
    if not finite.all():
        raise CompareError(f"non-finite {datum} gap at {where}, node {int(np.argmin(finite))}")
    if float(bad.max()) > PAIR_ATOL:
        k = int(np.argmax(bad))
        raise CompareError(f"{datum} order violated at {where}, {node} {k}: "
                           f"lo={a[k]:.6g} > hi={b[k]:.6g}")
    return float(np.max(np.abs(bad))) > PAIR_ATOL


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
    def build(cls, lo: InstanceSpec, hi: InstanceSpec, lat: Lattice) -> "OrderedPair":
        if (lo.x0, lo.horizon, lo.dynamics.name) != (hi.x0, hi.horizon, hi.dynamics.name):
            raise CompareError("ordered pairs must share dynamics, start and horizon")
        for spec in (lo, hi):
            if not spec.anchor_free:  # refused as the sweep would, before the gate
                check_anchor_axis(lat, spec)
        N = lat.n_steps
        grid = lat.grid
        witnesses = set()

        xN = lat.x[N]
        for i in range(N + 1):
            t = grid.t(i)
            if _data_differ(lo.terminal(t, xN), hi.terminal(t, xN), "terminal",
                            f"anchor {i}", "terminal node"):
                witnesses.add("terminal")

        for j in range(N + 1):
            u, x = grid.t(j), lat.x[j]
            if _data_differ(lo.obstacle(u, x), hi.obstacle(u, x), "obstacle",
                            f"layer {j}", "node"):
                witnesses.add("obstacle")

        gmin, gmax = _driver_gap_stats(lo, hi, lat, _PROBE_YZ)
        if np.isnan(gmin):
            raise CompareError("non-finite driver gap on a probed node")
        if gmin < -PAIR_ATOL:
            raise CompareError(f"driver order violated: min(f_hi - f_lo) = {gmin:.3e}")
        if max(abs(gmin), abs(gmax)) > PAIR_ATOL:
            witnesses.add("driver")

        if not (lo.driver.y_sign in (0, 1) or hi.driver.y_sign in (0, 1)):
            # a constant driver shift keeps both y-couplings identical; any
            # other datum moved on an anchor-coupled instance can reverse
            # the order through the diagonal
            shift = witnesses <= {"driver"} and gmax - gmin <= 1e-10
            if not (shift or (lo.anchor_free and hi.anchor_free)):
                raise CompareError(
                    "comparison hypothesis not met: no driver is declared y_sign 0 "
                    "or 1, the pair differs by more than a constant driver shift, "
                    "and an instance is not declared anchor-free")
        return cls(lo=lo, hi=hi, witnesses=tuple(sorted(witnesses)))


@dataclass(frozen=True)
class ComparisonReport:
    max_diff: float
    ordered: bool
    witness: tuple | None
    driver_ordering_ok: bool
    y_range: tuple
    z_range: tuple


def _diagonal_and_ranges(lat: Lattice, spec: InstanceSpec, max_iters: int) -> tuple:
    """(diagonal, (y_lo, y_hi), (z_lo, z_hi)) of one sweep, which keeps no
    other layer array; the z range starts from 0."""
    y_diag = [None] * (lat.n_steps + 1)
    z_lo, z_hi = 0.0, 0.0
    for layer in sweep(lat, spec, max_iters):
        y_diag[layer.j] = layer.v
        if layer.j:  # layer j - 1's z, as the sweep makes it from this layer
            z = martingale_coeff(layer.rows[:-1], lat.grid.sqrt_dt)
            z_lo = min(z_lo, float(z.min()))
            z_hi = max(z_hi, float(z.max()))
    y_range = (min(float(a.min()) for a in y_diag), max(float(a.max()) for a in y_diag))
    return y_diag, y_range, (z_lo, z_hi)


def _pad(lohi: tuple, frac: float) -> tuple:
    lo, hi = lohi
    w = max(hi - lo, 1e-6)
    return lo - frac * w, hi + frac * w


def check_comparison(lat: Lattice, pair: OrderedPair,
                     max_iters: int = MAX_ITERS) -> ComparisonReport:
    """Sweep both instances, one layer held at a time, and compare every
    diagonal node; max_iters bounds each per-node equation.

    Also recheck the driver ordering on the solved (y, z) ranges padded
    by RANGE_PAD of their width, the region the discrete comparison
    actually exercises.
    """
    y_lo, ya, za = _diagonal_and_ranges(lat, pair.lo, max_iters)
    y_hi, yb, zb = _diagonal_and_ranges(lat, pair.hi, max_iters)

    max_diff = -np.inf
    witness = None
    for i in range(lat.n_steps + 1):
        d = y_lo[i] - y_hi[i]
        k = int(np.argmax(d))
        if float(d[k]) > max_diff:
            max_diff = float(d[k])
            witness = (i, k, max_diff)

    yl, yh = _pad((min(ya[0], yb[0]), max(ya[1], yb[1])), RANGE_PAD)
    zl, zh = _pad((min(za[0], zb[0]), max(za[1], zb[1])), RANGE_PAD)
    corners = [(yl, zl), (yl, zh), (yh, zl), (yh, zh),
               (0.5 * (yl + yh), 0.5 * (zl + zh))]
    gmin, _ = _driver_gap_stats(pair.lo, pair.hi, lat, corners)
    driver_ok = gmin >= -1e-12

    ordered = max_diff <= ORDER_TOLERANCE
    return ComparisonReport(max_diff=max_diff, ordered=ordered,
                            witness=None if ordered else witness,
                            driver_ordering_ok=driver_ok,
                            y_range=(yl, yh), z_range=(zl, zh))


def random_ordered_pairs(names, lat_by_name, n_pairs: int, seed: int = 4242):
    """Randomized ordered pairs, one datum perturbed per pair.

    Terminal and driver move up on the hi side; the obstacle moves down
    on the lo side, which never breaks the terminal-domination
    requirement of either member.  Instances whose driver is not declared
    nondecreasing in y or free of it (DriverSpec.y_sign 1 or 0) only
    receive driver shifts: moving the obstacle alone on such an
    instance can genuinely reverse the solution order (lowering the
    obstacle lowers the diagonal, which raises the driver term at other
    anchors), so those pairs fall outside what ordering guarantees.
    Returns (catalog name, OrderedPair) tuples.
    """
    rng = np.random.default_rng(seed)
    names = list(names)
    out = []
    for _ in range(n_pairs):
        name = names[int(rng.integers(len(names)))]
        base = catalog_instance(name)
        c = float(rng.uniform(0.0, MAX_SHIFT))
        if base.driver.y_sign not in (0, 1):
            data = ("driver",)
        else:
            data = ("terminal", "driver", "obstacle")
        datum = data[int(rng.integers(len(data)))]
        if datum == "obstacle":
            lo, hi = shifted(base, datum, -c), base
        else:
            lo, hi = base, shifted(base, datum, c)
        out.append((name, OrderedPair.build(lo, hi, lat_by_name[name])))
    return out
