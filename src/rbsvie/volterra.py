"""Diagonal of the reflected Volterra system on the lattice.

Anchor i's slice (see the slice solver) reads the diagonal Y only on
layers j >= i, so the discrete system is triangular in the anchor index
and one backward pass over the layers solves it exactly.  At layer j,
from the layer-(j+1) rows of anchors 0..j:

    E, z     grid.cond_expect and grid.martingale_coeff of all rows at once
    Y(t_j)   per node, the solution of v = max(E + f(t_j, t_j, x, v, z) dt, L)
             on anchor j's row, found by fixed-point iteration; for a
             driver declared nonincreasing in y, by a secant step that
             is kept only where it lands on an exact fixed point
    rows     max(E + f(t_i, t_j, x, Y(t_j), z) dt, L) for every anchor
             i <= j at once, the driver broadcast over an anchor axis

This is the paper's construction that pastes short windows together,
with window dt and an exact inner solve.  sweep runs it and hands out
each layer's (anchors x nodes) arrays as soon as they are made, so a
consumer that reads them in the sweep's order, j = N .. 0, holds one
layer at a time; every command consumes it so.  solve collects the
layers into a Solution's per-layer lists, the stored reference that the
tests replay and compare.
When neither the driver nor the terminal reads the anchor
(InstanceSpec.anchor_free), anchors 0..j-1 step the same numbers through
the same operations, and the sweep steps one shared row for them: its
layers hold that row and anchor j's settled v (see Layer), O(N) values
instead of O(N^2), and the consumers read anchors only by first and
last row.
The martingale coefficients z are made only when asked for: a driver
that reads no z (DriverSpec.depends_on_z False) is stepped on read-only
zeros, as in the Monte Carlo engine.  The sweep makes no reflection
increments max(L - E - f dt, 0): increments rebuilds them from a
layer's inputs, for solve's stored field and for the one row of each
layer on which they can be nonzero off the stop set, anchor j's own.
step_layer is everything after the one-step operator; the regression
Monte Carlo engine (mc.solve_mc) calls it on its projections, so the
two engines differ only in how E and z are made, and in that only the
lattice sweep asks for the secant (see _settle_diagonal): the Monte
Carlo equations mostly end on last-bit cycles, where it cannot help.
The global Picard iteration the sweep is checked against lives in the
reference module, snell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from rbsvie.grid import Lattice, TimeGrid, cond_expect, martingale_coeff
from rbsvie.instances import InstanceSpec, anchor_axis_defect, broadcast_defect

# relative size of a last-bit cycle the per-node equation may end on
SETTLE_RTOL = 1e-14
# default bound on the iterations of each per-node equation
MAX_ITERS = 200
# driver calls the secant makes from its candidate: most often the first
# certifies it, and otherwise the second lands on the exact fixed point
SECANT_CALLS = 2


class VolterraError(ValueError):
    pass


class NoConvergence(RuntimeError):
    def __init__(self, iterations: int, last_residual: float, where: str = "global Picard"):
        self.iterations = iterations
        self.last_residual = last_residual
        self.where = where
        super().__init__(
            f"{where}: fixed point did not settle within {iterations} iterations "
            f"(last change {last_residual:.3e})"
        )


@dataclass(frozen=True)
class PicardConfig:
    """Solver controls.

    max_iters bounds the iterations of each per-node equation in the
    sweep and the passes of the Picard reference (snell.solve_global).
    """

    max_iters: int = MAX_ITERS

    def __post_init__(self):
        if self.max_iters < 1:
            raise VolterraError("max_iters must be >= 1")


@dataclass
class Solution:
    """Solved diagonal and the stored per-anchor fields, layer by layer.

    y_diag[i] is the layer-i array of diagonal values Y(t_i).  ytilde[j],
    z[j] and kinc[j] are (j + 1) x (j + 1) layer arrays, row i anchor
    i's envelope, martingale coefficients and reflection increments on
    the layer-j nodes: the sweep's rows and z, and the increments of its
    step rebuilt by increments; ytilde has layers 0..N, z and kinc
    layers 0..N-1.  The reflection term is stored as per-step
    increments, so the cumulative K(t_i, t_j) along a path is the sum of
    kinc over the visited nodes.
    For the sweep, residual_history holds one entry, the largest last
    update of the per-node equations (0.0 when every one settled
    exactly); for the Picard reference it holds the expectation-norm
    change per pass (empty for a single snell.phi_step pass).
    """

    y_diag: list
    ytilde: list
    z: list
    kinc: list
    iterations: int
    residual_history: list


def _driver_rows(spec: InstanceSpec, t, s: float, x, y, z, shape: tuple,
                 j: int) -> np.ndarray:
    """Driver values that broadcast to shape; a mismatch names the layer."""
    f = np.asarray(spec.driver(t, s, x, y, z), dtype=float)
    if f.shape == shape or broadcast_defect(f.shape, shape) is None:
        return f
    raise _not_broadcast(broadcast_defect(f.shape, shape), shape, j)


def _not_broadcast(reason: str, shape: tuple, j: int) -> VolterraError:
    return VolterraError(f"driver at layer {j} does not broadcast to "
                         f"(anchors, nodes) = {shape}: {reason}")


def _non_finite(i: int, j: int) -> VolterraError:
    return VolterraError(f"non-finite value at anchor {i}, layer {j}; "
                         f"check instance parameters")


def check_finite(rows: np.ndarray, j: int) -> None:
    """Rows of layer j, anchors 0..j or a shared-row layer's (see Layer):
    row i < len(rows) - 1 is anchor i and the last row anchor j in both
    forms; the first non-finite one is named.

    One pass tests the whole layer; only a failing layer is scanned row
    by row for the anchor to name.
    """
    finite = np.isfinite(rows)
    if not np.logical_and.reduce(finite, axis=None):
        i = int(np.argmax(~finite.all(axis=1)))
        raise _non_finite(j if i == len(rows) - 1 else i, j)


def _settle_diagonal(spec: InstanceSpec, s: float, x, e, z, barrier, dt: float,
                     j: int, max_iters: int, *, nonincreasing: bool = False) -> tuple:
    """Anchor j on its own layer: v = max(e + f(t_j, t_j, x, v, z) dt, L) per node.

    Iterates from max(e, L) until an update changes nothing, or until
    the updates stop shrinking within SETTLE_RTOL (1 + |v|): a last-bit
    cycle.  Returns (v, last update, fdt): fdt is the last iteration's
    f(t_j, t_j, x, ., z) dt when its iterate and v are bitwise equal, so
    that it is the running term at v itself and max(e + fdt, L) is v bit
    for bit, and None otherwise (a last-bit cycle, or an update of 0.0
    between 0.0 and -0.0).  Only the first driver call is tested for its
    shape; later iterates have the same shape.  A non-finite start
    max(e, L) makes the first iterate non-finite on the same node, which
    is raised after that iterate's driver call.  From a finite start,
    the update's reduction is the finiteness test: a NaN or infinity in
    an iterate makes the update NaN or infinite, and only then is the
    iterate tested value by value, since the difference of two finite
    iterates may overflow to infinity.

    With nonincreasing (the driver is declared nonincreasing in y,
    DriverSpec.y_sign -1) the map v -> max(e + f dt, L) is
    nonincreasing node by node in floats, so it has at most one exact
    fixed point.  At the loop's second driver call _secant tries to reach
    that point in fewer calls; a point it returns is the one the loop
    ends on whenever the loop ends exactly, with the same update 0.0 and
    fdt.  Otherwise the loop goes on as if the secant had not run, so its
    values, errors and NoConvergence fields are the loop's.
    """
    v = np.maximum(e, barrier)
    f = _driver_rows(spec, s, s, x, v, z, v.shape, j)
    if not np.logical_and.reduce(np.isfinite(v)):
        raise _non_finite(j, j)
    d = np.empty_like(v)
    last = np.inf
    for it in range(max_iters):
        if it:
            f = np.asarray(spec.driver(s, s, x, v, z), dtype=float)
        fdt = f * dt
        c = e + fdt
        if nonincreasing and it < 2 and max_iters > 2:
            if it == 0:
                v0, c0 = v, c
            else:
                got = _secant(spec.driver, s, x, e, z, barrier, dt, v0, c0, v, c, fdt,
                              max_iters - 2)
                if got is not None:
                    return got
        nxt = np.maximum(c, barrier)
        step = float(np.maximum.reduce(np.abs(np.subtract(nxt, v, out=d), out=d)))
        if not math.isfinite(step) and not np.logical_and.reduce(np.isfinite(nxt)):
            raise _non_finite(j, j)
        if step == 0.0:
            return nxt, step, fdt if nxt.tobytes() == v.tobytes() else None
        v = nxt
        if step >= last and step <= SETTLE_RTOL * (
                1.0 + float(np.maximum.reduce(np.abs(v, out=d)))):
            return v, step, None
        last = step
    raise NoConvergence(max_iters, last, where=f"anchor {j}, layer {j}")


def _secant(driver, s: float, x, e, z, barrier, dt: float, v0, c0, v1, c1, fdt1,
            calls: int) -> tuple | None:
    """The exact fixed point of v -> max(e + f dt, L), or None.

    v0 and v1 are the settle loop's first two iterates, c0 and c1 their
    unclamped images e + f dt, and fdt1 the running terms at v1.  Per
    node, the secant through (v0, c0) and (v1, c1) has slope
    m = (c1 - c0) / (v1 - v0), in (-inf, 0] for a nonincreasing map, and
    crosses the diagonal at r = v1 + (c1 - v1) / (1 - m).  The candidate
    is the map's image of r read off the secant,
    max(e + (fdt1 + (c1 - v1) m / (1 - m)), L): it adds e to the running
    terms last, as the map does, so it rounds as the map rounds and is
    most often the exact fixed point itself.  A node whose two iterates
    are equal, where m / (1 - m) is 0 / 0, takes 0 there and so v1's
    image, v1.  The map is then applied at most min(calls, SECANT_CALLS)
    times.  Returns (v, 0.0, fdt) once an iterate and its image are
    bitwise equal and finite: an exact fixed point, with fdt the running
    terms at v.  The arithmetic and these driver calls run with numpy's
    floating-point warnings off, since a candidate that overflows or is
    NaN is dropped, not reported: the loop reports what it meets on its
    own iterates.
    """
    with np.errstate(all="ignore"):
        d = v1 - v0
        dc = c1 - c0
        u = np.divide(dc, np.subtract(d, dc, out=d), out=dc)  # m / (1 - m)
        np.fmin(u, 0.0, out=u)
        w = np.subtract(c1, v1)
        w *= u
        w += fdt1
        w += e
        np.maximum(w, barrier, out=w)
        for _ in range(min(calls, SECANT_CALLS)):
            fdt = np.asarray(driver(s, s, x, w, z), dtype=float) * dt
            nxt = np.maximum(e + fdt, barrier)
            if nxt.tobytes() == w.tobytes():
                if np.logical_and.reduce(np.isfinite(w)):
                    return w, 0.0, fdt
                return None
            w = nxt
    return None


def terminal_rows(spec: InstanceSpec, grid: TimeGrid, x_N, shared: bool = False) -> tuple:
    """(anchor_t, rows): grid.times as a column of anchor times, and every
    anchor's terminal row on x_N; with shared only anchor 0's row, which
    anchors 0..N-1 share, and anchor N's.  A terminal that reads no anchor
    (TerminalSpec.depends_on_anchor False) is called once, at t_0, and its
    row copied into every row; otherwise once per anchor, at t(i)."""
    anchor_t = grid.times[:, None]
    anchors = (0, grid.n_steps) if shared else range(len(anchor_t))
    rows = np.empty((len(anchors), len(x_N)))
    if spec.terminal.depends_on_anchor:
        for r, i in enumerate(anchors):
            rows[r] = spec.terminal(grid.t(i), x_N)
    else:
        rows[:] = spec.terminal(grid.t(0), x_N)
    return anchor_t, rows


def running_terms(spec: InstanceSpec, t, s: float, x, v, z: np.ndarray, dt: float,
                  j: int) -> np.ndarray:
    """f(t, s, x, v, z) dt, broadcastable to z's (anchors, nodes) shape."""
    return _driver_rows(spec, t, s, x, v, z, z.shape, j) * dt


def step_rows(spec: InstanceSpec, t, s: float, x, v, e: np.ndarray, z: np.ndarray,
              barrier, dt: float, j: int) -> tuple:
    """max(e + f(t, s, x, v, z) dt, L) row by row, written over e.

    Returns (rows, running term f dt); increments rebuilds the rows'
    reflection increments from the same inputs.
    """
    fdt = running_terms(spec, t, s, x, v, z, dt, j)
    c = np.add(e, fdt, out=e)
    return np.maximum(c, barrier, out=c), fdt


def increments(nxt: np.ndarray, fdt, barrier) -> np.ndarray:
    """Reflection increments max(L - (E + f dt), 0) of the rows stepped from nxt.

    nxt holds the rows' layer-(j+1) values and E is grid.cond_expect(nxt),
    the sweep's own call, so these are its operations in its order and its
    increments bit for bit.  Off the stop set they vanish on every anchor
    row i < j of a sweep layer: there rows = max(E + f dt, L) exceeds L
    by more than the stop tolerance, so E + f dt does too.
    """
    e = cond_expect(nxt)
    c = np.add(e, fdt, out=e)
    return np.maximum(np.subtract(barrier, c, out=c), 0.0, out=c)


@dataclass(frozen=True)
class Layer:
    """Layer j of the backward sweep, anchors 0..j over the layer-j nodes.

    rows[i] is anchor i's envelope and v the settled diagonal Y(t_j),
    equal to rows[j]; z[i] is anchor i's martingale coefficients, None
    unless asked for, fdt the running terms f(t_i, t_j, x, v, z[i]) dt
    and barrier the obstacle L(t_j, x); update is the last update of the
    per-node equation.  A layer holds no reflection increments: increments
    rebuilds them from the layer's fdt and barrier and the rows of layer
    j + 1.  On the terminal layer N, rows are the terminal values and z,
    fdt and barrier are None.  The lattice sweep writes into no layer
    after handing it out; the Monte Carlo engine reuses its z buffer.

    The sweep of an anchor-free instance hands out shared-row layers,
    told apart by len(rows) < j + 1: rows[0] is the row anchors 0..j-1
    share and rows[-1] anchor j's v, kept apart because the per-node
    equation may end on a last-bit cycle that the explicit step does not
    repeat; z holds one row for all anchors 0..j, and fdt one row or
    less.  Where the equation settled exactly, the explicit step would
    give v bit for bit, so that layer is [v, v] and its fdt the settle's
    last running terms.  Layer 0 has the one row of anchor 0 either way.
    Consumers index anchors by first and last row in both forms: the
    step to layer j - 1 reads rows[:-1], anchors 0..j-1, and rows[-1] is
    anchor j.  per_anchor lays a shared-row layer out per anchor.
    """

    j: int
    rows: np.ndarray
    v: np.ndarray
    z: np.ndarray | None = None
    fdt: np.ndarray | None = None
    barrier: np.ndarray | None = None
    update: float = 0.0


def step_layer(spec: InstanceSpec, anchor_t: np.ndarray, s: float, x, e: np.ndarray,
               z: np.ndarray, dt: float, j: int, max_iters: int,
               keep_z: bool = True, *, nonincreasing: bool = False) -> Layer:
    """Layer j of the backward sweep, from the one-step operator's output.

    e and z are the conditional expectations and martingale coefficients
    of anchors 0..j's layer-(j+1) values, one row per anchor, or one
    shared row for them all on an anchor-free instance; the engines
    differ only in the operator that makes them (lattice midpoint or
    regression projection).  anchor_t is the column of anchor times.
    Anchor j's row, the last, settles its per-state equation, then every
    row steps with the diagonal frozen at the settled v.  The rows
    overwrite e; the settled v replaces the last row, or is appended
    after the shared row (see Layer).  A shared row whose equation
    settled exactly is not stepped: it steps e[-1] on the running terms
    of the settle's last iteration, so it is v and the layer [v, v].
    The layer carries z when keep_z.  nonincreasing lets the settle
    try its secant (see _settle_diagonal); the sweep passes the driver's
    declaration, the Monte Carlo engine nothing.  A max_iters below 1 is
    a VolterraError.
    """
    if max_iters < 1:
        raise VolterraError("max_iters must be >= 1")
    barrier = np.asarray(spec.obstacle(s, x), dtype=float)
    v, update, fdt = _settle_diagonal(spec, s, x, e[-1], z[-1], barrier, dt, j, max_iters,
                                      nonincreasing=nonincreasing)
    shared = len(e) <= j
    if shared and fdt is not None:
        # the shared row steps e[-1] on the settle's last running terms: it is v
        rows = np.concatenate((v[None], v[None]))
    else:
        rows, fdt = step_rows(spec, anchor_t[: len(e)], s, x, v, e, z, barrier, dt, j)
        if shared:
            rows = np.concatenate((rows, v[None]))
        else:
            rows[-1] = v
        check_finite(rows, j)
    return Layer(j, rows, v, z if keep_z else None, fdt=fdt, barrier=barrier, update=update)


def sweep(lat: Lattice, spec: InstanceSpec, max_iters: int, *, z: bool = False):
    """Yield the sweep's layers j = N .. 0 (see the module docstring).

    The layers of an anchor-free instance are shared-row layers (see
    Layer), which start from two terminal rows.  Each layer carries its
    martingale coefficients only with z; otherwise Layer.z is None, and
    no layer holds increments.  The coefficients are made anyway when the
    driver reads them; a driver that reads no z is stepped on read-only
    zeros.  Before the first layer of a full sweep the driver is probed
    with all N + 1 anchor times against layer N - 1's N nodes, the one
    layer where the two axes differ in length: a driver that folds the
    anchor axis into the node axis passes every sweep layer's shape test
    and would be solved on wrong values.  A shared-row sweep passes one
    anchor time on every layer, which no fold can misplace, and skips the
    probe and its (N + 1) x N arrays.  Each later layer is made from the
    one before, which the consumer may keep or drop.  A driver declared
    nonincreasing in y (DriverSpec.y_sign -1) is settled with the secant;
    one that reads no y keeps the loop, which settles it in two calls.
    """
    grid = lat.grid
    N = lat.n_steps
    shared = spec.anchor_free
    anchor_t, rows = terminal_rows(spec, grid, lat.x[N], shared)
    check_finite(rows, N)
    reason = None if shared else anchor_axis_defect(spec, anchor_t, lat.x[N - 1])
    if reason is not None:
        raise _not_broadcast(reason, (N + 1, N), N - 1)
    layer = Layer(N, rows, rows[-1].copy())
    yield layer
    dt, sqrt_dt = grid.dt, grid.sqrt_dt
    zeros = None if z or spec.driver.depends_on_z else np.broadcast_to(0.0, (N, N))
    nonincreasing = spec.driver.y_sign == -1
    for j in range(N - 1, -1, -1):
        nxt = layer.rows[:-1]  # anchors 0..j on layer j + 1, or their shared row
        e = cond_expect(nxt)
        zj = martingale_coeff(nxt, sqrt_dt) if zeros is None else zeros[: len(nxt), : j + 1]
        layer = step_layer(spec, anchor_t, j * dt, lat.x[j], e, zj, dt, j, max_iters, z,
                           nonincreasing=nonincreasing)
        yield layer


def per_anchor(layer: Layer) -> Layer:
    """The layer with one row per anchor 0..j in rows and z.

    A shared-row layer's rows become a new array that repeats the shared
    row for anchors 0..j-1 above v, and its one z row a read-only
    np.broadcast_to view; fdt is left as it is, and broadcasts to one row
    per anchor.  A full layer comes back unchanged.
    """
    j, rows, z = layer.j, layer.rows, layer.z
    if len(rows) <= j:
        rows = np.empty((j + 1, j + 1))
        rows[:-1], rows[-1] = layer.rows[0], layer.rows[-1]
    if z is not None and len(z) <= j:
        z = np.broadcast_to(z, (j + 1, j + 1))
    return replace(layer, rows=rows, z=z)


def solve(lat: Lattice, spec: InstanceSpec, cfg: PicardConfig | None = None) -> Solution:
    """The sweep's layers collected into a Solution (see the module docstring).

    A shared-row layer is laid out per anchor by per_anchor.  kinc[j] is
    rebuilt by increments from the stored layer j + 1.
    """
    cfg = cfg or PicardConfig()
    N = lat.n_steps
    y_diag, ytilde = [None] * (N + 1), [None] * (N + 1)
    z, kinc = [None] * N, [None] * N
    largest_update = 0.0
    for layer in sweep(lat, spec, cfg.max_iters, z=True):
        j = layer.j
        layer = per_anchor(layer)
        y_diag[j], ytilde[j] = layer.v, layer.rows
        largest_update = max(largest_update, layer.update)
        if j < N:
            z[j] = layer.z
            kinc[j] = increments(ytilde[j + 1][: j + 1], layer.fdt, layer.barrier)
    return Solution(y_diag, ytilde, z, kinc, iterations=1,
                    residual_history=[largest_update])
