"""Diagonal of the reflected Volterra system on the lattice.

Anchor i's slice (see the slice solver) reads the diagonal Y only on
layers j >= i, so the discrete system is triangular in the anchor index
and one backward pass over the layers solves it exactly.  At layer j,
from the layer-(j+1) rows of anchors 0..j:

    E, z     one-step expectations and martingale coefficients, all rows
    Y(t_j)   per node, the solution of v = max(E + f(t_j, t_j, x, v, z) dt, L)
             on anchor j's row, found by fixed-point iteration
    rows     max(E + f(t_i, t_j, x, Y(t_j), z) dt, L) for every anchor
             i <= j at once, the driver broadcast over an anchor axis

This is the paper's construction that pastes short windows together,
with window dt and an exact inner solve.  solve runs it and stores each
layer's (anchors x nodes) arrays once.  step_layer is everything after
the one-step operator; the regression Monte Carlo engine (mc.solve_mc)
calls it on its projections, so the two engines differ only in how E
and z are made.

The global Picard iteration (solve_global, built on phi_step) stays as
the independent reference: it freezes the diagonal U, solves every
anchor's slice under it and iterates until the diagonal and z-field stop
moving.  It is the map whose contraction the paper's existence argument
rests on; contraction_ratios measures that contraction.  phi_step lays
each anchor's slice onto the same layers solve stores, so the reference
and the sweep are compared layer by layer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from rbsvie.grid import Lattice
from rbsvie.instances import InstanceSpec
from rbsvie.snell import BiField, SnellSlice, solve_slice

# relative size of a last-bit cycle the per-node equation may end on
SETTLE_RTOL = 1e-14


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

    max_iters bounds the iterations of each per-node equation in solve
    and the passes of solve_global.  tolerance is solve_global's bound on
    the largest entrywise change of the diagonal and z-field between
    passes, and on the expectation norm of that change (see e_norm); the
    sweep is exact and does not read it.  store_fields=False keeps only
    the diagonal.
    """

    tolerance: float = 1e-10
    max_iters: int = 200
    store_fields: bool = True

    def __post_init__(self):
        if not self.tolerance > 0:
            raise VolterraError("tolerance must be positive")
        if self.max_iters < 1:
            raise VolterraError("max_iters must be >= 1")


@dataclass
class Solution:
    """Solved diagonal and, unless diagonal-only, the per-anchor fields.

    y_diag[i] is the layer-i array of diagonal values Y(t_i).  The
    triangular fields hold per-anchor envelopes, martingale coefficients
    and reflection increments (None in diagonal-only mode); the
    reflection term is stored as per-step increments, so the cumulative
    K(t_i, t_j) along a path is the sum of kinc over the visited nodes.
    For mode "sweep", residual_history holds one entry, the largest last
    update of the per-node equations (0.0 when every one settled
    exactly); for mode "global" it holds the expectation-norm change per
    pass (empty for a single phi_step pass).
    """

    y_diag: list
    ytilde: BiField | None
    z: BiField | None
    kinc: BiField | None
    iterations: int
    residual_history: list
    mode: str = "sweep"

    def slice_view(self, i: int) -> SnellSlice:
        if self.ytilde is None:
            raise VolterraError("fields were not stored (diagonal-only mode)")
        n = self.ytilde.n_steps
        return SnellSlice(
            anchor=i,
            ytilde=[self.ytilde.at(i, j) for j in range(i, n + 1)],
            z=[self.z.at(i, j) for j in range(i, n)],
            kinc=[self.kinc.at(i, j) for j in range(i, n)],
        )


def _driver_rows(spec: InstanceSpec, t, s: float, x, y, z, shape: tuple,
                 j: int) -> np.ndarray:
    """Driver values that broadcast to shape; a mismatch names the layer."""
    f = np.asarray(spec.driver(t, s, x, y, z), dtype=float)
    try:
        if np.broadcast_shapes(f.shape, shape) == shape:
            return f
    except ValueError:
        pass
    raise VolterraError(
        f"driver result of shape {f.shape} at layer {j} does not broadcast "
        f"to (anchors, nodes) = {shape}")


def _non_finite(i: int, j: int) -> VolterraError:
    return VolterraError(f"non-finite value at anchor {i}, layer {j}; "
                         f"check instance parameters")


def check_finite(rows: np.ndarray, j: int) -> None:
    """Rows are anchors 0.. on layer j; the first non-finite one is named."""
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise _non_finite(int(np.argmax(bad)), j)


def _settle_diagonal(spec: InstanceSpec, s: float, x, e, z, barrier, dt: float,
                     j: int, max_iters: int) -> tuple:
    """Anchor j on its own layer: v = max(e + f(t_j, t_j, x, v, z) dt, L) per node.

    Iterates from max(e, L) until an update changes nothing, or until
    the updates stop shrinking within SETTLE_RTOL (1 + |v|): a last-bit
    cycle.  Returns (v, last update).
    """
    v = np.maximum(e, barrier)
    last = np.inf
    for _ in range(max_iters):
        nxt = np.maximum(e + _driver_rows(spec, s, s, x, v, z, v.shape, j) * dt, barrier)
        if not np.isfinite(nxt).all():
            raise _non_finite(j, j)
        step = float(np.max(np.abs(nxt - v)))
        v = nxt
        if step == 0.0 or (step >= last
                           and step <= SETTLE_RTOL * (1.0 + float(np.max(np.abs(v))))):
            return v, step
        last = step
    raise NoConvergence(max_iters, last, where=f"anchor {j}, layer {j}")


def step_rows(spec: InstanceSpec, t, s: float, x, v, e: np.ndarray, z: np.ndarray,
              barrier, dt: float, j: int, kinc: bool = False) -> tuple:
    """max(e + f(t, s, x, v, z) dt, L) row by row, written over e.

    Returns (rows, reflection increments max(L - e - f dt, 0) or None).
    """
    c = np.add(e, _driver_rows(spec, t, s, x, v, z, z.shape, j) * dt, out=e)
    k = np.maximum(barrier - c, 0.0) if kinc else None
    return np.maximum(c, barrier, out=c), k


def step_layer(spec: InstanceSpec, anchor_t: np.ndarray, s: float, x, e: np.ndarray,
               z: np.ndarray, dt: float, j: int, max_iters: int,
               kinc: bool = False) -> tuple:
    """Layer j of the backward sweep, from the one-step operator's output.

    e and z are the conditional expectations and martingale coefficients
    of anchors 0..j's layer-(j+1) values, one row per anchor; the engines
    differ only in the operator that makes them (lattice midpoint or
    regression projection).  anchor_t is the column of anchor times.
    Anchor j's row settles its per-state equation, then every row steps
    with the diagonal frozen at the settled v.  The rows overwrite e.
    Returns (rows, v, barrier, last update, reflection increments or None).
    """
    barrier = np.asarray(spec.obstacle(s, x), dtype=float)
    v, update = _settle_diagonal(spec, s, x, e[j], z[j], barrier, dt, j, max_iters)
    rows, k = step_rows(spec, anchor_t[: j + 1], s, x, v, e, z, barrier, dt, j, kinc)
    rows[j] = v
    check_finite(rows, j)
    return rows, v, barrier, update, k


def solve(lat: Lattice, spec: InstanceSpec, cfg: PicardConfig | None = None) -> Solution:
    """One backward sweep over the layers (see the module docstring)."""
    cfg = cfg or PicardConfig()
    grid = lat.grid
    N = lat.n_steps
    dt = grid.dt
    anchor_t = (np.arange(N + 1) * dt)[:, None]  # bitwise equal to grid.t(i)

    rows = np.empty((N + 1, N + 1))
    for i in range(N + 1):
        rows[i] = spec.terminal(grid.t(i), lat.x[N])
    check_finite(rows, N)
    y_diag = [None] * (N + 1)
    y_diag[N] = rows[N].copy()
    ytilde_layers = [None] * (N + 1)
    z_layers = [None] * N
    kinc_layers = [None] * N
    ytilde_layers[N] = rows
    largest_update = 0.0

    for j in range(N - 1, -1, -1):
        nxt = rows[: j + 1]  # anchors 0..j on layer j + 1
        e = 0.5 * (nxt[:, 1:] + nxt[:, :-1])
        z = (nxt[:, 1:] - nxt[:, :-1]) / (2.0 * grid.sqrt_dt)
        rows, v, _, update, kinc = step_layer(spec, anchor_t, grid.t(j), lat.x[j], e, z,
                                              dt, j, cfg.max_iters, cfg.store_fields)
        largest_update = max(largest_update, update)
        y_diag[j] = v
        if cfg.store_fields:
            ytilde_layers[j] = rows
            z_layers[j] = z
            kinc_layers[j] = kinc

    fields = [None, None, None]
    if cfg.store_fields:
        fields = [BiField(N, "ytilde", ytilde_layers), BiField(N, "z", z_layers),
                  BiField(N, "kinc", kinc_layers)]
    return Solution(y_diag, *fields, iterations=1, residual_history=[largest_update],
                    mode="sweep")


def zero_diagonal(lat: Lattice) -> list:
    return [np.zeros(j + 1) for j in range(lat.n_steps + 1)]


def constant_diagonal(lat: Lattice, c: float) -> list:
    return [np.full(j + 1, float(c)) for j in range(lat.n_steps + 1)]


def phi_step(lat: Lattice, spec: InstanceSpec, U: list, anchors=None) -> Solution:
    """One fixed-point pass: solve every requested anchor's slice under U.

    Returns a Solution in the sweep's layout: anchor i's slice fills row
    i of the ytilde, z and kinc layers j >= i, and y_diag[i] is its
    diagonal.  Rows and diagonal entries of anchors outside anchors (all
    anchors by default) stay zero.  Pure function of its inputs.
    """
    N = lat.n_steps
    y_diag = zero_diagonal(lat)
    ytilde = [np.zeros((j + 1, j + 1)) for j in range(N + 1)]
    z = [np.zeros_like(a) for a in ytilde[:N]]
    kinc = [np.zeros_like(a) for a in ytilde[:N]]
    for i in range(N + 1) if anchors is None else anchors:
        sl = solve_slice(lat, spec, i, U)
        y_diag[i] = sl.diag
        for j in range(i, N + 1):
            ytilde[j][i] = sl.ytilde_at(j)
        for j in range(i, N):
            z[j][i] = sl.z_at(j)
            kinc[j][i] = sl.kinc_at(j)
    return Solution(y_diag, BiField(N, "ytilde", ytilde), BiField(N, "z", z),
                    BiField(N, "kinc", kinc), iterations=1, residual_history=[],
                    mode="global")


def e_norm(lat: Lattice, d_diag: list, d_z: list) -> float:
    """Expectation norm of a (diagonal, z-field) perturbation.

    Squared: sum_i dt E|dY(t_i)|^2 + sum_{i<=j} dt^2 E|dZ(t_i,t_j)|^2,
    expectations under the node distribution of the relevant layer.
    d_diag[j] is the change on layer j's nodes and d_z[j] the change of
    z.layers[j], one row per anchor.
    """
    dt = lat.grid.dt
    total = 0.0
    for j, dy in enumerate(d_diag):
        total += dt * lat.layer_expect(j, np.asarray(dy) ** 2)
    for j, dz in enumerate(d_z):
        total += dt * dt * float(np.sum(dz ** 2 @ lat.probs[j]))
    return float(np.sqrt(total))


def _sup(a: np.ndarray) -> float:
    return float(np.max(np.abs(a))) if a.size else 0.0


def solve_global(lat: Lattice, spec: InstanceSpec, cfg: PicardConfig | None = None,
                 init_diag: list | None = None) -> Solution:
    """Iterate full passes until the diagonal and z-field stop moving.

    Returns the last pass with its pass count and residuals.  Drivers
    with no (y, z) dependence are solved in a single pass: the pass does
    not read its input, so its output is already the fixed point, and
    the recorded residual is zero.
    """
    cfg = cfg or PicardConfig()
    N = lat.n_steps
    U = [np.asarray(u, dtype=float) for u in (init_diag or zero_diagonal(lat))]
    if len(U) != N + 1:
        raise VolterraError(f"init_diag needs {N + 1} layers")
    fields = {} if cfg.store_fields else dict(ytilde=None, z=None, kinc=None)

    if not (spec.driver.depends_on_y or spec.driver.depends_on_z):
        return replace(phi_step(lat, spec, U), residual_history=[0.0], **fields)

    prev_z = None
    residuals = []
    for it in range(1, cfg.max_iters + 1):
        sol = phi_step(lat, spec, U)
        d_diag = [a - b for a, b in zip(sol.y_diag, U)]
        d_z = (sol.z.layers if prev_z is None
               else [a - b for a, b in zip(sol.z.layers, prev_z)])
        sup_change = max(_sup(d) for d in d_diag + d_z)
        res = e_norm(lat, d_diag, d_z)
        residuals.append(res)
        U = sol.y_diag
        prev_z = sol.z.layers
        if sup_change < cfg.tolerance and res < cfg.tolerance:
            return replace(sol, iterations=it, residual_history=residuals, **fields)
    raise NoConvergence(cfg.max_iters, residuals[-1] if residuals else float("inf"))


def max_contraction_delta(c_f: float, dt: float, horizon: float) -> float:
    """Largest grid multiple of dt with c_f (delta^2 + delta) < 1/8.

    Returns the full horizon when c_f = 0.  Raises when even a single
    step is too wide: no window on this grid is covered by the
    contraction bound.
    """
    if c_f <= 0:
        return horizon
    bound = 1.0 / (8.0 * c_f)
    steps = int(round(horizon / dt))
    best = 0
    for m in range(1, steps + 1):
        d = m * dt
        if d * d + d < bound:
            best = m
        else:
            break
    if best == 0:
        raise VolterraError(
            f"contraction bound delta^2 + delta < {bound:.4g} admits no positive "
            f"multiple of dt = {dt:.4g}; refine the grid"
        )
    return best * dt


def contraction_ratios(lat: Lattice, spec: InstanceSpec, pairs: int = 50,
                       delta: float | None = None, seed: int = 909,
                       scale: float = 1.0) -> list:
    """Empirical one-pass contraction ratios on the last window.

    Draws random diagonal pairs (U, U') supported on the window
    [T - delta, T], applies one fixed-point pass to each and returns
    the expectation-norm ratios |pass(U) - pass(U')| / |U - U'|.  The
    pass does not read the z-field input, so the pairs differ in the
    diagonal only; this makes the measured ratio the sharpest one.
    """
    N = lat.n_steps
    dt = lat.grid.dt
    delta = delta if delta is not None else max_contraction_delta(
        spec.driver.lipschitz, dt, spec.horizon)
    h = int(round(delta / dt))
    if h < 1 or h > N:
        raise VolterraError(f"delta = {delta} does not fit the grid")
    first = N - h
    anchors = range(first, N + 1)
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(pairs):
        U1 = zero_diagonal(lat)
        U2 = zero_diagonal(lat)
        for j in range(first, N + 1):
            U1[j] = rng.normal(size=j + 1) * scale
            U2[j] = rng.normal(size=j + 1) * scale
        den = e_norm(lat, [a - b for a, b in zip(U1, U2)], [])
        if den == 0.0:
            continue
        s1 = phi_step(lat, spec, U1, anchors=anchors)
        s2 = phi_step(lat, spec, U2, anchors=anchors)
        num = e_norm(lat, [a - b for a, b in zip(s1.y_diag, s2.y_diag)],
                     [a - b for a, b in zip(s1.z.layers, s2.z.layers)])
        ratios.append(num / den)
    return ratios
