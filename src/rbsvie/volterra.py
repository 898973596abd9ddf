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
layer's (anchors x nodes) arrays once, in BiFields.  step_layer is
everything after the one-step operator; the regression Monte Carlo
engine (mc.solve_mc) calls it on its projections, so the two engines
differ only in how E and z are made.  The global Picard iteration the
sweep is checked against lives in the reference module, snell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rbsvie.grid import Lattice, TimeGrid
from rbsvie.instances import InstanceSpec

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
    and the passes of the Picard reference (snell.solve_global).
    store_fields=False makes solve keep only the diagonal.
    """

    max_iters: int = 200
    store_fields: bool = True

    def __post_init__(self):
        if self.max_iters < 1:
            raise VolterraError("max_iters must be >= 1")


class BiField:
    """Triangular two-time node field, stored layer by layer.

    layers[j] is a (j + 1) x (j + 1) array whose row i holds anchor i's
    values on the layer-j nodes; at(i, j) is a view into it.  Role
    "ytilde" has layers 0..N, "z" and "kinc" layers 0..N-1 (no increment
    or martingale coefficient is attached to the terminal layer).  The
    layers are taken over as they are.
    """

    __slots__ = ("n_steps", "role", "layers")

    def __init__(self, n_steps: int, role: str, layers: list):
        if role not in ("ytilde", "z", "kinc"):
            raise VolterraError(f"unknown BiField role '{role}'")
        n_layers = n_steps + 1 if role == "ytilde" else n_steps
        if len(layers) != n_layers:
            raise VolterraError(f"role {role} needs {n_layers} layers, got {len(layers)}")
        self.n_steps = n_steps
        self.role = role
        self.layers = layers

    def at(self, i: int, j: int) -> np.ndarray:
        if not 0 <= i <= j < len(self.layers):
            raise VolterraError(f"index ({i}, {j}) outside role-{self.role} triangle")
        return self.layers[j][i]


@dataclass
class Solution:
    """Solved diagonal and, unless diagonal-only, the per-anchor fields.

    y_diag[i] is the layer-i array of diagonal values Y(t_i).  The
    triangular fields hold per-anchor envelopes, martingale coefficients
    and reflection increments (None in diagonal-only mode); the
    reflection term is stored as per-step increments, so the cumulative
    K(t_i, t_j) along a path is the sum of kinc over the visited nodes.
    For the sweep, residual_history holds one entry, the largest last
    update of the per-node equations (0.0 when every one settled
    exactly); for the Picard reference it holds the expectation-norm
    change per pass (empty for a single snell.phi_step pass).
    """

    y_diag: list
    ytilde: BiField | None
    z: BiField | None
    kinc: BiField | None
    iterations: int
    residual_history: list


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


def terminal_rows(spec: InstanceSpec, grid: TimeGrid, x_N, anchors: range) -> tuple:
    """(anchor_t, rows): the column of anchor times t_0..t_N, bitwise equal
    to grid.t(i), and the terminal rows of the given anchors on x_N."""
    anchor_t = (np.arange(grid.n_steps + 1) * grid.dt)[:, None]
    rows = np.empty((len(anchors), len(x_N)))
    for r, i in enumerate(anchors):
        rows[r] = spec.terminal(grid.t(i), x_N)
    return anchor_t, rows


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
    anchor_t, rows = terminal_rows(spec, grid, lat.x[N], range(N + 1))
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
    return Solution(y_diag, *fields, iterations=1, residual_history=[largest_update])
