"""Uniform time grid and recombining binomial lattice.

The lattice carries a symmetric random walk approximation of Brownian
motion: at layer j the walk takes values w_k = (2k - j) * sqrt(dt) for
k = 0..j, with up-probability 1/2.  One step of the walk supports an
exact martingale representation

    next[k'] = cond_expect[k] + martingale_coeff[k] * dW,   dW = +-sqrt(dt),

which is what the backward solvers build on, every row of a layer in one
call.  State processes are layered on top through a dynamics map
x = dyn(t, w) evaluated nodewise, so the state inherits the recombining
structure; the lattice keeps the states and node probabilities, not the
walk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition 0 = t_0 < t_1 < ... < t_N = T."""

    horizon: float
    n_steps: int

    def __post_init__(self):
        if not np.isfinite(self.horizon) or self.horizon <= 0.0:
            raise GridError(f"horizon must be finite and positive, got {self.horizon}")
        if int(self.n_steps) != self.n_steps or self.n_steps < 1:
            raise GridError(f"n_steps must be an integer >= 1, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def sqrt_dt(self) -> float:
        return float(np.sqrt(self.dt))

    def t(self, i: int) -> float:
        if not 0 <= i <= self.n_steps:
            raise GridError(f"layer index {i} outside [0, {self.n_steps}]")
        return i * self.dt

    @property
    def times(self) -> np.ndarray:
        """t_0..t_N, bitwise equal to t(i)."""
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class Lattice:
    """Recombining binomial lattice over a TimeGrid.

    Attributes
    ----------
    grid : TimeGrid
    x : list of arrays, state values dyn(t_j, (2k - j) sqrt(dt)) at
        the walk's nodes k = 0..j
    probs : list of arrays, probs[j][k] = P(node (j,k)) = C(j,k) / 2^j

    build_lattice makes each list's layers read-only views of one flat
    node triangle (see there).
    """

    grid: TimeGrid
    x: list = field(repr=False)
    probs: list = field(repr=False)

    @property
    def n_steps(self) -> int:
        return self.grid.n_steps

    def layer_expect(self, j: int, values: np.ndarray) -> float:
        """Unconditional expectation of a node function at layer j."""
        values = np.asarray(values, dtype=float)
        if values.shape != (j + 1,):
            raise GridError(f"layer {j} expects {j + 1} values, got shape {values.shape}")
        return float(np.dot(self.probs[j], values))


# nodes per dynamics call at most, unless one layer alone has more: whole
# layers are evaluated a block at a time, which bounds the temporaries
BLOCK_NODES = 4096


def build_lattice(grid: TimeGrid, x0: float, dyn) -> Lattice:
    """Build the lattice and evaluate the state dynamics nodewise.

    The states and the probabilities are each kept in one flat triangle of
    (N+1)(N+2)/2 nodes, layer j at offsets j(j+1)/2 .. (j+1)(j+2)/2, and
    the lattice hands out layer j as a read-only view of it.  The walk
    values are made only to evaluate dyn on them, one call per block of
    whole layers of at most BLOCK_NODES nodes.

    Parameters
    ----------
    grid : TimeGrid
    x0 : float
        Initial state; dyn must satisfy dyn(0, 0) == x0.
    dyn : callable
        Vectorized map (t, w_array) -> x_array giving the state as a
        function of time and the Brownian coordinate (feedback form).  t is
        an array of node times, t_j on each node of layer j, which
        broadcasts against w; each value equals the one the layer alone
        would be given, bit for bit.
    """
    if not np.isfinite(x0):
        raise GridError(f"x0 must be finite, got {x0}")
    n, sq = grid.n_steps, grid.sqrt_dt
    layers = np.arange(n + 1)
    start = np.append(0, np.cumsum(layers + 1))  # layer j's first node, and the end
    # node k of layer j sits at flat index i = start_j + k, where the walk is
    # (2k - j) sqrt(dt) = (2i - lead_j) sqrt(dt), the same integer times sqrt(dt)
    lead = 2 * start[:-1] + layers
    times = grid.times
    x = np.empty(start[-1])
    lo = 0
    while lo <= n:  # layers lo..hi-1, at least one
        hi = max(lo + 1, int(np.searchsorted(start, start[lo] + BLOCK_NODES, "right")) - 1)
        a, b = start[lo], start[hi]
        width = layers[lo:hi] + 1
        w = (np.arange(2 * a, 2 * b, 2) - np.repeat(lead[lo:hi], width)) * sq
        xb = np.asarray(dyn(np.repeat(times[lo:hi], width), w), dtype=float)
        if xb.shape != w.shape:
            raise GridError("dynamics map must return one state value per node")
        finite = np.isfinite(xb)
        if not np.logical_and.reduce(finite):
            bad = int(np.searchsorted(start, a + np.argmin(finite), "right")) - 1
            raise GridError(f"dynamics produced non-finite state at layer {bad}")
        x[a:b] = xb
        lo = hi
    bounds = start.tolist()
    probs = np.empty(bounds[-1])
    probs[0] = 1.0
    half = np.zeros(n + 2)
    for j in range(1, n + 1):
        np.multiply(probs[bounds[j - 1]: bounds[j]], 0.5, out=half[1: j + 1])
        np.add(half[: j + 1], half[1: j + 2], out=probs[bounds[j]: bounds[j + 1]])
    if abs(x[0] - x0) > 1e-12 * max(1.0, abs(x0)):
        raise GridError(f"dyn(0, 0) = {x[0]} does not match x0 = {x0}")
    x.setflags(write=False)
    probs.setflags(write=False)
    spans = list(zip(bounds, bounds[1:]))
    return Lattice(grid=grid, x=[x[i:k] for i, k in spans], probs=[probs[i:k] for i, k in spans])


def cond_expect(next_values: np.ndarray) -> np.ndarray:
    """One-step conditional expectation, layer j+1 -> layer j, on the last axis.

    With up-probability 1/2, E[v(j+1) | node (j,k)] = (v[k+1] + v[k]) / 2,
    the sum halved in place, for every row of a layer at once.
    """
    v = np.asarray(next_values, dtype=float)
    if v.ndim == 0 or v.shape[-1] < 2:
        raise GridError(f"need rows of at least 2 node values, got shape {v.shape}")
    e = v[..., 1:] + v[..., :-1]
    e *= 0.5
    return e


def martingale_coeff(next_values: np.ndarray, sqrt_dt: float) -> np.ndarray:
    """Exact one-step martingale representation coefficient, on the last axis.

    z[k] = (v[k+1] - v[k]) / (2 sqrt(dt)) reproduces v at layer j+1 from
    cond_expect at layer j and the walk increment +-sqrt(dt) exactly.
    """
    v = np.asarray(next_values, dtype=float)
    if v.ndim == 0 or v.shape[-1] < 2:
        raise GridError(f"need rows of at least 2 node values, got shape {v.shape}")
    if sqrt_dt <= 0.0:
        raise GridError("sqrt_dt must be positive")
    return (v[..., 1:] - v[..., :-1]) / (2.0 * sqrt_dt)
