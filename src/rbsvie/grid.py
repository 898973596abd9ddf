"""Uniform time grid and recombining binomial lattice.

The lattice carries a symmetric random walk approximation of Brownian
motion: at layer j the walk takes values w_k = (2k - j) * sqrt(dt) for
k = 0..j, with up-probability 1/2.  One step of the walk supports an
exact martingale representation

    next[k'] = cond_expect[k] + martingale_coeff[k] * dW,   dW = +-sqrt(dt),

which is what the backward solvers build on.  State processes are layered
on top through a dynamics map x = dyn(t, w) evaluated nodewise, so the
state inherits the recombining structure; the lattice keeps the states
and node probabilities, not the walk.
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

    Node values are read-only after construction.
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


def build_lattice(grid: TimeGrid, x0: float, dyn) -> Lattice:
    """Build the lattice and evaluate the state dynamics nodewise.

    Each layer's walk values are made only to evaluate dyn on them; the
    lattice keeps the states and probabilities.

    Parameters
    ----------
    grid : TimeGrid
    x0 : float
        Initial state; dyn must satisfy dyn(0, 0) == x0.
    dyn : callable
        Vectorized map (t, w_array) -> x_array giving the state as a
        function of time and the Brownian coordinate (feedback form).
    """
    if not np.isfinite(x0):
        raise GridError(f"x0 must be finite, got {x0}")
    sq, dt = grid.sqrt_dt, grid.dt
    two_k = 2 * np.arange(grid.n_steps + 1)
    x, probs = [], []
    p_prev = None
    for j in range(grid.n_steps + 1):
        wj = (two_k[: j + 1] - j) * sq
        xj = np.asarray(dyn(j * dt, wj), dtype=float)
        if xj.shape != wj.shape:
            raise GridError("dynamics map must return one state value per node")
        if not np.logical_and.reduce(np.isfinite(xj)):
            raise GridError(f"dynamics produced non-finite state at layer {j}")
        if j == 0:
            pj = np.ones(1)
        else:  # pj[k] = (p_prev[k - 1] + p_prev[k]) / 2, one end term at each edge
            half = 0.5 * p_prev
            pj = np.empty(j + 1)
            np.add(half[:-1], half[1:], out=pj[1:-1])
            pj[0], pj[-1] = half[0], half[-1]
        xj.setflags(write=False)
        pj.setflags(write=False)
        x.append(xj)
        probs.append(pj)
        p_prev = pj
    if abs(x[0][0] - x0) > 1e-12 * max(1.0, abs(x0)):
        raise GridError(f"dyn(0, 0) = {x[0][0]} does not match x0 = {x0}")
    return Lattice(grid=grid, x=x, probs=probs)


def cond_expect(next_values: np.ndarray) -> np.ndarray:
    """One-step conditional expectation, layer j+1 -> layer j.

    With up-probability 1/2, E[v(j+1) | node (j,k)] = (v[k+1] + v[k]) / 2.
    """
    v = np.asarray(next_values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise GridError(f"need a layer of at least 2 node values, got shape {v.shape}")
    return 0.5 * (v[1:] + v[:-1])


def martingale_coeff(next_values: np.ndarray, sqrt_dt: float) -> np.ndarray:
    """Exact one-step martingale representation coefficient.

    z[k] = (v[k+1] - v[k]) / (2 sqrt(dt)) reproduces v at layer j+1 from
    cond_expect at layer j and the walk increment +-sqrt(dt) exactly.
    """
    v = np.asarray(next_values, dtype=float)
    if v.ndim != 1 or v.size < 2:
        raise GridError(f"need a layer of at least 2 node values, got shape {v.shape}")
    if sqrt_dt <= 0.0:
        raise GridError("sqrt_dt must be positive")
    return (v[1:] - v[:-1]) / (2.0 * sqrt_dt)
