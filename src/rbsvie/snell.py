"""Per-anchor reflected backward inductions on the lattice.

For a fixed anchor index i the slice solver computes the discrete
reflected BSDE driven by f(t_i, s, . ) with the anchor's terminal payoff
xi(t_i, .) and the obstacle L, running s over grid layers j = i..N:

    ytilde[N][k] = xi(t_i, x[N][k])
    z[j][k]      = martingale_coeff(ytilde[j+1])[k]
    c            = cond_expect(ytilde[j+1])[k] + f(t_i, t_j, x, U[j][k], z[j][k]) dt
    ytilde[j][k] = max(c, L(t_j, x[j][k]))
    kinc[j][k]   = max(L(t_j, x[j][k]) - c, 0)

The y-argument of the driver is the frozen diagonal U supplied by the
caller; the z-argument is the martingale coefficient of the slice being
built, which makes the scheme explicit in z.  The reference Picard
iteration in volterra iterates this solver over U; the production
backward sweep runs the same scheme for all anchors of a layer at once,
with U the diagonal already solved on that layer.  kinc holds the
per-step increments of the reflection term, so K(t_i, t_j) = sum of
kinc over i <= j' < j along a path.  Where kinc > 0 the value sits
exactly on the obstacle, giving the discrete Skorohod flatness identity
by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rbsvie.grid import Lattice, cond_expect, martingale_coeff
from rbsvie.instances import InstanceSpec


class SnellError(ValueError):
    pass


class NonFiniteValue(SnellError):
    pass


_ROLES = ("ytilde", "z", "kinc")


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
        if role not in _ROLES:
            raise SnellError(f"unknown BiField role '{role}'")
        n_layers = n_steps + 1 if role == "ytilde" else n_steps
        if len(layers) != n_layers:
            raise SnellError(f"role {role} needs {n_layers} layers, got {len(layers)}")
        self.n_steps = n_steps
        self.role = role
        self.layers = layers

    def at(self, i: int, j: int) -> np.ndarray:
        if not 0 <= i <= j < len(self.layers):
            raise SnellError(f"index ({i}, {j}) outside role-{self.role} triangle")
        return self.layers[j][i]


@dataclass
class SnellSlice:
    """Backward induction output for a single anchor, layers anchor..N."""

    anchor: int
    ytilde: list = field(repr=False)  # layer arrays for j = anchor..N
    z: list = field(repr=False)       # j = anchor..N-1
    kinc: list = field(repr=False)    # j = anchor..N-1

    @property
    def diag(self) -> np.ndarray:
        return self.ytilde[0]

    def ytilde_at(self, j: int) -> np.ndarray:
        return self.ytilde[j - self.anchor]

    def z_at(self, j: int) -> np.ndarray:
        return self.z[j - self.anchor]

    def kinc_at(self, j: int) -> np.ndarray:
        return self.kinc[j - self.anchor]


def solve_slice(lat: Lattice, spec: InstanceSpec, i: int, U: list) -> SnellSlice:
    """Reflected backward induction for anchor i under frozen diagonal U.

    U holds per-layer arrays; U[j] is read for i <= j < N.  Pass zero
    arrays on a first fixed-point pass.  Returns a SnellSlice covering
    layers i..N.
    """
    grid = lat.grid
    N = lat.n_steps
    if not 0 <= i <= N:
        raise SnellError(f"anchor {i} outside [0, {N}]")
    t_i = grid.t(i)
    dt = grid.dt
    sq = grid.sqrt_dt

    cur = np.asarray(spec.terminal(t_i, lat.x[N]), dtype=float)
    if cur.shape != (N + 1,):
        raise SnellError(f"terminal data must have {N + 1} entries, got {cur.shape}")
    if not np.all(np.isfinite(cur)):
        raise NonFiniteValue(f"non-finite terminal data for anchor {i}")

    ytilde = [cur]
    zs = []
    kincs = []
    for j in range(N - 1, i - 1, -1):
        xj = lat.x[j]
        uj = np.asarray(U[j], dtype=float)
        if uj.shape != (j + 1,):
            raise SnellError(f"U[{j}] must have {j + 1} entries, got {uj.shape}")
        zj = martingale_coeff(cur, sq)
        c = cond_expect(cur) + np.asarray(spec.driver(t_i, grid.t(j), xj, uj, zj), dtype=float) * dt
        lj = np.asarray(spec.obstacle(grid.t(j), xj), dtype=float)
        nxt = np.maximum(c, lj)
        if not np.all(np.isfinite(nxt)):
            raise NonFiniteValue(f"non-finite value at anchor {i}, layer {j}; check instance parameters")
        ytilde.append(nxt)
        zs.append(zj)
        kincs.append(np.maximum(lj - c, 0.0))
        cur = nxt
    ytilde.reverse()
    zs.reverse()
    kincs.reverse()
    return SnellSlice(anchor=i, ytilde=ytilde, z=zs, kinc=kincs)


def flatness_defect(lat: Lattice, spec: InstanceSpec, sl: SnellSlice) -> float:
    """Discrete Skorohod defect sum E[(ytilde - L) * kinc] over the slice.

    Zero (to rounding) iff the reflection only acts where the value sits
    on the obstacle.
    """
    grid = lat.grid
    total = 0.0
    for off, kj in enumerate(sl.kinc):
        j = sl.anchor + off
        lj = np.asarray(spec.obstacle(grid.t(j), lat.x[j]), dtype=float)
        gap = sl.ytilde[off] - lj
        total += float(np.dot(lat.probs[j], gap * kj))
    return total


def snell_by_policy_envelope(lat: Lattice, spec: InstanceSpec, i: int, U: list) -> list:
    """Independent stop-or-continue formulation of the slice value.

    Plain nested loops, no shared vector code paths: at each node the
    value is the larger of stopping (collect the obstacle, or the
    terminal payoff at the last layer) and continuing (one-step
    conditional expectation plus the driver contribution).  Must agree
    with solve_slice exactly; kept as a guard against vectorization
    faults.  Refuses lattices with more than 12 steps.
    """
    N = lat.n_steps
    if N > 12:
        raise SnellError("policy-envelope cross-check is limited to N <= 12")
    grid = lat.grid
    dt = grid.dt
    sq = grid.sqrt_dt
    t_i = grid.t(i)

    vals = [None] * (N + 1 - i)
    last = []
    for k in range(N + 1):
        last.append(float(spec.terminal(t_i, np.asarray([lat.x[N][k]]))[0]))
    vals[N - i] = last
    for j in range(N - 1, i - 1, -1):
        nxt = vals[j + 1 - i]
        layer = []
        for k in range(j + 1):
            m = 0.5 * (nxt[k + 1] + nxt[k])
            zjk = (nxt[k + 1] - nxt[k]) / (2.0 * sq)
            x = float(lat.x[j][k])
            u = float(np.asarray(U[j], dtype=float)[k])
            f = float(spec.driver(t_i, grid.t(j), np.asarray([x]), np.asarray([u]), np.asarray([zjk]))[0])
            cont = m + f * dt
            stop = float(spec.obstacle(grid.t(j), np.asarray([x]))[0])
            layer.append(cont if cont > stop else stop)
        vals[j - i] = layer
    return [np.asarray(v, dtype=float) for v in vals]


def path_sum_moments(lat: Lattice, i: int, incs: list) -> tuple:
    """First and second moments of an additive path functional.

    incs[off] is the layer-(i+off) node array of increments collected when
    the path visits that node; the functional is the sum from layer i to
    the last supplied layer.  Returns (E[M], E[M^2]) with the expectation
    over paths started from the layer-i node distribution.  Exact: the
    conditional moments are propagated forward with path-count weights.
    """
    n_inc = len(incs)
    if n_inc == 0:
        return 0.0, 0.0
    # conditional moments of the running sum given the current node,
    # increments applied on departure from each layer
    m1 = np.zeros(i + 1)
    m2 = np.zeros(i + 1)
    # unnormalized path counts reaching each node from layer i, weighted
    # by the layer-i start distribution
    wts = lat.probs[i].copy()
    for off in range(n_inc):
        j = i + off
        g = np.asarray(incs[off], dtype=float)
        a1 = m1 + g
        a2 = m2 + 2.0 * g * m1 + g * g
        # split each node's mass half up, half down
        new_w = np.zeros(j + 2)
        new_m1 = np.zeros(j + 2)
        new_m2 = np.zeros(j + 2)
        half = 0.5 * wts
        new_w[:-1] += half
        new_w[1:] += half
        new_m1[:-1] += half * a1
        new_m1[1:] += half * a1
        new_m2[:-1] += half * a2
        new_m2[1:] += half * a2
        pos = new_w > 0
        new_m1[pos] /= new_w[pos]
        new_m2[pos] /= new_w[pos]
        wts, m1, m2 = new_w, new_m1, new_m2
    return float(np.dot(wts, m1)), float(np.dot(wts, m2))
