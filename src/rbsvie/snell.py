"""Reference layer, never imported by production code: slices and Picard.

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
built, which makes the scheme explicit in z.  The production backward
sweep (volterra.sweep) runs the same scheme for all anchors of a layer
at once, with U the diagonal already solved on that layer, through the
same grid.cond_expect and grid.martingale_coeff; the per-node loop of
snell_by_policy_envelope is their independent check.  kinc holds
the per-step increments of the reflection term, so K(t_i, t_j) = sum of
kinc over i <= j' < j along a path.  Where kinc > 0 the value sits
exactly on the obstacle, giving the discrete Skorohod flatness identity
by construction.

The global Picard iteration (solve_global, built on phi_step) is the
independent reference for the sweep: it freezes the diagonal U, solves
every anchor's slice under it and iterates until the diagonal and
z-field stop moving.  It is the map whose contraction the paper's
existence argument rests on; contraction_ratios measures that
contraction.  phi_step lays each anchor's slice onto the same layers
solve stores, so the reference and the sweep are compared layer by
layer.  The monotone scheme is the comparison theorem's reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from rbsvie.compare import CompareError
from rbsvie.grid import Lattice, cond_expect, martingale_coeff
from rbsvie.instances import InstanceSpec, shift_driver
from rbsvie.stopping import StoppingFrontier, _threshold
from rbsvie.volterra import NoConvergence, PicardConfig, Solution, VolterraError, solve


class SnellError(ValueError):
    pass


class NonFiniteValue(SnellError):
    pass


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


def slice_view(sol: Solution, i: int) -> SnellSlice:
    """Anchor i's slice read back from a solution's stored fields."""
    n = len(sol.z)
    return SnellSlice(
        anchor=i,
        ytilde=[sol.ytilde[j][i] for j in range(i, n + 1)],
        z=[sol.z[j][i] for j in range(i, n)],
        kinc=[sol.kinc[j][i] for j in range(i, n)],
    )


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
    return Solution(y_diag, ytilde, z, kinc, iterations=1, residual_history=[])


def e_norm(lat: Lattice, d_diag: list, d_z: list) -> float:
    """Expectation norm of a (diagonal, z-field) perturbation.

    Squared: sum_i dt E|dY(t_i)|^2 + sum_{i<=j} dt^2 E|dZ(t_i,t_j)|^2,
    expectations under the node distribution of the relevant layer.
    d_diag[j] is the change on layer j's nodes and d_z[j] the change of
    z[j], one row per anchor.
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
                 init_diag: list | None = None, *, tolerance: float = 1e-10) -> Solution:
    """Iterate full passes until the diagonal and z-field stop moving.

    A pass is final when the largest entrywise change of the diagonal
    and z-field, and the expectation norm of that change (see e_norm),
    are both below tolerance; cfg.max_iters bounds the passes.  Returns
    the last pass with its pass count and residuals.  Drivers declared
    free of y and z (y_sign 0, depends_on_z False) are solved in a single
    pass: the pass does not read its input, so its output is already the
    fixed point, and the recorded residual is zero.
    """
    if not tolerance > 0:
        raise VolterraError("tolerance must be positive")
    cfg = cfg or PicardConfig()
    N = lat.n_steps
    U = [np.asarray(u, dtype=float) for u in (init_diag or zero_diagonal(lat))]
    if len(U) != N + 1:
        raise VolterraError(f"init_diag needs {N + 1} layers")

    if spec.driver.y_sign == 0 and not spec.driver.depends_on_z:
        return replace(phi_step(lat, spec, U), residual_history=[0.0])

    prev_z = None
    residuals = []
    for it in range(1, cfg.max_iters + 1):
        sol = phi_step(lat, spec, U)
        d_diag = [a - b for a, b in zip(sol.y_diag, U)]
        d_z = sol.z if prev_z is None else [a - b for a, b in zip(sol.z, prev_z)]
        sup_change = max(_sup(d) for d in d_diag + d_z)
        res = e_norm(lat, d_diag, d_z)
        residuals.append(res)
        U = sol.y_diag
        prev_z = sol.z
        if sup_change < tolerance and res < tolerance:
            return replace(sol, iterations=it, residual_history=residuals)
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
                       seed: int = 909) -> list:
    """Empirical one-pass contraction ratios on the last window.

    Draws random diagonal pairs (U, U') supported on the window
    [T - delta, T], delta the widest window the contraction bound admits
    (max_contraction_delta), applies one fixed-point pass to each and returns
    the expectation-norm ratios |pass(U) - pass(U')| / |U - U'|.  The
    pass does not read the z-field input, so the pairs differ in the
    diagonal only; this makes the measured ratio the sharpest one.
    """
    N = lat.n_steps
    dt = lat.grid.dt
    delta = max_contraction_delta(spec.driver.lipschitz, dt, spec.horizon)
    first = N - int(round(delta / dt))
    anchors = range(first, N + 1)
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(pairs):
        U1 = zero_diagonal(lat)
        U2 = zero_diagonal(lat)
        for j in range(first, N + 1):
            U1[j] = rng.normal(size=j + 1)
            U2[j] = rng.normal(size=j + 1)
        den = e_norm(lat, [a - b for a, b in zip(U1, U2)], [])
        if den == 0.0:
            continue
        s1 = phi_step(lat, spec, U1, anchors=anchors)
        s2 = phi_step(lat, spec, U2, anchors=anchors)
        num = e_norm(lat, [a - b for a, b in zip(s1.y_diag, s2.y_diag)],
                     [a - b for a, b in zip(s1.z, s2.z)])
        ratios.append(num / den)
    return ratios


def theta_threshold(c_f: float, horizon: float) -> float:
    """Smallest admissible exponential weight, with a 1% margin."""
    return 1.01 * 2.0 * c_f * c_f * (1.0 + 2.0 * horizon)


def theta_norm(lat: Lattice, d_diag: list, d_z: list, d_kinc: list,
               theta: float) -> float:
    """Exponentially weighted norm of a solution-triple difference.

    Squared: sum_i dt e^(theta t_i) ( E[dY_i^2] + sum_j dt E[dZ_ij^2]
    + E[dK(t_i, T)^2] ), where dK(t_i, T) sums the per-step increment
    differences along each path (exact second moment, no sampling).
    d_z and d_kinc are differences of the z and kinc layers: row i of
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
                    cfg: PicardConfig | None = None) -> MonotoneSchemeReport:
    """Nonincreasing approximation from a driver-dominated start.

    Iterate n freezes iterate n-1 in the driver's y-slot and solves the
    resulting y-free reflected system (one pass of the fixed-point map,
    which resolves z internally).  The start is the full solution of the
    same instance with driver f + 1, which dominates every
    iterate.  Requires a driver declared nondecreasing in y or free of it
    (DriverSpec.y_sign 1 or 0) and a step fine
    enough that the one-step map is monotone (|f_z| sqrt(dt) <= 1).
    """
    if n_max < 1:
        raise CompareError("n_max must be >= 1")
    if spec.driver.y_sign not in (0, 1):
        raise CompareError("monotone scheme needs a driver nondecreasing in y")
    if spec.driver.lipschitz * lat.grid.sqrt_dt > 1.0:
        raise CompareError("grid too coarse for a monotone one-step map")

    prev = solve(lat, shift_driver(spec, 1.0), cfg)
    diags = [prev.y_diag]
    theta = theta_threshold(spec.driver.lipschitz, spec.horizon)
    increments = []
    worst = 0.0
    for _ in range(1, n_max):
        nxt = phi_step(lat, spec, prev.y_diag)
        d_diag = [a - b for a, b in zip(nxt.y_diag, prev.y_diag)]
        worst = max(worst, max(float(np.max(d)) for d in d_diag))
        d_z = [a - b for a, b in zip(nxt.z, prev.z)]
        d_k = [a - b for a, b in zip(nxt.kinc, prev.kinc)]
        increments.append(theta_norm(lat, d_diag, d_z, d_k, theta))
        diags.append(nxt.y_diag)
        prev = nxt

    return MonotoneSchemeReport(diagonals=diags, increments=increments,
                                theta=theta, max_monotonicity_violation=worst)


def diagonal_frontier(sol: Solution, lat: Lattice, spec: InstanceSpec) -> StoppingFrontier:
    """Stop regions thresholded from the diagonal instead of the envelopes.

    This is the wrong construction on anchor-dependent instances; it is
    provided so tests can demonstrate that it disagrees with the
    envelope frontier there.
    """
    rows = [np.broadcast_to(y, (y.size, y.size)) for y in sol.y_diag]
    return _threshold(lat, spec, rows)
