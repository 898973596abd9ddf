"""Regression Monte Carlo solver on simulated paths.

Same backward recursion as the lattice solver, with the one-step
conditional expectation replaced by a cross-sectional least-squares
projection on basis functions of the state, and the martingale
coefficient estimated by regressing ytilde_next * dW / dt on the same
basis.  An outer fixed-point loop iterates over the frozen diagonal, as
the lattice engine's reference Picard iteration (volterra.solve_global)
does; the lattice engine's production path is the backward sweep.

Paths are simulated in fixed-size blocks whose generators are seeded
from (seed, block index), so results do not depend on how blocks are
scheduled; the generator family is recorded in the solution metadata.
All estimates are bitwise reproducible from (seed, config).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from rbsvie.grid import TimeGrid
from rbsvie.instances import InstanceSpec
from rbsvie.volterra import NoConvergence, PicardConfig

BLOCK_SIZE = 65536
GENERATOR_NAME = "numpy-pcg64"


class MCError(ValueError):
    pass


@dataclass(frozen=True)
class PathBundle:
    """Simulated (W, X) paths on a time grid, reproducible from the seed."""

    grid: TimeGrid
    n_paths: int
    seed: int
    w: np.ndarray
    x: np.ndarray
    dw: np.ndarray


def simulate(grid: TimeGrid, spec: InstanceSpec, n_paths: int, seed: int) -> PathBundle:
    """Forward-simulate paths of the driving walk and the state.

    Increments are normal(0, dt), drawn block by block with generators
    seeded from (seed, block index).
    """
    if n_paths < 2:
        raise MCError("need at least 2 paths")
    N = grid.n_steps
    dw = np.empty((n_paths, N))
    for block, lo in enumerate(range(0, n_paths, BLOCK_SIZE)):
        hi = min(lo + BLOCK_SIZE, n_paths)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, block))))
        dw[lo:hi] = rng.normal(0.0, grid.sqrt_dt, size=(hi - lo, N))
    w = np.empty((n_paths, N + 1))
    w[:, 0] = 0.0
    np.cumsum(dw, axis=1, out=w[:, 1:])
    x = np.empty_like(w)
    for j in range(N + 1):
        x[:, j] = spec.dynamics(grid.t(j), w[:, j])
    if not np.all(np.isfinite(x)):
        raise MCError("state dynamics produced non-finite values")
    w.setflags(write=False)
    x.setflags(write=False)
    dw.setflags(write=False)
    return PathBundle(grid=grid, n_paths=n_paths, seed=seed, w=w, x=x, dw=dw)


@dataclass(frozen=True)
class RegressionBasis:
    """Feature map for the cross-sectional projections.

    polynomial: powers 0..degree of the standardized state.
    pwlinear: constant, identity, and hinge terms at `degree` interior
    quantile knots of the layer's state cloud.
    """

    family: str = "pwlinear"
    degree: int = 8

    def __post_init__(self):
        if self.family not in ("polynomial", "pwlinear"):
            raise MCError(f"unknown basis family '{self.family}'")
        if self.degree < 1:
            raise MCError("degree must be >= 1")

    @property
    def dim(self) -> int:
        return self.degree + (1 if self.family == "polynomial" else 2)

    def design(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        mu = float(x.mean())
        sd = float(x.std())
        if sd < 1e-300:
            raise MCError("degenerate state cloud: basis design is rank deficient")
        u = (x - mu) / sd
        if self.family == "polynomial":
            cols = [np.ones_like(u)]
            for _ in range(self.degree):
                cols.append(cols[-1] * u)
            return np.column_stack(cols)
        qs = np.quantile(u, np.linspace(0.0, 1.0, self.degree + 2)[1:-1])
        cols = [np.ones_like(u), u]
        cols.extend(np.maximum(u - q, 0.0) for q in qs)
        return np.column_stack(cols)


class _LayerProjector:
    """Per-layer least squares against a fixed design matrix."""

    def __init__(self, basis: RegressionBasis, x_layer: np.ndarray):
        self.b = basis.design(x_layer)
        gram = self.b.T @ self.b
        try:
            self.chol = np.linalg.cholesky(gram)
        except np.linalg.LinAlgError:
            raise MCError(
                "rank-deficient regression: basis too rich for the path cloud")
        diag = np.diag(self.chol)
        if float(diag.min()) < 1e-10 * float(diag.max()):
            raise MCError(
                "rank-deficient regression: basis too rich for the path cloud")

    def _solve(self, rhs):
        z = np.linalg.solve(self.chol, rhs)
        return np.linalg.solve(self.chol.T, z)

    def project_pair(self, y1: np.ndarray, y2: np.ndarray) -> tuple:
        rhs = self.b.T @ np.column_stack([y1, y2])
        out = self.b @ self._solve(rhs)
        return out[:, 0], out[:, 1]

    def project_weighted_pair(self, y1: np.ndarray, y2: np.ndarray,
                              wts: np.ndarray) -> tuple:
        bw = self.b * wts[:, None]
        gram = bw.T @ self.b
        rhs = bw.T @ np.column_stack([y1, y2])
        coef = np.linalg.solve(gram, rhs)
        out = self.b @ coef
        return out[:, 0], out[:, 1]


@dataclass
class MCSolution:
    """Converged regression estimates and their sampling error.

    y0 is the time-0 value (layer-0 projection is a plain average: all
    paths share the starting state, so the conditional expectation given
    time 0 is the mean and a feature matrix there would be rank
    deficient).  e_y_diag[i] estimates the mean diagonal value at anchor
    i.  floor_margin is the smallest ytilde - obstacle over every
    retained path point of the final pass (nonnegative by construction).
    """

    y0: float
    y0_se: float
    e_y_diag: list
    frontier_rows: list
    iterations: int
    residual_history: list
    floor_margin: float
    metadata: dict = field(default_factory=dict)


def _anchor_sweep(bundle, spec, basis, projs, U, i, record=None):
    """Backward recursion for anchor i on the path cloud.

    Returns the layer-i value vector; record, when given, collects the
    per-layer value vectors for the single-sweep shortcut.
    """
    grid = bundle.grid
    N = grid.n_steps
    dt = grid.dt
    t_i = grid.t(i)
    vals = np.asarray(spec.terminal(t_i, bundle.x[:, N]), dtype=float)
    if record is not None:
        record[N] = vals
    for j in range(N - 1, i - 1, -1):
        x_j = bundle.x[:, j]
        target_z = vals * bundle.dw[:, j] / dt
        if j == 0:
            proj = np.full(bundle.n_paths, float(vals.mean()))
            z = np.full(bundle.n_paths, float(target_z.mean()))
        else:
            proj, z = projs[j].project_pair(vals, target_z)
        f_j = np.asarray(spec.driver(t_i, grid.t(j), x_j, U[j], z), dtype=float)
        barrier = np.asarray(spec.obstacle(grid.t(j), x_j), dtype=float)
        vals = np.maximum(proj + f_j * dt, barrier)
        if record is not None:
            record[j] = vals
    return vals


def solve_mc(bundle: PathBundle, spec: InstanceSpec, basis: RegressionBasis,
             cfg: PicardConfig | None = None, n_bootstrap: int = 48) -> MCSolution:
    """Fixed point of the regression backward recursion.

    Anchor-independent data (driver and terminal free of the anchor
    argument) collapse the per-anchor sweeps to one recursion whose
    layer values are the diagonal.  The reported standard error is a
    multinomial bootstrap over paths: the anchor-0 recursion is refit
    per replicate with weighted projections, the diagonal frozen at the
    converged estimate.
    """
    cfg = cfg or PicardConfig(tolerance=1e-6)
    grid = bundle.grid
    N = grid.n_steps
    if bundle.n_paths < 2 * basis.dim:
        raise MCError(f"need n_paths >= {2 * basis.dim} for a {basis.dim}-column basis")

    projs = {j: _LayerProjector(basis, bundle.x[:, j]) for j in range(1, N)}
    one_sweep = not spec.t_dependent
    trivial = not (spec.driver.depends_on_y or spec.driver.depends_on_z)

    U = np.zeros((N + 1, bundle.n_paths))
    residuals = []
    iterations = 0
    max_iters = 1 if trivial else cfg.max_iters
    converged = trivial
    for it in range(1, max_iters + 1):
        iterations = it
        U_new = np.empty_like(U)
        if one_sweep:
            record = {}
            _anchor_sweep(bundle, spec, basis, projs, U, 0, record=record)
            for j in range(N + 1):
                U_new[j] = record[j]
        else:
            for i in range(N + 1):
                U_new[i] = _anchor_sweep(bundle, spec, basis, projs, U, i)
        d = U_new - U
        sup_change = float(np.max(np.abs(d)))
        res = float(np.sqrt(grid.dt * np.sum(np.mean(d * d, axis=1))))
        residuals.append(0.0 if trivial else res)
        U = U_new
        if trivial or (sup_change < cfg.tolerance and res < cfg.tolerance):
            converged = True
            break
    if not converged:
        raise NoConvergence(iterations, residuals[-1], where="mc")

    # final anchor-0 pass: frontier rows, floor margin, and the y0 estimate
    record = {}
    _anchor_sweep(bundle, spec, basis, projs, U, 0, record=record)
    frontier, margin = [], np.inf
    for j in range(N + 1):
        barrier = np.asarray(spec.obstacle(grid.t(j), bundle.x[:, j]), dtype=float)
        slack = record[j] - barrier
        margin = min(margin, float(slack.min()))
        exercised = slack <= 1e-9
        if np.any(exercised):
            xs = bundle.x[:, j][exercised]
            frontier.append((grid.t(j), float(xs.min()), float(xs.max())))
    y0 = float(record[0][0])

    boot_rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((bundle.seed, 999983))))
    reps = np.empty(n_bootstrap)
    for b in range(n_bootstrap):
        wts = boot_rng.multinomial(bundle.n_paths,
                                   np.full(bundle.n_paths, 1.0 / bundle.n_paths))
        wts = wts.astype(float)
        reps[b] = _bootstrap_anchor0(bundle, spec, basis, projs, U, wts)
    y0_se = float(reps.std(ddof=1))

    return MCSolution(
        y0=y0, y0_se=y0_se,
        e_y_diag=[float(U[i].mean()) for i in range(N + 1)],
        frontier_rows=frontier,
        iterations=iterations,
        residual_history=residuals,
        floor_margin=margin,
        metadata={
            "generator": GENERATOR_NAME,
            "seed": bundle.seed,
            "n_paths": bundle.n_paths,
            "block_size": BLOCK_SIZE,
            "basis_family": basis.family,
            "basis_degree": basis.degree,
            "n_bootstrap": n_bootstrap,
        },
    )


def _bootstrap_anchor0(bundle, spec, basis, projs, U, wts):
    """Anchor-0 recursion with multinomially reweighted projections."""
    grid = bundle.grid
    N = grid.n_steps
    dt = grid.dt
    n = bundle.n_paths
    vals = np.asarray(spec.terminal(0.0, bundle.x[:, N]), dtype=float)
    for j in range(N - 1, 0, -1):
        x_j = bundle.x[:, j]
        target_z = vals * bundle.dw[:, j] / dt
        proj, z = projs[j].project_weighted_pair(vals, target_z, wts)
        f_j = np.asarray(spec.driver(0.0, grid.t(j), x_j, U[j], z), dtype=float)
        barrier = np.asarray(spec.obstacle(grid.t(j), x_j), dtype=float)
        vals = np.maximum(proj + f_j * dt, barrier)
    wmean = float(np.sum(wts * vals) / n)
    z0 = float(np.sum(wts * vals * bundle.dw[:, 0]) / n) / dt
    f_0 = float(np.asarray(spec.driver(0.0, 0.0, bundle.x[0, 0], U[0][0], z0)))
    barrier0 = float(np.asarray(spec.obstacle(0.0, bundle.x[0, 0])))
    return max(wmean + f_0 * dt, barrier0)
