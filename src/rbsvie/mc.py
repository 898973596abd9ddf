"""Regression Monte Carlo solver on simulated paths.

The same backward sweep as the lattice solver (volterra.step_layer),
with the one-step conditional expectation replaced by a cross-sectional
least-squares projection on basis functions of the state, and the
martingale coefficient estimated by regressing ytilde_next * dW / dt on
the same basis.  One pass over the layers j = N-1..0 does all the work:
it builds layer j's projector once, projects every anchor row 0..j in
one multi-RHS solve, settles anchor j's per-path equation
v = max(E + f(t_j, t_j, x, v, z) dt, L), steps anchors 0..j, and steps
the bootstrap replicates of anchor 0 with the diagonal frozen at v.
The per-path equation is settled by the plain loop, also for a driver
declared nonincreasing in y: most Monte Carlo layers end on a last-bit
cycle, where the lattice sweep's secant finds no exact fixed point and
only adds driver calls.

The working set is kept to what the sweep reads (working_set_bytes
bounds it).  The bootstrap weights are multinomial path counts, stored
in the smallest unsigned type that holds n_paths and cast to float
block by block where they are read.  Each layer's design is written
once, as contiguous basis rows, and its projector is freed before the
next layer's design is built; its pwlinear knots are read off the sorted
states with np.quantile's own arithmetic.  Each layer refits every
bootstrap replicate in one pass over the paths and one batched solve,
with each right-hand-side product on basis.dim rows, the shape a refit
of basis.dim replicates at a time gives it.  A driver declared free of z
(DriverSpec.depends_on_z False, which instances.verify_assumptions
checks) gets read-only zeros for z, and no z is fitted for it.  None of
this changes a float operation or the shape of a matrix product: the
estimates are bit for bit those of a float64 engine that fits z for
every driver.

Paths are simulated in fixed-size blocks whose generators are seeded
from (seed, block index), so results do not depend on how blocks are
scheduled; the generator family is recorded in the solution metadata.
All estimates are bitwise reproducible from (seed, config) on the same
BLAS build and thread count: the projections' matrix products may sum
in another order with another thread count (OPENBLAS_NUM_THREADS=1
against two threads moves y0, y0_se, e_y_diag and every replicate in
their last bits).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from rbsvie.grid import TimeGrid
from rbsvie.instances import InstanceSpec
from rbsvie.stopping import _frontier_part, _sorted_rows, _stops
from rbsvie.volterra import (MAX_ITERS, NoConvergence, VolterraError, check_finite,
                             step_layer, step_rows, terminal_rows)

BLOCK_SIZE = 65536
# paths per block of the bootstrap's weighted sums; a block stays in cache
# (blocks of 512-4096 paths time alike at 100k paths)
KR_BLOCK = 1024
GENERATOR_NAME = "numpy-pcg64"
N_BOOTSTRAP = 48


class MCError(ValueError):
    pass


@dataclass(frozen=True)
class PathBundle:
    """Simulated increments dW and states X on a time grid, reproducible from the seed.

    Layer-major: x[j] holds every path's state on layer j, (N + 1, n_paths),
    and dw[j] the increments from layer j to j + 1, (N, n_paths).
    """

    grid: TimeGrid
    n_paths: int
    seed: int
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
    dw = np.empty((N, n_paths))
    for block, lo in enumerate(range(0, n_paths, BLOCK_SIZE)):
        hi = min(lo + BLOCK_SIZE, n_paths)
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, block))))
        dw[:, lo:hi] = rng.normal(0.0, grid.sqrt_dt, size=(hi - lo, N)).T
    x = np.zeros((N + 1, n_paths))
    np.cumsum(dw, axis=0, out=x[1:])  # the walk W, mapped to the state layer by layer
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite is refused below
        for j in range(N + 1):
            x[j] = spec.dynamics(grid.t(j), x[j])
    if not np.all(np.isfinite(x)):
        raise MCError("state dynamics produced non-finite values")
    x.setflags(write=False)
    dw.setflags(write=False)
    return PathBundle(grid=grid, n_paths=n_paths, seed=seed, x=x, dw=dw)


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
        """The (n, dim) design on the states x, as the .T view of (dim, n)
        rows: each basis column is one contiguous row, written in place."""
        x = np.asarray(x, dtype=float)
        mu = float(x.mean())
        sd = float(x.std())
        if sd < 1e-300:
            raise MCError("degenerate state cloud: basis design is rank deficient")
        rows = np.empty((self.dim, len(x)))
        rows[0] = 1.0
        u = np.divide(np.subtract(x, mu, out=rows[1]), sd, out=rows[1])
        if self.family == "polynomial":
            for k in range(2, self.dim):
                np.multiply(rows[k - 1], u, out=rows[k])
            return rows.T
        qs = _knots(np.sort(u), np.linspace(0.0, 1.0, self.degree + 2)[1:-1])
        for k, q in enumerate(qs, 2):
            np.maximum(np.subtract(u, q, out=rows[k]), 0.0, out=rows[k])
        return rows.T


def _knots(s: np.ndarray, q: np.ndarray) -> np.ndarray:
    """np.quantile(s, q) for sorted s, step for step ("linear"): the
    virtual index (n - 1) q, its floor, and numpy's two-sided lerp between
    the neighbouring order statistics (b - (b - a)(1 - t) where t >= 0.5),
    without the call's copy and partition.  Equal bit for bit on states
    without -0.0, such as (x - mean) / sd (np.quantile's partition may
    swap -0.0 and 0.0, which compare equal)."""
    vi = (len(s) - 1) * q
    lo = np.floor(vi)
    t = vi - lo
    i = lo.astype(np.intp)
    a, b = s[i], s[np.minimum(i + 1, len(s) - 1)]
    diff = b - a
    out = a + diff * t
    hi = t >= 0.5
    out[hi] = (b - diff * (1 - t))[hi]
    return out


@functools.cache
def _triu(d: int) -> tuple:
    return np.triu_indices(d)


class _LayerProjector:
    """Least squares against one layer's design matrix.

    Regression targets are rows: project(vals, z) replaces each row of
    vals by its fitted values and writes to the same row of z the fit of
    the martingale target vals * dw / dt, with one solve for all rows.
    With z None (a driver that reads no z) the martingale coefficients
    are still solved for, so every solve keeps its shape, but not fitted.
    Layer 0's design is the constant column, since every path starts at
    x0; there the projection is the cross-path mean.
    """

    def __init__(self, design: np.ndarray, dw: np.ndarray, dt: float):
        d = design.shape[1]
        # rows 0..d-1: the design's columns; rows d..2d-1: the same times dw/dt
        self.bbt = np.empty((2 * d, len(dw)))
        self.bt = self.bbt[:d]
        self.bt[:] = design.T
        np.multiply(self.bt, dw / dt, out=self.bbt[d:])
        try:
            self.chol = np.linalg.cholesky(self.bt @ self.bt.T)
        except np.linalg.LinAlgError:
            raise MCError(
                "rank-deficient regression: basis too rich for the path cloud")
        diag = np.diag(self.chol)
        if float(diag.min()) < 1e-10 * float(diag.max()):
            raise MCError(
                "rank-deficient regression: basis too rich for the path cloud")

    def _fit(self, coef: np.ndarray, vals: np.ndarray, z: np.ndarray | None) -> None:
        # coef[r] holds row r's value and martingale coefficients, (2, d)
        np.matmul(coef[:, 0], self.bt, out=vals)
        if z is not None:
            np.matmul(coef[:, 1], self.bt, out=z)

    def project(self, vals: np.ndarray, z: np.ndarray | None) -> None:
        m, d = len(vals), len(self.bt)
        rhs = (vals @ self.bbt.T).reshape(2 * m, d).T
        coef = np.linalg.solve(self.chol.T, np.linalg.solve(self.chol, rhs))
        self._fit(coef.T.reshape(m, 2, d), vals, z)

    def weighted_grams(self, wts: np.ndarray) -> np.ndarray:
        """B^T diag(w) B for every row of path counts.

        The symmetric half of each path's outer product b b^T (the
        Khatri-Rao product of the design with itself) times the weights
        gives every replicate's gram in one GEMM per block of KR_BLOCK
        paths; a block stays in cache.  Row i's products b_i b_i..b_{d-1}
        fill the next d - i rows of one reused buffer, and each block of
        counts is cast to float where the GEMM reads it (exactly).
        """
        bt = self.bt
        d, n = bt.shape
        up, lo = _triu(d)
        kr = np.empty((len(up), min(KR_BLOCK, n)))
        half = np.zeros((len(up), len(wts)))
        for c in range(0, n, KR_BLOCK):
            blk = bt[:, c:c + KR_BLOCK]
            prod = kr[:, :blk.shape[1]]
            r = 0
            for i in range(d):
                np.multiply(blk[i], blk[i:], out=prod[r:r + d - i])
                r += d - i
            half += prod @ wts[:, c:c + KR_BLOCK].astype(float).T
        grams = np.empty((len(wts), d, d))
        grams[:, up, lo] = half.T
        grams[:, lo, up] = half.T
        return grams

    def refit_weighted(self, grams: np.ndarray, wts: np.ndarray, reps: np.ndarray,
                       rows: int) -> np.ndarray:
        """Coefficients of every row of reps regressed under its path counts
        wts[r] and gram grams[r], (len(reps), 2, d) as _fit reads them.

        One pass over blocks of KR_BLOCK paths forms every row's counts
        times values in one multiply, and accumulates the right-hand sides
        by GEMMs on slices of `rows` rows; then one batched solve covers
        every gram.  The slices keep each product's shape, and so its bits,
        equal to a refit `rows` replicates at a time: solve_mc passes
        basis.dim, not the projector's own d, which is 1 on layer 0.  A
        singular gram (a resample that drops too many paths) raises
        MCError naming the first such replicate.
        """
        m, d = len(reps), len(self.bt)
        rhs = np.zeros((m, 2 * d))
        for c in range(0, reps.shape[1], KR_BLOCK):
            cols = slice(c, c + KR_BLOCK)
            prod = wts[:, cols] * reps[:, cols]
            bbt = self.bbt[:, cols].T
            for lo in range(0, m, rows):
                rhs[lo:lo + rows] += prod[lo:lo + rows] @ bbt
        rhs = rhs.reshape(m, 2, d).transpose(0, 2, 1)
        try:
            return np.linalg.solve(grams, rhs).transpose(0, 2, 1)
        except np.linalg.LinAlgError:
            for r in range(m):
                try:
                    np.linalg.solve(grams[r], rhs[r])
                except np.linalg.LinAlgError:
                    raise MCError(f"bootstrap replicate {r}: singular weighted gram, "
                                  "basis too rich for the resampled paths") from None
            raise


@dataclass
class MCSolution:
    """Regression estimates and their sampling error.

    y0 is the time-0 value (layer-0 projection is a plain average: all
    paths share the starting state).  e_y_diag[i] estimates the mean
    diagonal value at anchor i.  frontier_rows are anchor 0's stopping
    rows (anchor time 0.0) with the terminal layer thresholded against
    the obstacle, not all stopped as on the lattice.  floor_margin is the
    smallest ytilde - obstacle over every path point of anchor 0's rows
    (nonnegative by construction).  y0_replicates are the bootstrap
    refits of y0, one per row of multinomial path counts (each path
    drawn as often as its count, n draws with replacement), and y0_se is
    their standard deviation (ddof 1).  As for the lattice
    sweep, iterations is 1 and residual_history holds the largest last
    update of the per-path equations.
    """

    y0: float
    y0_se: float
    e_y_diag: list
    frontier_rows: np.ndarray
    iterations: int
    residual_history: list
    floor_margin: float
    y0_replicates: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


def _bootstrap_weights(bundle: PathBundle, n_bootstrap: int) -> np.ndarray:
    """Multinomial path counts, one row per replicate, from (seed, 999983).

    Row b counts how often each of the n paths is drawn in n draws with
    replacement; one multinomial call draws all rows, the same counts as
    one call per row.  A count is at most n, so the rows are stored in
    the smallest unsigned type that holds n (uint16 up to 65535 paths),
    and the projections cast them to float where they read them, exactly.
    """
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((bundle.seed, 999983))))
    n = bundle.n_paths
    counts = rng.multinomial(n, np.full(n, 1.0 / n), size=n_bootstrap)
    return counts.astype(np.min_scalar_type(n))


def working_set_bytes(n_steps: int, n_paths: int, basis: RegressionBasis) -> int:
    """Bytes of the arrays simulate and solve_mc (N_BOOTSTRAP replicates)
    hold at once, an upper bound.

    Float rows of n_paths values: N + 1 each for x, dw, the anchors'
    value and z rows, and a layer's driver values and running terms;
    N_BOOTSTRAP for the replicates; basis.dim each for the layer's
    design, the projector's two halves and the replicates' z.  The
    N_BOOTSTRAP rows of path counts take np.min_scalar_type(n_paths)'s
    itemsize per path.  The z rows are counted even for a driver that
    reads no z, which gets read-only zeros instead.  The bootstrap's
    blocks of KR_BLOCK paths add float rows that do not grow with the
    path count: the design's Khatri-Rao products, dim (dim + 1) / 2 of
    them, and the counts cast to float or, later, the counts times the
    replicates, N_BOOTSTRAP.
    """
    d = basis.dim
    count = np.min_scalar_type(n_paths).itemsize
    return (n_paths * (8 * (6 * (n_steps + 1) + N_BOOTSTRAP + 4 * d) + count * N_BOOTSTRAP)
            + 8 * KR_BLOCK * (d * (d + 1) // 2 + N_BOOTSTRAP))


def solve_mc(bundle: PathBundle, spec: InstanceSpec, basis: RegressionBasis,
             max_iters: int = MAX_ITERS, n_bootstrap: int = N_BOOTSTRAP) -> MCSolution:
    """One backward pass over the layers (see the module docstring).

    max_iters bounds each per-path equation.  A non-finite row raises
    MCError, an equation that does not settle NoConvergence; both name
    the anchor and layer.  A degenerate state cloud or a rank-deficient
    or singular regression raises MCError naming the layer (and, for a
    bootstrap gram, the replicate).
    """
    grid = bundle.grid
    N = grid.n_steps
    n = bundle.n_paths
    dt = grid.dt
    if n < 2 * basis.dim:
        raise MCError(f"need n_paths >= {2 * basis.dim} for a {basis.dim}-column basis")

    # vals[i] is anchor i's value row on the current layer and zrows[i] its
    # martingale coefficient; projection and step overwrite them in place.
    # A driver that reads no z gets read-only zeros, and no z is fitted.
    x_N = bundle.x[N]
    anchor_t, vals = terminal_rows(spec, grid, x_N)
    fit_z = spec.driver.depends_on_z
    if fit_z:
        zrows, zrep = np.empty_like(vals), np.empty((basis.dim, n))
    else:
        zrows = np.broadcast_to(0.0, vals.shape)
        zrep = np.broadcast_to(0.0, (basis.dim, n))
    wts = _bootstrap_weights(bundle, n_bootstrap)
    reps = np.empty((n_bootstrap, n))
    reps[:] = vals[0]
    e_y_diag = [0.0] * (N + 1)
    e_y_diag[N] = float(vals[N].mean())
    parts, margin = [], np.inf
    largest_update = 0.0

    def record(j, x, row, barrier):
        nonlocal margin
        margin = min(margin, float((row - barrier).min()))
        parts.append(_frontier_part(j, _stops(row[None], barrier), x))

    try:
        check_finite(vals, N)
        record(N, x_N, vals[0], np.asarray(spec.obstacle(grid.t(N), x_N), dtype=float))
        for j in range(N - 1, -1, -1):
            s = grid.t(j)
            x_j = bundle.x[j]
            proj = _LayerProjector(basis.design(x_j) if j else np.ones((n, 1)),
                                   bundle.dw[j], dt)
            e, z = vals[: j + 1], zrows[: j + 1]
            proj.project(e, z if fit_z else None)
            layer = step_layer(spec, anchor_t, x_j, e, z, dt, j, max_iters)
            v, barrier = layer.v, layer.barrier
            largest_update = max(largest_update, layer.update)
            e_y_diag[j] = float(v.mean())
            record(j, x_j, layer.rows[0], barrier)
            del layer  # its running terms are (anchors x paths): free them before the bootstrap
            # anchor-0 bootstrap refits, diagonal frozen at v: one refit of
            # every replicate, then fits and steps basis.dim rows at a time
            coef = proj.refit_weighted(proj.weighted_grams(wts), wts, reps, basis.dim)
            for lo in range(0, n_bootstrap, basis.dim):
                blk = slice(lo, lo + basis.dim)
                rb = reps[blk]
                zb = zrep[: len(rb)]
                proj._fit(coef[blk], rb, zb if fit_z else None)
                step_rows(spec, 0.0, s, x_j, v, rb, zb, barrier, dt, j)
            del proj, coef  # before the next layer's design is built
    except NoConvergence as exc:
        raise NoConvergence(exc.iterations, exc.last_residual,
                            where=f"mc {exc.where}") from None
    except VolterraError as exc:
        raise MCError(f"mc {exc}") from None
    except MCError as exc:
        raise MCError(f"mc layer {j}: {exc}") from None

    return MCSolution(
        y0=float(vals[0, 0]),
        y0_se=float(reps[:, 0].std(ddof=1)),
        e_y_diag=e_y_diag,
        frontier_rows=_sorted_rows(parts, dt),
        iterations=1,
        residual_history=[largest_update],
        floor_margin=margin,
        y0_replicates=[float(r) for r in reps[:, 0]],
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
