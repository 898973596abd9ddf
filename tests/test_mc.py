import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rbsvie import mc
from rbsvie.grid import TimeGrid, build_lattice
from rbsvie.instances import (CATALOG_NAMES, DriverSpec, DynamicsSpec, InstanceSpec,
                              ObstacleSpec, TerminalSpec, catalog_instance)
from rbsvie.snell import solve_global
from rbsvie.stopping import (_frontier_part, _sorted_rows, _stops, frontier_rows,
                             stream_solve)
from rbsvie.volterra import (NoConvergence, PicardConfig, solve, step_layer, step_rows,
                             sweep, terminal_rows)


def _lattice_y0(spec, n_steps):
    lat = build_lattice(TimeGrid(spec.horizon, n_steps), spec.x0, spec.dynamics)
    return solve_global(lat, spec, PicardConfig()).y_diag[0][0]


def test_simulate_shapes_and_consistency():
    spec = catalog_instance("american_put")
    grid = TimeGrid(spec.horizon, 8)
    b = mc.simulate(grid, spec, 500, seed=11)
    w = np.concatenate([np.zeros((1, 500)), np.cumsum(b.dw, axis=0)], axis=0)
    assert w.shape == (9, 500)
    assert b.x.shape == (9, 500)
    assert b.dw.shape == (8, 500)
    assert np.all(w[0] == 0.0)
    assert np.allclose(np.diff(w, axis=0), b.dw)
    for j in range(9):
        assert np.allclose(b.x[j], spec.dynamics(grid.t(j), w[j]))


def test_increment_moments():
    spec = catalog_instance("zero_driver_flat")
    grid = TimeGrid(1.0, 4)
    b = mc.simulate(grid, spec, 200_000, seed=5)
    assert abs(b.dw.mean()) < 3e-3
    assert abs(b.dw.var() - grid.dt) < 3e-3


def test_block_seeding_gives_prefix_stability():
    # each block derives its generator from (seed, block index), so a
    # shorter simulation is a prefix of a longer one with the same seed
    spec = catalog_instance("zero_driver_flat")
    grid = TimeGrid(1.0, 3)
    small = mc.simulate(grid, spec, 500, seed=21)
    big = mc.simulate(grid, spec, mc.BLOCK_SIZE + 1000, seed=21)
    assert np.array_equal(small.dw, big.dw[:, :500])
    tail = big.dw[:, mc.BLOCK_SIZE:]
    lone = mc.simulate(grid, spec, 1000, seed=21)
    assert not np.array_equal(tail, lone.dw)


def test_simulate_deterministic_and_seed_sensitive():
    spec = catalog_instance("american_put")
    grid = TimeGrid(1.0, 5)
    a = mc.simulate(grid, spec, 400, seed=9)
    b = mc.simulate(grid, spec, 400, seed=9)
    c = mc.simulate(grid, spec, 400, seed=10)
    assert np.array_equal(a.dw, b.dw)
    assert np.array_equal(a.x, b.x)
    assert not np.array_equal(a.dw, c.dw)


def test_simulate_needs_two_paths():
    spec = catalog_instance("zero_driver_flat")
    with pytest.raises(mc.MCError):
        mc.simulate(TimeGrid(1.0, 2), spec, 1, seed=0)


def test_basis_validation_and_dims():
    with pytest.raises(mc.MCError):
        mc.RegressionBasis("fourier", 3)
    with pytest.raises(mc.MCError):
        mc.RegressionBasis("polynomial", 0)
    assert mc.RegressionBasis("polynomial", 5).dim == 6
    assert mc.RegressionBasis("pwlinear", 8).dim == 10


def test_polynomial_design_columns():
    basis = mc.RegressionBasis("polynomial", 3)
    x = np.array([0.0, 1.0, 2.0, 5.0])
    d = basis.design(x)
    u = (x - x.mean()) / x.std()
    assert np.allclose(d[:, 0], 1.0)
    assert np.allclose(d[:, 1], u)
    assert np.allclose(d[:, 3], u**3)


def test_pwlinear_design_hinges_are_nonnegative():
    basis = mc.RegressionBasis("pwlinear", 4)
    d = basis.design(np.linspace(-2, 3, 50))
    assert d.shape == (50, 6)
    assert np.all(d[:, 2:] >= 0.0)


def test_degenerate_cloud_raises():
    flat = DynamicsSpec(name="pinned", fn=lambda t, w: 1.0 + 0.0 * np.asarray(w))
    spec = InstanceSpec(
        label="pinned",
        driver=DriverSpec(name="zero", fn=lambda t, s, x, y, z: 0.0 * np.asarray(x),
                          lipschitz=0.0, y_sign=0, depends_on_z=False),
        terminal=TerminalSpec(name="id", fn=lambda t, x: np.asarray(x, dtype=float)),
        obstacle=ObstacleSpec(name="none", fn=lambda u, x: np.asarray(x) - 10.0),
        dynamics=flat, x0=1.0, horizon=1.0)
    bundle = mc.simulate(TimeGrid(1.0, 3), spec, 100, seed=2)
    with pytest.raises(mc.MCError, match="rank|degenerate") as exc:
        mc.solve_mc(bundle, spec, mc.RegressionBasis("polynomial", 2))
    assert str(exc.value).startswith("mc layer 2: degenerate state cloud")


def test_needs_enough_paths_for_basis():
    spec = catalog_instance("american_put")
    bundle = mc.simulate(TimeGrid(1.0, 3), spec, 10, seed=2)
    with pytest.raises(mc.MCError, match="n_paths"):
        mc.solve_mc(bundle, spec, mc.RegressionBasis("polynomial", 8))


def test_zero_driver_recovers_martingale_start():
    spec = catalog_instance("zero_driver_flat")
    grid = TimeGrid(spec.horizon, 20)
    bundle = mc.simulate(grid, spec, 20_000, seed=3)
    sol = mc.solve_mc(bundle, spec, mc.RegressionBasis(), n_bootstrap=24)
    assert sol.iterations == 1
    assert sol.residual_history == [0.0]
    assert abs(sol.y0 - spec.x0) <= 3.0 * sol.y0_se


def test_put_matches_lattice_within_three_se():
    spec = catalog_instance("american_put")
    grid = TimeGrid(spec.horizon, 20)
    bundle = mc.simulate(grid, spec, 30_000, seed=77)
    sol = mc.solve_mc(bundle, spec, mc.RegressionBasis(), n_bootstrap=24)
    assert abs(sol.y0 - _lattice_y0(spec, 20)) <= 3.0 * sol.y0_se


def test_solution_is_deterministic():
    spec = catalog_instance("american_put")
    grid = TimeGrid(spec.horizon, 10)
    runs = []
    for _ in range(2):
        bundle = mc.simulate(grid, spec, 4_000, seed=123)
        runs.append(mc.solve_mc(bundle, spec, mc.RegressionBasis(), n_bootstrap=16))
    a, b = runs
    assert a.y0 == b.y0
    assert a.y0_se == b.y0_se
    assert a.e_y_diag == b.e_y_diag
    assert a.frontier_rows.tobytes() == b.frontier_rows.tobytes()


def test_floor_margin_nonnegative_and_frontier_sane():
    spec = catalog_instance("american_put")
    grid = TimeGrid(spec.horizon, 12)
    bundle = mc.simulate(grid, spec, 6_000, seed=31)
    sol = mc.solve_mc(bundle, spec, mc.RegressionBasis(), n_bootstrap=8)
    assert sol.floor_margin >= 0.0
    assert len(sol.frontier_rows)
    for anchor_t, t_j, lo, hi in sol.frontier_rows:
        assert anchor_t == 0.0 and 0.0 <= t_j <= spec.horizon
        assert lo <= hi


def test_driver_of_fixed_node_count_is_an_mc_error_naming_the_layer():
    # 7 driver values against layer 11's 400 paths: the per-layer shape check
    # is the only test of the driver's result in solve_mc
    seven = DriverSpec(name="seven", fn=lambda t, s, x, y, z: np.full(7, -0.01),
                       lipschitz=0.0, y_sign=0, depends_on_z=False, depends_on_anchor=False)
    spec = replace(catalog_instance("american_put"), driver=seven)
    bundle = mc.simulate(TimeGrid(spec.horizon, 12), spec, 400, seed=3)
    with pytest.raises(mc.MCError, match=r"mc driver at layer 11 does not broadcast to "
                                         r"anchor 11's row \(400,\)"):
        mc.solve_mc(bundle, spec, mc.RegressionBasis(), n_bootstrap=4)


def _bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_frontier_rows_match_a_per_layer_exercise_record(name, monkeypatch):
    # anchor 0's row on every layer, as step_layer hands it to solve_mc
    real, seen = mc.step_layer, {}

    def spy(*args, **kwargs):
        layer = real(*args, **kwargs)
        seen[layer.j] = (args[2], layer.rows[0].copy(), layer.barrier)
        return layer

    monkeypatch.setattr(mc, "step_layer", spy)
    spec = catalog_instance(name)
    N = 12
    grid = TimeGrid(spec.horizon, N)
    bundle = mc.simulate(grid, spec, 3000, seed=17)
    sol = mc.solve_mc(bundle, spec, mc.RegressionBasis(), n_bootstrap=8)
    x_N = bundle.x[N]
    seen[N] = (x_N, np.asarray(spec.terminal(0.0, x_N), dtype=float),
               np.asarray(spec.obstacle(grid.t(N), x_N), dtype=float))

    # the exercise record solve_mc kept per layer, j = N .. 0: the terminal
    # layer is thresholded against the obstacle, not marked all stopped
    record = []
    for j in range(N, -1, -1):
        x, row, barrier = seen[j]
        exercised = row - barrier <= 1e-9
        if np.any(exercised):
            xs = x[exercised]
            record.append((0.0, grid.t(j), float(xs.min()), float(xs.max())))
    record = record[::-1]

    rows = sol.frontier_rows
    assert rows.shape == (len(record), 4) and rows.dtype == np.float64
    assert [_bits(r) for r in rows] == [_bits(r) for r in record]
    lat = spec.lattice(N)
    for lattice_rows in (frontier_rows(lat, spec, solve(lat, spec)),
                         stream_solve(lat, sweep(lat, spec, 200))[2]):
        assert lattice_rows.ndim == 2 and lattice_rows.shape[1] == 4
        assert lattice_rows.dtype == np.float64


@pytest.mark.parametrize("name", ["american_put", "linear_z"])
def test_anchor_sweeps_match_single_sweep_when_data_ignore_anchor(name):
    # no datum reads the anchor, so every anchor's row equals the diagonal
    # and the RBSVIE is the RBSDE v_j = max(E v_{j+1} + f(x, v_j, z_j) dt, L)
    spec = catalog_instance(name)
    grid = TimeGrid(spec.horizon, 6)
    N, dt = grid.n_steps, grid.dt
    bundle = mc.simulate(grid, spec, 2_000, seed=8)
    basis = mc.RegressionBasis("polynomial", 3)
    sol = mc.solve_mc(bundle, spec, basis, n_bootstrap=4)
    v = spec.terminal(0.0, bundle.x[N])
    means = [float(v.mean())]
    for j in range(N - 1, -1, -1):
        x_j = bundle.x[j]
        design = basis.design(x_j) if j else np.ones((bundle.n_paths, 1))
        e = _fitted(design, v)
        z = _fitted(design, v * bundle.dw[j] / dt)
        barrier = spec.obstacle(grid.t(j), x_j)
        for _ in range(200):
            v = np.maximum(e + spec.driver(0.0, grid.t(j), x_j, v, z) * dt, barrier)
        means.append(float(v.mean()))
    assert sol.y0 == pytest.approx(float(v[0]), rel=0, abs=1e-10)
    assert np.max(np.abs(np.array(sol.e_y_diag) - means[::-1])) <= 1e-10


def test_no_convergence_raises():
    spec = catalog_instance("linear_z")
    grid = TimeGrid(spec.horizon, 8)
    bundle = mc.simulate(grid, spec, 2_000, seed=4)
    with pytest.raises(NoConvergence) as exc:
        mc.solve_mc(bundle, spec, mc.RegressionBasis(),
                    max_iters=1)
    assert "mc" in str(exc.value)
    with pytest.raises(mc.MCError, match="mc max_iters must be >= 1"):
        mc.solve_mc(bundle, spec, mc.RegressionBasis(), max_iters=0)


def test_metadata_records_generator_and_settings():
    spec = catalog_instance("zero_driver_flat")
    grid = TimeGrid(spec.horizon, 5)
    bundle = mc.simulate(grid, spec, 1_000, seed=55)
    sol = mc.solve_mc(bundle, spec, mc.RegressionBasis("polynomial", 4),
                      n_bootstrap=12)
    md = sol.metadata
    assert md["generator"] == "numpy-pcg64"
    assert md["seed"] == 55
    assert md["n_paths"] == 1_000
    assert md["block_size"] == mc.BLOCK_SIZE
    assert md["basis_family"] == "polynomial"
    assert md["basis_degree"] == 4
    assert md["n_bootstrap"] == 12
    assert sol.y0_se > 0.0


def test_terminal_layer_mean_matches_paths():
    spec = catalog_instance("american_put")
    grid = TimeGrid(spec.horizon, 6)
    bundle = mc.simulate(grid, spec, 3_000, seed=19)
    sol = mc.solve_mc(bundle, spec, mc.RegressionBasis(), n_bootstrap=4)
    expected = float(np.mean(spec.terminal(grid.t(6), bundle.x[6])))
    assert sol.e_y_diag[6] == pytest.approx(expected, abs=1e-12)


def _fitted(design, y, wts=None):
    """Least-squares fitted values (np.linalg.lstsq, weights via sqrt(w) rows)."""
    if wts is None:
        return design @ np.linalg.lstsq(design, y, rcond=None)[0]
    sw = np.sqrt(wts)
    return design @ np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)[0]


def _picard_reference(bundle, spec, basis, tol=1e-12, max_passes=500):
    """Global Picard over paths: every anchor's recursion under a frozen
    diagonal U, repeated until U stops moving.  Returns U, one row per layer."""
    grid = bundle.grid
    N, dt, n = grid.n_steps, grid.dt, bundle.n_paths
    designs = {j: basis.design(bundle.x[j]) for j in range(1, N)}

    def expect(j, y):
        return np.full(n, y.mean()) if j == 0 else _fitted(designs[j], y)

    def anchor(i, U):
        vals = spec.terminal(grid.t(i), bundle.x[N])
        for j in range(N - 1, i - 1, -1):
            x_j = bundle.x[j]
            z = expect(j, vals * bundle.dw[j] / dt)
            f = spec.driver(grid.t(i), grid.t(j), x_j, U[j], z)
            vals = np.maximum(expect(j, vals) + f * dt, spec.obstacle(grid.t(j), x_j))
        return vals

    U = np.zeros((N + 1, n))
    for _ in range(max_passes):
        nxt = np.array([anchor(i, U) for i in range(N + 1)])
        change = float(np.max(np.abs(nxt - U)))
        U = nxt
        if change < tol:
            return U
    raise AssertionError(f"reference Picard did not reach {tol} (last change {change})")


@pytest.mark.parametrize("name", ["hyperbolic_discount", "custom_affine", "linear_z"])
def test_sweep_matches_picard_reference_over_paths(name):
    spec = catalog_instance(name)
    bundle = mc.simulate(TimeGrid(spec.horizon, 6), spec, 2_000, seed=8)
    basis = mc.RegressionBasis()
    sol = mc.solve_mc(bundle, spec, basis, n_bootstrap=4)
    U = _picard_reference(bundle, spec, basis)
    assert sol.y0 == pytest.approx(U[0, 0], rel=0, abs=1e-10)
    assert np.max(np.abs(np.array(sol.e_y_diag) - U.mean(axis=1))) <= 1e-10
    assert sol.iterations == 1


def test_anchor_dependent_terminal_matches_picard_reference_over_paths():
    # no catalog terminal reads its anchor; the reference sets each
    # anchor's terminal row on its own
    spec = replace(catalog_instance("hyperbolic_discount"),
                   terminal=TerminalSpec(name="x+t", fn=lambda t, x: x + t))
    bundle = mc.simulate(TimeGrid(spec.horizon, 6), spec, 2_000, seed=8)
    basis = mc.RegressionBasis()
    sol = mc.solve_mc(bundle, spec, basis, n_bootstrap=4)
    U = _picard_reference(bundle, spec, basis)
    assert sol.y0 == pytest.approx(U[0, 0], rel=0, abs=1e-10)
    assert np.max(np.abs(np.array(sol.e_y_diag) - U.mean(axis=1))) <= 1e-10


@pytest.mark.parametrize("name", ["hyperbolic_discount", "custom_affine"])
def test_bootstrap_replicates_match_weighted_lstsq_refits(name):
    # each replicate refit on its own, the diagonal frozen at the reference
    spec = catalog_instance(name)
    grid = TimeGrid(spec.horizon, 6)
    N, dt = grid.n_steps, grid.dt
    bundle = mc.simulate(grid, spec, 2_000, seed=8)
    n = bundle.n_paths
    basis = mc.RegressionBasis()
    n_boot = 12  # more than one block of basis.dim replicates
    sol = mc.solve_mc(bundle, spec, basis, n_bootstrap=n_boot)
    U = _picard_reference(bundle, spec, basis)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((8, 999983))))
    reps = []
    for _ in range(n_boot):
        w = rng.multinomial(n, np.full(n, 1.0 / n)).astype(float)
        vals = spec.terminal(0.0, bundle.x[N])
        for j in range(N - 1, 0, -1):
            x_j = bundle.x[j]
            design = basis.design(x_j)
            z = _fitted(design, vals * bundle.dw[j] / dt, w)
            f = spec.driver(0.0, grid.t(j), x_j, U[j], z)
            vals = np.maximum(_fitted(design, vals, w) + f * dt,
                              spec.obstacle(grid.t(j), x_j))
        e0 = np.sum(w * vals) / n
        z0 = np.sum(w * vals * bundle.dw[0]) / n / dt
        f0 = spec.driver(0.0, 0.0, spec.x0, U[0, 0], z0)
        reps.append(max(e0 + f0 * dt, float(spec.obstacle(0.0, spec.x0))))
    assert len(sol.y0_replicates) == n_boot
    np.testing.assert_allclose(sol.y0_replicates, reps, rtol=1e-10, atol=0)
    assert sol.y0_se == np.std(sol.y0_replicates, ddof=1)



@pytest.mark.parametrize("family", ["pwlinear", "polynomial"])
def test_traced_peak_within_working_set_bytes(family):
    # the memory gate of solve --engine mc must bound what simulate and
    # solve_mc allocate; z-reading drivers (linear_z, custom_affine) hold the
    # z rows the others get as read-only zeros
    N, n = 10, 3000
    basis = mc.RegressionBasis(family)
    bound = mc.working_set_bytes(N, n, basis)
    warm = catalog_instance("american_put")  # first calls fill numpy's caches
    mc.solve_mc(mc.simulate(TimeGrid(warm.horizon, N), warm, n, seed=0), warm, basis)
    for name in CATALOG_NAMES:
        spec = catalog_instance(name)
        tracemalloc.start()
        try:
            bundle = mc.simulate(TimeGrid(spec.horizon, N), spec, n, seed=4)
            mc.solve_mc(bundle, spec, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (name, peak, bound)


# The engine as it was before its working set was cut, kept as the bitwise
# pin: float64 bootstrap weights drawn one row at a time, a column-stacked
# design copied into the projector, and z fitted for every driver.
_PINNED_KR_BLOCK = 1024


def _pinned_weights(bundle, n_bootstrap):
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((bundle.seed, 999983))))
    n = bundle.n_paths
    pvals = np.full(n, 1.0 / n)
    wts = np.empty((n_bootstrap, n))
    for b in range(n_bootstrap):
        wts[b] = rng.multinomial(n, pvals)
    return wts


def _pinned_design(basis, x):
    x = np.asarray(x, dtype=float)
    u = (x - float(x.mean())) / float(x.std())
    if basis.family == "polynomial":
        cols = [np.ones_like(u)]
        for _ in range(basis.degree):
            cols.append(cols[-1] * u)
        return np.column_stack(cols)
    qs = np.quantile(u, np.linspace(0.0, 1.0, basis.degree + 2)[1:-1])
    cols = [np.ones_like(u), u]
    cols.extend(np.maximum(u - q, 0.0) for q in qs)
    return np.column_stack(cols)


class _PinnedProjector:
    def __init__(self, design, dw, dt):
        d = design.shape[1]
        self.bbt = np.empty((2 * d, len(dw)))
        self.bt = self.bbt[:d]
        self.bt[:] = design.T
        np.multiply(self.bt, dw / dt, out=self.bbt[d:])
        self.chol = np.linalg.cholesky(design.T @ design)

    def _fit(self, coef, vals, z):
        np.matmul(coef[:, 0], self.bt, out=vals)
        np.matmul(coef[:, 1], self.bt, out=z)

    def project(self, vals, z):
        m, d = len(vals), len(self.bt)
        rhs = (vals @ self.bbt.T).reshape(2 * m, d).T
        coef = np.linalg.solve(self.chol.T, np.linalg.solve(self.chol, rhs))
        self._fit(coef.T.reshape(m, 2, d), vals, z)

    def weighted_grams(self, wts):
        bt = self.bt
        d = len(bt)
        up, lo = np.triu_indices(d)
        half = np.zeros((len(up), len(wts)))
        for c in range(0, bt.shape[1], _PINNED_KR_BLOCK):
            blk = bt[:, c:c + _PINNED_KR_BLOCK]
            half += (blk[up] * blk[lo]) @ wts[:, c:c + _PINNED_KR_BLOCK].T
        grams = np.empty((len(wts), d, d))
        grams[:, up, lo] = half.T
        grams[:, lo, up] = half.T
        return grams

    def project_weighted(self, grams, wts, vals, z):
        m, d = len(vals), len(self.bt)
        rhs = np.zeros((m, 2 * d))
        for c in range(0, vals.shape[1], _PINNED_KR_BLOCK):
            cols = slice(c, c + _PINNED_KR_BLOCK)
            rhs += (wts[:, cols] * vals[:, cols]) @ self.bbt[:, cols].T
        rhs = rhs.reshape(m, 2, d).transpose(0, 2, 1)
        self._fit(np.linalg.solve(grams, rhs).transpose(0, 2, 1), vals, z)


def _pinned_solve(bundle, spec, basis, n_bootstrap):
    grid = bundle.grid
    N, n, dt = grid.n_steps, bundle.n_paths, grid.dt
    x_N = bundle.x[N]
    anchor_t, vals = terminal_rows(spec, grid, x_N)
    zrows = np.empty_like(vals)
    wts = _pinned_weights(bundle, n_bootstrap)
    reps = np.empty((n_bootstrap, n))
    reps[:] = vals[0]
    zrep = np.empty((basis.dim, n))
    e_y_diag = [0.0] * (N + 1)
    e_y_diag[N] = float(vals[N].mean())
    barrier = np.asarray(spec.obstacle(grid.t(N), x_N), dtype=float)
    margin = float((vals[0] - barrier).min())
    parts = [_frontier_part(N, _stops(vals[0][None], barrier), x_N)]
    for j in range(N - 1, -1, -1):
        s, x_j = grid.t(j), bundle.x[j]
        proj = _PinnedProjector(_pinned_design(basis, x_j) if j else np.ones((n, 1)),
                                bundle.dw[j], dt)
        e, z = vals[: j + 1], zrows[: j + 1]
        proj.project(e, z)
        layer = step_layer(spec, anchor_t, x_j, e, z, dt, j, 200)
        v, barrier = layer.v, layer.barrier
        e_y_diag[j] = float(v.mean())
        margin = min(margin, float((layer.rows[0] - barrier).min()))
        parts.append(_frontier_part(j, _stops(layer.rows[0][None], barrier), x_j))
        grams = proj.weighted_grams(wts)
        for lo in range(0, n_bootstrap, basis.dim):
            blk = slice(lo, lo + basis.dim)
            rb, zb = reps[blk], zrep[: len(reps[blk])]
            proj.project_weighted(grams[blk], wts[blk], rb, zb)
            step_rows(spec, 0.0, s, x_j, v, rb, zb, barrier, dt, j)
    return (float(vals[0, 0]), float(reps[:, 0].std(ddof=1)),
            [float(r) for r in reps[:, 0]], e_y_diag, margin, _sorted_rows(parts, dt))


def _assert_matches_pinned(name, family, seed, n_steps, n_paths, n_boot):
    spec = catalog_instance(name)
    bundle = mc.simulate(TimeGrid(spec.horizon, n_steps), spec, n_paths, seed=seed)
    basis = mc.RegressionBasis(family)
    sol = mc.solve_mc(bundle, spec, basis, n_bootstrap=n_boot)
    y0, y0_se, reps, e_y_diag, margin, rows = _pinned_solve(bundle, spec, basis, n_boot)
    assert sol.y0 == y0
    assert sol.y0_se == y0_se
    assert sol.y0_replicates == reps
    assert sol.e_y_diag == e_y_diag
    assert sol.floor_margin == margin
    assert sol.frontier_rows.tobytes() == rows.tobytes()


@pytest.mark.parametrize("seed", [3, 8])
@pytest.mark.parametrize("family", ["pwlinear", "polynomial"])
@pytest.mark.parametrize("name", ["american_put", "hyperbolic_discount",
                                  "custom_affine", "linear_z"])
def test_engine_matches_its_pinned_float64_copy_bit_for_bit(name, family, seed):
    # count-typed weights, in-place designs, no z fit for z-free drivers
    # (american_put, hyperbolic_discount), knots without np.quantile and one
    # refit pass for every replicate keep every float operation; 12
    # replicates are more than one block of basis.dim
    _assert_matches_pinned(name, family, seed, 6, 2_000, 12)


@pytest.mark.parametrize("family", ["pwlinear", "polynomial"])
@pytest.mark.parametrize("name", ["american_put", "custom_affine"])
def test_engine_matches_its_pinned_copy_at_the_benchmark_shape(name, family):
    # the mc-crosscheck workload's sizes: 48 replicates are four full blocks
    # of basis.dim plus a short one, 5000 paths four KR_BLOCK blocks plus a
    # short one; american_put fits no z, custom_affine does
    _assert_matches_pinned(name, family, 11, 25, 5_000, mc.N_BOOTSTRAP)


@pytest.mark.parametrize("n", [2, 3, 13, 400, 777, 5000, 100_000])
def test_knots_equal_np_quantile(n):
    rng = np.random.default_rng(n)
    clouds = [np.sort(rng.normal(size=n)),
              # ties; + 0.0 clears the -0.0 that rounding leaves, which
              # np.quantile's partition may swap with 0.0 (a state cloud
              # (x - mean) / sd holds no -0.0)
              np.sort(np.round(rng.normal(size=n), 1) + 0.0),
              np.sort(rng.integers(0, 3, size=n).astype(float))]
    # (n - 1) q exact on an integer, a half or a quarter for every n
    dyadic = np.arange(1, 16) / 16.0
    for s in clouds:
        for q in [np.linspace(0.0, 1.0, degree + 2)[1:-1] for degree in range(1, 16)] + [dyadic]:
            got, want = mc._knots(s, q), np.quantile(s, q)
            assert got.tobytes() == want.tobytes(), (n, q)


def test_bootstrap_refits_every_replicate_in_one_solve_per_layer(monkeypatch):
    real, shapes = np.linalg.solve, []

    def spy(a, b):
        if np.ndim(a) == 3:
            shapes.append(np.shape(a))
        return real(a, b)

    monkeypatch.setattr(np.linalg, "solve", spy)
    spec = catalog_instance("american_put")
    N, basis = 6, mc.RegressionBasis()
    bundle = mc.simulate(TimeGrid(spec.horizon, N), spec, 2_000, seed=3)
    mc.solve_mc(bundle, spec, basis)
    d = basis.dim
    assert shapes == [(mc.N_BOOTSTRAP, d, d)] * (N - 1) + [(mc.N_BOOTSTRAP, 1, 1)]


@pytest.mark.parametrize("family, message", [
    # a resample keeps about two thirds of the 40 paths, too few for 17 columns
    ("pwlinear", "mc layer 9: bootstrap replicate 13: singular weighted gram"),
    ("polynomial", "mc layer 2: rank-deficient regression"),
])
def test_regression_failures_name_the_layer(family, message):
    spec = catalog_instance("american_put")
    bundle = mc.simulate(TimeGrid(spec.horizon, 10), spec, 40, seed=1)
    with pytest.raises(mc.MCError) as exc:
        mc.solve_mc(bundle, spec, mc.RegressionBasis(family, 15))
    assert str(exc.value).startswith(message)
