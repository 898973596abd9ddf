"""Solver tests: the backward sweep against the Picard reference,
convergence and contraction of the reference, and solver failures."""

from dataclasses import replace

import numpy as np
import pytest

from rbsvie.instances import (
    CATALOG_NAMES,
    DriverSpec,
    ObstacleSpec,
    TerminalSpec,
    catalog_instance,
)
from rbsvie.snell import (
    constant_diagonal,
    contraction_ratios,
    e_norm,
    max_contraction_delta,
    phi_step,
    slice_view,
    snell_by_policy_envelope,
    solve_global,
    solve_slice,
    zero_diagonal,
)
from rbsvie.stopping import inconsistency_report, stream_solve
from rbsvie.volterra import NoConvergence, PicardConfig, VolterraError, solve, sweep


def test_config_validation():
    spec = catalog_instance("american_put")
    with pytest.raises(VolterraError):
        solve_global(spec.lattice(2), spec, tolerance=0.0)
    with pytest.raises(VolterraError):
        PicardConfig(max_iters=0)


def test_zero_driver_solved_in_one_pass():
    # no (y, z) dependence: the pass ignores its input, so one pass is exact
    spec = catalog_instance("zero_driver_flat")
    lat = spec.lattice(40)
    sol = solve_global(lat, spec)
    assert sol.iterations == 1
    assert sol.residual_history == [0.0]
    # identity terminal, driver 0, floor far below: the diagonal is the state
    for i in (0, 13, 40):
        assert np.allclose(sol.y_diag[i], lat.x[i], atol=1e-12)


def test_put_diagonal_matches_discounted_tree():
    # reference: standard binomial put valuation with one-step implicit
    # discounting, written independently of the solver internals
    spec = catalog_instance("american_put")
    lat = spec.lattice(50)
    sol = solve_global(lat, spec, PicardConfig(max_iters=100), tolerance=1e-12)

    r, strike = 0.05, 1.0
    dt = lat.grid.dt
    ref = np.maximum(strike - lat.x[50], 0.0)
    refs = {50: ref}
    for j in range(49, -1, -1):
        cont = 0.5 * (ref[1:] + ref[:-1]) / (1.0 + r * dt)
        ref = np.maximum(cont, np.maximum(strike - lat.x[j], 0.0))
        refs[j] = ref
    err = max(float(np.max(np.abs(sol.y_diag[j] - refs[j]))) for j in range(51))
    assert err < 1e-12


def test_residuals_decay_geometrically():
    spec = catalog_instance("hyperbolic_discount")
    lat = spec.lattice(50)
    sol = solve_global(lat, spec, PicardConfig(max_iters=100), tolerance=1e-12)
    res = sol.residual_history
    assert len(res) == sol.iterations
    for a, b in zip(res[1:-1], res[2:]):
        assert b < 0.5 * a


def test_fixed_point_is_stationary():
    spec = catalog_instance("linear_z")
    lat = spec.lattice(30)
    sol = solve_global(lat, spec, tolerance=1e-12)
    diag = phi_step(lat, spec, sol.y_diag).y_diag
    move = max(float(np.max(np.abs(diag[i] - sol.y_diag[i]))) for i in range(31))
    assert move < 1e-11


def test_fixed_point_unique_across_inits():
    spec = catalog_instance("custom_affine")
    lat = spec.lattice(30)
    a = solve_global(lat, spec, init_diag=zero_diagonal(lat), tolerance=1e-12)
    b = solve_global(lat, spec, init_diag=constant_diagonal(lat, 5.0), tolerance=1e-12)
    gap = max(float(np.max(np.abs(a.y_diag[i] - b.y_diag[i]))) for i in range(31))
    assert gap < 1e-10


def test_no_convergence_raises_with_context():
    spec = catalog_instance("american_put")
    lat = spec.lattice(20)
    with pytest.raises(NoConvergence) as exc:
        solve_global(lat, spec, PicardConfig(max_iters=2), tolerance=1e-14)
    assert exc.value.iterations == 2
    assert exc.value.last_residual > 0


def test_windowed_default_delta_respects_bound():
    # the paper's window length is the widest grid multiple within the
    # contraction bound; the sweep (window = dt) agrees with global Picard
    spec = catalog_instance("hyperbolic_discount")
    lat = spec.lattice(50)
    cf = spec.driver.lipschitz
    d = max_contraction_delta(cf, lat.grid.dt, spec.horizon)
    assert 8.0 * cf * (d * d + d) < 1.0
    # one more step would break the bound
    d2 = d + lat.grid.dt
    assert 8.0 * cf * (d2 * d2 + d2) >= 1.0
    w = solve(lat, spec)
    g = solve_global(lat, spec, tolerance=1e-11)
    gap = max(float(np.max(np.abs(g.y_diag[i] - w.y_diag[i]))) for i in range(51))
    assert gap < 2e-11


def test_max_contraction_delta_edge_cases():
    assert max_contraction_delta(0.0, 0.1, 3.0) == 3.0
    # enormous coupling: even one step violates the bound
    with pytest.raises(VolterraError):
        max_contraction_delta(50.0, 0.5, 1.0)


def test_contraction_ratios_below_one():
    for name in ("american_put", "linear_z", "hyperbolic_discount"):
        spec = catalog_instance(name)
        lat = spec.lattice(40)
        rs = contraction_ratios(lat, spec, pairs=25)
        assert rs, name
        assert max(rs) < 1.0, (name, max(rs))


def test_slice_view_matches_direct_solve():
    spec = catalog_instance("american_put")
    lat = spec.lattice(25)
    sol = solve_global(lat, spec, tolerance=1e-12)
    for i in (0, 7, 24):
        direct = solve_slice(lat, spec, i, sol.y_diag)
        view = slice_view(sol, i)
        for a, b in zip(direct.ytilde, view.ytilde):
            assert np.allclose(a, b, atol=1e-11)
        for a, b in zip(direct.z, view.z):
            assert np.allclose(a, b, atol=1e-11)


@pytest.mark.parametrize("n", [1, 5, 12])
def test_phi_step_layers_equal_slices(n):
    # phi_step lays every anchor's slice onto row i of the layers j >= i,
    # the terminal layer included; a window leaves earlier anchors at zero
    for name in CATALOG_NAMES:
        spec = catalog_instance(name)
        lat = spec.lattice(n)
        rng = np.random.default_rng(n)
        U = [rng.normal(size=j + 1) for j in range(n + 1)]
        sol = phi_step(lat, spec, U)
        assert len(sol.ytilde) == n + 1 and len(sol.z) == n
        for i in range(n + 1):
            sl = solve_slice(lat, spec, i, U)
            assert np.array_equal(sol.y_diag[i], sl.diag), (name, i)
            for j in range(i, n + 1):
                assert np.array_equal(sol.ytilde[j][i], sl.ytilde_at(j)), (name, i, j)
            for j in range(i, n):
                assert np.array_equal(sol.z[j][i], sl.z_at(j)), (name, i, j)
                assert np.array_equal(sol.kinc[j][i], sl.kinc_at(j)), (name, i, j)
        k = n // 2 + 1
        part = phi_step(lat, spec, U, anchors=range(k, n + 1))
        for i in range(n + 1):
            inside = i >= k
            assert np.array_equal(part.y_diag[i], sol.y_diag[i] if inside
                                  else np.zeros(i + 1)), (name, i)
            for f in ("ytilde", "z", "kinc"):
                ref, got = getattr(sol, f), getattr(part, f)
                for j in range(i, len(got)):
                    want = ref[j][i] if inside else np.zeros(j + 1)
                    assert np.array_equal(got[j][i], want), (name, f, i, j)


def test_e_norm_scales_with_dt():
    # a constant unit diagonal perturbation has squared norm sum_i dt = T + dt
    spec = catalog_instance("zero_driver_flat")
    lat = spec.lattice(20)
    d = [np.ones(i + 1) for i in range(21)]
    got = e_norm(lat, d, [])
    assert abs(got - np.sqrt(1.0 + lat.grid.dt)) < 1e-12


def test_sweep_matches_global_with_coupling():
    # the sweep is exact; the Picard reference stops within its tolerance
    tol = 1e-11
    for name in ("american_put", "linear_z", "hyperbolic_discount"):
        spec = catalog_instance(name)
        lat = spec.lattice(48)
        g = solve_global(lat, spec, PicardConfig(max_iters=200), tolerance=tol)
        s = solve(lat, spec)
        gap = max(float(np.max(np.abs(g.y_diag[i] - s.y_diag[i]))) for i in range(49))
        assert gap < 2 * tol, name
        for field in ("z", "kinc"):
            a, b = getattr(g, field), getattr(s, field)
            fgap = max(float(np.max(np.abs(a[j][i] - b[j][i])))
                       for i in range(48) for j in range(i, 48))
            assert fgap < 10 * tol, (name, field, fgap)


@pytest.mark.parametrize("n", [1, 5, 12])
def test_sweep_rows_equal_policy_envelope(n):
    # every anchor's stored envelope is the stop-or-continue value under
    # the swept diagonal: bitwise off the diagonal, and on it up to the
    # last-bit cycle the per-node equation may end on
    for name in CATALOG_NAMES:
        spec = catalog_instance(name)
        lat = spec.lattice(n)
        sol = solve(lat, spec)
        for i in range(n + 1):
            env = snell_by_policy_envelope(lat, spec, i, sol.y_diag)
            assert np.array_equal(sol.ytilde[i][i], sol.y_diag[i])
            assert np.max(np.abs(env[0] - sol.y_diag[i])) <= 1e-14, (name, i)
            for j in range(i + 1, n + 1):
                assert np.array_equal(env[j - i], sol.ytilde[j][i]), (name, i, j)


def test_anchor_dependent_terminal_reaches_every_anchor():
    # no catalog terminal reads its anchor; this one does, so a terminal
    # row handed to the wrong anchor shows against the per-anchor
    # references: the policy envelope and the own-rule identity
    spec = replace(catalog_instance("hyperbolic_discount"),
                   terminal=TerminalSpec(name="x+t", fn=lambda t, x: x + t))
    lat = spec.lattice(8)
    sol = solve(lat, spec)
    for i in range(9):
        env = snell_by_policy_envelope(lat, spec, i, sol.y_diag)
        assert np.max(np.abs(env[0] - sol.y_diag[i])) <= 1e-14, i
        for j in range(i + 1, 9):
            assert np.array_equal(env[j - i], sol.ytilde[j][i]), (i, j)
    assert inconsistency_report(lat, spec, sol).max_identity_error <= 1e-12


def test_sweep_record_and_diagonal_only_mode():
    spec = catalog_instance("hyperbolic_discount")
    lat = spec.lattice(30)
    full = solve(lat, spec)
    assert len(full.residual_history) == 1 and full.residual_history[0] <= 1e-14
    y_diag, _, _ = stream_solve(lat, sweep(lat, spec, 200))
    for a, b in zip(full.y_diag, y_diag):
        assert np.array_equal(a, b)


def test_sweep_rejects_driver_that_does_not_broadcast_over_anchors():
    base = catalog_instance("linear_z")
    flat = DriverSpec(name="flattening", fn=lambda t, s, x, y, z: 0.1 * np.ravel(z),
                      lipschitz=0.1, depends_on_y=False)
    spec = replace(base, driver=flat)
    lat = spec.lattice(6)
    with pytest.raises(VolterraError, match="layer 5"):
        solve(lat, spec)


def test_sweep_non_finite_value_names_anchor_and_layer():
    base = catalog_instance("zero_driver_flat")
    wall = ObstacleSpec(name="wall", fn=lambda u, x: np.where(
        (abs(u - 0.5) < 1e-9) & (np.asarray(x) > 0), np.inf, -1.0))
    spec = replace(base, obstacle=wall)
    lat = spec.lattice(10)
    with pytest.raises(VolterraError, match="anchor 5, layer 5"):
        solve(lat, spec)
