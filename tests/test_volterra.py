"""Solver tests: the backward sweep against the Picard reference,
convergence and contraction of the reference, and solver failures."""

import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbsvie.instances import (
    CATALOG_NAMES,
    DriverSpec,
    InstanceSpec,
    ObstacleSpec,
    TerminalSpec,
    broadcast_defect,
    brownian_dynamics,
    catalog_instance,
    geometric_dynamics,
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
from rbsvie import volterra
from rbsvie.stopping import inconsistency_report, stream_report, stream_solve
from rbsvie.volterra import (
    SETTLE_RTOL,
    NoConvergence,
    PicardConfig,
    VolterraError,
    _settle_diagonal,
    check_finite,
    per_anchor,
    solve,
    step_rows,
    sweep,
)


def test_config_validation():
    spec = catalog_instance("american_put")
    with pytest.raises(VolterraError):
        solve_global(spec.lattice(2), spec, tolerance=0.0)
    with pytest.raises(VolterraError):
        PicardConfig(max_iters=0)
    # the commands pass the bound as an int; below 1 it is a config error
    # on the first stepped layer, not a NoConvergence after no iteration
    for name in ("american_put", "hyperbolic_discount"):
        spec = catalog_instance(name)
        with pytest.raises(VolterraError, match="max_iters"):
            list(sweep(spec.lattice(2), spec, 0))


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


@pytest.mark.parametrize("shared", [False, True], ids=["full", "shared"])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_anchor_free_terminal_rows_equal_one_call_per_anchor(name, shared):
    # a terminal declared anchor-free is called once, at t_0; one declared
    # anchor-coupled once per row, at the row's anchor time
    base = catalog_instance(name)
    n = 9
    lat = base.lattice(n)
    x_N = lat.x[n]
    anchors = (0, n) if shared else range(n + 1)
    want = np.array([base.terminal(lat.grid.t(i), x_N) for i in anchors])
    for coupled in (False, True):
        calls = []

        def counting(t, x, _f=base.terminal.fn):
            calls.append(t)
            return _f(t, x)
        spec = replace(base, terminal=replace(base.terminal, fn=counting,
                                              depends_on_anchor=coupled))
        anchor_t, rows = volterra.terminal_rows(spec, lat.grid, x_N, shared)
        assert rows.dtype == want.dtype and rows.tobytes() == want.tobytes(), coupled
        assert calls == ([lat.grid.t(i) for i in anchors] if coupled else [0.0])
        assert anchor_t.tobytes() == lat.grid.times[:, None].tobytes()


def test_sweep_record_and_diagonal_only_mode():
    spec = catalog_instance("hyperbolic_discount")
    lat = spec.lattice(30)
    full = solve(lat, spec)
    assert len(full.residual_history) == 1 and full.residual_history[0] <= 1e-14
    y_diag, _, _ = stream_solve(lat, sweep(lat, spec, 200))
    for a, b in zip(full.y_diag, y_diag):
        assert np.array_equal(a, b)


def _recording(spec, seen):
    """spec with a driver that keeps a copy of every z it is handed."""
    fn = spec.driver.fn

    def rec(t, s, x, y, z):
        seen.append(np.array(z))
        return fn(t, s, x, y, z)

    return replace(spec, driver=replace(spec.driver, fn=rec))


@pytest.mark.parametrize("n_steps", [1, 2, 9, 40])
@pytest.mark.parametrize("name, params", [(name, {}) for name in CATALOG_NAMES]
                         + [("linear_z", {"a": 0.0})])
def test_lean_sweep_layers_equal_the_full_sweep(name, params, n_steps):
    # the sweep without z makes the same layers, bit for bit, and
    # hands a z-reading driver the same midpoint differences; only a
    # driver declared z-free gets zeros
    base = catalog_instance(name, params)
    lat = base.lattice(n_steps)
    seen_lean, seen_full = [], []
    lean = list(sweep(lat, _recording(base, seen_lean), 200))
    full = list(sweep(lat, _recording(base, seen_full), 200, z=True))
    assert [a.j for a in lean] == [b.j for b in full]
    for a, b in zip(lean, full):
        for field in ("rows", "v", "fdt", "barrier"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x is None) == (y is None), (field, a.j)
            if x is not None:
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), (field, a.j)
        assert a.update.hex() == b.update.hex()
        assert a.z is None
        assert (b.z is None) == (b.j == n_steps)
    assert len(seen_lean) == len(seen_full)
    if base.driver.depends_on_z:
        for a, b in zip(seen_lean, seen_full):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert any(np.any(z != 0.0) for z in seen_lean)
    else:
        assert all(not np.any(z) for z in seen_lean)
    # an anchor-free instance's shared-row layers, laid out per anchor, are
    # the layers of the same instance declared anchor-coupled
    assert len(full[0].rows) == (2 if base.anchor_free else n_steps + 1)
    _assert_same_layers(full, list(sweep(lat, _anchor_coupled(base), 200, z=True)))


def _anchor_coupled(spec):
    """spec with its driver and terminal declared to read the anchor."""
    return replace(spec, driver=replace(spec.driver, depends_on_anchor=True),
                   terminal=replace(spec.terminal, depends_on_anchor=True))


def _assert_same_layers(got, want):
    """got's layers laid out per anchor equal want's bit for bit; fdt is
    compared with one row per anchor, as it broadcasts."""
    assert [a.j for a in got] == [b.j for b in want]
    for a, b in zip(got, want):
        a, n = per_anchor(a), a.j + 1
        for field in ("rows", "v", "z", "fdt", "barrier"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x is None) == (y is None), (field, a.j)
            if field == "fdt" and x is not None:
                x, y = np.broadcast_to(x, (n, n)), np.broadcast_to(y, (n, n))
            if x is not None:
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), (field, a.j)
        assert a.update.hex() == b.update.hex(), a.j


def test_sweep_rejects_driver_that_does_not_broadcast_over_anchors():
    base = catalog_instance("linear_z")
    flat = DriverSpec(name="flattening", fn=lambda t, s, x, y, z: 0.1 * np.ravel(z),
                      lipschitz=0.1, y_sign=0)
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


def _settle_reference(spec, s, x, e, z, barrier, dt, j, max_iters):
    """The per-node equation's loop with a separate finiteness pass over
    every iterate and numpy's reduction wrappers, kept to pin the sweep's
    loop to the same values, updates and errors."""
    v = np.maximum(e, barrier)
    last = np.inf
    for _ in range(max_iters):
        nxt = np.maximum(e + np.asarray(spec.driver(s, s, x, v, z), dtype=float) * dt,
                         barrier)
        if not np.isfinite(nxt).all():
            raise VolterraError(f"non-finite value at anchor {j}, layer {j}; "
                                f"check instance parameters")
        step = float(np.max(np.abs(nxt - v)))
        v, prev = nxt, v
        if step == 0.0 or (step >= last
                           and step <= SETTLE_RTOL * (1.0 + float(np.max(np.abs(v))))):
            # third: whether the loop ended exactly, on bitwise-equal iterates
            return v, step, step == 0.0 and v.tobytes() == prev.tobytes()
        last = step
    raise NoConvergence(max_iters, last, where=f"anchor {j}, layer {j}")


def _outcome(settle, spec, e, z, barrier, dt, max_iters):
    """(result or error, texts of the warnings printed on the way)."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            v, step = settle(spec, 0.25, 0.5 * e, e, z, barrier, dt, 3, max_iters)[:2]
            got = v.dtype, v.shape, v.tobytes(), step
        except (VolterraError, NoConvergence) as exc:
            extra = ((exc.iterations, exc.last_residual) if isinstance(exc, NoConvergence)
                     else ())
            got = type(exc), str(exc), extra
    return got, [str(w.message) for w in seen]


_EDGES = st.sampled_from([np.nan, np.inf, -np.inf])


# (y-slope times dt, dt, scale of e, obstacle) per regime: contracting,
# last-bit cycles near a slope of 1, expanding, overflowing within the
# iteration budget, and iterates of alternating sign near the float limit,
# whose difference overflows while both stay finite
_REGIMES = {
    "contract": (st.floats(-1.2, 0.9), st.sampled_from([0.01, 0.1, 0.5]), 1.0, None),
    "near_one": (st.floats(0.9, 1.0), st.sampled_from([0.01, 0.1, 0.5]), 1.0, None),
    "expand": (st.floats(1.0, 3.0), st.sampled_from([0.01, 0.1, 0.5]), 1.0, None),
    "blow_up": (st.sampled_from([60.0, -60.0]), st.sampled_from([0.01, 0.1, 0.5]), 1.0, None),
    "swing": (st.sampled_from([-2.0, -3.0]), st.just(1.0), 1e306, "none"),
}


@settings(max_examples=500, deadline=None)
@given(data=st.data(), regime=st.sampled_from(sorted(_REGIMES)), n=st.integers(1, 24),
       seed=st.integers(0, 2**32 - 1), b=st.floats(-2.0, 2.0),
       max_iters=st.integers(1, 400),
       inject=st.one_of(st.none(), st.tuples(
           st.sampled_from(["e", "barrier", "driver"]), st.integers(0, 23), _EDGES,
           st.integers(0, 5))))
def test_settle_loop_matches_the_separate_finiteness_pass(
        data, regime, n, seed, b, max_iters, inject):
    # value, last update and raised error (type, text, NoConvergence
    # fields) of the sweep's loop equal the reference loop's exactly, on
    # affine drivers and with NaN or an infinity in e, L or f
    slopes, dts, scale, barrier_kind = _REGIMES[regime]
    slope_dt, dt = data.draw(slopes), data.draw(dts)
    barrier_kind = barrier_kind or data.draw(st.sampled_from(["array", "scalar", "none"]))
    rng = np.random.default_rng(seed)
    e = rng.uniform(-5.0, 5.0, n) * scale
    z = rng.uniform(-1.0, 1.0, n)
    barrier = {"array": rng.uniform(-6.0, 2.0, n), "scalar": np.asarray(rng.uniform(-6.0, 2.0)),
               "none": np.full(n, -np.inf)}[barrier_kind]
    a = slope_dt / dt
    where, node, bad, after = inject or (None, 0, 0.0, 0)
    node %= n
    if where == "e":
        e[node] = bad
    elif where == "barrier":
        barrier = np.broadcast_to(barrier, (n,)).copy()
        barrier[node] = bad

    def make_spec():
        calls = [0]

        def f(t, s, x, y, z):
            out = a * y + b * z + 0.3 * x - 0.1
            calls[0] += 1
            if where == "driver" and calls[0] > after:
                out[node] = bad
            return out
        return SimpleNamespace(driver=f)

    want, want_seen = _outcome(_settle_reference, make_spec(), e, z, barrier, dt, max_iters)
    got, got_seen = _outcome(_settle_diagonal, make_spec(), e, z, barrier, dt, max_iters)
    assert got == want
    # an iterate that overflowed on one node may make the update of its
    # finite nodes overflow too, before the test that raises; no other
    # warning is new
    assert [w for w in got_seen if w != "overflow encountered in subtract"] == \
        [w for w in want_seen if w != "overflow encountered in subtract"]


def test_settle_loop_endings():
    # a settled exact fixed point, a last-bit cycle, no convergence, a
    # non-finite start or iterate, and an update that overflows
    e, z = np.linspace(-1.0, 1.0, 7), np.zeros(7)
    flat = SimpleNamespace(driver=lambda t, s, x, y, z: np.zeros_like(y))
    v, step, fdt = _settle_diagonal(flat, 0.0, e, e, z, -1.0, 0.1, 0, 5)
    assert step == 0.0 and fdt.tobytes() == np.zeros(7).tobytes()
    assert np.maximum(e + fdt, -1.0).tobytes() == v.tobytes()
    near = SimpleNamespace(driver=lambda t, s, x, y, z: 0.9 / 0.1 * y + 1.0)
    _, step, fdt = _settle_diagonal(near, 0.0, e, e, z, np.full(7, -1.0), 0.1, 0, 400)
    assert 0.0 < step <= SETTLE_RTOL * 100.0 and fdt is None
    # an update of 0.0 from -0.0 to 0.0 settles, but its iterates differ
    # in their bits, so no running terms are returned; from -0.0 to -0.0
    # they are
    neg = np.full(3, -0.0)
    for f, same in ((0.0, False), (-0.0, True)):
        signed = SimpleNamespace(driver=lambda t, s, x, y, z, f=f: np.full_like(y, f))
        v, step, fdt = _settle_diagonal(signed, 0.0, neg, neg, neg, -np.inf, 0.1, 0, 5)
        assert step == 0.0 and (fdt is not None) == same
        assert np.signbit(v).all() == same
    grow = SimpleNamespace(driver=lambda t, s, x, y, z: 2.0 / 0.1 * y)
    with pytest.raises(NoConvergence, match="anchor 4, layer 4"):
        _settle_diagonal(grow, 0.0, e, e + 1.0, z, 0.0, 0.1, 4, 50)
    blow = SimpleNamespace(driver=lambda t, s, x, y, z: 60.0 / 0.1 * y)
    with np.errstate(over="ignore"), pytest.raises(
            VolterraError, match="non-finite value at anchor 4, layer 4"):
        _settle_diagonal(blow, 0.0, e, e + 1.0, z, 0.0, 0.1, 4, 200)
    with pytest.raises(VolterraError, match="non-finite value at anchor 2, layer 2"):
        _settle_diagonal(flat, 0.0, e, e, z, np.inf, 0.1, 2, 5)
    # iterates of either sign near the float limit: their difference
    # overflows to inf, both are finite, and the loop goes on
    calls = []

    def swing(t, s, x, y, z):
        calls.append(None)
        return np.full_like(y, 1.5e308 if len(calls) % 2 else -1.5e308)
    with np.errstate(over="ignore"), pytest.raises(NoConvergence) as exc:
        _settle_diagonal(SimpleNamespace(driver=swing), 0.0, e, e * 0.0, z, -np.inf, 1.0, 0, 3)
    assert (exc.value.iterations, exc.value.last_residual, len(calls)) == (3, np.inf, 3)


def _settle_outcome(settle, spec, e, z, barrier, dt, max_iters, **kw):
    """(v, update, third), third an array as bytes (the settle's fdt), or
    (error type, text, NoConvergence fields)."""
    try:
        v, step, third = settle(spec, 0.25, 0.5 * e, e, z, barrier, dt, 3, max_iters, **kw)
    except (VolterraError, NoConvergence) as exc:
        extra = ((exc.iterations, exc.last_residual) if isinstance(exc, NoConvergence)
                 else ())
        return type(exc), str(exc), extra
    return v, step, third.tobytes() if isinstance(third, np.ndarray) else third


@settings(max_examples=500, deadline=None)
@given(slope_dt=st.floats(-1.2, 0.0), dt=st.sampled_from([0.01, 0.1, 0.5]),
       n=st.integers(1, 24), seed=st.integers(0, 2**32 - 1), b=st.floats(-2.0, 2.0),
       barrier_kind=st.sampled_from(["array", "scalar", "none"]),
       max_iters=st.integers(1, 400),
       inject=st.one_of(st.none(), st.tuples(
           st.sampled_from(["e", "barrier", "driver"]), st.integers(0, 23), _EDGES,
           st.floats(-6.0, 6.0))))
def test_secant_settle_returns_the_loops_exact_fixed_point(
        slope_dt, dt, n, seed, b, barrier_kind, max_iters, inject):
    # on drivers nonincreasing in y, the secant path returns the loop's
    # v, update 0.0 and fdt bit for bit wherever the loop ends exactly;
    # elsewhere it returns what the loop returns, or an exact finite fixed
    # point certified within max_iters driver calls, as close to the loop's
    # last-bit cycle as the cycle's own tolerance.  A non-finite value is
    # injected in e, in L, or in the driver wherever y exceeds a level on
    # one node, so that the driver stays a pure function of its arguments
    rng = np.random.default_rng(seed)
    e = rng.uniform(-5.0, 5.0, n)
    z = rng.uniform(-1.0, 1.0, n)
    barrier = {"array": rng.uniform(-6.0, 2.0, n), "scalar": np.asarray(rng.uniform(-6.0, 2.0)),
               "none": np.full(n, -np.inf)}[barrier_kind]
    a = slope_dt / dt
    where, node, bad, above = inject or (None, 0, 0.0, 0.0)
    node %= n
    if where == "e":
        e[node] = bad
    elif where == "barrier":
        barrier = np.broadcast_to(barrier, (n,)).copy()
        barrier[node] = bad
    calls = [0]

    def f(t, s, x, y, z):
        calls[0] += 1
        out = a * y + b * z + 0.3 * x - 0.1
        if where == "driver" and y[node] > above:
            out[node] = bad
        return out
    spec = SimpleNamespace(driver=f)

    with np.errstate(all="ignore"):
        want = _settle_outcome(_settle_reference, spec, e, z, barrier, dt, max_iters)
        loop_calls, calls[0] = calls[0], 0
        got = _settle_outcome(_settle_diagonal, spec, e, z, barrier, dt, max_iters,
                              nonincreasing=True)
    settled = [isinstance(out[0], np.ndarray) for out in (want, got)]
    if settled[0] and want[2]:
        # the loop ended exactly: the same v, update 0.0 and fdt
        v = want[0]
        assert settled[1] and got[0].tobytes() == v.tobytes() and got[1] == 0.0
        assert got[2] == (np.asarray(f(0.25, 0.25, 0.5 * e, v, z)) * dt).tobytes()
        return
    if settled == [True, True]:
        same = got[0].tobytes() == want[0].tobytes() and got[1] == want[1]
    else:
        same = settled == [False, False] and got == want
    if same:
        assert calls[0] <= loop_calls + max(max_iters - 2, 0)
        return
    # an exact finite fixed point, certified within max_iters driver calls
    assert settled[1]
    v, step, fdt = got
    assert step == 0.0 and np.isfinite(v).all() and calls[0] <= max_iters
    f_v = np.asarray(f(0.25, 0.25, 0.5 * e, v, z)) * dt
    assert fdt == f_v.tobytes() and np.maximum(e + f_v, barrier).tobytes() == v.tobytes()
    if settled[0]:
        # the loop ended on a last-bit cycle around that point
        w = want[0]
        assert np.max(np.abs(v - w)) <= 2 * SETTLE_RTOL * (1.0 + np.max(np.abs(w)))
    else:
        # the loop ran out of iterations, or met the injected value on an
        # iterate away from the fixed point
        assert want[0] in (NoConvergence, VolterraError)


def test_secant_settle_certifies_only_an_exact_fixed_point():
    # a contracting affine driver settles exactly in fewer calls than the
    # loop, also on a node whose first two iterates are equal (e = 1,
    # where f = 0); a budget of one or two calls and candidates the driver
    # makes NaN leave the loop's own result, and a stiff layer the loop
    # cannot settle may settle on the secant, exactly
    e, z = np.linspace(-1.0, 1.0, 7), np.zeros(7)
    calls = []

    def affine(t, s, x, y, z):
        calls.append(None)
        return 1.0 - y
    spec = SimpleNamespace(driver=affine)
    loop = _settle_diagonal(spec, 0.0, e, e, z, -0.5, 0.1, 0, 200)
    loop_calls, calls[:] = len(calls), []
    got = _settle_diagonal(spec, 0.0, e, e, z, -0.5, 0.1, 0, 200, nonincreasing=True)
    assert loop[1] == 0.0 and len(calls) < loop_calls
    assert [a.tobytes() for a in got[::2]] == [a.tobytes() for a in loop[::2]]
    assert got[1] == 0.0
    for max_iters in (1, 2):
        want = _settle_outcome(_settle_diagonal, spec, e, z, -0.5, 0.1, max_iters)
        assert _settle_outcome(_settle_diagonal, spec, e, z, -0.5, 0.1, max_iters,
                               nonincreasing=True) == want
    # NaN wherever y leaves [-1, 1]: every candidate of this expanding map
    # is refused and the loop raises its own error
    wild = SimpleNamespace(driver=lambda t, s, x, y, z: np.where(
        np.abs(y) > 1.0, np.nan, -12.0 * y))
    want = _settle_outcome(_settle_diagonal, wild, e, z, -np.inf, 0.1, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _settle_outcome(_settle_diagonal, wild, e, z, -np.inf, 0.1, 50,
                              nonincreasing=True)
    assert got == want and want[0] is VolterraError
    # y-slope -1.5 per dt: the loop swings and runs out of iterations; the
    # secant lands on (0.3 + 0.1) / 2.5 and certifies it
    stiff = SimpleNamespace(driver=lambda t, s, x, y, z: 1.0 - 15.0 * y)
    one = np.array([0.3])
    with pytest.raises(NoConvergence):
        _settle_diagonal(stiff, 0.0, one, one, z[:1], -0.5, 0.1, 0, 200)
    v, step, fdt = _settle_diagonal(stiff, 0.0, one, one, z[:1], -0.5, 0.1, 0, 200,
                                    nonincreasing=True)
    assert v.tolist() == [0.16] and step == 0.0
    assert np.maximum(one + fdt, -0.5).tobytes() == v.tobytes()


def _counted(spec, **declared):
    """(spec with its driver's calls counted and declared replaced, [calls])."""
    calls = [0]

    def counted(*args, fn=spec.driver.fn):
        calls[0] += 1
        return fn(*args)
    return replace(spec, driver=replace(spec.driver, fn=counted, **declared)), calls


@pytest.mark.parametrize("name", ["hyperbolic_discount", "american_put"])
def test_drained_sweep_settles_on_the_secant(name):
    # the secant path, not a silent fall back to the loop: at N = 100 a
    # drained sweep calls the driver at most 5 N times (the secant makes
    # 408 and 301 calls, the loop alone 901 and 592)
    spec, calls = _counted(catalog_instance(name))
    assert spec.driver.y_sign == -1
    n = 100
    for _ in sweep(spec.lattice(n), spec, 200):
        pass
    assert calls[0] <= 5 * n


@pytest.mark.parametrize("name, params, want", [
    ("hyperbolic_discount", {}, 408),
    ("american_put", {}, 301),
    ("custom_affine", {}, 800),
    ("linear_z", {}, 728),
    ("linear_z", {"b": 0.0}, 201),
    ("custom_affine", {"y_coef": 0.0}, 301),
])
def test_driver_calls_per_drained_sweep(name, params, want):
    # at N = 100: the secant on y_sign -1, the loop otherwise; a y-free
    # driver settles in two loop calls per layer where the secant would
    # take three (301 and 401 on the last two)
    spec, calls = _counted(catalog_instance(name, params))
    for _ in sweep(spec.lattice(100), spec, 200):
        pass
    assert calls[0] == want


@pytest.mark.parametrize("name, params", [
    ("linear_z", {"b": 0.0}),
    ("custom_affine", {"y_coef": 0.0}),
    ("custom_affine", {"y_coef": 0.0, "t_coef": 0.0}),
    ("american_put", {"rate": 0.0}),
    ("hyperbolic_discount", {"rho0": 0.0}),
    ("zero_driver_flat", {}),
])
def test_y_free_driver_settles_by_the_loop_with_the_secants_bits(name, params):
    # a driver that reads no y is also nonincreasing in y: declared -1 it
    # takes the secant, which returns the loop's bits in no fewer calls
    base = catalog_instance(name, params)
    assert base.driver.y_sign == 0
    for n in (1, 2, 5, 9, 50, 100):
        lat = base.lattice(n)
        loop, loop_calls = _counted(base)
        secant, secant_calls = _counted(base, y_sign=-1)
        got, want = list(sweep(lat, loop, 200)), list(sweep(lat, secant, 200))
        assert loop_calls[0] <= secant_calls[0], (n, loop_calls, secant_calls)
        _assert_same_reports(lat, got, want)


def _first_bad_anchor_reference(rows, j):
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise VolterraError(f"non-finite value at anchor {int(np.argmax(bad))}, layer {j}; "
                            f"check instance parameters")


@settings(max_examples=200, deadline=None)
@given(nodes=st.integers(1, 12), j=st.integers(0, 11), seed=st.integers(0, 2**32 - 1),
       spots=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11), _EDGES),
                      max_size=4))
def test_check_finite_names_the_first_bad_anchor(nodes, j, seed, spots):
    # a full layer: anchors 0..j, whose last row is anchor j
    rows = np.random.default_rng(seed).normal(size=(j + 1, nodes)) * 1e300
    for i, k, bad in spots:
        rows[i % (j + 1), k % nodes] = bad
    try:
        _first_bad_anchor_reference(rows, j)
    except VolterraError as exc:
        with pytest.raises(VolterraError) as got:
            check_finite(rows, j)
        assert str(got.value) == str(exc)
    else:
        assert not spots
        check_finite(rows, j)


@settings(max_examples=300, deadline=None)
@given(got=st.lists(st.integers(0, 3), max_size=4), shape=st.lists(st.integers(0, 3),
                                                                   max_size=4))
def test_broadcast_test_agrees_with_numpy(got, shape):
    got, shape = tuple(got), tuple(shape)
    try:
        broadcasts = np.broadcast_shapes(got, shape) == shape
    except ValueError:
        broadcasts = False
    defect = broadcast_defect(got, shape)
    assert (defect is None) == broadcasts
    assert defect in (None, f"result shape {got}")


@pytest.mark.parametrize("name", ["hyperbolic_discount", "custom_affine", "linear_z"])
def test_lattice_y0_converges_at_first_order(name):
    # halving dt halves the change in y0: successive differences of y0 at
    # N = 50, 100, 200, 400 shrink by a factor 2 +- 0.2
    spec = catalog_instance(name)
    y0 = []
    for n in (50, 100, 200, 400):
        lat = spec.lattice(n)
        y0.append(float(stream_solve(lat, sweep(lat, spec, 200))[0][0][0]))
    diffs = np.diff(y0)
    ratios = diffs[:-1] / diffs[1:]
    assert np.all(np.abs(ratios - 2.0) <= 0.2), (name, y0, ratios)


def _sweep_outcome(lat, spec, max_iters):
    """(layers, None) of the whole sweep, or (None, (error type, text))."""
    try:
        return list(sweep(lat, spec, max_iters, z=True)), None
    except (VolterraError, NoConvergence) as exc:
        return None, (type(exc), str(exc))


def _bits(values):
    return [float(v).hex() for v in values]


def _assert_same_reports(lat, got, want):
    """Both streamed reports of the layer lists got and want are equal, bit for bit."""
    rep, mass = stream_report(lat, got)
    ref, ref_mass = stream_report(lat, want)
    for field in ("anchor_times", "e_y", "j_own", "j_restarted", "gap"):
        assert _bits(getattr(rep, field)) == _bits(getattr(ref, field)), field
    assert rep.frontiers_identical == ref.frontiers_identical
    assert mass.tobytes() == ref_mass.tobytes()
    (y, update, rows), (y_ref, update_ref, rows_ref) = \
        stream_solve(lat, got), stream_solve(lat, want)
    assert [a.tobytes() for a in y] == [a.tobytes() for a in y_ref]
    assert update.hex() == update_ref.hex()
    assert rows.shape == rows_ref.shape and rows.tobytes() == rows_ref.tobytes()


def _drawn_instance(draw, anchored=False):
    """An instance drawn from affine and Lipschitz drivers, terminals and
    obstacles; its per-node equation contracts, runs near a slope of one
    (last-bit cycles), or does not settle within budget.  Anchor-free, or
    with anchored a driver term in s - t and a terminal that reads t."""
    n = draw(st.integers(1, 10), label="N")
    horizon = draw(st.sampled_from([0.5, 1.0, 2.0]), label="horizon")
    dt = horizon / n
    regime = draw(st.sampled_from(["contract", "near_one", "expand"]), label="regime")
    slope_dt = draw({"contract": st.floats(-1.0, 0.8), "near_one": st.floats(0.85, 0.97),
                     "expand": st.floats(1.05, 2.0)}[regime], label="y slope x dt")
    a = slope_dt / dt
    b, c, d = (draw(st.floats(-1.0, 1.0), label=k) for k in ("z", "x", "const"))
    reads_z = b != 0.0 and draw(st.booleans(), label="reads z")
    if draw(st.booleans(), label="affine"):
        def fn(t, s, x, y, z):
            return a * y + (b * z if reads_z else 0.0) + c * x + d
    else:
        def fn(t, s, x, y, z):
            return (a * np.maximum(y, 0.5 * y) + (b * np.abs(z) if reads_z else 0.0)
                    + c * np.sin(x) + d * s)
    if anchored:
        e, free_fn = draw(st.floats(-1.0, 1.0), label="driver anchor"), fn

        def fn(t, s, x, y, z):
            return free_fn(t, s, x, y, z) + e * (s - t)
    driver = DriverSpec(name="drawn", fn=fn, lipschitz=abs(a) + abs(b),
                        depends_on_z=reads_z, depends_on_anchor=anchored)
    k0, k1 = draw(st.floats(-1.0, 1.0), label="terminal"), draw(st.floats(-2.0, 2.0))
    m = draw(st.floats(-1.0, 1.0), label="terminal anchor") if anchored else 0.0
    terminal = TerminalSpec(name="drawn", fn=lambda t, x: k0 + k1 * np.abs(x - 0.5) + m * t,
                            depends_on_anchor=anchored)
    g0, g1, g2 = (draw(st.floats(-1.0, 1.0), label="obstacle") for _ in range(3))
    obstacle = ObstacleSpec(name="drawn", fn=lambda u, x: g0 + g1 * x + g2 * u)
    dynamics = draw(st.sampled_from([brownian_dynamics(0.0, 1.0),
                                     geometric_dynamics(1.0, 0.3)]), label="dynamics")
    spec = InstanceSpec(label="drawn", driver=driver, terminal=terminal, obstacle=obstacle,
                        dynamics=dynamics, x0=float(dynamics(0.0, 0.0)), horizon=horizon)
    max_iters = draw(st.sampled_from([2, 40, 1000]), label="max_iters")
    return spec, n, max_iters


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_anchor_free_sweep_equals_the_anchor_coupled_sweep(data):
    # every shared-row layer, laid out per anchor, and the two streamed
    # reports equal the full sweep's of the same instance declared
    # anchor-coupled, bit for bit; a sweep that fails fails with the
    # same error text
    spec, n, max_iters = _drawn_instance(data.draw)
    coupled = _anchor_coupled(spec)
    lat = spec.lattice(n)
    with np.errstate(all="ignore"):
        got, got_err = _sweep_outcome(lat, spec, max_iters)
        want, want_err = _sweep_outcome(lat, coupled, max_iters)
    assert got_err == want_err
    if got is None:
        return
    assert len(got[0].rows) == min(2, n + 1)
    _assert_same_layers(got, want)
    _assert_same_reports(lat, got, want)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_anchor_coupled_sweep_equals_the_policy_envelope_and_picard(data):
    # drawn anchor-coupled drivers and terminals: every anchor's row is the
    # stop-or-continue value under the swept diagonal, bitwise off the
    # diagonal.  On it the envelope is one more iterate of the per-node
    # equation, which after a last-bit cycle the settle rule's
    # SETTLE_RTOL (1 + max |v|) does not bound: 6000 draws reached 0.95 of
    # it, so twice that is allowed.  Where the drawn y- and z-slopes over
    # the horizon are small, the Picard reference converges and its
    # diagonal lies within 2 tol of the sweep
    spec, n, max_iters = _drawn_instance(data.draw, anchored=True)
    lat = spec.lattice(n)
    with np.errstate(all="ignore"):
        try:
            sol = solve(lat, spec, PicardConfig(max_iters))
        except (VolterraError, NoConvergence):
            return
    for i in range(n + 1):
        v = sol.y_diag[i]
        env = snell_by_policy_envelope(lat, spec, i, sol.y_diag)
        assert np.array_equal(sol.ytilde[i][i], v)
        assert np.all(np.abs(env[0] - v) <= 2 * SETTLE_RTOL * (1.0 + np.max(np.abs(v)))), i
        for j in range(i + 1, n + 1):
            assert np.array_equal(env[j - i], sol.ytilde[j][i]), (i, j)
    if spec.driver.lipschitz * spec.horizon > 0.5:
        return
    tol = 1e-11
    g = solve_global(lat, spec, PicardConfig(max_iters=200), tolerance=tol)
    gap = max(float(np.max(np.abs(a - b))) for a, b in zip(g.y_diag, sol.y_diag))
    assert gap <= 2 * tol, gap


def _spied_sweep(monkeypatch, lat, spec, max_iters):
    """The sweep's layers, and the layers j on which step_layer called step_rows."""
    stepped = []

    def spy(spec, t, s, x, v, e, z, barrier, dt, j):
        stepped.append(j)
        return step_rows(spec, t, s, x, v, e, z, barrier, dt, j)
    monkeypatch.setattr(volterra, "step_rows", spy)
    return list(sweep(lat, spec, max_iters, z=True)), stepped


def test_shared_row_layer_keeps_a_last_bit_cycles_v_apart(monkeypatch):
    # at a y-slope of 0.9 / dt the per-node equation ends on a last-bit
    # cycle on every layer, so every layer steps its rows explicitly, and
    # the explicit step from the settled v lands a last bit away from it:
    # the shared row and v differ, and both are the anchor-coupled sweep's
    # rows
    base = catalog_instance("zero_driver_flat")
    n = 8
    a = 0.9 * n
    spec = replace(base, driver=DriverSpec(
        name="near_one", fn=lambda t, s, x, y, z: a * y + 0.3 * x + 1.0, lipschitz=a,
        depends_on_z=False, depends_on_anchor=False))
    lat = spec.lattice(n)
    got, stepped = _spied_sweep(monkeypatch, lat, spec, 1000)
    assert all(layer.update > 0.0 for layer in got[1:])
    assert stepped == list(range(n - 1, -1, -1))
    assert all(layer.rows[0].tobytes() != layer.v.tobytes() for layer in got[1:-1])
    _assert_same_layers(got, list(sweep(lat, _anchor_coupled(spec), 1000, z=True)))


def test_shared_row_layer_of_an_exact_settle_takes_no_explicit_step(monkeypatch):
    # american_put's per-node equation settles exactly on its shared-row
    # layers: they are [v, v] with the settle's last running terms, and
    # step_rows from the same inputs gives those rows and terms bit for bit
    spec = catalog_instance("american_put")
    n = 40
    lat = spec.lattice(n)
    got, stepped = _spied_sweep(monkeypatch, lat, spec, 200)
    exact = [layer.j for layer in got[1:-1] if layer.update == 0.0]
    assert len(exact) == n - 1 and not set(exact) & set(stepped)
    anchor_t = lat.grid.times[:, None]
    for above, layer in zip(got, got[1:-1]):
        j, nxt = layer.j, above.rows[:-1]
        e = 0.5 * (nxt[:, 1:] + nxt[:, :-1])
        rows, fdt = step_rows(spec, anchor_t[:1], j * lat.grid.dt, lat.x[j], layer.v, e,
                              layer.z, layer.barrier, lat.grid.dt, j)
        assert layer.rows.shape == (2, j + 1)
        assert layer.rows.tobytes() == np.concatenate((rows, layer.v[None])).tobytes()
        assert np.broadcast_to(layer.fdt, (1, j + 1)).tobytes() == \
            np.broadcast_to(fdt, (1, j + 1)).tobytes(), j


def _nan_terminal(t, x):
    return np.where(np.asarray(x) > 0.5, np.nan, x)


@pytest.mark.parametrize("fault, text", [
    ("terminal", "non-finite value at anchor 0, layer 10"),
    ("obstacle", "non-finite value at anchor 5, layer 5"),
    ("driver", "non-finite value at anchor 9, layer 9"),
    ("no_convergence", "anchor 9, layer 9: fixed point did not settle within 50 iterations"),
])
def test_anchor_free_failures_name_the_full_sweeps_anchor_and_layer(fault, text):
    # a NaN put into an anchor-free instance, or an equation that does not
    # settle, names the anchor and layer the full sweep of the same
    # instance declared anchor-coupled names
    spec = catalog_instance("zero_driver_flat")
    if fault == "terminal":
        spec = replace(spec, terminal=replace(spec.terminal, fn=_nan_terminal))
    elif fault == "obstacle":
        spec = replace(spec, obstacle=ObstacleSpec(name="wall", fn=lambda u, x: np.where(
            (abs(u - 0.5) < 1e-9) & (np.asarray(x) > 0), np.nan, -1.0)))
    else:
        slope = 20.0 * 10 if fault == "no_convergence" else 0.0
        spec = replace(spec, driver=replace(spec.driver, fn=lambda t, s, x, y, z: np.where(
            (np.asarray(x) > 2.5) & (fault == "driver"), np.nan, slope * y)))
    assert spec.anchor_free
    lat = spec.lattice(10)
    got = _sweep_outcome(lat, spec, 50)[1]
    want = _sweep_outcome(lat, _anchor_coupled(spec), 50)[1]
    assert got == want and text in got[1]


def test_check_finite_names_a_shared_row_layers_last_row_anchor_j():
    rows = np.zeros((2, 8))
    check_finite(rows, 7)
    rows[1, 3] = np.nan
    with pytest.raises(VolterraError, match="anchor 7, layer 7"):
        check_finite(rows, 7)
    rows[0, 5] = np.inf
    with pytest.raises(VolterraError, match="anchor 0, layer 7"):
        check_finite(rows, 7)
    with pytest.raises(VolterraError, match="anchor 0, layer 0"):
        check_finite(np.full((1, 1), np.nan), 0)
