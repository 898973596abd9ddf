"""Stopping rules, payoff evaluation, and consistency reports."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from rbsvie.instances import (
    CATALOG_NAMES,
    DriverSpec,
    InstanceSpec,
    ObstacleSpec,
    TerminalSpec,
    brownian_dynamics,
    catalog_instance,
)
from rbsvie.oracle import StoppingRule, enumerate_rules, payoff_of_rule
from rbsvie.stopping import (
    ConsistencyReport,
    StoppingError,
    _frontier_part,
    _replay,
    _rule_step,
    _stops,
    evaluate_J,
    extract_frontier,
    frontier_rows,
    inconsistency_report,
    premature_increment_mass,
    stream_report,
    stream_solve,
)
from rbsvie.snell import diagonal_frontier, solve_global
from rbsvie.volterra import Layer, PicardConfig, increments, per_anchor, solve, sweep


def _solved(name, N, tol=1e-12, overrides=None):
    spec = catalog_instance(name, overrides)
    lat = spec.lattice(N)
    sol = solve_global(lat, spec, PicardConfig(max_iters=200), tolerance=tol)
    return spec, lat, sol


def _flat_pinned_instance():
    # barrier and terminal both constant 10: the envelope is pinned
    # everywhere, so every anchor stops immediately
    ten = lambda u, x: np.full_like(np.asarray(x, dtype=float), 10.0)
    driver = DriverSpec(name="zero", fn=lambda t, s, x, y, z: np.zeros_like(np.asarray(y, dtype=float)),
                        lipschitz=0.0, y_sign=0, depends_on_z=False)
    return InstanceSpec(label="pinned", driver=driver,
                        terminal=TerminalSpec(name="ten", fn=ten),
                        obstacle=ObstacleSpec(name="ten", fn=ten),
                        dynamics=brownian_dynamics(0.0, 1.0), x0=0.0, horizon=1.0)


def test_unreachable_floor_stops_only_at_horizon():
    spec, lat, sol = _solved("zero_driver_flat", 12)
    fr = extract_frontier(sol, lat, spec)
    for i in range(13):
        for j in range(i, 12):
            assert not any(fr.stops(i, j, k) for k in range(j + 1))
        assert all(fr.stops(i, 12, k) for k in range(13))
    rows = frontier_rows(lat, spec, sol)
    assert len(rows) == 13  # one terminal row per anchor, nothing else
    assert all(row[1] == lat.grid.t(12) for row in rows)


def test_pinned_instance_stops_immediately():
    spec = _flat_pinned_instance()
    lat = spec.lattice(8)
    sol = solve_global(lat, spec)
    fr = extract_frontier(sol, lat, spec)
    for i in range(9):
        assert all(fr.stops(i, i, k) for k in range(i + 1))
        assert abs(evaluate_J(lat, spec, sol, i, fr.rule(i)) - 10.0) < 1e-12


def test_put_anchors_share_one_frontier():
    spec, lat, sol = _solved("american_put", 30)
    fr = extract_frontier(sol, lat, spec)
    assert all((f == f[0]).all() for f in fr.layers)
    # the genuine exercise region (obstacle strictly positive) is a
    # down-closed state interval; out-of-the-money nodes can tie at 0 = 0
    # and are flagged too, but they carry no intrinsic value
    for j in range(5, 30):
        barrier = spec.obstacle(lat.grid.t(j), lat.x[j])
        flags = [fr.stops(0, j, k) and barrier[k] > 0 for k in range(j + 1)]
        if any(flags):
            last = max(k for k, f in enumerate(flags) if f)
            assert all(flags[: last + 1])


def test_optimality_identity_at_scale():
    for name in ("american_put", "hyperbolic_discount"):
        spec, lat, sol = _solved(name, 50)
        rep = inconsistency_report(lat, spec, sol)
        assert rep.max_identity_error <= 1e-9, name


def test_every_enumerated_rule_dominated():
    spec, lat, sol = _solved("hyperbolic_discount", 3, tol=1e-13)
    fr = extract_frontier(sol, lat, spec)
    for i in (0, 1, 2):
        j_star = evaluate_J(lat, spec, sol, i, fr.rule(i))
        for rule in enumerate_rules(lat, i):
            assert evaluate_J(lat, spec, sol, i, rule) <= j_star + 1e-10


def test_evaluator_agrees_with_path_enumeration():
    spec, lat, sol = _solved("custom_affine", 4, tol=1e-13)
    i = 1
    zrow = [sol.z[j][i] for j in range(i, 4)]
    for n, rule in enumerate(enumerate_rules(lat, i)):
        if n % 37:  # thin out, the full cross-check is slow in pure python
            continue
        by_paths = sum(
            lat.probs[i][k] * payoff_of_rule(lat, spec, i, k, rule, sol.y_diag, zrow)
            for k in range(i + 1))
        assert abs(by_paths - evaluate_J(lat, spec, sol, i, rule)) < 1e-12


def test_time_inconsistency_of_anchor0_rule():
    spec, lat, sol = _solved("hyperbolic_discount", 50)
    rep = inconsistency_report(lat, spec, sol)
    assert max(rep.gap[1:-1]) > 0.0
    assert not rep.frontiers_identical
    assert min(rep.gap) >= -1e-10
    assert rep.inconsistent()


def test_time_consistent_instance_has_no_gap():
    spec, lat, sol = _solved("american_put", 50)
    rep = inconsistency_report(lat, spec, sol)
    assert rep.max_gap <= 1e-9
    assert rep.frontiers_identical
    assert not rep.inconsistent()


def test_gaps_nonnegative_all_instances():
    for name in ("american_put", "hyperbolic_discount", "linear_z",
                 "custom_affine", "zero_driver_flat"):
        spec, lat, sol = _solved(name, 20)
        rep = inconsistency_report(lat, spec, sol)
        assert min(rep.gap) >= -1e-10, name


def test_single_step_lattice_has_zero_gaps():
    spec, lat, sol = _solved("hyperbolic_discount", 1)
    rep = inconsistency_report(lat, spec, sol)
    assert rep.max_gap == 0.0


def test_no_reflection_before_stopping_nodewise():
    for name in ("american_put", "hyperbolic_discount", "linear_z"):
        spec, lat, sol = _solved(name, 30)
        mass = premature_increment_mass(lat, spec, sol)
        for i in range(0, 31, 5):
            assert mass[i] == 0.0, (name, i)


def test_planted_off_stop_increment_is_reported():
    # an increment off anchor i's stop set on a layer j > i, a row the
    # streamed report never rebuilds, must reach the stored-field mass
    spec, lat, sol = _solved("american_put", 12)
    fr = extract_frontier(sol, lat, spec)
    i, j = 2, 7
    k = int(np.argmin(fr.layers[j][i]))
    assert not fr.stops(i, j, k)
    assert premature_increment_mass(lat, spec, sol)[i] == 0.0
    sol.kinc[j] = sol.kinc[j].copy()
    sol.kinc[j][i, k] = -0.25
    mass = premature_increment_mass(lat, spec, sol)
    assert mass[i] == 0.25
    assert not np.any(np.delete(mass, i)), mass


def test_no_reflection_before_stopping_pathwise():
    spec, lat, sol = _solved("american_put", 8)
    fr = extract_frontier(sol, lat, spec)
    for bits in range(2**8):
        node = 0
        acc = 0.0
        for j in range(8):
            if fr.stops(0, j, node):
                break
            acc += float(sol.kinc[j][0][node])
            if (bits >> j) & 1:
                node += 1
        assert acc == 0.0


def test_diagonal_rule_differs_when_anchors_disagree():
    spec, lat, sol = _solved("hyperbolic_discount", 30)
    env = extract_frontier(sol, lat, spec)
    dia = diagonal_frontier(sol, lat, spec)
    assert not all(map(np.array_equal, env.layers, dia.layers))
    spec, lat, sol = _solved("american_put", 30)
    assert all(map(np.array_equal, extract_frontier(sol, lat, spec).layers,
                   diagonal_frontier(sol, lat, spec).layers))


def test_stop_at_horizon_rule_pays_expected_terminal():
    spec, lat, sol = _solved("zero_driver_flat", 10)
    fr = extract_frontier(sol, lat, spec)
    for i in (0, 4):
        j = evaluate_J(lat, spec, sol, i, fr.rule(i))
        expect = float(lat.layer_expect(10, spec.terminal(lat.grid.t(i), lat.x[10])))
        assert abs(j - expect) < 1e-13
        assert abs(lat.layer_expect(i, sol.y_diag[i]) - j) < 1e-13


def test_rule_start_mismatch_rejected():
    spec, lat, sol = _solved("american_put", 5)
    fr = extract_frontier(sol, lat, spec)
    with pytest.raises(StoppingError):
        evaluate_J(lat, spec, sol, 2, fr.rule(3))


def test_rule_value_needs_stored_fields():
    spec = catalog_instance("linear_z")
    lat = spec.lattice(20)
    full = solve(lat, spec, PicardConfig())
    rule = extract_frontier(full, lat, spec).rule(0)
    assert abs(evaluate_J(lat, spec, full, 0, rule) - lat.layer_expect(0, full.y_diag[0])) < 1e-12


# Per-anchor reference for the stopping layer: anchor-major flag tuples,
# one backward induction per (anchor, rule), per-node loops for the mass
# and the frontier rows.

def _reference_flags(sol, lat, spec, atol=1e-9):
    """flags[i][j - i][k]: node (j, k) stops anchor i."""
    N = lat.n_steps
    flags = []
    for i in range(N + 1):
        rows = []
        for j in range(i, N):
            vals = np.asarray(sol.ytilde[j][i], dtype=float)
            barrier = np.asarray(spec.obstacle(lat.grid.t(j), lat.x[j]), dtype=float)
            rows.append(tuple(bool(b) for b in (vals - barrier) <= atol))
        rows.append(tuple(True for _ in range(N + 1)))
        flags.append(tuple(rows))
    return tuple(flags)


def _reference_J(lat, spec, sol, i, rule_flags):
    """Rule value from anchor i; rule_flags[j - i][k] for layers j = i..N."""
    N = lat.n_steps
    grid = lat.grid
    t_i = grid.t(i)
    vals = np.asarray(spec.terminal(t_i, lat.x[N]), dtype=float)
    for j in range(N - 1, i - 1, -1):
        cont = 0.5 * (vals[1:] + vals[:-1])
        x_j = lat.x[j]
        f_j = np.asarray(spec.driver(t_i, grid.t(j), x_j, sol.y_diag[j], sol.z[j][i]),
                         dtype=float)
        barrier = np.asarray(spec.obstacle(grid.t(j), x_j), dtype=float)
        stop_mask = np.array([rule_flags[j - i][k] for k in range(j + 1)])
        vals = np.where(stop_mask, barrier, cont + f_j * grid.dt)
    return float(lat.layer_expect(i, vals))


def _reference_mass(sol, flags, i):
    worst = 0.0
    for j in range(i, len(flags) - 1):
        kj = sol.kinc[j][i]
        for k in range(j + 1):
            if not flags[i][j - i][k]:
                worst = max(worst, abs(float(kj[k])))
    return worst


def _reference_rows(flags, lat):
    rows = []
    for i in range(len(flags)):
        for j in range(i, len(flags)):
            states = [float(lat.x[j][k]) for k in range(j + 1) if flags[i][j - i][k]]
            if states:
                rows.append((lat.grid.t(i), lat.grid.t(j), min(states), max(states)))
    return rows


def _bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("n_steps", [12, 50])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_stopping_layer_matches_per_anchor_reference(name, n_steps):
    spec = catalog_instance(name)
    lat = spec.lattice(n_steps)
    sol = solve(lat, spec, PicardConfig())
    N = n_steps
    flags = _reference_flags(sol, lat, spec)
    rep = inconsistency_report(lat, spec, sol)
    fr = extract_frontier(sol, lat, spec)

    for j, layer in enumerate(fr.layers):
        assert layer.dtype == bool and layer.shape == (j + 1, j + 1)
        for i in range(j + 1):
            assert tuple(layer[i].tolist()) == flags[i][j - i], (name, i, j)

    j_own = [_reference_J(lat, spec, sol, i, flags[i]) for i in range(N + 1)]
    j_rest = [_reference_J(lat, spec, sol, i, flags[0][i:]) for i in range(N + 1)]
    assert _bits(rep.j_own) == _bits(j_own)
    assert _bits(rep.j_restarted) == _bits(j_rest)
    assert _bits(rep.gap) == _bits(a - b for a, b in zip(j_own, j_rest))
    assert _bits(rep.e_y) == _bits(lat.layer_expect(i, sol.y_diag[i]) for i in range(N + 1))
    assert rep.frontiers_identical == all(flags[0][i:] == flags[i] for i in range(1, N + 1))
    assert _bits(evaluate_J(lat, spec, sol, i, fr.rule(i)) for i in range(N + 1)) == \
        _bits(j_own)
    restarted = (StoppingRule(start=i, flags=tuple(f[0] for f in fr.layers[i:]))
                 for i in range(N + 1))
    assert _bits(evaluate_J(lat, spec, sol, rule.start, rule) for rule in restarted) == \
        _bits(j_rest)

    assert _bits(premature_increment_mass(lat, spec, sol)) == \
        _bits(_reference_mass(sol, flags, i) for i in range(N + 1))
    rows = frontier_rows(lat, spec, sol)
    ref_rows = _reference_rows(flags, lat)
    assert len(rows) == len(ref_rows)
    assert [_bits(r) for r in rows] == [_bits(r) for r in ref_rows]


@pytest.mark.parametrize("n_steps", [1, 2, 5, 12, 50])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_streamed_reports_equal_the_stored_replay(name, n_steps):
    # the commands' live consumers against the same steps replayed over a
    # stored solution's fields; the replay rebuilds every live layer, laid
    # out per anchor (the live layers of an anchor-free instance hold a
    # shared row), and fdt compared with one row per anchor
    spec = catalog_instance(name)
    lat = spec.lattice(n_steps)
    sol = solve(lat, spec, PicardConfig())
    replayed = list(_replay(lat, spec, sol))
    live = [per_anchor(layer) for layer in sweep(lat, spec, 200, z=True)]
    assert [layer.j for layer in replayed] == [layer.j for layer in live]
    for a, b in zip(replayed, live):
        for field in ("rows", "v", "z", "fdt", "barrier"):
            x, y = getattr(a, field), getattr(b, field)
            assert (x is None) == (y is None), (field, a.j)
            if field == "fdt" and x is not None:
                x, y = (np.broadcast_to(f, (a.j + 1, a.j + 1)) for f in (x, y))
            if x is not None:
                assert x.shape == y.shape and x.tobytes() == y.tobytes(), (field, a.j)
    for b, prev in zip(live[1:], live):
        k, stored = increments(prev.rows[: b.j + 1], b.fdt, b.barrier), sol.kinc[b.j]
        assert k.shape == stored.shape and k.tobytes() == stored.tobytes(), b.j
    ref = inconsistency_report(lat, spec, sol)
    rep, mass = stream_report(lat, sweep(lat, spec, 200))
    for field in ("anchor_times", "e_y", "j_own", "j_restarted", "gap"):
        assert _bits(getattr(rep, field)) == _bits(getattr(ref, field)), field
    assert rep.frontiers_identical == ref.frontiers_identical
    assert _bits(mass) == _bits(premature_increment_mass(lat, spec, sol))

    y_diag, update, rows = stream_solve(lat, sweep(lat, spec, 200))
    assert [_bits(r) for r in rows] == [_bits(r) for r in frontier_rows(lat, spec, sol)]
    assert [a.tobytes() for a in y_diag] == [a.tobytes() for a in sol.y_diag]
    assert _bits([update]) == _bits(sol.residual_history)


_VALUES = st.floats(-1.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_streamed_mass_reads_anchor_js_own_row(data):
    # hand-built sweep layers: rows i < j are max(E + f dt, L) and anchor j's
    # row sits above L by a drawn offset, so it has increments off its stop
    # set, which no catalog instance reaches.  The report reads only that
    # row and must give the masses of the full increments, reduced here row
    # by row, and both inductions must match a plain induction on the same
    # layers
    N = data.draw(st.integers(1, 6), label="N")
    lat = catalog_instance("american_put").lattice(N)
    top = data.draw(arrays(float, (N + 1, N + 1), elements=_VALUES), label="terminal")
    if data.draw(st.booleans(), label="anchor-free terminal"):
        top[:] = top[0]
    lean = [Layer(N, top, top[N].copy())]
    own = rest = top
    j_own, j_rest = [0.0] * (N + 1), [0.0] * (N + 1)
    ref_mass = np.zeros(N + 1)
    j_own[N] = j_rest[N] = lat.probs[N] @ top[N]
    prev = top
    for j in range(N - 1, -1, -1):
        n = j + 1
        shape = data.draw(st.sampled_from([(n, n), (1, n), (n,), (n, 1), ()]), label="fdt")
        fdt = data.draw(arrays(float, shape, elements=_VALUES), label="fdt values")
        fdt = float(fdt) if shape == () else fdt
        barrier = data.draw(arrays(float, (n,), elements=_VALUES), label="L")
        rows = np.maximum(0.5 * (prev[:n, 1:] + prev[:n, :-1]) + fdt, barrier)
        rows[j] += data.draw(arrays(float, (n,), elements=st.sampled_from([0.0, 1e-12, 0.5])),
                             label="anchor j above L")
        lean.append(Layer(j, rows, rows[j], fdt=fdt, barrier=barrier))
        stops = (rows - barrier) <= 1e-9
        for i, k in enumerate(increments(prev[:n], fdt, barrier)):
            ref_mass[i] = max([ref_mass[i], *np.abs(k[~stops[i]])])
        own = np.where(stops, barrier, 0.5 * (own[:n, 1:] + own[:n, :-1]) + fdt)
        rest = np.where(stops[0], barrier, 0.5 * (rest[:n, 1:] + rest[:n, :-1]) + fdt)
        j_own[j], j_rest[j] = lat.probs[j] @ own[-1], lat.probs[j] @ rest[-1]
        prev = rows
    rep, mass = stream_report(lat, lean)
    assert mass.tobytes() == ref_mass.tobytes()
    assert _bits(rep.j_own) == _bits(j_own)
    assert _bits(rep.j_restarted) == _bits(j_rest)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_streamed_reports_read_shared_rows_as_their_per_anchor_layout(data):
    # hand-built shared-row layers: the shared row is max(E + f dt, L) of
    # the row before, and anchor j's row sits above or on L by drawn
    # offsets, so its stop row may differ from the shared one and the
    # restarted induction part from the own one.  Both reports read them
    # as they read the same layers laid out per anchor
    N = data.draw(st.integers(1, 6), label="N")
    lat = catalog_instance("american_put").lattice(N)
    top = data.draw(arrays(float, (2, N + 1), elements=_VALUES), label="terminal")
    layers = [Layer(N, top, top[-1].copy())]
    prev = top
    for j in range(N - 1, -1, -1):
        n = j + 1
        shape = data.draw(st.sampled_from([(1, n), (n,), (1, 1), ()]), label="fdt")
        fdt = data.draw(arrays(float, shape, elements=_VALUES), label="fdt values")
        fdt = float(fdt) if shape == () else fdt
        barrier = data.draw(arrays(float, (n,), elements=_VALUES), label="L")
        shared = np.maximum(0.5 * (prev[:1, 1:] + prev[:1, :-1]) + fdt, barrier)
        v = barrier + data.draw(arrays(float, (n,), elements=st.sampled_from([0.0, 1e-12, 0.5])),
                                label="v above L")
        rows = np.concatenate((shared, v[None])) if j else v[None]
        layers.append(Layer(j, rows, v, fdt=fdt, barrier=barrier))
        prev = rows
    full = [per_anchor(layer) for layer in layers]
    rep, mass = stream_report(lat, layers)
    ref, ref_mass = stream_report(lat, full)
    for field in ("e_y", "j_own", "j_restarted", "gap"):
        assert _bits(getattr(rep, field)) == _bits(getattr(ref, field)), field
    assert rep.frontiers_identical == ref.frontiers_identical
    assert mass.tobytes() == ref_mass.tobytes()
    (y, update, rows), (y_ref, update_ref, rows_ref) = \
        stream_solve(lat, layers), stream_solve(lat, full)
    assert [a.tobytes() for a in y] == [a.tobytes() for a in y_ref]
    assert rows.shape == rows_ref.shape and rows.tobytes() == rows_ref.tobytes()


def _reduced_part(j, stops, x, first=1):
    # _frontier_part's masked reductions, as it made them on every layer
    # before the sorted-state scan
    hit = np.logical_or.reduce(stops, axis=1)
    low = np.minimum.reduce(np.where(stops, x, np.inf), axis=1)
    high = np.maximum.reduce(np.where(stops, x, -np.inf), axis=1)
    if first > 1:
        reps = np.ones(len(hit), dtype=int)
        reps[0] = first
        hit, low, high = (np.repeat(a, reps) for a in (hit, low, high))
    anchors = hit.nonzero()[0]
    return anchors, np.full(len(anchors), j), low[hit], high[hit]


def _assert_same_part(part, ref):
    assert len(part) == len(ref) == 4
    for got, want in zip(part, ref):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# ties, signed zeros, infinities and NaN among the drawn states
_STATES = st.one_of(st.sampled_from([-1.0, -0.0, 0.0, 0.25, np.inf, np.nan]),
                    st.floats(-2.0, 2.0))


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_frontier_scan_equals_the_masked_reductions(data):
    # drawn states, sorted or not, and stop masks with empty rows, empty
    # layers, single rows and a shared row 0 standing for several anchors
    n = data.draw(st.integers(1, 9), label="nodes")
    x = data.draw(arrays(float, (n,), elements=_STATES), label="states")
    order = data.draw(st.sampled_from(["unsorted", "sorted", "strict"]), label="order")
    if order == "sorted":
        x = np.sort(x)
    elif order == "strict":
        # distinct states without NaN, sorted: the states the scan takes
        x = np.unique(np.where(np.isnan(x), 0.5, x))
        n = len(x)
        assert (x[:-1] < x[1:]).all()
    rows = data.draw(st.integers(1, 6), label="rows")
    stops = data.draw(arrays(bool, (rows, n)), label="stops")
    stops[data.draw(arrays(bool, (rows,)), label="empty rows")] = False
    if data.draw(st.booleans(), label="empty layer"):
        stops[:] = False
    first = data.draw(st.integers(1, 4), label="first")
    j = data.draw(st.integers(0, 50), label="layer")

    # strictly increasing states take the scan; unsorted ones, ties (0.0
    # with -0.0 among them) and NaN take the reductions
    _assert_same_part(_frontier_part(j, stops, x, first), _reduced_part(j, stops, x, first))


@pytest.mark.parametrize("n_steps", [1, 7, 50])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_frontier_scan_on_every_sweep_layer(name, n_steps):
    # every lattice layer's states increase strictly, so the sweep's layers,
    # shared-row ones included, take the scan and give the reductions' bits
    spec = catalog_instance(name)
    lat = spec.lattice(n_steps)
    for layer in sweep(lat, spec, 200):
        j, x = layer.j, lat.x[layer.j]
        assert (x[:-1] < x[1:]).all(), j
        stops = _stops(layer.rows, layer.barrier)
        first = j + 2 - len(layer.rows)
        _assert_same_part(_frontier_part(j, stops, x, first), _reduced_part(j, stops, x, first))


# finite values of every size and signed zeros: sums near the float limit
# overflow to infinity
_STEP_VALUES = st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-1e308, 1e308))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_step_operator_equals_the_inline_midpoint(data):
    # increments and the rule induction make E with grid.cond_expect, the
    # sweep's own call; here E is the midpoint written out, on a full layer
    # (one row per anchor) and a shared-row one (one shared row, whose
    # flags may hold two rows), and both agree with it bit for bit
    n = data.draw(st.integers(1, 8), label="nodes")
    shared = data.draw(st.booleans(), label="shared-row layer")
    rows = 1 if shared else n
    nxt = data.draw(arrays(float, (rows, n + 1), elements=_STEP_VALUES), label="layer j + 1")
    shape = data.draw(st.sampled_from([(rows, n), (1, n), (n,), ()]), label="fdt")
    fdt = data.draw(arrays(float, shape, elements=_STEP_VALUES), label="fdt values")
    fdt = float(fdt) if shape == () else fdt
    barrier = data.draw(arrays(float, (n,), elements=_STEP_VALUES), label="L")

    flags = data.draw(arrays(bool, (2 if shared else n, n)), label="flags")
    stop = data.draw(st.sampled_from([
        flags, flags[:1], np.broadcast_to(flags[0], flags.shape), flags[0],
        tuple(flags[0].tolist())]), label="stop")

    with np.errstate(over="ignore"):
        want = np.maximum(barrier - (0.5 * (nxt[:, 1:] + nxt[:, :-1]) + fdt), 0.0)
        got = increments(nxt, fdt, barrier)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        want = np.where(stop, barrier, 0.5 * (nxt[:, 1:] + nxt[:, :-1]) + fdt)
        got = _rule_step(nxt, stop, fdt, barrier)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
