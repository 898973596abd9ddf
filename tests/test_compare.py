"""Ordered pairs, solved-value comparison, monotone scheme."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rbsvie.compare import (
    MAX_SHIFT,
    ORDER_TOLERANCE,
    RANGE_PAD,
    CompareError,
    ComparisonReport,
    OrderedPair,
    _pad,
    check_comparison,
    random_ordered_pairs,
)
from rbsvie.instances import (
    catalog_instance,
    shift_driver,
    shift_obstacle,
    shift_terminal,
)
from rbsvie.snell import monotone_scheme, solve_global, theta_norm, theta_threshold
from rbsvie.volterra import solve

NAMES = ("american_put", "hyperbolic_discount", "linear_z",
         "custom_affine", "zero_driver_flat")


def test_identical_instances_trivially_ordered():
    spec = catalog_instance("american_put")
    lat = spec.lattice(20)
    pair = OrderedPair.build(spec, spec, lat)
    assert pair.witnesses == ()
    rep = check_comparison(lat, pair)
    assert rep.max_diff == 0.0
    assert rep.ordered and rep.driver_ordering_ok


@pytest.mark.parametrize("n_steps", [1, 9, 30])
@pytest.mark.parametrize("lo_name, lo_params, hi_params", [
    (name, {}, {}) for name in NAMES] + [("american_put", {"strike": 0.9}, {"strike": 1.0})])
def test_z_range_spans_the_stored_z(lo_name, lo_params, hi_params, n_steps):
    # the streamed comparison reads z from the sweep; its range must be the
    # one over both solutions' stored z, from 0, padded by RANGE_PAD
    lo = catalog_instance(lo_name, lo_params)
    hi = catalog_instance(lo_name, hi_params)
    lat = lo.lattice(n_steps)
    rep = check_comparison(lat, OrderedPair.build(lo, hi, lat))
    zs = [z for spec in (lo, hi) for z in solve(lat, spec).z]
    z_lo = min(0.0, min(float(z.min()) for z in zs))
    z_hi = max(0.0, max(float(z.max()) for z in zs))
    assert z_lo < z_hi
    assert rep.z_range == _pad((z_lo, z_hi), RANGE_PAD)


def test_strike_ordered_puts():
    lo = catalog_instance("american_put")
    hi = catalog_instance("american_put", {"strike": 1.1})
    lat = lo.lattice(40)
    pair = OrderedPair.build(lo, hi, lat)
    assert set(pair.witnesses) == {"terminal", "obstacle"}
    rep = check_comparison(lat, pair)
    assert rep.ordered
    assert rep.max_diff <= 1e-9


def test_driver_shift_family_ordered():
    # the driver decreases in y, so plain monotonicity fails; the pair is
    # admitted because the two drivers differ by a constant only
    base = catalog_instance("hyperbolic_discount")
    lat = base.lattice(40)
    pair = OrderedPair.build(base, shift_driver(base, 0.1), lat)
    assert pair.witnesses == ("driver",)
    rep = check_comparison(lat, pair)
    assert rep.ordered


def test_z_only_driver_needs_no_hypothesis():
    base = catalog_instance("linear_z", {"b": 0.0})
    assert base.driver.y_sign == 0
    lat = base.lattice(30)
    pair = OrderedPair.build(base, shift_driver(base, 0.2), lat)
    rep = check_comparison(lat, pair)
    assert rep.ordered


@pytest.mark.parametrize("sign, admitted", [(0, True), (1, True), (-1, False), (None, False)])
def test_hypothesis_gate_reads_the_y_sign(sign, admitted):
    # an obstacle pair on an anchor-coupled instance whose driver reads no
    # y: the gate trusts a driver declared free of y or nondecreasing in
    # it, and asks the other declarations for a constant driver shift
    base = catalog_instance("custom_affine", {"y_coef": 0.0})
    base = replace(base, driver=replace(base.driver, y_sign=sign))
    assert not base.anchor_free
    lat = base.lattice(20)
    lo, hi = shift_obstacle(base, -0.1), base
    if not admitted:
        with pytest.raises(CompareError, match="hypothesis"):
            OrderedPair.build(lo, hi, lat)
        return
    pair = OrderedPair.build(lo, hi, lat)
    assert pair.witnesses == ("obstacle",)
    assert check_comparison(lat, pair).ordered


def test_reversed_pair_rejected_with_witness():
    lo = catalog_instance("american_put")
    hi = catalog_instance("american_put", {"strike": 1.1})
    lat = lo.lattice(10)
    with pytest.raises(CompareError, match="node"):
        OrderedPair.build(hi, lo, lat)


def test_driver_order_violation_rejected():
    base = catalog_instance("linear_z")
    lat = base.lattice(10)
    with pytest.raises(CompareError, match="driver order"):
        OrderedPair.build(shift_driver(base, 0.3), base, lat)


def test_mismatched_dynamics_rejected():
    a = catalog_instance("american_put")
    b = catalog_instance("hyperbolic_discount")
    with pytest.raises(CompareError, match="dynamics"):
        OrderedPair.build(a, b, a.lattice(5))


def test_hypothesis_gate_blocks_unrelated_decreasing_drivers():
    # two y-decreasing drivers, ordered pointwise but with a y-varying gap:
    # neither the monotonicity hypothesis nor the constant-shift family applies
    base = catalog_instance("hyperbolic_discount")
    lo = shift_driver(base, -1.0)

    def steeper(t, s, x, y, z):
        return -0.8 / (1.0 + 1.0 * (s - t)) * y

    hi = replace(base, driver=replace(
        base.driver, fn=steeper, lipschitz=0.8, name="steeper"))
    with pytest.raises(CompareError, match="hypothesis"):
        OrderedPair.build(lo, hi, base.lattice(16))


def test_hypothesis_gate_reads_the_anchor_free_declaration():
    # a strike pair moves terminal and obstacle of a y-decreasing driver:
    # the gate admits it only for instances declared anchor-free, which
    # verify_assumptions checks, and no longer probes the data for it
    declared = (catalog_instance("american_put", {"strike": 0.9}),
                catalog_instance("american_put"))
    assert all(spec.anchor_free for spec in declared)
    lat = declared[0].lattice(12)
    pair = OrderedPair.build(*declared, lat)
    assert pair.witnesses == ("obstacle", "terminal")
    undeclared = [replace(spec, driver=replace(spec.driver, depends_on_anchor=True),
                          terminal=replace(spec.terminal, depends_on_anchor=True))
                  for spec in declared]
    for lo, hi in (undeclared, (declared[0], undeclared[1]), (undeclared[0], declared[1])):
        with pytest.raises(CompareError, match="hypothesis"):
            OrderedPair.build(lo, hi, lat)


def test_obstacle_shift_alone_can_reverse_order():
    # the monotonicity hypothesis is not decorative: with a y-decreasing
    # driver, lowering only the obstacle lowers the diagonal, raises the
    # driver term at other anchors, and pushes the lo solution above hi;
    # the pair is built past the gate, which rejects it
    base = catalog_instance("hyperbolic_discount")
    lat = base.lattice(20)
    pair = OrderedPair(lo=shift_obstacle(base, -0.3), hi=base, witnesses=("obstacle",))
    rep = check_comparison(lat, pair)
    assert not rep.ordered
    assert rep.max_diff > 1e-6
    assert rep.witness is not None
    assert rep.driver_ordering_ok  # the data are ordered; the solutions are not


def test_hypothesis_gate_blocks_obstacle_only_pair_on_anchor_coupled_driver():
    # the pair the reversal test builds past the gate; the anchor-free
    # strike pairs of test_strike_ordered_puts still pass it
    base = catalog_instance("hyperbolic_discount")
    with pytest.raises(CompareError, match="hypothesis"):
        OrderedPair.build(shift_obstacle(base, -0.3), base, base.lattice(20))


def _nan_datum(base, datum):
    """base with one datum NaN at every node, the datum's other fields kept."""
    nan = lambda *args: np.full(np.shape(args[-1]), np.nan)
    return replace(base, **{datum: replace(getattr(base, datum), fn=nan, name="nan")})


@pytest.mark.parametrize("side,datum", [("hi", "terminal"), ("lo", "obstacle"),
                                        ("hi", "driver")])
def test_non_finite_data_gap_rejected(side, datum):
    # a NaN gap compares false against every tolerance, so it used to pass
    # as ordered data: no witness, or a driver gap of (inf, -inf)
    base = catalog_instance("american_put")
    lat = base.lattice(8)
    lo, hi = base, base
    if side == "hi":
        hi = _nan_datum(base, datum)
    else:
        lo = _nan_datum(base, datum)
    with pytest.raises(CompareError, match=f"non-finite {datum}"):
        OrderedPair.build(lo, hi, lat)


def test_non_finite_driver_gap_on_solved_range_fails_driver_check():
    # hi's driver is lo's on the solved values and NaN from the padded top
    # of the y range up, so the sweeps agree and only the recheck sees it
    base = catalog_instance("american_put")
    lat = base.lattice(8)
    top = check_comparison(lat, OrderedPair(base, base, ())).y_range[1]

    def nan_above(t, s, x, y, z):
        return np.where(np.asarray(y) >= top, np.nan, base.driver(t, s, x, y, z))

    hi = replace(base, driver=replace(base.driver, fn=nan_above, name="nan above"))
    rep = check_comparison(lat, OrderedPair(base, hi, ()))
    assert rep.max_diff == 0.0
    assert not rep.driver_ordering_ok


def test_randomized_pairs_all_ordered():
    lat_by = {n: catalog_instance(n).lattice(20) for n in NAMES}
    for name, pair in random_ordered_pairs(NAMES, lat_by, 25, seed=11):
        rep = check_comparison(lat_by[name], pair)
        assert rep.max_diff <= 1e-9, (name, pair.witnesses, rep.max_diff)


# catalog parameters that leave the shared dynamics alone; zero_driver_flat
# has none, so its pairs differ by the driver shift only
PAIR_PARAMS = {
    "american_put": {"strike": (0.9, 1.0, 1.1)},
    "hyperbolic_discount": {"rho0": (0.0, 0.5), "kappa": (0.0, 1.0),
                            "terminal_scale": (0.9, 1.0, 1.1),
                            "obstacle_gap": (0.05, 0.1, 0.2)},
    "linear_z": {"a": (0.0, 0.25), "b": (-0.25, 0.0, 0.25), "obstacle_gap": (0.3, 0.5)},
    "custom_affine": {"const": (0.0, 0.1), "y_coef": (-0.2, 0.2), "z_coef": (0.0, 0.2),
                      "t_coef": (0.0, 0.3), "obstacle_gap": (0.35, 0.4)},
    "zero_driver_flat": {},
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_accepted_pair_solves_ordered(data):
    # the comparison theorem on the lattice: whatever pair the gate admits,
    # the lo sweep stays below the hi sweep at every node, and
    # check_comparison reports that order with the solved largest difference
    name = data.draw(st.sampled_from(NAMES), label="instance")
    lo_params, hi_params = {}, {}
    for key, values in PAIR_PARAMS[name].items():
        lo_params[key] = data.draw(st.sampled_from(values), label=f"lo {key}")
        # equal to lo's at least half the time, so pairs moving one datum come up often
        hi_params[key] = data.draw(st.sampled_from((lo_params[key],) + values), label=f"hi {key}")
    shift = data.draw(st.sampled_from((0.0, 0.1)), label="hi driver shift")
    n = data.draw(st.integers(1, 12), label="N")
    lo = catalog_instance(name, lo_params)
    hi = catalog_instance(name, hi_params)
    if shift:
        hi = shift_driver(hi, shift)
    lat = lo.lattice(n)
    try:
        pair = OrderedPair.build(lo, hi, lat)
    except CompareError:
        assume(False)
    diffs = [float(np.max(a - b)) for a, b in zip(solve(lat, lo).y_diag, solve(lat, hi).y_diag)]
    for i, d in enumerate(diffs):
        assert d <= 1e-12, (i, d)
    rep = check_comparison(lat, pair)
    assert rep.ordered and rep.witness is None
    assert rep.max_diff <= ORDER_TOLERANCE and rep.max_diff == max(diffs)


SHIFTS = {"terminal": shift_terminal, "obstacle": shift_obstacle, "driver": shift_driver}


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_pair_raised_on_the_lo_side_is_rejected_naming_the_datum(data):
    # lo is hi with one datum raised by c > 0 everywhere: the gate must
    # refuse the pair, and say which datum breaks the order
    name = data.draw(st.sampled_from(NAMES), label="instance")
    params = {key: data.draw(st.sampled_from(values), label=key)
              for key, values in PAIR_PARAMS[name].items()}
    datum = data.draw(st.sampled_from(sorted(SHIFTS)), label="datum")
    c = data.draw(st.floats(1e-9, MAX_SHIFT, exclude_min=True, exclude_max=True), label="c")
    n = data.draw(st.integers(1, 12), label="N")
    hi = catalog_instance(name, params)
    lo = SHIFTS[datum](hi, c)
    with pytest.raises(CompareError, match=f"^{datum} order violated"):
        OrderedPair.build(lo, hi, hi.lattice(n))


def test_obstacle_downshift_keeps_lo_below():
    base = catalog_instance("custom_affine")
    lat = base.lattice(30)
    pair = OrderedPair.build(shift_obstacle(base, -0.25), base, lat)
    assert pair.witnesses == ("obstacle",)
    rep = check_comparison(lat, pair)
    assert rep.ordered


def test_terminal_upshift_raises_hi():
    base = catalog_instance("linear_z")
    lat = base.lattice(30)
    pair = OrderedPair.build(base, shift_terminal(base, 0.3), lat)
    rep = check_comparison(lat, pair)
    assert rep.ordered
    # the raised terminal must strictly raise the solution somewhere
    a = solve_global(lat, base, tolerance=1e-11)
    b = solve_global(lat, shift_terminal(base, 0.3), tolerance=1e-11)
    assert max(float(np.max(b.y_diag[i] - a.y_diag[i])) for i in range(31)) > 0.1


def test_monotone_scheme_decreases_and_contracts():
    spec = catalog_instance("linear_z")
    lat = spec.lattice(40)
    rep = monotone_scheme(lat, spec, 8)
    assert rep.monotone_ok
    assert rep.max_monotonicity_violation <= 1e-9
    assert len(rep.increments) == 7
    assert all(r < 1.0 for r in rep.increment_ratios)
    assert rep.theta == theta_threshold(spec.driver.lipschitz, spec.horizon)
    # iterates decrease nodewise from the dominated start
    for ya, yb in zip(rep.diagonals, rep.diagonals[1:]):
        for i in range(41):
            assert float(np.max(yb[i] - ya[i])) <= 1e-9


def test_monotone_scheme_y_free_driver_freezes_after_one_step():
    spec = catalog_instance("zero_driver_flat")
    rep = monotone_scheme(spec.lattice(20), spec, 4)
    assert rep.increments[0] > 0.0
    assert rep.increments[1] == 0.0 and rep.increments[2] == 0.0


def test_monotone_scheme_degenerate_length():
    spec = catalog_instance("zero_driver_flat")
    rep = monotone_scheme(spec.lattice(10), spec, 1)
    assert rep.increments == []
    assert len(rep.diagonals) == 1


def test_monotone_scheme_preconditions():
    put = catalog_instance("american_put")
    with pytest.raises(CompareError, match="nondecreasing"):
        monotone_scheme(put.lattice(10), put, 3)
    spec = catalog_instance("linear_z")
    with pytest.raises(CompareError, match="n_max"):
        monotone_scheme(spec.lattice(10), spec, 0)


def test_theta_norm_zero_for_identical_fields():
    spec = catalog_instance("linear_z")
    lat = spec.lattice(10)
    d = [np.zeros(i + 1) for i in range(11)]
    dz = [np.zeros((j + 1, j + 1)) for j in range(10)]
    assert theta_norm(lat, d, dz, dz, theta=1.5) == 0.0


def test_theta_norm_weights_grow_with_time():
    # a unit perturbation at a late anchor outweighs an early one
    spec = catalog_instance("linear_z")
    lat = spec.lattice(10)
    early = [np.ones(i + 1) if i == 1 else np.zeros(i + 1) for i in range(11)]
    late = [np.ones(i + 1) if i == 9 else np.zeros(i + 1) for i in range(11)]
    th = 2.0
    assert theta_norm(lat, late, [], [], th) > theta_norm(lat, early, [], [], th)
