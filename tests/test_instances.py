import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbsvie.instances import (
    CATALOG_NAMES,
    _PARAMS,
    DriverSpec,
    InstanceError,
    InstanceSpec,
    ObstacleSpec,
    TerminalSpec,
    brownian_dynamics,
    catalog_instance,
    geometric_dynamics,
    shifted,
    verify_assumptions,
)


def test_catalog_names():
    assert set(CATALOG_NAMES) == {
        "american_put",
        "hyperbolic_discount",
        "zero_driver_flat",
        "linear_z",
        "custom_affine",
    }


def test_american_put_structure():
    spec = catalog_instance("american_put", {"strike": 1.0, "sigma": 0.2, "rate": 0.05})
    # driver is pure discounting, obstacle and terminal are the put payoff
    assert spec.driver(0.0, 0.5, 1.0, 2.0, 7.0) == pytest.approx(-0.1)
    assert spec.terminal(0.3, np.array([0.8, 1.2]))[0] == pytest.approx(0.2)
    assert spec.obstacle(0.3, np.array([0.8, 1.2]))[1] == 0.0
    assert spec.driver.lipschitz == 0.05
    assert not spec.driver.depends_on_z
    # no datum reads the anchor t
    assert spec.driver(0.0, 0.5, 1.0, 2.0, 7.0) == spec.driver(0.4, 0.5, 1.0, 2.0, 7.0)
    assert np.array_equal(spec.terminal(0.0, np.array([0.8, 1.2])),
                          spec.terminal(0.7, np.array([0.8, 1.2])))


def test_american_put_dynamics_risk_neutral_drift():
    spec = catalog_instance("american_put", {"strike": 1.0, "sigma": 0.2, "rate": 0.05})
    got = float(spec.dynamics(1.0, np.array([0.5]))[0])
    assert got == pytest.approx(math.exp((0.05 - 0.02) * 1.0 + 0.2 * 0.5))


def test_hyperbolic_discount_declared_constants():
    spec = catalog_instance("hyperbolic_discount", {"rho0": 0.5, "kappa": 1.0})
    assert spec.driver.lipschitz == 0.5
    assert spec.driver.holder_const == pytest.approx(0.5)
    assert spec.driver.holder_alpha == 0.5
    # discount weight decays in s - t
    f_near = spec.driver(0.0, 0.0, 0.0, 1.0, 0.0)
    f_far = spec.driver(0.0, 1.0, 0.0, 1.0, 0.0)
    assert f_near == pytest.approx(-0.5)
    assert f_far == pytest.approx(-0.25)


def test_zero_driver_flat_is_flat():
    spec = catalog_instance("zero_driver_flat")
    assert float(spec.driver(0.1, 0.7, 0.3, 5.0, -2.0)) == 0.0
    assert float(spec.obstacle(0.5, np.array([3.0]))[0]) == -1.0e6
    assert float(spec.terminal(0.2, np.array([1.5]))[0]) == 1.5


def test_linear_z_driver():
    spec = catalog_instance("linear_z", {"a": 0.4, "b": 0.0})
    assert float(spec.driver(0, 1, 0, 3.0, 2.0)) == pytest.approx(0.8)
    assert spec.driver.lipschitz == pytest.approx(0.4)
    assert spec.driver.y_sign == 0


def test_custom_affine_t_dependence():
    spec = catalog_instance("custom_affine", {"t_coef": 0.3, "y_coef": 0.1, "z_coef": 0.0, "const": 0.0})
    assert float(spec.driver(0.2, 0.7, 1.0, 0.0, 0.0)) == pytest.approx(0.15)
    assert float(spec.driver(0.0, 0.7, 1.0, 0.0, 0.0)) == pytest.approx(0.21)


def test_unknown_instance_name():
    with pytest.raises(InstanceError):
        catalog_instance("asian_call")


def test_unknown_parameter_rejected():
    with pytest.raises(InstanceError):
        catalog_instance("american_put", {"rho0": 0.5})


def test_out_of_range_parameters_rejected():
    with pytest.raises(InstanceError):
        catalog_instance("american_put", {"sigma": -0.2})
    with pytest.raises(InstanceError):
        catalog_instance("american_put", {"strike": 0.0})
    with pytest.raises(InstanceError):
        catalog_instance("hyperbolic_discount", {"rho0": -1.0})


@pytest.mark.parametrize("name, key, positive", [
    (name, key, positive) for name, params in _PARAMS.items()
    for key, (_, positive) in params.items()])
def test_every_catalog_parameter_refuses_values_out_of_range(name, key, positive):
    rule = "finite and positive" if positive else "finite"
    for v in [math.nan, math.inf, -math.inf] + ([0.0, -1.0] if positive else []):
        message = f"^{re.escape(f'{key} must be {rule}, got {v}')}$"
        with pytest.raises(InstanceError, match=message):
            catalog_instance(name, {key: v})
        # a bad known key is reported before an unknown one
        with pytest.raises(InstanceError, match=message):
            catalog_instance(name, {"nosuch": 1.0, key: v})


def test_catalog_errors_come_known_keys_then_ranges_then_unknown_keys():
    with pytest.raises(InstanceError, match="^horizon must be finite and positive"):
        catalog_instance("american_put", {"rate": -0.1, "horizon": math.nan, "nosuch": 1})
    with pytest.raises(InstanceError, match="^rate must be >= 0$"):
        catalog_instance("american_put", {"rate": -0.1, "nosuch": 1})
    with pytest.raises(InstanceError, match="^rho0 and kappa must be >= 0$"):
        catalog_instance("hyperbolic_discount", {"kappa": -1.0, "nosuch": 1})
    with pytest.raises(InstanceError, match="^unknown parameters for 'linear_z': nosuch, zz$"):
        catalog_instance("linear_z", {"zz": 1, "nosuch": 1, "a": 0.5})


def test_holder_alpha_above_half_rejected():
    with pytest.raises(InstanceError):
        DriverSpec(name="bad", fn=lambda t, s, x, y, z: 0.0, lipschitz=0.0, holder_alpha=0.75)


def test_driver_evaluation_deterministic():
    spec = catalog_instance("hyperbolic_discount")
    args = (0.1, 0.6, 0.2, 0.9, -0.3)
    assert spec.driver(*args) == spec.driver(*args)


def test_dynamics_validation():
    with pytest.raises(InstanceError):
        brownian_dynamics(0.0, sigma=0.0)
    with pytest.raises(InstanceError):
        geometric_dynamics(-1.0, sigma=0.2)


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_defaults_pass_assumption_check(name):
    report = verify_assumptions(catalog_instance(name), n_steps=50)
    assert report.ok, report.violations


def test_terminal_domination_violation_reported():
    # terminal sits strictly below the obstacle at T: must be flagged
    base = catalog_instance("zero_driver_flat")
    bad = InstanceSpec(
        label="broken_terminal",
        driver=base.driver,
        terminal=TerminalSpec(name="below_floor", fn=lambda t, x: np.full_like(np.asarray(x, float), -1.0e6 - 1.0)),
        obstacle=base.obstacle,
        dynamics=base.dynamics,
        x0=base.x0,
        horizon=base.horizon,
    )
    report = verify_assumptions(bad, n_steps=10)
    assert not report.ok
    assert any(v.kind == "terminal_domination" for v in report.violations)


def test_understated_lipschitz_constant_reported():
    spec = catalog_instance("hyperbolic_discount", {"rho0": 0.5})
    cheat = InstanceSpec(
        label="understated",
        driver=DriverSpec(
            name="hyperbolic_low",
            fn=spec.driver.fn,
            lipschitz=0.25,  # true slope is 0.5 at s = t
            holder_const=spec.driver.holder_const,
        ),
        terminal=spec.terminal,
        obstacle=spec.obstacle,
        dynamics=spec.dynamics,
        x0=spec.x0,
        horizon=spec.horizon,
    )
    report = verify_assumptions(cheat, n_steps=20, samples=800)
    assert any(v.kind == "lipschitz" for v in report.violations)


def test_driver_that_folds_the_anchor_axis_reported():
    # np.squeeze turns the (anchors, 1) time column into a node-length row on
    # every sweep layer, where anchors and nodes both number j + 1
    base = catalog_instance("hyperbolic_discount")
    fold = replace(base, driver=DriverSpec(
        name="fold", lipschitz=0.5, holder_const=0.5,
        fn=lambda t, s, x, y, z: -0.5 / (1.0 + np.squeeze(s - t)) * y))
    for n in (1, 2, 20):
        report = verify_assumptions(fold, n_steps=n)
        assert [v.kind for v in report.violations] == ["broadcast"], n
        assert report.violations[0].witness == (n // 2,)
    # the catalog driver it mimics broadcasts, at the smallest grids too
    for n in (1, 2):
        assert verify_assumptions(base, n_steps=n).ok


@pytest.mark.parametrize("c", [-0.3, 0.3])
@pytest.mark.parametrize("datum, symbol", [("driver", "f"), ("terminal", "xi"),
                                           ("obstacle", "L")])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_shift_helpers_preserve_structure(name, datum, symbol, c):
    # the shifted datum is the base's plus c, bit for bit on lattice nodes;
    # its declarations, the other data and the dynamics are the base's
    spec = catalog_instance(name)
    out = shifted(spec, datum, c)
    base, moved = getattr(spec, datum), getattr(out, datum)
    assert out.label == f"{spec.label}[{symbol}+{c}]"
    assert moved.name == f"{base.name}+{c}"
    assert replace(moved, name=base.name, fn=base.fn) == base
    assert replace(out, label=spec.label, **{datum: base}) == spec
    lat = spec.lattice(6)
    for j in range(lat.n_steps + 1):
        t, x = lat.grid.t(j), lat.x[j]
        args = {"driver": (0.0, t, x, 0.5 - x, x / 3), "terminal": (t, lat.x[-1]),
                "obstacle": (t, x)}[datum]
        assert np.array_equal(moved(*args), np.asarray(base(*args), dtype=float) + c)


def test_instance_lattice_roundtrip():
    spec = catalog_instance("american_put")
    lat = spec.lattice(4)
    assert lat.n_steps == 4
    assert lat.x[0][0] == pytest.approx(spec.x0)


def test_driver_declared_free_of_z_that_reads_z_reported():
    # the Monte Carlo engine fits no z for a driver declared z-free, so a
    # linear_z driver declared that way would be solved with z = 0
    base = catalog_instance("linear_z")
    liar = replace(base, driver=replace(base.driver, depends_on_z=False))
    report = verify_assumptions(liar, n_steps=20)
    assert [v.kind for v in report.violations] == ["dependence"]
    assert "depends_on_z=False" in report.violations[0].detail
    t, s, x, y, z, y1, z1 = report.violations[0].witness
    assert y1 == y and z1 != z
    assert liar.driver(t, s, x, y, z) != liar.driver(t, s, x, y1, z1)


def test_driver_declared_free_of_y_that_reads_y_reported():
    base = catalog_instance("hyperbolic_discount")
    liar = replace(base, driver=replace(base.driver, y_sign=0))
    report = verify_assumptions(liar, n_steps=20)
    assert [v.kind for v in report.violations] == ["dependence"]
    assert "declared y_sign=0 changes" in report.violations[0].detail


@pytest.mark.parametrize("params", [{"rate": 0.0}, {"rate": 0.05}])
def test_declared_free_drivers_that_ignore_the_argument_pass(params):
    # rate 0 declares the put's discount free of y as well; -0.0 * y is 0
    spec = catalog_instance("american_put", params)
    assert spec.driver.y_sign == (-1 if params["rate"] > 0 else 0)
    assert verify_assumptions(spec, n_steps=20).ok


@pytest.mark.parametrize("name, params, free", [
    ("american_put", {}, True),
    ("linear_z", {}, True),
    ("zero_driver_flat", {}, True),
    ("hyperbolic_discount", {}, False),
    ("hyperbolic_discount", {"rho0": 0.0}, True),
    ("hyperbolic_discount", {"kappa": 0.0}, True),
    ("custom_affine", {}, False),
    ("custom_affine", {"t_coef": 0.0}, True),
])
def test_anchor_declarations_hold(name, params, free):
    # the catalog terminals never read the anchor; the drivers read it
    # only through a nonzero discount slope or t coefficient
    spec = catalog_instance(name, params)
    assert not spec.terminal.depends_on_anchor
    assert spec.driver.depends_on_anchor == (not free) and spec.anchor_free == free
    assert verify_assumptions(spec, n_steps=20).ok
    assert shifted(spec, "terminal", 0.1).anchor_free == free
    assert shifted(spec, "driver", 0.1).anchor_free == free


def test_driver_declared_free_of_the_anchor_that_reads_it_reported():
    # the sweep would step every anchor on anchor 0's driver
    base = catalog_instance("hyperbolic_discount")
    liar = replace(base, driver=replace(base.driver, depends_on_anchor=False))
    report = verify_assumptions(liar, n_steps=20)
    assert [v.kind for v in report.violations] == ["dependence"]
    assert "driver declared depends_on_anchor=False" in report.violations[0].detail
    t, tp, s, x, y, z = report.violations[0].witness
    assert t != tp and liar.driver(t, s, x, y, z) != liar.driver(tp, s, x, y, z)


@pytest.mark.parametrize("name, params, sign", [
    ("american_put", {}, -1),
    ("american_put", {"rate": 0.0}, 0),
    ("hyperbolic_discount", {}, -1),
    ("hyperbolic_discount", {"rho0": 0.0}, 0),
    ("zero_driver_flat", {}, 0),
    ("linear_z", {}, 1),
    ("linear_z", {"b": 0.0}, 0),
    ("linear_z", {"b": -0.5}, -1),
    ("custom_affine", {}, 1),
    ("custom_affine", {"y_coef": 0.0}, 0),
    ("custom_affine", {"y_coef": -0.3}, -1),
])
def test_y_sign_declarations_hold(name, params, sign):
    # the catalog declares the sign of its driver's y slope, 0 where it
    # reads no y; f + c keeps the declaration
    spec = catalog_instance(name, params)
    assert spec.driver.y_sign == sign
    assert shifted(spec, "driver", 0.1).driver.y_sign == sign
    assert verify_assumptions(spec, n_steps=20).ok


def _assert_against_the_sign_reported(y_coef, sign, moves):
    base = catalog_instance("custom_affine", {"y_coef": y_coef})
    liar = replace(base, driver=replace(base.driver, y_sign=sign))
    report = verify_assumptions(liar, n_steps=20)
    assert [v.kind for v in report.violations] == ["monotonicity"]
    assert f"declared y_sign={sign} {moves}" in report.violations[0].detail
    t, s, x, y, z, yp = report.violations[0].witness
    assert (liar.driver(t, s, x, yp, z) - liar.driver(t, s, x, y, z)) * (yp - y) * sign < 0
    # the check draws nothing: its samples are the honest report's
    honest = verify_assumptions(base, n_steps=20)
    assert (report.lipschitz_ratio, report.holder_ratio) == \
        (honest.lipschitz_ratio, honest.holder_ratio) and honest.ok


def test_driver_declared_nonincreasing_that_rises_reported():
    # the sweep would settle a rising driver on the secant, whose exact
    # fixed point need not be the loop's
    _assert_against_the_sign_reported(0.2, -1, "rises")


def test_driver_declared_nondecreasing_that_falls_reported():
    # the comparison gate and the monotone scheme would trust it
    _assert_against_the_sign_reported(-0.2, 1, "falls")


@settings(max_examples=60, deadline=None)
@given(y_coef=st.sampled_from([-0.5, -0.1, 0.0, 0.1, 0.5]),
       sign=st.sampled_from([-1, 0, 1, None]))
def test_a_y_sign_declaration_passes_iff_it_is_sound(y_coef, sign):
    base = catalog_instance("custom_affine", {"y_coef": y_coef})
    report = verify_assumptions(replace(base, driver=replace(base.driver, y_sign=sign)),
                                n_steps=20)
    sound = {None: True, 0: y_coef == 0, 1: y_coef >= 0, -1: y_coef <= 0}[sign]
    assert report.ok == sound
    if not sound:
        assert report.violations[0].kind == ("dependence" if sign == 0 else "monotonicity")


@pytest.mark.parametrize("sign", [2, -2, 0.5, True, "1"])
def test_y_sign_outside_its_four_values_rejected(sign):
    with pytest.raises(InstanceError, match="y_sign"):
        DriverSpec(name="f", fn=lambda t, s, x, y, z: y, lipschitz=1.0, y_sign=sign)


def test_terminal_declared_free_of_the_anchor_that_reads_it_reported():
    # the sweep would hand anchor 0's terminal row to anchors 1..N-1
    base = catalog_instance("linear_z")
    liar = replace(base, terminal=TerminalSpec(name="x+t", fn=lambda t, x: x + t,
                                               depends_on_anchor=False))
    assert liar.anchor_free
    report = verify_assumptions(liar, n_steps=20)
    assert [v.kind for v in report.violations] == ["dependence"]
    assert report.violations[0].detail == (
        "terminal declared depends_on_anchor=False differs at anchor 1 from anchor 0 "
        "at terminal node 0")
    assert report.violations[0].witness == (1, 0)
    # declared honestly, the same terminal passes and keeps the sweep's full rows
    honest = replace(liar, terminal=replace(liar.terminal, depends_on_anchor=True))
    assert verify_assumptions(honest, n_steps=20).ok and not honest.anchor_free
    assert shifted(liar, "terminal", 0.5).terminal.depends_on_anchor is False
