"""Exhaustive stopping-rule enumeration against the backward induction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbsvie.instances import catalog_instance
from rbsvie.oracle import (
    OracleError,
    best_rule,
    enumerate_rules,
    interior_node_count,
    payoff_of_rule,
)
from rbsvie.snell import solve_global
from rbsvie.volterra import PicardConfig


def _solved(name, N, tol=1e-13):
    spec = catalog_instance(name)
    lat = spec.lattice(N)
    sol = solve_global(lat, spec, PicardConfig(max_iters=200), tolerance=tol)
    return spec, lat, sol


def _zrow(sol, i, N):
    return [sol.z[j][i] for j in range(i, N)]


def test_rule_counts():
    spec = catalog_instance("american_put")
    assert sum(1 for _ in enumerate_rules(spec.lattice(1), 0)) == 2
    assert sum(1 for _ in enumerate_rules(spec.lattice(2), 0)) == 8
    assert sum(1 for _ in enumerate_rules(spec.lattice(2), 1)) == 4
    # terminal start: single rule, forced stop
    rules = list(enumerate_rules(spec.lattice(2), 2))
    assert len(rules) == 1
    assert all(rules[0].stops(2, k) for k in range(3))


def test_enumeration_bound_enforced():
    spec = catalog_instance("american_put")
    lat = spec.lattice(8)
    assert interior_node_count(8, 6) == 15
    assert interior_node_count(8, 5) == 21
    list(enumerate_rules(lat, 6))  # fits
    with pytest.raises(OracleError):
        next(iter(enumerate_rules(lat, 5)))
    with pytest.raises(OracleError):
        next(iter(enumerate_rules(spec.lattice(30), 0)))


def test_rules_are_absorbing_and_forced_at_horizon():
    spec = catalog_instance("american_put")
    lat = spec.lattice(3)
    for rule in enumerate_rules(lat, 1):
        assert rule.start == 1
        assert rule.n_layers == 3
        assert all(rule.stops(3, k) for k in range(4))


def test_stop_immediately_pays_obstacle():
    spec, lat, sol = _solved("american_put", 2)
    rules = list(enumerate_rules(lat, 0))
    stop_now = rules[0]  # first in order: stop flags everywhere
    assert stop_now.stops(0, 0)
    v = payoff_of_rule(lat, spec, 0, 0, stop_now, sol.y_diag, _zrow(sol, 0, 2))
    assert v == float(spec.obstacle(0.0, lat.x[0][0]))


def test_never_stop_pays_expected_terminal_when_driver_zero():
    spec, lat, sol = _solved("zero_driver_flat", 3)
    never = list(enumerate_rules(lat, 0))[-1]  # last in order: no interior stops
    assert not any(never.stops(j, k) for j in range(3) for k in range(j + 1))
    v = payoff_of_rule(lat, spec, 0, 0, never, sol.y_diag, _zrow(sol, 0, 3))
    expect_term = float(lat.layer_expect(3, spec.terminal(0.0, lat.x[3])))
    assert abs(v - expect_term) < 1e-14


def test_put_exhaustive_max_matches_induction():
    spec, lat, sol = _solved("american_put", 2)
    _, v = best_rule(lat, spec, 0, 0, sol.y_diag, _zrow(sol, 0, 2))
    assert abs(v - sol.ytilde[0][0][0]) < 1e-12


def test_equivalence_all_nodes_small_lattices():
    for name in ("hyperbolic_discount", "linear_z"):
        spec, lat, sol = _solved(name, 3)
        for i in range(4):
            zrow = _zrow(sol, i, 3)
            vals = sol.ytilde[i][i]
            for k in range(i + 1):
                _, v = best_rule(lat, spec, i, k, sol.y_diag, zrow)
                assert abs(v - vals[k]) < 1e-10, (name, i, k)


def test_every_rule_dominated_by_induction_value():
    spec, lat, sol = _solved("custom_affine", 3)
    zrow = _zrow(sol, 0, 3)
    snell = sol.ytilde[0][0][0]
    for rule in enumerate_rules(lat, 0):
        v = payoff_of_rule(lat, spec, 0, 0, rule, sol.y_diag, zrow)
        assert v <= snell + 1e-10


def test_dominant_obstacle_stops_immediately():
    # obstacle far above any continuation: the winning rule stops at the root
    spec = catalog_instance("american_put", {"strike": 5.0})
    lat = spec.lattice(2)
    sol = solve_global(lat, spec, tolerance=1e-13)
    rule, v = best_rule(lat, spec, 0, 0, sol.y_diag, _zrow(sol, 0, 2))
    assert rule.stops(0, 0)
    assert abs(v - float(spec.obstacle(0.0, lat.x[0][0]))) < 1e-12


def test_floor_never_binds_keeps_reachable_nodes_unstopped():
    spec, lat, sol = _solved("zero_driver_flat", 3)
    rule, v = best_rule(lat, spec, 0, 0, sol.y_diag, _zrow(sol, 0, 3))
    # every node of the lattice lies in the root's subtree
    for j in range(3):
        for k in range(j + 1):
            assert not rule.stops(j, k)
    assert abs(v - sol.y_diag[0][0]) < 1e-12


def test_start_layer_validated():
    spec = catalog_instance("american_put")
    lat = spec.lattice(2)
    with pytest.raises(OracleError):
        next(iter(enumerate_rules(lat, 5)))
    rule = next(iter(enumerate_rules(lat, 1)))
    with pytest.raises(OracleError):
        payoff_of_rule(lat, spec, 0, 0, rule, None, None)


@settings(max_examples=20, deadline=None)
@given(strike=st.floats(0.5, 1.5), rate=st.floats(0.0, 0.2))
def test_equivalence_random_put_parameters(strike, rate):
    spec = catalog_instance("american_put", {"strike": strike, "rate": rate})
    lat = spec.lattice(2)
    sol = solve_global(lat, spec, PicardConfig(max_iters=300), tolerance=1e-13)
    _, v = best_rule(lat, spec, 0, 0, sol.y_diag, _zrow(sol, 0, 2))
    assert abs(v - sol.y_diag[0][0]) < 1e-10
