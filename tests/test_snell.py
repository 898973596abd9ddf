import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbsvie.grid import TimeGrid, build_lattice
from rbsvie.instances import (
    InstanceSpec,
    ObstacleSpec,
    catalog_instance,
    shift_obstacle,
)
from rbsvie.snell import (
    NonFiniteValue,
    SnellError,
    flatness_defect,
    path_sum_moments,
    snell_by_policy_envelope,
    solve_slice,
)


def zero_diag(n):
    return [np.zeros(j + 1) for j in range(n + 1)]


def test_unconstrained_martingale_slice():
    # zero driver, obstacle far below, terminal = x, martingale state:
    # the envelope is the state itself at every layer
    spec = catalog_instance("zero_driver_flat")
    lat = spec.lattice(6)
    sl = solve_slice(lat, spec, 0, zero_diag(6))
    for j in range(7):
        assert np.allclose(sl.ytilde_at(j), lat.x[j], atol=1e-12, rtol=0)
    for kj in sl.kinc:
        assert np.all(kj == 0.0)


def test_slice_layers_and_terminal():
    spec = catalog_instance("american_put")
    lat = spec.lattice(5)
    sl = solve_slice(lat, spec, 2, zero_diag(5))
    assert sl.anchor == 2
    assert len(sl.ytilde) == 4 and len(sl.z) == 3 and len(sl.kinc) == 3
    expected_term = spec.terminal(lat.grid.t(2), lat.x[5])
    assert np.allclose(sl.ytilde_at(5), expected_term, atol=0, rtol=0)


def test_slice_dominates_obstacle_and_kinc_nonnegative():
    spec = catalog_instance("american_put")
    lat = spec.lattice(12)
    sl = solve_slice(lat, spec, 0, zero_diag(12))
    for j in range(12):
        lj = spec.obstacle(lat.grid.t(j), lat.x[j])
        assert np.all(sl.ytilde_at(j) >= lj - 1e-15)
        assert np.all(sl.kinc_at(j) >= 0.0)


def test_american_put_three_node_hand_value():
    # independent scalar arithmetic for N=2, K=1, sigma=0.2, r=0.05, T=1:
    # the converged diagonal solves v = max(payoff, cond / (1 + r dt))
    r, sigma, dt = 0.05, 0.2, 0.5
    sq = math.sqrt(dt)
    disc = 1.0 + r * dt
    x_d = math.exp((r - 0.5 * sigma**2) * dt - sigma * sq)
    x_u = math.exp((r - 0.5 * sigma**2) * dt + sigma * sq)
    x2 = [math.exp((r - 0.5 * sigma**2) - 2 * sigma * sq),
          math.exp((r - 0.5 * sigma**2)),
          math.exp((r - 0.5 * sigma**2) + 2 * sigma * sq)]
    p2 = [max(1.0 - v, 0.0) for v in x2]
    v1 = [max(max(1.0 - x_d, 0.0), 0.5 * (p2[1] + p2[0]) / disc),
          max(max(1.0 - x_u, 0.0), 0.5 * (p2[2] + p2[1]) / disc)]
    v0 = max(0.0, 0.5 * (v1[1] + v1[0]) / disc)

    spec = catalog_instance("american_put")
    lat = spec.lattice(2)
    U = [np.array([v0]), np.array(v1), np.array(p2)]
    sl = solve_slice(lat, spec, 0, U)
    assert abs(sl.diag[0] - v0) < 1e-14
    assert np.allclose(sl.ytilde_at(1), v1, atol=1e-14, rtol=0)
    # reflection acts exactly at the exercised node
    assert sl.kinc_at(1)[0] > 0.0
    assert sl.kinc_at(1)[1] == 0.0
    assert flatness_defect(lat, spec, sl) == 0.0


def test_explicit_z_matches_martingale_coefficient():
    spec = catalog_instance("linear_z")
    lat = spec.lattice(8)
    sl = solve_slice(lat, spec, 3, zero_diag(8))
    sq = lat.grid.sqrt_dt
    for off in range(len(sl.z)):
        nxt = sl.ytilde[off + 1]
        expect = (nxt[1:] - nxt[:-1]) / (2 * sq)
        assert np.allclose(sl.z[off], expect, atol=0, rtol=0)


def test_decomposition_telescopes_along_paths():
    # ytilde[j+1] = ytilde[j] - f dt - kinc[j] + z[j] dW, exactly, on every path
    spec = catalog_instance("american_put")
    lat = spec.lattice(9)
    grid = lat.grid
    sl = solve_slice(lat, spec, 1, zero_diag(9))
    rng = np.random.default_rng(7)
    for _ in range(25):
        k = 1 if rng.random() < 0.5 else 0
        for j in range(1, 9):
            up = rng.random() < 0.5
            dw = grid.sqrt_dt if up else -grid.sqrt_dt
            f = float(spec.driver(grid.t(1), grid.t(j),
                                  np.asarray([lat.x[j][k]]), np.asarray([0.0]),
                                  np.asarray([sl.z_at(j)[k]]))[0])
            lhs = sl.ytilde_at(j + 1)[k + 1 if up else k]
            rhs = sl.ytilde_at(j)[k] - f * grid.dt - sl.kinc_at(j)[k] + sl.z_at(j)[k] * dw
            assert abs(lhs - rhs) < 1e-12
            k = k + 1 if up else k


def test_flatness_defect_zero_and_corrupted():
    spec = catalog_instance("american_put")
    lat = spec.lattice(10)
    sl = solve_slice(lat, spec, 0, zero_diag(10))
    assert abs(flatness_defect(lat, spec, sl)) == 0.0
    # corrupt: add reflection mass off the obstacle
    sl.kinc[2] = sl.kinc[2] + 0.5
    assert flatness_defect(lat, spec, sl) > 0.0


def test_policy_envelope_agrees_exactly():
    for name in ("american_put", "hyperbolic_discount", "linear_z"):
        spec = catalog_instance(name)
        lat = spec.lattice(7)
        rng = np.random.default_rng(11)
        U = [rng.normal(size=j + 1) * 0.1 for j in range(8)]
        for i in (0, 3):
            sl = solve_slice(lat, spec, i, U)
            env = snell_by_policy_envelope(lat, spec, i, U)
            for off in range(len(env)):
                assert np.array_equal(sl.ytilde[off], env[off]), (name, i, off)


def test_policy_envelope_refuses_large_lattice():
    spec = catalog_instance("american_put")
    lat = spec.lattice(13)
    with pytest.raises(SnellError):
        snell_by_policy_envelope(lat, spec, 0, zero_diag(13))


def test_single_step_bellman():
    # N=1: value at the root is max(L, E[xi] + f dt)
    spec = catalog_instance("american_put")
    lat = spec.lattice(1)
    sl = solve_slice(lat, spec, 0, zero_diag(1))
    term = spec.terminal(0.0, lat.x[1])
    cont = 0.5 * (term[0] + term[1])  # driver at U=0 vanishes
    assert abs(sl.diag[0] - max(cont, 0.0)) < 1e-15


def test_raising_obstacle_raises_value():
    spec = catalog_instance("american_put")
    hi = shift_obstacle(spec, 0.05)  # valid slice math even if xi < L(T) somewhere
    lat = spec.lattice(8)
    lo_sl = solve_slice(lat, spec, 0, zero_diag(8))
    hi_sl = solve_slice(lat, hi, 0, zero_diag(8))
    for off in range(8):
        assert np.all(hi_sl.ytilde[off] >= lo_sl.ytilde[off] - 1e-15)


def test_nonfinite_instance_detected():
    base = catalog_instance("zero_driver_flat")
    bad = InstanceSpec(
        label="exploding_obstacle",
        driver=base.driver,
        terminal=base.terminal,
        obstacle=ObstacleSpec(name="inf", fn=lambda u, x: np.where(np.asarray(x) > 0, np.inf, -1.0)),
        dynamics=base.dynamics,
        x0=base.x0,
        horizon=base.horizon,
    )
    lat = bad.lattice(4)
    with pytest.raises(NonFiniteValue):
        solve_slice(lat, bad, 0, zero_diag(4))


@settings(max_examples=30, deadline=None)
@given(floor=st.floats(-0.5, 0.5), seed=st.integers(0, 10_000))
def test_dominance_and_flatness_random_obstacles(floor, seed):
    base = catalog_instance("zero_driver_flat")
    spec = InstanceSpec(
        label="random_floor",
        driver=base.driver,
        terminal=base.terminal,
        obstacle=ObstacleSpec(name="const", fn=lambda u, x: np.full_like(np.asarray(x, float), floor)),
        dynamics=base.dynamics,
        x0=base.x0,
        horizon=base.horizon,
    )
    lat = spec.lattice(6)
    rng = np.random.default_rng(seed)
    U = [rng.normal(size=j + 1) for j in range(7)]
    sl = solve_slice(lat, spec, 0, U)
    for off in range(6):
        assert np.all(sl.ytilde[off] >= floor - 1e-12)
        assert np.all(sl.kinc[off] >= 0.0)
    assert abs(flatness_defect(lat, spec, sl)) < 1e-14


def test_path_sum_moments_constant_increments():
    spec = catalog_instance("zero_driver_flat")
    lat = spec.lattice(5)
    incs = [np.full(j + 1, 0.3) for j in range(2, 5)]
    m1, m2 = path_sum_moments(lat, 2, incs)
    assert m1 == pytest.approx(0.9)
    assert m2 == pytest.approx(0.81)


def test_path_sum_moments_against_brute_force():
    spec = catalog_instance("zero_driver_flat")
    lat = spec.lattice(4)
    rng = np.random.default_rng(3)
    incs = [rng.normal(size=j + 1) for j in range(5)]
    m1, m2 = path_sum_moments(lat, 0, incs)
    # brute force over the 16 branch sequences
    tot1 = tot2 = 0.0
    for mask in range(16):
        k = 0
        s = incs[0][0]
        for step in range(4):
            k += (mask >> step) & 1
            s += incs[step + 1][k]
        tot1 += s / 16.0
        tot2 += s * s / 16.0
    assert m1 == pytest.approx(tot1, abs=1e-12)
    assert m2 == pytest.approx(tot2, abs=1e-12)


def test_production_modules_never_import_the_reference():
    # snell holds the reference solvers only; a fresh interpreter that
    # loads the command line, the MC engine and the comparison checks
    # must not load it
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = ("import sys, rbsvie.cli, rbsvie.mc, rbsvie.compare; "
            "assert 'rbsvie.snell' not in sys.modules, sorted(sys.modules)")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120)
    assert res.returncode == 0, res.stderr
