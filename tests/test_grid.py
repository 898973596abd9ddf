import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbsvie.grid import (
    BLOCK_NODES,
    GridError,
    Lattice,
    TimeGrid,
    build_lattice,
    cond_expect,
    martingale_coeff,
)
from rbsvie.instances import brownian_dynamics, geometric_dynamics


def identity_dyn(t, w):
    return w


def test_time_grid_basics():
    g = TimeGrid(horizon=1.0, n_steps=4)
    assert g.dt == 0.25
    assert g.t(0) == 0.0
    assert g.t(4) == 1.0
    assert np.allclose(g.times, [0.0, 0.25, 0.5, 0.75, 1.0])


@pytest.mark.parametrize("horizon, n_steps", [(1.0, 7), (1.3, 100), (0.7, 1100), (3.0, 999)])
def test_times_are_bitwise_the_layer_times(horizon, n_steps):
    # solve writes grid.times.tolist() as the anchor times
    g = TimeGrid(horizon, n_steps)
    assert g.times.tolist() == [g.t(i) for i in range(n_steps + 1)]


def test_time_grid_rejects_bad_params():
    with pytest.raises(GridError):
        TimeGrid(horizon=1.0, n_steps=0)
    with pytest.raises(GridError):
        TimeGrid(horizon=-1.0, n_steps=3)
    with pytest.raises(GridError):
        TimeGrid(horizon=float("nan"), n_steps=3)


def test_lattice_walk_values_n2():
    # N=2, T=1: layer 2 walk values are (-2, 0, 2) * sqrt(0.5), the states
    # of identity dynamics
    lat = build_lattice(TimeGrid(1.0, 2), x0=0.0, dyn=identity_dyn)
    s = math.sqrt(0.5)
    assert np.allclose(lat.x[2], [-2 * s, 0.0, 2 * s], atol=0, rtol=0)
    for j in range(3):
        assert np.array_equal(lat.x[j], (2 * np.arange(j + 1) - j) * s)


def test_lattice_single_step():
    lat = build_lattice(TimeGrid(1.0, 1), x0=0.0, dyn=identity_dyn)
    assert lat.x[0].shape == (1,)
    assert lat.x[1].shape == (2,)
    assert np.allclose(lat.x[1], [-1.0, 1.0])


def test_lattice_geometric_top_node():
    # martingale-form geometric state: x = x0 exp(sigma w - sigma^2 t / 2)
    sigma = 0.2

    def dyn(t, w):
        return np.exp(sigma * w - 0.5 * sigma**2 * t)

    lat = build_lattice(TimeGrid(0.75, 3), x0=1.0, dyn=dyn)
    # independent arithmetic: w[3][3] = 3 sqrt(0.25) = 1.5
    expected = math.exp(0.2 * 1.5 - 0.5 * 0.04 * 0.75)
    assert abs(lat.x[3][3] - expected) < 1e-15


def test_node_count_recombines():
    n = 7
    lat = build_lattice(TimeGrid(1.0, n), x0=0.0, dyn=identity_dyn)
    total = sum(len(layer) for layer in lat.x)
    assert total == (n + 1) * (n + 2) // 2


def _reference_layers(grid, dyn):
    """w, x and probs of every layer, one plain loop per layer."""
    sq, dt = grid.sqrt_dt, grid.dt
    w, x, probs = [], [], []
    for j in range(grid.n_steps + 1):
        wj = (2 * np.arange(j + 1) - j) * sq
        w.append(wj)
        x.append(np.asarray(dyn(j * dt, wj), dtype=float))
        if j == 0:
            pj = np.ones(1)
        else:
            pj = np.zeros(j + 1)
            pj[1:] += 0.5 * probs[-1]
            pj[:-1] += 0.5 * probs[-1]
        probs.append(pj)
    return w, x, probs


# N = 1100: 606,651 nodes in 165 dynamics blocks of 1 to 90 whole layers
@pytest.mark.parametrize("n_steps", [1, 2, 3, 50, 400, 1100])
@pytest.mark.parametrize("dyn", [brownian_dynamics(0.1, 0.7),
                                 geometric_dynamics(1.0, 0.3, mu=0.05)],
                         ids=["brownian", "geometric"])
def test_build_lattice_matches_the_plain_layer_loop(dyn, n_steps):
    grid = TimeGrid(horizon=1.3, n_steps=n_steps)
    lat = build_lattice(grid, float(dyn(0.0, np.zeros(1))[0]), dyn)
    ref = _reference_layers(grid, dyn)
    # the walk values are the states of identity dynamics
    walk = build_lattice(grid, 0.0, identity_dyn).x
    for got, want in zip((walk, lat.x, lat.probs), ref):
        assert len(got) == len(want) == n_steps + 1
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_probabilities_are_binomial():
    lat = build_lattice(TimeGrid(1.0, 4), x0=0.0, dyn=identity_dyn)
    assert np.allclose(lat.probs[4], np.array([1, 4, 6, 4, 1]) / 16.0)
    for j in range(5):
        assert abs(lat.probs[j].sum() - 1.0) < 1e-14


def test_lattice_nodes_immutable():
    lat = build_lattice(TimeGrid(1.0, 3), x0=0.0, dyn=identity_dyn)
    with pytest.raises(ValueError):
        lat.x[1][0] = 99.0


def test_build_lattice_rejects_mismatched_x0():
    with pytest.raises(GridError):
        build_lattice(TimeGrid(1.0, 2), x0=1.0, dyn=identity_dyn)


def test_build_lattice_rejects_nonfinite_dynamics():
    def bad(t, w):
        return np.where(w > 0, np.inf, w)

    with pytest.raises(GridError):
        build_lattice(TimeGrid(1.0, 2), x0=0.0, dyn=bad)


@pytest.mark.parametrize("first", [97, 150, 151])
@pytest.mark.parametrize("node", ["low", "high"])
def test_nonfinite_state_names_the_first_bad_layer_in_a_later_block(first, node):
    # layers 97.. start past the first block; a NaN on the lowest or the
    # highest node of every layer from first on is reported at first
    grid = TimeGrid(1.0, 200)
    assert (first * (first + 1)) // 2 > BLOCK_NODES

    def bad(t, w):
        edge = w < 0 if node == "low" else w > 0
        return np.where((t >= grid.t(first)) & edge & (np.abs(w) >= first * grid.sqrt_dt
                                                       * (1 - 1e-12)), np.nan, w)

    with pytest.raises(GridError, match=f"non-finite state at layer {first}$"):
        build_lattice(grid, x0=0.0, dyn=bad)


def test_build_lattice_rejects_a_block_result_of_the_wrong_shape():
    def short(t, w):
        return np.asarray(w)[:-1] if np.size(w) > 1 else w

    with pytest.raises(GridError, match="one state value per node"):
        build_lattice(TimeGrid(1.0, 3), x0=0.0, dyn=short)


def test_cond_expect_midpoint():
    assert np.allclose(cond_expect(np.array([1.0, 3.0])), [2.0])
    assert np.allclose(cond_expect(np.array([0.0, 2.0, 4.0])), [1.0, 3.0])


def test_martingale_coeff_unit_slope():
    # layer-1 values (0, 2 sqrt(dt)) have representation coefficient 1
    sq = math.sqrt(0.5)
    z = martingale_coeff(np.array([0.0, 2 * sq]), sqrt_dt=sq)
    assert np.allclose(z, [1.0])


def test_layer_ops_reject_scalars():
    for bad in (np.array([1.0]), np.float64(1.0), np.zeros((3, 1))):
        with pytest.raises(GridError):
            cond_expect(bad)
        with pytest.raises(GridError):
            martingale_coeff(bad, sqrt_dt=0.5)


@given(rows=st.integers(1, 5), vals=st.lists(st.floats(-50, 50), min_size=2, max_size=40),
       sqdt=st.floats(0.05, 2.0))
def test_layer_ops_step_every_row_as_its_own_layer(rows, vals, sqdt):
    # a layer of anchor rows steps along its last axis, each row's bits
    # those of the row stepped alone
    v = np.array([vals[r:] + vals[:r] for r in range(rows)])
    for op in (cond_expect, lambda a: martingale_coeff(a, sqdt)):
        got = op(v)
        assert got.shape == (rows, len(vals) - 1)
        assert got.tobytes() == np.concatenate([op(row) for row in v]).tobytes()


@given(
    vals=st.lists(st.floats(-50, 50), min_size=2, max_size=12),
    sqdt=st.floats(0.05, 2.0),
)
def test_one_step_representation_is_exact(vals, sqdt):
    v = np.array(vals)
    m = cond_expect(v)
    z = martingale_coeff(v, sqrt_dt=sqdt)
    up = m + z * sqdt
    dn = m - z * sqdt
    assert np.allclose(up, v[1:], rtol=0, atol=1e-9)
    assert np.allclose(dn, v[:-1], rtol=0, atol=1e-9)


@given(vals=st.lists(st.floats(-50, 50), min_size=3, max_size=12))
def test_tower_property_two_steps(vals):
    # iterating cond_expect twice equals the (1/4, 1/2, 1/4) average
    v = np.array(vals)
    two = cond_expect(cond_expect(v))
    direct = 0.25 * v[:-2] + 0.5 * v[1:-1] + 0.25 * v[2:]
    assert np.allclose(two, direct, rtol=0, atol=1e-9)


@settings(max_examples=25)
@given(
    a=st.lists(st.floats(-10, 10), min_size=2, max_size=8),
    c=st.floats(-5, 5),
)
def test_cond_expect_linear(a, c):
    v = np.array(a)
    assert np.allclose(cond_expect(c * v), c * cond_expect(v), atol=1e-9)


def test_layer_expect_validates_shape():
    lat = build_lattice(TimeGrid(1.0, 3), x0=0.0, dyn=identity_dyn)
    with pytest.raises(GridError):
        lat.layer_expect(2, np.zeros(2))
    assert lat.layer_expect(1, np.array([1.0, 1.0])) == 1.0
