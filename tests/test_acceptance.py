"""End-to-end acceptance checks for the solver suite.

Ten checks, one test each, named in order.  Every test finishes by
printing a single line with the measured figures; run

    pytest -v tests/test_acceptance.py -s

to see them inline.  Tolerances and sizes are part of the contract and
must not be loosened.
"""

import time

import numpy as np
import pytest

from rbsvie import mc
from rbsvie.compare import check_comparison, random_ordered_pairs
from rbsvie.grid import TimeGrid, cond_expect, martingale_coeff
from rbsvie.instances import CATALOG_NAMES, catalog_instance
from rbsvie.oracle import best_rule
from rbsvie.snell import (constant_diagonal, contraction_ratios, flatness_defect,
                          monotone_scheme, slice_view, solve_global, zero_diagonal)
from rbsvie.stopping import (extract_frontier, inconsistency_report,
                             premature_increment_mass)
from rbsvie.volterra import PicardConfig, solve

T_INDEPENDENT = ("american_put", "linear_z", "zero_driver_flat")


@pytest.fixture(scope="module")
def specs():
    return {name: catalog_instance(name) for name in CATALOG_NAMES}


@pytest.fixture(scope="module")
def solved50(specs):
    out = {}
    for name, spec in specs.items():
        lat = spec.lattice(50)
        out[name] = (lat, solve_global(lat, spec, PicardConfig()))
    return out


@pytest.fixture(scope="module")
def solved100(specs):
    out = {}
    for name, spec in specs.items():
        lat = spec.lattice(100)
        out[name] = (lat, solve_global(lat, spec, PicardConfig()))
    return out


def _zrow(sol, i, n_steps):
    return [sol.z[j][i] for j in range(i, n_steps)]


def test_criterion_01_exhaustive_rule_equivalence(specs):
    # every catalog instance, N in 1..4, every start node: the solver
    # value equals the max over all stopping rules to 1e-10, under 60s
    start = time.monotonic()
    worst = 0.0
    nodes = 0
    for name, spec in specs.items():
        for n in (1, 2, 3, 4):
            lat = spec.lattice(n)
            sol = solve_global(lat, spec, PicardConfig())
            for i in range(n + 1):
                zrow = _zrow(sol, i, n)
                row = sol.ytilde[i][i]
                for k in range(i + 1):
                    _, val = best_rule(lat, spec, i, k, sol.y_diag, zrow)
                    worst = max(worst, abs(float(row[k]) - val))
                    nodes += 1
    elapsed = time.monotonic() - start
    assert worst <= 1e-10, f"solver deviates from exhaustive max by {worst:.3e}"
    assert elapsed < 60.0, f"sweep took {elapsed:.1f}s, budget 60s"
    print(f"\ncriterion 01 PASS: exhaustive equivalence, max |error| "
          f"{worst:.2e} over {nodes} nodes, {elapsed:.1f}s")


def test_criterion_02_anchor_free_diagonal_matches_single_recursion(specs):
    # anchor-independent data: the diagonal equals one reflected
    # backward recursion (implicit in the driver's y slot) to 1e-12 at
    # N=50; the put additionally matches a discounted-tree routine
    start = time.monotonic()
    worst = {}
    for name in T_INDEPENDENT:
        spec = specs[name]
        lat = spec.lattice(50)
        grid = lat.grid
        sol = solve_global(lat, spec, PicardConfig())
        vals = np.asarray(spec.terminal(0.0, lat.x[50]), dtype=float)
        err = float(np.max(np.abs(vals - sol.y_diag[50])))
        for j in range(49, -1, -1):
            e = cond_expect(vals)
            z = martingale_coeff(vals, grid.sqrt_dt)
            barrier = np.asarray(spec.obstacle(grid.t(j), lat.x[j]), dtype=float)
            v = e.copy()
            for _ in range(200):
                f_j = np.asarray(spec.driver(grid.t(j), grid.t(j), lat.x[j], v, z))
                v = np.maximum(e + f_j * grid.dt, barrier)
            vals = v
            err = max(err, float(np.max(np.abs(vals - sol.y_diag[j]))))
        worst[name] = err
        assert err <= 1e-12, f"{name}: diagonal deviates by {err:.3e}"

    spec = specs["american_put"]
    lat = spec.lattice(50)
    sol = solve_global(lat, spec, PicardConfig())
    r, dt = 0.05, lat.grid.dt
    strike = 1.0
    ref = np.maximum(strike - lat.x[50], 0.0)
    put_err = float(np.max(np.abs(ref - sol.y_diag[50])))
    for j in range(49, -1, -1):
        cont = 0.5 * (ref[1:] + ref[:-1]) / (1.0 + r * dt)
        ref = np.maximum(cont, np.maximum(strike - lat.x[j], 0.0))
        put_err = max(put_err, float(np.max(np.abs(ref - sol.y_diag[j]))))
    assert put_err <= 1e-12, f"put deviates from discounted tree by {put_err:.3e}"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s, budget 5s"
    maxw = max(worst.values())
    print(f"\ncriterion 02 PASS: anchor-free diagonals match single recursion "
          f"(max {maxw:.2e}), put vs discounted tree {put_err:.2e}, {elapsed:.1f}s")


def test_criterion_03_contraction_and_residual_decay(specs, solved50):
    # randomized pairs contract under one sweep on the last window;
    # residuals decrease strictly and finish below 1e-10 within 50
    # iterations for every instance at N=50
    worst_ratio = 0.0
    for name in ("hyperbolic_discount", "linear_z", "custom_affine"):
        lat, _ = solved50[name]
        ratios = contraction_ratios(lat, specs[name], pairs=50, seed=1311)
        assert len(ratios) == 50
        bad = [r for r in ratios if not r < 1.0]
        assert not bad, f"{name}: non-contracting ratios {bad[:3]}"
        worst_ratio = max(worst_ratio, max(ratios))
    iters = {}
    for name, (lat, sol) in solved50.items():
        res = sol.residual_history
        assert sol.iterations <= 50, f"{name}: {sol.iterations} iterations"
        assert res[-1] < 1e-10, f"{name}: terminal residual {res[-1]:.3e}"
        for a, b in zip(res, res[1:]):
            assert b < a, f"{name}: residuals not strictly decreasing"
        iters[name] = sol.iterations
    print(f"\ncriterion 03 PASS: max contraction ratio {worst_ratio:.3e} "
          f"(150 pairs), iterations {iters}, all terminal residuals < 1e-10")


def test_criterion_04_sweep_matches_global(specs, solved100):
    # the backward sweep over anchors agrees with the global Picard fixed
    # point within twice the solver tolerance at N=100 for every instance
    tol = 1e-10
    gaps = {}
    for name, (lat, sol_g) in solved100.items():
        sol_s = solve(lat, specs[name])
        gap = max(float(np.max(np.abs(a - b)))
                  for a, b in zip(sol_s.y_diag, sol_g.y_diag))
        gaps[name] = gap
        assert gap <= 2 * tol, f"{name}: sweep vs global gap {gap:.3e}"
    worst = max(gaps.values())
    print(f"\ncriterion 04 PASS: sweep matches global at N=100, "
          f"max gap {worst:.2e} <= {2 * tol:.0e}")


def test_criterion_05_flatness_and_no_premature_reflection(specs, solved50,
                                                           solved100):
    # Skorohod defect vanishes on every slice up to N=100, and the
    # reflection term accrues nothing before the stop time, pathwise
    worst_defect = 0.0
    for table in (solved50, solved100):
        for name, (lat, sol) in table.items():
            spec = specs[name]
            masses = premature_increment_mass(lat, spec, sol)
            for i in range(lat.grid.n_steps + 1):
                d = flatness_defect(lat, spec, slice_view(sol, i))
                worst_defect = max(worst_defect, abs(d))
                assert abs(d) <= 1e-14, f"{name} anchor {i}: defect {d:.3e}"
                mass = masses[i]
                assert mass == 0.0, f"{name} anchor {i}: premature mass {mass:.3e}"

    n = 12
    for name in ("american_put", "hyperbolic_discount"):
        spec = specs[name]
        lat = spec.lattice(n)
        sol = solve_global(lat, spec, PicardConfig())
        frontier = extract_frontier(sol, lat, spec)
        for bits in range(2 ** n):
            node = 0
            acc = 0.0
            for j in range(n):
                if frontier.stops(0, j, node):
                    break
                acc += float(sol.kinc[j][0][node])
                node += (bits >> j) & 1
            assert acc == 0.0, f"{name}: path {bits:#x} accrues {acc:.3e} before stopping"
    print(f"\ncriterion 05 PASS: flatness defect <= {worst_defect:.2e} on every "
          f"slice (N=50, 100), zero reflection before stopping on all "
          f"{2 ** n} paths (N={n})")


def test_criterion_06_comparison_and_monotone_scheme(specs):
    # 100 randomized ordered perturbations stay ordered to 1e-9, and the
    # dominated-start iteration decreases with contracting increments
    n = 20
    lats = {name: specs[name].lattice(n) for name in CATALOG_NAMES}
    pairs = random_ordered_pairs(CATALOG_NAMES, lats, n_pairs=100, seed=20260825)
    assert len(pairs) == 100
    worst = -np.inf
    for name, pair in pairs:
        report = check_comparison(lats[name], pair)
        worst = max(worst, report.max_diff)
        assert report.ordered, (
            f"{name}: {pair.lo.label} exceeds {pair.hi.label} by {report.max_diff:.3e}")
    spec = specs["linear_z"]
    lat = spec.lattice(50)
    rep = monotone_scheme(lat, spec, n_max=8)
    assert rep.monotone_ok, f"iterates rose by {rep.max_monotonicity_violation:.3e}"
    ratios = rep.increment_ratios
    assert ratios and all(r < 1.0 for r in ratios), f"ratios {ratios}"
    print(f"\ncriterion 06 PASS: 100 ordered pairs, max(Y_lo - Y_hi) "
          f"{worst:.2e}; monotone scheme ratios max {max(ratios):.3f}")


def test_criterion_07_rule_value_identity_and_dominance(specs, solved50):
    # J(t_i, own rule) equals E[Y(t_i)] at every anchor (N=50), and at
    # N=4 no enumerable rule beats the solver by more than 1e-10
    from rbsvie.stopping import evaluate_J

    worst_id = 0.0
    for name, (lat, sol) in solved50.items():
        spec = specs[name]
        frontier = extract_frontier(sol, lat, spec)
        for i in range(51):
            j_own = evaluate_J(lat, spec, sol, i, frontier.rule(i))
            worst_id = max(worst_id, abs(j_own - lat.layer_expect(i, sol.y_diag[i])))
    assert worst_id <= 1e-9, f"identity error {worst_id:.3e}"

    min_slack = np.inf
    for name, spec in specs.items():
        lat = spec.lattice(4)
        sol = solve_global(lat, spec, PicardConfig())
        for i in range(5):
            zrow = _zrow(sol, i, 4)
            row = sol.ytilde[i][i]
            for k in range(i + 1):
                _, val = best_rule(lat, spec, i, k, sol.y_diag, zrow)
                min_slack = min(min_slack, float(row[k]) - val)
    assert min_slack >= -1e-10, f"a rule beats the solver by {-min_slack:.3e}"
    print(f"\ncriterion 07 PASS: |J - E[Y]| <= {worst_id:.2e} at all anchors "
          f"(N=50), exhaustive dominance slack >= {min_slack:.2e} (N=4)")


def test_criterion_08_time_inconsistency_shows_where_expected(specs, solved50):
    # the anchor-coupled driver produces a strictly positive replanning
    # gap and moving frontiers; the classical put shows neither
    lat, sol = solved50["hyperbolic_discount"]
    rep = inconsistency_report(lat, specs["hyperbolic_discount"], sol)
    interior = [g for g in rep.gap[1:-1]]
    best = max(interior)
    assert best > 1e-9, f"no interior replanning gap (max {best:.3e})"
    assert not rep.frontiers_identical
    assert min(rep.gap) >= -1e-10

    lat_p, sol_p = solved50["american_put"]
    rep_p = inconsistency_report(lat_p, specs["american_put"], sol_p)
    assert rep_p.max_gap <= 1e-9, f"put gap {rep_p.max_gap:.3e}"
    assert rep_p.frontiers_identical
    print(f"\ncriterion 08 PASS: anchor-coupled gap {best:.2e} with moving "
          f"frontiers; put gaps <= {rep_p.max_gap:.2e} with one frontier")


def test_criterion_09_mc_agrees_with_lattice(specs, solved50):
    # regression MC at N=50 with 1e5 paths lands within 3 bootstrap
    # standard errors of the lattice start value on every instance,
    # deterministically, under 5 minutes
    start = time.monotonic()
    seed = 20260825
    zs = {}
    for name, spec in specs.items():
        lat, sol = solved50[name]
        bundle = mc.simulate(lat.grid, spec, 100_000, seed=seed)
        est = mc.solve_mc(bundle, spec, mc.RegressionBasis())
        gap = est.y0 - float(sol.y_diag[0][0])
        assert abs(gap) <= 3.0 * est.y0_se, (
            f"{name}: gap {gap:+.3e} exceeds 3 x SE {est.y0_se:.3e}")
        zs[name] = round(abs(gap) / est.y0_se, 2)
    elapsed = time.monotonic() - start

    spec = specs["american_put"]
    grid = TimeGrid(spec.horizon, 10)
    runs = []
    for _ in range(2):
        bundle = mc.simulate(grid, spec, 4_000, seed=123)
        runs.append(mc.solve_mc(bundle, spec, mc.RegressionBasis(), n_bootstrap=16))
    assert runs[0].y0 == runs[1].y0
    assert runs[0].y0_se == runs[1].y0_se
    assert runs[0].e_y_diag == runs[1].e_y_diag
    assert elapsed < 300.0, f"took {elapsed:.0f}s, budget 300s"
    print(f"\ncriterion 09 PASS: MC within 3 SE on all instances "
          f"(z-scores {zs}), bit-reproducible, {elapsed:.0f}s")


def test_criterion_10_fixed_point_independent_of_start(specs):
    # two distant initial guesses converge to the same diagonal within
    # twice the solver tolerance
    tol = 1e-10
    worst = 0.0
    for name, spec in specs.items():
        lat = spec.lattice(50)
        a = solve_global(lat, spec, init_diag=zero_diagonal(lat), tolerance=tol)
        b = solve_global(lat, spec, init_diag=constant_diagonal(lat, 5.0),
                         tolerance=tol)
        gap = max(float(np.max(np.abs(x - y)))
                  for x, y in zip(a.y_diag, b.y_diag))
        worst = max(worst, gap)
        assert gap <= 2 * tol, f"{name}: inits disagree by {gap:.3e}"
    print(f"\ncriterion 10 PASS: zero and constant-5 starts agree to "
          f"{worst:.2e} <= {2 * tol:.0e} on every instance")
