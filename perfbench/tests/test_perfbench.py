"""Tests of the benchmark itself: reference, checks, tracer and tiny runs.

Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import diagonal_sweep  # noqa: E402

cli = run.import_cli()

from rbsvie.instances import CATALOG_NAMES, catalog_instance  # noqa: E402
from rbsvie.volterra import PicardConfig, solve  # noqa: E402


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_reference_sweep_matches_picard(name):
    spec = catalog_instance(name)
    for n in (1, 4, 25):
        sol = solve(spec.lattice(n), spec, PicardConfig())
        ref = diagonal_sweep(spec, n)
        err = max(float(np.max(np.abs(a - b))) for a, b in zip(sol.y_diag, ref.y))
        assert err <= checks.DIAG_TOL, f"{name} N={n}: {err:.3e}"


def _run_cmd(cmd, tmp_path):
    [cfg] = workloads.write_configs([cmd], tmp_path / "cfg")
    out = tmp_path / "out"
    assert cli.main(cmd.argv(cfg, out)) == 0
    return out


def _tiny(workload, k):
    return workloads.commands(workload, seed=5, size="tiny")[k]


def test_shifted_y_diag_fails_check(tmp_path):
    cmd = _tiny("lattice-solve", 0)
    out = _run_cmd(cmd, tmp_path)
    assert checks.check_command(cmd, out) == []
    lines = (out / "y_diag.csv").read_text().splitlines()
    t, node, state, y = lines[7].split(",")
    lines[7] = ",".join([t, node, state, repr(float(y) + 1e-8)])
    (out / "y_diag.csv").write_text("\n".join(lines) + "\n")
    assert any("reference sweep" in p for p in checks.check_command(cmd, out))


def test_moved_frontier_row_fails_check(tmp_path):
    cmd = _tiny("lattice-solve", 0)
    out = _run_cmd(cmd, tmp_path)
    lines = (out / "frontier.csv").read_text().splitlines()
    ti, tj, lo, hi = lines[1].split(",")
    lines[1] = ",".join([ti, tj, repr(float(lo) - 0.5), hi])
    (out / "frontier.csv").write_text("\n".join(lines) + "\n")
    assert any("frontier row" in p for p in checks.check_command(cmd, out))


@pytest.mark.parametrize("field,delta", [("e_y", 1e-8), ("gap", -1e-7)])
def test_perturbed_stop_report_fails_check(tmp_path, field, delta):
    cmd = _tiny("stop-report", 1)
    out = _run_cmd(cmd, tmp_path)
    assert checks.check_command(cmd, out) == []
    path = out / "inconsistency.json"
    rep = json.loads(path.read_text())
    rep[field][2] += delta
    path.write_text(json.dumps(rep))
    assert checks.check_command(cmd, out)


def test_restarted_rule_value_is_checked_against_the_reference(tmp_path):
    cmd = _tiny("stop-report", 1)
    out = _run_cmd(cmd, tmp_path)
    path = out / "inconsistency.json"
    rep = json.loads(path.read_text())
    # keep gap = j_own - j_restarted and every gap positive
    rep["j_restarted"][2] -= 1e-7
    rep["gap"][2] += 1e-7
    rep["frontiers_identical"] = not rep["frontiers_identical"]
    path.write_text(json.dumps(rep))
    problems = checks.check_command(cmd, out)
    assert any("restarted-rule value" in p for p in problems)
    assert any("reference stop regions" in p for p in problems)


def test_mc_estimate_off_by_four_se_fails_check(tmp_path):
    cmd = _tiny("mc-crosscheck", 0)
    out = _run_cmd(cmd, tmp_path)
    assert checks.check_command(cmd, out) == []
    path = out / "solution.json"
    sol = json.loads(path.read_text())
    sol["y0"] += 4 * sol["y0_se"]
    path.write_text(json.dumps(sol))
    assert any("x SE" in p for p in checks.check_command(cmd, out))


def test_same_seed_same_inputs():
    for w in workloads.WORKLOADS:
        a = [c.config_text() for c in workloads.commands(w, 7)]
        assert a == [c.config_text() for c in workloads.commands(w, 7)]
        assert a != [c.config_text() for c in workloads.commands(w, 8)]


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_completes_in_seconds(workload):
    t0 = time.monotonic()
    plain, _ = run.run(workload, seed=3, seconds=0.1, trace=False, size="tiny")
    traced = [run.run(workload, seed=3, seconds=0.1, trace=True, size="tiny")[0]
              for _ in range(2)]
    assert time.monotonic() - t0 < 60
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 4
    assert set(plain["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    for res in traced:
        assert res["correct"] and res["failed"] == 0
        assert set(res["metrics"]) == set(run.PER_LAYER)
    # counts repeat exactly from run to run
    counts = [{k: m["value"] for k, m in res["metrics"].items() if m["unit"] != "s"}
              for res in traced]
    assert counts[0] == counts[1]


def test_stop_extracts_the_frontier_twice_per_command():
    res, _ = run.run("stop-report", seed=3, seconds=0.1, trace=True, size="tiny")
    assert res["metrics"]["stopping.extract_frontier_calls"]["value"] == 2 * 2


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lattice-solve", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
