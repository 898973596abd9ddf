import csv
import json

import numpy as np
import pytest

from rbsvie import cli, instances
from rbsvie.grid import TimeGrid, build_lattice
from rbsvie.instances import catalog_instance
from rbsvie.snell import flatness_defect, solve_slice
from rbsvie.stopping import extract_frontier, frontier_rows
from rbsvie.volterra import solve


def _cfg(tmp_path, body, name="run.ini"):
    p = tmp_path / name
    p.write_text(body)
    return str(p)


def _run(*argv):
    return cli.main(list(argv))


def test_solve_writes_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, f"""[instance]
name = american_put

[grid]
N = 12

[output]
dir = {out}
""")
    assert _run("solve", "--config", cfg) == cli.EXIT_OK
    names = sorted(p.name for p in out.iterdir())
    assert names == ["frontier.csv", "solution.json", "y_diag.csv"]
    sol = json.loads((out / "solution.json").read_text())
    assert sol["engine"] == "lattice"
    assert sol["n_steps"] == 12
    assert len(sol["y_diag"]) == 13
    assert len(sol["y_diag"][5]) == 6
    assert sol["y0"] == sol["y_diag"][0][0]


def test_solution_json_roundtrip_passes_slice_audit(tmp_path):
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, f"""[instance]
name = hyperbolic_discount

[grid]
N = 16

[output]
dir = {out}
""")
    assert _run("solve", "--config", cfg) == cli.EXIT_OK
    sol = json.loads((out / "solution.json").read_text())
    spec = catalog_instance("hyperbolic_discount")
    grid = TimeGrid(sol["horizon"], sol["n_steps"])
    lat = build_lattice(grid, spec.x0, spec.dynamics)
    u = [np.asarray(row) for row in sol["y_diag"]]
    for i in range(sol["n_steps"] + 1):
        sl = solve_slice(lat, spec, i, u)
        # the stored diagonal is a fixed point of the one-step scheme
        assert np.max(np.abs(sl.diag - u[i])) < 5e-9
        assert flatness_defect(lat, spec, sl) <= 1e-14
        for j in range(i, sol["n_steps"] + 1):
            barrier = np.asarray(spec.obstacle(grid.t(j), lat.x[j]))
            assert np.all(sl.ytilde[j - i] >= barrier - 1e-12)


def test_csv_round_trip_full_precision(tmp_path):
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, f"""[instance]
name = american_put

[grid]
N = 9

[output]
dir = {out}
""")
    assert _run("solve", "--config", cfg) == cli.EXIT_OK
    sol = json.loads((out / "solution.json").read_text())
    with open(out / "y_diag.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == sum(i + 1 for i in range(10))
    for row in rows:
        i = round(float(row["anchor_time"]) / (1.0 / 9))
        k = int(row["node_index"])
        assert float(row["y"]) == sol["y_diag"][i][k]
    # every float field is the repr of the in-memory value
    spec = catalog_instance("american_put")
    lat = spec.lattice(9)
    mem = solve(lat, spec)
    want = [[repr(lat.grid.t(i)), str(k), repr(float(lat.x[i][k])),
             repr(float(mem.y_diag[i][k]))] for i in range(10) for k in range(i + 1)]
    assert [list(row.values()) for row in rows] == want


def test_frontier_csv_matches_summary(tmp_path):
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, f"""[instance]
name = american_put

[grid]
N = 10

[output]
dir = {out}
""")
    assert _run("solve", "--config", cfg) == cli.EXIT_OK
    sol = json.loads((out / "solution.json").read_text())
    with open(out / "frontier.csv") as fh:
        rows = [list(row.values()) for row in csv.DictReader(fh)]
    spec = catalog_instance("american_put")
    lat = spec.lattice(10)
    want = frontier_rows(extract_frontier(solve(lat, spec), lat, spec), lat)
    assert rows == [[repr(v) for v in row] for row in want]
    assert len(rows) == sol["frontier"]["n_rows"]


def test_lattice_artifacts_byte_identical(tmp_path):
    cfg = _cfg(tmp_path, """[instance]
name = linear_z

[grid]
N = 14
""")
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run("solve", "--config", cfg, "--out", str(a)) == cli.EXIT_OK
    assert _run("solve", "--config", cfg, "--out", str(b)) == cli.EXIT_OK
    for name in ("solution.json", "y_diag.csv", "frontier.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_mc_engine_artifacts_and_determinism(tmp_path):
    cfg = _cfg(tmp_path, """[instance]
name = american_put

[grid]
N = 8

[mc]
n_paths = 3000
seed = 11
""")
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run("solve", "--config", cfg, "--engine", "mc", "--out", str(a)) == cli.EXIT_OK
    assert _run("solve", "--config", cfg, "--engine", "mc", "--out", str(b)) == cli.EXIT_OK
    for name in ("solution.json", "y_diag.csv", "frontier.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    sol = json.loads((a / "solution.json").read_text())
    assert sol["engine"] == "mc"
    assert sol["y0_se"] > 0.0
    assert sol["metadata"]["generator"] == "numpy-pcg64"
    assert sol["floor_margin"] >= 0.0
    with open(a / "y_diag.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 9
    assert all(r["node_index"] == "" and r["state"] == "" for r in rows)


@pytest.mark.parametrize("body", [
    "[instance]\nname = nonexistent\n",
    "[instance]\nname = american_put\nstrike = abc\n",
    "[instance]\nname = american_put\nwidth = 2\n",
    "[instance]\nname = american_put\n\n[gird]\nN = 5\n",
    "[instance]\nname = american_put\n\n[grid]\nN = 0\n",
    "[instance]\nname = american_put\n\n[grid]\nradius = 3\n",
    "[instance]\nname = american_put\n\n[picard]\nmode = sideways\n",
    "[instance]\nname = american_put\n\n[picard]\ntolerance = 0\n",
    "[instance]\nname = american_put\nhorizon = 2\n\n[grid]\nT = 1\n",
    "[grid]\nN = 5\n",
    "[instance]\nname = american_put\n\n[mc]\nseed = -1\n",
    "[instance]\nname = american_put\n\n[mc]\nbasis_family = spline\n",
    "[instance]\nname = american_put\n\n[mc]\nbasis_degree = 0\n",
    "[instance]\nname = american_put\n\n[mc]\nn_paths = 10\n",
])
def test_malformed_config_exits_one_without_artifacts(tmp_path, body, capsys):
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, body + f"\n[output]\ndir = {out}\n")
    assert _run("solve", "--config", cfg) == cli.EXIT_CONFIG
    assert not out.exists()
    assert "config error" in capsys.readouterr().err


def test_missing_config_file_exits_one(tmp_path):
    assert _run("solve", "--config", str(tmp_path / "nope.ini")) == cli.EXIT_CONFIG


def test_usage_errors_exit_one():
    assert _run("solve") == cli.EXIT_CONFIG
    assert _run("frobnicate", "--config", "x") == cli.EXIT_CONFIG


def test_no_convergence_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, f"""[instance]
name = linear_z

[grid]
N = 10

[picard]
max_iters = 1

[output]
dir = {out}
""")
    assert _run("solve", "--config", cfg) == cli.EXIT_NO_CONVERGENCE
    assert not (out / "solution.json").exists()
    assert "no convergence" in capsys.readouterr().err


def test_oracle_check_small_grid_passes(tmp_path):
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, f"""[instance]
name = hyperbolic_discount

[grid]
N = 4

[output]
dir = {out}
""")
    assert _run("oracle-check", "--config", cfg) == cli.EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    assert rep["max_abs_error"] <= 1e-10
    assert rep["nodes_checked"] == 15


def test_oracle_check_refuses_large_grid(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, f"""[instance]
name = hyperbolic_discount

[grid]
N = 30

[output]
dir = {out}
""")
    assert _run("oracle-check", "--config", cfg) == cli.EXIT_CONFIG
    assert not out.exists()
    assert "interior nodes" in capsys.readouterr().err


def test_oracle_check_max_n_caps_grid(tmp_path):
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, f"""[instance]
name = american_put

[grid]
N = 30

[output]
dir = {out}
""")
    assert _run("oracle-check", "--config", cfg, "--max-n", "3") == cli.EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    assert rep["n_steps"] == 3


def test_compare_ordered_pair(tmp_path):
    out = tmp_path / "out"
    lo = _cfg(tmp_path, f"""[instance]
name = american_put
strike = 0.9

[grid]
N = 12

[output]
dir = {out}
""", name="lo.ini")
    hi = _cfg(tmp_path, """[instance]
name = american_put
strike = 1.0

[grid]
N = 12
""", name="hi.ini")
    assert _run("compare", "--config", lo, "--config", hi) == cli.EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    assert rep["ordered"]
    assert rep["max_diff"] <= 1e-9
    assert rep["low_params"]["strike"] == 0.9
    assert "terminal" in rep["ordering_witnesses"]


def test_compare_rejects_reversed_pair(tmp_path, capsys):
    lo = _cfg(tmp_path, "[instance]\nname = american_put\nstrike = 1.0\n\n[grid]\nN = 8\n", name="lo.ini")
    hi = _cfg(tmp_path, "[instance]\nname = american_put\nstrike = 0.9\n\n[grid]\nN = 8\n", name="hi.ini")
    assert _run("compare", "--config", lo, "--config", hi) == cli.EXIT_CONFIG
    assert "pair rejected" in capsys.readouterr().err


def test_compare_rejects_obstacle_only_pair_on_anchor_coupled_driver(tmp_path, capsys):
    # this pair would solve to max(Y_lo - Y_hi) > 0: the gate refuses it
    # before anything is written
    out = tmp_path / "out"
    lo = _cfg(tmp_path, "[instance]\nname = hyperbolic_discount\nobstacle_gap = 0.2\n\n"
                        "[grid]\nN = 50\n", name="lo.ini")
    hi = _cfg(tmp_path, "[instance]\nname = hyperbolic_discount\nobstacle_gap = 0.1\n\n"
                        "[grid]\nN = 50\n", name="hi.ini")
    assert _run("compare", "--config", lo, "--config", hi, "--out", str(out)) == cli.EXIT_CONFIG
    assert "pair rejected" in capsys.readouterr().err
    assert not out.exists()


def test_compare_needs_two_configs(tmp_path, capsys):
    cfg = _cfg(tmp_path, "[instance]\nname = american_put\n")
    assert _run("compare", "--config", cfg) == cli.EXIT_CONFIG
    assert "two --config" in capsys.readouterr().err


def test_stop_reports_hyperbolic_inconsistency(tmp_path):
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, f"""[instance]
name = hyperbolic_discount

[grid]
N = 20

[output]
dir = {out}
""")
    assert _run("stop", "--config", cfg) == cli.EXIT_OK
    rep = json.loads((out / "inconsistency.json").read_text())
    assert rep["inconsistent"]
    assert rep["max_gap"] > 1e-6
    assert not rep["frontiers_identical"]
    assert rep["premature_increment_mass"] == 0.0
    assert rep["max_identity_error"] <= 1e-9


def test_stop_put_is_consistent(tmp_path):
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, f"""[instance]
name = american_put

[grid]
N = 20

[output]
dir = {out}
""")
    assert _run("stop", "--config", cfg) == cli.EXIT_OK
    rep = json.loads((out / "inconsistency.json").read_text())
    assert not rep["inconsistent"]
    assert rep["frontiers_identical"]


def test_verify_assumptions_ok(tmp_path):
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, f"""[instance]
name = custom_affine

[grid]
N = 16

[output]
dir = {out}
""")
    assert _run("verify-assumptions", "--config", cfg) == cli.EXIT_OK
    rep = json.loads((out / "report.json").read_text())
    assert rep["ok"]
    assert rep["violations"] == []


def test_verify_assumptions_breach_exits_three(tmp_path, capsys):
    # a negative gap puts the obstacle above the terminal value
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, f"""[instance]
name = hyperbolic_discount
obstacle_gap = -0.5

[grid]
N = 12

[output]
dir = {out}
""")
    assert _run("verify-assumptions", "--config", cfg) == cli.EXIT_VERIFICATION
    rep = json.loads((out / "report.json").read_text())
    assert not rep["ok"]
    assert any(v["kind"] == "terminal_domination" for v in rep["violations"])
    assert "verification failure" in capsys.readouterr().err


def test_windowed_mode_through_config(tmp_path):
    # old configs that chose the retired windowed driver still run, and
    # give the same diagonal as global ones: the sweep reads neither key
    body = """[instance]
name = american_put

[grid]
N = 24

[picard]
mode = {mode}
{extra}"""
    outs = {}
    for mode, extra in (("windowed", "delta = 0.25\n"), ("global", "")):
        outs[mode] = tmp_path / mode
        cfg = _cfg(tmp_path, body.format(mode=mode, extra=extra), name=f"{mode}.ini")
        assert _run("solve", "--config", cfg, "--out", str(outs[mode])) == cli.EXIT_OK
    assert (outs["windowed"] / "y_diag.csv").read_bytes() == \
        (outs["global"] / "y_diag.csv").read_bytes()
    sol = json.loads((outs["windowed"] / "solution.json").read_text())
    assert len(sol["residual_history"]) == 1 and sol["residual_history"][0] <= 1e-14


@pytest.mark.parametrize("engine", ["lattice", "mc"])
def test_picard_tolerance_is_accepted_and_ignored(tmp_path, engine):
    # both sweeps are exact, so a loose tolerance changes no output byte
    body = "[instance]\nname = linear_z\n\n[grid]\nN = 8\n\n[mc]\nn_paths = 2000\n{extra}"
    outs = []
    for k, extra in enumerate(("", "\n[picard]\ntolerance = 0.1\n")):
        outs.append(tmp_path / f"run{k}")
        cfg = _cfg(tmp_path, body.format(extra=extra), name=f"run{k}.ini")
        assert _run("solve", "--config", cfg, "--engine", engine,
                    "--out", str(outs[k])) == cli.EXIT_OK
    for name in ("solution.json", "y_diag.csv", "frontier.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("body, flags", [
    ("[picard]\ndelta = -1\n", ()),
    ("[picard]\ndelta = 0\n", ()),
    ("", ("--max-n", "0")),
])
def test_infeasible_request_exits_one_without_artifacts(tmp_path, body, flags, capsys):
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, "[instance]\nname = american_put\n\n[grid]\nN = 8\n\n" + body)
    assert _run("solve", "--config", cfg, "--out", str(out), *flags) == cli.EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "stop", "compare"])
def test_stored_fields_beyond_memory_exit_one_before_any_work(tmp_path, command, capsys,
                                                              monkeypatch):
    # N = 100000 stores about 2.7e16 bytes of fields per solution:
    # refused before the lattice is built or --out is made
    def no_lattice(*args):
        raise AssertionError("lattice built")
    monkeypatch.setattr(cli, "build_lattice", no_lattice)
    out = tmp_path / "out"
    n = 100000
    cfg = _cfg(tmp_path, f"[instance]\nname = american_put\n\n[grid]\nN = {n}\n")
    solutions = 2 if command == "compare" else 1
    assert _run(command, *("--config", cfg) * solutions, "--out", str(out)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err

    def squares(m):
        return m * (m + 1) * (2 * m + 1) // 6
    need = solutions * 8 * (squares(n + 1) + 2 * squares(n))
    assert "config error:" in err and f"need {need} bytes" in err
    assert "bytes of physical memory" in err
    assert not out.exists()


def test_lattice_built_only_where_read(tmp_path, monkeypatch):
    built = []

    def counting(grid, x0, dyn):
        built.append(grid.n_steps)
        return build_lattice(grid, x0, dyn)
    monkeypatch.setattr(cli, "build_lattice", counting)
    monkeypatch.setattr(instances, "build_lattice", counting)
    lo = _cfg(tmp_path, "[instance]\nname = american_put\nstrike = 0.9\n\n[grid]\nN = 6\n",
              name="lo.ini")
    hi = _cfg(tmp_path, "[instance]\nname = american_put\n\n[grid]\nN = 6\n\n"
                        "[mc]\nn_paths = 2000\n", name="hi.ini")
    runs = [("compare", "--config", lo, "--config", hi), ("verify-assumptions", "--config", hi),
            ("solve", "--config", hi, "--engine", "mc")]
    for argv in runs:
        built.clear()
        assert _run(*argv, "--out", str(tmp_path / argv[0])) == cli.EXIT_OK
        assert built == ([] if argv[-1] == "mc" else [6]), argv[0]


@pytest.mark.parametrize("params, message", [
    # the lattice state overflows: a grid error
    ("x0 = 1e308\nsigma = 1e308\n", "non-finite state"),
    # an infinite terminal value reaches the sweep, which says where
    ("x0 = 1e308\nterminal_scale = 10\n", "anchor 0, layer 4"),
])
def test_grid_and_solver_errors_are_config_errors(tmp_path, params, message, capsys):
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, "[instance]\nname = hyperbolic_discount\n" + params
               + "\n[grid]\nN = 4\n")
    assert _run("solve", "--config", cfg, "--out", str(out)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and message in err


def test_inner_equation_failure_exits_two_naming_anchor_and_layer(tmp_path, capsys):
    # b dt = 2: anchor N-1's per-node map expands and cannot settle
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, """[instance]
name = linear_z
b = 20

[grid]
N = 10
""")
    assert _run("solve", "--config", cfg, "--out", str(out)) == cli.EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert "no convergence" in err and "anchor 9, layer 9" in err
    assert not (out / "solution.json").exists()


def test_mc_inner_equation_failure_exits_two_naming_anchor_and_layer(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, """[instance]
name = linear_z
b = 20

[grid]
N = 10

[mc]
n_paths = 500
""")
    assert _run("solve", "--config", cfg, "--engine", "mc",
                "--out", str(out)) == cli.EXIT_NO_CONVERGENCE
    err = capsys.readouterr().err
    assert "no convergence: mc" in err and "anchor 9, layer 9" in err
    assert not (out / "solution.json").exists()


def test_mc_non_finite_row_exits_one_naming_anchor_and_layer(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, """[instance]
name = hyperbolic_discount
x0 = 1e308
terminal_scale = 10

[grid]
N = 4

[mc]
n_paths = 500
""")
    assert _run("solve", "--config", cfg, "--engine", "mc",
                "--out", str(out)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: mc" in err and "anchor 0, layer 4" in err
    assert not (out / "solution.json").exists()
