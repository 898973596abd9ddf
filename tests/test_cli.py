import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rbsvie import cli, instances, mc
from rbsvie.grid import TimeGrid, build_lattice
from rbsvie.instances import CATALOG_NAMES, DriverSpec, catalog_instance
from rbsvie.snell import flatness_defect, solve_slice
from rbsvie.stopping import frontier_rows
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


def test_one_parser_serves_every_command_in_a_process(tmp_path, capsys):
    # the parser is built on the first call and reused: each call still
    # dispatches its own subcommand, --config does not collect values across
    # calls (compare needs exactly two), and a bad argv leaves it usable
    lo = _cfg(tmp_path, "[instance]\nname = american_put\nstrike = 0.9\n\n[grid]\nN = 6\n",
              name="lo.ini")
    hi = _cfg(tmp_path, "[instance]\nname = american_put\n\n[grid]\nN = 6\n", name="hi.ini")
    cli.build_parser.cache_clear()
    runs = [(("solve", "--config", hi), ["frontier.csv", "solution.json", "y_diag.csv"]),
            (("compare", "--config", lo, "--config", hi), ["report.json"]),
            (("no-such-command",), None),
            (("solve", "--max-n"), None),
            (("compare", "--config", lo, "--config", hi), ["report.json"]),
            (("stop", "--config", hi), ["inconsistency.json"])]
    for k, (argv, artifacts) in enumerate(runs):
        out = tmp_path / f"out{k}"
        code = _run(*argv, "--out", str(out))
        if artifacts is None:
            assert code == cli.EXIT_CONFIG and not out.exists(), argv
        else:
            assert code == cli.EXIT_OK, argv
            assert sorted(p.name for p in out.iterdir()) == artifacts, argv
    assert "invalid choice" in capsys.readouterr().err
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, len(runs) - 1)


def test_importing_the_cli_builds_no_parser():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", "from rbsvie import cli; "
                          "print(cli.build_parser.cache_info().currsize)"],
                         capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 0 and res.stdout.split() == ["0"], res.stdout + res.stderr


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
    want = frontier_rows(lat, spec, solve(lat, spec))
    assert rows == [[repr(v) for v in row] for row in want.tolist()]
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


@pytest.mark.parametrize("family, message", [
    ("pwlinear", "mc layer 9: bootstrap replicate 13: singular weighted gram"),
    ("polynomial", "mc layer 2: rank-deficient regression"),
])
def test_mc_regression_failure_exits_one_naming_the_layer(tmp_path, capsys, family, message):
    # 40 paths pass the n_paths >= 2 dim check for 17 columns, but a
    # resample or the path cloud itself leaves a gram singular
    cfg = _cfg(tmp_path, "[instance]\nname = american_put\n\n[grid]\nN = 10\n\n"
                         "[mc]\nn_paths = 40\nseed = 1\n"
                         f"basis_family = {family}\nbasis_degree = 15\n")
    assert _run("solve", "--config", cfg, "--engine", "mc",
                "--out", str(tmp_path / "out")) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "Traceback" not in err


Y_HEADER =("anchor_time", "node_index", "state", "y")
F_HEADER = ("anchor_time", "time", "critical_state_low", "critical_state_high")


def _render(payload, y_rows, f_rows) -> dict:
    """The artifact byte contract: json.dump(indent=2, sort_keys=True) plus a
    newline, and csv.writer with "\\n" line endings (floats go through repr)."""
    files = {}
    buf = io.StringIO()
    json.dump(payload, buf, indent=2, sort_keys=True)
    files["solution.json"] = buf.getvalue() + "\n"
    for name, header, rows in (("y_diag.csv", Y_HEADER, y_rows),
                               ("frontier.csv", F_HEADER, f_rows)):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        files[name] = buf.getvalue()
    return files


def _written(out: Path) -> dict:
    return {name: (out / name).read_text() for name in ("solution.json", "y_diag.csv",
                                                        "frontier.csv")}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_lattice_artifacts_render_the_in_memory_solution(tmp_path, name):
    n = 9
    cfg = _cfg(tmp_path, f"[instance]\nname = {name}\n\n[grid]\nN = {n}\n")
    assert _run("solve", "--config", cfg, "--out", str(tmp_path / "out")) == cli.EXIT_OK
    spec = catalog_instance(name)
    lat = spec.lattice(n)
    sol = solve(lat, spec)
    grid = lat.grid
    y_diag = [row.tolist() for row in sol.y_diag]
    f_rows = frontier_rows(lat, spec, sol)
    payload = {
        "y_diag": y_diag,
        "y0": y_diag[0][0],
        "engine": "lattice",
        "instance": spec.label,
        "n_steps": n,
        "horizon": grid.horizon,
        "residual_history": [float(r) for r in sol.residual_history],
        "frontier": {"n_rows": len(f_rows)},
    }
    y_rows = [(grid.t(i), k, x, y) for i, ys in enumerate(y_diag)
              for k, (x, y) in enumerate(zip(lat.x[i].tolist(), ys))]
    assert _written(tmp_path / "out") == _render(payload, y_rows, f_rows.tolist())


def test_mc_artifacts_render_the_in_memory_solution(tmp_path):
    cfg = _cfg(tmp_path, "[instance]\nname = hyperbolic_discount\n\n[grid]\nN = 7\n\n"
                         "[mc]\nn_paths = 1500\nseed = 5\n")
    assert _run("solve", "--config", cfg, "--engine", "mc",
                "--out", str(tmp_path / "out")) == cli.EXIT_OK
    rc = cli.load_config(cfg, None)
    spec, grid = rc.spec, rc.grid
    sol = mc.solve_mc(mc.simulate(grid, spec, rc.n_paths, rc.seed), spec, rc.basis, rc.max_iters)
    f_rows = sol.frontier_rows
    payload = {
        "y_diag": sol.e_y_diag,
        "y0": sol.y0,
        "y0_se": sol.y0_se,
        "floor_margin": sol.floor_margin,
        "metadata": sol.metadata,
        "engine": "mc",
        "instance": spec.label,
        "n_steps": grid.n_steps,
        "horizon": grid.horizon,
        "residual_history": [float(r) for r in sol.residual_history],
        "frontier": {"n_rows": len(f_rows)},
    }
    # one mean per anchor: node and state stay empty
    y_rows = [(grid.t(i), "", "", y) for i, y in enumerate(sol.e_y_diag)]
    assert len(f_rows)
    assert _written(tmp_path / "out") == _render(payload, y_rows, f_rows.tolist())


# floats whose repr is easy to get wrong: signed zeros, the smallest
# subnormal, both sides of repr's switches to exponent form at 1e-4 and
# 1e16, integral values and values that need all 17 digits
EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1e-4, 9.999999999999999e-05, 1e-05,
               0.00010000000000000002, 1e16, 9999999999999998.0, 1e17,
               1.0000000000000002e16, 2.0, -3.0, 1e22, 0.1, 1 / 3, -2.2250738585072014e-308)
_floats = st.one_of(st.sampled_from(EDGE_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_writer_renders_edge_floats_like_json_and_csv(data):
    n = data.draw(st.integers(0, 4), label="n")  # n = 0: one one-node layer
    times = data.draw(st.lists(_floats, min_size=n + 1, max_size=n + 1), label="times")
    if data.draw(st.booleans(), label="mc"):
        y_diag = data.draw(st.lists(_floats, min_size=n + 1, max_size=n + 1), label="y")
        states = None
        y_rows = [(t, "", "", y) for t, y in zip(times, y_diag)]
        y_json = y_diag
    else:
        y_json = [data.draw(st.lists(_floats, min_size=i + 1, max_size=i + 1)) for i in range(n + 1)]
        x = [data.draw(st.lists(_floats, min_size=i + 1, max_size=i + 1)) for i in range(n + 1)]
        y_diag, states = [np.array(v) for v in y_json], [np.array(v) for v in x]
        y_rows = [(times[i], k, x[i][k], y_json[i][k]) for i in range(n + 1) for k in range(i + 1)]
    # frontier entries reuse times and states, as the solver's rows do, or are new
    pool = times + ([v for row in states for v in row.tolist()] if states else [])
    value = st.one_of(st.sampled_from(pool), _floats)
    n_rows = data.draw(st.integers(0, 3 * n + 4), label="n_rows")
    f_rows = np.array(data.draw(st.lists(value, min_size=4 * n_rows, max_size=4 * n_rows),
                                label="frontier"), dtype=float).reshape(n_rows, 4)
    # "zeta" sorts after "y_diag": the block must land at its sorted position
    payload = {"y0": 1.5, "engine": "x", "frontier": {"n_rows": len(f_rows)}, "zeta": [-0.0]}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        cli._write_solve(out, payload, times, y_diag, states, f_rows)
        assert _written(out) == _render({**payload, "y_diag": y_json}, y_rows, f_rows.tolist())


def _write_json_text(obj) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        cli._write_json(path, obj)
        return path.read_text()


def _json_dumped(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# one payload of each report command's shape, with edge floats in its lists
JSON_PAYLOADS = {
    "stop": {
        "command": "stop", "instance": "hyperbolic_discount", "n_steps": 3,
        "anchor_times": [0.0, 1 / 3, 2 / 3, 1.0], "e_y": list(EDGE_FLOATS[:4]),
        "j_own": list(EDGE_FLOATS[4:8]), "j_restarted": list(EDGE_FLOATS[8:12]),
        "gap": [0.0, -0.0, 1e-17, 3.0], "max_gap": 3.0, "frontiers_identical": False,
        "inconsistent": True, "max_identity_error": 5e-324,
        "premature_increment_mass": 0.0,
    },
    "compare": {
        "command": "compare", "low": "american_put(K=0.9)", "high": "american_put(K=1)",
        "low_params": {"strike": 0.9}, "high_params": {"strike": 1.0, "rate": 0.05},
        "n_steps": 8, "ordering_witnesses": [], "max_diff": -1e-3, "ordered": True,
        "witness": None, "driver_ordering_ok": True, "y_range": [-0.0, 0.1],
        "z_range": [-2.2250738585072014e-308, 1e22],
    },
    "oracle-check": {
        "command": "oracle-check", "instance": "linear_z", "n_steps": 2,
        "tolerance": 1e-10, "max_abs_error": 1e-16, "nodes_checked": 2,
        "deviations": [
            {"anchor": 0, "node": 0, "solver": 0.5, "exhaustive": 0.5, "abs_error": 0.0},
            {"anchor": 1, "node": 1, "solver": 1 / 3, "exhaustive": 0.3333333333333333,
             "abs_error": 1e-16},
        ],
    },
    "verify-assumptions": {
        "command": "verify-assumptions", "instance": "custom_affine", "n_steps": 50,
        "samples": 400, "ok": False, "lipschitz_ratio": 0.99, "holder_ratio": 1e-4,
        "violations": [{"kind": "broadcast", "detail": "result shape (51,) \"x\"\n"}],
    },
}


@pytest.mark.parametrize("command", sorted(JSON_PAYLOADS))
def test_report_writer_equals_json_dump(command):
    assert _write_json_text(JSON_PAYLOADS[command]) == _json_dumped(JSON_PAYLOADS[command])


@pytest.mark.parametrize("argv, report", [
    (("stop",), "inconsistency.json"),
    (("compare", "--config", "{cfg}"), "report.json"),
    (("oracle-check",), "report.json"),
    (("verify-assumptions",), "report.json"),
])
def test_report_files_equal_json_dump_of_their_payload(tmp_path, argv, report):
    cfg = _cfg(tmp_path, "[instance]\nname = hyperbolic_discount\n\n[grid]\nN = 5\n")
    out = tmp_path / "out"
    argv = [a.format(cfg=cfg) for a in argv]
    assert _run(argv[0], "--config", cfg, *argv[1:], "--out", str(out)) == cli.EXIT_OK
    text = (out / report).read_text()
    assert text == _json_dumped(json.loads(text))


_payload_leaf = st.one_of(st.none(), st.booleans(), st.integers(-5, 5), st.text(max_size=3),
                       _floats, st.sampled_from([np.nan, np.inf, -np.inf]))
_payload_value = st.one_of(
    _payload_leaf,
    # float lists, with NaN and the infinities json spells NaN, Infinity
    st.lists(st.one_of(_floats, st.sampled_from([np.nan, np.inf, -np.inf])), max_size=6),
    st.lists(_floats.map(np.float64), min_size=1, max_size=4),
    st.lists(_payload_leaf, max_size=4),
    st.dictionaries(st.text(max_size=3), st.lists(_floats, max_size=3), max_size=3))


@settings(max_examples=200, deadline=None)
@given(obj=st.dictionaries(st.text(min_size=1, max_size=6), _payload_value, min_size=1,
                           max_size=6))
def test_report_writer_equals_json_dump_on_any_payload(obj):
    assert _write_json_text(obj) == _json_dumped(obj)


def test_verify_assumptions_flags_a_driver_that_folds_the_anchor_axis(tmp_path, monkeypatch):
    _fold_driver(monkeypatch)
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, "[instance]\nname = hyperbolic_discount\n\n[grid]\nN = 10\n")
    assert _run("verify-assumptions", "--config", cfg, "--out", str(out)) == cli.EXIT_VERIFICATION
    rep = json.loads((out / "report.json").read_text())
    assert not rep["ok"]
    assert [v["kind"] for v in rep["violations"]] == ["broadcast"]
    assert "(anchors, nodes) = (11, 6)" in rep["violations"][0]["detail"]


@pytest.mark.parametrize("body, message", [
    ("[instance]\nname = nonexistent\n", "unknown instance 'nonexistent'"),
    ("[instance]\nname = american_put\nstrike = abc\n",
     "instance.strike must be a number, got 'abc'"),
    ("[instance]\nname = american_put\nwidth = 2\n", "unknown parameters"),
    ("[instance]\nname = american_put\n\n[gird]\nN = 5\n", "unknown config section [gird]"),
    ("[instance]\nname = american_put\n\n[grid]\nN = 0\n", "grid.N must be >= 1, got 0"),
    # the grid keys are named as documented, not as configparser stores them
    ("[instance]\nname = american_put\n\n[grid]\nN = 1.5\n",
     "grid.N must be an integer, got '1.5'"),
    ("[instance]\nname = american_put\n\n[grid]\nT = x\n", "grid.T must be a number, got 'x'"),
    ("[instance]\nname = american_put\n\n[grid]\nradius = 3\n", "unknown key grid.radius"),
    ("[instance]\nname = american_put\n\n[picard]\nmode = sideways\n",
     "picard.mode must be global, got 'sideways'"),
    # the retired Picard loops' keys and mode
    ("[instance]\nname = american_put\n\n[picard]\nmode = windowed\n",
     "picard.mode must be global, got 'windowed'"),
    ("[instance]\nname = american_put\n\n[picard]\ntolerance = 0.1\n",
     "unknown key picard.tolerance"),
    ("[instance]\nname = american_put\n\n[picard]\ndelta = 0.25\n", "unknown key picard.delta"),
    ("[instance]\nname = american_put\n\n[picard]\ndelta = -1\n", "unknown key picard.delta"),
    ("[instance]\nname = american_put\n\n[picard]\ndelta = 0\n", "unknown key picard.delta"),
    ("[instance]\nname = american_put\nhorizon = 2\n\n[grid]\nT = 1\n",
     "either grid.T or instance.horizon"),
    ("[grid]\nN = 5\n", "config needs an [instance] section"),
    ("[instance]\nname = american_put\n\n[mc]\nseed = -1\n", "mc.seed must be >= 0"),
    ("[instance]\nname = american_put\n\n[mc]\nbasis_family = spline\n",
     "unknown basis family 'spline'"),
    ("[instance]\nname = american_put\n\n[mc]\nbasis_degree = 0\n", "degree must be >= 1"),
    ("[instance]\nname = american_put\n\n[mc]\nn_paths = 10\n", "mc.n_paths must be >= 20"),
])
def test_malformed_config_exits_one_without_artifacts(tmp_path, body, message, capsys):
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, body + f"\n[output]\ndir = {out}\n")
    assert _run("solve", "--config", cfg) == cli.EXIT_CONFIG
    assert not out.exists()
    err = capsys.readouterr().err
    assert "config error" in err and message in err


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


@pytest.mark.parametrize("lo_iters, hi_iters, code", [
    (20, 2000, cli.EXIT_CONFIG), (2000, 20, cli.EXIT_CONFIG), (2000, 2000, cli.EXIT_OK)])
def test_compare_needs_both_configs_on_one_max_iters(tmp_path, capsys, lo_iters, hi_iters, code):
    # at rho0 = 95 and N = 100 the per-node equation needs more than 20
    # iterations, so a sweep bounded by either side's cap alone would pass or
    # fail with the order of the configs; differing caps are refused first
    out = tmp_path / "out"
    lo, hi = (_cfg(tmp_path, "[instance]\nname = hyperbolic_discount\nrho0 = 95\n\n"
                             f"[grid]\nN = 100\n\n[picard]\nmax_iters = {iters}\n",
                   name=f"{side}.ini")
              for side, iters in (("lo", lo_iters), ("hi", hi_iters)))
    assert _run("compare", "--config", lo, "--config", hi, "--out", str(out)) == code
    if code == cli.EXIT_CONFIG:
        assert "same picard.max_iters" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert json.loads((out / "report.json").read_text())["ordered"]


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


def test_infeasible_request_exits_one_without_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, "[instance]\nname = american_put\n\n[grid]\nN = 8\n")
    assert _run("solve", "--config", cfg, "--out", str(out), "--max-n", "0") == cli.EXIT_CONFIG
    assert "config error: --max-n must be >= 1, got 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("below", ["", "x"])
@pytest.mark.parametrize("command", ["solve", "oracle-check", "compare", "stop",
                                     "verify-assumptions"])
def test_out_that_cannot_be_a_directory_exits_one(tmp_path, command, below, capsys):
    # --out names an existing file, or a path below one
    cfg = _cfg(tmp_path, "[instance]\nname = american_put\n\n[grid]\nN = 4\n")
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    out = afile / below if below else afile
    solutions = 2 if command == "compare" else 1
    before = sorted(tmp_path.rglob("*"))
    assert _run(command, *("--config", cfg) * solutions, "--out", str(out)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: cannot make the output directory {out}" in err
    assert "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before and afile.read_text() == "kept\n"


@pytest.mark.parametrize("n_lo, n_hi, max_n, code", [
    (50, 60, None, cli.EXIT_CONFIG), (50, 60, "5", cli.EXIT_CONFIG),
    (50, 50, None, cli.EXIT_OK), (50, 50, "5", cli.EXIT_OK)])
def test_compare_needs_both_configs_on_one_grid_n(tmp_path, capsys, n_lo, n_hi, max_n, code):
    # each config's own grid.N is compared, whatever --max-n caps the grid to
    out = tmp_path / "out"
    lo, hi = (_cfg(tmp_path, f"[instance]\nname = american_put\nstrike = {strike}\n\n"
                             f"[grid]\nN = {n}\n", name=f"{side}.ini")
              for side, strike, n in (("lo", 0.9, n_lo), ("hi", 1.0, n_hi)))
    flags = ("--max-n", max_n) if max_n else ()
    assert _run("compare", "--config", lo, "--config", hi, "--out", str(out), *flags) == code
    if code == cli.EXIT_CONFIG:
        assert "config error: compare needs both configs on the same grid.N" in \
            capsys.readouterr().err
        assert not out.exists()
    else:
        rep = json.loads((out / "report.json").read_text())
        assert rep["ordered"] and rep["n_steps"] == int(max_n or n_lo)


def test_each_config_is_built_once_per_command(tmp_path, monkeypatch):
    # load_config builds the instance and the basis that the command runs
    built = []

    def counting(name, real):
        def make(*args, **kwargs):
            built.append(name)
            return real(*args, **kwargs)
        return make
    monkeypatch.setattr(cli, "catalog_instance", counting("instance", cli.catalog_instance))
    monkeypatch.setattr(mc, "RegressionBasis", counting("basis", mc.RegressionBasis))
    lo = _cfg(tmp_path, "[instance]\nname = american_put\nstrike = 0.9\n\n[grid]\nN = 4\n\n"
                        "[mc]\nn_paths = 400\n", name="lo.ini")
    hi = _cfg(tmp_path, "[instance]\nname = american_put\n\n[grid]\nN = 4\n\n"
                        "[mc]\nn_paths = 400\n", name="hi.ini")
    runs = [("solve",), ("solve", "--engine", "mc"), ("oracle-check",), ("stop",),
            ("verify-assumptions",), ("compare", "--config", lo)]
    for k, run in enumerate(runs):
        built.clear()
        assert _run(*run, "--config", hi, "--out", str(tmp_path / f"out{k}")) == cli.EXIT_OK
        configs = 2 if run[0] == "compare" else 1
        assert sorted(built) == ["basis"] * configs + ["instance"] * configs, run


@pytest.mark.parametrize("command", ["solve", "stop", "compare", "verify-assumptions"])
def test_stored_fields_beyond_memory_exit_one_before_any_work(tmp_path, command, capsys,
                                                              monkeypatch):
    # N = 100000 needs 1.2e11 (stop) to 5.6e11 (solve) bytes of lattice,
    # diagonals and solve's frontier and its sort while the sweep streams
    # american_put's shared-row layers, and verify-assumptions 2.4e11 for
    # its lattice and anchor-axis probe: refused before the lattice is built
    # or --out is made
    def refuse(*args, **kwargs):
        raise AssertionError("lattice built")
    monkeypatch.setattr(cli, "build_lattice", refuse)
    monkeypatch.setattr(cli, "verify_assumptions", refuse)
    out = tmp_path / "out"
    n = 100000
    cfg = _cfg(tmp_path, f"[instance]\nname = american_put\n\n[grid]\nN = {n}\n")
    solutions = 2 if command == "compare" else 1
    assert _run(command, *("--config", cfg) * solutions, "--out", str(out)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    if command == "verify-assumptions":
        need = _probe_bytes(n)
    else:
        need = _streamed_bytes(n, solutions, frontier=command == "solve", layer_rows=2)
    assert "config error:" in err and f"needs {need} bytes" in err
    assert "bytes of physical memory" in err
    assert not out.exists()


def _streamed_bytes(n, solutions, frontier, layer_rows):
    # the lattice's x and probs, each diagonal and solve's four frontier
    # columns hold (N+1)(N+2)/2 floats each, the layer arrays layer_rows x
    # (N+1), and solve's frontier sort, after the layers, FRONTIER_SORT per
    # row; the Python objects add LAYER_OBJECTS bytes per layer, and the
    # first command in a process FIRST_CALL bytes
    triangle = (n + 1) * (n + 2) // 2
    return 8 * ((2 + solutions + 4 * frontier) * triangle
                + max(cli.LAYER_ARRAYS * layer_rows * (n + 1),
                      cli.FRONTIER_SORT * frontier * triangle)) + cli.LAYER_OBJECTS * (n + 1) \
        + cli.FIRST_CALL


@pytest.mark.parametrize("command, names", [
    ("solve", ("american_put",)), ("stop", ("linear_z",)), ("stop", ("hyperbolic_discount",)),
    ("compare", ("american_put", "american_put")),
    ("compare", ("american_put", "hyperbolic_discount")),
])
def test_memory_gate_counts_shared_rows_of_anchor_free_instances(tmp_path, command, names,
                                                                 monkeypatch):
    # an anchor-free sweep holds two rows per layer array: at N = 9000 stop
    # needs about 1.0e9 bytes, not 8.8e9 with (N+1)^2 layer arrays, and
    # solve is bounded by its frontier sort; a pair counts its wider sweep.
    # The gate's count is read through a stub that stops the command
    # before anything is allocated
    seen = []

    def stop_here(what, need):
        seen.append(need)
        raise cli.ConfigError("stopped at the gate")
    monkeypatch.setattr(cli, "_check_fits", stop_here)
    n = 9000
    cfgs = [_cfg(tmp_path, f"[instance]\nname = {name}\n\n[grid]\nN = {n}\n", f"{k}.ini")
            for k, name in enumerate(names)]
    args = [a for cfg in cfgs for a in ("--config", cfg)]
    assert _run(command, *args, "--out", str(tmp_path / "out")) == cli.EXIT_CONFIG
    rows = n + 1 if "hyperbolic_discount" in names else 2
    assert seen == [_streamed_bytes(n, len(names), command == "solve", rows)]
    if rows == 2:
        assert seen[0] < _streamed_bytes(n, len(names), command == "solve", n + 1) / 1.3


def test_mc_paths_beyond_memory_exit_one_before_any_work(tmp_path, capsys, monkeypatch):
    def no_paths(*args):
        raise AssertionError("paths simulated")
    monkeypatch.setattr(mc, "simulate", no_paths)
    out = tmp_path / "out"
    n_paths = 10 ** 11
    cfg = _cfg(tmp_path, f"[instance]\nname = american_put\n\n[grid]\nN = 10\n\n"
                         f"[mc]\nn_paths = {n_paths}\n")
    assert _run("solve", "--config", cfg, "--engine", "mc",
                "--out", str(out)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    # x, dw, the value and z rows and a layer's driver values and running
    # terms (N + 1 rows each), 48 bootstrap replicates, four rows per column
    # of the 10-column basis, and 48 rows of path counts, uint64 at this path
    # count; the bootstrap's 1024-path blocks of 55 Khatri-Rao products and
    # 48 counts cast to float add a fixed term
    need = 8 * n_paths * (6 * 11 + 2 * 48 + 4 * 10) + 8 * 1024 * (55 + 48)
    assert "config error:" in err and f"needs {need} bytes" in err
    assert "bytes of physical memory" in err
    assert not out.exists()


def _traced_peak(*argv) -> int:
    tracemalloc.start()
    try:
        assert _run(*argv) == cli.EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_solve_traced_peak_within_its_memory_gate(tmp_path):
    n = 400
    cfg = _cfg(tmp_path, f"[instance]\nname = hyperbolic_discount\n\n[grid]\nN = {n}\n")
    peak = _traced_peak("solve", "--config", cfg, "--out", str(tmp_path / "out"))
    assert peak <= _streamed_bytes(n, 1, frontier=True, layer_rows=n + 1), peak


def _probe_bytes(n):
    # the lattice's x and probs, (N+1)(N+2)/2 floats each, PROBE_ARRAYS
    # arrays of (N + 1) x (N // 2 + 1) floats, and the first call's modules,
    # numpy.random among them
    return 8 * ((n + 1) * (n + 2) + cli.PROBE_ARRAYS * (n + 1) * (n // 2 + 1)) \
        + cli.FIRST_CALL + cli.RANDOM_FIRST_USE


@pytest.mark.parametrize("name", ["american_put", "hyperbolic_discount"])
def test_verify_assumptions_traced_peak_within_its_memory_gate(tmp_path, name):
    # the probe holds a few arrays of its shape, not a sweep's layer arrays:
    # the count bounds the traced peak and is at most three times it
    for n in (400, 800, 1500):
        cfg = _cfg(tmp_path, f"[instance]\nname = {name}\n\n[grid]\nN = {n}\n",
                   name=f"{n}.ini")
        peak = _traced_peak("verify-assumptions", "--config", cfg,
                            "--out", str(tmp_path / str(n)))
        assert peak <= _probe_bytes(n) <= 3 * peak, (n, peak)


@pytest.mark.parametrize("command, name, n", [
    pytest.param("solve", "linear_z", 200, id="solve-200"),
    pytest.param("stop", "linear_z", 200, id="stop-200"),
    pytest.param("stop", "linear_z", 400, id="stop-400"),
    # a stop row on nearly every (anchor, layer), and a geometric lattice
    # whose node states all differ, each formatted for the CSVs
    ("solve", "american_put", 200), ("solve", "american_put", 400),
])
def test_anchor_free_traced_peak_within_its_memory_gate(tmp_path, command, name, n):
    # the shared-row sweep's gate counts two rows per layer array
    cfg = _cfg(tmp_path, f"[instance]\nname = {name}\n\n[grid]\nN = {n}\n")
    peak = _traced_peak(command, "--config", cfg, "--out", str(tmp_path / "out"))
    assert peak <= _streamed_bytes(n, 1, frontier=command == "solve", layer_rows=2), peak


_FIRST_CALL_PEAK = '''
import sys
import tracemalloc
from rbsvie import cli

command, name, tmp = sys.argv[1:]
seen = []
check_fits = cli._check_fits


def record(what, need):
    seen.append(need)
    check_fits(what, need)


cli._check_fits = record
with open(f"{tmp}/run.ini", "w") as fh:
    fh.write(f"[instance]\\nname = {name}\\n\\n[grid]\\nN = 25\\n")
tracemalloc.start()
assert cli.main([command, "--config", f"{tmp}/run.ini", "--out", f"{tmp}/out"]) == 0
print(tracemalloc.get_traced_memory()[1], *seen)
'''


@pytest.mark.parametrize("name", CATALOG_NAMES)
@pytest.mark.parametrize("command", ["solve", "stop", "verify-assumptions"])
def test_first_command_in_a_process_traced_peak_within_its_memory_gate(tmp_path, command,
                                                                       name):
    # the first cli.main call in a fresh process imports modules and builds
    # its parser, about 241 KB whatever N is: at N = 25 that outweighs the
    # layer terms, and the gate's FIRST_CALL term counts it.  verify-assumptions
    # also imports numpy.random, about 1.04 MB, which RANDOM_FIRST_USE counts
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", _FIRST_CALL_PEAK, command, name, str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
    peak, need = (int(v) for v in res.stdout.split()[-2:])
    assert peak <= need, (peak, need)


@pytest.mark.parametrize("command", ["solve", "stop"])
def test_streamed_commands_grow_like_n_squared(tmp_path, command):
    # stored fields grew the traced peak about 7.7x from N = 200 to 400 (N^3);
    # streamed layers hold (N + 1)^2-sized arrays, about 4x
    peaks = []
    for n in (200, 400):
        cfg = _cfg(tmp_path, f"[instance]\nname = hyperbolic_discount\n\n[grid]\nN = {n}\n",
                   name=f"{n}.ini")
        peaks.append(_traced_peak(command, "--config", cfg, "--out", str(tmp_path / str(n))))
    assert peaks[1] <= 5 * peaks[0], peaks


def _fold_driver(monkeypatch):
    # squeezing the (anchors, 1) column of anchor times lines anchors up with
    # nodes: every sweep layer has j + 1 of both
    fold = DriverSpec(name="fold", lipschitz=0.5, holder_const=0.5,
                      fn=lambda t, s, x, y, z: -0.5 / (1.0 + np.squeeze(s - t)) * y)
    real = cli.catalog_instance
    monkeypatch.setattr(cli, "catalog_instance",
                        lambda name, params=None: replace(real(name, params), driver=fold))


@pytest.mark.parametrize("command", ["solve", "stop", "compare"])
def test_driver_that_folds_the_anchor_axis_exits_one_without_artifacts(tmp_path, command,
                                                                       capsys, monkeypatch):
    # the sweep probes anchors 0..N against layer N - 1's N nodes first
    _fold_driver(monkeypatch)
    out = tmp_path / "out"
    cfg = _cfg(tmp_path, "[instance]\nname = hyperbolic_discount\n\n[grid]\nN = 10\n")
    solutions = 2 if command == "compare" else 1
    assert _run(command, *("--config", cfg) * solutions, "--out", str(out)) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error:" in err and "layer 9" in err and "(anchors, nodes) = (11, 10)" in err
    assert not out.exists() or not any(out.iterdir())


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


_STORED_LAYER_GUARD = '''
import sys
from rbsvie import stopping, volterra


def refuse(name):
    def stub(*args, **kwargs):
        raise AssertionError(f"a command called {name}")
    return stub


volterra.solve = refuse("volterra.solve")
volterra.PicardConfig = refuse("volterra.PicardConfig")
for name in ("extract_frontier", "frontier_rows", "evaluate_J", "inconsistency_report",
             "premature_increment_mass", "_replay"):
    setattr(stopping, name, refuse(f"stopping.{name}"))

from rbsvie.cli import main  # noqa: E402

tmp = sys.argv[1]
cfgs = []
for k, strike in enumerate(("0.9", "1.0")):
    cfgs.append(f"{tmp}/{k}.ini")
    with open(cfgs[-1], "w") as fh:
        fh.write(f"[instance]\\nname = american_put\\nstrike = {strike}\\n\\n"
                 f"[grid]\\nN = 4\\n\\n[mc]\\nn_paths = 400\\n")
runs = [["solve"], ["solve", "--engine", "mc"], ["stop"], ["oracle-check"],
        ["verify-assumptions"], ["compare", "--config", cfgs[0]]]
for k, run in enumerate(runs):
    rc = main([*run, "--config", cfgs[1], "--out", f"{tmp}/out{k}"])
    assert rc == 0, (run, rc)
'''


def test_commands_never_touch_the_stored_solution_layer(tmp_path):
    # every command streams volterra.sweep: with the stored solve, its
    # PicardConfig and stopping's stored-solution reports replaced by stubs
    # that raise before rbsvie.cli is imported, each still exits 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, "-c", _STORED_LAYER_GUARD, str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stdout + res.stderr
