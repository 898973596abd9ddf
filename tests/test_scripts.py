"""Smoke runs of the demo scripts at small sizes."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, header", [
    ("run_catalog.py", ["--n-steps", "8"], "driver calls"),
    ("replanning_gaps.py", ["--n-steps", "8", "--every", "2"], "J(time-0)"),
    ("mc_crosscheck.py", ["--n-steps", "4", "--n-paths", "2000"], "lattice y0"),
])
def test_script_runs(script, args, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr
    assert header in res.stdout


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_pairs_summary_on_fixed_numbers():
    summarize = _script("ab_pairs").summarize
    base = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    # nine wins, one tie; medians 14.5 and 12.5, base IQR 16.75 - 12.25 = 4.5
    change = [9.0, 10.0, 11.0, 12.0, 13.0, 12.0, 13.0, 14.0, 15.0, 19.0]
    s = summarize(base, change, "lower", 0.25)
    assert s["base"] == (12.25, 14.5, 16.75)
    assert s["change"] == (11.25, 12.5, 13.75)
    assert (s["wins"], s["pairs"]) == (9, 10)
    assert s["within_bound"] is True
    assert s["gain"] is False  # the gap 2.0 does not exceed the base's IQR 4.5

    change = [b - 5.0 for b in base[:9]] + [base[9]]
    s = summarize(base, change, "lower", 0.25)
    assert s["wins"] == 9 and s["gain"] is True  # gap 5.0 > 4.5 and 9 of 10 won

    s = summarize(base, [b - 5.0 for b in base[:8]] + base[8:], "lower")
    assert s["wins"] == 8 and s["gain"] is False and s["within_bound"] is None

    # higher is better: the same numbers read the other way
    s = summarize(change, base, "higher", 0.05)
    assert s["wins"] == 9 and s["within_bound"] is True and s["gain"] is True

    s = summarize([100.0] * 4, [106.0] * 4, "lower", 0.05)
    assert s["wins"] == 0 and s["within_bound"] is False and s["gain"] is False
    with pytest.raises(ValueError):
        summarize([1.0], [1.0, 2.0])


def test_ab_pairs_extracts_both_sides_as_siblings(tmp_path):
    # the change side is the working tree's tracked files, uncommitted and
    # staged edits included; the base side is the commit's files
    repo = tmp_path / "repo"
    (repo / "pkg").mkdir(parents=True)
    (repo / "pkg" / "mod.py").write_text("X = 1\n")
    (repo / "gone.txt").write_text("old\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=ab", "-c", "user.email=ab@example.com",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=repo, check=True, capture_output=True)
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "pkg" / "mod.py").write_text("X = 2\n")
    (repo / "gone.txt").unlink()
    (repo / "new.txt").write_text("staged\n")
    git("add", "new.txt")
    (repo / "stray.txt").write_text("untracked\n")
    sides = tmp_path / "sides"
    sides.mkdir()
    base, change = _script("ab_pairs").extract_sides(repo, "HEAD", sides)
    assert base.parent == change.parent == sides and base != change
    assert (base / "pkg" / "mod.py").read_text() == "X = 1\n"
    assert (change / "pkg" / "mod.py").read_text() == "X = 2\n"
    assert (base / "gone.txt").exists() and not (change / "gone.txt").exists()
    assert not (base / "new.txt").exists() and (change / "new.txt").read_text() == "staged\n"
    assert not (change / "stray.txt").exists() and not (change / ".git").exists()


def test_ab_pairs_writes_both_sides_of_a_clean_tree_alike(tmp_path):
    # with nothing uncommitted the two sides differ in nothing a file
    # system records per file but times: names, bytes and mode bits
    repo = tmp_path / "repo"
    (repo / "pkg" / "deep").mkdir(parents=True)
    (repo / "pkg" / "mod.py").write_text("X = 1\n")
    (repo / "pkg" / "deep" / "data.bin").write_bytes(bytes(range(256)) * 3)
    (repo / "run.sh").write_text("#!/bin/sh\necho hi\n")
    (repo / "run.sh").chmod(0o775)
    (repo / "note.txt").write_text("plain\n")
    (repo / "note.txt").chmod(0o664)
    (repo / "stray.txt").write_text("untracked\n")
    subprocess.run(["git", "init", "-q"], cwd=repo, check=True)
    subprocess.run(["git", "add", "pkg", "run.sh", "note.txt"], cwd=repo, check=True)
    subprocess.run(["git", "-c", "user.name=ab", "-c", "user.email=ab@example.com",
                    "-c", "commit.gpgsign=false", "commit", "-q", "-m", "base"],
                   cwd=repo, check=True)
    sides = tmp_path / "sides"
    sides.mkdir()

    def listing(side):
        return sorted((str(p.relative_to(side)), p.read_bytes(), p.stat().st_mode)
                      for p in side.rglob("*") if p.is_file())
    base, change = _script("ab_pairs").extract_sides(repo, "HEAD", sides)
    files = listing(base)
    assert [name for name, _, _ in files] == ["note.txt", "pkg/deep/data.bin", "pkg/mod.py",
                                              "run.sh"]
    assert files == listing(change)
    assert {name: oct(mode & 0o777) for name, _, mode in files} == {
        "note.txt": "0o644", "pkg/deep/data.bin": "0o644", "pkg/mod.py": "0o644",
        "run.sh": "0o755"}


def test_ab_pairs_seed_ranges():
    assert _script("ab_pairs").parse_seeds("701-703,9") == [701, 702, 703, 9]


def test_ab_commands_pairs_tiny_rounds_of_two_workers():
    # both workers import this tree's src: every paired command writes the
    # same artifacts, none fails, and the round adds up its commands
    script = _script("ab_commands")
    plans = script.make_plans(["stop-report"], 3, "tiny", [], [], [])
    runs = script.pair_rounds({"base": ROOT, "change": ROOT}, plans, 2)
    assert [len(runs["stop-report"][side]) for side in ("base", "change")] == [2, 2]
    rows = script.summary(runs)
    assert [row["command"] for row in rows] == \
        ["0-stop-american_put", "1-stop-hyperbolic_discount", script.ROUND]
    for row in rows:
        assert row["pairs"] == 2 and row["same_artifacts"] and row["failed"] == 0
        assert row["ratio"] > 0.0 and 0 <= row["wins"] <= 2
    assert rows[-1]["base"][1] == pytest.approx(rows[0]["base"][1] + rows[1]["base"][1])


def test_ab_commands_times_whole_commands_per_instance_and_n():
    # one plan per command at N = 4, each in two fresh workers of this tree:
    # one row each, no round row, and each side's peak RSS read on close
    script = _script("ab_commands")
    plans = script.make_plans([], 1, "full", ["american_put"], ["stop", "solve"], [4])
    assert list(plans) == ["stop-american_put-N4", "solve-american_put-N4"]
    runs = script.pair_rounds({"base": ROOT, "change": ROOT}, plans, 2)
    assert all(run["code"] == 0 for r in runs.values() for side in ("base", "change")
               for rnd in r[side] for run in rnd)
    rows = script.summary(runs)
    assert [(row["plan"], row["command"]) for row in rows] == [
        ("stop-american_put-N4", "0-stop-american_put"),
        ("solve-american_put-N4", "0-solve-american_put")]
    for row in rows:
        assert row["pairs"] == 2 and row["same_artifacts"] and row["failed"] == 0
        assert row["best"]["base"] <= row["base"][0] and row["best"]["change"] <= row["change"][0]
        assert row["maxrss_mb"]["base"] > 0.0 and row["maxrss_mb"]["change"] > 0.0


@pytest.mark.parametrize("args", [["--instances", "nosuch"], ["--commands", "mc"],
                                  ["--rounds", "0"], ["--n", "0"]])
def test_ab_commands_rejects_bad_options_before_extracting(monkeypatch, args):
    script = _script("ab_commands")

    def extract_sides(*_):
        raise AssertionError("extracted before the options were checked")
    monkeypatch.setattr(script, "extract_sides", extract_sides)
    with pytest.raises(SystemExit) as exc:
        script.main(args)
    assert exc.value.code == 2


_ARTIFACTS = {
    "solve": {"solution.json", "y_diag.csv", "frontier.csv"},
    "solve-mc": {"solution.json", "y_diag.csv", "frontier.csv"},
    "stop": {"inconsistency.json"},
    "compare": {"report.json"},
    "verify-assumptions": {"report.json"},
    "oracle-check": {"report.json"},
}


def test_artifact_manifest_repeats_and_lists_every_command(capsys, monkeypatch):
    script = _script("artifact_manifest")
    printed = []
    for _ in range(2):
        script.main(["--n", "1,3"])
        printed.append(capsys.readouterr().out.splitlines())
    assert printed[0] == printed[1]
    *lines, last = printed[0]
    assert last.startswith("manifest ") and len(last.split()[1]) == 64
    # the BLAS thread setting follows the hash
    assert last.endswith(f"  BLAS threads: {script.blas_threads()}")
    for var in script.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    assert script.blas_threads() == "default"
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert script.blas_threads() == "OMP_NUM_THREADS=2"
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert script.blas_threads() == "OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=2"
    listed = {line.split("  ", 1)[1] for line in lines}
    runs = script.commands([1, 3])
    assert len(runs) == 2 * (5 * len(script.CATALOG_NAMES) + 1) + 2 * len(script.CATALOG_NAMES)
    for where, _, _ in runs:
        command = where.rsplit("/", 1)[1]
        want = {f"{where}/out/{f}" for f in _ARTIFACTS[command]} | {f"{where}/console.txt"}
        assert want <= listed, where
    assert len(listed) == len(lines)
