"""Alternating benchmark pairs: a base commit against this tree.

    python3 scripts/ab_pairs.py --seeds 701-710 [--base HEAD]
        [--workload lattice-solve ...] [--seconds 30]

Extracts the base commit's committed files (git archive, default HEAD,
the parent of an uncommitted change) and this tree's tracked files as
they stand, uncommitted edits included, into sibling directories of one
temporary directory, both written file by file by the same routine, so
neither side runs from a different place or from differently made files.  Then
runs ``perfbench/run.py --trace 0`` once per seed and workload in both
copies, alternating which side runs first.  For each
end-to-end metric of BENCHMARK.json, and for the printed clock median,
it prints each side's median and quartiles, the change's wins, whether
the change's median stays within the metric's bound, and whether a gain
may be claimed: wins in at least nine tenths of the pairs, ties counting
for neither, and a median gap larger than the base's interquartile
range.  Run it on seeds not used while writing the change.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CLOCK = "clock wall, median s (not gated)"


def quartiles(values: list) -> tuple:
    """(q1, median, q3) of values, inclusive quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(base: list, change: list, better: str = "lower", bound: float | None = None) -> dict:
    """One metric over pairs: base[i] and change[i] ran on the same seed.

    Returns both sides' (q1, median, q3), the change's wins (ties count
    for neither), whether the change's median is within bound of the
    base's (None without a bound), and whether a gain may be claimed:
    at least nine tenths of the pairs won and the medians apart by more
    than the base's interquartile range, in the better direction.
    """
    if len(base) != len(change) or not base:
        raise ValueError("need one base and one change value per pair")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (b - c) > 0)
    qb, qc = quartiles(base), quartiles(change)
    gap = sign * (qb[1] - qc[1])  # > 0 when the change's median is better
    within = None if bound is None else -gap <= bound * abs(qb[1])
    return {
        "base": qb,
        "change": qc,
        "wins": wins,
        "pairs": len(base),
        "within_bound": within,
        "gain": wins >= 0.9 * len(base) and gap > qb[2] - qb[0],
    }


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree: {metric: value}, plus correct, failed and clock."""
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench failed in {tree} ({workload}, seed {seed}):\n{res.stderr}")
    result = json.loads(lines[-1])
    out = {name: m["value"] for name, m in result["metrics"].items()}
    out["correct"], out["failed"] = result["correct"], result["failed"]
    out[CLOCK] = next(float(line[len(CLOCK):]) for line in lines if line.startswith(CLOCK))
    return out


def _write_files(dest: Path, files) -> None:
    """Write (name, bytes, executable) entries under dest, mode 0755 or 0644."""
    for name, data, executable in files:
        path = dest / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
        path.chmod(0o755 if executable else 0o644)


def _committed_files(root: Path, rev: str):
    """(name, bytes, executable) of each regular file of root's commit rev."""
    archive = subprocess.run(["git", "archive", rev], cwd=root, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        for member in tar:
            if member.isfile():
                yield member.name, tar.extractfile(member).read(), bool(member.mode & 0o111)


def _working_files(root: Path):
    """(name, bytes, executable) of each tracked file of root's working tree
    as it stands; a tracked file deleted there is left out."""
    tracked = subprocess.run(["git", "ls-files", "-z"], cwd=root, check=True,
                             capture_output=True).stdout.decode()
    for name in filter(None, tracked.split("\0")):
        path = root / name
        if path.is_file():
            yield name, path.read_bytes(), bool(path.stat().st_mode & 0o111)


def extract_sides(root: Path, base: str, tmp: Path) -> tuple:
    """(base, change): sibling directories under tmp holding the committed
    files of root's commit base and root's tracked files as they stand in
    its working tree, both written by one routine, so that on a clean tree
    the two hold the same names, bytes and mode bits."""
    sides = tmp / "base", tmp / "change"
    for side, files in zip(sides, (_committed_files(root, base), _working_files(root))):
        side.mkdir()
        _write_files(side, files)
    return sides


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="e.g. 701-710 or 1,5,9")
    ap.add_argument("--base", default="HEAD", help="commit to compare against")
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args(argv)
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    metrics.append((CLOCK, "lower", None))

    runs = {w: {"base": [], "change": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        base, change = extract_sides(ROOT, args.base, Path(tmp))
        for k, seed in enumerate(seeds):
            for w in workloads:
                order = (("base", base), ("change", change))
                for side, tree in order if k % 2 == 0 else order[::-1]:
                    r = run_side(tree, w, seed, args.seconds)
                    runs[w][side].append(r)
                    print(f"seed {seed} {w} {side}: wall_s {r['wall_s']:.4f} "
                          f"correct {r['correct']} failed {r['failed']}", flush=True)

    print(f"\n{len(seeds)} pairs per workload, seeds {args.seeds}, {args.seconds:g} s runs, "
          f"base {args.base}")
    print(f"{'workload':15s} {'metric':34s} {'base q1/med/q3':>28s} "
          f"{'change q1/med/q3':>28s} {'wins':>6s}  within bound  gain")
    for w in workloads:
        bad = [r for side in runs[w].values() for r in side if not r["correct"] or r["failed"]]
        for name, better, bound in metrics:
            s = summarize([r[name] for r in runs[w]["base"]],
                          [r[name] for r in runs[w]["change"]], better, bound)
            fmt = "/".join(f"{v:.4g}" for v in s["base"]), "/".join(f"{v:.4g}" for v in s["change"])
            print(f"{w:15s} {name:34s} {fmt[0]:>28s} {fmt[1]:>28s} "
                  f"{s['wins']:>3d}/{s['pairs']:<2d}  {str(s['within_bound']):12s}  {s['gain']}")
        if bad:
            print(f"{w}: {len(bad)} run(s) not correct or with failed commands")
    return 0


if __name__ == "__main__":
    sys.exit(main())
