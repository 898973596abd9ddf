"""Paired A/B of single commands: a base commit against this tree, in two workers.

    python3 scripts/ab_commands.py [--base HEAD] [--workload stop-report ...]
        [--rounds 300] [--seed 1] [--size full]

Extracts the base commit's files and this tree's tracked files as
scripts/ab_pairs.py does, then starts one long-lived worker process per
side, each importing rbsvie from its own copy's src, and pins both to
the lowest CPU this script may run on, so that neither runs on a core
the other never sees.  The workers run
whole rounds of a workload's commands (perfbench/workloads.py, made from
--seed, the same configs every round) through rbsvie.cli.main in turn,
the side that runs first flipped every round, after one untimed warm-up
round each.  A worker times each command on the clock and hashes its
artifacts (file names and bytes).  For each command and for the whole
round, prints each side's median and quartiles, the median of the
per-round ratios change / base, the change's wins, whether a gain may be
claimed (ab_pairs.summarize) and whether both sides' artifacts hashed
equal in every round.  Pairing rounds of one process each cancels most
of what a shared host adds to both sides alike, so effects of 1-2 % that
the spread of single medians hides can be resolved.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from ab_pairs import extract_sides, summarize  # noqa: E402

ROUND = "round"

_WORKER = '''
import contextlib, hashlib, io, json, shutil, sys, time
from pathlib import Path
from rbsvie import cli

reply = sys.stdout
for line in sys.stdin:
    runs = []
    for argv in json.loads(line):
        out = Path("out")
        shutil.rmtree(out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()) if out.is_dir() else ():
            digest.update(path.name.encode() + b"\\0" + path.read_bytes())
        runs.append({"code": code, "s": elapsed, "sha256": digest.hexdigest()})
    reply.write(json.dumps(runs) + "\\n")
    reply.flush()
'''


class Worker:
    """One long-lived Python process that imports rbsvie from src and runs
    rounds of commands in its own directory, on CPU cpu."""

    def __init__(self, src: Path, cwd: Path, cpu: int):
        env = dict(os.environ, PYTHONPATH=str(src))
        self.proc = subprocess.Popen([sys.executable, "-c", _WORKER], cwd=cwd, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        os.sched_setaffinity(self.proc.pid, {cpu})

    def run(self, argvs: list) -> list:
        """One {"code", "s", "sha256"} per argv, run in order."""
        self.proc.stdin.write(json.dumps(argvs) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def round_argvs(workload: str, seed: int, size: str, configs: Path) -> tuple:
    """(labels, argvs) of one round, its configs written under configs and
    its artifacts to the worker's out directory."""
    cmds = workloads.commands(workload, seed, size)
    paths = workloads.write_configs(cmds, configs / workload)
    argvs = [cmd.argv(path, Path("out")) for cmd, path in zip(cmds, paths)]
    return [f"{k}-{cmd.label}" for k, cmd in enumerate(cmds)], argvs


def pair_rounds(trees: dict, names: list, rounds: int, seed: int, size: str) -> dict:
    """{workload: {"labels": [...], side: [round runs]}} for sides "base" and
    "change", trees[side] the directory holding that side's src."""
    runs = {}
    with tempfile.TemporaryDirectory(prefix="ab-commands-") as tmp:
        tmp = Path(tmp)
        workers, cpu = {}, min(os.sched_getaffinity(0))
        try:
            for side, tree in trees.items():
                (tmp / side).mkdir()
                workers[side] = Worker(Path(tree).resolve() / "src", tmp / side, cpu)
            plans = {w: round_argvs(w, seed, size, tmp / "configs") for w in names}
            for w, (labels, argvs) in plans.items():
                runs[w] = {"labels": labels, "base": [], "change": []}
                for worker in workers.values():
                    worker.run(argvs)  # warm-up, not timed
            for r in range(rounds):
                order = ("base", "change") if r % 2 == 0 else ("change", "base")
                for w, (_, argvs) in plans.items():
                    for side in order:
                        runs[w][side].append(workers[side].run(argvs))
        finally:
            for worker in workers.values():
                worker.close()
    return runs


def summary(runs: dict) -> list:
    """Per workload and command (and ROUND for the whole round): a dict with
    ab_pairs.summarize's fields over the clock times, the median ratio
    change / base, whether the artifacts hashed equal in every round, and
    the number of commands that failed."""
    rows = []
    for w, r in runs.items():
        pairs = list(zip(r["base"], r["change"]))
        for k, label in enumerate(r["labels"] + [ROUND]):
            if label == ROUND:
                base = [sum(c["s"] for c in b) for b, _ in pairs]
                change = [sum(c["s"] for c in c_) for _, c_ in pairs]
                cmds = [(b[i], c[i]) for b, c in pairs for i in range(len(b))]
            else:
                base = [b[k]["s"] for b, _ in pairs]
                change = [c[k]["s"] for _, c in pairs]
                cmds = [(b[k], c[k]) for b, c in pairs]
            rows.append({
                "workload": w, "command": label, **summarize(base, change),
                "ratio": statistics.median(c / b for b, c in zip(base, change)),
                "same_artifacts": all(b["sha256"] == c["sha256"] for b, c in cmds),
                "failed": sum((b["code"] != 0) + (c["code"] != 0) for b, c in cmds)})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="commit to compare against")
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    ap.add_argument("--rounds", type=int, default=300, help="timed rounds per side")
    ap.add_argument("--seed", type=int, default=1, help="the workloads' input seed")
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    names = args.workload or list(workloads.WORKLOADS)
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        base, change = extract_sides(ROOT, args.base, Path(tmp))
        runs = pair_rounds({"base": base, "change": change}, names, args.rounds, args.seed,
                           args.size)
    rows = summary(runs)
    print(f"{args.rounds} paired rounds, seed {args.seed}, size {args.size}, base {args.base}")
    print(f"{'workload':15s} {'command':28s} {'base q1/med/q3 s':>26s} "
          f"{'change q1/med/q3 s':>26s} {'ratio':>7s} {'wins':>9s}  gain   same artifacts")
    for row in rows:
        fmt = ["/".join(f"{v:.4g}" for v in row[side]) for side in ("base", "change")]
        print(f"{row['workload']:15s} {row['command']:28s} {fmt[0]:>26s} {fmt[1]:>26s} "
              f"{row['ratio']:7.4f} {row['wins']:>4d}/{row['pairs']:<4d}  {str(row['gain']):5s}  "
              f"{row['same_artifacts']}")
    failed = sum(row["failed"] for row in rows if row["command"] == ROUND)
    if failed:
        print(f"{failed} command run(s) failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
