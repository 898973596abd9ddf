"""Paired A/B of whole commands: a base commit against this tree, in two workers.

    python3 scripts/ab_commands.py [--base HEAD] [--workload stop-report ...]
        [--instances american_put,hyperbolic_discount --commands stop,solve
         --n 100,400,800] [--rounds 300] [--seed 1] [--size full]

Extracts the base commit's files and this tree's tracked files as
scripts/ab_pairs.py does, then times plans of commands on both.  A plan
is one round of a workload's commands (perfbench/workloads.py, made from
--seed and --size, the same configs every round), or one catalog instance
run by one command at one N, for each of --instances, --commands and
--n.  Without --workload or --instances every workload is a plan.

Each plan gets two fresh worker processes, one per side, each importing
rbsvie from its own copy's src, both pinned to the lowest CPU this script
may run on.  Each worker runs the plan once untimed, then --rounds rounds
through rbsvie.cli.main, the side that runs first flipped every round; it
times each command on the clock and hashes its artifacts (file names and
bytes), and reports its ru_maxrss when closed.  For each command and, in
a plan of several, for the whole round, prints each side's best and
quartiles, the median of the per-round ratios change / base, the change's
wins, whether a gain may be claimed (ab_pairs.summarize), whether both
sides' artifacts hashed equal in every round and each side's maxrss;
then the same rows as one JSON line.  Pairing rounds of one process each
cancels most of what a shared host adds to both sides alike, so effects
of 1-2 % that the spread of single medians hides can be resolved.
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
sys.path[:0] = [str(ROOT / "scripts"), str(ROOT / "perfbench"), str(ROOT / "src")]

import workloads  # noqa: E402
from ab_pairs import extract_sides, summarize  # noqa: E402
from rbsvie.instances import CATALOG_NAMES  # noqa: E402

ROUND = "round"
SIDES = ("base", "change")

_WORKER = '''
import contextlib, hashlib, io, json, resource, shutil, sys, time
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
reply.write(json.dumps(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024) + "\\n")
'''


class Worker:
    """One Python process that imports rbsvie from src and runs rounds of
    commands in its own directory, on CPU cpu."""

    def __init__(self, src: Path, cwd: Path, cpu: int):
        env = dict(os.environ, PYTHONPATH=str(src))
        self.proc = subprocess.Popen([sys.executable, "-c", _WORKER], cwd=cwd, env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        os.sched_setaffinity(self.proc.pid, {cpu})

    def _reply(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def run(self, argvs: list) -> list:
        """One {"code", "s", "sha256"} per argv, run in order."""
        self.proc.stdin.write(json.dumps(argvs) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> float:
        """Ends the worker; returns its ru_maxrss in MB."""
        self.proc.stdin.close()
        maxrss = self._reply()
        self.proc.wait()
        return maxrss


def make_plans(names: list, seed: int, size: str, instances: list, kinds: list,
               ns: list) -> dict:
    """{plan: [workloads.Command]}: each workload's round, then one command
    per instance, kind and N."""
    plans = {w: workloads.commands(w, seed, size) for w in names}
    for instance in instances:
        for kind in kinds:
            for n in ns:
                plans[f"{kind}-{instance}-N{n}"] = [workloads.Command(kind, instance, n)]
    return plans


def pair_rounds(trees: dict, plans: dict, rounds: int) -> dict:
    """{plan: {"labels": [...], "maxrss_mb": {side: MB}, side: [round runs]}}
    for sides "base" and "change", trees[side] the directory holding that
    side's src; every plan runs in two fresh workers."""
    runs, cpu = {}, min(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(prefix="ab-commands-") as tmp:
        for name, cmds in plans.items():
            where = Path(tmp) / name
            paths = workloads.write_configs(cmds, where / "configs")
            argvs = [cmd.argv(path, Path("out")) for cmd, path in zip(cmds, paths)]
            run = runs[name] = {"labels": [f"{k}-{cmd.label}" for k, cmd in enumerate(cmds)],
                                "base": [], "change": []}
            workers = {}
            try:
                for side in SIDES:
                    (where / side).mkdir()
                    workers[side] = Worker(Path(trees[side]).resolve() / "src", where / side, cpu)
                    workers[side].run(argvs)  # warm-up, not timed
                for r in range(rounds):
                    for side in SIDES if r % 2 == 0 else SIDES[::-1]:
                        run[side].append(workers[side].run(argvs))
                run["maxrss_mb"] = {side: workers[side].close() for side in SIDES}
            finally:
                for worker in workers.values():
                    worker.proc.kill()
                    worker.proc.wait()
    return runs


def summary(runs: dict) -> list:
    """Per plan and command (and ROUND for a plan of several): a dict with
    ab_pairs.summarize's fields over the clock times, each side's best, the
    median ratio change / base, whether the artifacts hashed equal in every
    round, each side's maxrss and the number of command runs that failed."""
    rows = []
    for plan, r in runs.items():
        pairs = list(zip(r["base"], r["change"]))
        labels = r["labels"] + [ROUND] if len(r["labels"]) > 1 else r["labels"]
        for k, label in enumerate(labels):
            if label == ROUND:
                base = [sum(c["s"] for c in b) for b, _ in pairs]
                change = [sum(c["s"] for c in c_) for _, c_ in pairs]
                cmds = [(b[i], c[i]) for b, c in pairs for i in range(len(b))]
            else:
                base = [b[k]["s"] for b, _ in pairs]
                change = [c[k]["s"] for _, c in pairs]
                cmds = [(b[k], c[k]) for b, c in pairs]
            rows.append({
                "plan": plan, "command": label, **summarize(base, change),
                "best": {"base": min(base), "change": min(change)},
                "ratio": statistics.median(c / b for b, c in zip(base, change)),
                "same_artifacts": all(b["sha256"] == c["sha256"] for b, c in cmds),
                "maxrss_mb": r["maxrss_mb"],
                "failed": sum((b["code"] != 0) + (c["code"] != 0) for b, c in cmds)})
    return rows


def _names(choices):
    """An argparse type: a comma-separated list of names, each in choices."""
    def parse(text: str) -> list:
        bad = sorted(set(text.split(",")) - set(choices))
        if bad:
            raise argparse.ArgumentTypeError(f"{', '.join(bad)}: not in {', '.join(choices)}")
        return text.split(",")
    return parse


def _steps(text: str) -> list:
    """An argparse type: comma-separated step counts, each >= 1."""
    ns = [int(v) for v in text.split(",")]
    if min(ns) < 1:
        raise argparse.ArgumentTypeError(f"{text}: step counts must be >= 1")
    return ns


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", default="HEAD", help="commit to compare against")
    ap.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    ap.add_argument("--instances", type=_names(CATALOG_NAMES), default=[],
                    help="catalog instances, each run alone by --commands at --n")
    ap.add_argument("--commands", type=_names(("stop", "solve")), default=["stop", "solve"])
    ap.add_argument("--n", type=_steps, default=[100, 400],
                    help="comma-separated step counts")
    ap.add_argument("--rounds", type=int, default=300, help="timed rounds per side")
    ap.add_argument("--seed", type=int, default=1, help="the workloads' input seed")
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    names = args.workload or ([] if args.instances else list(workloads.WORKLOADS))
    plans = make_plans(names, args.seed, args.size, args.instances, args.commands, args.n)
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        base, change = extract_sides(ROOT, args.base, Path(tmp))
        rows = summary(pair_rounds({"base": base, "change": change}, plans, args.rounds))
    print(f"{args.rounds} paired rounds, seed {args.seed}, size {args.size}, base {args.base}")
    print(f"{'plan':22s} {'command':28s} {'base best q1/med/q3 s':>32s} "
          f"{'change best q1/med/q3 s':>32s} {'ratio':>7s} {'wins':>9s}  gain   same  "
          f"maxrss MB base/change")
    for row in rows:
        fmt = ["/".join(f"{v:.4g}" for v in (row["best"][side], *row[side])) for side in SIDES]
        print(f"{row['plan']:22s} {row['command']:28s} {fmt[0]:>32s} {fmt[1]:>32s} "
              f"{row['ratio']:7.4f} {row['wins']:>4d}/{row['pairs']:<4d}  {str(row['gain']):5s}  "
              f"{str(row['same_artifacts']):5s} "
              f"{row['maxrss_mb']['base']:.1f}/{row['maxrss_mb']['change']:.1f}")
    failed = sum(row["failed"] for row in rows if row["command"] != ROUND)
    if failed:
        print(f"{failed} command run(s) failed")
    print(json.dumps(rows))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
