"""Whole-command timings through cli.main, one process per size.

    python3 scripts/scaling.py --instances hyperbolic_discount,custom_affine
        --commands solve,stop --n 100,400,800 [--repeat 3] [--src DIR]

For each instance, command and N, a fresh Python process imports rbsvie
from DIR (default this tree's src), runs the command once at N = 10 as a
warm-up, then runs it --repeat times at N through cli.main into one
temporary directory, removed afterwards.  Imports and the warm-up are
not timed.  Prints one JSON line: per instance, command and N, the best
clock time in seconds, the process's ru_maxrss in MB after the runs, and
the sha256 of the last run's artifacts (file names and bytes), so two
trees' artifacts can be compared too.  Point --src at another checkout's
src to time that tree the same way.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_CHILD = '''
import hashlib, json, resource, sys, tempfile, time
from pathlib import Path
from rbsvie import cli

instance, command, n, repeat = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])


def run(tmp, n_steps):
    (tmp / "run.ini").write_text(f"[instance]\\nname = {instance}\\n\\n[grid]\\nN = {n_steps}\\n")
    start = time.perf_counter()
    rc = cli.main([command, "--config", str(tmp / "run.ini"), "--out", str(tmp / "out")])
    elapsed = time.perf_counter() - start
    if rc != cli.EXIT_OK:
        raise SystemExit(f"{command} {instance} N={n_steps} exited {rc}")
    return elapsed


with tempfile.TemporaryDirectory() as tmp:
    tmp = Path(tmp)
    run(tmp, 10)
    best = min(run(tmp, n) for _ in range(repeat))
    digest = hashlib.sha256()
    for path in sorted((tmp / "out").iterdir()):
        digest.update(path.name.encode() + b"\\0" + path.read_bytes())
print(json.dumps({"best_s": best,
                  "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "sha256": digest.hexdigest()}))
'''


def measure(src: Path, instance: str, command: str, n: int, repeat: int) -> dict:
    """Best of repeat runs of one command at N, in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(src))
    res = subprocess.run([sys.executable, "-c", _CHILD, instance, command, str(n), str(repeat)],
                         capture_output=True, text=True, env=env, check=True)
    return json.loads(res.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--instances", default="hyperbolic_discount,custom_affine")
    parser.add_argument("--commands", default="solve")
    parser.add_argument("--n", default="100,400", help="comma-separated step counts")
    parser.add_argument("--repeat", type=int, default=3, help="timed runs per size")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="the src directory to import rbsvie from")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    commands = args.commands.split(",")
    if not set(commands) <= {"solve", "stop"}:
        parser.error("--commands takes solve and stop")
    runs = [{"instance": instance, "command": command, "n": n,
             **measure(args.src.resolve(), instance, command, n, args.repeat)}
            for instance in args.instances.split(",")
            for command in commands
            for n in (int(v) for v in args.n.split(","))]
    print(json.dumps({"src": str(args.src), "repeat": args.repeat, "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
