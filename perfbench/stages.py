"""Reference stage timings for the lattice and Monte Carlo engines.

Runs `rbsvie solve` and `rbsvie stop` on the lattice at each N, and
`rbsvie solve --engine mc` at one N and path count, each size in a fresh
interpreter so that its peak RSS is its own.  Stage times are self times
from a coarse tracer that leaves the per-node instance maps unwrapped, so
their cost counts in the stage that calls them.  The Monte Carlo rows also
wrap three private helpers of rbsvie.mc (projector build, anchor sweep and
bootstrap refit) to split the solve the way the roadmap asks.

Usage (from the repository root):

    python3 perfbench/stages.py

The lattice runs use hyperbolic_discount at each N of LATTICE_N; the
Monte Carlo runs use american_put and hyperbolic_discount at N = 50 with
MC_PATHS paths and criterion 09's seed.

Stage times are clock seconds; "<command>.speed" is the share of the
reference CPU speed (calibration.py) the command ran at, since neighbours
on the host slow it by up to five times.  Prints one row per run and
writes them to perfbench/out/stages.json.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import calibration
import run
import workloads
from spans import CALLBACKS, LAYER_CALLS, Tracer

LATTICE_N = (50, 100, 200, 400)
MC_PATHS = 100_000

MC_DETAIL = (
    ("mc.projector_build", "rbsvie.mc", "__init__", "_LayerProjector"),
    ("mc.anchor_sweep", "rbsvie.mc", "_anchor_sweep"),
    ("mc.bootstrap_refit", "rbsvie.mc", "_bootstrap_anchor0"),
)


def measure(kind: str, instance: str, n: int, paths: int) -> dict:
    """Stage self times of one lattice (solve + stop) or mc configuration."""
    cli = run.import_cli()
    coarse = [c for c in LAYER_CALLS if c[0] not in CALLBACKS]
    tracer = Tracer(coarse + list(MC_DETAIL) if kind == "mc" else coarse)
    if kind == "mc":
        cmds = [workloads.Command("mc", instance, n, mc_paths=paths, mc_seed=20260825)]
    else:
        cmds = [workloads.Command(k, instance, n) for k in ("solve", "stop")]
    row = {"kind": kind, "instance": instance, "n_steps": n, "paths": paths}
    run.OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        configs = workloads.write_configs(cmds, Path(tmp))
        for cmd, cfg in zip(cmds, configs):
            mark = tracer.mark()
            with tracer, redirect_stdout(io.StringIO()), calibration.Sampler() as speed:
                rc = cli.main(cmd.argv(cfg, Path(tmp) / cmd.label))
            if rc != 0:
                raise run.BenchError(f"{cmd.label} exited {rc}")
            summary = tracer.summary(mark)
            row[f"{cmd.kind}.wall_s"] = speed.wall
            row[f"{cmd.kind}.speed"] = speed.reference / speed.wall
            for name, s in summary.items():
                if s["calls"]:
                    row[f"{cmd.kind}.{name}_s"] = s["self_s"]
    row["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--one", nargs=4, metavar=("KIND", "INSTANCE", "N", "PATHS"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        kind, instance, n, paths = args.one
        print(json.dumps(measure(kind, instance, int(n), int(paths))))
        return 0

    jobs = [("lattice", "hyperbolic_discount", n, 0) for n in LATTICE_N]
    jobs += [("mc", name, 50, MC_PATHS) for name in ("american_put", "hyperbolic_discount")]
    rows = []
    for job in jobs:
        proc = subprocess.run([sys.executable, __file__, "--one", *map(str, job)],
                              capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        rows.append(json.loads(proc.stdout.splitlines()[-1]))
        print(" ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                       for k, v in rows[-1].items()), flush=True)
    run.OUT.mkdir(parents=True, exist_ok=True)
    (run.OUT / "stages.json").write_text(json.dumps(rows, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
