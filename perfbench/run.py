"""rbsvie benchmark: one workload per process, driven through rbsvie.cli.main.

Usage (from the repository root):

    python3 perfbench/run.py --workload lattice-solve --seed 1 --seconds 20 --trace 0

Runs whole rounds of the workload's commands for --seconds, starting no
round that would end later if it took as long as the last one (at least
two rounds, so the artifacts of repeated rounds can be compared byte for
byte), checks the first round's artifacts against the
independent reference sweep, and prints one JSON object as the last line
of standard output: correct, attempted and failed command counts, and the
metrics.  With --trace 0 these are the end-to-end metrics; with --trace 1
rounds alternate untraced and traced, and the per-layer metrics come from
the spans of the traced rounds.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

import calibration
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_PROBES = 11
MIN_ROUNDS = 2  # so that repeated rounds can be compared byte for byte

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "cli.self_s": "s", "cli.artifact_bytes": "bytes",
    "grid.build_lattice_s": "s",
    "instances.callback_s": "s", "instances.driver_calls": "count",
    "instances.driver_evals": "count",
    "snell.solve_slice_s": "s", "snell.solve_slice_calls": "count",
    "volterra.solve_s": "s", "volterra.iterations": "count",
    "stopping.extract_frontier_s": "s", "stopping.extract_frontier_calls": "count",
    "stopping.frontier_rows_s": "s", "stopping.evaluate_J_s": "s",
    "stopping.evaluate_J_calls": "count", "stopping.inconsistency_report_s": "s",
    "stopping.premature_increment_mass_s": "s",
    "mc.simulate_s": "s", "mc.design_s": "s", "mc.design_calls": "count",
    "mc.solve_mc_s": "s", "mc.iterations": "count",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    pass


def import_cli():
    """Import rbsvie.cli from this checkout's src/, and from nowhere else."""
    pkg = SRC / "rbsvie"
    if not (pkg / "cli.py").is_file():
        raise BenchError(f"no rbsvie package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import rbsvie.cli

    if Path(rbsvie.cli.__file__).resolve().parent != pkg.resolve():
        raise BenchError(f"rbsvie imported from {rbsvie.cli.__file__}, not {pkg}")
    return rbsvie.cli


def measure_setup(workload: str, seed: int, size: str, work: Path) -> list:
    """Reference seconds from starting a fresh interpreter to ready, per probe."""
    samples = []
    for k in range(SETUP_PROBES):
        argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), size,
                str(work / f"probe-{k}")]
        calibration.calibrate()  # the first run after waiting on a probe is cold
        before = calibration.calibrate()
        t0 = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        ready, after = map(float, proc.stdout.split()[-2:])
        samples.append(calibration.scaled(ready - t0, [before, after]))
    return samples


def _digest(out: Path) -> tuple:
    """(sha256 over every artifact's name and bytes, total bytes)."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(out.rglob("*")):
        if path.is_file():
            data = path.read_bytes()
            h.update(path.relative_to(out).as_posix().encode() + b"\0")
            h.update(data)
            total += len(data)
    return h.hexdigest(), total


def _call(cli, argv) -> int:
    """cli.main's exit code; an exception escaping it counts as exit code -1."""
    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return -1


def run_round(cli, cmds: list, configs: list, out: Path) -> dict:
    """Run every command of a round once, sampling the CPU speed meanwhile.

    "wall" is the round's wall time in reference seconds (see calibration.py),
    "raw_wall" the same time as the clock read it; neither includes the
    calibration runs.
    """
    outs = [out / f"{k}-{cmd.label}" for k, cmd in enumerate(cmds)]
    argvs = [cmd.argv(cfg, o) for cmd, cfg, o in zip(cmds, configs, outs)]
    rcs, walls, scaled = [], [], []
    with redirect_stdout(io.StringIO()):
        for argv in argvs:
            with calibration.Sampler() as speed:
                rcs.append(_call(cli, argv))
            walls.append(speed.wall)
            scaled.append(speed.reference)
    digests = [_digest(o) if o.is_dir() else (None, 0) for o in outs]
    return {"wall": sum(scaled), "raw_wall": sum(walls), "rcs": rcs,
            "hashes": [d[0] for d in digests],
            "bytes": sum(d[1] for d in digests), "outs": outs}


def layer_metrics(summary: dict, counts: dict, artifact_bytes: int) -> dict:
    from spans import CALLBACKS

    def s(name):
        return summary[name]["self_s"]

    def c(name):
        return summary[name]["calls"]

    return {
        "cli.self_s": s("cli"), "cli.artifact_bytes": artifact_bytes,
        "grid.build_lattice_s": s("grid.build_lattice"),
        "instances.callback_s": sum(s(n) for n in CALLBACKS),
        "instances.driver_calls": c("instances.driver"),
        "instances.driver_evals": counts.get("instances.driver_evals", 0),
        "snell.solve_slice_s": s("snell.solve_slice"),
        "snell.solve_slice_calls": c("snell.solve_slice"),
        "volterra.solve_s": s("volterra.solve"),
        "volterra.iterations": counts.get("volterra.iterations", 0),
        "stopping.extract_frontier_s": s("stopping.extract_frontier"),
        "stopping.extract_frontier_calls": c("stopping.extract_frontier"),
        "stopping.frontier_rows_s": s("stopping.frontier_rows"),
        "stopping.evaluate_J_s": s("stopping.evaluate_J"),
        "stopping.evaluate_J_calls": c("stopping.evaluate_J"),
        "stopping.inconsistency_report_s": s("stopping.inconsistency_report"),
        "stopping.premature_increment_mass_s": s("stopping.premature_increment_mass"),
        "mc.simulate_s": s("mc.simulate"), "mc.design_s": s("mc.design"),
        "mc.design_calls": c("mc.design"), "mc.solve_mc_s": s("mc.solve_mc"),
        "mc.iterations": counts.get("mc.iterations", 0),
    }


def verdict(cmds: list, rounds: list) -> tuple:
    """(problems, failed commands) of a run's rounds.

    The first round's artifacts are checked; a later round's command fails
    with its first-round twin, or when its artifacts differ from it.
    """
    import checks

    first = rounds[0]
    problems, ok = [], []
    for cmd, rc, out in zip(cmds, first["rcs"], first["outs"]):
        found = checks.check_command(cmd, out) if rc == 0 else [f"exit code {rc}"]
        ok.append(not found)
        problems += [f"{cmd.label}: {p}" for p in found]
    for k, r in enumerate(rounds[1:], start=1):
        problems += [f"{cmd.label}: round {k} artifacts differ from round 0"
                     for cmd, h, h0 in zip(cmds, r["hashes"], first["hashes"]) if h != h0]
    failed = sum(1 for r in rounds
                 for rc, h, h0, good in zip(r["rcs"], r["hashes"], first["hashes"], ok)
                 if rc != 0 or h != h0 or not good)
    return problems, failed


def run(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> tuple:
    """One benchmark run: (result for the JSON line, extra figures to print)."""
    cmds = workloads.commands(workload, seed, size)
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        cli = import_cli()
        setup = [] if trace else measure_setup(workload, seed, size, work)
        configs = workloads.write_configs(cmds, work / "configs")
        tracer = None
        if trace:
            from spans import Tracer

            tracer = Tracer()

        rounds = []
        last = time.monotonic()
        deadline = last + seconds
        while True:
            now = time.monotonic()
            # no round starts that would end after the deadline at the last one's pace
            if len(rounds) >= MIN_ROUNDS and 2 * now - last > deadline:
                break
            last = now
            traced = tracer is not None and len(rounds) % 2 == 1
            if traced:
                mark, before = tracer.mark(), dict(tracer.counts)
                with tracer:
                    r = run_round(cli, cmds, configs, work / f"round-{len(rounds)}")
                counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()}
                r["layers"] = layer_metrics(tracer.summary(mark), counts, r["bytes"])
            else:
                r = run_round(cli, cmds, configs, work / f"round-{len(rounds)}")
            r["traced"] = traced
            if rounds:
                shutil.rmtree(work / f"round-{len(rounds)}")
            rounds.append(r)

        problems, failed = verdict(cmds, rounds)
        for p in problems:
            print(f"check failed: {p}", file=sys.stderr)
        print("round walls, reference s / clock s (t: traced): " + " ".join(
            f"{r['wall']:.3f}/{r['raw_wall']:.3f}{'t' if r['traced'] else ''}" for r in rounds),
            file=sys.stderr)

        if trace:
            plain = [r["wall"] for r in rounds if not r["traced"]]
            traced_rounds = [r for r in rounds if r["traced"]]
            values = {name: statistics.median_low(r["layers"][name] for r in traced_rounds)
                      for name in PER_LAYER if name != "trace.overhead_s"}
            values["trace.overhead_s"] = (statistics.median(r["wall"] for r in traced_rounds)
                                          - statistics.median(plain))
            OUT.mkdir(parents=True, exist_ok=True)
            tracer.save(OUT / f"trace-{workload}-seed{seed}.npz")
            units = PER_LAYER
        else:
            values = {
                "wall_s": statistics.median(r["wall"] for r in rounds),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END
        result = {
            "correct": not problems,
            "attempted": len(rounds) * len(cmds),
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        }
        clock = statistics.median(r["raw_wall"] for r in rounds if not r["traced"])
        return result, {"clock wall, median s (not gated)": clock, "rounds": len(rounds)}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds positive")
    try:
        result, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for name, value in notes.items():
        print(f"{name:40s} {value:.6g}")
    print(f"{'commands attempted':40s} {result['attempted']}")
    print(f"{'commands failed':40s} {result['failed']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
