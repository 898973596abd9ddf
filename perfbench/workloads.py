"""The benchmark's workloads: seeded inputs, INI configs and command rounds.

A round is the fixed list of rbsvie commands one workload runs.  Every
input is made from the benchmark seed: lattice workloads draw instance
parameters that move the obstacle and the starting state but not the
fixed-point contraction rate, so the Picard iteration count and with it
the work per round stay the same for every seed; the Monte Carlo workload
keeps the catalog parameters and passes the seed to the path simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# lattice steps and Monte Carlo paths per workload; "tiny" is for the
# benchmark's own tests
SIZES = {
    "full": {"lattice-solve": 100, "stop-report": 100, "mc-crosscheck": 25,
             "mc_paths": 5000},
    "tiny": {"lattice-solve": 8, "stop-report": 8, "mc-crosscheck": 6,
             "mc_paths": 400},
}

# seeded parameter ranges; each draw is rounded to four decimals
JITTER = {
    "hyperbolic_discount": {"obstacle_gap": (0.08, 0.12), "x0": (0.05, 0.15)},
    "custom_affine": {"obstacle_gap": (0.35, 0.45), "x0": (0.9, 1.1)},
    "american_put": {"strike": (0.95, 1.05)},
}

INSTANCES = {
    "lattice-solve": ("hyperbolic_discount", "custom_affine"),
    "stop-report": ("american_put", "hyperbolic_discount"),
    "mc-crosscheck": ("american_put", "hyperbolic_discount"),
}

WORKLOADS = tuple(INSTANCES)


@dataclass(frozen=True)
class Command:
    """One rbsvie invocation of a round."""

    kind: str  # "solve", "stop" or "mc"
    instance: str
    n_steps: int
    params: dict = field(default_factory=dict)
    mc_paths: int = 0
    mc_seed: int = 0

    @property
    def label(self) -> str:
        return f"{self.kind}-{self.instance}"

    def config_text(self) -> str:
        lines = ["[instance]", f"name = {self.instance}"]
        lines += [f"{key} = {val!r}" for key, val in sorted(self.params.items())]
        lines += ["", "[grid]", f"N = {self.n_steps}"]
        if self.kind == "mc":
            lines += ["", "[mc]", f"n_paths = {self.mc_paths}", f"seed = {self.mc_seed}"]
        else:
            lines += ["", "[picard]", "mode = global"]
        return "\n".join(lines) + "\n"

    def argv(self, config: Path, out: Path) -> list:
        sub = "stop" if self.kind == "stop" else "solve"
        argv = [sub, "--config", str(config), "--out", str(out)]
        if sub == "solve":
            argv += ["--engine", "mc" if self.kind == "mc" else "lattice"]
        return argv


def _params(instance: str, seed: int, index: int) -> dict:
    rng = np.random.default_rng([seed, index])
    return {key: round(float(rng.uniform(lo, hi)), 4)
            for key, (lo, hi) in JITTER[instance].items()}


def commands(workload: str, seed: int, size: str = "full") -> list:
    """The commands of one round of a workload, made from the seed."""
    if workload not in INSTANCES:
        raise ValueError(f"unknown workload '{workload}'; known: {', '.join(WORKLOADS)}")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    n = SIZES[size][workload]
    if workload == "mc-crosscheck":
        return [Command("mc", name, n, mc_paths=SIZES[size]["mc_paths"], mc_seed=seed)
                for name in INSTANCES[workload]]
    kind = "solve" if workload == "lattice-solve" else "stop"
    return [Command(kind, name, n, _params(name, seed, k))
            for k, name in enumerate(INSTANCES[workload])]


def write_configs(cmds: list, directory: Path) -> list:
    """Write one INI file per command; returns the paths in command order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, cmd in enumerate(cmds):
        path = directory / f"{k}-{cmd.label}.ini"
        path.write_text(cmd.config_text())
        paths.append(path)
    return paths
