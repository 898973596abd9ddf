"""sha256 manifest of every command's artifacts over the catalog.

    python3 scripts/artifact_manifest.py --n 1,2,5,9,50,100

For every catalog instance and each N of --n, runs `solve` (lattice and
`--engine mc` on 5000 paths from seed 7), `stop`, `compare` (the
instance with itself) and `verify-assumptions`, plus `compare` on the
american_put strike 0.9 / 1.0 pair; `oracle-check` runs on every
instance at each N of --n that is at most 5.  Each command runs
in-process through rbsvie.cli.main, in its own directory under a
temporary directory and with relative paths, so its console output does
not depend on where it ran.  Its exit code and
console output are written to console.txt beside its artifacts.  Prints
one `sha256  path` line per file (configs, console.txt and artifacts),
sorted by path, then `manifest <sha256>` over those lines: two trees
that print the same manifest wrote the same bytes.  The BLAS thread
setting follows the hash (OPENBLAS_NUM_THREADS and OMP_NUM_THREADS as
set, or "default"): the Monte Carlo artifacts' last bits depend on the
thread count OpenBLAS runs, so two manifests compare only at one setting.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

from rbsvie.cli import main as cli_main
from rbsvie.instances import CATALOG_NAMES

SEED = 7
N_PATHS = 5000
ORACLE_MAX_N = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def parse_ns(text: str) -> list:
    """'1,2,9' -> [1, 2, 9]."""
    return [int(part) for part in text.split(",") if part]


def _config(path: Path, name: str, n: int, params: dict) -> str:
    lines = ["[instance]", f"name = {name}"]
    lines += [f"{key} = {value}" for key, value in params.items()]
    lines += ["[grid]", f"N = {n}", "[mc]", f"n_paths = {N_PATHS}", f"seed = {SEED}"]
    path.write_text("\n".join(lines) + "\n")
    return path.name


def commands(ns: list) -> list:
    """(directory, argv with {a}/{b} for the config names, configs) per command.

    configs holds (instance name, N, params) per config the command reads.
    """
    runs = []
    for n in ns:
        for name in CATALOG_NAMES:
            one = [(name, n, {})]
            tag = f"N{n}/{name}"
            runs += [
                (f"{tag}/solve", ["solve", "--config", "{a}"], one),
                (f"{tag}/solve-mc", ["solve", "--engine", "mc", "--config", "{a}"], one),
                (f"{tag}/stop", ["stop", "--config", "{a}"], one),
                (f"{tag}/compare", ["compare", "--config", "{a}", "--config", "{b}"], one * 2),
                (f"{tag}/verify-assumptions", ["verify-assumptions", "--config", "{a}"], one),
            ]
        runs.append((f"N{n}/american_put-strike/compare",
                     ["compare", "--config", "{a}", "--config", "{b}"],
                     [("american_put", n, {"strike": 0.9}), ("american_put", n, {"strike": 1.0})]))
    for n in (n for n in ns if n <= ORACLE_MAX_N):
        runs += [(f"N{n}/{name}/oracle-check", ["oracle-check", "--config", "{a}"],
                  [(name, n, {})]) for name in CATALOG_NAMES]
    return runs


def run_all(root: Path, ns: list) -> None:
    """Run every command of commands(ns) under root."""
    for where, argv, configs in commands(ns):
        cwd = root / where
        cwd.mkdir(parents=True)
        names = [_config(cwd / f"{tag}.ini", name, n, params)
                 for tag, (name, n, params) in zip("ab", configs)]
        argv = [arg.format(a=names[0], b=names[-1]) for arg in argv] + ["--out", "out"]
        console = io.StringIO()
        before = os.getcwd()
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
                code = cli_main(argv)
        finally:
            os.chdir(before)
        (cwd / "console.txt").write_text(f"exit {code}\n{console.getvalue()}")


def manifest(root: Path) -> list:
    """`sha256  path` for every file under root, sorted by path."""
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(root).as_posix()}"
            for p in files]


def blas_threads() -> str:
    """The BLAS thread variables set in the environment, or "default"."""
    return " ".join(f"{var}={os.environ[var]}" for var in BLAS_THREAD_VARS
                    if var in os.environ) or "default"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=parse_ns, required=True, help="comma-separated N values")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        run_all(Path(tmp), args.n)
        lines = manifest(Path(tmp))
    print("\n".join(lines))
    print(f"manifest {hashlib.sha256(chr(10).join(lines).encode()).hexdigest()}  "
          f"BLAS threads: {blas_threads()}")


if __name__ == "__main__":
    main()
