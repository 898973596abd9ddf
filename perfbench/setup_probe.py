"""Set-up probe: a fresh interpreter gets ready to run a workload.

Imports rbsvie.cli (numpy and every package module with it) from the
checkout's src/ and writes the workload's INI configs, then prints the
monotonic clock, which the parent compares with the time it started this
process, and the mean time of calibration runs right after.  The first
calibration run in a fresh process pays one-off costs (first use of the
linear algebra routines and their threads), so it is left out.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED SIZE CONFIG_DIR
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import rbsvie.cli  # noqa: E402,F401  (the import is what is timed)

import calibration  # noqa: E402
import workloads  # noqa: E402

if __name__ == "__main__":
    workload, seed, size, directory = sys.argv[1:5]
    workloads.write_configs(workloads.commands(workload, int(seed), size), Path(directory))
    ready = time.monotonic()
    calibration.calibrate()
    after = sum(calibration.calibrate() for _ in range(3)) / 3
    print(repr(ready), repr(after))
