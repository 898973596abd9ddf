"""Cross-check the lattice start value against regression Monte Carlo.

Prints the lattice y0, the MC estimate with its bootstrap standard
error, the z-score of the gap and the MC seconds (simulation and solve)
for each catalog instance, then the total MC seconds, the process's
peak resident memory and, next to it, mc.working_set_bytes for these
sizes: the bound on the path arrays that solve --engine mc's memory gate
checks.  The defaults are the sizes of acceptance criterion 09.

Usage: python3 scripts/mc_crosscheck.py [--n-steps 50] [--n-paths 100000]
       [--seed 20260825] [--basis pwlinear] [--degree 8]
"""

import argparse
import resource
import time

from rbsvie import mc
from rbsvie.instances import CATALOG_NAMES, catalog_instance
from rbsvie.stopping import stream_solve
from rbsvie.volterra import MAX_ITERS, sweep


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-steps", type=int, default=50)
    ap.add_argument("--n-paths", type=int, default=100_000)
    ap.add_argument("--seed", type=int, default=20260825)
    ap.add_argument("--basis", choices=("pwlinear", "polynomial"), default="pwlinear")
    ap.add_argument("--degree", type=int, default=8)
    args = ap.parse_args()

    basis = mc.RegressionBasis(args.basis, args.degree)
    print(f"{'instance':24s} {'lattice y0':>12s} {'mc y0':>12s} "
          f"{'se':>10s} {'z':>6s} {'secs':>6s}")
    total = 0.0
    for name in CATALOG_NAMES:
        spec = catalog_instance(name)
        lat = spec.lattice(args.n_steps)
        y_diag, _, _ = stream_solve(lat, sweep(lat, spec, MAX_ITERS))
        y0 = float(y_diag[0][0])
        t0 = time.perf_counter()
        bundle = mc.simulate(lat.grid, spec, args.n_paths, seed=args.seed)
        est = mc.solve_mc(bundle, spec, basis)
        el = time.perf_counter() - t0
        total += el
        z = abs(est.y0 - y0) / est.y0_se
        print(f"{name:24s} {y0:12.6f} {est.y0:12.6f} "
              f"{est.y0_se:10.2e} {z:6.2f} {el:6.1f}")
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    bound = mc.working_set_bytes(args.n_steps, args.n_paths, basis)
    print(f"total MC seconds {total:.1f}, peak RSS {peak_kib / 1024:.0f} MB, "
          f"mc.working_set_bytes {bound / 2**20:.0f} MB")


if __name__ == "__main__":
    main()
