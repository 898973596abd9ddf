"""Solve every catalog instance on a lattice and print a summary table.

Usage: python3 scripts/run_catalog.py [--n-steps 50]

`driver calls` counts the driver calls of each instance's sweep.
"""

import argparse
from dataclasses import replace

from rbsvie.instances import CATALOG_NAMES, catalog_instance
from rbsvie.stopping import stream_solve
from rbsvie.volterra import MAX_ITERS, sweep


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-steps", type=int, default=50)
    args = ap.parse_args()

    print(f"{'instance':24s} {'y0':>14s} {'last residual':>14s} {'stop rows':>10s} "
          f"{'driver calls':>12s}")
    for name in CATALOG_NAMES:
        spec = catalog_instance(name)
        calls = [0]

        def counted(*a, fn=spec.driver.fn):
            calls[0] += 1
            return fn(*a)
        spec = replace(spec, driver=replace(spec.driver, fn=counted))
        lat = spec.lattice(args.n_steps)
        y_diag, update, rows = stream_solve(lat, sweep(lat, spec, MAX_ITERS))
        print(f"{name:24s} {y_diag[0][0]:14.8f} {update:14.3e} {len(rows):10d} "
              f"{calls[0]:12d}")


if __name__ == "__main__":
    main()
