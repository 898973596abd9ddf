"""Show how the anchor-coupled discount makes early plans go stale.

For each anchor t_i the solver's own stopping rule is compared against
the time-0 rule restarted at t_i.  A positive gap means a controller who
committed at time 0 leaves value on the table at t_i.  The classical put
(anchor-free data) shows zero gaps and a single frontier; the hyperbolic
discount does not.

Usage: python3 scripts/replanning_gaps.py [--n-steps 50] [--every 5]
"""

import argparse

from rbsvie.instances import catalog_instance
from rbsvie.stopping import stream_report
from rbsvie.volterra import MAX_ITERS, sweep


def report(name, n_steps, every):
    spec = catalog_instance(name)
    lat = spec.lattice(n_steps)
    rep, _ = stream_report(lat, sweep(lat, spec, MAX_ITERS))
    print(f"\n{name}: frontiers identical = {rep.frontiers_identical}, "
          f"max gap = {rep.max_gap:.3e}")
    print(f"{'t_i':>8s} {'E[Y(t_i)]':>12s} {'J(own)':>12s} {'J(time-0)':>12s} {'gap':>12s}")
    for i in range(0, n_steps + 1, every):
        print(f"{rep.anchor_times[i]:8.2f} {rep.e_y[i]:12.6f} "
              f"{rep.j_own[i]:12.6f} {rep.j_restarted[i]:12.6f} {rep.gap[i]:12.3e}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n-steps", type=int, default=50)
    ap.add_argument("--every", type=int, default=5)
    args = ap.parse_args()
    for name in ("american_put", "hyperbolic_discount"):
        report(name, args.n_steps, args.every)


if __name__ == "__main__":
    main()
