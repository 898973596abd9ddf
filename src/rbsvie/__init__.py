"""Numerical solvers for one-dimensional reflected backward stochastic
Volterra integral equations (RBSVIEs) with a lower obstacle.

The central object is the two-parameter family Y(t) solving

    Y(t) = xi(t) + int_t^T f(t, s, Y(s), Z(t, s)) ds
                 + int_t^T K(t, ds) - int_t^T Z(t, s) dW(s),
    Y(t) >= L(t),  K(t, .) increasing with the Skorohod flatness property.

Modules
-------
grid       time grid and recombining binomial lattice
instances  problem data catalog (driver, terminal, obstacle, dynamics)
volterra   backward sweep over anchors, one layer at a time; stored solutions
oracle     brute-force stopping-rule enumeration on small lattices
compare    ordered-pair gate and comparison checks
stopping   optimal stopping rules, frontiers and time-inconsistency gaps
mc         regression Monte Carlo cross-validator
cli        command line front end
snell      reference layer, never imported by the modules above:
           per-anchor slices (Snell envelopes), the global Picard map,
           the monotone approximation scheme
"""

from rbsvie.grid import TimeGrid, Lattice, build_lattice

__all__ = ["TimeGrid", "Lattice", "build_lattice"]
__version__ = "0.1.0"
