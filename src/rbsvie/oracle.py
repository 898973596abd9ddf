"""Brute-force verifiers on small lattices.

The reflected value solved by backward induction is, for a frozen pair
of fields (diagonal levels and one anchor's martingale coefficients),
the best value achievable by any stopping rule.  This module realizes
that maximum literally: enumerate every node-flag rule, score each one
by summing over every path of the subtree, take the max.  Everything is
deliberately naive, no recursion sharing with the solver, so agreement
is evidence rather than tautology.

Node-flag (Markov) rules suffice: all data on the lattice are node
functions, so path-dependent rules cannot score higher; the equivalence
tests confirm there is no gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rbsvie.grid import Lattice
from rbsvie.instances import InstanceSpec

MAX_RULE_NODES = 20


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class StoppingRule:
    """Absorbing stop flags per node, layers start..N, forced stop at N.

    flags[j - start][k] says whether a path at node (j, k) stops there.
    Adaptedness is structural: the flag only reads the current node.
    """

    start: int
    flags: tuple

    def stops(self, j: int, k: int) -> bool:
        return bool(self.flags[j - self.start][k])

    @property
    def n_layers(self) -> int:
        return len(self.flags)


def interior_node_count(n_steps: int, start: int) -> int:
    return sum(j + 1 for j in range(start, n_steps))


def _rule_from_mask(start: int, N: int, nodes: list, m: int, mask: int) -> StoppingRule:
    flags = [[False] * (j + 1) for j in range(start, N)]
    flags.append([True] * (N + 1))
    for p, (j, k) in enumerate(nodes):
        if (mask >> (m - 1 - p)) & 1:
            flags[j - start][k] = True
    return StoppingRule(start=start, flags=tuple(tuple(r) for r in flags))


def enumerate_rules(lat: Lattice, start: int):
    """Yield every stop-flag assignment on layers start..N-1.

    Layer N is always a forced stop.  Yields 2^(interior node count)
    rules, ordered so that rules stopping at earlier nodes come first
    (node order is layer-major; the earliest node is the most
    significant bit and masks descend).  Refuses more than
    MAX_RULE_NODES interior nodes.
    """
    N = lat.n_steps
    if not 0 <= start <= N:
        raise OracleError(f"start layer {start} outside [0, {N}]")
    nodes = [(j, k) for j in range(start, N) for k in range(j + 1)]
    m = len(nodes)
    if m > MAX_RULE_NODES:
        raise OracleError(
            f"{m} interior nodes from layer {start} exceeds the enumeration "
            f"bound {MAX_RULE_NODES}; use a smaller lattice or later start"
        )
    for mask in range(2**m - 1, -1, -1):
        yield _rule_from_mask(start, N, nodes, m, mask)


def payoff_of_rule(lat: Lattice, spec: InstanceSpec, i: int, k: int,
                   rule: StoppingRule, y_frozen, z_frozen) -> float:
    """Conditional expected payoff of a rule, exact sum over the subtree.

    From node (i, k): accrue f(t_i, s_j, X_j, y_frozen(s_j),
    z_frozen(t_i, s_j)) dt at every layer j passed without stopping
    (left-endpoint sum, matching the solver's step), collect the
    obstacle on an early stop and the anchor-i terminal value at N.
    y_frozen is the full diagonal (layer arrays); z_frozen is anchor i's
    coefficient rows, z_frozen[j - i] for layer j.
    """
    N = lat.n_steps
    if rule.start != i:
        raise OracleError(f"rule starts at layer {rule.start}, node is at {i}")
    grid = lat.grid
    dt = grid.dt
    t_i = grid.t(i)
    steps = N - i
    total = 0.0
    for bits in range(2**steps):
        node = k
        accrued = 0.0
        value = None
        for off in range(steps):
            j = i + off
            if rule.stops(j, node):
                value = float(spec.obstacle(grid.t(j), lat.x[j][node]))
                break
            accrued += dt * float(spec.driver(
                t_i, grid.t(j), lat.x[j][node],
                float(y_frozen[j][node]), float(z_frozen[off][node])))
            if (bits >> off) & 1:
                node += 1
        if value is None:
            value = float(spec.terminal(t_i, lat.x[N][node]))
        total += accrued + value
    return total / 2**steps


def best_rule(lat: Lattice, spec: InstanceSpec, i: int, k: int,
              y_frozen, z_frozen) -> tuple:
    """Max of payoff_of_rule over every enumerated rule from layer i.

    Returns (rule, value).  Ties keep the first rule in enumeration
    order, which prefers stopping at the earliest node (layer-major).
    """
    best = None
    best_val = -np.inf
    for rule in enumerate_rules(lat, i):
        v = payoff_of_rule(lat, spec, i, k, rule, y_frozen, z_frozen)
        if v > best_val:
            best = rule
            best_val = v
    return best, best_val

