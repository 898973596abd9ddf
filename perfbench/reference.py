"""Independent diagonal reference for the benchmark's output checks.

A layer-major backward sweep of the discrete scheme stated in the package
README: for anchor i and layer j >= i,

    ytilde_i[N]  = xi(t_i, x_N)
    z            = (ytilde_i[j+1][k+1] - ytilde_i[j+1][k]) / (2 sqrt(dt))
    ytilde_i[j]  = max(E_j ytilde_i[j+1] + f(t_i, t_j, x_j, Y[j], z) dt, L(t_j, x_j))

with the diagonal Y[j] = ytilde_j[j].  Anchor i reads the diagonal only on
layers j >= i, so one backward pass over layers is exact: at layer j the
anchor-j node values solve the scalar equation
v = max(E + f(t_j, t_j, x, v, z) dt, L), after which every anchor i < j
steps with Y[j] known.  The same pass thresholds every anchor's envelope
into stop regions and runs the backward induction of the anchor-0 rule
restarted at each anchor (the rule values the stopping report compares).
The sweep reads the instance's four maps and nothing else of the
package: no lattice, slice, fixed-point or stopping code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The frontier bounds bracket the package's 1e-9 stop threshold by the
# largest envelope error a 1e-10 fixed-point tolerance can leave.
STOP_ATOL = 1e-9
ENVELOPE_SLACK = 5e-10
SCALAR_MAX_ITERS = 200


class SweepError(RuntimeError):
    pass


@dataclass
class Reference:
    """Reference diagonal, stop regions and restarted-rule values.

    y[j] and x[j] are the layer-j node values and states, probs[j] the
    node probabilities.  For anchor i and layer j >= i, stop_strict[i][j - i]
    and stop_loose[i][j - i] are the (lowest, highest) states of the stop
    region thresholded ENVELOPE_SLACK below and above STOP_ATOL; either is
    None when that region is empty.

    j_restarted[i] is anchor i's expected payoff under the anchor-0 rule
    from layer i on, with the driver frozen at the diagonal and anchor i's
    z.  It is exact where restarted_sure[i] holds: there the strict and
    loose thresholds give anchor 0 the same stop nodes on every layer >= i.
    frontiers_identical tells whether every anchor's stop nodes equal
    anchor 0's on shared layers, or is None when the two thresholds differ
    on that.
    """

    n_steps: int
    times: np.ndarray
    x: list
    probs: list
    y: list
    stop_strict: list
    stop_loose: list
    j_restarted: np.ndarray
    restarted_sure: np.ndarray
    frontiers_identical: bool | None

    def expected_y(self, i: int) -> float:
        return float(np.dot(self.probs[i], self.y[i]))


def _as_layer(values, shape) -> np.ndarray:
    return np.broadcast_to(np.asarray(values, dtype=float), shape)


def _region(x_j: np.ndarray, mask: np.ndarray) -> list:
    lo = np.where(mask, x_j[None, :], np.inf).min(axis=1)
    hi = np.where(mask, x_j[None, :], -np.inf).max(axis=1)
    return [(float(a), float(b)) if np.isfinite(a) else None
            for a, b in zip(lo, hi)]


def _solve_anchor_node(spec, t_j, x_j, e, z, barrier, dt) -> np.ndarray:
    """Fixed point of v = max(e + f(t_j, t_j, x, v, z) dt, L) per node."""
    v = np.maximum(e, barrier)
    for _ in range(SCALAR_MAX_ITERS):
        f = _as_layer(spec.driver(t_j, t_j, x_j, v, z), v.shape)
        nxt = np.maximum(e + f * dt, barrier)
        if np.array_equal(nxt, v):
            return v
        v = nxt
    if np.max(np.abs(nxt - v)) > 1e-14 * (1.0 + np.max(np.abs(v))):
        raise SweepError(f"scalar equation at layer t = {t_j} did not settle")
    return v


def diagonal_sweep(spec, n_steps: int) -> Reference:
    """Solve the discrete diagonal on an n_steps lattice for an instance."""
    N = n_steps
    dt = spec.horizon / N
    sq = math.sqrt(dt)
    times = np.arange(N + 1) * dt
    x = [_as_layer(spec.dynamics(times[j], (2.0 * np.arange(j + 1) - j) * sq), (j + 1,))
         for j in range(N + 1)]
    probs = [np.array([math.comb(j, k) for k in range(j + 1)], dtype=float) / 2.0 ** j
             for j in range(N + 1)]

    # rows: anchors 0..j, columns: layer-(j+1) nodes; w holds the envelopes,
    # rest the values of the anchor-0 rule restarted at each anchor
    w = np.stack([_as_layer(spec.terminal(times[i], x[N]), (N + 1,))
                  for i in range(N + 1)])
    rest = w.copy()
    y = [None] * (N + 1)
    y[N] = w[N].copy()
    j_restarted = np.empty(N + 1)
    j_restarted[N] = float(np.dot(probs[N], w[N]))
    sure = np.ones(N + 1, dtype=bool)
    # the last layer is a stop layer for every anchor
    full = (float(x[N].min()), float(x[N].max()))
    strict_rows = [[None] * (N - i) + [full] for i in range(N + 1)]
    loose_rows = [[None] * (N - i) + [full] for i in range(N + 1)]
    identical = {"strict": True, "loose": True}
    ambiguous = False

    for j in range(N - 1, -1, -1):
        w, rest = w[: j + 1], rest[: j + 1]
        e = 0.5 * (w[:, 1:] + w[:, :-1])
        z = (w[:, 1:] - w[:, :-1]) / (2.0 * sq)
        barrier = _as_layer(spec.obstacle(times[j], x[j]), (j + 1,))
        v = _solve_anchor_node(spec, times[j], x[j], e[j], z[j], barrier, dt)
        y[j] = v
        f = _as_layer(spec.driver(times[: j + 1, None], times[j], x[j][None, :],
                                  v[None, :], z), (j + 1, j + 1))
        rows = np.maximum(e + f * dt, barrier[None, :])
        rows[j] = v

        slack = rows - barrier[None, :]
        masks = {"strict": slack <= STOP_ATOL - ENVELOPE_SLACK,
                 "loose": slack <= STOP_ATOL + ENVELOPE_SLACK}
        strict, loose = _region(x[j], masks["strict"]), _region(x[j], masks["loose"])
        for i in range(j + 1):
            strict_rows[i][j - i] = strict[i]
            loose_rows[i][j - i] = loose[i]
        for key, mask in masks.items():
            identical[key] = identical[key] and bool(np.all(mask == mask[0]))

        stop0 = masks["strict"][0]
        ambiguous = ambiguous or not np.array_equal(stop0, masks["loose"][0])
        rest = np.where(stop0[None, :], barrier[None, :],
                        0.5 * (rest[:, 1:] + rest[:, :-1]) + f * dt)
        j_restarted[j] = float(np.dot(probs[j], rest[j]))
        sure[j] = not ambiguous
        w = rows
    if not all(np.all(np.isfinite(row)) for row in y):
        raise SweepError("non-finite reference diagonal")
    same = identical["strict"] if identical["strict"] == identical["loose"] else None
    return Reference(n_steps=N, times=times, x=x, probs=probs, y=y,
                     stop_strict=strict_rows, stop_loose=loose_rows,
                     j_restarted=j_restarted, restarted_sure=sure,
                     frontiers_identical=same)
