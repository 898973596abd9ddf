"""Output checks for each benchmark command.

Every check reads the artifacts a command wrote and compares them with
the independent reference sweep (reference.py) or with properties the
paper's solution must have.  A check returns a list of problems; an empty
list means the outputs are correct.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from reference import diagonal_sweep

DIAG_TOL = 2 * 1e-10      # twice the lattice fixed-point tolerance
EXACT_TOL = 1e-12         # values the scheme copies, up to rounding
IDENTITY_TOL = 1e-8       # |J_own - E[Y]| and the most negative gap
GAP_TOL = 1e-9            # a replanning gap above this is positive
MC_SE_MULTIPLE = 3.0


def _read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _spec(cmd):
    from rbsvie.instances import catalog_instance

    return catalog_instance(cmd.instance, dict(cmd.params))


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_solve(cmd, out: Path, spec, ref) -> list:
    """Lattice solve: every y_diag.csv node, solution.json and frontier.csv."""
    problems = []
    N = ref.n_steps
    rows = _read_csv(out / "y_diag.csv")
    if rows[0] != ["anchor_time", "node_index", "state", "y"]:
        return [f"y_diag.csv header {rows[0]}"]
    body = rows[1:]
    if len(body) != (N + 1) * (N + 2) // 2:
        return [f"y_diag.csv has {len(body)} rows, expected {(N + 1) * (N + 2) // 2}"]
    worst = 0.0
    values = []
    pos = 0
    for i in range(N + 1):
        barrier = np.broadcast_to(np.asarray(spec.obstacle(ref.times[i], ref.x[i]),
                                             dtype=float), (i + 1,))
        layer = []
        for k in range(i + 1):
            t, node, state, y = body[pos]
            pos += 1
            t, state, y = float(t), float(state), float(y)
            if int(node) != k or not _close(t, ref.times[i], EXACT_TOL) \
                    or not _close(state, ref.x[i][k], EXACT_TOL):
                problems.append(f"y_diag.csv row {pos}: node ({t}, {node}, {state}) "
                                f"is not lattice node ({i}, {k})")
                return problems
            worst = max(worst, abs(y - ref.y[i][k]))
            if y < barrier[k] - EXACT_TOL:
                problems.append(f"Y below the obstacle at node ({i}, {k})")
            layer.append(y)
        values.append(layer)
    if worst > DIAG_TOL:
        problems.append(f"y_diag deviates from the reference sweep by {worst:.3e} "
                        f"(tolerance {DIAG_TOL:.0e})")
    xi = np.broadcast_to(np.asarray(spec.terminal(ref.times[N], ref.x[N]), dtype=float),
                         (N + 1,))
    if not np.allclose(values[N], xi, rtol=EXACT_TOL, atol=EXACT_TOL):
        problems.append("Y(T) differs from the terminal payoff")

    sol = json.loads((out / "solution.json").read_text())
    if sol.get("n_steps") != N or sol.get("engine") != "lattice":
        problems.append("solution.json engine or n_steps mismatch")
    if sol.get("y_diag") != values or sol.get("y0") != values[0][0]:
        problems.append("solution.json y_diag or y0 disagrees with y_diag.csv")

    frows = _read_csv(out / "frontier.csv")[1:]
    if sol.get("frontier", {}).get("n_rows") != len(frows):
        problems.append("solution.json frontier n_rows disagrees with frontier.csv")
    problems += _check_frontier(frows, ref)
    return problems


def _check_frontier(frows: list, ref) -> list:
    """Each (anchor, layer) row must lie between the reference's stop bounds."""
    N = ref.n_steps
    got = {}
    for row in frows:
        t_i, t_j, lo, hi = map(float, row)
        i, j = int(round(t_i / ref.times[1])), int(round(t_j / ref.times[1]))
        got[(i, j)] = (lo, hi)
    problems = []
    for i in range(N + 1):
        for j in range(i, N + 1):
            strict, loose = ref.stop_strict[i][j - i], ref.stop_loose[i][j - i]
            row = got.pop((i, j), None)
            if row is None:
                if strict is not None:
                    problems.append(f"frontier misses stop nodes of anchor {i} at layer {j}")
                continue
            if loose is None:
                problems.append(f"frontier stops anchor {i} at layer {j} off the obstacle")
                continue
            lo, hi = row
            lo_max = strict[0] if strict else loose[1]
            hi_min = strict[1] if strict else loose[0]
            if not (loose[0] - EXACT_TOL <= lo <= lo_max + EXACT_TOL
                    and hi_min - EXACT_TOL <= hi <= loose[1] + EXACT_TOL):
                problems.append(f"frontier row ({i}, {j}) = ({lo}, {hi}) outside the "
                                f"reference stop bounds {strict} .. {loose}")
        if len(problems) > 5:
            break
    if got:
        problems.append(f"frontier has rows for no (anchor, layer) pair: {sorted(got)[:3]}")
    return problems


def check_stop(cmd, out: Path, spec, ref) -> list:
    """Stopping report: E[Y] and the restarted-rule values against the reference,
    the rule identities, the gaps and whether the frontiers move."""
    problems = []
    N = ref.n_steps
    rep = json.loads((out / "inconsistency.json").read_text())
    if rep.get("n_steps") != N or len(rep.get("e_y", ())) != N + 1:
        return ["inconsistency.json n_steps or length mismatch"]
    e_ref = [ref.expected_y(i) for i in range(N + 1)]
    worst = max(abs(a - b) for a, b in zip(rep["e_y"], e_ref))
    if worst > DIAG_TOL:
        problems.append(f"e_y deviates from the reference diagonal mean by {worst:.3e}")
    if not all(_close(a, b, EXACT_TOL) for a, b in zip(rep["anchor_times"], ref.times)):
        problems.append("anchor_times are not the grid times")
    ident = max(abs(a - b) for a, b in zip(rep["j_own"], e_ref))
    if ident > IDENTITY_TOL or rep["max_identity_error"] > IDENTITY_TOL:
        problems.append(f"own-rule value differs from E[Y] by {ident:.3e}")
    sure = [i for i in range(N + 1) if ref.restarted_sure[i]]
    rest = max(abs(rep["j_restarted"][i] - ref.j_restarted[i]) for i in sure)
    if rest > IDENTITY_TOL:
        problems.append(f"j_restarted deviates from the reference restarted-rule value "
                        f"by {rest:.3e}")
    if ref.frontiers_identical is not None \
            and rep["frontiers_identical"] != ref.frontiers_identical:
        problems.append(f"frontiers_identical is {rep['frontiers_identical']}, the "
                        f"reference stop regions say {ref.frontiers_identical}")
    gaps = rep["gap"]
    if any(abs(g - (a - b)) > EXACT_TOL for g, a, b in zip(gaps, rep["j_own"], rep["j_restarted"])):
        problems.append("gap is not j_own - j_restarted")
    if min(gaps) < -IDENTITY_TOL:
        problems.append(f"a restarted rule beats the own rule by {-min(gaps):.3e}")
    if rep["premature_increment_mass"] != 0.0:
        problems.append(f"premature reflection mass {rep['premature_increment_mass']:.3e}")
    if cmd.instance == "hyperbolic_discount":
        if not max(gaps[1:N]) > GAP_TOL or rep["frontiers_identical"] or not rep["inconsistent"]:
            problems.append("anchor-coupled instance shows no positive interior gap "
                            "with moving frontiers")
    elif cmd.instance == "american_put":
        if max(abs(g) for g in gaps) > GAP_TOL or not rep["frontiers_identical"] \
                or rep["inconsistent"]:
            problems.append("anchor-free instance shows a replanning gap or a moving frontier")
    return problems


def check_mc(cmd, out: Path, spec, ref) -> list:
    """Monte Carlo solve: y0 within 3 bootstrap SEs of the reference lattice."""
    problems = []
    sol = json.loads((out / "solution.json").read_text())
    y0, se, margin = sol["y0"], sol["y0_se"], sol["floor_margin"]
    if sol.get("engine") != "mc" or sol.get("n_steps") != ref.n_steps:
        problems.append("solution.json engine or n_steps mismatch")
    if not se > 0:
        problems.append(f"bootstrap standard error {se} is not positive")
    if not margin >= 0:
        problems.append(f"floor margin {margin} is negative")
    gap = y0 - ref.y[0][0]
    if not abs(gap) <= MC_SE_MULTIPLE * se:
        problems.append(f"MC y0 {y0!r} is {gap:+.3e} from the lattice reference "
                        f"{ref.y[0][0]!r}, beyond {MC_SE_MULTIPLE} x SE {se:.3e}")
    rows = _read_csv(out / "y_diag.csv")[1:]
    if len(rows) != ref.n_steps + 1 or any(r[1] or r[2] for r in rows):
        problems.append("mc y_diag.csv must hold one mean row per layer")
    return problems


_CHECKS = {"solve": check_solve, "stop": check_stop, "mc": check_mc}


def check_command(cmd, out: Path) -> list:
    """All problems found in the artifacts one command wrote to out."""
    spec = _spec(cmd)
    ref = diagonal_sweep(spec, cmd.n_steps)
    try:
        return _CHECKS[cmd.kind](cmd, out, spec, ref)
    except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
        return [f"unreadable artifacts: {exc!r}"]
