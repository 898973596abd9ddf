"""Command line front end.

Subcommands
    solve               solve an instance and write solution artifacts
    oracle-check        exhaustive stopping-rule audit on a small lattice
    compare             order two instances and check their solutions
    stop                stopping-rule consistency report
    verify-assumptions  spot-check the declared instance regularity

Configs are INI files; see the package README for the key reference.
Exit codes: 0 success, 1 bad config or infeasible request, 2 solver
failed to converge, 3 a verification check failed.  All artifacts are
byte-reproducible from (config, flags); those of `solve --engine mc` on
the same BLAS build and thread count (see rbsvie.mc).
"""

from __future__ import annotations

import argparse
import configparser
import functools
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from rbsvie import mc
from rbsvie.compare import CompareError, OrderedPair, check_comparison
from rbsvie.grid import GridError, TimeGrid, build_lattice, martingale_coeff
from rbsvie.instances import (CATALOG_NAMES, InstanceError, InstanceSpec, catalog_instance,
                              verify_assumptions)
from rbsvie.oracle import MAX_RULE_NODES, best_rule, interior_node_count
from rbsvie.stopping import stream_report, stream_solve
from rbsvie.volterra import MAX_ITERS, NoConvergence, VolterraError, per_anchor, sweep

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NO_CONVERGENCE = 2
EXIT_VERIFICATION = 3

ORACLE_TOLERANCE = 1e-10


class ConfigError(ValueError):
    pass


class VerificationFailure(RuntimeError):
    pass


_SECTIONS = {
    "instance": None,  # name plus free-form numeric parameters
    "grid": {"n"},
    "picard": {"max_iters", "mode"},
    "mc": {"n_paths", "seed", "basis_degree", "basis_family"},
    "output": {"dir"},
}


@dataclass
class RunConfig:
    spec: InstanceSpec
    grid: TimeGrid
    basis: mc.RegressionBasis
    instance_params: dict
    max_iters: int
    n_paths: int
    seed: int
    out_dir: str | None


def _get(cp, section, key, kind, default=None):
    """section.key read as kind (float or int), default where it is unset."""
    if not cp.has_option(section, key):
        return default
    raw = cp.get(section, key)
    try:
        return kind(raw)
    except ValueError:
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{section}.{key} must be {what}, got '{raw}'")


def load_config(path: str) -> RunConfig:
    """Parse and fully validate an INI run config into what the commands
    run: the instance, its grid of grid.N steps over the instance's
    horizon, and the Monte Carlo basis.

    Raises ConfigError on anything unexpected; nothing is written before
    validation succeeds.
    """
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read_string(p.read_text())
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")

    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = _SECTIONS[section]
        if allowed is not None:
            for key in cp.options(section):
                if key not in allowed:
                    raise ConfigError(f"unknown key {section}.{key}")

    if not cp.has_section("instance") or not cp.has_option("instance", "name"):
        raise ConfigError("config needs an [instance] section with a name")
    name = cp.get("instance", "name")
    if name not in CATALOG_NAMES:
        raise ConfigError(f"unknown instance '{name}'; known: {', '.join(CATALOG_NAMES)}")
    params = {}
    for key in cp.options("instance"):
        if key == "name":
            continue
        params[key] = _get(cp, "instance", key, float)

    n = _get(cp, "grid", "N", int, 50)
    if n < 1:
        raise ConfigError(f"grid.N must be >= 1, got {n}")

    max_iters = _get(cp, "picard", "max_iters", int, MAX_ITERS)
    if max_iters < 1:
        raise ConfigError("picard.max_iters must be >= 1")
    # perfbench/workloads.py still writes mode = global; the key goes once it stops
    mode = cp.get("picard", "mode", fallback="global")
    if mode != "global":
        raise ConfigError(f"picard.mode must be global, got '{mode}'")

    n_paths = _get(cp, "mc", "n_paths", int, 100_000)
    seed = _get(cp, "mc", "seed", int, 20260825)
    if seed < 0:
        raise ConfigError(f"mc.seed must be >= 0, got {seed}")
    degree = _get(cp, "mc", "basis_degree", int, 8)
    try:
        basis = mc.RegressionBasis(cp.get("mc", "basis_family", fallback="pwlinear"), degree)
    except mc.MCError as exc:
        raise ConfigError(f"mc basis: {exc}")
    if n_paths < 2 * basis.dim:
        raise ConfigError(f"mc.n_paths must be >= {2 * basis.dim} for a {basis.dim}-column "
                          f"basis, got {n_paths}")

    try:
        spec = catalog_instance(name, dict(params))
    except InstanceError as exc:
        raise ConfigError(str(exc))
    return RunConfig(spec, TimeGrid(spec.horizon, n), basis, params,
                     max_iters, n_paths, seed, cp.get("output", "dir", fallback=None))


# layer arrays a command holds at once while the sweep streams, each
# (N + 1) x (N + 1), or 2 x (N + 1) on an anchor-free instance's shared-row
# layers: the sweep's rows, expectations, coefficients and running terms,
# the stop report's previous-layer rows, flags and two rule inductions,
# and their temporaries (the sweep makes no reflection increments, the
# rule inductions step in place and the mass check reduces one row, so
# the report holds fewer temporaries than this bound leaves room for)
LAYER_ARRAYS = 12
# floats per frontier row that solve's sort holds besides the four frontier
# columns once the layers are gone: the joined columns, the order, and one
# sorted column and its product with dt
FRONTIER_SORT = 7
# entries per layer that solve's float -> string table may reach before it
# is emptied (see _write_solve)
STRING_TABLE = 4
# bytes per layer of the Python objects beside the floats: the per-layer
# array headers of the lattice, each diagonal and the frontier parts, the
# stop report's per-anchor floats, and solve's string table, at most
# STRING_TABLE + 1 entries per layer of a float, its repr and a dict slot
LAYER_OBJECTS = 4096
# bytes the first command in a process allocates whatever N is: the modules
# it imports on first use (argparse's gettext and locale, configparser,
# json) and the parser; about 241 KB at N = 1, bounded with a margin
FIRST_CALL = 327680
# (N + 1) x (N // 2 + 1) arrays verify-assumptions' anchor-axis probe holds:
# its z, the driver's result, a temporary (linear_z's a * z) and one more
PROBE_ARRAYS = 4
# bytes numpy.random takes when verify-assumptions first draws in a process,
# about 1.04 MB at its peak, bounded with a margin
RANDOM_FIRST_USE = 1310720


def _check_fits(what: str, need: int) -> None:
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise ConfigError(f"{what} needs {need} bytes, more than the {have} bytes "
                          f"of physical memory")


def _working_set(n: int, diagonals: int, layer_rows: int, frontier: bool) -> int:
    """Bytes a command holds at N = n: the lattice's two node arrays
    (states and probabilities), the diagonals and, with frontier, the four
    frontier columns (one row at most per anchor and layer), (N+1)(N+2)/2
    floats each, the larger of LAYER_ARRAYS layer arrays of layer_rows x
    (N+1) and the frontier sort's FRONTIER_SORT floats per row,
    LAYER_OBJECTS bytes per layer and FIRST_CALL bytes once."""
    triangle = (n + 1) * (n + 2) // 2
    return 8 * ((2 + diagonals + 4 * frontier) * triangle
                + max(LAYER_ARRAYS * layer_rows * (n + 1), FRONTIER_SORT * frontier * triangle)
                ) + LAYER_OBJECTS * (n + 1) + FIRST_CALL


def _lattice(grid: TimeGrid, specs: tuple, frontier: bool = False):
    """The lattice of specs[0], once the streamed working set of sweeping
    each of specs in turn fits in memory: one diagonal per spec, and the
    widest sweep's layer arrays, 2 rows on an anchor-free instance's
    shared-row layers and N + 1 otherwise."""
    n = grid.n_steps
    layer_rows = max(2 if spec.anchor_free else n + 1 for spec in specs)
    _check_fits(f"the streamed working set at N={n}",
                _working_set(n, len(specs), layer_rows, frontier))
    return build_lattice(grid, specs[0].x0, specs[0].dynamics)


def _out_dir(args, cfg: RunConfig) -> Path:
    out = Path(args.out or cfg.out_dir or ".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make the output directory {out}: {exc.strerror}")
    return out


def _json_floats(strs: list, indent: str) -> str:
    """A non-empty list of formatted floats laid out as json.dump(indent=2)
    lays out a list whose closing bracket sits at indent."""
    item = "\n" + indent + "  "
    return "[" + item + ("," + item).join(strs) + "\n" + indent + "]"


def _json_value(value, indent: str) -> str:
    """value as json.dump(indent=2, sort_keys=True) writes it at indent.

    A non-empty list of floats goes through float.__repr__ in one join,
    as json formats finite floats; other values, and lists holding NaN
    or an infinity (json writes NaN, Infinity), go through json.
    """
    if type(value) is list:
        try:
            strs = list(map(float.__repr__, value))
        except TypeError:  # not every item is a float
            strs = None
        if strs and "nan" not in strs and "inf" not in strs and "-inf" not in strs:
            return _json_floats(strs, indent)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _write_json(path: Path, obj: dict) -> None:
    """json.dump(obj, indent=2, sort_keys=True) and a newline, for a
    non-empty dict with string keys."""
    items = (json.dumps(key) + ": " + _json_value(obj[key], "  ") for key in sorted(obj))
    with open(path, "w") as fh:
        fh.write("{\n  " + ",\n  ".join(items) + "\n}\n")


def _strs(values: list, known: dict, cap: int) -> list:
    """repr of each float in values, read from the float -> string table
    known where it holds the value; the table gains the others except
    zeros, since 0.0 == -0.0 would share a key: each zero goes through
    repr and keeps its sign.  A table of more than cap entries is emptied
    first."""
    if len(known) > cap:
        known.clear()
    strs = list(map(known.get, values))
    if all(strs):
        return strs
    misses = strs.count(None)
    if misses == len(strs):  # nothing known: format all at once
        strs = list(map(repr, values))
        known.update(zip(values, strs))
        known.pop(0.0, None)
        return strs
    k = -1
    for _ in range(misses):
        k = strs.index(None, k + 1)
        strs[k] = s = repr(values[k])
        if values[k]:
            known[values[k]] = s
    return strs


def _write_solve(out: Path, payload: dict, times: list, y_diag, states, f_rows) -> None:
    """Write solution.json, y_diag.csv and frontier.csv, one layer at a time.

    The files are byte-equal to json.dump of payload plus "y_diag" (indent=2,
    sort_keys=True, then a newline) and to csv.writer(lineterminator="\n"),
    which formats floats with repr, over the rows.  Each diagonal value
    goes through repr once, and the JSON block and y_diag.csv share the
    strings.  Anchor times, node states and frontier values are read from
    one float -> string table of at most STRING_TABLE (N + 1) entries
    before a call to _strs adds up to N + 1: it holds every state of a
    Brownian lattice, whose layers repeat states two apart, and the
    recent frontier values, which repeat across anchors, while a
    geometric lattice's distinct states pass through.  times are the
    anchor times t_0..t_N.  The lattice passes y_diag and states as one
    node array per anchor; the MC engine passes one mean per anchor and
    states=None, which leaves node and state empty.  f_rows is either
    engine's (rows, 4) frontier array.  The solvers reject non-finite
    values, so every float prints as repr.
    """
    known = {}  # float -> string, for the states and the frontier columns
    cap = STRING_TABLE * len(times)
    t_str = _strs(times, known, cap)
    head, _, tail = json.dumps({**payload, "y_diag": None}, indent=2,
                               sort_keys=True).partition('"y_diag": null')
    with open(out / "solution.json", "w") as js, \
            open(out / "y_diag.csv", "w", newline="") as yc:
        js.write(head + '"y_diag": ')
        yc.write("anchor_time,node_index,state,y\n")
        if states is None:
            ys = list(map(repr, y_diag))
            js.write(_json_floats(ys, "  ") + tail + "\n")
            yc.write("".join(f"{t},,,{y}\n" for t, y in zip(t_str, ys)))
        else:
            js.write("[")
            k_str = [str(k) for k in range(len(times))]
            for i, (t, x, y) in enumerate(zip(t_str, states, y_diag)):
                xs = _strs(x.tolist(), known, cap)
                ys = list(map(repr, y.tolist()))
                js.write(("," if i else "") + "\n    " + _json_floats(ys, "    "))
                lead = t + ","
                yc.write(lead + ("\n" + lead).join(map(",".join, zip(k_str, xs, ys))) + "\n")
            js.write("\n  ]" + tail + "\n")
    step = len(times)
    with open(out / "frontier.csv", "w", newline="") as fc:
        fc.write("anchor_time,time,critical_state_low,critical_state_high\n")
        for start in range(0, len(f_rows), step):
            cols = [_strs(c, known, cap) for c in f_rows[start: start + step].T.tolist()]
            fc.write("\n".join(map(",".join, zip(*cols))) + "\n")


def cmd_solve(args) -> int:
    cfg = load_config(args.config[0])
    spec, grid = cfg.spec, cfg.grid
    if args.engine == "lattice":
        lat = _lattice(grid, (spec,), frontier=True)
    else:
        _check_fits(f"the Monte Carlo working set of {cfg.n_paths} paths at N={grid.n_steps}",
                    mc.working_set_bytes(grid.n_steps, cfg.n_paths, cfg.basis))
    out = _out_dir(args, cfg)

    if args.engine == "lattice":
        y_diag, update, f_rows = stream_solve(lat, sweep(lat, spec, cfg.max_iters))
        states, residuals = lat.x, [update]
        payload = {"y0": float(y_diag[0][0])}
    else:
        bundle = mc.simulate(grid, spec, cfg.n_paths, cfg.seed)
        sol = mc.solve_mc(bundle, spec, cfg.basis, cfg.max_iters)
        f_rows, residuals = sol.frontier_rows, sol.residual_history
        # mc rows estimate the mean diagonal: no lattice node applies
        y_diag, states = sol.e_y_diag, None
        payload = {
            "y0": sol.y0,
            "y0_se": sol.y0_se,
            "floor_margin": sol.floor_margin,
            "metadata": sol.metadata,
        }

    payload.update({
        "engine": args.engine,
        "instance": spec.label,
        "n_steps": grid.n_steps,
        "horizon": grid.horizon,
        "residual_history": [float(r) for r in residuals],
        "frontier": {"n_rows": len(f_rows)},
    })
    _write_solve(out, payload, grid.times.tolist(), y_diag, states, f_rows)
    print(f"solved {spec.label} (engine={args.engine}, N={grid.n_steps}): "
          f"y0={payload['y0']:.10g}; wrote {out}")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    cfg = load_config(args.config[0])
    spec, grid = cfg.spec, cfg.grid
    n = grid.n_steps
    worst = interior_node_count(n, 0)
    if worst > MAX_RULE_NODES:
        raise ConfigError(
            f"oracle-check needs at most {MAX_RULE_NODES} interior nodes; "
            f"N={n} has {worst} (use N <= 5)")
    lat = _lattice(grid, (spec,))
    out = _out_dir(args, cfg)

    layers = [per_anchor(layer) for layer in sweep(lat, spec, cfg.max_iters)][::-1]
    y_diag = [layer.v for layer in layers]
    z = [martingale_coeff(a.rows[:-1], grid.sqrt_dt) for a in layers[1:]]  # the sweep's z
    deviations = []
    for i in range(n + 1):
        zrow = [z[j][i] for j in range(i, n)]
        for k in range(i + 1):
            _, val = best_rule(lat, spec, i, k, y_diag, zrow)
            solver = float(y_diag[i][k])
            deviations.append({
                "anchor": i,
                "node": k,
                "solver": solver,
                "exhaustive": float(val),
                "abs_error": abs(solver - float(val)),
            })
    max_dev = max(d["abs_error"] for d in deviations)
    _write_json(out / "report.json", {
        "command": "oracle-check",
        "instance": spec.label,
        "n_steps": n,
        "tolerance": ORACLE_TOLERANCE,
        "max_abs_error": max_dev,
        "nodes_checked": len(deviations),
        "deviations": deviations,
    })
    print(f"oracle-check {spec.label} N={n}: max |error| = {max_dev:.3e} "
          f"over {len(deviations)} nodes; wrote {out / 'report.json'}")
    if max_dev > ORACLE_TOLERANCE:
        raise VerificationFailure(
            f"exhaustive stopping-rule values deviate by {max_dev:.3e} "
            f"(tolerance {ORACLE_TOLERANCE})")
    return EXIT_OK


def cmd_compare(args) -> int:
    if len(args.config) != 2:
        raise ConfigError("compare needs exactly two --config files (low, high)")
    cfg_lo = load_config(args.config[0])
    cfg_hi = load_config(args.config[1])
    if cfg_lo.grid.n_steps != cfg_hi.grid.n_steps:
        raise ConfigError("compare needs both configs on the same grid.N")
    if cfg_lo.max_iters != cfg_hi.max_iters:
        raise ConfigError("compare needs both configs on the same picard.max_iters")
    if (args.out is None and cfg_lo.out_dir and cfg_hi.out_dir
            and Path(cfg_lo.out_dir) != Path(cfg_hi.out_dir)):
        raise ConfigError("compare needs both configs on the same output.dir, or --out")
    spec_lo, spec_hi, grid = cfg_lo.spec, cfg_hi.spec, cfg_lo.grid
    lat = _lattice(grid, (spec_lo, spec_hi))
    try:
        pair = OrderedPair.build(spec_lo, spec_hi, lat)
    except CompareError as exc:
        raise ConfigError(f"pair rejected: {exc}")
    out = _out_dir(args, cfg_lo if cfg_lo.out_dir else cfg_hi)

    report = check_comparison(lat, pair, cfg_lo.max_iters)
    _write_json(out / "report.json", {
        "command": "compare",
        "low": spec_lo.label,
        "high": spec_hi.label,
        "low_params": cfg_lo.instance_params,
        "high_params": cfg_hi.instance_params,
        "n_steps": grid.n_steps,
        "ordering_witnesses": list(pair.witnesses),
        "max_diff": report.max_diff,
        "ordered": report.ordered,
        "witness": list(report.witness) if report.witness else None,
        "driver_ordering_ok": report.driver_ordering_ok,
        "y_range": list(report.y_range),
        "z_range": list(report.z_range),
    })
    print(f"compare {spec_lo.label} <= {spec_hi.label}: max(Y_lo - Y_hi) = "
          f"{report.max_diff:.3e}; wrote {out / 'report.json'}")
    if not report.ordered:
        raise VerificationFailure(
            f"solutions are not ordered: max(Y_lo - Y_hi) = {report.max_diff:.3e}")
    return EXIT_OK


def cmd_stop(args) -> int:
    cfg = load_config(args.config[0])
    spec, grid = cfg.spec, cfg.grid
    lat = _lattice(grid, (spec,))
    out = _out_dir(args, cfg)

    rep, masses = stream_report(lat, sweep(lat, spec, cfg.max_iters))
    mass = float(masses.max())
    _write_json(out / "inconsistency.json", {
        "command": "stop",
        "instance": spec.label,
        "n_steps": grid.n_steps,
        "anchor_times": list(rep.anchor_times),
        "e_y": list(rep.e_y),
        "j_own": list(rep.j_own),
        "j_restarted": list(rep.j_restarted),
        "gap": list(rep.gap),
        "max_gap": rep.max_gap,
        "frontiers_identical": rep.frontiers_identical,
        "inconsistent": rep.inconsistent(),
        "max_identity_error": rep.max_identity_error,
        "premature_increment_mass": mass,
    })
    print(f"stop {spec.label} N={grid.n_steps}: max gap = {rep.max_gap:.3e}, "
          f"frontiers identical = {rep.frontiers_identical}; "
          f"wrote {out / 'inconsistency.json'}")
    if rep.max_identity_error > 1e-8:
        raise VerificationFailure(
            f"own-rule value disagrees with E[Y] by {rep.max_identity_error:.3e}")
    if min(rep.gap) < -1e-8:
        raise VerificationFailure(
            f"a restarted rule beats the own rule by {-min(rep.gap):.3e}")
    if mass > 1e-12:
        raise VerificationFailure(
            f"reflection increments of size {mass:.3e} appear off the stop region")
    return EXIT_OK


def cmd_verify_assumptions(args) -> int:
    cfg = load_config(args.config[0])
    # the lattice's two node triangles and the probe, anchors 0..N on layer N // 2
    n = cfg.grid.n_steps
    need = 8 * ((n + 1) * (n + 2) + PROBE_ARRAYS * (n + 1) * (n // 2 + 1))
    _check_fits(f"the lattice and driver probe at N={n}", need + FIRST_CALL + RANDOM_FIRST_USE)
    out = _out_dir(args, cfg)

    rep = verify_assumptions(cfg.spec, n_steps=n)
    _write_json(out / "report.json", {
        "command": "verify-assumptions",
        "instance": rep.instance,
        "n_steps": rep.n_steps,
        "samples": rep.samples,
        "ok": rep.ok,
        "lipschitz_ratio": rep.lipschitz_ratio,
        "holder_ratio": rep.holder_ratio,
        "violations": [
            {"kind": v.kind, "detail": v.detail} for v in rep.violations
        ],
    })
    status = "ok" if rep.ok else f"{len(rep.violations)} violation(s)"
    print(f"verify-assumptions {cfg.spec.label}: {status}; wrote {out / 'report.json'}")
    if not rep.ok:
        raise VerificationFailure(
            "; ".join(v.detail for v in rep.violations[:3]))
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error exits 1 as a bad config does
        self.print_usage(sys.stderr)
        raise ConfigError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The rbsvie argument parser, built once per process (see main)."""
    parser = _Parser(
        prog="rbsvie",
        description="Lattice and Monte Carlo solvers for reflected "
                    "backward stochastic Volterra equations.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", action="append", required=True,
                        metavar="PATH", help="INI run config (repeatable where noted)")
        sp.add_argument("--out", default=None, metavar="DIR",
                        help="artifact directory (default: output.dir or cwd)")

    sp = sub.add_parser("solve", help="solve an instance and write artifacts")
    common(sp)
    sp.add_argument("--engine", choices=("lattice", "mc"), default="lattice")
    sp.set_defaults(fn=cmd_solve)

    sp = sub.add_parser("oracle-check",
                        help="exhaustive stopping-rule audit (small N only)")
    common(sp)
    sp.set_defaults(fn=cmd_oracle_check)

    sp = sub.add_parser("compare", help="order two instances and their solutions")
    common(sp)
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser("stop", help="stopping-rule consistency report")
    common(sp)
    sp.set_defaults(fn=cmd_stop)

    sp = sub.add_parser("verify-assumptions",
                        help="spot-check declared instance regularity")
    common(sp)
    sp.set_defaults(fn=cmd_verify_assumptions)
    return parser


def main(argv=None) -> int:
    """Run one subcommand on argv (default sys.argv[1:]) and return its exit code.

    The parser is built on the first call in a process and reused by every
    later one (build_parser is cached); nothing is built at import.
    """
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # parse_args exits only on --help, with 0
            return exc.code
        return args.fn(args)
    except (ConfigError, InstanceError, mc.MCError, VolterraError, GridError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())
