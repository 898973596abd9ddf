"""Problem data for the reflected Volterra equations.

An instance bundles four evaluation maps plus declared regularity
constants:

    driver    f(t, s, x, y, z)      running coefficient, Lipschitz in (y, z)
    terminal  xi(t, x)              anchor-indexed terminal payoff
    obstacle  L(u, x)               lower barrier, must sit below xi at T
    dynamics  x = dyn(t, w)         state as a function of the walk

All maps must be pure and vectorized over node arrays.  Declared
constants (Lipschitz slope c_f, time-increment Holder pair (c_1, alpha))
are trusted by the solvers and spot-checked by ``verify_assumptions``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from rbsvie.grid import Lattice, TimeGrid, build_lattice


class InstanceError(ValueError):
    pass


@dataclass(frozen=True)
class DriverSpec:
    """Running coefficient f(t, s, x, y, z) with declared constants.

    ``lipschitz`` bounds the joint (y, z) slope: |f(..,y,z) - f(..,y',z')|
    <= lipschitz * (|y-y'| + |z-z'|).  ``holder_const`` and
    ``holder_alpha`` bound the first-argument increment
    |f(t',s,..) - f(t,s,..)| <= holder_const * |t'-t|**holder_alpha for
    |y|, |z| <= 1; alpha may not exceed 1/2.  ``depends_on_anchor`` False
    declares that f never reads its first argument, the anchor t (see
    InstanceSpec.anchor_free).  ``y_sign`` declares the sign of every
    y-slope of f's float value, all else fixed: 0 when f reads no y, 1
    when it never falls as y rises, -1 when it never rises, None when
    undeclared.  The comparison gate and the monotone scheme trust 0 and
    1 (compare.OrderedPair, snell.monotone_scheme); the lattice sweep
    settles the per-node equation of a -1 driver on a certified secant
    (volterra._settle_diagonal).
    """

    name: str
    fn: Callable
    lipschitz: float
    holder_const: float = 0.0
    holder_alpha: float = 0.5
    y_sign: int | None = None
    depends_on_z: bool = True
    depends_on_anchor: bool = True

    def __post_init__(self):
        if self.lipschitz < 0 or not np.isfinite(self.lipschitz):
            raise InstanceError(f"lipschitz constant must be finite and >= 0, got {self.lipschitz}")
        if not 0.0 < self.holder_alpha <= 0.5:
            raise InstanceError(f"holder_alpha must lie in (0, 1/2], got {self.holder_alpha}")
        if self.holder_const < 0:
            raise InstanceError("holder_const must be >= 0")
        if self.y_sign is not None and (isinstance(self.y_sign, bool)
                                        or self.y_sign not in (-1, 0, 1)):
            raise InstanceError(f"y_sign must be -1, 0, 1 or None, got {self.y_sign!r}")

    def __call__(self, t, s, x, y, z):
        return self.fn(t, s, x, y, z)


@dataclass(frozen=True)
class TerminalSpec:
    """Terminal payoff xi(t, x_T); ``depends_on_anchor`` False declares
    that it never reads the anchor t."""

    name: str
    fn: Callable  # (t, x_T) -> value
    depends_on_anchor: bool = True

    def __call__(self, t, x):
        return self.fn(t, x)


@dataclass(frozen=True)
class ObstacleSpec:
    name: str
    fn: Callable  # (u, x) -> value

    def __call__(self, u, x):
        return self.fn(u, x)


@dataclass(frozen=True)
class DynamicsSpec:
    """State map x = dyn(t, w) of time and the walk coordinate.

    t may be a scalar or an array of node times that broadcasts against w:
    grid.build_lattice passes every node's layer time with a block of whole
    layers.  The map must be elementwise, so that a node's state does not
    depend on which other nodes share its call.
    """

    name: str
    fn: Callable  # (t, w) -> x

    def __call__(self, t, w):
        return self.fn(t, w)


@dataclass(frozen=True)
class InstanceSpec:
    """Immutable problem instance."""

    label: str
    driver: DriverSpec
    terminal: TerminalSpec
    obstacle: ObstacleSpec
    dynamics: DynamicsSpec
    x0: float
    horizon: float

    def __post_init__(self):
        if not np.isfinite(self.x0):
            raise InstanceError(f"x0 must be finite, got {self.x0}")
        if not np.isfinite(self.horizon) or self.horizon <= 0:
            raise InstanceError(f"horizon must be positive, got {self.horizon}")

    @property
    def anchor_free(self) -> bool:
        """Whether neither the driver nor the terminal reads the anchor.

        Then every anchor i < j steps the same numbers on layer j, and the
        sweep keeps one shared row for them (volterra.sweep); the equation
        is a reflected BSDE and stopping is time-consistent.
        """
        return not (self.driver.depends_on_anchor or self.terminal.depends_on_anchor)

    def lattice(self, n_steps: int) -> Lattice:
        return build_lattice(TimeGrid(self.horizon, n_steps), self.x0, self.dynamics)


# ---------------------------------------------------------------------------
# dynamics families


def brownian_dynamics(x0: float, sigma: float = 1.0) -> DynamicsSpec:
    if sigma <= 0:
        raise InstanceError("sigma must be positive")

    def fn(t, w):
        return x0 + sigma * np.asarray(w, dtype=float)

    return DynamicsSpec(name=f"brownian(x0={x0},sigma={sigma})", fn=fn)


def geometric_dynamics(x0: float, sigma: float, mu: float = 0.0) -> DynamicsSpec:
    if sigma <= 0:
        raise InstanceError("sigma must be positive")
    if x0 <= 0:
        raise InstanceError("geometric dynamics needs x0 > 0")
    try:
        drift = mu - 0.5 * sigma**2
    except OverflowError:  # a Python float power raises where numpy gives inf
        raise InstanceError(f"sigma is too large: sigma**2 overflows, got {sigma}") from None

    def fn(t, w):
        return x0 * np.exp(drift * t + sigma * np.asarray(w, dtype=float))

    return DynamicsSpec(name=f"geometric(x0={x0},sigma={sigma},mu={mu})", fn=fn)


# ---------------------------------------------------------------------------
# catalog

_FLOOR = -1.0e6  # effectively no obstacle

# instance -> parameter -> (default, must be positive), in the order
# catalog_instance checks them; every value must be finite
_PARAMS = {
    "american_put": {"strike": (1.0, True), "sigma": (0.2, True), "rate": (0.05, False),
                     "x0": (1.0, True), "horizon": (1.0, True)},
    "hyperbolic_discount": {"rho0": (0.5, False), "kappa": (1.0, False),
                            "terminal_scale": (1.0, False), "obstacle_gap": (0.1, False),
                            "sigma": (0.4, True), "x0": (0.1, False), "horizon": (1.0, True)},
    "zero_driver_flat": {"x0": (0.0, False), "sigma": (1.0, True), "horizon": (1.0, True)},
    "linear_z": {"a": (0.25, False), "b": (0.25, False), "obstacle_gap": (0.5, False),
                 "x0": (0.0, False), "sigma": (1.0, True), "horizon": (1.0, True)},
    "custom_affine": {"const": (0.0, False), "y_coef": (0.2, False), "z_coef": (0.2, False),
                      "t_coef": (0.3, False), "obstacle_gap": (0.4, False),
                      "x0": (1.0, True), "sigma": (0.3, True), "horizon": (1.0, True)},
}

_LINEAR_STATE = TerminalSpec(name="linear_state(scale=1.0)",
                             fn=lambda t, x: np.asarray(x, dtype=float) + 0.0,
                             depends_on_anchor=False)


def _linear_offset(gap: float) -> ObstacleSpec:
    return ObstacleSpec(name=f"linear_offset(gap={gap})", fn=lambda u, x: x - gap)


def _american_put(strike, sigma, rate, x0, horizon) -> InstanceSpec:
    if rate < 0:
        raise InstanceError("rate must be >= 0")

    driver = DriverSpec(
        name=f"discount(rate={rate})",
        fn=lambda t, s, x, y, z: -rate * y,
        lipschitz=rate,
        holder_const=0.0,
        y_sign=-1 if rate > 0 else 0,
        depends_on_z=False,
        depends_on_anchor=False,
    )
    payoff = lambda u, x: np.maximum(strike - x, 0.0)
    return InstanceSpec(
        label="american_put",
        driver=driver,
        terminal=TerminalSpec(name=f"put_payoff(strike={strike})", fn=lambda t, x: payoff(t, x),
                              depends_on_anchor=False),
        obstacle=ObstacleSpec(name=f"put_payoff(strike={strike})", fn=payoff),
        dynamics=geometric_dynamics(x0, sigma, mu=rate),
        x0=x0,
        horizon=horizon,
    )


def _hyperbolic_discount(rho0, kappa, terminal_scale, obstacle_gap, sigma, x0,
                         horizon) -> InstanceSpec:
    if rho0 < 0 or kappa < 0:
        raise InstanceError("rho0 and kappa must be >= 0")
    # terminal_scale != 1 or obstacle_gap < 0 can break terminal domination;
    # that is verify_assumptions' job to report, not a construction error

    def fn(t, s, x, y, z):
        return -rho0 / (1.0 + kappa * (s - t)) * y

    driver = DriverSpec(
        name=f"hyperbolic(rho0={rho0},kappa={kappa})",
        fn=fn,
        lipschitz=rho0,
        # calibrated for |y| <= 1: |f(t',..) - f(t,..)| <= rho0 kappa |t'-t|
        holder_const=rho0 * kappa * math.sqrt(max(horizon, 1.0)),
        holder_alpha=0.5,
        y_sign=-1 if rho0 > 0 else 0,
        depends_on_z=False,
        depends_on_anchor=rho0 != 0 and kappa != 0,
    )
    return InstanceSpec(
        label="hyperbolic_discount",
        driver=driver,
        terminal=TerminalSpec(name=f"linear_state(scale={terminal_scale})",
                              fn=lambda t, x: terminal_scale * x, depends_on_anchor=False),
        obstacle=_linear_offset(obstacle_gap),
        dynamics=brownian_dynamics(x0, sigma),
        x0=x0,
        horizon=horizon,
    )


def _zero_driver_flat(x0, sigma, horizon) -> InstanceSpec:
    driver = DriverSpec(
        name="zero",
        fn=lambda t, s, x, y, z: np.zeros_like(np.asarray(y, dtype=float)),
        lipschitz=0.0,
        y_sign=0,
        depends_on_z=False,
        depends_on_anchor=False,
    )
    return InstanceSpec(
        label="zero_driver_flat",
        driver=driver,
        terminal=_LINEAR_STATE,
        obstacle=ObstacleSpec(name="floor(-1e6)", fn=lambda u, x: np.full_like(np.asarray(x, dtype=float), _FLOOR)),
        dynamics=brownian_dynamics(x0, sigma),
        x0=x0,
        horizon=horizon,
    )


def _linear_z(a, b, obstacle_gap, x0, sigma, horizon) -> InstanceSpec:
    driver = DriverSpec(
        name=f"linear_z(a={a},b={b})",
        fn=lambda t, s, x, y, z: a * z + b * y,
        lipschitz=abs(a) + abs(b),
        y_sign=int(np.sign(b)),
        depends_on_z=a != 0,
        depends_on_anchor=False,
    )
    return InstanceSpec(
        label="linear_z",
        driver=driver,
        terminal=_LINEAR_STATE,
        obstacle=_linear_offset(obstacle_gap),
        dynamics=brownian_dynamics(x0, sigma),
        x0=x0,
        horizon=horizon,
    )


def _custom_affine(const, y_coef, z_coef, t_coef, obstacle_gap, x0, sigma,
                   horizon) -> InstanceSpec:
    def fn(t, s, x, y, z):
        return const + y_coef * y + z_coef * z + t_coef * (s - t)

    driver = DriverSpec(
        name=f"affine(const={const},y={y_coef},z={z_coef},t={t_coef})",
        fn=fn,
        lipschitz=abs(y_coef) + abs(z_coef),
        holder_const=abs(t_coef) * math.sqrt(max(horizon, 1.0)),
        holder_alpha=0.5,
        y_sign=int(np.sign(y_coef)),
        depends_on_z=z_coef != 0,
        depends_on_anchor=t_coef != 0,
    )
    return InstanceSpec(
        label="custom_affine",
        driver=driver,
        terminal=_LINEAR_STATE,
        obstacle=_linear_offset(obstacle_gap),
        dynamics=geometric_dynamics(x0, sigma, mu=0.0),
        x0=x0,
        horizon=horizon,
    )


_CATALOG = {
    "american_put": _american_put,
    "hyperbolic_discount": _hyperbolic_discount,
    "zero_driver_flat": _zero_driver_flat,
    "linear_z": _linear_z,
    "custom_affine": _custom_affine,
}

CATALOG_NAMES = tuple(sorted(_CATALOG))


def catalog_instance(name: str, overrides: Optional[dict] = None) -> InstanceSpec:
    """Build a named catalog instance, optionally overriding parameters.

    Unknown names and unknown or out-of-range parameters raise
    InstanceError: first the known parameters, in _PARAMS order, then
    the instance's own range checks, then any unknown parameter.
    """
    if name not in _CATALOG:
        raise InstanceError(f"unknown instance '{name}'; known: {', '.join(CATALOG_NAMES)}")
    given = dict(overrides or {})
    values = {}
    for key, (default, positive) in _PARAMS[name].items():
        raw = given.pop(key, default)
        v = float(raw)
        if not np.isfinite(v) or (positive and v <= 0):
            rule = "finite and positive" if positive else "finite"
            raise InstanceError(f"{key} must be {rule}, got {raw}")
        values[key] = v
    spec = _CATALOG[name](**values)
    if given:
        raise InstanceError(f"unknown parameters for '{name}': {', '.join(sorted(given))}")
    return spec


# ---------------------------------------------------------------------------
# derived instances (used by the comparison machinery and tests)

_SHIFT_SYMBOLS = {"driver": "f", "terminal": "xi", "obstacle": "L"}


def shifted(spec: InstanceSpec, datum: str, c: float) -> InstanceSpec:
    """Instance with one datum ("driver", "terminal" or "obstacle") moved
    by the constant c: f + c, xi + c or L + c.

    Every declaration carries over: f + c has f's slopes, dependence and
    y_sign, and xi + c xi's anchor declaration.  c >= 0 on the terminal,
    or c <= 0 on the obstacle, keeps terminal domination.
    """
    symbol, base = _SHIFT_SYMBOLS[datum], getattr(spec, datum)

    def fn(*args, _f=base.fn, _c=c):
        return _f(*args) + _c

    return replace(spec, label=f"{spec.label}[{symbol}+{c}]",
                   **{datum: replace(base, name=f"{base.name}+{c}", fn=fn)})


# ---------------------------------------------------------------------------
# assumption verification

ASSUMPTION_SEED = 20260825  # seeds verify_assumptions' samples


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str
    witness: tuple


@dataclass(frozen=True)
class AssumptionReport:
    instance: str
    n_steps: int
    samples: int
    lipschitz_ratio: float
    holder_ratio: float
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


def broadcast_defect(got: tuple, shape: tuple) -> str | None:
    """Why a result of shape got does not broadcast to shape, or None: it
    does when each trailing dimension of got is 1 or shape's."""
    lead = len(shape) - len(got)
    if lead < 0:
        return f"result shape {got}"
    for a, b in zip(got, shape[lead:]):
        if a != 1 and a != b:
            return f"result shape {got}"
    return None


def anchor_axis_defect(spec: InstanceSpec, anchor_t: np.ndarray, x: np.ndarray) -> str | None:
    """Why the driver fails the sweeps' anchor axis on nodes x, or None.

    The sweeps pass t as a column of anchor times against one layer's
    nodes and need a result that broadcasts to (anchors, nodes).  The
    driver is called at s = T with y = 0 and z = 0; with more anchors than
    nodes, a driver that folds the anchor axis into the node axis fails.
    """
    shape = (len(anchor_t), len(x))
    try:
        got = np.shape(spec.driver(anchor_t, spec.horizon, x, np.zeros_like(x),
                                   np.zeros(shape)))
    except ValueError as exc:
        return str(exc)
    return broadcast_defect(got, shape)


def verify_assumptions(spec: InstanceSpec, n_steps: int = 50,
                       samples: int = 400) -> AssumptionReport:
    """Spot-check the declared regularity of an instance on its lattice.

    Checks, with randomized sampling where exhaustion is impossible:

    * terminal domination: xi(t_i, x_T) >= L(T, x_T) at every terminal
      node, for every anchor time (exhaustive);
    * Lipschitz: |f(t,s,x,y,z) - f(t,s,x,y',z')| <= c_f (|dy| + |dz|),
      within 1 percent, sampled;
    * time-increment Holder: |f(t',s,..) - f(t,s,..)| <= c_1 |t'-t|^alpha
      for |y|, |z| <= 1, within 1 percent, sampled;
    * finiteness of f(t,s,x,0,0), xi and L on lattice nodes;
    * broadcasting: f with a column of anchor times against one layer's
      nodes has a result that broadcasts to (anchors, nodes);
    * the y-sign: f(t,s,x,y',z) is compared with f(t,s,x,y,z) on the
      Lipschitz samples' pairs (y, y'), with one more driver call and no
      more draws.  A driver declared y_sign 0 keeps its value, exactly
      (a dependence violation otherwise); one declared 1 or -1 does not
      move against that sign (a monotonicity violation otherwise).  The
      first sample that breaks the declaration is reported.
    * dependence: a driver declared free of z (depends_on_z False) or of
      the anchor t (depends_on_anchor False) keeps its value, exactly,
      as that argument moves, sampled; the first sample that moves it is
      reported.  A terminal declared anchor-free gives every anchor's
      terminal row exactly anchor 0's (exhaustive; the first other row
      is reported).  The Monte Carlo engine fits no z for a z-free
      driver, and the lattice sweep keeps one shared row for the anchors
      of an anchor-free instance.

    Report-only: violations are collected, never raised.
    """
    lat = spec.lattice(n_steps)
    grid = lat.grid
    T = spec.horizon
    rng = np.random.default_rng(ASSUMPTION_SEED)
    violations = []

    xT = lat.x[n_steps]
    LT = np.asarray(spec.obstacle(T, xT), dtype=float)
    if not np.all(np.isfinite(LT)):
        violations.append(Violation("finiteness", "obstacle non-finite at terminal layer", (n_steps,)))
    xi_free = not spec.terminal.depends_on_anchor  # until a row differs from anchor 0's
    for i in range(n_steps + 1):
        xi_vals = np.asarray(spec.terminal(grid.t(i), xT), dtype=float)
        if i == 0:
            xi_0 = xi_vals
        elif xi_free and not np.array_equal(xi_vals, xi_0, equal_nan=True):
            xi_free = False
            differ = (xi_vals != xi_0) & ~(np.isnan(xi_vals) & np.isnan(xi_0))
            k = int(np.argmax(np.broadcast_to(differ, xT.shape)))
            violations.append(Violation(
                "dependence",
                f"terminal declared depends_on_anchor=False differs at anchor {i} from "
                f"anchor 0 at terminal node {k}",
                (i, k),
            ))
        if not np.all(np.isfinite(xi_vals)):
            violations.append(Violation("finiteness", f"terminal non-finite at anchor {i}", (i,)))
            continue
        bad = np.flatnonzero(xi_vals < LT - 1e-12)
        if bad.size:
            k = int(bad[0])
            violations.append(Violation(
                "terminal_domination",
                f"xi(t_{i}, x) = {xi_vals[k]:.6g} < L(T, x) = {LT[k]:.6g} at terminal node {k}",
                (i, k),
            ))

    # node f of the (N+1)(N+2)/2, counted layer by layer: layer j starts at j(j+1)/2
    flat = rng.integers(0, (n_steps + 1) * (n_steps + 2) // 2, size=samples)
    starts = np.arange(n_steps + 1) * np.arange(1, n_steps + 2) // 2
    layers = np.searchsorted(starts, flat, side="right") - 1
    nodes = zip(layers.tolist(), (flat - starts[layers]).tolist())
    lip_max = 0.0
    hol_max = 0.0
    cf = spec.driver.lipschitz
    c1 = spec.driver.holder_const
    alpha = spec.driver.holder_alpha
    # declarations still to check, until a sample breaks one
    y_sign = spec.driver.y_sign
    z_free = not spec.driver.depends_on_z
    t_free = not spec.driver.depends_on_anchor
    for m, (j, k) in enumerate(nodes):
        x = float(lat.x[j][k])
        t, tp = sorted(rng.uniform(0.0, T, size=2))
        s = rng.uniform(tp, T)
        y, yp, z, zp = rng.uniform(-1.0, 1.0, size=4)
        f0 = float(spec.driver(t, s, x, y, z))
        if not np.isfinite(f0):
            violations.append(Violation("finiteness", f"driver non-finite at sample {m}", (j, k)))
            continue
        denom = abs(y - yp) + abs(z - zp)
        if denom > 1e-12:
            lip = abs(f0 - float(spec.driver(t, s, x, yp, zp))) / denom
            lip_max = max(lip_max, lip)
            if lip > cf * 1.01 + 1e-12:
                violations.append(Violation(
                    "lipschitz",
                    f"observed (y,z)-slope {lip:.6g} exceeds declared {cf:.6g}",
                    (t, s, x, y, z, yp, zp),
                ))
        if tp - t > 1e-10:
            fp = float(spec.driver(tp, s, x, y, z))
            hol = abs(fp - f0) / (tp - t) ** alpha
            hol_max = max(hol_max, hol)
            if hol > c1 * 1.01 + 1e-12:
                violations.append(Violation(
                    "holder",
                    f"observed time-increment ratio {hol:.6g} exceeds declared {c1:.6g}",
                    (t, tp, s, x, y, z),
                ))
            if t_free and fp != f0:
                t_free = False
                violations.append(Violation(
                    "dependence",
                    f"driver declared depends_on_anchor=False changes from {f0:.6g} "
                    f"to {fp:.6g} as the anchor t moves",
                    (t, tp, s, x, y, z),
                ))
        if y_sign is not None:
            fy = float(spec.driver(t, s, x, yp, z))
            broken = (fy != f0) if y_sign == 0 else (fy - f0) * (yp - y) * y_sign < 0.0
            if broken:
                moves = {0: "changes", 1: "falls", -1: "rises"}[y_sign]
                violations.append(Violation(
                    "dependence" if y_sign == 0 else "monotonicity",
                    f"driver declared y_sign={y_sign} {moves} from {f0:.6g} "
                    f"to {fy:.6g} as y moves from {y:.6g} to {yp:.6g}",
                    (t, s, x, y, z, yp),
                ))
                y_sign = None
        if z_free:
            fz = float(spec.driver(t, s, x, y, zp))
            if fz != f0:
                z_free = False
                violations.append(Violation(
                    "dependence",
                    f"driver declared depends_on_z=False changes from {f0:.6g} "
                    f"to {fz:.6g} as z moves",
                    (t, s, x, y, z, y, zp),
                ))

    for j in (0, n_steps // 2, n_steps):
        xj = lat.x[j]
        u = grid.t(j)
        if not np.all(np.isfinite(np.asarray(spec.obstacle(u, xj), dtype=float))):
            violations.append(Violation("finiteness", f"obstacle non-finite at layer {j}", (j,)))
        if not np.all(np.isfinite(np.asarray(spec.driver(0.0, u if u > 0 else T, xj,
                                                         np.zeros_like(xj), np.zeros_like(xj)), dtype=float))):
            violations.append(Violation("finiteness", f"driver non-finite on layer {j} at (y,z)=(0,0)", (j,)))

    # anchors 0..N against layer N // 2 give the two axes different lengths
    j = n_steps // 2
    shape = (n_steps + 1, j + 1)
    reason = anchor_axis_defect(spec, grid.times[:, None], lat.x[j])
    if reason is not None:
        violations.append(Violation(
            "broadcast",
            f"driver with an anchor column on layer {j} does not broadcast to "
            f"(anchors, nodes) = {shape}: {reason}",
            (j,),
        ))

    return AssumptionReport(
        instance=spec.label,
        n_steps=n_steps,
        samples=samples,
        lipschitz_ratio=lip_max,
        holder_ratio=hol_max,
        violations=tuple(violations),
    )
