"""The lattice diagonal against closed forms of the continuous equation.

Two catalog instances have a diagonal in closed form while their obstacle
stays inactive.  linear_z (X = x0 + sigma W, f = a z + b y, xi = x) is a
linear BSDE: by Girsanov, Y(t, x) = e^{b tau} (x + a sigma tau) with
tau = T - t.  custom_affine (X geometric with mu = 0, f = c + y_c Y(s) +
z_c z + t_c (s - t), xi = x) is anchor-coupled; its diagonal is linear in
x, and the two coefficients solve linear ODEs:

    Y(t, x) = e^{(sigma z_c + y_c) tau} x + c (e^{y_c tau} - 1) / y_c
              + t_c (e^{y_c tau} - 1 - y_c tau) / y_c^2.

The scheme is first order: the y0 error times N is constant, and the
worst error on the central nodes halves with each doubling of N.
"""

import functools
import math

import numpy as np
import pytest

from rbsvie.instances import catalog_instance
from rbsvie.stopping import stream_solve
from rbsvie.volterra import sweep

SIZES = (50, 100, 200, 400)


def _linear_z(tau, x, a=0.25, b=0.25, sigma=1.0):
    return np.exp(b * tau) * (x + a * sigma * tau)


def _custom_affine(tau, x, const=0.0, y_coef=0.2, z_coef=0.2, t_coef=0.3, sigma=0.3):
    grow = np.exp(y_coef * tau)
    return (np.exp((sigma * z_coef + y_coef) * tau) * x + const * (grow - 1.0) / y_coef
            + t_coef * (grow - 1.0 - y_coef * tau) / y_coef**2)


CLOSED_FORMS = {"linear_z": _linear_z, "custom_affine": _custom_affine}


@functools.cache
def _solved(name, n):
    """(lattice, diagonal, frontier rows) of the catalog instance at N = n."""
    spec = catalog_instance(name)
    lat = spec.lattice(n)
    y_diag, _, rows = stream_solve(lat, sweep(lat, spec, 200))
    return lat, y_diag, rows


def _central_error(name, n):
    """The largest |Y - closed form| over the nodes with |k - j/2| <=
    1.5 sqrt(j + 1) + 1 on every layer j, away from the obstacle's tails."""
    lat, y_diag, _ = _solved(name, n)
    horizon = lat.grid.horizon
    worst = 0.0
    for j in range(n + 1):
        k = np.arange(j + 1)
        central = np.abs(k - j / 2) <= 1.5 * math.sqrt(j + 1) + 1
        exact = CLOSED_FORMS[name](horizon - lat.grid.t(j), lat.x[j])
        worst = max(worst, float(np.abs(y_diag[j] - exact)[central].max()))
    return worst


def test_default_closed_form_values():
    assert _linear_z(1.0, 0.0) == pytest.approx(0.25 * math.exp(0.25), rel=1e-15)
    assert float(_linear_z(1.0, 0.0)) == pytest.approx(0.3210063542, abs=1e-10)
    assert float(_custom_affine(1.0, 1.0)) == pytest.approx(1.4574507729, abs=1e-10)


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_y0_error_times_n_is_constant(name):
    # measured: linear_z 0.010068 -> 0.010036, custom_affine -0.128628 -> -0.128516
    spec = catalog_instance(name)
    exact = float(CLOSED_FORMS[name](spec.horizon, spec.x0))
    scaled = np.array([(float(_solved(name, n)[1][0][0]) - exact) * n for n in SIZES])
    assert np.all(scaled != 0.0) and np.all(np.sign(scaled) == np.sign(scaled[0]))
    assert np.ptp(scaled) <= 0.005 * np.min(np.abs(scaled)), (name, scaled)


@pytest.mark.parametrize("name", sorted(CLOSED_FORMS))
def test_central_node_error_halves_per_doubling(name):
    # measured: falls by 2.00-2.11 per doubling of N
    errors = [_central_error(name, n) for n in SIZES]
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((1.9 <= ratios) & (ratios <= 2.2)), (name, errors, ratios)


@pytest.mark.parametrize("n", SIZES)
def test_custom_affine_never_stops_before_the_horizon(n):
    # the closed form ignores the obstacle: it applies only while the
    # lattice stops nowhere but on the terminal layer
    lat, _, rows = _solved("custom_affine", n)
    assert len(rows) == n + 1
    assert {row[1] for row in rows} == {lat.grid.t(n)}
