"""Spectral distribution of the radiated field, by three routes.

The energy radiated per unit frequency per unit solid angle is

    dI/dOmega = (e^2 omega^2 / 16 pi^3) sin^2(theta) |J|^2,

where J = int_0^inf dz exp(i phi(z)) with phase

    phi(z) = (kappa omega / 4) z^2 + (2 omega / kappa) ln z
             + omega (zeta - cos theta) z.

Routes, kept deliberately independent of each other:

* ``distribution_numeric`` evaluates J by the saddle-contour
  integrator for any (zeta, theta); a whole (omega, theta) grid runs as
  one batched integration. Behind the special angle the contour cancels
  by up to e^{omega/kappa}, so its error bar can outgrow the value.
* ``distribution_exact_zeta0`` uses the closed hypergeometric form at
  zeta = 0, for any theta; a whole (omega, theta) grid is one vectorized
  evaluation. Its two terms cancel behind the special angle, and its
  error bar, _CLOSED_FORM_REL of the value times that cancellation
  factor, grows with it. The phase reads zeta and theta only through
  zeta - cos(theta), so the same form, with cos(theta) - zeta in place of
  cos(theta) and sin^2(theta) kept, holds at every zeta; the angular
  integral ``energy_spectrum`` uses it there too, but
  ``distribution_grid`` offers it at zeta = 0 alone.
* ``fermi_dirac_distribution`` is the special observation angle
  cos(theta0) = zeta, where the linear phase term drops and the
  distribution collapses to (1 - zeta^2)(e^2/8 pi^2)(omega/kappa) times
  the Fermi-Dirac occupancy 1/(e^{2 pi omega/kappa} + 1).

Angle-integrated spectra I(omega), N(omega) = I/omega, and the partial
energy and particle count carried by the special-angle form round out the
module. Closed forms always come with an explicit quadrature companion so
each claim is checkable against an independent code path. Every route
reads kappa only through y = omega/kappa: a value at omega = kappa y is
its kappa = 1 value at y, and a total or energy companion kappa times
its own.

The three routes share one signature, (params, omegas, us, sin2, tol)
-> (values, abs_errors) on the grid omegas x directions, so their callers
pick a route once and call it without branching on it again; the
Fermi-Dirac route's only direction is the special angle. The numeric and
exact routes work at unit charge, and their callers multiply a
distribution or a spectrum by e^2; the Fermi-Dirac form keeps e^2 in its
prefactor.
``distribution_grid`` runs any route on an (omega, theta) grid,
omega-major, as (values, abs_errors) arrays, the Fermi-Dirac route on the
special angle alone, and refuses on every route a sample whose error bar
exceeds _REFUSAL of its value, or a lit sample (sin^2(theta) > 0) whose
value underflows to 0. The three single-point distributions are its
one-point calls.
The total is e^2 kappa times its kappa = 1, unit-charge value, which
``_unit_total`` integrates once per (zeta, tol) per process. Both
integrals of the total, over u = cos(theta) in ``energy_spectrum`` and
over s = sqrt(omega), run on one nested Clenshaw-Curtis driver
(``_nested_cc``) with one schedule: its first call evaluates the 65 nodes
of order 64, from which order 32 reads every other one, and each order
from 128 to 512 then calls the integrand on only the nodes it adds to the
last, for only the rows not yet settled. At zeta = 0 an angular call is one
closed-form evaluation of the (omega, u) grid, whose two 1F1 series are
one ``specfun._kummer_grid`` call with a row per (series, omega) and a
column per distinct u^2. Off zeta = 0 each omega row picks its route: the
closed form, in u - zeta, up to X = (omega/kappa)(1 + |zeta|)^2 =
_EXACT_X_MAX, and above it one batched quadrature with a row, and a phase,
per (omega, u). A value does not depend on the grid it is batched with.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrature import _check_tol, _oscillatory_rows, integrate_semi_infinite
from .specfun import _kummer_grid, ln_gamma
from .trajectory import TrajectoryParams

__all__ = [
    "EmissionDirection",
    "SpectralSample",
    "distribution_grid",
    "distribution_numeric",
    "distribution_exact_zeta0",
    "fermi_dirac_distribution",
    "energy_spectrum",
    "particle_spectrum",
    "total_energy_spectral",
    "fd_partial_energy",
    "fd_partial_energy_quadrature",
    "fd_particle_count",
    "fd_particle_count_quadrature",
]

_METHODS = ("numeric", "exact-zeta0", "fermi-dirac")
# Relative error ascribed to closed-form evaluations: a conservative
# roundoff envelope, not a quadrature estimate.
_CLOSED_FORM_REL = 1e-13
# The smallest normal double: a value below it carries an absolute
# rounding that a relative bar underflows below.
_TINY = float(np.finfo(float).tiny)
# A sample whose error bar exceeds this fraction of its value is refused
# rather than returned, on every route: behind the special angle the
# contour's cancellation grows like e^{omega/kappa}, and such a value has
# fewer than three significant digits left.
_REFUSAL = 1e-3
# ``energy_spectrum`` integrates a row off zeta = 0 with the closed form when
# X = (omega/kappa)(1 + |zeta|)^2, the largest |iy (cos(theta) - zeta)^2| its
# 1F1s meet, is at most this, and on the contour above it. On a scan at zeta
# -0.99..0.99 in steps of 0.05 and tol 1e-6 and 1e-8
# (tests/scan_closed_form_reach.py), every closed row up to X 14 lay within
# 2.2e-13 of the contour's, also with long double read as double, and the
# first closed row off by more than tol was at X 22 (zeta 0.99): 1.57 times
# this.
_EXACT_X_MAX = 14.0
# Most elements one slice of an (omega, u) grid evaluates: the closed form's
# two series, or the quadrature's one integral, per (omega, u). Bigger grids
# run in slices of whole omega rows (one at the least), bounding their memory.
_SLICE_ELEMENTS = 1 << 12
_ROOT_I = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))     # sqrt(i)
# The closed form's two 1F1 series, M(1/2 - iy; 1/2; iy u^2) and
# M(1 - iy; 3/2; iy u^2), stacked on a leading axis so that one grid sums both.
_EXACT_A = np.array([0.5, 1.0])[:, None]
_EXACT_B = np.array([0.5, 1.5])[:, None]


def _check_omega(omega):
    """omega, a float or an array of floats, must be positive and finite."""
    if isinstance(omega, np.ndarray):
        ok = ((omega > 0.0) & np.isfinite(omega)).all()
    else:
        ok = omega > 0.0 and math.isfinite(omega)
    if not ok:
        raise DomainError("omega must be positive and finite")


@dataclasses.dataclass(frozen=True)
class EmissionDirection:
    """Polar observation angle; the problem is azimuthally symmetric."""

    theta: float

    def __post_init__(self):
        if not (0.0 <= self.theta <= math.pi):
            raise DomainError("theta must lie in [0, pi]")


@dataclasses.dataclass(frozen=True)
class SpectralSample:
    omega: float
    theta: float
    value: float
    method: str
    abs_error: float

    def __post_init__(self):
        _check_omega(self.omega)
        if not (self.value >= 0.0 and math.isfinite(self.value)):
            raise DomainError("spectral value must be non-negative and finite")
        if self.method not in _METHODS:
            raise DomainError(f"method must be one of {_METHODS}")
        if not (self.abs_error >= 0.0):
            raise DomainError("abs_error must be non-negative")


def _numeric_values(params: TrajectoryParams, omegas, us, sin2, tol: float):
    """dI/dOmega/e^2 and its error by quadrature on the grid omegas x us.

    ``us`` and ``sin2`` hold cos(theta) and sin^2(theta) of each direction.
    In the units w = kappa z/2, where every saddle lies on the unit circle,
    J = (2/kappa) e^{ib ln(2/kappa)} F(b, d) with b = 2 omega/kappa and
    d = zeta - cos(theta) (``quadrature.integrate_oscillatory``), so
    |J|^2 = (4/kappa^2) |F|^2. Each (omega, direction) integral F is one
    row of a batched integration with its own (b, d); grids with more than
    _SLICE_ELEMENTS lit rows run in slices of whole omega rows. Dark
    directions (sin^2(theta) = 0) skip the integral. Returns (values,
    abs_errors), each of shape (omegas.size, us.size).
    """
    values = np.zeros((omegas.size, sin2.size))
    abs_errors = np.zeros((omegas.size, sin2.size))
    lit = sin2 != 0.0
    if not lit.any():
        return values, abs_errors
    # the lit directions' shifts and prefactors, once for every slice
    shifts = params.zeta - us[lit]
    pref = sin2[lit] / (4.0 * math.pi**3)
    step = max(1, _SLICE_ELEMENTS // shifts.size)
    for s in range(0, omegas.size, step):
        omega = omegas[s:s + step, None]
        F, dF, _ = _oscillatory_rows(2.0 * omega / params.kappa, shifts, tol)
        # y|F| and y dF, y = omega/kappa, squared only as products: y^2
        # alone underflows below y ~ 1e-154, where y|F| is still ~ sqrt(y)
        y = omega / params.kappa
        mod = np.abs(F.reshape(omega.size, -1))
        mod *= y
        err = dF.reshape(omega.size, -1)
        err *= y
        values[s:s + step, lit] = pref * mod**2
        # |F|^2 error from the |F| error: 2|F| dF + dF^2.
        abs_errors[s:s + step, lit] = pref * (2.0 * mod * err + err**2)
    return values, abs_errors


def _exact_zeta0_values(params: TrajectoryParams, omegas, us, sin2, tol: float):
    """Closed-form dI/dOmega/e^2 and its error on the grid omegas x us.

    Arguments and result as for ``_numeric_values``; tol is not read.
    sin^2 is not 1 - u^2, which cancels near the poles. The form is the
    zeta = 0 one, which holds at every zeta with u = cos(theta) - zeta,
    since the phase reads zeta and theta only through zeta - cos(theta); at
    zeta = 0 the shift is exact and changes no bit. The values follow from

        m(u) = t1 + t2,  t1 = Gamma(1/2 - iy) 1F1(1/2 - iy; 1/2; iyu^2),
                         t2 = 2u sqrt(iy) Gamma(1 - iy) 1F1(1 - iy; 3/2; iyu^2),

    y = omega/kappa and u = cos(theta) - zeta. For u < 0 the two terms
    cancel by the factor K = (|t1| + |t2|)/|t1 + t2|, which grows like
    e^{2y|u|}, and the relative error grows with it: the bar is
    _CLOSED_FORM_REL K times the value, a roundoff envelope rather than an
    estimate. The 1F1s depend on u only through u^2, in [0, (1 + |zeta|)^2),
    and share a = 1/2 - iy or 1 - iy across it, so both series are one
    ``_kummer_grid`` call with a row per (series, omega) and a column per
    u^2. At zeta = 0 that is a column per distinct u^2, whose values go
    back to every u of that square: negating u negates t2 exactly, so a
    value keeps its bits whatever other nodes share its u^2, and the
    exactly odd nodes of ``_cc_rule`` sum half as many series. Off zeta = 0
    the nodes' squares do not pair, and each lit node is a column. A
    cell of that grid keeps its bits in any grid, so an element does not
    depend on the rest of the grid; grids whose two series hold more than
    _SLICE_ELEMENTS cells run in slices of whole omega rows. Dark
    directions (sin^2(theta) = 0) skip the series, as in
    ``_numeric_values``.
    """
    kappa = params.kappa
    out, err = np.zeros((2, omegas.size, us.size))
    lit = sin2 != 0.0
    if not lit.any():
        return out, err
    us, sin2 = us[lit] - params.zeta, sin2[lit]
    if params.zeta == 0.0:
        squares, at = np.unique(us**2, return_inverse=True)
    else:
        squares, at = us**2, slice(None)
    step = max(1, _SLICE_ELEMENTS // (2 * squares.size))
    for s in range(0, omegas.size, step):
        y = omegas[s:s + step] / kappa
        iy = 1j * y
        a = (_EXACT_A - iy).ravel()
        g_half, g_one = np.exp(ln_gamma(a)).reshape(2, -1, 1)
        m_half, m_one = _kummer_grid(a, _EXACT_B.repeat(y.size), np.concatenate((iy, iy)),
                                     squares).reshape(2, y.size, -1)[..., at]
        y = y[:, None]
        root_iy = np.sqrt(y) * _ROOT_I
        t1 = g_half * m_half
        t2 = 2.0 * us * root_iy * g_one * m_one
        mod = np.abs(t1 + t2)
        scale = y * sin2 / (16.0 * math.pi**3) * np.exp(-math.pi * y)
        value = scale * mod**2
        out[s:s + step, lit] = value
        # _CLOSED_FORM_REL K |value|, with K's division by |m| cancelled
        err[s:s + step, lit] = _CLOSED_FORM_REL * scale * mod * (np.abs(t1) + np.abs(t2))
    return out, err


def _fermi_dirac_values(params: TrajectoryParams, omegas, us, sin2, tol: float):
    """dI/dOmega at the special angle cos(theta0) = zeta and its error on omegas x [theta0].

    Arguments as for ``_numeric_values``, but theta0 is the route's only
    direction, so us, sin2 and tol are not read. The value is P/(e^{2 pi y}
    + 1) with P = (1 - zeta)(1 + zeta)(e^2/8 pi^2) y and y = omega/kappa:
    e^2 sits inside the closed form's prefactor, and the value is already
    charged. 1 - zeta^2 is formed as a product, which does not cancel as
    |zeta| -> 1. Where y overflows a double the occupancy, and so the
    value, is 0.

    The bar is _CLOSED_FORM_REL of the value plus 2 eps (1 + 2 pi y) of it,
    eps the double's epsilon, for two roundings whose effect grows with y.
    y = omega/kappa rounds by up to eps/2, and d ln(value)/d ln(y) = 1 -
    2 pi y (1 - occupancy) lies in [1 - 2 pi y, 1], so the value moves by
    up to (1 + 2 pi y) eps/2 of itself. 2 pi y carries the roundings of pi
    and of its product with y, eps in all, and d ln(occupancy)/d ln(2 pi y)
    is at most 2 pi y, so the value moves by up to 2 pi y eps more. Their sum
    is below 1.5 eps (1 + 2 pi y); the factor 2 leaves eps/2 of (1 + 2 pi y)
    for ``exp`` and the prefactor's roundings, whose few eps _CLOSED_FORM_REL
    covers on its own. Where the occupancy or the value is subnormal, the bar
    adds (P + 1) times two of the smallest subnormal: the occupancy's
    rounding times P and the value's own. Returns (values, abs_errors), each
    of shape (omegas.size, 1).
    """
    zeta = params.zeta
    with np.errstate(over="ignore", invalid="ignore"):
        y = omegas / params.kappa
        x = 2.0 * math.pi * y
        occupancy = _occupancy(x)
        pref = (1.0 - zeta) * (1.0 + zeta) * params.e_squared / (8.0 * math.pi**2) * y
        lit = occupancy > 0.0
        # where y overflows, pref * occupancy and the bar are inf * 0 for a true 0
        values = np.where(lit, pref * occupancy, 0.0)
        bars = np.where(lit, values * (_CLOSED_FORM_REL + 2.0 * math.ulp(1.0) * (1.0 + x)), 0.0)
    subnormal = lit & ((occupancy < _TINY) | (values < _TINY))
    rounding = np.where(subnormal, (pref + 1.0) * (2.0 * math.ulp(0.0)), 0.0)
    return values[:, None], (bars + rounding)[:, None]


def distribution_grid(params: TrajectoryParams, omegas, thetas, method: str,
                      tol: float = 1e-9):
    """dI/dOmega on the grid omegas x thetas, omega-major, in one call.

    Returns (values, abs_errors), each of shape (len(omegas), len(thetas)).
    ``method`` is "numeric" (quadrature to tol, any zeta), "exact-zeta0"
    (the closed form, zeta = 0 only) or "fermi-dirac" (the special angle
    alone: thetas must be [acos(zeta)]); the closed forms do not read tol.
    Thetas lie in [0, pi]. The first two routes work at unit charge, and e^2
    multiplies their values. Where a unit value, or its product with e^2, is
    positive and below the smallest normal double, each carries a rounding of
    up to half the smallest subnormal, which a relative bar underflows below:
    its bar adds (1 + 1/e^2) times two of the smallest subnormal, as
    ``_fermi_dirac_values`` does, so no such value has a zero bar. On every
    route, a sample whose abs_error exceeds _REFUSAL of its value, or a lit
    one whose value underflows to 0, raises ``ConvergenceError`` with that
    sample as ``best``; the bar is divided by _REFUSAL rather than the value
    multiplied, which would round a subnormal value's side of the test.
    """
    routes = {"numeric": _numeric_values, "exact-zeta0": _exact_zeta0_values,
              "fermi-dirac": _fermi_dirac_values}
    if method not in routes:
        raise DomainError(f"method must be one of {_METHODS}")
    if method == "exact-zeta0" and params.zeta != 0.0:
        raise DomainError("the exact closed form applies only at zeta = 0")
    thetas = list(thetas)
    if method == "fermi-dirac" and thetas != [math.acos(params.zeta)]:
        raise DomainError("the Fermi-Dirac form applies only at theta = acos(zeta)")
    if not all(0.0 <= theta <= math.pi for theta in thetas):
        raise DomainError("theta must lie in [0, pi]")
    omega_arr = np.asarray(omegas, dtype=float)
    _check_omega(omega_arr)
    us = np.array([math.cos(theta) for theta in thetas])
    sin2 = np.array([math.sin(theta) ** 2 for theta in thetas])
    values, abs_errors = routes[method](params, omega_arr, us, sin2, tol)
    if method != "fermi-dirac":
        # a unit value, or its product with e^2, below the smallest normal
        low = (values > 0.0) & (values < max(_TINY, _TINY / params.e_squared))
        abs_errors[low] += 2.0 * math.ulp(0.0) + 2.0 * math.ulp(0.0) / params.e_squared
        values = params.e_squared * values
        abs_errors = params.e_squared * abs_errors
    valid = (values >= 0.0) & np.isfinite(values) & (abs_errors >= 0.0)
    # a lit direction's value is positive: a 0 there has underflowed
    underflow = (values == 0.0) & (sin2 != 0.0)
    refused = (abs_errors / _REFUSAL > values) | underflow
    if not valid.all() or refused.any():
        # the first invalid sample, whose SpectralSample raises DomainError,
        # else the first refused one, omega-major
        k = int(np.argmin(valid)) if not valid.all() else int(refused.argmax())
        i, j = divmod(k, len(thetas))
        s = SpectralSample(omegas[i], thetas[j], values.item(k), method,
                           abs_errors.item(k))
        why = ("a positive value that underflows a double" if underflow.item(k)
               else f"an error bar above {_REFUSAL:g} of the value")
        raise ConvergenceError(
            f"{method} dI/dOmega at omega={s.omega:.6g}, theta={s.theta:.6g} "
            f"is {s.value:.3e} +- {s.abs_error:.3e}, {why}", best=s)
    return values, abs_errors


def _one_point(params: TrajectoryParams, omega: float, theta: float, method: str,
               tol: float = 1e-9) -> SpectralSample:
    """The one-point ``distribution_grid`` call at (omega, theta), as a sample."""
    values, abs_errors = distribution_grid(params, [omega], [theta], method, tol)
    return SpectralSample(omega, theta, values.item(), method, abs_errors.item())


def distribution_numeric(params: TrajectoryParams, omega: float,
                         dir: EmissionDirection, tol: float = 1e-9) -> SpectralSample:
    """dI/dOmega by direct quadrature of the emission integral."""
    return _one_point(params, omega, dir.theta, "numeric", tol)


def distribution_exact_zeta0(kappa: float, e_squared: float, omega: float,
                             dir: EmissionDirection) -> SpectralSample:
    """dI/dOmega from the hypergeometric closed form (zeta = 0 only)."""
    return _one_point(TrajectoryParams(kappa, 0.0, e_squared), omega, dir.theta,
                      "exact-zeta0")


def _occupancy(x):
    """Fermi-Dirac occupancy 1/(e^x + 1), overflow-safe for large x."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    pos = e / (1.0 + e)          # x >= 0
    neg = 1.0 / (1.0 + e)        # x < 0
    return np.where(x >= 0.0, pos, neg)


def fermi_dirac_distribution(params: TrajectoryParams, omega: float) -> SpectralSample:
    """dI/dOmega at the special angle cos(theta0) = zeta, in closed form.

    A value that underflows to 0 is refused as on the grid.
    """
    return _one_point(params, omega, math.acos(params.zeta), "fermi-dirac")


@functools.cache
def _cc_rule(n):
    """Clenshaw-Curtis rule of order n in u = cos(theta): (us, sin2, ws).

    The n + 1 nodes u_k = cos(k pi/n) run from 1 to -1 and are built as
    sin(pi (n - 2k)/2n), so that u_{n-k} = -u_k exactly; sin^2(theta) is
    cos(pi (n - 2k)/2n)^2, exactly 0 at the poles, and the weights follow
    Waldvogel (BIT 46:195, 2006). The even-indexed nodes of order 2n are
    the nodes of order n, bit for bit.
    """
    k = np.arange(n + 1)
    angle = np.pi * (n - 2 * k) / (2 * n)
    us = np.sin(angle)
    sin2 = np.cos(angle) ** 2
    sin2[[0, -1]] = 0.0
    j = np.arange(1, n // 2 + 1)
    b = np.where(j == n // 2, 1.0, 2.0) / (4.0 * j * j - 1.0)
    # cos(2 j k pi/n), reduced exactly and taken at min(k, n - k) so that
    # the weights are as symmetric as the nodes
    jk = (2 * np.outer(np.minimum(k, n - k), j)) % (2 * n)
    ws = np.where((k == 0) | (k == n), 1.0, 2.0) / n * (1.0 - np.cos(np.pi * jk / n) @ b)
    return us, sin2, ws


def _nested_cc(f, rows, scale, tol, abs_floor):
    """Integrals over u in [-1, 1] of ``rows`` integrands, by nested Clenshaw-Curtis.

    ``f(todo, us, sin2)`` maps the unsettled rows' indices and nodes of
    ``_cc_rule`` to a (todo.size, us.size) array. The first call takes the
    65 nodes of order 64, which order 32 reads at its even indices; orders
    128, 256 and 512 each call ``f`` on their odd-indexed new nodes only.
    A row's value, scale times its own weighted sum, settles once it moves
    from the last order's (0 at order 32) by at most max(tol |value|,
    abs_floor). Both integrands are analytic in u, so the rules converge
    geometrically and order 64 settles most rows. Returns (values, the
    index array of the rows unsettled at order 512).
    """
    n, todo, out = 64, np.arange(rows), np.zeros(rows)
    vals = f(todo, *_cc_rule(n)[:2])
    for order in (32, 64, 128, 256, 512):
        if order > n:
            us, sin2, _ = _cc_rule(order)
            grid = np.empty((todo.size, order + 1))
            grid[:, ::2] = vals
            grid[:, 1::2] = f(todo, us[1::2], sin2[1::2])
            vals, n = grid, order
        cur = scale * np.vecdot(vals[:, ::n // order], _cc_rule(order)[2])
        done = np.abs(cur - out[todo]) <= np.maximum(tol * np.abs(cur), abs_floor)
        out[todo] = cur
        if done.any():
            keep = ~done
            todo, vals = todo[keep], vals[keep]
            if todo.size == 0:
                break
    return out, todo


def energy_spectrum(params: TrajectoryParams, omega, tol: float = 1e-6,
                    *, force_numeric: bool = False, abs_floor: float = 0.0):
    """Solid-angle integral I(omega) = 2 pi int_{-1}^{1} du dI/dOmega.

    omega is a float, which returns a float, or a 1-d array, which returns
    an array. Each omega is a row of ``_nested_cc`` in u = cos(theta): the
    first call evaluates the 65 nodes of order 64, for orders 32 and 64,
    and orders 128, 256 and 512 add 64, 128 and 256 new nodes for the rows
    not yet settled. abs_floor, in the units of I, lets deep exponential
    tails of a larger frequency integral stop without chasing relative
    accuracy of negligible numbers; it changes when a row settles, never
    which nodes a call takes. The rows run at unit charge, and e^2
    multiplies I. Each row picks its integrand once: the closed form
    (``_exact_zeta0_values``) at zeta = 0, and off it where X =
    (omega/kappa)(1 + |zeta|)^2 is at most _EXACT_X_MAX; quadrature on the
    saddle contour (``_numeric_values``) otherwise. ``force_numeric`` sends
    every row to the contour. A row's value is the same in any batch. tol
    must lie in (0, 1e-2]. A row unsettled at order 512 raises
    ``ConvergenceError`` with its last value as ``best`` (``_unit_refusal``).
    """
    _check_tol(tol)
    omegas = np.asarray(omega, dtype=float)
    scalar = omegas.ndim == 0
    omegas = np.atleast_1d(omegas)
    if omegas.ndim != 1:
        raise DomainError("omega must be a float or a 1-d array")
    _check_omega(omegas)
    closed = np.full(omegas.size, not force_numeric)
    if params.zeta != 0.0:
        closed &= omegas / params.kappa * (1.0 + abs(params.zeta)) ** 2 <= _EXACT_X_MAX

    if closed.all() or not closed.any():
        # every row takes one route, which the integrand calls directly
        route = _exact_zeta0_values if closed[0] else _numeric_values

        def integrand(rows, us, sin2):
            return route(params, omegas[rows], us, sin2, tol / 8.0)[0]
    else:
        def integrand(rows, us, sin2):
            out = np.empty((rows.size, us.size))
            for route, pick in ((_exact_zeta0_values, closed[rows]),
                                (_numeric_values, ~closed[rows])):
                if pick.any():
                    out[pick] = route(params, omegas[rows[pick]], us, sin2, tol / 8.0)[0]
            return out

    out, todo = _nested_cc(integrand, omegas.size, 2.0 * math.pi, tol,
                           abs_floor / params.e_squared)
    if todo.size:
        w, best = float(omegas[todo[0]]), params.e_squared * float(out[todo[0]])
        raise _unit_refusal(lambda kappa, e2: ConvergenceError(
            f"angular quadrature did not stabilize for omega={kappa * w}", best=e2 * best))
    out = params.e_squared * out
    return float(out[0]) if scalar else out


def particle_spectrum(params: TrajectoryParams, omega, tol: float = 1e-6):
    """Particle spectrum N(omega) = I(omega)/omega, for a float or a 1-d array."""
    return energy_spectrum(params, omega, tol) / omega


def _tail_rate(zeta):
    """c(zeta) of the tail law I(omega) ~ e^{-c omega/kappa}.

    The saddle exponent of the forward direction theta = 0, where the
    spectrum decays slowest: c = 4 (a - sin a cos a) with cos a = (1 - zeta)/2.
    c falls to 0 as zeta -> -1, where the total energy diverges.
    """
    cos_a = 0.5 * (1.0 - zeta)
    return 4.0 * (math.acos(cos_a) - math.sqrt(1.0 - cos_a * cos_a) * cos_a)


def total_energy_spectral(params: TrajectoryParams, tol: float = 1e-4) -> float:
    """Total energy by the spectral route: E = int_0^inf I(omega) domega.

    I(omega) reads kappa only through omega/kappa and is e^2 times its
    unit-charge value, so E is e^2 kappa times the total at kappa = 1 and
    unit charge (``_unit_total``), which runs once per (zeta, tol) per
    process; a sweep over kappa or e^2 costs no further quadrature. tol
    must lie in (0, 1e-2]; the unit run's refusals, its own and its
    spectra's, raise on every call, with their frequency, threshold and
    ``best`` in the caller's units (``_unit_refusal``).
    """
    _check_tol(tol)
    try:
        unit = _unit_total(params.zeta, tol)
    except ConvergenceError as err:
        if not hasattr(err, "restate"):
            raise
        raise err.restate(params.kappa, params.e_squared) from None
    return params.e_squared * params.kappa * unit


def _unit_refusal(restate):
    """The refusal restate(1, 1), which carries ``restate``.

    restate(kappa, e2) is the refusal in the units of a caller whose kappa
    and e^2 are kappa and e2 times the refusing call's, where a frequency
    is kappa, I(omega) e^2 and the total e^2 kappa times its own. The unit
    run's calls have kappa = e^2 = 1, so ``total_energy_spectral`` raises
    restate(kappa, e^2) of a refusal from its unit run.
    """
    err = restate(1.0, 1.0)
    err.restate = restate
    return err


@functools.cache
def _unit_total(zeta: float, tol: float) -> float:
    """E/(e^2 kappa) by the spectral route, once per (zeta, tol).

    The integral of I(omega) at kappa = 1 and unit charge. One probe
    ``energy_spectrum`` at omega (0.1, 0.3, 1, 20/c), c the tail rate
    (``_tail_rate``), gives the peak (its first three) and I0 at omega0 =
    20/c. The integral ends at hi = omega0 + (1/c) ln(I0/(1e-12 peak)), or at
    omega0 if I0 is below that threshold: the tail law without its
    omega^{-1} factor, so hi errs high. Off zeta = 0, I(omega) has a
    sqrt(omega) term at 0, so the integral runs in s = sqrt(omega), where
    2 s I(s^2) is smooth: one row of ``_nested_cc`` at s = sqrt(hi) (1 +
    u)/2, orders 32 (read from the first call's 64) to 512, until two agree
    within max(tol |E|/2, tol peak/4), else ``ConvergenceError`` with the
    last value as ``best``. Each call is one ``energy_spectrum`` on the new
    nodes but s = 0, where the integrand is 0; the first holds u = 1, and
    an I(hi) there above 1e-11 of the peak, like a threshold or hi that is
    no positive finite double, raises ``ConvergenceError`` with hi as
    ``best``. These refusals, like those of its ``energy_spectrum`` calls,
    state kappa = 1, unit-charge numbers and carry their restatement in a
    caller's units (``_unit_refusal``). A tail rate that rounds to 0, a
    total of 0, and a total below 0.9 min(I(0.1), I(1)), which bounds the
    integral over [0.1, 1] of a spectrum unimodal there, raise
    ``ConvergenceError`` too; the last is a restated refusal with the total
    as ``best``. A refused run leaves nothing in the cache.
    """
    params = TrajectoryParams(1.0, zeta, 1.0)
    c = _tail_rate(zeta)
    if not c > 0.0:     # (1 - zeta)/2 rounds to 1 at zeta = -(1 - 2^-53)
        raise ConvergenceError(f"the tail rate of I(omega) at zeta={float(zeta)!r} "
                               f"rounds to {c!r}, which places no frequency cutoff")
    probe_tol = min(1e-4, tol)
    omegas = np.array([0.1, 0.3, 1.0, 20.0 / c])
    *low, I0 = energy_spectrum(params, omegas, probe_tol).tolist()
    peak, hi = max(low), float(omegas[3])
    thresh = 1e-12 * peak
    if 0.0 < thresh < I0:
        hi += 1.0 / c * math.log(I0 / thresh)
    if not (0.0 < thresh < math.inf and 0.0 < hi < math.inf):
        raise _unit_refusal(lambda kappa, e2: ConvergenceError(
            f"the frequency cutoff {kappa * hi:.6g} or its threshold {e2 * thresh:.3e} "
            "is no positive finite double", best=kappa * hi))
    root_hi = math.sqrt(hi)

    def density(rows, us, sin2):
        s = 0.5 * root_hi * (1.0 + us)
        out = np.zeros((1, us.size))
        I = energy_spectrum(params, s[s > 0.0] ** 2, probe_tol, abs_floor=1e-9 * peak)
        if us[0] == 1.0 and I[0] > 1e-11 * peak:
            raise _unit_refusal(lambda kappa, e2: ConvergenceError(
                f"I(omega) = {e2 * I[0]:.3e} at the cutoff omega = {kappa * hi:.6g} "
                "is above 1e-11 of the peak", best=kappa * hi))
        out[0, s > 0.0] = 2.0 * s[s > 0.0] * I
        return out

    total, todo = _nested_cc(density, 1, 0.5 * root_hi, 0.5 * tol, 0.25 * tol * peak)
    if todo.size:
        raise _unit_refusal(lambda kappa, e2: ConvergenceError(
            "the frequency integral did not stabilize by order 512",
            best=e2 * kappa * float(total[0])))
    if total[0] == 0.0:     # near zeta = -1 every node can lie past the spectrum
        raise ConvergenceError("the frequency integral is 0", best=0.0)
    # near zeta = -1 the frequency rule's nodes can miss the spectrum's bulk
    floor = 0.9 * min(low[0], low[2])
    if total[0] < floor:
        unit = float(total[0])
        raise _unit_refusal(lambda kappa, e2: ConvergenceError(
            f"the frequency integral {e2 * kappa * unit:.3e} is below "
            f"0.9 min(I(0.1 kappa), I(kappa)) = {e2 * kappa * floor:.3e}, "
            "a lower bound on it", best=e2 * kappa * unit))
    return float(total[0])


def fd_partial_energy(params: TrajectoryParams) -> float:
    """Energy carried by the special-angle form: e^2 kappa (1-zeta^2)/(192 pi)."""
    zeta = params.zeta
    unit = (1.0 - zeta) * (1.0 + zeta) / (192.0 * math.pi)
    return unit * params.kappa * params.e_squared


@functools.cache
def _fd_shape(power: int, tol: float) -> float:
    """int_0^inf y^power/(e^{2 pi y} + 1) dy by quadrature, once per (power, tol).

    The unit shape of the special-angle moments: 1/48 at power 1 and
    ln 2/(2 pi) at power 0, but taken by GK15, never from those values. A
    refused tol or a stalled run raises and leaves nothing in the cache.
    """
    res = integrate_semi_infinite(
        lambda y: y**power * _occupancy(2.0 * math.pi * y), scale=1.0, tol=tol)
    return float(res.value)


def _fd_moment(params: TrajectoryParams, power: int, tol: float) -> float:
    """2 pi int_0^inf domega omega^(power - 1) dI/dOmega(theta0), by quadrature.

    The special-angle distribution over frequency and azimuth: its energy
    (power 1) or its photon count (power 0). Kept as an independent code
    path from the closed forms it validates. In y = omega/kappa the
    integrand is 2 pi (1 - zeta^2) e^2 kappa^power/(8 pi^2) times the unit
    shape y^power/(e^{2 pi y} + 1), whose integral (``_fd_shape``) runs
    once per (power, tol) per process and is scaled by that prefactor, so
    a sweep over zeta, kappa or e^2 costs no further quadrature.
    """
    zeta = params.zeta
    unit = (1.0 - zeta) * (1.0 + zeta) / (4.0 * math.pi) * _fd_shape(power, tol)
    return unit * params.kappa**power * params.e_squared


def fd_partial_energy_quadrature(params: TrajectoryParams,
                                 tol: float = 1e-10) -> float:
    """Quadrature companion of fd_partial_energy: 2 pi int domega dI/dOmega(theta0)."""
    return _fd_moment(params, 1, tol)


def fd_particle_count(params: TrajectoryParams) -> float:
    """Photon count of the special-angle form: e^2 (1-zeta^2) ln 2/(8 pi^2)."""
    zeta = params.zeta
    return (1.0 - zeta) * (1.0 + zeta) * math.log(2.0) / (8.0 * math.pi**2) * params.e_squared


def fd_particle_count_quadrature(params: TrajectoryParams,
                                 tol: float = 1e-10) -> float:
    """Quadrature companion of fd_particle_count (integrates dI/dOmega / omega)."""
    return _fd_moment(params, 0, tol)
