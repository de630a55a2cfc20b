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
* ``distribution_exact_zeta0`` uses the closed hypergeometric form that
  exists when zeta = 0, for any theta; a whole (omega, theta) grid is one
  vectorized evaluation, with a fixed error bar of _CLOSED_FORM_REL of
  the value.
* ``fermi_dirac_distribution`` is the special observation angle
  cos(theta0) = zeta, where the linear phase term drops and the
  distribution collapses to (1 - zeta^2)(e^2/8 pi^2)(omega/kappa) times
  the Fermi-Dirac occupancy 1/(e^{2 pi omega/kappa} + 1).

Angle-integrated spectra I(omega), N(omega) = I/omega, and the partial
energy and particle count carried by the special-angle form round out the
module. Closed forms always come with an explicit quadrature companion so
each claim is checkable against an independent code path.

The two grid routes share one signature, (params, omegas, us, sin2, tol)
-> (values, abs_errors) on the grid omegas x directions, so their callers
pick a route once and call it without branching on it again.
``distribution_grid`` gives the numeric or exact samples of an
(omega, theta) grid, omega-major, and refuses on either route a sample
whose error bar exceeds _REFUSAL of its value; the two single-point
distributions are its one-point calls. ``energy_spectrum`` takes a float
or a 1-d array of omegas, and runs each Gauss-Legendre order once over
every omega not yet settled. At zeta = 0 that is one closed-form
evaluation of the (omega, u) grid, with the two 1F1s taken once per
distinct |u| (they depend on u^2), so the frequency integral of
``total_energy_spectral`` costs one such evaluation per wave of omega
nodes and angular order; off zeta = 0 it is one batched quadrature with a
row, and a phase, per (omega, u). A value does not depend on the grid it
is batched with.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrature import (_check_tol, _oscillatory_rows, integrate_adaptive,
                         integrate_semi_infinite)
from .specfun import kummer_1f1, ln_gamma
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
# A sample whose error bar exceeds this fraction of its value is refused
# rather than returned, on every route: behind the special angle the
# contour's cancellation grows like e^{omega/kappa}, and such a value has
# fewer than three significant digits left.
_REFUSAL = 1e-3
# Most elements one slice of an (omega, u) grid evaluates: the closed form's
# two series, or the quadrature's one integral, per (omega, u). Bigger grids
# run in slices of whole omega rows (one at the least), bounding their memory.
_SLICE_ELEMENTS = 1 << 12
_ROOT_I = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))     # sqrt(i)
# The closed form's two 1F1 series, M(1/2 - iy; 1/2; x) and
# M(1 - iy; 3/2; x), stacked on a leading axis so that one call sums both.
_EXACT_A = np.array([0.5, 1.0])[:, None, None]
_EXACT_B = np.array([0.5, 1.5])[:, None, None]


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
    """dI/dOmega and its error by quadrature on the grid omegas x us.

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
    step = max(1, _SLICE_ELEMENTS // int(lit.sum()))
    for s in range(0, omegas.size, step):
        omega = omegas[s:s + step, None]
        F, dF, _ = (v.reshape(omega.size, -1) for v in _oscillatory_rows(
            2.0 * omega / params.kappa, params.zeta - us[lit], tol))
        pref = (params.e_squared * (omega / params.kappa)**2 * sin2[lit]
                / (4.0 * math.pi**3))
        mod = np.abs(F)
        values[s:s + step, lit] = pref * mod**2
        # |F|^2 error from the |F| error: 2|F| dF + dF^2.
        abs_errors[s:s + step, lit] = pref * (2.0 * mod * dF + dF**2)
    return values, abs_errors


def _exact_zeta0_values(params: TrajectoryParams, omegas, us, sin2, tol: float):
    """Closed-form dI/dOmega at zeta = 0 and its error on the grid omegas x us.

    Arguments and result as for ``_numeric_values``; tol is not read, and
    the error is a fixed _CLOSED_FORM_REL of each value, a roundoff
    envelope rather than an estimate. sin^2 is not 1 - u^2, which cancels
    near the poles. The values follow from

        m(u) = Gamma(1/2 - iy) 1F1(1/2 - iy; 1/2; iyu^2)
               + 2u sqrt(iy) Gamma(1 - iy) 1F1(1 - iy; 3/2; iyu^2),

    y = omega/kappa. The 1F1s depend on u only through u^2, so they run
    once per distinct |u| (both as one stacked call) and go back to every
    u of that modulus; negating u negates the second term exactly, so a
    value keeps its bits whatever other nodes share its |u|, and the
    symmetric Gauss-Legendre nodes sum half as many series. Every element
    is computed on its own, so it does not depend on the rest of the grid;
    grids whose two series hold more than _SLICE_ELEMENTS evaluations run
    in slices of whole omega rows.
    """
    kappa = params.kappa
    mods, at = np.unique(np.abs(us), return_inverse=True)
    out = np.empty((omegas.size, us.size))
    step = max(1, _SLICE_ELEMENTS // (2 * mods.size))
    for s in range(0, omegas.size, step):
        omega = omegas[s:s + step, None]
        y = omega / kappa
        x = 1j * y * mods**2
        a = _EXACT_A - 1j * y
        g_half, g_one = np.exp(ln_gamma(a))
        root_iy = np.sqrt(y) * _ROOT_I
        m_half, m_one = kummer_1f1(a, _EXACT_B, x)[..., at]
        m = g_half * m_half + 2.0 * us * root_iy * g_one * m_one
        pref = params.e_squared * omega * sin2 / (16.0 * math.pi**3 * kappa)
        out[s:s + step] = pref * np.exp(-math.pi * y) * np.abs(m) ** 2
    return out, out * _CLOSED_FORM_REL


def distribution_grid(params: TrajectoryParams, omegas, thetas, method: str,
                      tol: float = 1e-9) -> list:
    """dI/dOmega samples on the grid omegas x thetas, omega-major, in one call.

    ``method`` is "numeric" (quadrature to tol, any zeta) or "exact-zeta0"
    (the closed form, zeta = 0 only, which does not read tol); thetas lie
    in [0, pi]. On either route, a sample whose abs_error exceeds _REFUSAL
    of its value raises ``ConvergenceError`` with that sample as ``best``.
    """
    if method not in ("numeric", "exact-zeta0"):
        raise DomainError("the grid's method must be numeric or exact-zeta0")
    if method == "exact-zeta0" and params.zeta != 0.0:
        raise DomainError("the exact closed form applies only at zeta = 0")
    if not all(0.0 <= theta <= math.pi for theta in thetas):
        raise DomainError("theta must lie in [0, pi]")
    omega_arr = np.asarray(omegas, dtype=float)
    _check_omega(omega_arr)
    us = np.array([math.cos(theta) for theta in thetas])
    sin2 = np.array([math.sin(theta) ** 2 for theta in thetas])
    route = _numeric_values if method == "numeric" else _exact_zeta0_values
    values, abs_errors = route(params, omega_arr, us, sin2, tol)
    samples = [SpectralSample(omega, theta, value, method, err)
               for omega, row, row_err in zip(omegas, values.tolist(), abs_errors.tolist())
               for theta, value, err in zip(thetas, row, row_err)]
    for s in samples:
        if s.abs_error > _REFUSAL * s.value:
            raise ConvergenceError(
                f"{method} dI/dOmega at omega={s.omega:.6g}, theta={s.theta:.6g} "
                f"is {s.value:.3e} +- {s.abs_error:.3e}, an error bar above "
                f"{_REFUSAL:g} of the value", best=s)
    return samples


def distribution_numeric(params: TrajectoryParams, omega: float,
                         dir: EmissionDirection, tol: float = 1e-9) -> SpectralSample:
    """dI/dOmega by direct quadrature of the emission integral."""
    return distribution_grid(params, [omega], [dir.theta], "numeric", tol)[0]


def distribution_exact_zeta0(kappa: float, e_squared: float, omega: float,
                             dir: EmissionDirection) -> SpectralSample:
    """dI/dOmega from the hypergeometric closed form (zeta = 0 only)."""
    params = TrajectoryParams(kappa, 0.0, e_squared)
    return distribution_grid(params, [omega], [dir.theta], "exact-zeta0")[0]


def _occupancy(x):
    """Fermi-Dirac occupancy 1/(e^x + 1), overflow-safe for large x."""
    x = np.asarray(x, dtype=float)
    e = np.exp(-np.abs(x))
    pos = e / (1.0 + e)          # x >= 0
    neg = 1.0 / (1.0 + e)        # x < 0
    out = np.where(x >= 0.0, pos, neg)
    return float(out) if out.ndim == 0 else out


def fermi_dirac_distribution(params: TrajectoryParams, omega: float) -> SpectralSample:
    """dI/dOmega at the special angle cos(theta0) = zeta, in closed form."""
    _check_omega(omega)
    y = omega / params.kappa
    value = ((1.0 - params.zeta**2) * params.e_squared / (8.0 * math.pi**2)
             * y * _occupancy(2.0 * math.pi * y))
    theta0 = math.acos(params.zeta)
    return SpectralSample(omega, theta0, value, "fermi-dirac",
                          value * _CLOSED_FORM_REL)


@functools.cache
def _gl_nodes(n):
    return np.polynomial.legendre.leggauss(n)


def energy_spectrum(params: TrajectoryParams, omega, tol: float = 1e-6,
                    *, force_numeric: bool = False, abs_floor: float = 0.0):
    """Solid-angle integral I(omega) = 2 pi int_{-1}^{1} du dI/dOmega.

    omega is a float, which returns a float, or a 1-d array, which returns
    an array. Gauss-Legendre in u = cos(theta), order doubled from 64
    to 512. A row settles once its value moves from the last order's (zero
    before the first) by at most max(tol |value|, abs_floor); abs_floor
    lets deep exponential tails of a larger frequency integral stop without
    chasing relative accuracy of negligible numbers. The integrand is the
    closed form at zeta = 0 and quadrature otherwise; ``force_numeric``
    uses quadrature at zeta = 0 too. The route is picked once, each order
    runs once over the omegas not yet settled, and each row is summed on
    its own, so a row's value is the same in any batch. tol must lie in
    (0, 1e-2].
    """
    _check_tol(tol)
    omegas = np.asarray(omega, dtype=float)
    scalar = omegas.ndim == 0
    omegas = np.atleast_1d(omegas)
    if omegas.ndim != 1:
        raise DomainError("omega must be a float or a 1-d array")
    _check_omega(omegas)
    route = (_exact_zeta0_values if params.zeta == 0.0 and not force_numeric
             else _numeric_values)
    out = np.zeros(omegas.shape)
    todo = np.arange(omegas.size)
    for order in (64, 128, 256, 512):
        us, ws = _gl_nodes(order)
        # the nodes keep off the poles, where 1 - u^2 would cancel
        vals = route(params, omegas[todo], us, 1.0 - us**2, tol / 8.0)[0]
        cur = 2.0 * math.pi * np.vecdot(vals, ws)
        done = np.abs(cur - out[todo]) <= np.maximum(tol * np.abs(cur), abs_floor)
        out[todo] = cur
        todo = todo[~done]
        if todo.size == 0:
            return float(out[0]) if scalar else out
    raise ConvergenceError(
        f"angular quadrature did not stabilize for omega={float(omegas[todo[0]])}",
        best=float(out[todo[0]]),
    )


def particle_spectrum(params: TrajectoryParams, omega, tol: float = 1e-6):
    """Particle spectrum N(omega) = I(omega)/omega, for a float or a 1-d array."""
    return energy_spectrum(params, omega, tol) / omega


def _omega_cutoff(spectra, kappa, peak):
    """Walk the frequency cutoff to where I(omega) is below 1e-12 of the peak.

    ``spectra`` maps an array of omegas to I(omega). Starts from 30*kappa
    (guided by the e^{-pi omega/kappa} envelope), halves while still below
    threshold, doubles if the start is not yet below it, and raises
    ConvergenceError if six doublings never get there. The halving walk's
    candidates 30, 15, 7.5 and 3.75 kappa run as one call; hi is the last
    of the leading run below threshold, as the walk would have stopped.
    """
    thresh = 1e-12 * peak
    hi = 30.0 * kappa
    walk = hi * np.array([1.0, 0.5, 0.25, 0.125])
    run = int(np.logical_and.accumulate(spectra(walk) < thresh).sum())
    if run:
        return float(walk[run - 1])
    for _ in range(6):
        hi *= 2.0
        value = float(spectra(np.array([hi]))[0])
        if value < thresh:
            return hi
    raise ConvergenceError(
        f"I(omega) = {value:.3e} at omega = {hi:.6g} is still above the "
        f"cutoff threshold {thresh:.3e}", best=hi)


def total_energy_spectral(params: TrajectoryParams, tol: float = 1e-4) -> float:
    """Total energy by the spectral route: E = int_0^inf I(omega) domega.

    The angular integrand is the exact one at zeta = 0 and the numeric one
    otherwise. The frequency integral is one adaptive pass over [0, hi],
    where hi is the cutoff at which I(omega) is below 1e-12 of the peak
    (``_omega_cutoff``); nothing past hi is added. The pass hands each wave
    of nodes to one batched ``energy_spectrum`` call. tol must lie in
    (0, 1e-2].
    """
    _check_tol(tol)
    kappa = params.kappa
    probe_tol = min(1e-4, tol)
    peak = float(np.max(energy_spectrum(
        params, kappa * np.array([0.1, 0.3, 1.0]), probe_tol)))
    floor = 1e-9 * peak

    def I_batch(omegas):
        return energy_spectrum(params, omegas, probe_tol, abs_floor=floor)

    hi = _omega_cutoff(I_batch, kappa, peak)
    pts = kappa * np.array([0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    res = integrate_adaptive(I_batch, 0.0, hi, tol=0.5 * tol, points=pts,
                             abs_floor=0.25 * tol * peak * kappa)
    return float(res.value)


def fd_partial_energy(params: TrajectoryParams) -> float:
    """Energy carried by the special-angle form: e^2 kappa (1-zeta^2)/(192 pi)."""
    return params.e_squared * params.kappa * (1.0 - params.zeta**2) / (192.0 * math.pi)


def fd_partial_energy_quadrature(params: TrajectoryParams,
                                 tol: float = 1e-10) -> float:
    """Quadrature companion of fd_partial_energy.

    Integrates the special-angle distribution over frequency and azimuth:
    2 pi int_0^inf domega dI/dOmega(theta0). Kept as an independent code
    path from the closed form it validates.
    """
    zeta2 = params.zeta**2
    kappa = params.kappa
    pref = (1.0 - zeta2) * params.e_squared / (8.0 * math.pi**2 * kappa)

    def integrand(w):
        return pref * w * _occupancy(2.0 * math.pi * w / kappa)

    res = integrate_semi_infinite(integrand, scale=kappa, tol=tol)
    return 2.0 * math.pi * float(res.value)


def fd_particle_count(params: TrajectoryParams) -> float:
    """Photon count of the special-angle form: e^2 (1-zeta^2) ln 2/(8 pi^2)."""
    return params.e_squared * (1.0 - params.zeta**2) * math.log(2.0) / (8.0 * math.pi**2)


def fd_particle_count_quadrature(params: TrajectoryParams,
                                 tol: float = 1e-10) -> float:
    """Quadrature companion of fd_particle_count (integrates dI/dOmega / omega)."""
    zeta2 = params.zeta**2
    kappa = params.kappa
    pref = (1.0 - zeta2) * params.e_squared / (8.0 * math.pi**2 * kappa)

    def integrand(w):
        return pref * _occupancy(2.0 * math.pi * w / kappa)

    res = integrate_semi_infinite(integrand, scale=kappa, tol=tol)
    return 2.0 * math.pi * float(res.value)
