"""Spectral distribution of the radiated field, by three routes.

The energy radiated per unit frequency per unit solid angle is

    dI/dOmega = (e^2 omega^2 / 16 pi^3) sin^2(theta) |J|^2,

where J = int_0^inf dz exp(i phi(z)) with phase

    phi(z) = (kappa omega / 4) z^2 + (2 omega / kappa) ln z
             + omega (zeta - cos theta) z.

Routes, kept deliberately independent of each other:

* ``distribution_numeric`` evaluates J by the oscillatory contour
  integrator for any (zeta, theta); the directions of one omega, as the
  angular rule and the CLI grids ask for them, run as one batched
  integration.
* ``distribution_exact_zeta0`` uses the closed hypergeometric form that
  exists when zeta = 0, for any theta.
* ``fermi_dirac_distribution`` is the special observation angle
  cos(theta0) = zeta, where the linear phase term drops and the
  distribution collapses to (1 - zeta^2)(e^2/8 pi^2)(omega/kappa) times
  the Fermi-Dirac occupancy 1/(e^{2 pi omega/kappa} + 1).

Angle-integrated spectra I(omega), N(omega) = I/omega, and the partial
energy and particle count carried by the special-angle form round out the
module. Closed forms always come with an explicit quadrature companion so
each claim is checkable against an independent code path.
"""
from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrature import (
    OscillatoryPhaseSpec,
    _oscillatory_rows,
    integrate_adaptive,
    integrate_semi_infinite,
)
from .specfun import kummer_1f1, ln_gamma
from .trajectory import TrajectoryParams

__all__ = [
    "EmissionDirection",
    "SpectralSample",
    "phase_spec",
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


def _check_omega(omega):
    if not (omega > 0.0 and math.isfinite(omega)):
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


def phase_spec(params: TrajectoryParams, omega: float,
               dir: EmissionDirection) -> OscillatoryPhaseSpec:
    """Phase coefficients (quad, log, lin) of the emission integral."""
    _check_omega(omega)
    return OscillatoryPhaseSpec(
        quad_coeff=0.25 * params.kappa * omega,
        log_coeff=2.0 * omega / params.kappa,
        lin_coeff=omega * (params.zeta - math.cos(dir.theta)),
    )


def _numeric_samples(params: TrajectoryParams, omega: float, thetas,
                     tol: float) -> list:
    """Quadrature samples for every theta at one omega, in one batched run.

    The emission integrals of one omega share their quadratic and log
    coefficients; only the linear one varies with theta. Directions with
    sin^2(theta) = 0 are dark and skip the integral.
    """
    _check_omega(omega)
    sin2 = [math.sin(theta) ** 2 for theta in thetas]
    lit = [theta for theta, s2 in zip(thetas, sin2) if s2 != 0.0]
    results = iter(())
    if lit:
        specs = [phase_spec(params, omega, EmissionDirection(theta)) for theta in lit]
        values, abs_errors, _ = _oscillatory_rows(
            specs[0].quad_coeff, specs[0].log_coeff,
            [spec.lin_coeff for spec in specs], tol, math.pi / 4)
        results = zip(values.tolist(), abs_errors.tolist())
    samples = []
    for theta, s2 in zip(thetas, sin2):
        if s2 == 0.0:
            samples.append(SpectralSample(omega, theta, 0.0, "numeric", 0.0))
            continue
        pref = params.e_squared * omega**2 * s2 / (16.0 * math.pi**3)
        value, abs_error = next(results)
        mod = abs(value)
        # |J|^2 error from the |J| error: 2|J| dJ + dJ^2.
        err = pref * (2.0 * mod * abs_error + abs_error**2)
        samples.append(SpectralSample(omega, theta, pref * mod**2, "numeric", err))
    return samples


def distribution_numeric(params: TrajectoryParams, omega: float,
                         dir: EmissionDirection, tol: float = 1e-9) -> SpectralSample:
    """dI/dOmega by direct quadrature of the emission integral."""
    return _numeric_samples(params, omega, [dir.theta], tol)[0]


def _exact_zeta0_values(kappa, e_squared, omega, us):
    """Closed-form dI/dOmega at zeta=0, vectorized over u = cos(theta)."""
    y = omega / kappa
    x = 1j * y * us**2
    A = kummer_1f1(0.5 - 1j * y, 0.5, x)
    B = kummer_1f1(1.0 - 1j * y, 1.5, x)
    g_half = np.exp(ln_gamma(0.5 - 1j * y))
    g_one = np.exp(ln_gamma(1.0 - 1j * y))
    root_iy = math.sqrt(y) * complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
    m = g_half * A + 2.0 * us * root_iy * g_one * B
    sin2 = 1.0 - us**2
    pref = e_squared * omega * sin2 / (16.0 * math.pi**3 * kappa)
    return pref * math.exp(-math.pi * y) * np.abs(m) ** 2


def _exact_zeta0_samples(params: TrajectoryParams, omega: float,
                         thetas) -> list:
    """Closed-form samples at zeta = 0 for every theta at one omega."""
    _check_omega(omega)
    us = np.array([math.cos(theta) for theta in thetas])
    values = [max(float(v), 0.0) for v in
              _exact_zeta0_values(params.kappa, params.e_squared, omega, us)]
    return [SpectralSample(omega, theta, v, "exact-zeta0", v * _CLOSED_FORM_REL)
            for theta, v in zip(thetas, values)]


def distribution_exact_zeta0(kappa: float, e_squared: float, omega: float,
                             dir: EmissionDirection) -> SpectralSample:
    """dI/dOmega from the hypergeometric closed form (zeta = 0 only)."""
    params = TrajectoryParams(kappa, 0.0, e_squared)
    return _exact_zeta0_samples(params, omega, [dir.theta])[0]


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


def _angular_values(params, omega, us, tol, force_numeric):
    if params.zeta == 0.0 and not force_numeric:
        return _exact_zeta0_values(params.kappa, params.e_squared, omega, us)
    thetas = [math.acos(u) for u in us]
    return np.array([s.value for s in _numeric_samples(params, omega, thetas, tol)])


def energy_spectrum(params: TrajectoryParams, omega: float, tol: float = 1e-6,
                    *, force_numeric: bool = False, abs_floor: float = 0.0) -> float:
    """Solid-angle integral I(omega) = 2 pi int_{-1}^{1} du dI/dOmega.

    Gauss-Legendre in u = cos(theta), order doubled from 64 until two
    successive orders agree to tol (or the value sits below abs_floor,
    which deep exponential tails of a larger frequency integral use to
    avoid chasing relative accuracy of negligible numbers).
    """
    _check_omega(omega)
    prev = None
    for order in (64, 128, 256, 512):
        us, ws = _gl_nodes(order)
        vals = _angular_values(params, omega, us, tol / 8.0, force_numeric)
        cur = 2.0 * math.pi * float(ws @ vals)
        if prev is not None and abs(cur - prev) <= max(tol * abs(cur), abs_floor):
            return cur
        if prev is None and abs(cur) <= abs_floor:
            return cur
        prev = cur
    raise ConvergenceError(
        f"angular quadrature did not stabilize for omega={omega}", best=prev
    )


def particle_spectrum(params: TrajectoryParams, omega: float,
                      tol: float = 1e-6, **kw) -> float:
    """Particle spectrum N(omega) = I(omega)/omega."""
    return energy_spectrum(params, omega, tol, **kw) / omega


def _omega_cutoff(eval_I, kappa, peak, threshold_rel=1e-12):
    """Walk the frequency cutoff to where I(omega) is negligible.

    Starts from 30*kappa (guided by the e^{-pi omega/kappa} envelope),
    halves while still below threshold, doubles if the start is not yet
    below it.
    """
    thresh = threshold_rel * peak
    hi = 30.0 * kappa
    if eval_I(hi) < thresh:
        while hi > 4.0 * kappa and eval_I(0.5 * hi) < thresh:
            hi *= 0.5
    else:
        for _ in range(6):
            hi *= 2.0
            if eval_I(hi) < thresh:
                break
    return hi


def total_energy_spectral(params: TrajectoryParams, tol: float = 1e-4,
                          *, force_numeric: bool = False) -> float:
    """Total energy by the spectral route: E = int_0^inf I(omega) domega.

    The angular integrand is the exact one at zeta = 0 and the numeric one
    otherwise; ``force_numeric`` uses direct quadrature at zeta = 0 too.
    """
    kappa = params.kappa

    probe_tol = min(1e-4, tol)
    probes = [energy_spectrum(params, w * kappa, probe_tol,
                              force_numeric=force_numeric)
              for w in (0.1, 0.3, 1.0)]
    peak = max(probes)
    floor = 1e-9 * peak

    def I_of(w):
        return energy_spectrum(params, float(w), probe_tol,
                               force_numeric=force_numeric, abs_floor=floor)

    hi = _omega_cutoff(I_of, kappa, peak)
    I_batch = np.vectorize(I_of, otypes=[float])
    pts = kappa * np.array([0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])
    res = integrate_adaptive(I_batch, 0.0, hi, tol=0.5 * tol, points=pts,
                             abs_floor=0.25 * tol * peak * kappa)
    # One confirmation segment past the cutoff; fold it in if it matters.
    tail = integrate_adaptive(I_batch, hi, 2.0 * hi, tol=0.5,
                              abs_floor=0.05 * tol * abs(res.value))
    total = float(res.value)
    if abs(tail.value) > 0.25 * tol * abs(total):
        total += float(tail.value)
    return total


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
