"""Map from the radiation spectrum to moving-mirror Bogoliubov coefficients.

A mode pair (p, q) of the dual mirror problem corresponds to an emission
sample (omega, theta) through

    p = omega (1 + cos theta) / 2,    q = omega (1 - cos theta) / 2,

and the spectral distribution fixes the pair-creation density:

    dI/dOmega = (e^2 omega^2 / 4 pi) |beta_pq|^2.

At the special angle cos(theta0) = zeta the coefficient takes the closed
Fermi-Dirac form

    |beta_pq|^2 = (1 - zeta^2) / (2 pi (p+q) kappa) * 1/(e^{2 pi (p+q)/kappa} + 1),

valid on mode pairs obeying p/q = (1+zeta)/(1-zeta); near zeta = -1 the
right-mode frequency freezes out (p ~ 0) and the leading-order form in q
alone applies. Energy and particle-count totals of the special-angle
family follow by the variable change u = p+q, w = (p-q)/u, under which
the constrained double integral collapses to a single integral in u with
Jacobian u/2 (the constraint delta function is eliminated exactly, never
sampled numerically). Functions taking kappa and zeta check them by
constructing ``TrajectoryParams``, the one home of the worldline rules;
a lone e^2 goes through the same rule in ``trajectory``.
"""
from __future__ import annotations

import dataclasses
import math

from .errors import ConstraintError, DomainError, RegimeError
from .quadrature import integrate_semi_infinite
from .spectra import EmissionDirection, SpectralSample, _check_omega, _occupancy
from .trajectory import TrajectoryParams, _check_e_squared

__all__ = [
    "ModePair",
    "BetaCoefficient",
    "map_to_modes",
    "beta_squared_from_distribution",
    "beta_squared_fd",
    "beta_squared_fd_limit",
    "mirror_fd_energy",
    "mirror_fd_energy_quadrature",
    "mirror_particle_count",
    "mirror_particle_count_quadrature",
]


@dataclasses.dataclass(frozen=True)
class ModePair:
    """Right- and left-mode frequencies of one created scalar pair."""

    p: float
    q: float

    def __post_init__(self):
        if not (self.p >= 0.0 and self.q >= 0.0
                and math.isfinite(self.p) and math.isfinite(self.q)):
            raise DomainError("mode frequencies must be non-negative and finite")
        if not self.p + self.q > 0.0:
            raise DomainError("mode pair must have p + q > 0")


@dataclasses.dataclass(frozen=True)
class BetaCoefficient:
    modes: ModePair
    beta_squared: float

    def __post_init__(self):
        if not (self.beta_squared >= 0.0 and math.isfinite(self.beta_squared)):
            raise DomainError("beta_squared must be non-negative and finite")


def map_to_modes(omega: float, dir: EmissionDirection) -> ModePair:
    """Mode pair of the emission direction: p+q = omega, p-q = omega cos(theta)."""
    _check_omega(omega)
    # half-angle forms stay exact at theta -> 0, pi where 1 -+ cos cancels
    half = 0.5 * dir.theta
    p = omega * math.cos(half) ** 2
    q = omega * math.sin(half) ** 2
    return ModePair(p=p, q=q)


def beta_squared_from_distribution(sample: SpectralSample,
                                   e_squared: float) -> BetaCoefficient:
    """Invert dI/dOmega = (e^2 omega^2 / 4 pi) |beta|^2 for one sample."""
    _check_e_squared(e_squared)
    modes = map_to_modes(sample.omega, EmissionDirection(sample.theta))
    beta2 = 4.0 * math.pi * sample.value / (e_squared * sample.omega**2)
    return BetaCoefficient(modes=modes, beta_squared=beta2)


def beta_squared_fd(modes: ModePair, kappa: float, zeta: float) -> BetaCoefficient:
    """Closed Fermi-Dirac form of |beta|^2 on the constrained mode family.

    Requires p/q = (1+zeta)/(1-zeta); since pairs normally come from
    map_to_modes at the special angle, a violation beyond 1e-9 relative
    indicates a caller bug rather than roundoff and is rejected.
    """
    TrajectoryParams(kappa, zeta)
    # symmetric residual form avoids dividing by q (which hits 0 at zeta=1)
    residual = abs(modes.p * (1.0 - zeta) - modes.q * (1.0 + zeta))
    if residual > 1e-9 * (modes.p + modes.q):
        raise ConstraintError(
            f"mode pair (p={modes.p}, q={modes.q}) violates "
            f"p/q = (1+zeta)/(1-zeta) for zeta={zeta}"
        )
    u = modes.p + modes.q
    beta2 = ((1.0 - zeta**2) / (2.0 * math.pi * u * kappa)
             * _occupancy(2.0 * math.pi * u / kappa))
    return BetaCoefficient(modes=modes, beta_squared=beta2)


def beta_squared_fd_limit(q: float, kappa: float,
                          zeta_near_minus_one: float) -> BetaCoefficient:
    """Leading-order |beta|^2 for zeta near -1, where p ~ 0 and q dominates."""
    TrajectoryParams(kappa, zeta_near_minus_one)
    if not (q > 0.0 and math.isfinite(q)):
        raise DomainError("q must be positive and finite")
    zeta = zeta_near_minus_one
    if abs(1.0 + zeta) > 0.1:
        raise RegimeError(
            f"leading-order form holds only near zeta = -1; got zeta={zeta}"
        )
    p = q * (1.0 + zeta) / (1.0 - zeta)
    beta2 = ((1.0 + zeta) / (math.pi * q * kappa)
             * _occupancy(2.0 * math.pi * q / kappa))
    return BetaCoefficient(modes=ModePair(p=p, q=q), beta_squared=beta2)


def mirror_fd_energy(kappa: float, zeta: float) -> float:
    """Energy of the constrained pair family: kappa (1 - zeta^2)/(192 pi)."""
    TrajectoryParams(kappa, zeta)
    return kappa * (1.0 - zeta**2) / (192.0 * math.pi)


def mirror_fd_energy_quadrature(kappa: float, zeta: float,
                                tol: float = 1e-10) -> float:
    """Quadrature companion of mirror_fd_energy.

    The reduced single integral int_0^inf du (u^2/2) |beta|^2(u), with u
    the total pair frequency; evaluates the closed |beta|^2 profile, not
    the closed energy formula.
    """
    TrajectoryParams(kappa, zeta)
    pref = (1.0 - zeta**2) / (2.0 * math.pi * kappa)

    def integrand(u):
        return 0.5 * u * pref * _occupancy(2.0 * math.pi * u / kappa)

    res = integrate_semi_infinite(integrand, scale=kappa, tol=tol)
    return float(res.value)


def mirror_particle_count(zeta: float, kappa: float = 1.0) -> float:
    """Total created pairs of the constrained family: (1-zeta^2) ln 2/(8 pi^2).

    Independent of kappa; the parameter is accepted for symmetry with the
    quadrature companion, where it sets the integration scale.
    """
    TrajectoryParams(kappa, zeta)
    return (1.0 - zeta**2) * math.log(2.0) / (8.0 * math.pi**2)


def mirror_particle_count_quadrature(zeta: float, kappa: float = 1.0,
                                     tol: float = 1e-10) -> float:
    """Quadrature companion of mirror_particle_count: int du (u/2) |beta|^2."""
    TrajectoryParams(kappa, zeta)
    pref = (1.0 - zeta**2) / (2.0 * math.pi * kappa)

    def integrand(u):
        return 0.5 * pref * _occupancy(2.0 * math.pi * u / kappa)

    res = integrate_semi_infinite(integrand, scale=kappa, tol=tol)
    return float(res.value)
