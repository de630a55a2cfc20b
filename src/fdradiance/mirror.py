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
sampled numerically). With u = omega it is term for term the emission
side's over e^2, so the closed totals and their quadrature companions are
``spectra``'s at e^2 = 1; the acceptance suite checks |beta|^2 and the
pair count against the saddle-contour route at the special angle instead.

The per-mode functions (``map_to_modes``, ``beta_squared_from_distribution``,
``beta_squared_fd``, ``beta_squared_fd_limit``) are elementwise: they take
floats or numpy arrays, broadcast them against each other, and return
numbers, a numpy float64 for float inputs and an array otherwise, so a
whole grid is one call and each element has the bits of its own
one-element call. Functions taking kappa and zeta check them by
constructing ``TrajectoryParams``, the one home of the worldline rules;
a lone e^2 goes through the same rule in ``trajectory``.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConstraintError, DomainError, OverflowRangeError, RegimeError
from .spectra import (_TINY, _check_omega, _occupancy, fd_partial_energy,
                      fd_partial_energy_quadrature, fd_particle_count,
                      fd_particle_count_quadrature)
from .trajectory import TrajectoryParams, _check_e_squared

__all__ = [
    "map_to_modes",
    "beta_squared_from_distribution",
    "beta_squared_fd",
    "beta_squared_fd_limit",
    "mirror_fd_energy",
    "mirror_fd_energy_quadrature",
    "mirror_particle_count",
    "mirror_particle_count_quadrature",
]


def map_to_modes(omega, theta):
    """Mode pair (p, q) at (omega, theta): p+q = omega, p-q = omega cos(theta)."""
    omega, theta = np.asarray(omega, dtype=float), np.asarray(theta, dtype=float)
    _check_omega(omega)
    if not ((theta >= 0.0) & (theta <= math.pi)).all():
        raise DomainError("theta must lie in [0, pi]")
    # half-angle forms stay exact at theta -> 0, pi where 1 -+ cos cancels
    half = 0.5 * theta
    return omega * np.cos(half) ** 2, omega * np.sin(half) ** 2


def beta_squared_from_distribution(omega, value, e_squared: float):
    """Invert dI/dOmega = (e^2 omega^2 / 4 pi) |beta|^2: 4 pi (value/e^2)/omega^2."""
    _check_e_squared(e_squared)
    omega, value = np.asarray(omega, dtype=float), np.asarray(value, dtype=float)
    _check_omega(omega)
    if not ((value >= 0.0) & np.isfinite(value)).all():
        raise DomainError("spectral value must be non-negative and finite")
    with np.errstate(over="ignore", divide="ignore", under="ignore", invalid="ignore"):
        # a dark direction's 0 stays 0 where omega^2 underflows to 0, and
        # value/e^2 comes first: e^2 omega^2 may leave the double range
        beta2 = np.where(value > 0.0, 4.0 * math.pi * (value / e_squared) / omega**2, 0.0)
    over = ~np.isfinite(beta2)
    if over.any():
        first = np.broadcast_to(omega, over.shape)[over][0]
        raise OverflowRangeError(f"|beta|^2 at frequency {first:g} overflows a double")
    return beta2[()]


def _occupied(num, den, freq, kappa):
    """|beta|^2 = num / (den freq kappa) / (e^{2 pi freq/kappa} + 1), elementwise.

    Where the prefactor num/(den freq kappa) leaves the double range, or
    the occupancy lies below the smallest normal double and has lost bits,
    the product is taken in logs: a true |beta|^2 that underflows is 0, and
    only one past the largest double is refused, naming the first such
    frequency.
    """
    with np.errstate(over="ignore", divide="ignore", under="ignore", invalid="ignore"):
        x = 2.0 * math.pi * freq / kappa
        occupancy = _occupancy(x)
        beta2 = np.array(num / (den * freq * kappa) * occupancy)
        off = ~np.isfinite(beta2) | (occupancy < _TINY)
        if off.any():
            freq, x = freq[off], x[off]
            # ln occupancy, never the log of a subnormal; x >= 0
            log_occupancy = -x - np.log1p(np.exp(-x))
            beta2[off] = np.exp(math.log(num) - math.log(den) - np.log(freq)
                                - math.log(kappa) + log_occupancy)
            over = np.isinf(beta2[off])
            if over.any():
                raise OverflowRangeError(f"|beta|^2 at frequency {freq[over][0]:g}, "
                                         f"kappa {kappa:g} overflows a double")
    return beta2[()]


def beta_squared_fd(p, q, kappa: float, zeta: float):
    """Closed Fermi-Dirac form of |beta|^2 on the constrained mode family.

    Requires p, q >= 0 with p + q > 0 and p/q = (1+zeta)/(1-zeta); since
    pairs normally come from map_to_modes at the special angle, a violation
    beyond 1e-9 relative indicates a caller bug rather than roundoff and is
    rejected, naming the first pair off the line.
    """
    TrajectoryParams(kappa, zeta)
    p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
    if not ((p >= 0.0) & (q >= 0.0) & np.isfinite(p) & np.isfinite(q)).all():
        raise DomainError("mode frequencies must be non-negative and finite")
    u = p + q
    if not (u > 0.0).all():
        raise DomainError("mode pair must have p + q > 0")
    # symmetric residual form avoids dividing by q (which hits 0 at zeta=1)
    off = np.abs(p * (1.0 - zeta) - q * (1.0 + zeta)) > 1e-9 * u
    if off.any():
        raise ConstraintError(
            f"mode pair (p={float(p[off][0])}, q={float(q[off][0])}) violates "
            f"p/q = (1+zeta)/(1-zeta) for zeta={zeta}"
        )
    return _occupied((1.0 - zeta) * (1.0 + zeta), 2.0 * math.pi, u, kappa)


def beta_squared_fd_limit(q, kappa: float, zeta_near_minus_one: float):
    """Leading-order |beta|^2 for zeta near -1, where p ~ 0 and q dominates."""
    TrajectoryParams(kappa, zeta_near_minus_one)
    q = np.asarray(q, dtype=float)
    if not ((q > 0.0) & np.isfinite(q)).all():
        raise DomainError("q must be positive and finite")
    zeta = zeta_near_minus_one
    if abs(1.0 + zeta) > 0.1:
        raise RegimeError(
            f"leading-order form holds only near zeta = -1; got zeta={zeta}"
        )
    return _occupied(1.0 + zeta, math.pi, q, kappa)


def mirror_fd_energy(kappa: float, zeta: float) -> float:
    """Energy of the constrained pair family, ``fd_partial_energy`` at e^2 = 1."""
    return fd_partial_energy(TrajectoryParams(kappa, zeta, 1.0))


def mirror_fd_energy_quadrature(kappa: float, zeta: float,
                                tol: float = 1e-10) -> float:
    """Quadrature companion of mirror_fd_energy: int du (u^2/2) |beta|^2, at e^2 = 1."""
    return fd_partial_energy_quadrature(TrajectoryParams(kappa, zeta, 1.0), tol)


def mirror_particle_count(zeta: float, kappa: float = 1.0) -> float:
    """Total created pairs of the constrained family, ``fd_particle_count`` at e^2 = 1.

    Independent of kappa; the parameter is accepted for symmetry with the
    quadrature companion, where it sets the integration scale.
    """
    return fd_particle_count(TrajectoryParams(kappa, zeta, 1.0))


def mirror_particle_count_quadrature(zeta: float, kappa: float = 1.0,
                                     tol: float = 1e-10) -> float:
    """Quadrature companion of mirror_particle_count: int du (u/2) |beta|^2, at e^2 = 1."""
    return fd_particle_count_quadrature(TrajectoryParams(kappa, zeta, 1.0), tol)
