"""Worldline kinematics and the Larmor-formula total radiated energy.

The trajectory family is given implicitly by

    t(z) = (kappa/4) z^2 + (2/kappa) ln(kappa z) + zeta z,   z > 0,

with acceleration scale kappa > 0 and shape parameter zeta in (-1, 1).
The motion is asymptotically static: the speed tends to zero both as
z -> 0+ (the log branch, t -> -inf) and as z -> inf, peaking at
v_max = 1/(2 + zeta) where kappa z = 2. Total radiated energy is finite
for every valid zeta and grows without bound as zeta -> -1.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import sys
import warnings

import numpy as np

from .errors import ConvergenceError, DomainError, OverflowRangeError
from .quadrature import QuadratureResult, integrate_semi_infinite

__all__ = [
    "E_SQUARED_DEFAULT",
    "TrajectoryParams",
    "KinematicState",
    "coordinate_time",
    "kinematic_state",
    "position_at_time",
    "penrose_coordinates",
    "larmor_power",
    "total_energy_larmor",
]

# 4 pi alpha with CODATA alpha; natural Heaviside-Lorentz units.
E_SQUARED_DEFAULT = 4.0 * math.pi * 7.2973525693e-3


@dataclasses.dataclass(frozen=True)
class TrajectoryParams:
    """One worldline: acceleration scale, shape parameter, squared charge."""

    kappa: float
    zeta: float
    e_squared: float = E_SQUARED_DEFAULT

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa > 0.0):
            raise DomainError("kappa must be positive and finite")
        # Endpoints are excluded: at zeta = -1 the energy integral diverges
        # and at zeta = +1 the special angle degenerates to the axis.
        if not (-1.0 < self.zeta < 1.0):
            raise DomainError("zeta must lie strictly inside (-1, 1)")
        _check_e_squared(self.e_squared)


def _check_e_squared(e_squared):
    """The squared-charge rule, shared with callers that take e^2 alone."""
    if not (math.isfinite(e_squared) and e_squared > 0.0):
        raise DomainError("e_squared must be positive and finite")


@dataclasses.dataclass(frozen=True)
class KinematicState:
    z: float
    t: float
    v: float
    gamma: float
    accel: float
    proper_accel: float


def _check_positions(z):
    zs = np.asarray(z, dtype=float)
    if not ((zs > 0.0) & (zs < math.inf)).all():
        raise DomainError("position z must be positive and finite")
    return zs


def _time(params: TrajectoryParams, zs):
    """t(z) unchecked: inf or nan (never a warning) where it is no finite double.

    nan comes from a subnormal kappa, where 2/kappa is inf, at kappa z = 1.
    """
    k = params.kappa
    # scale before squaring: z^2 alone overflows for z > 1.3e154, where
    # t(z) is still representable when kappa < 4
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return (0.25 * k * zs) * zs + (2.0 / k) * np.log(k * zs) + params.zeta * zs


def coordinate_time(params: TrajectoryParams, z):
    """t(z) along the worldline; z may be a scalar or ndarray, all > 0.

    Raises ``OverflowRangeError`` where t(z) is not a finite double: z so
    large that t overflows, or kappa z so small that its log is -inf.
    """
    zs = _check_positions(z)
    t = _time(params, zs)
    if not np.isfinite(t).all():
        bad = zs[~np.isfinite(t)][0]
        raise OverflowRangeError(f"t(z) at z={bad:.6g} is not a finite double")
    return float(t) if zs.ndim == 0 else t


def _inverse_speed(params: TrajectoryParams, zs):
    # dt/dz: always >= 2 + zeta > 1, so v < 1 everywhere.
    k = params.kappa
    return 0.5 * k * zs + 2.0 / (k * zs) + params.zeta


def kinematic_state(params: TrajectoryParams, z: float) -> KinematicState:
    """Full kinematic snapshot (v, gamma, accelerations) at position z."""
    zs = float(_check_positions(z))
    k = params.kappa
    w = _inverse_speed(params, zs)
    v = 1.0 / w
    # in v, not w: (w - 1)(w + 1) overflows for w > 1.3e154
    gamma = 1.0 / math.sqrt((1.0 - v) * (1.0 + v))
    dw_dz = 0.5 * k - 2.0 / (k * zs * zs)
    accel = -(v**3) * dw_dz
    return KinematicState(
        z=zs,
        t=coordinate_time(params, zs),
        v=v,
        gamma=gamma,
        accel=accel,
        proper_accel=gamma**3 * accel,
    )


# Products near the largest double overflow to inf, harmlessly: t / kappa in
# the seed (the clamp takes it in), a residual between far-apart t sends
# its Newton step out of the bracket (bisection takes over), and an
# infinite z / v makes the Newton step 0.
@np.errstate(over="ignore")
def position_at_time(params: TrajectoryParams, t):
    """Unique z > 0 with coordinate_time(z) = t; t may be a scalar or ndarray.

    The map is strictly increasing (dt/dz = 1/v > 0) and onto the reals.
    The root is sought in u = ln z, where t(u) is nearly linear in the far
    past (z ~ e^{kappa t/2}/kappa) and nearly e^{2u} kappa/4 in the far
    future (z ~ 2 sqrt(t/kappa)): seeded from those asymptotic inverses
    and refined by Newton steps guarded with bisection inside the range of
    u where z, kappa z and t(z) are normal doubles, which brackets every
    t it can represent. Each element runs its own iteration under a mask,
    so an array of times gives the bits of one call per time. A scalar
    returns a float, an array an array of its shape.

    Raises ``DomainError`` for a t that is not finite, and
    ``OverflowRangeError`` for a t whose z or kappa z lies below the
    smallest normal double, or whose t(z) would overflow before reaching
    t; either error names the first such t.
    """
    ts = np.asarray(t, dtype=float)
    bad = ~np.isfinite(ts)
    if bad.any():
        raise DomainError(f"t must be finite, got t={float(ts[bad][0])}")
    tt = ts.ravel()
    k = params.kappa
    # ln z range over which z and kappa z stay normal doubles and t(z)
    # stays finite, worked out once per call. The ceiling starts where
    # kappa z^2/4 alone reaches the largest double, where t(z) is finite
    # unless the log term is not far below it (tiny kappa). Then the
    # ceiling is the largest u with a finite t(z), bisected down to
    # adjacent doubles from u = -ln kappa, where the log term vanishes;
    # t(z) increases from there, so its finiteness is monotone in u.
    u_floor = math.log(sys.float_info.min / min(1.0, k))
    u_ceil = min(0.5 * (math.log(4.0) + math.log(sys.float_info.max) - math.log(k)),
                 math.log(sys.float_info.max))
    if not np.isfinite(_time(params, np.exp(u_ceil))):
        lo, hi = min(max(-math.log(k), u_floor), u_ceil), u_ceil
        coordinate_time(params, np.exp(lo))         # no finite t(z) at all: raise
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if np.isfinite(_time(params, np.exp(mid))) else (lo, mid)
        u_ceil = lo
    refused = (tt < _time(params, np.exp(u_floor))) | (tt > _time(params, np.exp(u_ceil)))
    if refused.any():
        raise OverflowRangeError(
            f"t={float(tt[refused][0])} lies outside the range where z and t(z) "
            "are normal doubles")

    u = 0.5 * k * tt - math.log(k)
    far = k * tt >= 4.0
    u[far] = np.log(2.0 * np.sqrt(tt[far] / k))
    u = np.minimum(np.maximum(u, u_floor), u_ceil)
    z = np.exp(u)
    f = _time(params, z) - tt
    lo, hi = u_floor, u_ceil
    tol = 1e-13 * np.maximum(1.0, np.abs(tt))
    going = np.ones(tt.shape, dtype=bool)
    for _ in range(100):
        going &= np.abs(f) > tol
        if not going.any():
            break
        hi = np.where(going & (f > 0.0), u, hi)
        lo = np.where(going & (f <= 0.0), u, lo)
        unew = u - f / (z * _inverse_speed(params, z))   # Newton: du = dt v / z
        unew = np.where((lo < unew) & (unew < hi), unew, 0.5 * (lo + hi))
        going &= (unew != lo) & (unew != hi) & (unew != u)
        u = np.where(going, unew, u)
        z = np.exp(u)
        f = _time(params, z) - tt
    if going.any():
        raise ConvergenceError("position_at_time exhausted its iteration budget")
    # A last Newton step in z itself resolves z below the spacing of ln z.
    z = (z - f / _inverse_speed(params, z)).reshape(ts.shape)
    return float(z) if ts.ndim == 0 else z


def penrose_coordinates(params: TrajectoryParams, z):
    """Compactified null coordinates U = atan(t-z), V = atan(t+z)."""
    zs = _check_positions(z)
    t = coordinate_time(params, zs)
    U = np.arctan(t - zs)
    V = np.arctan(t + zs)
    if np.ndim(z) == 0:
        return float(U), float(V)
    return U, V


def _larmor(zeta: float, s, power: int):
    """gamma^6 (dw/ds)^2 / (6 pi w^power) at s = kappa z, w = dt/dz = 1/v.

    In s, w = s/2 + 2/s + zeta and dw/ds = 1/2 - 2/s^2 carry no kappa, and
    dw/dz = kappa dw/ds: e^2 kappa^2 times power 6 is the power P (accel^2
    = v^6 (dw/dz)^2), and e^2 kappa^2 times power 5 is P/v, the energy per
    unit length, so power 5 integrated over s is E/(e^2 kappa). It is taken
    in v, as (v^2 dw/ds)^2 v^(power - 4) gamma^6 with v^2 dw/ds = v^2/2 -
    2 (v/s)^2, where no factor overflows: far out on either side it
    underflows to 0 with the power.
    """
    v = 1.0 / (0.5 * s + 2.0 / s + zeta)
    v2_dw_ds = 0.5 * v * v - 2.0 * (v / s) ** 2
    return (v2_dw_ds**2 * v ** (power - 4)
            / (6.0 * math.pi * ((1.0 - v) * (1.0 + v)) ** 3))


def larmor_power(params: TrajectoryParams, z):
    """Instantaneous radiated power P = e^2 gamma^6 accel^2 / (6 pi).

    P = e^2 kappa^2 times a function of kappa z alone; a P that underflows
    is 0. Raises ``OverflowRangeError`` where P is not a finite double.
    """
    zs = _check_positions(z)
    unit = _larmor(params.zeta, params.kappa * zs, 6)
    with np.errstate(over="ignore"):
        P = params.kappa * (params.kappa * (params.e_squared * unit))
    if not np.isfinite(P).all():
        bad = zs[~np.isfinite(P)][0]
        raise OverflowRangeError(f"P(z) at z={bad:.6g} is not a finite double")
    return float(P) if zs.ndim == 0 else P


def total_energy_larmor(params: TrajectoryParams, tol: float = 1e-9) -> float:
    """Total radiated energy E = int_0^inf P(z)/v(z) dz.

    The dt = dz/v measure re-parameterizes the time integral by position.
    In s = kappa z, E = e^2 kappa int_0^inf P/(e^2 kappa^2 v) ds, and that
    integral depends on zeta alone (``_unit_larmor``), so E/kappa is the
    same for every kappa in the double range, and a sweep over kappa or e^2
    costs no further quadrature. E is that integral scaled by
    ``_scaled_total``, which refuses an E past the double range or
    underflowing it. Emission grows without bound as zeta -> -1;
    close approaches get a runtime warning on every call because the
    integrand develops a long slow tail there.
    """
    if params.zeta <= -0.99:
        warnings.warn(
            "total energy grows without bound as zeta -> -1; "
            f"zeta={params.zeta} is close to the divergent endpoint",
            RuntimeWarning,
            stacklevel=2,
        )
    if not (0.0 < tol < math.inf):
        raise DomainError("tol must be positive and finite")
    return _scaled_total(params, _unit_larmor(params.zeta, tol), tol)


def _scaled_total(params: TrajectoryParams, unit: float, tol: float) -> float:
    """e^2 kappa times ``unit``, a total energy at kappa = 1 and unit charge.

    The product is formed on the mantissas and exponents of the three
    factors, so it overflows only where E itself is past the largest double
    (``OverflowRangeError``) and it is within two roundings of e^2 kappa
    times unit wherever it is a normal double. A product that underflows to
    0, or to a subnormal whose rounding step exceeds tol of it, raises
    ``ConvergenceError``.
    """
    (m_e, x_e), (m_k, x_k), (m_u, x_u) = (
        math.frexp(v) for v in (params.e_squared, params.kappa, unit))
    try:
        total = math.ldexp(m_e * m_k * m_u, x_e + x_k + x_u)
    except OverflowError:
        total = math.inf
    if math.isinf(total):
        raise OverflowRangeError("the total energy overflows a double")
    if math.ulp(0.0) > tol * total:
        # 0, or a subnormal whose rounding step is more than tol of it
        raise ConvergenceError("the total energy underflows a double", best=total)
    return total


@functools.cache
def _unit_larmor(zeta: float, tol: float) -> float:
    """E/(e^2 kappa) by the Larmor route, int_0^inf P/(e^2 kappa^2 v) ds, once
    per (zeta, tol) per process. A stalled integral raises and leaves
    nothing in the cache."""
    res: QuadratureResult = integrate_semi_infinite(
        lambda s: _larmor(zeta, s, 5), scale=1.0, tol=tol)
    return float(res.value)
