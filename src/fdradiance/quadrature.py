"""Adaptive quadrature and the semi-infinite oscillatory integrator.

The core rule is a Gauss-Kronrod 7/15 pair evaluated in vectorized waves:
every panel needing refinement in a pass is bisected and all children are
evaluated in one batched integrand call. Summation order is fixed by panel
index, so results are bit-identical for a fixed tolerance no matter how the
caller parallelizes around the integrator.

``integrate_oscillatory`` evaluates the conditionally convergent phase
integral int_0^inf exp(i(a z^2 + b ln z + c z)) dz by rotating the contour
onto the ray z = r e^{i delta}; the Gaussian factor exp(-a r^2 sin 2delta)
then makes the integrand absolutely integrable. On the ray the modulus of
the z^{ib} factor is the constant e^{-b delta}, so the integral retains a
residual cancellation of order e^{b(pi/2 - delta)}; relative accuracy
therefore degrades like machine-eps times that factor for very large b
(b = 2 omega/kappa in the radiation problem). The exact special-angle and
closed-form routes do not share this limit.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ConvergenceError, DomainError, NonFiniteError

__all__ = [
    "QuadratureResult",
    "OscillatoryPhaseSpec",
    "integrate_adaptive",
    "integrate_semi_infinite",
    "integrate_oscillatory",
]

# Gauss-Kronrod 7/15 nodes and weights (QUADPACK dqk15 constants).
_XGK_HALF = np.array([
    0.9914553711208126, 0.9491079123427585, 0.8648644233597691,
    0.7415311855993944, 0.5860872354676911, 0.4058451513773972,
    0.2077849550078985, 0.0,
])
_WGK_HALF = np.array([
    0.02293532201052922, 0.06309209262997855, 0.1047900103222502,
    0.1406532597155259, 0.1690047266392679, 0.1903505780647854,
    0.2044329400752989, 0.2094821410847278,
])
_WG_HALF = np.array([
    0.1294849661688697, 0.2797053914892767, 0.3818300505051189,
    0.4179591836734694,
])

_GK_NODES = np.concatenate([-_XGK_HALF[:-1], _XGK_HALF[::-1]])       # ascending, 15
_GK_WEIGHTS = np.concatenate([_WGK_HALF[:-1], _WGK_HALF[::-1]])      # Kronrod
_G_IDX = np.arange(1, 15, 2)                                         # embedded Gauss-7
_G_WEIGHTS = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])

_MAX_WAVES = 200
# Default evaluation budget (the oscillatory route scales it up for strongly
# detuned phases) and absolute error floor.
_MAX_EVALS = 1_000_000
_ABS_FLOOR = 1e-300


@dataclasses.dataclass(frozen=True)
class QuadratureResult:
    """Value, error estimate, and cost of one integration."""

    value: complex | float
    abs_error: float
    evaluations: int

    def __post_init__(self):
        if not (self.abs_error >= 0.0):
            raise DomainError("abs_error must be non-negative")
        if self.evaluations < 1:
            raise DomainError("evaluations must be at least 1")
        if not np.isfinite(self.abs_error) or not np.all(np.isfinite(complex(self.value))):
            raise NonFiniteError("quadrature result is not finite")


@dataclasses.dataclass(frozen=True)
class OscillatoryPhaseSpec:
    """Phase coefficients of exp(i(quad z^2 + log ln z + lin z))."""

    quad_coeff: float
    log_coeff: float
    lin_coeff: float

    def __post_init__(self):
        if not (self.quad_coeff > 0.0 and math.isfinite(self.quad_coeff)):
            raise DomainError("quad_coeff must be positive and finite")
        # log_coeff = 0 is allowed: the pure-Fresnel limit has no log term.
        if not (self.log_coeff >= 0.0 and math.isfinite(self.log_coeff)):
            raise DomainError("log_coeff must be non-negative and finite")
        if not math.isfinite(self.lin_coeff):
            raise DomainError("lin_coeff must be finite")


def _evaluate(f, xs):
    """f on the 1-d node array xs; the batch must come back in xs's shape."""
    fv = np.asarray(f(xs))
    if fv.shape != xs.shape:
        raise NonFiniteError("integrand returned a wrongly shaped batch")
    return fv


def _gk_panels(f, lo, hi):
    """Evaluate GK15 on panels [lo_k, hi_k]; returns (vals, errs, l1, nevals)."""
    h = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    xs = mid[:, None] + h[:, None] * _GK_NODES[None, :]
    fv = _evaluate(f, xs.ravel())
    if not np.all(np.isfinite(fv)):
        raise NonFiniteError("integrand returned a non-finite value")
    fv = fv.reshape(xs.shape)
    resk = h * (fv @ _GK_WEIGHTS)
    resg = h * (fv[:, _G_IDX] @ _G_WEIGHTS)
    resabs = np.abs(h) * (np.abs(fv) @ _GK_WEIGHTS)
    # QUADPACK error sharpening via the mean-deviation integral resasc.
    mean = resk[:, None] / (2.0 * h[:, None])
    resasc = np.abs(h) * (np.abs(fv - mean) @ _GK_WEIGHTS)
    raw = np.abs(resk - resg)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * raw / resasc) ** 1.5)
    err = np.where(resasc > 0.0, scaled, raw)
    return resk, err, resabs, xs.size


def _adaptive_core(f, bounds, tol, max_evals, abs_floor):
    """Wave-refined adaptive GK15 over the initial panel boundaries."""
    eps = np.finfo(float).eps
    lo = bounds[:-1].astype(float)
    hi = bounds[1:].astype(float)
    vals, errs, l1s, evals = _gk_panels(f, lo, hi)
    for _ in range(_MAX_WAVES):
        total = vals.sum()
        toterr = float(errs.sum())
        # Below the machine floor (eps times the L1 norm of the integrand)
        # error estimates are roundoff fiction; cancellation-dominated
        # integrals legitimately bottom out there.
        machine_floor = 50.0 * eps * float(l1s.sum())
        target = max(tol * abs(total), abs_floor, machine_floor)
        if toterr <= target:
            return total, max(toterr, machine_floor), evals
        widths = hi - lo
        splittable = widths > 16 * eps * np.maximum(1.0, np.abs(lo))
        at_floor = errs <= 50.0 * eps * l1s
        pick = (errs > 0.5 * target / len(lo)) & splittable & ~at_floor
        if not np.any(pick):
            break
        if evals + 30 * int(pick.sum()) > max_evals:
            break
        mid = 0.5 * (lo[pick] + hi[pick])
        nlo = np.concatenate([lo[~pick], lo[pick], mid])
        nhi = np.concatenate([hi[~pick], mid, hi[pick]])
        keep_vals = vals[~pick]
        keep_errs = errs[~pick]
        keep_l1s = l1s[~pick]
        new_vals, new_errs, new_l1s, n = _gk_panels(
            f, np.concatenate([lo[pick], mid]), np.concatenate([mid, hi[pick]])
        )
        evals += n
        lo, hi = nlo, nhi
        vals = np.concatenate([keep_vals, new_vals])
        errs = np.concatenate([keep_errs, new_errs])
        l1s = np.concatenate([keep_l1s, new_l1s])
        # Re-sort by interval position so the summation order is a pure
        # function of the final panel set, not of the refinement history.
        order = np.argsort(lo, kind="stable")
        lo, hi, vals, errs, l1s = lo[order], hi[order], vals[order], errs[order], l1s[order]
    total = vals.sum()
    toterr = float(errs.sum())
    raise ConvergenceError(
        f"adaptive quadrature stalled at abs error {toterr:.3e} "
        f"after {evals} evaluations",
        best=QuadratureResult(_pyval(total), toterr, evals),
    )


def _pyval(v):
    v = complex(v)
    return v.real if v.imag == 0.0 else v


def integrate_adaptive(f, lo, hi, tol=1e-10, *, max_evals=_MAX_EVALS,
                       abs_floor=_ABS_FLOOR, points=None):
    """Adaptive Gauss-Kronrod integral of f over the finite interval [lo, hi].

    Parameters
    ----------
    f : callable
        Batched integrand: maps a 1-d ndarray of nodes to an ndarray of
        the same shape. Any other shape raises ``NonFiniteError``; wrap a
        scalar function in ``np.vectorize`` first.
    lo, hi : float
        Finite bounds with lo < hi; integrals over [0, inf) go through
        ``integrate_semi_infinite``.
    tol : float
        Relative tolerance; the absolute floor keeps zero-valued integrals
        from looping forever.
    max_evals : int
        Budget of integrand evaluations; exceeding it raises, with the best
        estimate attached to the exception.
    points : sequence of float, optional
        Interior breakpoints seeding the initial panel set, for integrands
        whose interesting structure is known in advance.

    Returns
    -------
    QuadratureResult
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError("integration bounds must be finite with lo < hi")
    if points is None:
        bounds = np.linspace(float(lo), float(hi), 9)
    else:
        pts = np.asarray(points, dtype=float)
        pts = pts[(pts > lo) & (pts < hi)]
        bounds = np.unique(np.concatenate([[float(lo)], pts, [float(hi)]]))
    value, err, evals = _adaptive_core(f, bounds, tol, max_evals, abs_floor)
    return QuadratureResult(_pyval(value), err, evals)


def integrate_semi_infinite(f, scale=1.0, tol=1e-10):
    """Integral of f over [0, inf) via the map z = scale*r/(1-r), r in [0,1)."""
    if not (scale > 0.0 and math.isfinite(scale)):
        raise DomainError("scale must be positive and finite")

    def mapped(rs):
        one_minus = 1.0 - rs
        return _evaluate(f, scale * rs / one_minus) * (scale / one_minus**2)

    # Denser initial panels toward r=1 where the map stretches fastest.
    bounds = np.array([0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875,
                       0.9375, 0.96875, 1.0])
    value, err, evals = _adaptive_core(mapped, bounds, tol, _MAX_EVALS,
                                       _ABS_FLOOR)
    return QuadratureResult(_pyval(value), err, evals)


def _ray_integrand(spec: OscillatoryPhaseSpec, delta: float):
    a, b, c = spec.quad_coeff, spec.log_coeff, spec.lin_coeff
    sd, cd = math.sin(delta), math.cos(delta)
    s2d, c2d = math.sin(2 * delta), math.cos(2 * delta)
    prefac = complex(math.cos(delta), math.sin(delta)) * math.exp(-b * delta)

    def g(rs):
        decay = -a * rs**2 * s2d - c * rs * sd
        phase = a * rs**2 * c2d + c * rs * cd + b * np.log(rs)
        return prefac * np.exp(decay + 1j * phase)

    return g


def _ray_cutoff(spec: OscillatoryPhaseSpec, delta: float, tol: float) -> float:
    # Envelope exp(-a R^2 sin2d - c R sind) <= exp(-L); L covers both the
    # requested tolerance and the residual cancellation e^{b(pi/2-delta)}.
    a, b, c = spec.quad_coeff, spec.log_coeff, spec.lin_coeff
    sd, s2d = math.sin(delta), math.sin(2 * delta)
    L = b * (math.pi / 2 - delta) + max(30.0, -math.log(max(tol, 1e-300)) + 12.0)
    disc = (c * sd) ** 2 + 4.0 * a * s2d * L
    return (-c * sd + math.sqrt(disc)) / (2.0 * a * s2d)


def _ray_panels(spec: OscillatoryPhaseSpec, delta: float, R: float) -> np.ndarray:
    # Equal-variation boundaries: each panel spans at most ~cap units of
    # combined phase + log-envelope variation, so GK15 starts accurate and
    # the adaptive pass only polishes. The head [0, r_tiny] is handled
    # analytically by the caller (the log phase oscillates infinitely fast
    # toward 0 and can never be resolved by bisection).
    a, b, c = spec.quad_coeff, spec.log_coeff, spec.lin_coeff
    cap = 4.0
    A2 = a * (abs(math.cos(2 * delta)) + math.sin(2 * delta))
    C2 = abs(c) * (math.cos(delta) + math.sin(delta))
    r_tiny = 1e-14 * R
    bounds = [R]
    z = R
    while z > r_tiny and len(bounds) < 20000:
        zq = math.sqrt(max(z * z - cap / A2, 0.0))
        zl = max(z - cap / C2, 0.0) if C2 > 0.0 else 0.0
        zb = z * math.exp(-cap / b) if b > 0.0 else 0.0
        z = max(zq, zl, zb)
        if z <= r_tiny:
            break
        bounds.append(z)
    bounds.append(r_tiny)
    return np.array(bounds[::-1])


def integrate_oscillatory(spec: OscillatoryPhaseSpec, tol=1e-9, *,
                          delta=math.pi / 4):
    """Evaluate int_0^inf exp(i(a z^2 + b ln z + c z)) dz by contour rotation.

    Parameters
    ----------
    spec : OscillatoryPhaseSpec
        Phase coefficients (a, b, c) = (quad, log, lin).
    tol : float
        Relative tolerance target for the adaptive pass along the ray.
    delta : float
        Rotation angle in (0, pi/2); pi/4 maximizes the Gaussian decay.

    Returns
    -------
    QuadratureResult
        Complex value with an absolute error estimate that includes the
        truncation bound of the finite ray.
    """
    if not (0.0 < delta < math.pi / 2):
        raise DomainError("delta must lie in (0, pi/2)")
    if not (0.0 < tol <= 1e-2):
        raise DomainError("tol must lie in (0, 1e-2]")
    a, b, c = spec.quad_coeff, spec.log_coeff, spec.lin_coeff
    # strongly detuned phases (|c| >> sqrt(a)) need more panels
    budget = int(_MAX_EVALS * max(1.0, abs(c) / math.sqrt(a)))
    R = _ray_cutoff(spec, delta, tol)
    bounds = _ray_panels(spec, delta, R)
    g = _ray_integrand(spec, delta)
    value, err, evals = _adaptive_core(g, bounds, tol, budget, _ABS_FLOOR)
    # Analytic head over [0, r_tiny]: the integrand there is the pure power
    # prefac * r^{i b} up to relative corrections O((|c| + a r) r).
    r_tiny = float(bounds[0])
    prefac = complex(math.cos(delta), math.sin(delta)) * math.exp(-b * delta)
    head = prefac * r_tiny ** (1.0 + 1j * b) / (1.0 + 1j * b)
    head_err = abs(head) * ((abs(c) + a * r_tiny) * r_tiny + 1e-13)
    # Truncation tail bound: envelope at R over the local decay rate.
    sd, s2d = math.sin(delta), math.sin(2 * delta)
    tail = (math.exp(-b * delta - a * R * R * s2d - c * R * sd)
            / (2.0 * a * R * s2d + c * sd))
    return QuadratureResult(complex(value) + head, err + head_err + abs(tail),
                            evals)
