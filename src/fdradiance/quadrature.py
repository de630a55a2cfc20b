"""Adaptive quadrature and the semi-infinite oscillatory integrator.

The core rule is a Gauss-Kronrod 7/15 pair refined in vectorized waves
over many integrals ("rows") at once: in each pass every panel needing
refinement, in any row, is bisected, and the children go to the integrand
in batched calls of at most _WAVE_PANELS panels. Each row keeps the
target, budget and stopping rules of a lone integral and sums its own
panels in position order, and no per-panel or per-row result depends on
the other rows, so a row's result is bit-identical whichever rows share
its waves, and for a fixed tolerance no matter how the caller parallelizes
around the integrator. ``integrate_adaptive`` and
``integrate_semi_infinite`` are one-row runs.

``integrate_oscillatory`` evaluates the conditionally convergent phase
integral int_0^inf exp(i(a z^2 + b ln z + c z)) dz by rotating the contour
onto the ray z = r e^{i delta}; the Gaussian factor exp(-a r^2 sin 2delta)
then makes the integrand absolutely integrable. Near the origin the log
phase winds without end, so the ray is split at the head radius h, where
|c| h + a h^2 = 3: the head [0, h e^{i delta}] is a convergent Taylor
series, and only [h, R] goes to the adaptive rule, with each row's target
relative to its whole integral, head included (the two parts nearly cancel
at large b). On the ray the modulus of the z^{ib} factor is the constant
e^{-b delta}, so the integral retains a residual cancellation of order
e^{b(pi/2 - delta)}; relative accuracy therefore degrades like machine-eps
times that factor for very large b (b = 2 omega/kappa in the radiation
problem). The exact special-angle and closed-form routes do not share this
limit. Integrals that share a and b, such as every emission direction at
one frequency, run as rows of one adaptive run, whose set-up (cutoffs,
head radii, initial panels, heads, tails) is built for all rows at once.
"""
from __future__ import annotations

import cmath
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
# Embedded Gauss-7 weights, zero at the Kronrod-only nodes.
_G_WEIGHTS = np.zeros(15)
_G_WEIGHTS[1::2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])

_MAX_WAVES = 200
# Panels per integrand call within one wave.
_WAVE_PANELS = 1024
# Evaluation budget of one integral (the oscillatory route scales it up for
# strongly detuned phases) and absolute error floor.
_MAX_EVALS = 1_000_000
_ABS_FLOOR = 1e-300
_EPS = float(np.finfo(float).eps)
# Oscillatory route: phase/envelope units per initial ray panel, and the most
# boundaries one row's ray may start with.
_RAY_CAP = 4.0
_RAY_EDGES = 20000
# Series head: the terms summed, their dropped tail in units of |Z| (the
# largest over all splits |c| h + a h^2 = 3), and the roundoff allowance in
# units of long-double eps times the bound on the summed term moduli.
_HEAD_TERMS = 64
_HEAD_TAIL = 1.2e-22
_HEAD_ROUNDOFF = 16.0
_HEAD_INV = list(1 / np.arange(1, _HEAD_TERMS, dtype=np.longdouble))    # 1/n at n - 1


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
        if not (math.isfinite(self.abs_error) and cmath.isfinite(self.value)):
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


def _gk_chunk(f, lo, hi, rows):
    h = 0.5 * (hi - lo)     # positive: panels are ascending
    mid = 0.5 * (hi + lo)
    xs = mid[:, None] + h[:, None] * _GK_NODES[None, :]
    fv = f(xs, rows)
    if not np.isfinite(fv).all():
        raise NonFiniteError("integrand returned a non-finite value")
    # Weighted node sums by vecdot: a BLAS matrix-vector product rounds a
    # panel differently depending on where it sits in fv, vecdot does not,
    # so a panel's result is the same in whatever wave or batch it is in.
    resk = h * np.vecdot(_GK_WEIGHTS, fv)
    resg = h * np.vecdot(_G_WEIGHTS, fv)
    resabs = h * np.vecdot(_GK_WEIGHTS, np.abs(fv))
    # QUADPACK error sharpening via the mean-deviation integral resasc.
    mean = resk[:, None] / (2.0 * h[:, None])
    resasc = h * np.vecdot(_GK_WEIGHTS, np.abs(fv - mean))
    raw = np.abs(resk - resg)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * raw / resasc) ** 1.5)
    err = np.where(resasc > 0.0, scaled, raw)
    return resk, err, resabs


def _gk_panels(f, lo, hi, rows):
    """GK15 on panels [lo_k, hi_k] of rows ``rows``; returns (vals, errs, l1s).

    The panels go to the integrand _WAVE_PANELS at a time, which bounds the
    node and temporary arrays however many rows share a wave.
    """
    if lo.size <= _WAVE_PANELS:
        return _gk_chunk(f, lo, hi, rows)
    parts = [_gk_chunk(f, lo[s:s + _WAVE_PANELS], hi[s:s + _WAVE_PANELS],
                       rows[s:s + _WAVE_PANELS])
             for s in range(0, lo.size, _WAVE_PANELS)]
    return tuple(np.concatenate(p) for p in zip(*parts))


def _adaptive_rows(f, lo, hi, counts, tol, budgets, abs_floor, offsets=None):
    """Wave-refined adaptive GK15 over many integrals ("rows") at once.

    ``lo``/``hi`` hold every row's initial panels, row after row and in
    ascending order within a row; ``counts`` gives each row's panel count
    and ``budgets`` its evaluation budget. ``f(xs, rows)`` maps the
    (panels, 15) node array xs, whose panel k belongs to row ``rows[k]``,
    to integrand values of the same shape. ``offsets``, if given, holds a
    per-row value known apart from the integral (the oscillatory route's
    series head): a row's relative target then applies to its integral
    plus its offset.

    Every row keeps the rules of a lone integral: its own target, pick
    threshold and budget, and it finishes or stalls on its own. Its panels
    stay in position order and its sums run over them alone, so a row's
    result does not depend on the rows it shares a wave with. A finished
    row's panels leave the working arrays.

    Returns per-row arrays (values, abs_errors, stalled, evaluations); a
    stalled row carries its best value and its raw error sum.
    """
    counts = np.asarray(counts, dtype=np.intp)
    budgets = np.asarray(budgets, dtype=float)
    active = np.arange(counts.size)
    vals, errs, l1s = _gk_panels(f, lo, hi, active.repeat(counts))
    evals = 15 * counts
    settled = []   # (rows, values, abs_errors, stalled) as rows leave
    for _ in range(_MAX_WAVES):
        starts = counts.cumsum() - counts
        total = np.add.reduceat(vals, starts)
        toterr = np.add.reduceat(errs, starts)
        # Below the machine floor (eps times the L1 norm of the integrand)
        # error estimates are roundoff fiction; cancellation-dominated
        # integrals legitimately bottom out there.
        machine_floor = (50.0 * _EPS) * np.add.reduceat(l1s, starts)
        whole = total if offsets is None else total + offsets[active]
        target = np.maximum(np.maximum(tol * np.abs(whole), abs_floor),
                            machine_floor)
        done = toterr <= target
        if done.all():
            settled.append((active, total, np.maximum(toterr, machine_floor), ~done))
            break
        # Bisect each row's panels whose error exceeds half its share of
        # the row's target, that are wider than roundoff and whose error is
        # above the roundoff floor.
        k = (errs > (0.5 * target / counts).repeat(counts)).nonzero()[0]
        splittable = hi[k] - lo[k] > 16 * _EPS * np.maximum(1.0, np.abs(lo[k]))
        k = k[splittable & (errs[k] > 50.0 * _EPS * l1s[k])]
        row_k = starts.searchsorted(k, side="right") - 1
        npick = np.bincount(row_k, minlength=counts.size)
        leave = done | (npick == 0) | (evals[active] + 30 * npick > budgets[active])
        width = np.ones(lo.size, dtype=np.intp)
        if leave.any():
            settled.append((active[leave], total[leave],
                            np.where(done, np.maximum(toterr, machine_floor),
                                     toterr)[leave],
                            ~done[leave]))
            if leave.all():
                break
            k = k[~leave[row_k]]
            width = (~leave).repeat(counts).astype(np.intp)
            active, counts, npick = active[~leave], counts[~leave], npick[~leave]
        mid = 0.5 * (lo[k] + hi[k])
        clo = np.concatenate([lo[k], mid])
        chi = np.concatenate([mid, hi[k]])
        crows = active.repeat(npick)
        cvals, cerrs, cl1s = _gk_panels(f, clo, chi, np.concatenate([crows, crows]))
        evals[active] += 30 * npick
        counts = counts + npick
        # Gather index: the panels of finished rows drop out, and each
        # bisected panel's two children take its place in position order.
        width[k] = 2
        src = np.arange(lo.size).repeat(width)
        at = (width.cumsum() - width)[k]
        src[at] = lo.size + np.arange(k.size)
        src[at + 1] = lo.size + k.size + np.arange(k.size)
        lo = np.concatenate([lo, clo])[src]
        hi = np.concatenate([hi, chi])[src]
        vals = np.concatenate([vals, cvals])[src]
        errs = np.concatenate([errs, cerrs])[src]
        l1s = np.concatenate([l1s, cl1s])[src]
    else:
        # Out of waves: the rows still running stall with their last sums.
        starts = counts.cumsum() - counts
        settled.append((active, np.add.reduceat(vals, starts),
                        np.add.reduceat(errs, starts), np.ones(active.size, bool)))
    if len(settled) == 1:
        # Every row left at once, so the rows are already in order.
        return settled[0][1:] + (evals,)
    rows, values, abs_errors, stalled = (np.concatenate(x) for x in zip(*settled))
    order = np.argsort(rows)
    return values[order], abs_errors[order], stalled[order], evals


def _pyval(v):
    v = complex(v)
    return v.real if v.imag == 0.0 else v


def _raise_stalled(values, abs_errors, stalled, evals):
    """Raise ConvergenceError for the first stalled row, with its best result."""
    if stalled.any():
        i = int(np.argmax(stalled))
        best = QuadratureResult(_pyval(values[i]), float(abs_errors[i]),
                                int(evals[i]))
        raise ConvergenceError(
            f"adaptive quadrature stalled at abs error {best.abs_error:.3e} "
            f"after {best.evaluations} evaluations",
            best=best,
        )


def _integrate(f, bounds, tol, abs_floor):
    """One integral of the batch integrand f: a one-row _adaptive_rows call."""
    values, abs_errors, stalled, evals = _adaptive_rows(
        lambda xs, rows: _evaluate(f, xs.ravel()).reshape(xs.shape),
        bounds[:-1], bounds[1:], [bounds.size - 1], tol, [_MAX_EVALS], abs_floor)
    _raise_stalled(values, abs_errors, stalled, evals)
    return QuadratureResult(_pyval(values[0]), float(abs_errors[0]),
                            int(evals[0]))


def integrate_adaptive(f, lo, hi, tol=1e-10, *, abs_floor=_ABS_FLOOR, points=None):
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
        from looping forever. Past _MAX_EVALS integrand evaluations the
        integral raises, with the best estimate attached to the exception.
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
    return _integrate(f, bounds, tol, abs_floor)


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
    return _integrate(mapped, bounds, tol, _ABS_FLOOR)


def _ray_integrand(a, b, cs, delta):
    sd, cd = math.sin(delta), math.cos(delta)
    s2d, c2d = math.sin(2 * delta), math.cos(2 * delta)
    prefac = complex(math.cos(delta), math.sin(delta)) * math.exp(-b * delta)

    def g(rs, rows):
        c = cs[rows, None]
        r2 = rs**2
        decay = -a * r2 * s2d - c * rs * sd
        phase = a * r2 * c2d + c * rs * cd + b * np.log(rs)
        # np.multiply, not "*": numpy would reuse a large temporary in
        # place, and its in-place complex product rounds differently, which
        # would make a node's value depend on the size of its wave.
        return np.multiply(prefac, np.exp(decay + 1j * phase))

    return g


def _ray_setup(a, b, cs, delta, tol):
    """Every row's ray cutoff R, head radius h and initial panels on [h, R].

    Returns (R, h, lo, hi, counts): lo/hi hold the panels of all rows, row
    after row and ascending within a row, and counts each row's number.
    """
    sd, cd, s2d = math.sin(delta), math.cos(delta), math.sin(2 * delta)
    # Envelope exp(-a R^2 sin2d - c R sind) <= exp(-L); L covers both the
    # requested tolerance and the residual cancellation e^{b(pi/2-delta)}.
    L = b * (math.pi / 2 - delta) + max(30.0, -math.log(max(tol, 1e-300)) + 12.0)
    R = (-cs * sd + np.sqrt((cs * sd) ** 2 + 4.0 * a * s2d * L)) / (2.0 * a * s2d)
    # Head radius: |c| h + a h^2 = 3 bounds the series head's terms.
    h = np.minimum(6.0 / (np.abs(cs) + np.sqrt(cs * cs + 12.0 * a)), 0.5 * R)
    # Equal-variation boundaries, walking down from R: each step is the
    # shortest of three that each span _RAY_CAP units of one phase or
    # log-envelope term, so GK15 starts accurate and the adaptive pass only
    # polishes. The quadratic term (z^2 falls by dq) binds down to z_q, the
    # linear one (z falls by dl) down to z_l, and the log winding (z shrinks
    # by s) below, so each row's boundaries are three closed-form runs.
    dq = _RAY_CAP / (a * (abs(math.cos(2 * delta)) + s2d))
    log_s = -_RAY_CAP / b if b > 0.0 else -math.inf
    s = math.exp(log_s)
    # The runs' formulas meet inf and nan where a term is absent (c = 0,
    # b = 0) and in the branches np.where discards.
    with np.errstate(all="ignore"):
        dl = _RAY_CAP / (np.abs(cs) * (cd + sd))              # inf when c = 0
        z_q = np.maximum(np.where(dl * dl < dq, (dq + dl * dl) / (2.0 * dl), 0.0),
                         math.sqrt(dq / (1.0 - s * s)))
        z_l = dl / (1.0 - s)
        # Step counts of the three runs, capped at _RAY_EDGES boundaries.
        nq = np.minimum(np.where(R >= z_q, np.floor((R * R - z_q * z_q) / dq) + 1.0, 0.0),
                        _RAY_EDGES - 1)
        w = np.sqrt(np.maximum(R * R - nq * dq, 0.0))
        nl = np.minimum(np.where(w >= z_l, np.floor((w - z_l) / dl) + 1.0, 0.0),
                        _RAY_EDGES - 1 - nq)
        v = np.where(nl > 0.0, w - nl * dl, w)
        ng = np.minimum(np.fmax(np.ceil(np.log(v / h) * (-1.0 / log_s)) - 1.0, 0.0),
                        _RAY_EDGES - 1 - nq - nl)
        nq, nql = nq.astype(np.intp), (nq + nl).astype(np.intp)
        n = nql + ng.astype(np.intp) + 1
        row = np.arange(cs.size).repeat(n)
        # k-th boundary below R, ascending in z within each row.
        k = (n.cumsum() - 1).repeat(n) - np.arange(n.sum())
        kq, kql = nq[row], nql[row]
        z = np.where(k <= kq, np.sqrt(np.maximum(R[row] ** 2 - k * dq, 0.0)),
                     np.where(k <= kql, w[row] - (k - kq) * dl[row],
                              v[row] * np.exp((k - kql) * log_s)))
    keep = z > h[row]
    hi = z[keep]
    counts = np.bincount(row[keep], minlength=cs.size)
    lo = np.empty_like(hi)
    lo[1:] = hi[:-1]
    lo[counts.cumsum() - counts] = h
    return R, h, lo, hi, counts


def _ray_head(a, b, cs, delta, h):
    """int_0^Z z^{ib} exp(i(c z + a z^2)) dz, Z = h e^{i delta}, by its Taylor series.

    The integral is Z^{1+ib} sum_n t_n / (1+ib+n) with t_0 = 1 and
    n t_n = i c Z t_{n-1} + 2 i a Z^2 t_{n-2}. The term moduli sum to at
    most e^{|c| h + a h^2} = e^3, and past _HEAD_TERMS their tail is below
    _HEAD_TAIL |Z|. The sum can be e^3 smaller again (the Gaussian decays
    along the ray), and at large b the head nearly cancels the ray part,
    so the series runs in long double and the head's error is mostly its
    final rounding to double. Every row runs the same number of terms, so
    its value does not depend on the other rows. Returns per-row arrays
    (values, abs_errors).
    """
    ld = np.longdouble
    delta, b = ld(delta), ld(b)
    hl = h.astype(ld)
    Z = hl * (np.cos(delta) + 1j * np.sin(delta))
    x, y = 1j * cs * Z, 2j * ld(a) * Z * Z
    w = list(1 / (1 + 1j * b + np.arange(_HEAD_TERMS, dtype=ld)))
    t0, t1 = np.ones_like(Z), x
    total = w[0] + w[1] * t1
    for n in range(2, _HEAD_TERMS):
        t0, t1 = t1, (x * t1 + y * t0) * _HEAD_INV[n - 1]
        total += w[n] * t1
    # Z^{1+ib} = h e^{-b delta} e^{i (delta + b ln h)}
    scale = hl * np.exp(-b * delta)
    value = (scale * np.exp(1j * (delta + b * np.log(hl))) * total).astype(complex)
    moduli = np.exp(np.abs(cs) * h + a * h * h) * float(abs(w[0]))
    err = scale.astype(float) * (_HEAD_ROUNDOFF * float(np.finfo(ld).eps) * moduli
                                 + _HEAD_TAIL) + _EPS * np.abs(value)
    return value, err


def _oscillatory_rows(a, b, cs, tol, delta):
    """int_0^inf exp(i(a z^2 + b ln z + c z)) dz for every c in cs at once.

    The rows share a and b, so one adaptive run refines them all; each row
    keeps its own ray cutoff R, head radius h, panels, budget, series head
    and truncation tail. The ray is integrated on [h, R]; the head [0, h]
    (where the log phase winds without end) is the convergent series of
    ``_ray_head``. Each row's adaptive target is tol times its whole
    integral, ray plus head: at large b the two nearly cancel, and a target
    on the ray part alone would be too loose. Returns per-row arrays
    (values, abs_errors, evaluations); if a row stalls, the first one
    raises ``ConvergenceError`` with its ray result as ``best``.
    """
    if not (0.0 < delta < math.pi / 2):
        raise DomainError("delta must lie in (0, pi/2)")
    if not (0.0 < tol <= 1e-2):
        raise DomainError("tol must lie in (0, 1e-2]")
    cs = np.asarray(cs, dtype=float)
    R, h, lo, hi, counts = _ray_setup(a, b, cs, delta, tol)
    heads, head_errs = _ray_head(a, b, cs, delta, h)
    # strongly detuned phases (|c| >> sqrt(a)) need more panels
    budgets = _MAX_EVALS * np.maximum(1.0, np.abs(cs) / math.sqrt(a))
    values, abs_errors, stalled, evals = _adaptive_rows(
        _ray_integrand(a, b, cs, delta), lo, hi, counts, tol, budgets, _ABS_FLOOR,
        heads)
    _raise_stalled(values, abs_errors, stalled, evals)
    # Truncation tail bound: envelope at R over the local decay rate.
    sd, s2d = math.sin(delta), math.sin(2 * delta)
    tails = (np.exp(-b * delta - a * R * R * s2d - cs * R * sd)
             / (2.0 * a * R * s2d + cs * sd))
    values = values + heads
    abs_errors = abs_errors + head_errs + np.abs(tails)
    if not (np.isfinite(values).all() and np.isfinite(abs_errors).all()):
        raise NonFiniteError("quadrature result is not finite")
    return values, abs_errors, evals


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
    values, abs_errors, evals = _oscillatory_rows(
        spec.quad_coeff, spec.log_coeff, [spec.lin_coeff], tol, delta)
    return QuadratureResult(complex(values[0]), float(abs_errors[0]),
                            int(evals[0]))
