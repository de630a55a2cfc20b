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
integral F(b, d) = int_0^inf exp(i b (w^2/2 + ln w + d w)) dw on a contour
through its saddle point. Its domain is b > 0 and d^2 < 4, where the phase
has a conjugate pair of saddles on the unit circle, at w = e^{+-i alpha}
with cos alpha = -d/2, alpha in (0, pi). Any phase a z^2 + b ln z + c z
with a, b > 0 and c^2 < 8ab comes to this form by z = rho w, rho =
sqrt(b/2a), d = c rho/b; the radiation problem's emission integral is
F(2 omega/kappa, zeta - cos theta) in the units w = kappa z/2. The contour
runs from 0 along the ray at the upper saddle's angle to the saddle S =
e^{i alpha}, then from S along its steepest-descent direction e^{i alpha/2}
until the integrand has fallen e^{-L} below its value at S. It stays in
the upper half plane, so the principal ln w is continuous on it. Near the
origin the log phase winds without end, so the ray starts at the head
radius h (b |d| h + b h^2/2 = 3, and at most 1/2): the head [0, h e^{i
alpha}] is a convergent Taylor series, and the two legs go to the adaptive
rule as one row, with each row's target relative to its whole integral,
head included.

Limit: on the descent leg the integrand falls away from |f(S)|, and for
d < 0 it grows along the ray up to S, so nothing cancels. For d > 0
(alpha > pi/2; in the radiation problem the directions with cos theta <
zeta) it falls along the ray instead, by e^{b |sin alpha cos alpha|} <=
e^{b/2}, so the start of the contour cancels against the rest by up to
that factor and the relative error grows like eps times it (b = 2
omega/kappa). The adaptive rule's roundoff floor carries that
cancellation into the error bar.
"""
from __future__ import annotations

import cmath
import dataclasses
import math

import numpy as np

from .errors import ConvergenceError, DomainError, NonFiniteError, OverflowRangeError

__all__ = [
    "QuadratureResult",
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
# Evaluation budget of one integral, and the contour rows' absolute error
# floor: a row whose integral is subnormal (b 300-400, d 0.5-1.5) would
# otherwise refine its roundoff for up to 1,695 evaluations instead of 75.
_MAX_EVALS = 1_000_000
_ABS_FLOOR = 1e-300
_EPS = float(np.finfo(float).eps)
# Series head: the terms summed, their dropped tail in units of |Z| (the
# largest over all splits b |d| h + b h^2/2 = 3), and the roundoff allowance
# in units of eps times the bound on the summed term moduli.
_HEAD_TERMS = 56
_HEAD_TAIL = 1.5e-18
_HEAD_ROUNDOFF = 16.0
# Rows per (terms, rows) table of series terms.
_HEAD_BLOCK = 512
# Largest b the contour takes. The set-up squares b (b^2 d^2, p^2, b L), which
# leaves the double range from b ~ 1e154; refusing past this bound keeps it,
# and the head and legs, free of inf and nan without a numpy error state
# around the run, which would slow every array operation in it by 2-4%.
_B_MAX = 1e150


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


def _check_tol(tol):
    """The relative tolerances that the oscillatory route, the spectra and the CLI take."""
    if not (0.0 < tol <= 1e-2):
        raise DomainError("tol must lie in (0, 1e-2]")


def _check_phase(b, d):
    """The saddle contour's domain: b > 0 and finite, d^2 < 4, on every row."""
    if not ((b > 0.0) & np.isfinite(b)).all():
        raise DomainError("log_coeff must be positive and finite")
    if not np.less(d * d, 4.0).all():
        raise DomainError("shift^2 must lie below 4 (a complex pair of saddles)")


def _evaluate(f, xs):
    """f on the 1-d node array xs; the batch must come back in xs's shape."""
    fv = np.asarray(f(xs))
    if fv.shape != xs.shape:
        raise NonFiniteError("integrand returned a wrongly shaped batch")
    return fv


def _gk_chunk(f, lo, hi, rows):
    h = 0.5 * (hi - lo)     # positive: panels are ascending
    mid = 0.5 * (hi + lo)
    # The nodes are built node-major, (15, panels), so that each node's row
    # takes the panels' h and mid in one long inner loop; f gets the
    # (panels, 15) transpose.
    xs = np.multiply(_GK_NODES[:, None], h)
    xs += mid
    fv = f(xs.T, rows)
    if not np.isfinite(fv).all():
        raise NonFiniteError("integrand returned a non-finite value")
    # Weighted node sums by vecdot: a BLAS matrix-vector product rounds a
    # panel differently depending on where it sits in fv, vecdot does not,
    # so a panel's result is the same in whatever wave or batch it is in.
    # The node moduli, and then the moduli of the deviations from the
    # panel mean, share one buffer.
    resk = h * np.vecdot(_GK_WEIGHTS, fv)
    resg = h * np.vecdot(_G_WEIGHTS, fv)
    moduli = np.abs(fv)
    resabs = h * np.vecdot(_GK_WEIGHTS, moduli)
    # QUADPACK error sharpening via the mean-deviation integral resasc.
    mean = resk[:, None] / (2.0 * h[:, None])
    resasc = h * np.vecdot(_GK_WEIGHTS, np.abs(fv - mean, out=moduli))
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


def _adaptive_rows(f, lo, hi, counts, tol, offsets=None, floor=0.0):
    """Wave-refined adaptive GK15 over many integrals ("rows") at once.

    ``lo``/``hi`` hold every row's initial panels, row after row and in
    ascending order within a row, and ``counts`` gives each row's panel
    count; every row's budget is _MAX_EVALS evaluations. ``f(xs, rows)``
    maps the (panels, 15) node array xs, whose panel k belongs to row
    ``rows[k]``, to integrand values of the same shape. ``offsets``, if
    given, holds a per-row value known apart from the integral (the
    oscillatory route's series head): a row's relative target then applies
    to its integral plus its offset. ``floor`` is an absolute target below
    which no row refines.

    Every row keeps the rules of a lone integral: its own target, pick
    threshold and budget, and it finishes or stalls on its own. Its panels
    stay in position order and its sums run over them alone, so a row's
    result does not depend on the rows it shares a wave with. A finished
    row's panels leave the working arrays.

    Returns per-row arrays (values, abs_errors, stalled, evaluations),
    each row's entries written where the row leaves; a stalled row
    carries its best value and its raw error sum.
    """
    counts = np.asarray(counts, dtype=np.intp)
    active = np.arange(counts.size)
    vals, errs, l1s = _gk_panels(f, lo, hi, active.repeat(counts))
    evals = 15 * counts
    values = np.empty(counts.size, dtype=vals.dtype)
    abs_errors = np.empty(counts.size)
    stalled = np.zeros(counts.size, dtype=bool)
    for _ in range(_MAX_WAVES):
        starts = counts.cumsum() - counts
        total = np.add.reduceat(vals, starts)
        toterr = np.add.reduceat(errs, starts)
        # Below the machine floor (eps times the L1 norm of the integrand)
        # error estimates are roundoff fiction; cancellation-dominated
        # integrals legitimately bottom out there.
        machine_floor = (50.0 * _EPS) * np.add.reduceat(l1s, starts)
        whole = total if offsets is None else total + offsets
        target = np.maximum(np.maximum(tol * np.abs(whole), floor),
                            machine_floor)
        done = toterr <= target
        if done.all():
            values[active] = total
            abs_errors[active] = np.maximum(toterr, machine_floor)
            break
        # Bisect each row's panels whose error exceeds half its share of
        # the row's target, that are wider than roundoff and whose error is
        # above the roundoff floor.
        k = (errs > (0.5 * target / counts).repeat(counts)).nonzero()[0]
        lo_k = lo[k]
        splittable = hi[k] - lo_k > 16 * _EPS * np.maximum(1.0, np.abs(lo_k))
        k = k[splittable & (errs[k] > 50.0 * _EPS * l1s[k])]
        row_k = starts.searchsorted(k, side="right") - 1
        npick = np.bincount(row_k, minlength=counts.size)
        leave = done | (npick == 0) | (evals[active] + 30 * npick > _MAX_EVALS)
        if leave.any():
            gone = active[leave]
            values[gone] = total[leave]
            abs_errors[gone] = np.where(done, np.maximum(toterr, machine_floor),
                                        toterr)[leave]
            stalled[gone] = ~done[leave]
            if leave.all():
                break
            stay = ~leave
            k = k[stay[row_k]]
            width = stay.repeat(counts).astype(np.intp)
            active, counts, npick = active[stay], counts[stay], npick[stay]
            # the offsets follow the active rows, as counts do
            if offsets is not None:
                offsets = offsets[stay]
        else:
            width = np.ones(lo.size, dtype=np.intp)
        lo_k, hi_k = lo[k], hi[k]
        mid = 0.5 * (lo_k + hi_k)
        clo = np.concatenate([lo_k, mid])
        chi = np.concatenate([mid, hi_k])
        crows = active.repeat(npick)
        cvals, cerrs, cl1s = _gk_panels(f, clo, chi, np.concatenate([crows, crows]))
        evals[active] += 30 * npick
        counts = counts + npick
        # Gather index: the panels of finished rows drop out, and each
        # bisected panel's two children take its place in position order.
        width[k] = 2
        src = np.arange(lo.size).repeat(width)
        at = width.cumsum()[k] - 2
        children = np.arange(lo.size, lo.size + 2 * k.size)
        src[at] = children[:k.size]
        src[at + 1] = children[k.size:]
        lo = np.concatenate([lo, clo])[src]
        hi = np.concatenate([hi, chi])[src]
        vals = np.concatenate([vals, cvals])[src]
        errs = np.concatenate([errs, cerrs])[src]
        l1s = np.concatenate([l1s, cl1s])[src]
    else:
        # Out of waves: the rows still running stall with their last sums.
        starts = counts.cumsum() - counts
        values[active] = np.add.reduceat(vals, starts)
        abs_errors[active] = np.add.reduceat(errs, starts)
        stalled[active] = True
    return values, abs_errors, stalled, evals


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


def _integrate(f, bounds, tol):
    """One integral of the batch integrand f: a one-row _adaptive_rows call."""
    if not (0.0 < tol < math.inf):
        raise DomainError("tol must be positive and finite")
    values, abs_errors, stalled, evals = _adaptive_rows(
        lambda xs, rows: _evaluate(f, xs.ravel()).reshape(xs.shape),
        bounds[:-1], bounds[1:], [bounds.size - 1], tol)
    _raise_stalled(values, abs_errors, stalled, evals)
    return QuadratureResult(_pyval(values[0]), float(abs_errors[0]),
                            int(evals[0]))


def integrate_adaptive(f, lo, hi, tol=1e-10):
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
        Relative tolerance, positive and finite. No absolute floor applies,
        so the run is the same for f and c f at any scale c, down to the
        roundoff floor of eps times the integral of |f|. The first wave has
        eight equal panels; past _MAX_EVALS integrand evaluations the
        integral raises, with the best estimate attached to the error.

    Returns
    -------
    QuadratureResult
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError("integration bounds must be finite with lo < hi")
    return _integrate(f, np.linspace(float(lo), float(hi), 9), tol)


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
    return _integrate(mapped, bounds, tol)


def _saddle_setup(b, d, tol):
    """Every row's saddle contour, initial panels and truncation tail.

    The upper saddle of the phase is S = e^{i alpha}, cos alpha = -d/2. The
    contour parameter s runs over [h, 1] on the ray w = s e^{i alpha} and
    over [1, 1 + T] on the steepest-descent leg w = S + (s - 1) e^{i alpha/2}.
    Returns (alpha, h, tails, lo, hi, counts, trig): tails bounds each row's
    integral past 1 + T, lo/hi hold the panels of all rows, row after row
    and ascending within a row, counts each row's number, and trig the
    cosines and sines (cos alpha, sin alpha, cos alpha/2, sin alpha/2),
    each taken once, which the integrand reuses.
    """
    alpha = np.arccos(-0.5 * d)
    half = 0.5 * alpha
    trig = cos_a, sin_a, cos_h, sin_h = np.cos(alpha), np.sin(alpha), np.cos(half), np.sin(half)
    # Head radius: b |d| h + b h^2/2 = 3 bounds the series head's terms.
    h = np.minimum(6.0 / (b * np.abs(d) + np.sqrt(b * b * d * d + 6.0 * b)), 0.5)
    # On the descent leg the log-modulus of the integrand lies below its
    # value at S by at least (b/2) sin(alpha) t^2 + b sin(alpha/2) t
    # - b alpha/2; T is where that reaches L.
    L = max(30.0, -math.log(tol) + 12.0) + 0.5 * b * alpha
    p = b * sin_h
    T = 2.0 * L / (p + np.sqrt(p * p + 2.0 * b * sin_a * L))
    # Truncation tail bound: |f| at w = x + iy, the end of the descent leg,
    # over its decay rate there, Im(phi'(w) e^{i alpha/2}). ln|f| is the
    # real part of i b (w^2/2 + ln w + d w), -b (x y + arg w + d y).
    x = cos_a + T * cos_h
    y = sin_a + T * sin_h
    rate = b * (x * sin_h + y * cos_h + d * sin_h
                + (x * sin_h - y * cos_h) / (x * x + y * y))
    tails = np.exp(-b * (x * y + np.arctan2(y, x) + d * y)) / np.abs(rate)
    # Two geometric panels on the ray and three equal ones past the saddle.
    edges = np.column_stack([h, np.sqrt(h), np.ones_like(h),
                             1.0 + T[:, None] * (np.arange(1, 4) / 3.0)])
    counts = np.full(d.size, edges.shape[1] - 1)
    return alpha, h, tails, edges[:, :-1].ravel(), edges[:, 1:].ravel(), counts, trig


def _saddle_integrand(b, d, alpha, trig):
    """The contour's batch integrand g(ss, rows) for ``_adaptive_rows``.

    ``trig`` is ``_saddle_setup``'s (cos alpha, sin alpha, cos alpha/2,
    sin alpha/2). The value at s is exp(i b (w^2/2 + ln w + d w)) dw/ds,
    formed node by node as e^{decay + i phase} at w = x + iy, with decay =
    -b ((x y + arg w) + d y) and phase = b (((x - y)(x + y) + ln(x^2 +
    y^2))/2 + d x) plus the turn of dw/ds, in that order, run in place
    in six node-shaped buffers, so a call makes seven node arrays (the
    six and its result) where the expressions made about thirty.
    """
    # The initial panels meet at s = 1 and bisection never crosses it, so a
    # panel lies wholly on the ray (s < 1) or wholly on the descent leg
    # (s > 1), and its middle node tells which. Table row 2 row + piece
    # holds (b, -b, d, s0, x0, y0, dx, dy, turn) of that piece, with
    # w = x0 + i y0 + (s - s0)(dx + i dy) and dw/ds = e^{i turn}: on the
    # ray w = s e^{i alpha}, on the leg w = S + (s - 1) e^{i alpha/2}.
    cos_a, sin_a, cos_h, sin_h = trig
    zero, one = np.zeros_like(alpha), np.ones_like(alpha)
    pieces = np.array([b, -b, d, zero, zero, zero, cos_a, sin_a, alpha,
                       b, -b, d, one, cos_a, sin_a, cos_h, sin_h, 0.5 * alpha])
    pieces = pieces.reshape(2, 9, -1).transpose(1, 2, 0).reshape(9, -1)

    def g(ss, rows):
        # node-major, (15, panels): each piece's column broadcasts along a row
        ss = ss.T
        at = 2 * rows + (ss[7] > 1.0)
        bb, nb, dd, s0, x0, y0, dx, dy, turn = pieces.take(at, axis=1)
        t, x, y, p, q, r = (np.empty(ss.shape) for _ in range(6))
        np.subtract(ss, s0, out=t)
        np.multiply(t, dx, out=x)
        x += x0
        np.multiply(t, dy, out=y)
        y += y0
        # decay, in t
        np.multiply(x, y, out=t)
        t += np.arctan2(y, x, out=p)
        t += np.multiply(dd, y, out=p)
        t *= nb
        # phase, in p
        np.subtract(x, y, out=p)
        p *= np.add(x, y, out=q)
        np.multiply(x, x, out=q)
        q += np.multiply(y, y, out=r)
        p += np.log(q, out=q)
        p *= 0.5
        p += np.multiply(dd, x, out=q)
        p *= bb
        p += turn
        # e^{decay + i phase} by its modulus and angle, written into the
        # real and imaginary views of the result. The angle goes in as
        # e^{i phase} = ((1 - u^2) + 2 i u)/(1 + u^2), u = tan(phase/2):
        # numpy's float64 tan is vectorized where its cos and sin run
        # through scalar libm (numpy 2.4 on AVX-512: 10 us against 70 us
        # each on 4,725 nodes), so one tangent costs a fraction of the
        # pair. Each part is within about eps of the exact one at any
        # finite phase (no double lies within 4e-19 of an odd multiple of
        # pi/2, so |u| < 3e18 and u^2 stays finite), and the modulus
        # multiplies last, so a subnormal modulus is not divided into
        # deeper underflow.
        p *= 0.5
        u = np.tan(p, out=p)
        u2 = np.multiply(u, u, out=q)
        den = np.add(u2, 1.0, out=r)
        u += u
        u /= den
        np.subtract(1.0, u2, out=u2)
        u2 /= den
        mag = np.exp(t, out=t)
        out = np.empty(ss.shape[::-1], dtype=complex)
        np.multiply(mag, u2, out=out.real.T)
        np.multiply(mag, u, out=out.imag.T)
        return out

    return g


# 1/n for n = 2, ..., _HEAD_TERMS - 1 as complex 0-d arrays. numpy multiplies
# a complex array by a real scalar as by that scalar plus 0j, so these give
# the bits of `terms *= 1.0 / n` without converting a Python float each step.
_HEAD_INV = tuple(np.array(1.0 / n, dtype=complex) for n in range(2, _HEAD_TERMS))


def _series_head(b, d, alpha, h):
    """int_0^Z w^{ib} exp(i b (d w + w^2/2)) dw, Z = h e^{i alpha}, by its Taylor series.

    The integral is Z^{1+ib} sum_n t_n / (1+ib+n) with t_0 = 1 and
    n t_n = i b d Z t_{n-1} + i b Z^2 t_{n-2}. With A = b |d| h and
    B = b h^2, |t_n| is at most the coefficient m_n of e^{A u + B u^2/2},
    so the term moduli sum to at most e^{A + B/2} <= e^3. The dropped tail
    sum_{n >= N} m_n/(n+1), largest over the splits A + B/2 = 3 at A = 0,
    is 1.46e-18 at N = _HEAD_TERMS = 56, below _HEAD_TAIL |Z| and four
    orders under the roundoff the bound already carries. The error bound is
    the roundoff on the moduli, that tail, and the rounding of the
    exponents of Z^{1+ib}, which moves the value by up to eps b (alpha +
    |ln h|) each. The terms of _HEAD_BLOCK rows at a time
    form a (terms, rows) table by the recurrence (a block, not the whole
    call, so that a 4,096-row slice does not hold tables of megabytes),
    written step by step into the table's rows with one scratch row and
    the prepared reciprocals _HEAD_INV, and each row's weighted terms are
    summed down its column by one reduction of the table's real view,
    which adds them in term order, one at a time, as a running total would.
    Weights are taken once per distinct b, and complex products go through
    np.multiply, weight first, whose bits do not depend on where an element
    sits, so a row's value does not depend on the other rows or on its
    block. Returns (values, abs_errors).
    """
    Z = h * np.exp(1j * alpha)
    x, y = np.multiply(1j * b * d, Z), np.multiply(1j * b * Z, Z)
    bs, row_b = np.unique(b, return_inverse=True)
    w = 1.0 / (1.0 + 1j * bs + np.arange(_HEAD_TERMS)[:, None])
    total = np.empty_like(Z)
    for r in range(0, Z.size, _HEAD_BLOCK):
        rb = slice(r, r + _HEAD_BLOCK)
        xb, yb = x[rb], y[rb]
        terms = np.empty((_HEAD_TERMS, xb.size), dtype=complex)
        terms[0], terms[1] = 1.0, xb
        rows, scratch = list(terms), np.empty_like(xb)
        for t0, t1, t, inv in zip(rows, rows[1:], rows[2:], _HEAD_INV):
            np.multiply(xb, t1, t)
            np.add(t, np.multiply(yb, t0, scratch), t)
            np.multiply(t, inv, t)
        np.multiply(w[:, row_b[rb]], terms, out=terms)
        # down axis 0 the reduction adds whole rows in order, the bits of a
        # running total, without a table of partial sums
        total[rb] = np.add.reduce(terms.view(float), axis=0).view(complex)
    # Z^{1+ib} = h e^{-b alpha} e^{i (alpha + b ln h)}
    log_h = np.log(h)
    scale = h * np.exp(-b * alpha)
    value = np.multiply(scale * np.exp(1j * (alpha + b * log_h)), total)
    moduli = np.exp(b * (np.abs(d) * h + 0.5 * h * h)) * np.abs(w[0][row_b])
    err = (scale * (_HEAD_ROUNDOFF * _EPS * moduli + _HEAD_TAIL)
           + _EPS * (1.0 + 2.0 * b * (alpha + np.abs(log_h))) * np.abs(value))
    return value, err


def _oscillatory_rows(b, d, tol):
    """F(b, d) = int_0^inf exp(i b (w^2/2 + ln w + d w)) dw for every row at once.

    The rows, the elements of b and d broadcast together, share one
    adaptive run; each row keeps its own phase, saddle contour, panels,
    budget and truncation tail (``_saddle_setup``) and series head. The two
    legs of the contour are one adaptive row; the head [0, h e^{i alpha}]
    (where the log phase winds without end) is the convergent series of
    ``_series_head``. Each row's adaptive target is tol times its whole
    integral, legs plus head. Returns per-row 1-d arrays (values,
    abs_errors, evaluations); if a row stalls, the first one raises
    ``ConvergenceError`` with its leg result as ``best``, and a b past
    _B_MAX raises ``OverflowRangeError`` before any row runs.
    """
    _check_tol(tol)
    bd = np.empty((2,) + np.broadcast(b, d).shape)
    bd[0], bd[1] = b, d
    b, d = bd.reshape(2, -1)
    _check_phase(b, d)
    if not (b <= _B_MAX).all():
        raise OverflowRangeError(f"log_coeff {b[b > _B_MAX][0]:.6g} is past {_B_MAX:g}, "
                                 "where the contour's set-up overflows a double")
    alpha, h, tails, lo, hi, counts, trig = _saddle_setup(b, d, tol)
    heads, head_errs = _series_head(b, d, alpha, h)
    values, abs_errors, stalled, evals = _adaptive_rows(
        _saddle_integrand(b, d, alpha, trig), lo, hi, counts, tol, heads, _ABS_FLOOR)
    _raise_stalled(values, abs_errors, stalled, evals)
    values += heads
    abs_errors += head_errs
    abs_errors += tails
    if not (np.isfinite(values).all() and np.isfinite(abs_errors).all()):
        raise NonFiniteError("quadrature result is not finite")
    return values, abs_errors, evals


def integrate_oscillatory(log_coeff, shift, tol=1e-9):
    """Evaluate F(b, d) = int_0^inf exp(i b (w^2/2 + ln w + d w)) dw on its saddle contour.

    Parameters
    ----------
    log_coeff, shift : float
        Phase coefficients b and d, each taken through ``float()``, with
        b > 0 and d^2 < 4: the phase then has a complex pair of saddles on
        the unit circle, and the contour runs from 0 through the upper one
        and down its steepest-descent direction (module docstring). A phase
        a z^2 + b ln z + c z with a, b > 0 and c^2 < 8ab maps onto it:
        J(a, b, c) = rho e^{ib ln rho} F(b, c rho/b), rho = sqrt(b/2a).
        A b past _B_MAX (1e150) raises ``OverflowRangeError``.
    tol : float
        Relative tolerance target for the adaptive pass along the contour.

    Returns
    -------
    QuadratureResult
        Complex value with an absolute error estimate that includes the
        series head's bound and the truncation bound of the finite
        contour. For d > 0 the ray to the saddle cancels by up to
        e^{b/2}, and relative accuracy degrades like eps times that.
    """
    values, abs_errors, evals = _oscillatory_rows(float(log_coeff), [float(shift)], tol)
    return QuadratureResult(complex(values[0]), float(abs_errors[0]),
                            int(evals[0]))
