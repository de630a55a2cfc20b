"""Complex log-Gamma and the confluent hypergeometric function 1F1.

Both functions accept scalars or numpy arrays (broadcast together) and are
pure, so they are safe under any amount of concurrency.

``ln_gamma`` is a 15-term Lanczos approximation (Godfrey coefficient set,
g = 607/128) with reflection into the left half-plane; measured accuracy is
a few ulp relative to the scale of ln Gamma for |z| <= 100, far inside the
1e-12 contract. Its sum is one table of terms, added row after row by one
reduction; a 1-d array wholly in Re z >= 1/2 goes to it whole, with no
pole test or reflection.

``kummer_1f1`` sums the Taylor series directly, applying the Kummer
transform 1F1(a;b;x) = e^x 1F1(b-a;b;-x) when Re x < 0 so the summed
series always has non-negative real argument. It sums in blocks of 32
terms: one product accumulation of the ratios (a+n)x/((b+n)(n+1)) gives a
block's terms, in double and in long double alike and by the step
``_kummer_grid`` takes, and one cumulative sum, which adds each element's
terms in order, its partial sums. The stop rule is read off the block per
element, and each element settles at its own stop term, so it keeps the
bits it would have in a call of its own; a call makes one series pass in
double precision and at most one in long double. Term cancellation is
tracked per element; when the cancellation-amplified roundoff endangers
the 1e-10 contract, the affected elements are recomputed in extended
precision, and a convergence error is raised if even that cannot certify
the target, or if the series ran out of terms. Only ``kummer_1f1`` raises
it: the error names the elements it refused, and every other element of
its best estimate is the value its own call returns, so one call can sum
many independent series and drop only the refused ones.

The private ``_kummer_grid`` sums 1F1(a_r; b_r; c_r z_k) on a grid of rows
(a, b, c) and real columns z >= 0, as the closed form of ``spectra`` needs
it: two series per frequency, and a column per (cos(theta) - zeta)^2, in
[0, (1 + |zeta|)^2) (one per distinct cos^2(theta) at zeta = 0).
A row's coefficients D_n = (a)_n c^n/((b)_n n!) are shared by its columns,
so each block of terms is one product accumulation per row and one dot
product per cell against the powers z^n. Each (band of z, row) pair's
stop rule is kept in whole arrays that every block updates by masks, and
a cell adds a block's part only where its pair summed that block. A
cell's term count depends on its row and its dyadic band of z alone, so
it keeps its bits in any grid. Each cell is trusted by one rule: its
band top's terms bound its own within ``kummer_1f1``'s cancellation
limit and stop rule, or it is summed by ``kummer_1f1`` itself, which
keeps the long-double retry and the refusal in one place.
"""
from __future__ import annotations

import numpy as np

from .errors import ConvergenceError, OverflowRangeError, PoleError

__all__ = ["ln_gamma", "kummer_1f1"]

# Lanczos approximation, g = 607/128, 15 coefficients (Godfrey's set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array([
    0.99999999999999709182,
    57.156235665862923517, -59.597960355475491248, 14.136097974741747174,
    -0.49191381609762019978, 0.33994649984811888699e-4,
    0.46523628927048575665e-4, -0.98374475304879564677e-4,
    0.15808870322491248884e-3, -0.21026444172410488319e-3,
    0.21743961811521264320e-3, -0.16431810653676389022e-3,
    0.84418223983852743293e-4, -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
])
_LANCZOS_K = np.arange(1, _LANCZOS_C.size)[:, None]   # the k of C_k/(z - 1 + k)
_LN_SQRT_2PI = 0.9189385332046727417803297  # ln(2*pi)/2
_LN_2PI = 1.8378770664093454835606594

_SERIES_BUDGET = 10000  # hard cap on Taylor terms; exceeding it is an error
# Cancellation thresholds: roundoff grows like cancellation * machine-eps.
_CANCEL_RETRY = 2.0e5   # beyond this, float64 cannot certify 1e-10
# The roundoff, cancellation times eps, that the long-double retry may
# carry: 3e8 times x87's eps 2^-63, 3.3e-11.
_RETRY_ROUNDOFF = 3.0e8 * 2.0**-63


def _cancel_fail(eps):
    """The cancellation beyond which a retry whose precision is eps refuses.

    It is 3e8 where long double is x87's 80-bit format (eps 2^-63). Where
    long double is plain double, it falls below _CANCEL_RETRY, so every
    element the retry would sum again refuses instead; where it is IEEE
    quad (eps 2^-112) it is 1.7e23.
    """
    return _RETRY_ROUNDOFF / float(eps)


_CANCEL_FAIL = _cancel_fail(np.finfo(np.longdouble).eps)
_BLOCK = 32             # terms per block of the series sums
_LOG_MAX = float(np.log(np.finfo(np.float64).max))
# ``_kummer_grid``'s logarithms of its stop tolerance, 0.1 eps, of
# _CANCEL_RETRY and of 2, whose powers are its bands' tops
_LOG_GRID_TOL = np.log(0.1 * np.finfo(np.float64).eps)
_LOG_RETRY = np.log(_CANCEL_RETRY)
_LOG_2 = np.log(2.0)


def _is_nonpositive_integer(z: np.ndarray) -> np.ndarray:
    return (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))


def _ln_gamma_right(z: np.ndarray) -> np.ndarray:
    """ln Gamma on a 1-d array with Re z >= 0.5.

    The Lanczos sum C_0 + sum_k C_k/(z - 1 + k) is a table with a row per
    term, summed by one reduction down the rows of its float view: that
    adds whole rows in order, C_0 first, as a term-by-term loop does.
    """
    zz = z - 1.0
    t = zz + _LANCZOS_G + 0.5
    terms = np.empty((_LANCZOS_C.size, z.size), dtype=complex)
    terms[0] = _LANCZOS_C[0]
    np.divide(_LANCZOS_C[1:, None], zz + _LANCZOS_K, out=terms[1:])
    s = np.add.reduce(terms.view(float), axis=0).view(complex)
    return _LN_SQRT_2PI + (zz + 0.5) * np.log(t) - t + np.log(s)


def ln_gamma(z):
    """Principal branch of ln Gamma(z) for complex z.

    Parameters
    ----------
    z : complex or array_like of complex
        Argument; must not be zero or a negative integer.

    Returns
    -------
    complex or ndarray
        ln Gamma(z) on the principal branch, matching the input shape.

    Raises
    ------
    PoleError
        If any element of z is a non-positive integer.
    OverflowRangeError
        If the result is not finite.
    """
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    right = arr.real >= 0.5
    if arr.ndim == 1 and right.all():
        # no pole lies in the right half-plane, and no element is reflected
        out = _ln_gamma_right(arr)
    else:
        pole = _is_nonpositive_integer(arr)
        if pole.any():
            raise PoleError(f"ln_gamma pole at z = {arr[pole][0]}")
        out = np.empty(arr.shape, dtype=complex)
        out[right] = _ln_gamma_right(arr[right])
        left = ~right
        if left.any():
            w = arr[left]
            # Reflection, kept continuous on the principal branch: for Im w >= 0,
            #   ln Gamma(w) = ln(2*pi) - ln Gamma(1-w) - i*pi/2 + i*pi*w
            #                 - Log(1 - exp(2*pi*i*w));
            # the lower half-plane follows by conjugation symmetry.
            upper = w.imag >= 0.0
            wu = np.where(upper, w, np.conj(w))
            ref = (_LN_2PI - _ln_gamma_right(1.0 - wu)
                   - 1j * np.pi / 2 + 1j * np.pi * wu
                   - np.log(1.0 - np.exp(2j * np.pi * wu)))
            out[left] = np.where(upper, ref, np.conj(ref))

    if not np.isfinite(out).all():
        raise OverflowRangeError("ln_gamma produced a non-finite value")
    return complex(out[0]) if scalar else out


def _ratio_terms(first, a, b, x, n):
    """``first`` and the next len(n) terms of each series sum_k (a)_k x^k/((b)_k k!).

    n is a column of consecutive term indices; the term after index n is the
    one at n times (a + n) x/((b + n)(n + 1)), so the rows are one product
    accumulation of ``first`` and these ratios. Named ufuncs: an operator
    may reuse a temporary in place with its factors swapped, which moves a
    complex product's last bits."""
    ratio = np.divide(np.multiply(a + n, x), np.multiply(b + n, n + 1))
    return np.multiply.accumulate(np.concatenate((first[None], ratio)), axis=0)


def _taylor_1f1(a, b, x, dtype=complex):
    """Direct Taylor sum of 1F1(a;b;x), no transform.

    Returns (sum, cancellation, unconverged), elementwise: cancellation =
    max |term| / |sum|, and unconverged marks the elements still summing
    when the _SERIES_BUDGET terms run out, whose sums are partial and
    whose cancellation is inf. All inputs must be broadcast to a common
    1-d shape already. tol for the stop rule is 0.1 of the dtype's
    epsilon; stopping requires three consecutive small terms so
    alternating near-zeros cannot fool it.

    The terms come in blocks of _BLOCK (the last one cut at the budget), by
    ``_ratio_terms`` in either dtype, and the partial sums by one sequential
    cumulative sum, so an element adds its own terms in order. The stop rule's
    runs of small terms carry over from block to block; an element settles at
    its own stop term, with the sum and peak of the terms up to it, and leaves
    the working arrays, so its bits depend on it alone. A term or sum whose
    magnitude leaves the double range at or before the element's stop raises
    ``OverflowRangeError``; later ones, which a term loop would never compute,
    are ignored.
    """
    tol = 0.1 * np.finfo(dtype).eps
    a, b, x = (v.astype(dtype) for v in (a, b, x))
    total = np.ones(x.shape, dtype=dtype)
    peak = np.ones(x.shape)
    live = np.arange(x.size)
    # each live element's last term, sum, peak term and closing small run
    term, s, maxmag = total.copy(), total.copy(), peak.copy()
    runs = np.zeros(x.shape, dtype=np.int64)
    with np.errstate(all="ignore"):
        for start in range(0, _SERIES_BUDGET, _BLOCK):
            # a whole block, then cut at the budget: numpy forms a 2-row
            # accumulation's complex products differently from a longer one's
            n = np.arange(start, start + _BLOCK)[:, None]
            rows = _ratio_terms(term, a, b, x, n)[:_SERIES_BUDGET - start + 1]
            term, terms = rows[-1], rows[1:]
            rows[0] = s
            sums = np.cumsum(rows, axis=0)[1:]
            tmag = np.abs(terms).astype(np.float64, copy=False)
            smag = np.abs(sums).astype(np.float64, copy=False)
            small = np.concatenate(((runs >= 2)[None], (runs >= 1)[None],
                                    tmag <= tol * smag))
            three = small[:-2] & small[1:-1] & small[2:]
            done = three.any(axis=0)
            end = np.where(done, three.argmax(axis=0), terms.shape[0] - 1)
            counted = np.arange(terms.shape[0])[:, None] <= end
            if not np.all(np.isfinite(tmag) & np.isfinite(smag) | ~counted):
                raise OverflowRangeError("1F1 series overflowed the floating range")
            s = sums[end, np.arange(live.size)]
            maxmag = np.maximum(maxmag, np.where(counted, tmag, 0.0).max(axis=0))
            runs = small[-1] * (1 + small[-2])
            total[live[done]] = s[done]
            peak[live[done]] = maxmag[done]
            live, a, b, x, term, s, maxmag, runs = (
                v[~done] for v in (live, a, b, x, term, s, maxmag, runs))
            if not live.size:
                break
    # the elements still summing ran out of terms
    total[live] = s
    unconverged = np.zeros(total.shape, dtype=bool)
    unconverged[live] = True
    smag = np.abs(total).astype(np.float64)
    cancel = np.where(smag > 0.0, peak / np.where(smag > 0, smag, 1.0), np.inf)
    cancel[unconverged] = np.inf
    return total, cancel, unconverged


def kummer_1f1(a, b, x):
    """Confluent hypergeometric function 1F1(a; b; x) for complex arguments.

    Parameters
    ----------
    a, b, x : complex or array_like of complex
        Broadcast together; b must not be zero or a negative integer.

    Returns
    -------
    complex or ndarray
        1F1(a;b;x), accurate to 1e-10 relative wherever series cancellation
        permits that to be certified (it always does for the pure-imaginary
        arguments of the radiation spectrum with |x| <~ 30).

    Raises
    ------
    PoleError
        If b is a non-positive integer.
    ConvergenceError
        If the iteration budget is exhausted, or if cancellation exceeds
        what extended precision can certify. The best estimate, shaped as
        the result, is attached as ``best``, and ``failed``, shaped alike,
        marks exactly the elements whose own one-element call would
        refuse; every unmarked element of ``best`` is the value its own
        call returns, bit for bit.
    OverflowRangeError
        If intermediate terms leave the representable range.
    """
    a_arr, b_arr, x_arr = np.broadcast_arrays(*(np.asarray(v, dtype=complex)
                                                 for v in (a, b, x)))
    scalar = a_arr.ndim == 0
    shape = x_arr.shape
    a_flat, b_flat, x_flat = (np.ravel(v) for v in (a_arr, b_arr, x_arr))

    if np.any(_is_nonpositive_integer(b_flat)):
        bad = b_flat[_is_nonpositive_integer(b_flat)][0]
        raise PoleError(f"1F1 undefined at non-positive integer b = {bad}")

    # Kummer transform for Re x < 0: the summed series then always has
    # Re x >= 0, and |e^x| <= 1 so the prefactor cannot overflow. e^x is
    # taken only where it is used: at large positive x it would overflow.
    flip = x_flat.real < 0.0
    as_, xs = a_flat.copy(), x_flat.copy()
    as_[flip] = b_flat[flip] - a_flat[flip]
    xs[flip] = -x_flat[flip]
    prefac = np.ones(x_flat.shape, dtype=complex)
    prefac[flip] = np.exp(x_flat[flip])

    # Double precision first; the elements that cancel too far for it are
    # summed again in long double, and those of them that still cancel
    # beyond _CANCEL_FAIL, or any element that ran out of terms, are
    # refused. An element the retry did not sum again is certified by
    # _CANCEL_RETRY alone, also where _CANCEL_FAIL lies below it.
    s, cancel, unconverged = _taylor_1f1(as_, b_flat, xs)
    retry = (cancel > _CANCEL_RETRY) & ~unconverged
    if np.any(retry):
        s[retry], cancel[retry], unconverged[retry] = _taylor_1f1(
            as_[retry], b_flat[retry], xs[retry], np.clongdouble)
    failed = unconverged | (retry & (cancel > _CANCEL_FAIL))
    out = prefac * s
    out = complex(out[0]) if scalar else out.reshape(shape)
    if np.any(failed):
        reasons = []
        if np.any(unconverged):
            reasons.append(f"series did not converge within {_SERIES_BUDGET} terms")
        cancelled = failed & ~unconverged
        if np.any(cancelled):
            reasons.append("cancellation too severe to certify 1e-10 relative "
                           f"accuracy (max term / |sum| = {np.max(cancel[cancelled]):.2e})")
        raise ConvergenceError(
            f"1F1 {'; '.join(reasons)}: {np.count_nonzero(failed)} of "
            f"{failed.size} elements refused",
            best=out, failed=bool(failed[0]) if scalar else failed.reshape(shape))
    return out


def _kummer_grid(a, b, c, z):
    """1F1(a_r; b_r; c_r z_k) on the grid rows x columns, each cell to its own bits.

    a, b and c are 1-d arrays with one element per row, no Re c is
    negative (so no cell takes the Kummer transform), and z is a float 1-d
    array of columns z >= 0 (the closed form's (cos(theta) - zeta)^2, in
    [0, (1 + |zeta|)^2)); the result, complex, has shape (a.size, z.size).
    Its temporaries hold at most _BLOCK elements per cell. A row's series
    is sum_n D_n z^n, with D_n = (a)_n c^n/((b)_n n!) shared by all its
    columns, so each block of _BLOCK terms takes every row's D_n by one
    product accumulation and every cell's part by one dot product of
    length _BLOCK against its column's powers z^n. Every pair sums the
    first block, whose values set the state of each (band, row) pair --
    whether it sums, whether it settled and the ln of its top's largest
    and last three terms -- and every cell's sum. Each later block updates
    that state, whole (band, row) arrays, by masks, with no gathers of the
    pairs still summing, and a cell adds the block's part only where its
    pair summed the block. A cell thus adds its own parts in order, and
    its sum does not depend on how many terms any other cell takes. The
    blocks end when no pair sums.

    A cell's term count depends on its row and its column's dyadic band of
    z alone, so its bits depend only on its row and its z. A band (2^(e-1),
    2^e] is read at its top 2^e (z = 0 is a band of its own), whose terms
    |D_n| 2^(en) bound those of every cell in it; a (row, band) pair sums
    blocks until one ends with three terms at the top below 0.1
    eps/_CANCEL_RETRY of the top's largest. The top's largest term and
    the largest of its last three then bound the cell's own, and
    ``kummer_1f1``'s limits are checked on these bounds alone: a cell
    whose pair did not settle (its terms left the double range or the
    _SERIES_BUDGET terms), whose sum is not finite, whose top's largest
    term is above _CANCEL_RETRY times its sum, or whose top's last three
    terms are not all within 0.1 eps of its sum, is handed to
    ``kummer_1f1`` with x = c_r z_k, which retries it in long double or
    refuses it, and then carries that call's bits. Raises what
    ``kummer_1f1`` raises; a row whose b is a pole has no finite cell, and
    ``kummer_1f1`` raises ``PoleError`` for it.
    """
    frac, exp = np.frexp(z)
    exp = np.where(z > 0.0, exp - (frac == 0.5), -1100)   # 2^-1100 rounds to 0
    tops, band = np.unique(exp, return_inverse=True)
    log_top = tops * _LOG_2
    j = np.arange(_BLOCK)[:, None]
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        powers = z[:, None] ** j.T
        # The first block: every (band, row) pair sums it, so its own values
        # are the pairs' state and every cell's sum (adding that part to
        # zeros would change no bit: a dot product's sum starts from +0, so
        # it is never -0).
        d = _ratio_terms(np.ones(a.size, dtype=complex), a, b, c, j)
        coef, d = d[-1], d[:-1]                         # D_n of the next block
        # the band tops' terms, (term, band, row), ln of the largest and of
        # the largest of the last three, and the pairs' stop rule
        f = np.log(np.abs(d))[:, None, :] + (j * log_top)[..., None]
        top_peak, top_last = f.max(axis=0), f[-3:].max(axis=0)
        settled = top_last <= top_peak + _LOG_GRID_TOL - _LOG_RETRY
        total = np.vecdot(powers.astype(complex), np.ascontiguousarray(d.T)[:, None])
        summing = ~settled & (top_peak <= _LOG_MAX)
        for start in range(_BLOCK, _SERIES_BUDGET, _BLOCK):
            if not summing.any():
                break
            n = start + j
            d = _ratio_terms(coef, a, b, c, n)
            coef, d = d[-1], d[:-1]
            f = np.log(np.abs(d))[:, None, :] + (n * log_top)[..., None]
            peak, last = np.maximum(top_peak, f.max(axis=0)), f[-3:].max(axis=0)
            top_peak = np.where(summing, peak, top_peak)
            top_last = np.where(summing, last, top_last)
            stops = last <= peak + _LOG_GRID_TOL - _LOG_RETRY
            settled |= summing & stops
            # every cell's part; the cells of the pairs that summed add it
            part = np.vecdot((powers * z[:, None] ** start).astype(complex),
                             np.ascontiguousarray(d.T)[:, None])
            total = np.where(summing.take(band, axis=0).T, np.add(total, part), total)
            summing &= ~stops & (peak <= _LOG_MAX)
        log_size = np.log(np.abs(total))
        # the pairs' state at every cell, gathered in one pass (settled as 1.0)
        peak_at, last_at, settled_at = np.array(
            (top_peak, top_last, settled)).take(band, axis=1).mT
        ok = ((settled_at == 1.0) & np.isfinite(total)
              & (peak_at <= _LOG_RETRY + log_size)
              & (last_at <= _LOG_GRID_TOL + log_size))
    if not ok.all():
        i, k = np.nonzero(~ok)
        total[i, k] = kummer_1f1(a[i], b[i], c[i] * z[k])
    return total
