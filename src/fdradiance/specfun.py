"""Complex log-Gamma and the confluent hypergeometric function 1F1.

Both functions accept scalars or numpy arrays (broadcast together) and are
pure, so they are safe under any amount of concurrency.

``ln_gamma`` is a 15-term Lanczos approximation (Godfrey coefficient set,
g = 607/128) with reflection into the left half-plane; measured accuracy is
a few ulp relative to the scale of ln Gamma for |z| <= 100, far inside the
1e-12 contract.

``kummer_1f1`` sums the Taylor series directly, applying the Kummer
transform 1F1(a;b;x) = e^x 1F1(b-a;b;-x) when Re x < 0 so the summed series
always has non-negative real argument. An element that meets its stop
rule is frozen: its later terms are exactly 0, so its sum keeps the bits
it would have in a call of its own. The working arrays are compacted to
the elements still summing only once at least half of them are frozen,
so a term costs little more than the live elements' arithmetic and the
re-indexing stays rare. Each element's sum is written by index where it
settles, and a mask marks the elements that ran out of terms, so a call
makes one series pass in double precision and at most one in long
double. Term cancellation is tracked per element; when the
cancellation-amplified roundoff endangers the 1e-10 contract, the
affected elements are recomputed in extended precision, and a
convergence error is raised if even that cannot certify the target, or
if the series ran out of terms. Only ``kummer_1f1`` raises it: the error
names the elements it refused, and every other element of its best
estimate is the value its own call returns, so one call can sum many
independent series and drop only the refused ones.
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
_LN_SQRT_2PI = 0.9189385332046727417803297  # ln(2*pi)/2
_LN_2PI = 1.8378770664093454835606594

_SERIES_BUDGET = 10000  # hard cap on Taylor terms; exceeding it is an error
# Cancellation thresholds: roundoff grows like cancellation * machine-eps.
_CANCEL_RETRY = 2.0e5   # beyond this, float64 cannot certify 1e-10
_CANCEL_FAIL = 3.0e8    # beyond this, even 80-bit floats cannot


def _is_nonpositive_integer(z: np.ndarray) -> np.ndarray:
    return (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))


def _ln_gamma_right(z: np.ndarray) -> np.ndarray:
    # Valid for Re z >= 0.5.
    zz = z - 1.0
    t = zz + _LANCZOS_G + 0.5
    s = np.full(z.shape, _LANCZOS_C[0], dtype=complex)
    for k in range(1, len(_LANCZOS_C)):
        s = s + _LANCZOS_C[k] / (zz + k)
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

    if np.any(_is_nonpositive_integer(arr)):
        bad = arr[_is_nonpositive_integer(arr)][0]
        raise PoleError(f"ln_gamma pole at z = {bad}")

    out = np.empty(arr.shape, dtype=complex)
    right = arr.real >= 0.5
    if np.any(right):
        out[right] = _ln_gamma_right(arr[right])
    left = ~right
    if np.any(left):
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

    if not np.all(np.isfinite(out)):
        raise OverflowRangeError("ln_gamma produced a non-finite value")
    return complex(out[0]) if scalar else out


def _taylor_1f1(a, b, x, dtype=complex):
    """Direct Taylor sum of 1F1(a;b;x), no transform.

    Returns (sum, cancellation, unconverged), elementwise: cancellation =
    max |term| / |sum|, and unconverged marks the elements still summing
    when the _SERIES_BUDGET terms run out, whose sums are partial and
    whose cancellation is inf. All inputs must be broadcast to a common
    1-d shape already. tol for the stop rule is tied to the dtype's
    epsilon; stopping requires three consecutive small terms so
    alternating near-zeros cannot fool it. An element that meets the rule
    is frozen: its term is set to exactly 0, so its sum and peak stay as
    they are and it keeps meeting the rule. The working arrays drop the
    frozen elements once they are at least half of them, and each
    element's sum and peak are written where it settles; an element's
    arithmetic does not depend on the others.
    The first term or sum that overflows raises ``OverflowRangeError``.
    """
    real = np.float64 if dtype == complex else np.longdouble
    tol = 0.1 * np.finfo(real).eps
    a = a.astype(dtype)
    b = b.astype(dtype)
    x = x.astype(dtype)
    total = np.ones(x.shape, dtype=dtype)
    peak = np.ones(x.shape, dtype=np.float64)
    live = np.arange(x.size)
    s = np.ones(x.shape, dtype=dtype)
    term = np.ones(x.shape, dtype=dtype)
    maxmag = np.ones(x.shape, dtype=np.float64)
    small_runs = np.zeros(x.shape, dtype=np.int64)
    frozen = 0
    try:
        with np.errstate(over="raise"):
            for n in range(_SERIES_BUDGET):
                # Named ufuncs fix each product's factor order: numpy may
                # reuse an operator's temporary in place on large arrays,
                # which swaps the factors of a complex product and changes
                # its last bits. numpy divides a complex by n + 1 as the
                # product with the reciprocal 1/(n + 1) in the dtype's own
                # precision, so that product is used.
                term = np.multiply(np.divide(np.multiply(term, a + n), b + n), x)
                term = np.multiply(term, real(1) / (n + 1))
                s = s + term
                tmag = np.abs(term).astype(np.float64, copy=False)
                maxmag = np.maximum(maxmag, tmag)
                small = tmag <= tol * np.abs(s).astype(np.float64, copy=False)
                small_runs += 1
                small_runs *= small
                done = small_runs >= 3
                count = np.count_nonzero(done)
                if count == frozen:
                    continue
                # A finished element is frozen: its terms are exactly 0 from
                # now on, so its sum and peak stay as they are and it stays done.
                term[done] = 0.0
                frozen = count
                if 2 * frozen < live.size:
                    continue
                total[live[done]] = s[done]
                peak[live[done]] = maxmag[done]
                keep = ~done
                live, a, b, x, s, term, maxmag, small_runs = (
                    v[keep] for v in (live, a, b, x, s, term, maxmag, small_runs))
                frozen = 0
                if not live.size:
                    break
    except FloatingPointError:
        s = np.inf     # the overflowed elements settle as inf, refused below
    # The elements still in the arrays, frozen or not, settle here.
    total[live] = s
    peak[live] = maxmag
    if not np.all(np.isfinite(total.astype(complex))):
        raise OverflowRangeError("1F1 series overflowed the floating range")
    unconverged = np.zeros(total.shape, dtype=bool)
    unconverged[live] = small_runs < 3
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
    a_arr, b_arr, x_arr = np.broadcast_arrays(
        np.asarray(a, dtype=complex),
        np.asarray(b, dtype=complex),
        np.asarray(x, dtype=complex),
    )
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
    # summed again in long double, and those that still cancel beyond
    # _CANCEL_FAIL, or ran out of terms, are refused.
    s, cancel, unconverged = _taylor_1f1(as_, b_flat, xs)
    retry = (cancel > _CANCEL_RETRY) & ~unconverged
    if np.any(retry):
        s[retry], cancel[retry], unconverged[retry] = _taylor_1f1(
            as_[retry], b_flat[retry], xs[retry], np.clongdouble)
    failed = cancel > _CANCEL_FAIL
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
