"""Log-gamma and confluent-series checks against independent references.

Frozen constants come from 60-digit mpmath (see oracles.py); none were
copied from the implementation.
"""
import json
import warnings

import numpy as np
import pytest

from fdradiance import specfun
from fdradiance.errors import ConvergenceError, OverflowRangeError, PoleError
from fdradiance.specfun import _taylor_1f1, kummer_1f1, ln_gamma

from oracles import hyp1f1_series, hyp1f1_series_peak
from regenerate_oracle_values import PATH, unpair


def rel(got, want):
    return abs(got - want) / abs(want)


def spread_series(seed):
    """The closed form's two series at 400 seeded (y, u^2), y up to 16, with
    x = -i|x| below |x| = 6: stop terms from a few to hundreds."""
    rng = np.random.default_rng(seed)
    y = rng.uniform(0.01, 16.0, 400)
    x = 1j * y * rng.uniform(-1.0, 1.0, 400) ** 2
    x = np.where(np.abs(x) < 6.0, -x, x)
    a = np.where(rng.random(400) < 0.5, 0.5, 1.0) - 1j * y
    b = np.where(a.real == 0.5, 0.5, 1.5) + 0j
    return a, b, x


def term_loop(a, b, x, dtype):
    """(sum, cancellation, terms summed) of each series, term by term.

    Every element advances by the ratio (a + n) x/((b + n)(n + 1)) until
    the slowest has met the stop rule, the finished ones masked.
    """
    tol = 0.1 * np.finfo(dtype).eps
    a, b, x = a.astype(dtype), b.astype(dtype), x.astype(dtype)
    s = np.ones(x.shape, dtype=dtype)
    term = np.ones(x.shape, dtype=dtype)
    maxmag = np.ones(x.shape)
    runs = np.zeros(x.shape, dtype=np.int64)
    stops = np.zeros(x.shape, dtype=np.int64)
    active = np.ones(x.shape, dtype=bool)
    for n in range(specfun._SERIES_BUDGET):
        ratio = np.divide(np.multiply(a + n, x), np.multiply(b + n, n + 1))
        # np.multiply.accumulate forms (p + iq)(r + is) as
        # (pr - qs) + i(ps + qr), with no fused multiply-add
        step = np.empty_like(term)
        step.real = term.real * ratio.real - term.imag * ratio.imag
        step.imag = term.real * ratio.imag + term.imag * ratio.real
        term = np.where(active, step, term)
        s = np.where(active, s + term, s)
        stops += active
        tmag = np.abs(term).astype(np.float64)
        maxmag = np.where(active, np.maximum(maxmag, tmag), maxmag)
        small = tmag <= tol * np.abs(s).astype(np.float64)
        runs = np.where(active & small, runs + 1, 0)
        active = active & (runs < 3)
        if not active.any():
            return s, maxmag / np.abs(s).astype(np.float64), stops
    raise AssertionError("reference did not converge")


def lanczos_loop(z):
    """ln Gamma for Re z >= 0.5, its Lanczos sum added one term at a time."""
    zz = z - 1.0
    t = zz + specfun._LANCZOS_G + 0.5
    s = np.full(z.shape, specfun._LANCZOS_C[0], dtype=complex)
    for k in range(1, len(specfun._LANCZOS_C)):
        s = s + specfun._LANCZOS_C[k] / (zz + k)
    return specfun._LN_SQRT_2PI + (zz + 0.5) * np.log(t) - t + np.log(s)


def compacting_grid(a, b, c, z):
    """``_kummer_grid`` with its (band, row) state compacted to the live
    rows and summing bands every block, by index gathers and scatters, and
    the parts added only to the cells of the bands that summed."""
    log_tol = np.log(0.1 * np.finfo(np.float64).eps)
    log_retry = np.log(specfun._CANCEL_RETRY)
    frac, exp = np.frexp(z)
    exp = np.where(z > 0.0, exp - (frac == 0.5), -1100)
    tops, band = np.unique(exp, return_inverse=True)
    log_top = tops * np.log(2.0)
    pairs = (tops.size, a.size)
    summing, settled = np.ones(pairs, dtype=bool), np.zeros(pairs, dtype=bool)
    top_peak, top_last = np.full((2, *pairs), -np.inf)
    total = np.zeros((a.size, z.size), dtype=complex)
    coef = np.ones(a.size, dtype=complex)
    with np.errstate(over="ignore", under="ignore", invalid="ignore", divide="ignore"):
        powers = z[:, None] ** np.arange(specfun._BLOCK)
        for start in range(0, specfun._SERIES_BUDGET, specfun._BLOCK):
            live = np.flatnonzero(summing.any(axis=0))
            if not live.size:
                break
            kl = np.flatnonzero(summing[:, live].any(axis=1))
            sub = np.ix_(kl, live)
            n = np.arange(start, start + specfun._BLOCK)[:, None]
            d = specfun._ratio_terms(coef[live], a[live], b[live], c[live], n)
            coef[live], d = d[-1], d[:-1]
            f = np.log(np.abs(d))[:, None, :] + (n * log_top[kl])[..., None]
            was = summing[sub]
            peak, last = np.maximum(top_peak[sub], f.max(axis=0)), f[-3:].max(axis=0)
            top_peak[sub] = np.where(was, peak, top_peak[sub])
            top_last[sub] = np.where(was, last, top_last[sub])
            stops = last <= peak + log_tol - log_retry
            settled[sub] = settled[sub] | (was & stops)
            summing[sub] = was & ~stops & (peak <= specfun._LOG_MAX)
            adds = np.zeros((tops.size, live.size), dtype=bool)
            adds[kl] = was
            ks = np.flatnonzero(adds.any(axis=1)[band])
            scaled = powers[ks] * z[ks, None] ** start
            part = np.vecdot(scaled.astype(complex), np.ascontiguousarray(d.T)[:, None])
            ix = np.ix_(live, ks)
            before = total[ix]
            total[ix] = np.where(adds[band[ks]].T, np.add(before, part), before)
        log_size = np.log(np.abs(total))
        ok = (settled[band].T & np.isfinite(total)
              & (top_peak[band].T <= log_retry + log_size)
              & (top_last[band].T <= log_tol + log_size))
    if not ok.all():
        i, k = np.nonzero(~ok)
        total[i, k] = kummer_1f1(a[i], b[i], c[i] * z[k])
    return total


def closed_form_rows(ys):
    """The closed form's two series, M(1/2 - iy; 1/2; iy z) and M(1 - iy;
    3/2; iy z), a row per (series, y), with b real as the closed form takes it."""
    iy = 1j * np.concatenate([ys, ys])
    return (np.concatenate([0.5 - 1j * ys, 1.0 - 1j * ys]),
            np.repeat([0.5, 1.5], ys.size), iy)


def cc_squares(order):
    """The distinct u^2 of the Clenshaw-Curtis nodes of ``order``, as the
    closed form's grid columns take them."""
    return np.unique(np.sin(np.pi * (order - 2 * np.arange(order + 1)) / (2 * order)) ** 2)


def shifted_squares(order, zeta):
    """The distinct (u - zeta)^2 of the lit Clenshaw-Curtis nodes of
    ``order`` (the poles u = +-1 are dark), as ``energy_spectrum``'s closed
    rows take them off zeta = 0: columns in [0, (1 + |zeta|)^2)."""
    us = np.sin(np.pi * (order - 2 * np.arange(order + 1)) / (2 * order))[1:-1]
    return np.unique((us - zeta) ** 2)


def closed_row_ys(zeta, size):
    """``size`` values of y = omega/kappa, geometric from 0.01 up to the
    last closed row at zeta, X = y (1 + |zeta|)^2 = 14."""
    return np.geomspace(0.01, 14.0 / (1.0 + abs(zeta)) ** 2, size)


class TestLnGamma:
    @pytest.mark.parametrize("size", [*range(1, 34), 63, 64, 65, 255, 256, 257, 511, 1000])
    def test_lanczos_sum_adds_its_terms_in_order(self, size, monkeypatch):
        # the one-reduction Lanczos sum gives the bits of the term-by-term
        # loop on both half-planes, the left one reflected into the right
        # (a one-element call on the left, longer ones on alternate sides)
        rng = np.random.default_rng(size)
        sign = np.where(np.arange(size) % 2, 1.0, -1.0)
        z = sign * rng.uniform(0.5, 40.0, size) + 1j * rng.uniform(-60.0, 60.0, size)
        got = ln_gamma(z)
        monkeypatch.setattr(specfun, "_ln_gamma_right", lanczos_loop)
        assert np.array_equal(got.view(float), ln_gamma(z).view(float))

    @pytest.mark.parametrize("size", [*range(1, 34), 63, 64, 65, 257])
    def test_right_half_plane_array_keeps_the_loops_bits(self, size, monkeypatch):
        # an array wholly in Re z >= 0.5, as the closed form's 1/2 - iy and
        # 1 - iy are, goes to the Lanczos sum whole, with no pole test, and
        # keeps the bits of the term-by-term loop; every third element lies
        # on Re z = 1/2
        rng = np.random.default_rng(1000 + size)
        z = rng.uniform(0.5, 40.0, size) + 1j * rng.uniform(-60.0, 60.0, size)
        z[::3] = 0.5 + 1j * z[::3].imag

        def no_pole_test(z):
            raise AssertionError("a right-half-plane array took the pole test")

        monkeypatch.setattr(specfun, "_is_nonpositive_integer", no_pole_test)
        assert np.array_equal(ln_gamma(z).view(float), lanczos_loop(z).view(float))

    def test_one_element_off_the_right_half_plane(self):
        # one left-half-plane element sends the array to the general path:
        # it is reflected (the frozen value below), and every element keeps
        # the bits of its own one-element call; a pole among right-half-plane
        # elements raises
        rng = np.random.default_rng(1033)
        z = rng.uniform(0.5, 40.0, 65) + 1j * rng.uniform(-60.0, 60.0, 65)
        z[40] = -3.2 + 1.4j
        got = ln_gamma(z)
        assert rel(got[40], -4.351362281868092409329 - 9.75661545520525021763j) < 1e-13
        assert np.array_equal(got.view(float),
                              np.array([ln_gamma(v) for v in z]).view(float))
        z[40] = -2.0
        with pytest.raises(PoleError):
            ln_gamma(z)

    def test_frozen_values(self):
        assert rel(ln_gamma(5.5), 3.957813967618716293877) < 1e-14
        assert rel(ln_gamma(0.5 + 3j),
                   -3.793450450436223173351 + 0.309819271086439166056j) < 1e-14
        assert rel(ln_gamma(50 + 70j),
                   104.8847959036124457087 + 288.8745151048863344404j) < 1e-14
        # left half plane goes through the reflection branch
        assert rel(ln_gamma(-3.2 + 1.4j),
                   -4.351362281868092409329 - 9.75661545520525021763j) < 1e-13

    def test_negative_real_axis(self):
        # compare through exp: branch conventions drop out
        assert rel(np.exp(ln_gamma(-2.5)), -0.9453087204829418812257) < 1e-13

    def test_recurrence(self):
        rng = np.random.default_rng(1891)
        z = rng.uniform(0.5, 20, 64) + 1j * rng.uniform(-20, 20, 64)
        lhs = ln_gamma(z + 1)
        rhs = ln_gamma(z) + np.log(z)
        assert np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(lhs))) < 1e-13

    def test_reflection_magnitude(self):
        # |Gamma(1/2 + iy)|^2 = pi / cosh(pi y)
        for y, want in ((1.0, 0.2710149513994183478866),
                        (2.0, 0.01173344781531739507014)):
            got = np.exp(2 * ln_gamma(0.5 + 1j * y).real)
            assert rel(got, want) < 1e-13

    def test_conjugation(self):
        z = 2.3 + 4.1j
        assert ln_gamma(np.conj(z)) == np.conj(ln_gamma(z))

    def test_vectorized_shape(self):
        z = np.array([[1.0, 2.0], [0.5 + 1j, 5.5]])
        out = ln_gamma(z)
        assert out.shape == z.shape
        assert abs(out[0, 0]) < 1e-15 and abs(out[0, 1]) < 1e-15

    def test_poles_raise(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                ln_gamma(z)

    def test_pole_in_array_raises(self):
        with pytest.raises(PoleError):
            ln_gamma(np.array([1.5, -2.0]))


class TestKummer:
    def test_frozen_values(self):
        cases = [
            ((0.5 - 1j, 0.5, 0.25j),
             1.503488265758801966961764 + 0.3366112431705903130780816j),
            # negative real part exercises the transform branch
            ((0.75 + 0.25j, 1.5 - 0.5j, -6 + 2j),
             0.184697804987783261646487 - 0.162637269084947557599084j),
            ((2 + 1j, 3.5, -15),
             -0.016900710012190220331158 - 0.0137133872673280737665518j),
            ((1.25, 2.25, 10 + 5j),
             -394.439041598347513333514 - 2378.87265988086975306667j),
            ((0.5 - 2j, 0.5, 18j),
             321.996571987953826061911 - 106.346696490433390422691j),
        ]
        for (a, b, x), want in cases:
            assert rel(kummer_1f1(a, b, x), want) < 1e-10

    def test_oracle_off_grid(self):
        a, b, x = 1.3 - 0.7j, 2.6 + 0.4j, -11.0 + 3.0j
        want = complex(hyp1f1_series(a, b, x))
        assert rel(kummer_1f1(a, b, x), want) < 1e-10

    def test_transform_identity_direct_series(self):
        # 1F1(a;b;x) = e^x 1F1(b-a;b;-x), both sides through the raw series
        # so the public transform cannot make the check circular. Real parts
        # of x stay small: the untransformed side's cancellation grows like
        # e^(|x| + |Re x|) and cannot be certified much beyond this box.
        rng = np.random.default_rng(904)
        n = 160
        a = rng.uniform(-20, 20, n) + 1j * rng.uniform(-20, 20, n)
        b = rng.uniform(-20, 20, n) + 1j * rng.uniform(-20, 20, n)
        b += 0.3j * (np.abs(b.imag) < 0.25)  # keep off the pole lattice
        x = np.where(rng.random(n) < 0.5,
                     1j * rng.uniform(-20, 20, n),
                     rng.uniform(-8, 8, n) + 1j * rng.uniform(-8, 8, n))
        lhs, cancel_l, _ = _taylor_1f1(a, b, x, dtype=np.clongdouble)
        rhs, cancel_r, _ = _taylor_1f1(b - a, b, -x, dtype=np.clongdouble)
        rhs = np.exp(np.complex128(x)) * np.complex128(rhs)
        err = np.abs(np.complex128(lhs) - rhs) / np.abs(rhs)
        # keep only draws whose roundoff the 80-bit series can certify;
        # the rest are exactly the points the public function refuses
        eps = float(np.finfo(np.clongdouble).eps)
        certified = (np.float64(cancel_l) + np.float64(cancel_r)) * eps < 1e-12
        assert np.count_nonzero(certified) > 100
        assert np.max(err[certified]) < 1e-10

    def test_unit_value_at_zero_argument(self):
        assert kummer_1f1(1.7 - 2j, 0.3, 0.0) == 1.0 + 0.0j

    def test_broadcast(self):
        x = np.array([0.5j, 1.0j, 2.0j])
        out = kummer_1f1(0.5, 1.5, x)
        assert out.shape == x.shape
        for xi, oi in zip(x, out):
            assert rel(oi, complex(hyp1f1_series(0.5, 1.5, complex(xi)))) < 1e-12

    def test_batch_size_does_not_change_bits(self):
        # a 500 x 64 grid (500 KiB of complex) is past the size from which
        # numpy may reuse temporaries in place; each element must still
        # come out as in a one-row call
        rng = np.random.default_rng(21)
        y = rng.uniform(0.1, 8.0, (500, 1))
        x = 1j * y * rng.uniform(-1.0, 1.0, 64) ** 2
        whole = kummer_1f1(0.5 - 1j * y, 0.5, x)
        rows = [kummer_1f1(0.5 - 1j * y[i], 0.5, x[i]) for i in range(y.size)]
        assert np.array_equal(whole, np.array(rows))

    def test_joint_calls_match_separate_calls(self):
        # the acceptance suite sums each Kummer-identity point's series in
        # one call: [a, b - a] against [x, -x], or [a - 1, a, a + 1] at one
        # (b, x). The joint call gives each separate call's bits, and
        # refuses exactly when one of them does; the first two points are
        # the suite's redrawn ones, one refused on each side
        rng = np.random.default_rng(24)
        points = [((0.12734265431732794 - 8.990546811221927j),
                   (-4.7182227592694215 + 4.723795506469164j), -14.456091498113222j),
                  ((8.023846512754819 - 7.283874766844043j),
                   (-4.976401582676493 + 5.4057058884884945j), -8.643274957154574j)]
        for i in range(40):
            a, b = (complex(*rng.uniform(-10, 10, 2)) for _ in range(2))
            x = (complex(0.0, rng.uniform(-15, 15)) if i % 2 else
                 complex(*rng.uniform(-8, 8, 2)))
            points.append((a, b, x))
        refused = []
        every_arg, every_separate = [], []
        for a, b, x in points:
            if x.real == 0.0:
                args = [(a, b, x), (b - a, b, -x)]
            else:
                args = [(a - 1.0, b, x), (a, b, x), (a + 1.0, b, x)]
            separate = []
            for arg in args:
                try:
                    separate.append(kummer_1f1(*arg))
                except ConvergenceError:
                    separate.append(None)
            every_arg += args
            every_separate += separate
            as_, bs, xs = zip(*args)
            if None in separate:
                refused.append(separate.index(None))
                with pytest.raises(ConvergenceError):
                    kummer_1f1(as_, bs, xs)
            else:
                assert kummer_1f1(as_, bs, xs).tolist() == separate
        assert refused[:2] == [1, 0] and len(refused) < len(points) // 2
        # one call over every point marks exactly the elements whose own
        # call refuses, and the others carry their own call's bits
        with pytest.raises(ConvergenceError) as info:
            kummer_1f1(*zip(*every_arg))
        failed = info.value.failed
        assert failed.tolist() == [v is None for v in every_separate]
        assert info.value.best[~failed].tolist() == \
            [v for v in every_separate if v is not None]

    def test_stop_terms_and_retry_do_not_change_bits(self):
        # y up to 16 spreads the elements' stopping terms over hundreds of
        # terms; x = -i|x| below |x| = 6 (cancelling, but still certifiable)
        # sends hundreds of elements through the long-double retry. Each
        # element must come out as in a one-row call, and the two
        # closed-form series stacked on a leading axis as in their own calls
        rng = np.random.default_rng(22)
        y = rng.uniform(0.01, 16.0, (120, 1))
        x = 1j * y * rng.uniform(-1.0, 1.0, 24) ** 2
        x = np.where(np.abs(x) < 6.0, -x, x)
        a = 0.5 - 1j * y
        cancel = _taylor_1f1(*(v.ravel() for v in np.broadcast_arrays(a, 0.5, x)))[1]
        assert np.count_nonzero(cancel > specfun._CANCEL_RETRY) >= 100
        whole = kummer_1f1(a, 0.5, x)
        rows = [kummer_1f1(a[i], 0.5, x[i]) for i in range(y.size)]
        assert np.array_equal(whole, np.array(rows))
        stacked = kummer_1f1(np.array([0.5, 1.0])[:, None, None] - 1j * y,
                             np.array([0.5, 1.5])[:, None, None], x)
        assert np.array_equal(stacked[0], whole)
        assert np.array_equal(stacked[1], kummer_1f1(1.0 - 1j * y, 1.5, x))

    @pytest.mark.parametrize("dtype", [complex, np.clongdouble])
    def test_series_matches_the_whole_batch_loop(self, dtype):
        # dropping an element at its own stopping term must leave its sum
        # and peak term as the whole-batch term loop has them
        a, b, x = spread_series(23)
        got_sum, got_cancel, _ = _taylor_1f1(a, b, x, dtype=dtype)
        want_sum, want_cancel, _ = term_loop(a, b, x, dtype)
        assert got_sum.dtype == want_sum.dtype
        assert np.array_equal(got_sum, want_sum)
        assert np.array_equal(got_cancel, want_cancel)

    @pytest.mark.parametrize("dtype", [complex, np.clongdouble])
    @pytest.mark.parametrize("budget", [33, 34, 45])
    def test_budget_inside_the_second_block(self, budget, dtype, monkeypatch):
        # a budget of 33 to 45 terms cuts the second block of 32: the
        # elements the term loop leaves unconverged after that many terms,
        # and only they, are unconverged, and the others keep an unlimited
        # call's bits. Some stop within the cut block, at 33 or 34 terms on
        # a run of small terms that began in the first block
        a, b, x = spread_series(25)
        want_sum, want_cancel, stops = term_loop(a, b, x, dtype)
        assert np.any((32 < stops) & (stops <= budget))
        assert np.any((budget < stops) & (stops <= 64))
        monkeypatch.setattr(specfun, "_SERIES_BUDGET", budget)
        got_sum, got_cancel, unconverged = _taylor_1f1(a, b, x, dtype=dtype)
        assert np.array_equal(unconverged, stops > budget)
        assert np.array_equal(got_sum[~unconverged], want_sum[~unconverged])
        assert np.array_equal(got_cancel[~unconverged], want_cancel[~unconverged])

    def test_budget_exhaustion_keeps_every_element(self, monkeypatch):
        # tiny |x| converges within a dozen terms, |x| >= 1.5 does not; the
        # error's best holds the input's shape, with the converged elements
        # (transformed ones included) exactly as an unlimited call gives
        # them and the rest as partial sums, already within 1e-4 for |x| <= 2
        a = np.array([[0.5 - 1j, 1.0 - 3j, 0.5 - 2j], [1.3 + 0.2j, 0.7, 2.0 - 1j]])
        b = np.array([[0.5, 1.5, 0.5], [2.5, 1.5, 0.5]])
        x = np.array([[1e-4j, 1.5j, -1e-5 + 3e-5j], [-2.0, 0.0, 2j]])
        want = kummer_1f1(a, b, x)
        monkeypatch.setattr(specfun, "_SERIES_BUDGET", 12)
        with pytest.raises(ConvergenceError, match="12 terms") as info:
            kummer_1f1(a, b, x)
        best = info.value.best
        assert best.shape == x.shape
        converged = np.abs(x) < 1e-3
        assert np.array_equal(info.value.failed, ~converged)
        assert np.array_equal(best[converged], want[converged])
        partial = best[~converged]
        assert np.all(partial != want[~converged])
        assert np.all(np.abs(partial - want[~converged]) < 1e-4 * np.abs(want[~converged]))

    def test_budget_exhaustion_with_frozen_elements_in_the_arrays(self, monkeypatch):
        # three of ten elements converge within 12 terms, fewer than half,
        # so they are still frozen in the working arrays when the budget
        # runs out; their best entries (transformed ones included) must
        # carry the bits of an unlimited call
        a = np.array([0.5 - 1j, 1.0 - 3j, 0.5 - 2j, 1.3 + 0.2j, 0.7,
                      2.0 - 1j, 0.5 - 4j, 1.0 - 0.5j, 0.5, 1.0 - 2j])
        b = np.array([0.5, 1.5, 0.5, 2.5, 1.5, 0.5, 0.5, 1.5, 0.5, 1.5])
        x = np.array([1e-4j, -2e-5 + 1e-5j, 3e-4, 2.5j, -3.0, 4j,
                      3.0 + 1j, -2.0 - 2j, 5j, 2.0])
        want = kummer_1f1(a, b, x)
        monkeypatch.setattr(specfun, "_SERIES_BUDGET", 12)
        with pytest.raises(ConvergenceError, match="12 terms") as info:
            kummer_1f1(a, b, x)
        converged = np.abs(x) < 1e-3
        assert 0 < np.count_nonzero(converged) < x.size / 2
        assert np.array_equal(info.value.failed, ~converged)
        best = info.value.best
        assert np.array_equal(best[converged], want[converged])
        assert np.all(best[~converged] != want[~converged])

    def test_budget_exhaustion_still_retries_the_converged(self, monkeypatch):
        # 1F1(1/2 - 16i; 1/2; -6i) converges within 80 terms but cancels
        # by 1e8, so its float sum is off in the eighth digit and only the
        # long-double retry certifies it; 1F1(1; 3/2; 30i) needs more than
        # 80 terms. The refusal must mark the second alone and carry the
        # first as an unlimited call of its own gives it
        want = kummer_1f1(0.5 - 16j, 0.5, -6j)
        monkeypatch.setattr(specfun, "_SERIES_BUDGET", 80)
        assert kummer_1f1(0.5 - 16j, 0.5, -6j) == want
        float_sum, cancel, _ = _taylor_1f1(np.array([0.5 - 16j]), np.array([0.5 + 0j]),
                                           np.array([-6j]))
        assert cancel[0] > specfun._CANCEL_RETRY and float_sum[0] != want
        with pytest.raises(ConvergenceError, match="80 terms: 1 of 2") as info:
            kummer_1f1([0.5 - 16j, 1.0], [0.5, 1.5], [-6j, 30j])
        assert info.value.failed.tolist() == [False, True]
        assert info.value.best[0] == want
        # a scalar call's mask is a scalar too
        with pytest.raises(ConvergenceError) as info:
            kummer_1f1(1.0, 1.5, 30j)
        assert info.value.failed is True

    def test_budget_exhaustion_makes_one_pass_per_precision(self, monkeypatch):
        # the converged element's sum and cancellation come from the one
        # double pass that ran out of budget on the other element; only it
        # is summed again, once, in long double
        monkeypatch.setattr(specfun, "_SERIES_BUDGET", 80)
        taylor = specfun._taylor_1f1
        passes = []

        def counted(a, b, x, dtype=complex):
            passes.append((dtype, a.size))
            return taylor(a, b, x, dtype)

        monkeypatch.setattr(specfun, "_taylor_1f1", counted)
        with pytest.raises(ConvergenceError, match="80 terms: 1 of 2"):
            kummer_1f1([0.5 - 16j, 1.0], [0.5, 1.5], [-6j, 30j])
        assert passes == [(complex, 2), (np.clongdouble, 1)]

    @pytest.mark.parametrize("dtype", [complex, np.clongdouble])
    def test_frozen_elements_keep_their_bits(self, dtype, monkeypatch):
        # a minority of small |x| (1e-3 to 1) meets the stop rule within 25
        # terms while the rest (|x| 25 to 30) needs more than 80, so the
        # early finishers stay frozen in the working arrays for more than
        # 50 terms; each element must come out as in a one-element call.
        # The last early finisher has a within 1e-25 of -3: its terms fall
        # below the stop rule after the fourth and, summed on, would grow
        # back to about e^25 1e-25, past the last bit of its sum
        rng = np.random.default_rng(24)
        mod = np.concatenate([np.geomspace(1e-3, 1.0, 12), rng.uniform(25.0, 30.0, 28)])
        angle = rng.uniform(-np.pi / 2, np.pi / 2, mod.size)
        x = mod * np.exp(1j * angle)
        a = np.where(rng.random(mod.size) < 0.5, 0.5, 1.0) - 1j * rng.uniform(0.0, 8.0, mod.size)
        b = np.where(a.real == 0.5, 0.5, 1.5) + 0j
        a[11], b[11], x[11] = -3.0 + 1e-25j, 0.5, 25.0
        order = rng.permutation(mod.size)
        a, b, x, mod = a[order], b[order], x[order], mod[order]
        got_sum, got_cancel, _ = _taylor_1f1(a, b, x, dtype=dtype)
        for i in range(x.size):
            s, c, _ = _taylor_1f1(a[i:i + 1], b[i:i + 1], x[i:i + 1], dtype=dtype)
            assert got_sum[i] == s[0] and got_cancel[i] == c[0]
        # the premise: the early ones finish within 25 terms, the rest not
        # within 80
        early = mod <= 1.0
        monkeypatch.setattr(specfun, "_SERIES_BUDGET", 25)
        assert not _taylor_1f1(a[early], b[early], x[early], dtype=dtype)[2].any()
        monkeypatch.setattr(specfun, "_SERIES_BUDGET", 80)
        for i in np.flatnonzero(~early):
            assert _taylor_1f1(a[i:i + 1], b[i:i + 1], x[i:i + 1], dtype=dtype)[2][0]

    def test_large_positive_argument_has_no_spurious_warning(self):
        # Re x > 0 needs no transform, so e^x must not be taken: e^710
        # overflows a double although 1F1(1/2; 3/2; 710) = 1.57e305 does
        # not, and at 720 the series itself overflows and refuses
        want = 1.57434601226154420561e305    # mpmath hyp1f1(0.5, 1.5, 710)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert rel(kummer_1f1(0.5, 1.5, 710.0), want) < 1e-10
            with pytest.raises(OverflowRangeError, match="overflowed"):
                kummer_1f1(0.5, 1.5, 720.0)

    def test_overflowing_terms_refuse_at_once(self):
        # the closed form's two series at omega/kappa = 1000 and u = 1 (the
        # pole row of energy_spectrum at omega = 1000): their terms overflow
        # after about a hundred, far before any stop rule. The first
        # overflow refuses, with no numpy warning, rather than summing
        # non-finite terms to the budget and refusing as unconverged
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowRangeError, match="overflowed"):
                kummer_1f1(np.array([0.5 - 1000j, 1.0 - 1000j]), np.array([0.5, 1.5]), 1000j)

    def test_overflow_past_the_stop_term_is_not_summed(self):
        # a within 1e-300 of -3: the terms fall below the stop rule after
        # the fourth and then grow by about x/n each, past the double range
        # within the first block of 32. A term loop stops before them, so
        # the call returns the polynomial's value, with no numpy warning
        a, b, x = np.array([-3 + 1e-300j]), np.array([0.5 + 0j]), np.array([1e21 + 0j])
        with pytest.raises(FloatingPointError), np.errstate(over="raise"):
            specfun._ratio_terms(np.ones(1, dtype=complex), a, b, x,
                                 np.arange(specfun._BLOCK)[:, None])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kummer_1f1(-3 + 1e-300j, 0.5, 1e21)
        assert rel(got, -16e62 / 3) < 1e-15

    def test_overflow_past_the_budget_is_not_summed(self, monkeypatch):
        # the terms of 1F1(1/2; 3/2; 6e7) pass the double range from the
        # 48th: unlimited, the call refuses the overflow, but with a budget
        # of 45 terms it refuses the unconverged sum, as a term loop would,
        # though the cut block's terms 46 to 64 are formed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowRangeError, match="overflowed"):
                kummer_1f1(0.5, 1.5, 6e7)
            monkeypatch.setattr(specfun, "_SERIES_BUDGET", 45)
            with pytest.raises(ConvergenceError, match="45 terms") as info:
                kummer_1f1(0.5, 1.5, 6e7)
        assert 1e290 < abs(info.value.best) < 1e300

    def test_matches_the_oracle_over_the_identity_box(self, monkeypatch):
        # acceptance criterion 9's box: a and b in [-10, 10]^2, b a unit
        # off the poles, x pure imaginary up to 15 or in [-8, 8]^2, whose
        # Re x < 0 half takes the Kummer transform. Each returned element
        # is within 1e-10 of the 60-digit oracle, some after the long-double
        # retry, and each refused one cancels past _CANCEL_RETRY in the
        # oracle's own terms of the series summed
        rng = np.random.default_rng(3201)
        n = 150
        a = rng.uniform(-10, 10, n) + 1j * rng.uniform(-10, 10, n)
        b = rng.uniform(-10, 10, n) + 1j * rng.uniform(-10, 10, n)
        lattice = np.minimum(np.round(b.real), 0.0)
        b = np.where(np.abs(b - lattice) < 1.0, b + 2j * np.sign(b.imag + 0.5), b)
        x = np.where(np.arange(n) % 3 == 0, 1j * rng.uniform(-15, 15, n),
                     rng.uniform(-8, 8, n) + 1j * rng.uniform(-8, 8, n))
        taylor = specfun._taylor_1f1
        retried = []

        def recording(a, b, x, dtype=complex):
            if dtype != complex:
                retried.append(a.size)
            return taylor(a, b, x, dtype)

        monkeypatch.setattr(specfun, "_taylor_1f1", recording)
        try:
            got, failed = kummer_1f1(a, b, x), np.zeros(n, dtype=bool)
        except ConvergenceError as exc:
            got, failed = exc.best, exc.failed
        assert sum(retried) > 0 and np.count_nonzero(failed) < n // 4
        assert np.count_nonzero(x.real < 0.0) > n // 4
        for i in range(n):
            if failed[i]:
                flip = x[i].real < 0.0
                summed = (b[i] - a[i], b[i], -x[i]) if flip else (a[i], b[i], x[i])
                total, peak = hyp1f1_series_peak(*(complex(v) for v in summed))
                assert peak / abs(total) > specfun._CANCEL_RETRY
            else:
                assert rel(got[i], complex(hyp1f1_series(a[i], b[i], x[i]))) < 1e-10

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            kummer_1f1(1.0, 0.0, 1.0j)
        with pytest.raises(PoleError):
            kummer_1f1(1.0, -3.0, 1.0j)

    def test_uncertifiable_raises_with_best(self):
        # pure-imaginary argument this large cancels ~e^25: past certification
        with pytest.raises(ConvergenceError) as info:
            kummer_1f1(0.5, 0.5, 25j)
        assert info.value.best is not None
        # the attached estimate is still in the right neighborhood
        assert abs(info.value.best) == pytest.approx(1.0, abs=0.2)

    def test_retried_elements_carry_long_double_roundoff(self):
        # 40 series, 20 of the exact route at omega/kappa 60-150 and 20 of
        # check criterion 9's box, whose sums cancel by 2.2e5 to 2.9e8, so
        # that the double pass hands each to the long-double retry: each
        # comes back within 10 cancellation eps(long double) of its
        # 60-digit value, frozen by regenerate_oracle_values.py. A sum in
        # double carries 2^10 times that roundoff
        if specfun._CANCEL_FAIL <= specfun._CANCEL_RETRY:
            pytest.skip("long double is plain double here: the retry refuses these")
        with open(PATH, encoding="utf-8") as f:
            rows = json.load(f)["retried_1f1"]
        a, b, x, want = (np.array([unpair(row[key]) for row in rows])
                         for key in ("a", "b", "x", "value"))
        cancel = np.array([float.fromhex(row["cancellation"]) for row in rows])
        flip = x.real < 0.0
        double = _taylor_1f1(np.where(flip, b - a, a), b, np.where(flip, -x, x))[1]
        assert np.all(double > specfun._CANCEL_RETRY)
        err = np.abs(kummer_1f1(a, b, x) - want) / np.abs(want)
        assert np.all(err <= 10.0 * cancel * float(np.finfo(np.longdouble).eps))

    def test_fail_threshold_follows_the_retry_precision(self):
        # 3e8 under x87's long double; where long double is plain double it
        # falls below the retry threshold, so nothing the retry sums again
        # can pass; under IEEE quad it rises with the precision. The
        # module's threshold is the one of this platform's long double
        assert specfun._cancel_fail(2.0**-63) == 3.0e8
        assert specfun._cancel_fail(2.0**-52) < specfun._CANCEL_RETRY
        assert specfun._cancel_fail(2.0**-112) == 3.0e8 * 2.0**49
        assert specfun._CANCEL_FAIL == specfun._cancel_fail(np.finfo(np.longdouble).eps)

    def test_double_only_retry_refuses(self, monkeypatch):
        # 1F1(1/2 - 16i; 1/2; -6i) cancels by 1e8, between the two
        # thresholds: the retry certifies it under x87's long double, and
        # with a plain double's threshold the same element refuses.
        # 1F1(1/2 - 18.25i; 1/2; -2.5i) cancels by 1.7e5, above a plain
        # double's fail threshold but below the retry threshold: the
        # double sum certifies it, so it returns under either
        want = kummer_1f1([0.5 - 16j, 0.5 - 18.25j], 0.5, [-6j, -2.5j])
        cancel = _taylor_1f1(np.array([0.5 - 18.25j]), np.array([0.5 + 0j]),
                             np.array([-2.5j]))[1][0]
        assert specfun._cancel_fail(2.0**-52) < cancel <= specfun._CANCEL_RETRY
        monkeypatch.setattr(specfun, "_CANCEL_FAIL", specfun._cancel_fail(2.0**-52))
        with pytest.raises(ConvergenceError, match="cancel") as info:
            kummer_1f1([0.5 - 16j, 1.0, 0.5 - 18.25j], [0.5, 1.5, 0.5], [-6j, 0.5j, -2.5j])
        assert info.value.failed.tolist() == [True, False, False]
        assert info.value.best[0] == want[0]
        assert info.value.best[2] == want[1]


class TestKummerGrid:
    """The closed form's two series on a rows x columns grid, against kummer_1f1."""

    @staticmethod
    def series_rows(ys):
        # M(1/2 - iy; 1/2; iy z) and M(1 - iy; 3/2; iy z), a row per (series, y)
        iy = 1j * np.concatenate([ys, ys])
        return (np.concatenate([0.5 - 1j * ys, 1.0 - 1j * ys]),
                np.repeat([0.5, 1.5], ys.size).astype(complex), iy)

    def test_matches_kummer_1f1(self):
        # y from 0.01 to 12 and z = u^2 over [0, 1], with u = 0 and the poles
        # u = +-1; none of these cells cancels past _CANCEL_RETRY
        rng = np.random.default_rng(31)
        ys = np.geomspace(0.01, 12.0, 25)
        z = np.concatenate([[0.0, 1e-300, 1e-20, 1.0], np.linspace(0.0, 1.0, 17),
                            rng.uniform(0.0, 1.0, 12)])
        a, b, c = self.series_rows(ys)
        got = specfun._kummer_grid(a, b, c, z)
        want = kummer_1f1(a[:, None], b[:, None], c[:, None] * z)
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-13
        # the columns energy_spectrum's closed rows pass off zeta = 0,
        # (cos(theta) - zeta)^2 up to (1 + |zeta|)^2 and y up to X = 14. Near
        # z = 4 a cell cancels by up to 260 (at zeta 0.99), and the two sums
        # group its terms differently, so they agree to 1e-13 of the cell's
        # largest term, cancellation times |sum|, rather than of its sum
        for ys, z in ((np.array([2.7]), shifted_squares(64, 0.3)),
                      (closed_row_ys(-0.6, 8), shifted_squares(512, -0.6)),
                      (closed_row_ys(0.99, 6), shifted_squares(128, 0.99))):
            a, b, c = self.series_rows(ys)
            got = specfun._kummer_grid(a, b, c, z)
            a, b, x = np.broadcast_arrays(a[:, None], b[:, None], c[:, None] * z)
            want = kummer_1f1(a, b, x)
            cancel = _taylor_1f1(a.ravel(), b.ravel(), x.ravel())[1].reshape(want.shape)
            assert np.all(cancel < specfun._CANCEL_RETRY)
            assert np.max(np.abs(got - want) / (cancel * np.abs(want))) < 1e-13

    def test_cancelling_cells_carry_kummer_1f1_bits(self, monkeypatch):
        # at y = 60 the series cancel by 4.3e4 at z = 0.9 and by 4.4e5 at
        # z = 1. Both lie in the band (1/2, 1], whose top's terms do not
        # clear them, so all four cells go to kummer_1f1 at x = c z, which
        # sums the z = 0.9 cells in double and retries the z = 1 cells in
        # long double, and keep its bits; the z = 0.5 cells, which cancel
        # by 18, are cleared by their band's top and summed by the grid
        handed = []
        kummer = specfun.kummer_1f1

        def recording(a, b, x):
            handed.append(x)
            return kummer(a, b, x)

        monkeypatch.setattr(specfun, "kummer_1f1", recording)
        a, b, c = self.series_rows(np.array([60.0]))
        z = np.array([0.5, 0.9, 1.0])
        got = specfun._kummer_grid(a, b, c, z)
        assert np.array_equal(np.concatenate(handed), (c[:, None] * z[1:]).ravel())
        assert got[:, 1:].tolist() == [[kummer(a_, b_, c_ * z_) for z_ in z[1:]]
                                       for a_, b_, c_ in zip(a, b, c)]
        want = kummer_1f1(a, b, c * z[0])
        assert np.max(np.abs(got[:, 0] / want - 1.0)) < 1e-13

    def test_cells_keep_their_bits_in_any_grid(self):
        # a cell's terms and their count depend on its row and its z alone
        rng = np.random.default_rng(32)
        ys = rng.uniform(0.05, 16.0, 12)
        z = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 10)])
        a, b, c = self.series_rows(ys)
        whole = specfun._kummer_grid(a, b, c, z)
        for _ in range(4):
            rows = rng.choice(a.size, rng.integers(1, a.size), replace=False)
            cols = rng.choice(z.size, rng.integers(1, z.size), replace=False)
            part = specfun._kummer_grid(a[rows], b[rows], c[rows], z[cols])
            assert np.array_equal(part, whole[np.ix_(rows, cols)])

    def test_small_z_sums_one_block_at_any_y(self, monkeypatch):
        # a cell's term count comes from its own band of z, never from the
        # rows' z = 1 terms, which are e^{2y} in size and overflow from y ~ 355:
        # u^2 up to 1e-6 takes one block of terms at y = 3 as at y = 300
        calls = []
        vecdot = np.vecdot

        def counting(x1, x2):
            calls.append(x1.shape[-1])
            return vecdot(x1, x2)

        def no_fallback(*args):
            raise AssertionError("a small-z cell went to kummer_1f1")

        monkeypatch.setattr(np, "vecdot", counting)
        monkeypatch.setattr(specfun, "kummer_1f1", no_fallback)
        z = np.array([0.0, 1e-12, 1e-9, 1e-7, 1e-6])
        for y in (3.0, 300.0):
            calls.clear()
            a, b, c = self.series_rows(np.array([y]))
            got = specfun._kummer_grid(a, b, c, z)
            assert calls == [specfun._BLOCK]
            assert np.max(np.abs(got - kummer_1f1(a[:, None], b[:, None], c[:, None] * z))
                          / np.abs(got)) < 1e-13

    @pytest.mark.parametrize("ys, z, cells", [
        (np.array([1.3]), np.array([0.4]), []),
        (np.array([2.7]), cc_squares(64), []),
        (np.geomspace(0.01, 20.0, 25), cc_squares(64), [1]),
        (np.geomspace(0.01, 15.0, 8), cc_squares(512), []),
        (np.array([0.3, 4.0, 11.0]), np.array([0.0, 0.25, 0.0, 1.0]), []),
        (np.array([60.0, 2.0]), np.array([0.5, 0.9, 1.0]), [4]),
        (np.array([2.7]), shifted_squares(64, 0.3), []),
        (closed_row_ys(-0.6, 8), shifted_squares(512, -0.6), [110]),
        (closed_row_ys(0.99, 6), shifted_squares(128, 0.99), []),
    ], ids=["1x1", "2x33", "50x33", "16x257", "z=0", "fallback", "zeta0.3-2x63",
            "zeta-0.6-16x511", "zeta0.99-12x127"])
    def test_masked_state_keeps_the_compacting_loops_bits(self, ys, z, cells,
                                                           monkeypatch):
        # the (band, row) state updated by masks gives every cell the bits
        # of the loop that gathered the live rows and bands each block. The
        # cells their band's top does not clear go to kummer_1f1 in one
        # call: at y = 60 the z = 0.9 and z = 1 cells, the latter retried in
        # long double; at y = 20 the one cell at z = 0.549, whose top z = 1
        # has terms far above its own; at zeta -0.6 the 110 cells of y 5.47
        # (two series, 55 columns) with z in (2, 2.49], whose top z = 4 has
        # terms far above their own
        handed = []
        kummer = specfun.kummer_1f1

        def recording(a, b, x):
            handed.append(np.asarray(x).size)
            return kummer(a, b, x)

        monkeypatch.setattr(specfun, "kummer_1f1", recording)
        a, b, c = closed_form_rows(ys)
        got = specfun._kummer_grid(a, b, c, z)
        assert got.shape == (a.size, z.size)
        assert np.array_equal(got.view(float), compacting_grid(a, b, c, z).view(float))
        assert handed == cells

    def test_refused_grid_raises_as_the_compacting_loop(self):
        # at y = 90 the z = 1 cells cancel past what long double certifies
        a, b, c = closed_form_rows(np.array([90.0, 1.0]))
        z = np.array([0.5, 1.0])
        with pytest.raises(ConvergenceError) as got:
            specfun._kummer_grid(a, b, c, z)
        with pytest.raises(ConvergenceError) as want:
            compacting_grid(a, b, c, z)
        assert str(got.value) == str(want.value)
        assert "cancellation too severe" in str(got.value)
        assert np.array_equal(got.value.best, want.value.best)
        assert np.array_equal(got.value.failed, want.value.failed)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            specfun._kummer_grid(np.array([1.0 + 0j]), np.array([-2.0 + 0j]),
                                 np.array([1j]), np.array([0.5]))
