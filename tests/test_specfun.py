"""Log-gamma and confluent-series checks against independent references.

Frozen constants come from 60-digit mpmath (see oracles.py); none were
copied from the implementation.
"""
import warnings

import numpy as np
import pytest

from fdradiance import specfun
from fdradiance.errors import ConvergenceError, OverflowRangeError, PoleError
from fdradiance.specfun import _taylor_1f1, kummer_1f1, ln_gamma

from oracles import hyp1f1_series


def rel(got, want):
    return abs(got - want) / abs(want)


class TestLnGamma:
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
        # the reference advances every element until the slowest has met
        # the stop rule, masking the finished ones; dropping an element at
        # its own stopping term must leave its sum and peak term unchanged
        def masked(a, b, x):
            tol = 0.1 * np.finfo(np.float64 if dtype == complex else np.longdouble).eps
            a, b, x = a.astype(dtype), b.astype(dtype), x.astype(dtype)
            s = np.ones(x.shape, dtype=dtype)
            term = np.ones(x.shape, dtype=dtype)
            maxmag = np.ones(x.shape)
            runs = np.zeros(x.shape, dtype=np.int64)
            active = np.ones(x.shape, dtype=bool)
            for n in range(specfun._SERIES_BUDGET):
                step = np.multiply(np.divide(np.multiply(term, a + n), b + n), x) / (n + 1)
                term = np.where(active, step, term)
                s = np.where(active, s + term, s)
                tmag = np.abs(term).astype(np.float64)
                maxmag = np.where(active, np.maximum(maxmag, tmag), maxmag)
                small = tmag <= tol * np.abs(s).astype(np.float64)
                runs = np.where(active & small, runs + 1, 0)
                active = active & (runs < 3)
                if not active.any():
                    return s, maxmag / np.abs(s).astype(np.float64)
            raise AssertionError("reference did not converge")

        rng = np.random.default_rng(23)
        y = rng.uniform(0.01, 16.0, 400)
        x = 1j * y * rng.uniform(-1.0, 1.0, 400) ** 2
        x = np.where(np.abs(x) < 6.0, -x, x)
        a = np.where(rng.random(400) < 0.5, 0.5, 1.0) - 1j * y
        b = np.where(a.real == 0.5, 0.5, 1.5)
        got_sum, got_cancel, _ = _taylor_1f1(a, b, x, dtype=dtype)
        want_sum, want_cancel = masked(a, b, x)
        assert got_sum.dtype == want_sum.dtype
        assert np.array_equal(got_sum, want_sum)
        assert np.array_equal(got_cancel, want_cancel)

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
