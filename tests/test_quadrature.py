"""Adaptive, semi-infinite, and oscillatory integration checks.

The oscillatory route is compared against a damped-limit oracle that
never leaves the real axis (oracles.py), so the two routes share no
code and no contour.
"""
import cmath
import json
import math
import sys

import mpmath as mp
import numpy as np
import pytest

from fdradiance import quadrature
from fdradiance.errors import (
    ConvergenceError,
    DomainError,
    NonFiniteError,
    OverflowRangeError,
)
from fdradiance.quadrature import (
    QuadratureResult,
    _oscillatory_rows,
    integrate_adaptive,
    integrate_oscillatory,
    integrate_semi_infinite,
)

from oracles import head_majorant_tail
from regenerate_oracle_values import PATH, damped_phases, head_rows, unpair

with open(PATH, encoding="utf-8") as _f:
    FROZEN = json.load(_f)

# frozen by 60-digit quadrature of the rotated integrand
J_HALF_4_M1 = 0.008701515102645193900047 + 0.02261928691557165995927j
J_QUARTER_2_MHALF = 0.1675266879998185115067 + 0.2411238115320679098155j
FRESNEL = 0.6266570686577501256039


def rel(got, want):
    return abs(got - want) / abs(want)


def plain_exponent(b, d, x, y):
    """(Re, Im) of i b (w^2/2 + ln w + d w) at w = x + iy, each a plain expression."""
    return (-b * (x * y + np.arctan2(y, x) + d * y),
            b * (0.5 * ((x - y) * (x + y) + np.log(x * x + y * y)) + d * x))


def plain_parts(b, d, alpha, ss, rows):
    """The decay and the phase, before the turn of dw/ds, of the contour
    integrand at the (panels, 15) nodes ss, formed out of place."""
    half = 0.5 * alpha
    zero, one = np.zeros_like(alpha), np.ones_like(alpha)
    cos_a, sin_a = np.cos(alpha), np.sin(alpha)
    pieces = np.array([b, d, zero, zero, zero, cos_a, sin_a, alpha,
                       b, d, one, cos_a, sin_a, np.cos(half), np.sin(half), half])
    pieces = pieces.T.reshape(-1, 8)
    at = 2 * rows + (ss[:, 7] > 1.0)
    bb, dd, s0, x0, y0, dx, dy, turn = pieces[at].T[:, :, None]
    t = ss - s0
    decay, phase = plain_exponent(bb, dd, x0 + t * dx, y0 + t * dy)
    return decay, phase, turn


def plain_integrand(b, d, alpha, ss, rows):
    """The contour integrand at the nodes ss, every step a new array: the
    reference whose bits the in-place ``_saddle_integrand`` keeps."""
    decay, phase, turn = plain_parts(b, d, alpha, ss, rows)
    phase += turn
    u = np.tan(0.5 * phase)
    u2 = u * u
    den = 1.0 + u2
    u += u
    u /= den
    np.subtract(1.0, u2, out=u2)
    u2 /= den
    mag = np.exp(decay)
    out = np.empty(ss.shape, dtype=complex)
    np.multiply(mag, u2, out=out.real)
    np.multiply(mag, u, out=out.imag)
    return out


class TestTypes:
    def test_result_validation(self):
        with pytest.raises(DomainError):
            QuadratureResult(1.0, -1e-3, 15)
        with pytest.raises(DomainError):
            QuadratureResult(1.0, 1e-3, 0)
        with pytest.raises(NonFiniteError):
            QuadratureResult(math.nan, 1e-3, 15)

    def test_spec_validation(self):
        # the phase (b, d) = (log_coeff, shift) goes in as two floats
        integrate_oscillatory(2.0, -1.5)  # d^2 < 4: complex saddles
        for b, d in ((0.0, 1.0), (-1.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
                     (1.0, math.inf), (1.0, math.nan)):
            with pytest.raises(DomainError):
                integrate_oscillatory(b, d)
        # one integral per call: an array of phases is _oscillatory_rows' job
        with pytest.raises(TypeError):
            integrate_oscillatory(np.array([1.0, 2.0]), 0.0)


class TestAdaptive:
    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
    @pytest.mark.parametrize("entry", [
        lambda tol: integrate_adaptive(np.exp, 0.0, 1.0, tol),
        lambda tol: integrate_semi_infinite(lambda x: np.exp(-x), 1.0, tol)],
        ids=["adaptive", "semi-infinite"])
    def test_tol_must_be_positive_and_finite(self, entry, tol):
        # nan fails every comparison of the stop rule, so the waves would
        # run to a stall; 0 and -1 would leave only the absolute floors
        with pytest.raises(DomainError, match="tol"):
            entry(tol)

    def test_polynomial(self):
        res = integrate_adaptive(lambda x: x**2, 0.0, 1.0)
        assert rel(res.value, 1.0 / 3.0) < 1e-14
        assert res.evaluations >= 15

    def test_reported_error_honest(self):
        res = integrate_adaptive(np.exp, 0.0, 2.0, tol=1e-10)
        true_err = abs(res.value - (math.e**2 - 1.0))
        assert true_err <= res.abs_error + 1e-15 * abs(res.value)

    def test_linearity(self):
        f = lambda x: np.exp(-x) * np.sin(3 * x)
        g = lambda x: 1.0 / (1.0 + x**2)
        both = integrate_adaptive(lambda x: f(x) + g(x), 0.0, 5.0, tol=1e-12)
        parts = (integrate_adaptive(f, 0.0, 5.0, tol=1e-12).value
                 + integrate_adaptive(g, 0.0, 5.0, tol=1e-12).value)
        assert rel(both.value, parts) < 1e-11

    def test_kink_without_breakpoints(self):
        # x = 1 is an edge of the eight equal first-wave panels, so the first
        # wave integrates it exactly; x = 1/3 lies inside a panel and must be
        # refined down to
        for c in (1.0, 1.0 / 3.0):
            res = integrate_adaptive(lambda x: np.abs(x - c), 0.0, 2.0, tol=1e-12)
            assert rel(res.value, 0.5 * (c * c + (2.0 - c) ** 2)) < 1e-13

    @pytest.mark.parametrize("c", [10.0 ** k for k in range(-300, 301, 50)])
    def test_scale_invariance(self, c):
        # no absolute floor sets the target: c sqrt(x) takes the same run at
        # every scale c and lands within tol of its value, as does c e^{-x}
        # on [0, inf)
        tol = 1e-12
        res = integrate_adaptive(lambda x: c * np.sqrt(x), 0.0, 1.0, tol=tol)
        assert abs(res.value - 2.0 * c / 3.0) <= tol * 2.0 * c / 3.0
        assert res.evaluations == integrate_adaptive(np.sqrt, 0.0, 1.0, tol=tol).evaluations
        res = integrate_semi_infinite(lambda x: c * np.exp(-x), tol=tol)
        assert abs(res.value - c) <= tol * c

    def test_infinite_bound_rejected(self):
        # [0, inf) has its own entry, integrate_semi_infinite
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: np.exp(-x * x), 0.0, math.inf)
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: np.exp(-x * x), -math.inf, 0.0)

    def test_budget_exhaustion(self, monkeypatch, fresh_caches):
        monkeypatch.setattr(quadrature, "_MAX_EVALS", 200)
        with pytest.raises(ConvergenceError) as info:
            integrate_adaptive(lambda x: np.sin(50 * x), 0.0, 10.0, tol=1e-13)
        assert info.value.best.evaluations <= 200

    def test_out_of_waves_stalls(self, monkeypatch, fresh_caches):
        # a row still refining when the waves run out stalls with its sums
        monkeypatch.setattr(quadrature, "_MAX_WAVES", 1)
        with pytest.raises(ConvergenceError) as info:
            integrate_adaptive(lambda x: np.sin(50 * x), 0.0, 10.0, tol=1e-13)
        best = info.value.best
        assert math.isfinite(best.value) and best.evaluations < quadrature._MAX_EVALS

    def test_scalar_integrand_rejected(self):
        # integrands are batch-only: a scalar answer to a node batch is an
        # error on both the finite and the mapped semi-infinite route
        with pytest.raises(NonFiniteError):
            integrate_adaptive(lambda x: 1.0, 0.0, 1.0)
        with pytest.raises(NonFiniteError):
            integrate_semi_infinite(lambda x: 1.0)
        vectorized = np.vectorize(lambda x: math.exp(-x), otypes=[float])
        res = integrate_adaptive(vectorized, 0.0, 1.0, tol=1e-12)
        assert rel(res.value, 1.0 - 1.0 / math.e) < 1e-11


class TestSemiInfinite:
    def test_infinite_upper_limit(self):
        res = integrate_semi_infinite(lambda x: np.exp(-x * x), tol=1e-12)
        assert rel(res.value, math.sqrt(math.pi) / 2.0) < 1e-11

    def test_occupancy_integrals(self):
        # integral of x/(e^(2 pi x / kappa) + 1) over [0, inf) is kappa^2/48
        for kappa in (1.0, 2.5):
            def f(x, k=kappa):
                u = 2.0 * math.pi * x / k
                return x * np.exp(-u) / (1.0 + np.exp(-u))
            res = integrate_semi_infinite(f, scale=kappa, tol=1e-12)
            assert rel(res.value, kappa**2 / 48.0) < 1e-11

    def test_log_two(self):
        f = lambda x: np.exp(-x) / (1.0 + np.exp(-x))
        res = integrate_semi_infinite(f, tol=1e-12)
        assert rel(res.value, math.log(2.0)) < 1e-11

    @pytest.mark.parametrize("scale", [0.0, math.inf, math.nan])
    def test_bad_scale_rejected(self, scale):
        with pytest.raises(DomainError, match="scale"):
            integrate_semi_infinite(lambda x: np.exp(-x), scale=scale)

    def test_scale_invariance(self):
        f = lambda x: np.exp(-x / 7.0)
        for scale in (1.0, 7.0, 50.0):
            res = integrate_semi_infinite(f, scale=scale, tol=1e-11)
            assert rel(res.value, 7.0) < 1e-10


def unit_circle(a, b, c):
    """(scale, d) with J(a, b, c) = scale F(b, d), by z = rho w, rho = sqrt(b/2a).

    J(a, b, c) is int_0^inf exp(i(a z^2 + b ln z + c z)) dz, the form the
    frozen values and the damped oracle are written in.
    """
    rho = math.sqrt(b / (2.0 * a))
    return rho * cmath.exp(1j * b * math.log(rho)), c * rho / b


class TestOscillatory:
    def test_fresnel(self):
        # d = 0 is the generalized Fresnel integral: int exp(i(a z^2 +
        # b ln z)) dz = (1/2) Gamma(s/2) a^(-s/2) e^(i pi s/4), s = 1 + ib,
        # here at a = b/2. Its b -> 0 limit at a = 1, taken back to z, is
        # the pure Fresnel value, whose saddle has merged into the origin
        scale, d = unit_circle(1.0, 1e-12, 0.0)
        res = integrate_oscillatory(1e-12, d, tol=1e-10)
        assert rel(scale * res.value, FRESNEL * (1 + 1j)) < 1e-10
        for b in (1e-6, 0.5, 2.0, 6.0):
            s = 1 + 1j * b
            want = complex(0.5 * mp.gamma(s / 2) * mp.power(b / 2, -s / 2)
                           * mp.exp(1j * mp.pi * s / 4))
            res = integrate_oscillatory(b, 0.0, tol=1e-10)
            assert rel(res.value, want) < 1e-10
            assert abs(res.value - want) <= res.abs_error

    def test_frozen_values(self):
        for (a, b, c), frozen in (((0.5, 4.0, -1.0), J_HALF_4_M1),
                                  ((0.25, 2.0, -0.5), J_QUARTER_2_MHALF)):
            scale, d = unit_circle(a, b, c)
            got = integrate_oscillatory(b, d, tol=1e-10)
            assert rel(got.value, frozen / scale) < 1e-9

    def test_reported_error_honest(self):
        scale, d = unit_circle(0.5, 4.0, -1.0)
        want = J_HALF_4_M1 / scale
        res = integrate_oscillatory(4.0, d, tol=1e-9)
        assert abs(res.value - want) <= res.abs_error + 1e-14 * abs(want)

    def test_against_damped_oracle(self):
        # the damped oracle's values at the 25 phases, frozen by
        # regenerate_oracle_values.py, which holds the grid of (w, theta)
        worst = 0.0
        phases = damped_phases()
        assert len(phases) == len(FROZEN["damped"]) == 25
        for (a, b, c), frozen in zip(phases, FROZEN["damped"]):
            assert [a.hex(), b.hex(), c.hex()] == [frozen[k] for k in "abc"]
            scale, d = unit_circle(a, b, c)
            got = integrate_oscillatory(b, d, tol=1e-9).value
            want = unpair(frozen["value"]) / scale
            worst = max(worst, abs(got - want) / abs(want))
        assert worst < 1e-4

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            integrate_oscillatory(1.0, 0.0, tol=0.1)
        with pytest.raises(DomainError):
            integrate_oscillatory(1.0, 0.0, tol=0.0)
        # the contour needs a complex pair of saddles: b > 0 and d^2 < 4.
        # The pure-Fresnel limit b = 0 and real saddles are outside it.
        with pytest.raises(DomainError):
            integrate_oscillatory(0.0, 0.0)
        with pytest.raises(DomainError):
            _oscillatory_rows(0.0, [0.0], 1e-9)
        for d in (2.0, -2.0, 2.5):
            with pytest.raises(DomainError):
                integrate_oscillatory(1.0, d)
            with pytest.raises(DomainError):
                _oscillatory_rows(1.0, [0.0, d], 1e-9)
        with pytest.raises(DomainError):
            _oscillatory_rows(1.0, [math.nan], 1e-9)
        with pytest.raises(DomainError):
            _oscillatory_rows([1.0, math.nan], 0.0, 1e-9)
        # every row is checked against its own b and d
        with pytest.raises(DomainError):
            _oscillatory_rows([2.0, 0.0], [0.0, 0.0], 1e-9)
        with pytest.raises(DomainError):
            _oscillatory_rows([2.0, 2.0], [1.0, -2.0], 1e-9)


class TestOscillatoryRows:
    """Many emission integrals, each with its own phase, in one adaptive run."""

    @staticmethod
    def angular_rows(rng, order):
        # rows as energy_spectrum asks for them: one per Clenshaw-Curtis
        # node cos(k pi/order) of an angular order, off the dark poles
        kappa = rng.uniform(0.5, 2.0)
        zeta = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.6)
        omega = kappa * math.exp(rng.uniform(math.log(0.1), math.log(8.0)))
        us = np.cos(np.pi * np.arange(1, order) / order)
        return 2.0 * omega / kappa, zeta - us

    def test_rows_match_single_integrals(self):
        rng = np.random.default_rng(11)
        tol = 1e-6 / 8.0
        for order in (64, 128, 64, 128):
            b, ds = self.angular_rows(rng, order)
            values, errors, evals = _oscillatory_rows(b, ds, tol)
            for d, value, error, n in zip(ds, values, errors, evals):
                one = integrate_oscillatory(b, float(d), tol)
                assert one.evaluations == n
                assert abs(one.value - value) <= 1e-12 * abs(one.value) + one.abs_error
                assert abs(one.abs_error - error) <= 1e-12 * one.abs_error

    def test_chunked_wave_matches_small_batches(self):
        # a row's result must not depend on the rows sharing its waves,
        # nor on where the wave is cut into integrand calls. The rows
        # interleave three frequencies (zeta 0.4), so b changes from row to
        # row within every batch
        us, _ = np.polynomial.legendre.leggauss(192)
        omegas = np.array([0.5, 3.0, 7.0])
        b, d = (np.broadcast_to(v, (us.size, omegas.size)).ravel()
                for v in (2.0 * omegas, 0.4 - us[:, None]))
        counts = quadrature._saddle_setup(b, d, 1e-9)[5]
        assert counts.sum() > 2 * quadrature._WAVE_PANELS
        whole = _oscillatory_rows(b, d, 1e-9)
        parts = [_oscillatory_rows(b[i:i + 5], d[i:i + 5], 1e-9)
                 for i in range(0, d.size, 5)]
        for got, want in zip(whole, zip(*parts)):
            assert np.array_equal(got, np.concatenate(want))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_b_past_the_set_up_range_is_refused_quietly(self):
        # the set-up squares b, which overflows from b ~ 1e154; up to the
        # bound every row runs without a numpy warning, past it the whole
        # call refuses before any row runs
        ds = np.linspace(-1.9, 1.9, 7)
        values, _, _ = _oscillatory_rows(quadrature._B_MAX, ds, 1e-7)
        assert np.isfinite(values).all()
        for b in (np.nextafter(quadrature._B_MAX, math.inf), 1e154, 1e300):
            with pytest.raises(OverflowRangeError, match="set-up overflows"):
                _oscillatory_rows(np.array([1.0, b]), [0.3, -0.3], 1e-7)

    def test_stalled_row_raises_with_its_best(self, monkeypatch, fresh_caches):
        # the rows need 255, 165 and 375 evaluations: only the last one
        # runs out of a 300-evaluation budget
        monkeypatch.setattr(quadrature, "_MAX_EVALS", 300)
        b = 8.0
        ds = (np.array([3.0, -0.2, -5.0]) * math.sqrt(2.0) / 4.0).tolist()
        with pytest.raises(ConvergenceError) as batch:
            _oscillatory_rows(b, ds, 1e-12)
        with pytest.raises(ConvergenceError) as single:
            integrate_oscillatory(b, ds[2], tol=1e-12)
        assert batch.value.best == single.value.best
        assert batch.value.best.evaluations <= 300
        _oscillatory_rows(b, ds[:2], 1e-12)

    def test_series_head_against_oracle(self):
        # the head segment [0, h e^{i alpha}] against a 40-digit quadrature
        # that never sums the series (oracles.ray_head_segment, its values
        # frozen by regenerate_oracle_values.py), at the angle and head
        # radius the rows use, which must be the frozen ones bit for bit;
        # the nine rows, three values of b, are one call
        rows = head_rows()
        assert len(rows) == len(FROZEN["series_head"]) == 9
        b, d = np.array(rows).T
        alpha, h = quadrature._saddle_setup(b, d, 1e-9)[:2]
        values, errors = quadrature._series_head(b, d, alpha, h)
        for frozen, bb, dd, al, hc, value, error in zip(
                FROZEN["series_head"], b, d, alpha, h, values, errors):
            assert [bb.hex(), dd.hex(), al.hex(), hc.hex()] == [
                frozen[k] for k in ("b", "d", "alpha", "h")]
            want = unpair(frozen["value"])
            assert abs(value - want) <= error
            assert error <= 1e-11 * abs(want)

    def test_series_head_tail_is_inside_its_bar(self):
        # the weighted majorant terms past _HEAD_TERMS, over the splits
        # b |d| h + b h^2/2 = 3 of the head radius (the largest at d = 0),
        # stay below the _HEAD_TAIL that every head's bar carries
        worst = max(head_majorant_tail(quadrature._HEAD_TERMS, k / 10) for k in range(31))
        assert worst == head_majorant_tail(quadrature._HEAD_TERMS, 0)
        assert worst <= quadrature._HEAD_TAIL

    @staticmethod
    def head_rows(size, seed):
        # rows of mixed b and d at the angle and head radius the contour uses
        rng = np.random.default_rng(seed)
        b = rng.choice([0.3, 2.0, 9.0, 40.0, 300.0], size) * rng.choice([1.0, 1.5], size)
        d = rng.uniform(-1.95, 1.95, size)
        alpha, h = quadrature._saddle_setup(b, d, 1e-9)[:2]
        return b, d, alpha, h

    def test_series_head_rows_do_not_see_their_block(self):
        # a row's head value and bar are the same bits alone, inside a
        # 4,096-row call, and on either side of a row-block boundary,
        # wherever the call's blocks start
        rows = self.head_rows(4096, 7)
        block = quadrature._HEAD_BLOCK
        assert rows[0].size > 4 * block
        values, errors = quadrature._series_head(*rows)
        for i in (0, block - 1, block, 3 * block + 7, rows[0].size - 1):
            value, error = quadrature._series_head(*(v[i:i + 1] for v in rows))
            assert np.array_equal(value, values[i:i + 1])
            assert np.array_equal(error, errors[i:i + 1])
        value, error = quadrature._series_head(*(v[block - 3:] for v in rows))
        assert np.array_equal(value, values[block - 3:])
        assert np.array_equal(error, errors[block - 3:])

    @pytest.mark.parametrize("size", [1, 300])
    def test_series_head_sums_in_term_order(self, size):
        # the term tables give the bits of a running total that adds one
        # term at a time, the per-term loop they replace
        b, d, alpha, h = self.head_rows(size, size)
        Z = h * np.exp(1j * alpha)
        x, y = np.multiply(1j * b * d, Z), np.multiply(1j * b * Z, Z)
        w = 1.0 / (1.0 + 1j * b + np.arange(quadrature._HEAD_TERMS)[:, None])
        t0, t1 = np.ones_like(Z), x
        total = w[0] + np.multiply(w[1], t1)
        for n in range(2, quadrature._HEAD_TERMS):
            t0, t1 = t1, (np.multiply(x, t1) + np.multiply(y, t0)) * (1.0 / n)
            total += np.multiply(w[n], t1)
        scale = h * np.exp(-b * alpha) * np.exp(1j * (alpha + b * np.log(h)))
        value, _ = quadrature._series_head(b, d, alpha, h)
        assert np.array_equal(value, np.multiply(scale, total))

    def test_saddle_integrand_phasor(self):
        # e^{decay + i phase} from one tangent per node, against 40-digit
        # mpmath at the decay and phase the integrand forms (those of
        # ``plain_parts``, whose bits the next test pins), at phases out to
        # 1e6 and where |tan(phase/2)| > 1e3: each part within 2 eps of |f|
        # wherever |f| is a normal double. The rounding of the phase itself
        # is the business of the complex-exponential test below
        b = np.array([0.5, 30.0, 3e3, 1e6])
        d = np.array([-1.5, 0.4, -1.9, -1.999])
        alpha, _, _, lo, hi, counts, trig = quadrature._saddle_setup(b, d, 1e-9)
        # each initial panel cut into 64
        cuts = np.arange(65) / 64.0
        edges = lo[:, None] + (hi - lo)[:, None] * cuts
        lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
        rows = np.arange(b.size).repeat(counts * 64)
        s = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * quadrature._GK_NODES
        got = quadrature._saddle_integrand(b, d, alpha, trig)(s, rows)
        decay, phase, _ = plain_parts(b, d, alpha, s, rows)
        phase += np.where(s > 1.0, 0.5 * alpha[rows, None], alpha[rows, None])
        # nodes whose |f| is a normal double
        normal = decay > math.log(sys.float_info.min)
        assert np.abs(phase[normal]).max() > 1e6
        steep = normal & (np.abs(np.tan(0.5 * phase)) > 1e3)
        assert steep.sum() >= 10
        rng = np.random.default_rng(5)
        pick = np.concatenate([steep.ravel().nonzero()[0],
                               rng.choice(normal.ravel().nonzero()[0], 600, replace=False)])
        with mp.workdps(40):
            for k in pick:
                f = mp.exp(float(decay.flat[k])) * mp.expj(float(phase.flat[k]))
                bound = 2.0 * quadrature._EPS * abs(f)
                assert abs(got.flat[k].real - f.real) <= bound
                assert abs(got.flat[k].imag - f.imag) <= bound

    def test_saddle_integrand_keeps_the_plain_bits(self):
        # the in-place integrand gives the bits of ``plain_integrand`` on
        # ray and leg panels, where |f| is subnormal or 0, on node arrays
        # in either memory order, and in every integrand call of a wave cut
        # at _WAVE_PANELS, one integrand serving batches of every size
        rng = np.random.default_rng(41)
        b = np.concatenate([rng.uniform(0.01, 40.0, 150), rng.uniform(200.0, 1000.0, 150)])
        d = rng.uniform(-1.95, 1.95, b.size)
        alpha, _, _, lo, hi, counts, trig = quadrature._saddle_setup(b, d, 1e-9)
        rows = np.arange(b.size).repeat(counts)
        assert lo.size > quadrature._WAVE_PANELS
        g = quadrature._saddle_integrand(b, d, alpha, trig)
        calls = []

        def spy(ss, at):
            calls.append((ss.copy(), at, g(ss, at)))
            return calls[-1][2]

        quadrature._gk_panels(spy, lo, hi, rows)
        assert [c[0].shape[0] for c in calls] == [quadrature._WAVE_PANELS,
                                                   lo.size - quadrature._WAVE_PANELS]
        s = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * quadrature._GK_NODES
        calls.append((s, rows, g(s, rows)))
        calls.append((s[:7], rows[:7], g(s[:7], rows[:7])))
        for ss, at, got in calls:
            want = plain_integrand(b, d, alpha, np.ascontiguousarray(ss), at)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        got = calls[2][2]
        assert (s < 1.0).any() and (s > 1.0).any()
        modulus = np.abs(got)
        assert ((modulus > 0.0) & (modulus < sys.float_info.min)).any()
        assert (modulus == 0.0).any()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rows_from_small_b_to_the_bound_run_quietly(self):
        # the phasor's tangent and the head's tables meet no overflow,
        # invalid value or division by zero anywhere in the contour's range
        b = np.append(np.logspace(-3, 149, 20), quadrature._B_MAX)
        values, errors, _ = _oscillatory_rows(b[:, None], np.linspace(-1.9, 1.9, 5), 1e-7)
        assert np.isfinite(values).all() and np.isfinite(errors).all()

    def test_saddle_integrand_against_complex_exponential(self):
        # each panel lies on the ray or on the descent leg and takes its
        # start, direction and dw/ds from that piece; the values must match
        # exp(i b (w^2/2 + ln w + d w)) dw/ds taken in complex arithmetic,
        # on the initial panels and on bisected ones next to s = 1
        b = np.array([0.5, 4.0, 4.0, 16.0, 40.0])
        d = np.array([-1.5, -0.4, 0.6, 0.0, 1.2])
        alpha, _, _, lo, hi, counts, trig = quadrature._saddle_setup(b, d, 1e-9)
        near = 2.0 ** -np.arange(1.0, 41.0, 3.0)
        lo = np.concatenate([lo, 1.0 - near, np.ones_like(near)])
        hi = np.concatenate([hi, np.ones_like(near), 1.0 + near])
        rows = np.concatenate([np.arange(b.size).repeat(counts),
                               np.arange(2 * near.size) % b.size])
        s = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * quadrature._GK_NODES
        assert (s < 1.0).any() and (s > 1.0).any() and not (s == 1.0).any()
        got = quadrature._saddle_integrand(b, d, alpha, trig)(s, rows)
        bb, dd, al = b[rows, None], d[rows, None], alpha[rows, None]
        dw = np.where(s > 1.0, np.exp(0.5j * al), np.exp(1j * al))
        w = np.where(s > 1.0, np.exp(1j * al) + (s - 1.0) * dw, s * dw)
        want = np.exp(1j * bb * (0.5 * w * w + np.log(w) + dd * w)) * dw
        size = 1.0 + bb * (np.abs(w) ** 2 + np.abs(np.log(w)) + np.abs(dd * w))
        assert (np.abs(got - want) <= 8.0 * quadrature._EPS * size * np.abs(want)).all()

    def test_work_count(self):
        # 40 seeded batches of 16 rows at tol 1e-9, omega/kappa 0.1-12,
        # take a deterministic 89,100 evaluations on the saddle contour; the
        # pi/4 ray took 111,630, and integrating its log winding down to
        # 1e-14 R instead of summing the head took 880,725
        rng = np.random.default_rng(2024)
        total = 0
        for _ in range(40):
            kappa = rng.uniform(0.5, 2.0)
            zeta = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.6)
            omega = kappa * math.exp(rng.uniform(math.log(0.1), math.log(12.0)))
            ds = zeta - rng.uniform(-1.0, 1.0, 16)
            total += int(_oscillatory_rows(2.0 * omega / kappa, ds, 1e-9)[2].sum())
        assert total <= 98_000
