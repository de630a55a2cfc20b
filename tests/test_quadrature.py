"""Adaptive, semi-infinite, and oscillatory integration checks.

The oscillatory route is compared against a damped-limit oracle that
never leaves the real axis (oracles.py), so the two routes share no
code and no contour.
"""
import cmath
import math

import numpy as np
import pytest

from fdradiance import quadrature
from fdradiance.errors import ConvergenceError, DomainError, NonFiniteError
from fdradiance.quadrature import (
    OscillatoryPhaseSpec,
    QuadratureResult,
    _oscillatory_rows,
    integrate_adaptive,
    integrate_oscillatory,
    integrate_semi_infinite,
)

from oracles import damped_phase_integral

# frozen by 60-digit quadrature of the rotated integrand
J_HALF_4_M1 = 0.008701515102645193900047 + 0.02261928691557165995927j
J_QUARTER_2_MHALF = 0.1675266879998185115067 + 0.2411238115320679098155j
FRESNEL = 0.6266570686577501256039


def rel(got, want):
    return abs(got - want) / abs(want)


class TestTypes:
    def test_result_validation(self):
        with pytest.raises(DomainError):
            QuadratureResult(1.0, -1e-3, 15)
        with pytest.raises(DomainError):
            QuadratureResult(1.0, 1e-3, 0)
        with pytest.raises(NonFiniteError):
            QuadratureResult(math.nan, 1e-3, 15)

    def test_spec_validation(self):
        OscillatoryPhaseSpec(1.0, 0.0, -3.0)  # zero log term is allowed
        with pytest.raises(DomainError):
            OscillatoryPhaseSpec(0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            OscillatoryPhaseSpec(-1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            OscillatoryPhaseSpec(1.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            OscillatoryPhaseSpec(1.0, 1.0, math.inf)


class TestAdaptive:
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

    def test_point_seeding_helps_at_kinks(self):
        f = lambda x: np.abs(x - 1.0)
        plain = integrate_adaptive(f, 0.0, 2.0, tol=1e-12)
        seeded = integrate_adaptive(f, 0.0, 2.0, tol=1e-12, points=[1.0])
        assert rel(plain.value, 1.0) < 1e-13
        assert rel(seeded.value, 1.0) < 1e-14
        assert seeded.evaluations < plain.evaluations

    def test_infinite_bound_rejected(self):
        # [0, inf) has its own entry, integrate_semi_infinite
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: np.exp(-x * x), 0.0, math.inf)
        with pytest.raises(DomainError):
            integrate_adaptive(lambda x: np.exp(-x * x), -math.inf, 0.0)

    def test_budget_exhaustion(self):
        with pytest.raises(ConvergenceError) as info:
            integrate_adaptive(lambda x: np.sin(50 * x), 0.0, 10.0,
                               tol=1e-13, max_evals=200)
        assert info.value.best is not None

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

    def test_scale_invariance(self):
        f = lambda x: np.exp(-x / 7.0)
        for scale in (1.0, 7.0, 50.0):
            res = integrate_semi_infinite(f, scale=scale, tol=1e-11)
            assert rel(res.value, 7.0) < 1e-10


class TestOscillatory:
    def test_fresnel(self):
        res = integrate_oscillatory(OscillatoryPhaseSpec(1.0, 0.0, 0.0),
                                    tol=1e-10)
        assert rel(res.value, FRESNEL * (1 + 1j)) < 1e-10

    def test_frozen_values(self):
        got = integrate_oscillatory(OscillatoryPhaseSpec(0.5, 4.0, -1.0),
                                    tol=1e-10)
        assert rel(got.value, J_HALF_4_M1) < 1e-9
        got = integrate_oscillatory(OscillatoryPhaseSpec(0.25, 2.0, -0.5),
                                    tol=1e-10)
        assert rel(got.value, J_QUARTER_2_MHALF) < 1e-9

    def test_reported_error_honest(self):
        res = integrate_oscillatory(OscillatoryPhaseSpec(0.5, 4.0, -1.0),
                                    tol=1e-9)
        assert abs(res.value - J_HALF_4_M1) <= res.abs_error \
            + 1e-14 * abs(J_HALF_4_M1)

    def test_rotation_angle_independence(self):
        spec = OscillatoryPhaseSpec(0.5, 4.0, -1.0)
        tol = 1e-9
        results = [integrate_oscillatory(spec, tol=tol, delta=d)
                   for d in (math.pi / 8, math.pi / 6, math.pi / 4)]
        for i in range(len(results)):
            for j in range(i + 1, len(results)):
                gap = abs(results[i].value - results[j].value)
                allowance = 10.0 * tol * max(abs(results[i].value),
                                             abs(results[j].value))
                assert gap <= allowance + results[i].abs_error \
                    + results[j].abs_error

    def test_rescaling_identity(self):
        # substituting z -> s z maps (a, b, c) to (a s^2, b, c s) up to
        # the factor s e^(i b ln s); checks the integrator against itself
        # at genuinely different phase coefficients
        a, b, c, s = 0.5, 4.0, -1.0, 2.0
        base = integrate_oscillatory(OscillatoryPhaseSpec(a, b, c), tol=1e-10)
        mapped = integrate_oscillatory(
            OscillatoryPhaseSpec(a * s**2, b, c * s), tol=1e-10)
        factor = s * cmath.exp(1j * b * math.log(s))
        assert rel(base.value, factor * mapped.value) < 5e-9

    def test_against_damped_oracle(self):
        # the damping ladder is out of regime below quad_coeff ~ 0.1, so
        # the smallest frequency starts at 0.5
        worst = 0.0
        for w in (0.5, 1.0, 2.0, 3.0, 4.0):
            for th in (math.pi / 6, math.pi / 3, math.pi / 2,
                       2 * math.pi / 3, 5 * math.pi / 6):
                spec = OscillatoryPhaseSpec(w / 4.0, 2.0 * w,
                                            -w * math.cos(th))
                got = integrate_oscillatory(spec, tol=1e-9).value
                want = damped_phase_integral(spec.quad_coeff, spec.log_coeff,
                                             spec.lin_coeff)
                worst = max(worst, abs(got - want) / abs(want))
        assert worst < 1e-4

    def test_argument_validation(self):
        spec = OscillatoryPhaseSpec(1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate_oscillatory(spec, tol=0.1)
        with pytest.raises(DomainError):
            integrate_oscillatory(spec, tol=0.0)
        with pytest.raises(DomainError):
            integrate_oscillatory(spec, delta=0.0)
        with pytest.raises(DomainError):
            integrate_oscillatory(spec, delta=math.pi / 2)


class TestOscillatoryRows:
    """Many emission integrals of one frequency refined in one adaptive run."""

    @staticmethod
    def angular_rows(rng, order):
        # the rows energy_spectrum asks for: one per Gauss-Legendre node
        kappa = rng.uniform(0.5, 2.0)
        zeta = rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 0.6)
        omega = kappa * math.exp(rng.uniform(math.log(0.1), math.log(8.0)))
        us, _ = np.polynomial.legendre.leggauss(order)
        return 0.25 * kappa * omega, 2.0 * omega / kappa, omega * (zeta - us)

    def test_rows_match_single_integrals(self):
        rng = np.random.default_rng(11)
        tol = 1e-6 / 8.0
        for order in (64, 128, 64, 128):
            a, b, cs = self.angular_rows(rng, order)
            values, errors, evals = _oscillatory_rows(a, b, cs, tol, math.pi / 4)
            for c, value, error, n in zip(cs, values, errors, evals):
                one = integrate_oscillatory(OscillatoryPhaseSpec(a, b, float(c)), tol)
                assert one.evaluations == n
                assert abs(one.value - value) <= 1e-12 * abs(one.value) + one.abs_error
                assert abs(one.abs_error - error) <= 1e-12 * one.abs_error

    def test_chunked_wave_matches_small_batches(self):
        # a row's result must not depend on the rows sharing its waves,
        # nor on where the wave is cut into integrand calls
        us, _ = np.polynomial.legendre.leggauss(128)
        a, b, cs = 0.75, 6.0, 3.0 * (0.4 - us)     # kappa 1, zeta 0.4, omega 3
        panels = sum(quadrature._ray_panels(
            a, b, c, math.pi / 4, quadrature._ray_cutoff(a, b, c, math.pi / 4, 1e-9)).size - 1
            for c in cs)
        assert panels > quadrature._WAVE_PANELS
        whole = _oscillatory_rows(a, b, cs, 1e-9, math.pi / 4)
        parts = [_oscillatory_rows(a, b, cs[i:i + 5], 1e-9, math.pi / 4)
                 for i in range(0, cs.size, 5)]
        for got, want in zip(whole, zip(*parts)):
            assert np.array_equal(got, np.concatenate(want))

    def test_stalled_row_raises_with_its_best(self, monkeypatch):
        # budgets scale with max(1, |c|/sqrt(a)): only the c = -0.2 row
        # runs out of a 700-evaluation budget
        monkeypatch.setattr(quadrature, "_MAX_EVALS", 700)
        a, b = 0.5, 4.0
        with pytest.raises(ConvergenceError) as batch:
            _oscillatory_rows(a, b, [3.0, -0.2, -6.0], 1e-10, math.pi / 4)
        with pytest.raises(ConvergenceError) as single:
            integrate_oscillatory(OscillatoryPhaseSpec(a, b, -0.2), tol=1e-10)
        assert batch.value.best == single.value.best
        assert batch.value.best.evaluations <= 700
        _oscillatory_rows(a, b, [3.0, -6.0], 1e-10, math.pi / 4)
