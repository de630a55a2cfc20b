"""Angular distribution and angle-integrated spectrum checks.

Three routes to the same physics exist (oscillatory quadrature, the
closed hypergeometric form, the special-angle occupancy form); the tests
pin each against frozen mpmath values and against one another only at
points where an independent reference exists.
"""
import math

import numpy as np
import pytest

from fdradiance import spectra
from fdradiance.errors import DomainError
from fdradiance.spectra import (
    EmissionDirection,
    SpectralSample,
    _exact_zeta0_samples,
    _numeric_samples,
    distribution_exact_zeta0,
    distribution_numeric,
    energy_spectrum,
    fd_partial_energy,
    fd_partial_energy_quadrature,
    fd_particle_count,
    fd_particle_count_quadrature,
    fermi_dirac_distribution,
    particle_spectrum,
    phase_spec,
    total_energy_spectral,
)
from fdradiance.trajectory import TrajectoryParams, total_energy_larmor

from oracles import exact_distribution

# frozen 60-digit values for the closed hypergeometric form
D_1_1_1_PI3 = 1.303252512116249394232e-4
D_1_1_17_11 = 8.506591474353997954576e-6
D_2_1_31_20 = 7.627328544545876641992e-8
# frozen special-angle value at kappa = omega = e^2 = 1, zeta = 0
FD_UNIT = 2.36073531151270470246e-5
# frozen 30-digit angular integral at omega = kappa = e^2 = 1, zeta = 0
I_UNIT = 7.4753226014285361776e-4


def rel(got, want):
    return abs(got - want) / abs(want)


class TestTypes:
    def test_direction_validation(self):
        EmissionDirection(0.0)
        EmissionDirection(math.pi)
        with pytest.raises(DomainError):
            EmissionDirection(-0.1)
        with pytest.raises(DomainError):
            EmissionDirection(3.2)

    def test_sample_validation(self):
        with pytest.raises(DomainError):
            SpectralSample(0.0, 1.0, 1.0, "numeric", 0.0)
        with pytest.raises(DomainError):
            SpectralSample(1.0, 1.0, -1.0, "numeric", 0.0)
        with pytest.raises(DomainError):
            SpectralSample(1.0, 1.0, 1.0, "magic", 0.0)

    def test_phase_mapping(self):
        params = TrajectoryParams(2.0, 0.3, 1.0)
        spec = phase_spec(params, 1.5, EmissionDirection(math.pi / 3))
        assert spec.quad_coeff == 2.0 * 1.5 / 4.0
        assert spec.log_coeff == 2.0 * 1.5 / 2.0
        assert rel(spec.lin_coeff, 1.5 * (0.3 - 0.5)) < 1e-15


class TestDistribution:
    def test_exact_frozen(self):
        got = distribution_exact_zeta0(1.0, 1.0, 1.0,
                                       EmissionDirection(math.pi / 3))
        assert got.method == "exact-zeta0"
        assert rel(got.value, D_1_1_1_PI3) < 1e-12
        got = distribution_exact_zeta0(1.0, 1.0, 1.7, EmissionDirection(1.1))
        assert rel(got.value, D_1_1_17_11) < 1e-12
        got = distribution_exact_zeta0(2.0, 1.0, 3.1, EmissionDirection(2.0))
        assert rel(got.value, D_2_1_31_20) < 1e-12

    def test_exact_against_live_oracle(self):
        got = distribution_exact_zeta0(1.3, 2.0, 0.9, EmissionDirection(2.2))
        want = float(exact_distribution(1.3, 2.0, 0.9, 2.2))
        assert rel(got.value, want) < 1e-12

    def test_fd_frozen(self):
        got = fermi_dirac_distribution(TrajectoryParams(1, 0, 1), 1.0)
        assert got.method == "fermi-dirac"
        assert got.theta == math.pi / 2
        assert rel(got.value, FD_UNIT) < 1e-13

    def test_fd_observation_angle_tracks_zeta(self):
        got = fermi_dirac_distribution(TrajectoryParams(1, 0.5, 1), 1.0)
        assert rel(got.theta, math.acos(0.5)) < 1e-15

    def test_fd_shape_in_zeta(self):
        # at fixed omega the zeta dependence is the pure factor (1 - zeta^2)
        base = fermi_dirac_distribution(TrajectoryParams(1, 0, 1), 0.7).value
        for zeta in (-0.9, -0.3, 0.4, 0.8):
            got = fermi_dirac_distribution(TrajectoryParams(1, zeta, 1), 0.7)
            assert rel(got.value, (1 - zeta**2) * base) < 1e-14

    def test_special_angle_reduction(self):
        # the closed form evaluated towards theta with cos(theta) = zeta = 0
        # must collapse to the occupancy form
        for w in (0.5, 1.0, 5.0):
            exact = distribution_exact_zeta0(
                1.0, 1.0, w, EmissionDirection(math.pi / 2)).value
            fd = fermi_dirac_distribution(TrajectoryParams(1, 0, 1), w).value
            assert rel(exact, fd) < 1e-10

    def test_numeric_matches_exact(self):
        for w, th in ((1.0, math.pi / 3), (2.0, 2 * math.pi / 3)):
            num = distribution_numeric(TrajectoryParams(1, 0, 1), w,
                                       EmissionDirection(th), 1e-8)
            exact = distribution_exact_zeta0(1.0, 1.0, w,
                                             EmissionDirection(th))
            assert rel(num.value, exact.value) < 1e-6
            assert abs(num.value - exact.value) <= num.abs_error \
                + 1e-15 * exact.value

    def test_numeric_beam_axis_is_dark(self):
        params = TrajectoryParams(1, 0, 1)
        got = distribution_numeric(params, 1.0, EmissionDirection(0.0), 1e-8)
        assert got.value == 0.0
        # float pi is not exactly pi, so only near-darkness can be asked for
        got = distribution_numeric(params, 1.0, EmissionDirection(math.pi),
                                   1e-8)
        assert got.value < 1e-35

    def test_numeric_at_nonzero_zeta_special_angle(self):
        # no closed form exists off zeta = 0 except at the special angle
        zeta = -0.4
        params = TrajectoryParams(1, zeta, 1)
        fd = fermi_dirac_distribution(params, 1.0)
        num = distribution_numeric(params, 1.0,
                                   EmissionDirection(math.acos(zeta)), 1e-8)
        assert rel(num.value, fd.value) < 1e-7

    def test_exact_batch_matches_single_points(self):
        # the CLI evaluates every theta of one omega in one closed-form call;
        # each sample must be bit-identical to the one-point call
        rng = np.random.default_rng(4)
        for _ in range(10):
            kappa = rng.uniform(0.5, 2.0)
            params = TrajectoryParams(kappa, 0.0, rng.uniform(0.5, 2.0))
            omega = kappa * rng.uniform(0.1, 4.0)
            thetas = [0.0, math.pi, *rng.uniform(0.0, math.pi, 17)]
            batch = _exact_zeta0_samples(params, omega, thetas)
            single = [distribution_exact_zeta0(
                          params.kappa, params.e_squared, omega,
                          EmissionDirection(th)) for th in thetas]
            assert batch == single

    def test_numeric_batch_matches_single_points(self):
        # the angular rule and the CLI evaluate every theta of one omega in
        # one batched quadrature run; each sample must equal the one-point call
        rng = np.random.default_rng(6)
        for _ in range(6):
            kappa = rng.uniform(0.5, 2.0)
            params = TrajectoryParams(kappa, rng.uniform(-0.6, 0.6),
                                      rng.uniform(0.5, 2.0))
            omega = kappa * rng.uniform(0.1, 8.0)
            thetas = [0.0, math.pi, *rng.uniform(0.0, math.pi, 9)]
            batch = _numeric_samples(params, omega, thetas, 1e-8)
            single = [distribution_numeric(params, omega, EmissionDirection(th),
                                           1e-8) for th in thetas]
            assert batch == single

    def test_numeric_dark_rows_skip_the_integral(self, monkeypatch):
        # sin^2(theta) = 0 rows are exactly 0 and never reach the quadrature
        rows = []
        batched = spectra._oscillatory_rows

        def counting(a, b, cs, tol, delta):
            rows.append(len(cs))
            return batched(a, b, cs, tol, delta)

        monkeypatch.setattr(spectra, "_oscillatory_rows", counting)
        params = TrajectoryParams(1.0, 0.3, 1.0)
        got = _numeric_samples(params, 1.5, [0.0, 1.0, 0.0, 2.0], 1e-8)
        assert rows == [2]
        assert [(s.value, s.abs_error) for s in got[::2]] == [(0.0, 0.0)] * 2
        assert all(s.value > 0.0 for s in got[1::2])
        assert _numeric_samples(params, 1.5, [0.0], 1e-8)[0].value == 0.0
        assert rows == [2]

    def test_validation(self):
        params = TrajectoryParams(1, 0, 1)
        with pytest.raises(DomainError):
            distribution_numeric(params, 0.0, EmissionDirection(1.0), 1e-8)
        with pytest.raises(DomainError):
            distribution_numeric(params, 1.0, EmissionDirection(1.0), 0.5)
        with pytest.raises(DomainError):
            distribution_exact_zeta0(1.0, 1.0, -1.0, EmissionDirection(1.0))


class TestIntegratedSpectrum:
    def test_frozen_angular_integral(self):
        got = energy_spectrum(TrajectoryParams(1, 0, 1), 1.0, tol=1e-8)
        assert rel(got, I_UNIT) < 1e-8

    def test_particle_is_energy_over_frequency(self):
        params = TrajectoryParams(1, 0, 1)
        i2 = energy_spectrum(params, 2.0, tol=1e-6)
        n2 = particle_spectrum(params, 2.0, tol=1e-6)
        assert rel(n2, i2 / 2.0) < 1e-14

    def test_spectrum_decays(self):
        params = TrajectoryParams(1, 0, 1)
        vals = [energy_spectrum(params, w, tol=1e-6) for w in (1.0, 3.0, 6.0)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_numeric_angular_route_agrees(self):
        # same angular integral with the closed form switched off
        params = TrajectoryParams(1, 0, 1)
        exact = energy_spectrum(params, 1.0, tol=1e-8)
        numeric = energy_spectrum(params, 1.0, tol=1e-5, force_numeric=True)
        assert rel(numeric, exact) < 1e-4

    def test_total_energy_closure(self):
        params = TrajectoryParams(1, 0, 1)
        spectral = total_energy_spectral(params, tol=1e-4)
        larmor = total_energy_larmor(params)
        assert rel(spectral, larmor) < 1e-3


class TestPartialForms:
    def test_partial_energy_closed_vs_quadrature(self):
        params = TrajectoryParams(1.7, -0.3, 2.0)
        closed = fd_partial_energy(params)
        quad = fd_partial_energy_quadrature(params)
        assert rel(quad, closed) < 1e-10

    def test_particle_count_closed_vs_quadrature(self):
        params = TrajectoryParams(0.8, 0.45, 1.5)
        closed = fd_particle_count(params)
        quad = fd_particle_count_quadrature(params)
        assert rel(quad, closed) < 1e-10

    def test_partial_below_total(self):
        for zeta in (-0.5, 0.0, 0.5):
            params = TrajectoryParams(1.0, zeta, 1.0)
            assert fd_partial_energy(params) < total_energy_larmor(params)

    def test_partial_scales_with_charge(self):
        a = fd_partial_energy(TrajectoryParams(1, 0.2, 1.0))
        b = fd_partial_energy(TrajectoryParams(1, 0.2, 2.5))
        assert rel(b, 2.5 * a) < 1e-15

    def test_count_independent_of_kappa(self):
        a = fd_particle_count(TrajectoryParams(1.0, 0.2, 1.0))
        b = fd_particle_count(TrajectoryParams(5.0, 0.2, 1.0))
        assert rel(b, a) < 1e-15
