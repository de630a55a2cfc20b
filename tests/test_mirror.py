"""Mode mapping, pair-creation coefficients, and the two-sided duality."""
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from fdradiance.errors import (
    ConstraintError,
    DomainError,
    OverflowRangeError,
    RegimeError,
)
from fdradiance.mirror import (
    beta_squared_fd,
    beta_squared_fd_limit,
    beta_squared_from_distribution,
    map_to_modes,
    mirror_fd_energy,
    mirror_fd_energy_quadrature,
    mirror_particle_count,
    mirror_particle_count_quadrature,
)
from fdradiance.spectra import (
    EmissionDirection,
    distribution_numeric,
    fd_partial_energy,
    fd_partial_energy_quadrature,
    fd_particle_count,
    fd_particle_count_quadrature,
    fermi_dirac_distribution,
)
from fdradiance.trajectory import TrajectoryParams

# frozen: occupancy form at p = q = 0.5, kappa = 1, zeta = 0
BETA2_HALF = 2.966587484687330053575e-4


def rel(got, want):
    return abs(got - want) / abs(want)


class TestModes:
    def test_pair_validation(self):
        # the pair rules come before the constraint: p, q >= 0 and finite,
        # and p + q > 0; a zero p or q is a pair on the line near zeta -+1
        assert beta_squared_fd(0.0, 1.0, 1.0, -1.0 + 1e-12) > 0.0
        assert beta_squared_fd(1.0, 0.0, 1.0, 1.0 - 1e-12) > 0.0
        for p, q in [(-0.1, 1.0), (1.0, -0.1), (math.inf, 1.0), (1.0, math.nan)]:
            with pytest.raises(DomainError, match="non-negative and finite"):
                beta_squared_fd(p, q, 1.0, 0.0)
        with pytest.raises(DomainError, match=r"p \+ q > 0"):
            beta_squared_fd([0.5, 0.0], [0.5, 0.0], 1.0, 0.0)

    def test_map_splits_frequency(self):
        p, q = map_to_modes(1.0, math.pi / 2)
        assert p == pytest.approx(0.5, rel=1e-15)
        assert q == pytest.approx(0.5, rel=1e-15)
        p, q = map_to_modes(2.0, 0.0)
        assert p == 2.0 and q == 0.0
        p, q = map_to_modes(2.0, math.pi)
        assert q == pytest.approx(2.0, rel=1e-15)
        assert p < 1e-31
        assert isinstance(p, np.float64)

    def test_map_refuses_its_domain(self):
        with pytest.raises(DomainError, match="omega"):
            map_to_modes([1.0, 0.0], 1.0)
        with pytest.raises(DomainError, match="theta"):
            map_to_modes(1.0, [1.0, 3.2])

    def test_map_conserves_total(self):
        rng = np.random.default_rng(417)
        omega = rng.uniform(0.1, 10.0, 50)
        theta = rng.uniform(0.0, math.pi, 50)
        p, q = map_to_modes(omega, theta)
        assert np.all(np.abs(p + q - omega) / omega < 1e-15)


class TestBetaSquared:
    def test_frozen_value(self):
        got = beta_squared_fd(0.5, 0.5, 1.0, 0.0)
        assert rel(got, BETA2_HALF) < 1e-13

    def test_constraint_enforced(self):
        with pytest.raises(ConstraintError):
            beta_squared_fd(0.9, 0.1, 1.0, 0.0)
        with pytest.raises(ConstraintError):
            beta_squared_fd(0.5, 0.5, 1.0, 0.3)
        # a grid is refused at its first pair off the line
        with pytest.raises(ConstraintError, match=r"p=0\.9, q=0\.1\)"):
            beta_squared_fd([0.5, 0.9, 0.8], [0.5, 0.1, 0.2], 1.0, 0.0)

    def test_overflow_is_refused(self):
        # a |beta|^2 past the largest double is a range failure, named at
        # the first frequency that overflows
        with pytest.raises(OverflowRangeError, match="frequency 9.99989e-321,"):
            beta_squared_fd([0.5, 5e-321, 5e-322], [0.5, 5e-321, 5e-322], 1.0, 0.0)
        with pytest.raises(OverflowRangeError):
            beta_squared_fd(5e-161, 5e-161, 1e-155, 0.0)
        with pytest.raises(OverflowRangeError):
            beta_squared_fd_limit(1e-320, 1.0, -0.95)
        # omega^2 underflows to 0 under a lit sample; a dark one's 0 stays 0
        with pytest.raises(OverflowRangeError, match="frequency 1e-170 "):
            beta_squared_from_distribution([1.0, 1e-170], 1e-4, 1.0)
        assert beta_squared_from_distribution(1e-170, 0.0, 1.0) == 0.0

    def test_underflow_is_zero(self):
        # at kappa 1e-310 the prefactor overflows but the occupancy
        # e^{-2 pi u/kappa} underflows faster: the true |beta|^2 is 0.
        # Where it does not underflow, the log form keeps the scaling
        # |beta|^2(u, kappa) = |beta|^2(u/kappa, 1)/kappa^2 to the log's
        # roundoff
        assert beta_squared_fd(0.05, 0.05, 1e-310, 0.0) == 0.0
        assert beta_squared_fd_limit(0.1, 1e-310, -0.95) == 0.0
        tiny = beta_squared_fd(5e-156, 5e-156, 1e-155, 0.0)
        unit = beta_squared_fd(0.5, 0.5, 1.0, 0.0)
        assert tiny / 1e155 == pytest.approx(unit * 1e155, rel=1e-12)
        # the occupancy e^{-754} underflows, but the true |beta|^2 does not:
        # the log form takes ln occupancy as -x
        u, kappa = 0.6e-168 + 0.6e-168, 1e-170
        with mp.workdps(60):
            x = 2 * mp.pi * mp.mpf(u) / mp.mpf(kappa)
            want = 1 / (2 * mp.pi * mp.mpf(u) * mp.mpf(kappa)) / (mp.exp(x) + 1)
        assert rel(beta_squared_fd(0.6e-168, 0.6e-168, kappa, 0.0), want) < 1e-12

    def test_constraint_accepts_matched_pair(self):
        zeta = 0.3
        u = 1.4
        assert beta_squared_fd(u * (1 + zeta) / 2, u * (1 - zeta) / 2, 1.0, zeta) > 0.0

    def test_round_trip_through_distribution(self):
        # numeric emission sample -> coefficient -> emission again
        params = TrajectoryParams(1, 0, 1)
        omega, theta = 1.0, math.pi / 3
        sample = distribution_numeric(params, omega,
                                      EmissionDirection(theta), 1e-8)
        beta2 = beta_squared_from_distribution(sample.omega, sample.value, 1.0)
        back = 1.0 * omega**2 / (4.0 * math.pi) * beta2
        assert rel(back, sample.value) < 1e-12

    @given(kappa=st.floats(0.01, 100.0), zeta=st.floats(-0.99, 0.99),
           e_squared=st.floats(1e-3, 10.0), y=st.floats(1e-3, 50.0))
    def test_matches_special_angle_emission(self, kappa, zeta, e_squared, y):
        # at the observation angle cos(theta0) = zeta the emission sample
        # and the occupancy coefficient describe the same quantum: emission
        # -> |beta|^2 matches the closed form on the sample's modes, and
        # |beta|^2 -> emission gives the sample back
        params = TrajectoryParams(kappa, zeta, e_squared)
        omega = y * kappa
        sample = fermi_dirac_distribution(params, omega)
        via_sample = beta_squared_from_distribution(omega, sample.value, e_squared)
        direct = beta_squared_fd(*map_to_modes(omega, sample.theta), kappa, zeta)
        assert rel(via_sample, direct) < 1e-12
        back = e_squared * omega**2 / (4.0 * math.pi) * via_sample
        assert rel(back, sample.value) < 1e-13


class TestNearMinusOneLimit:
    def test_regime_guard(self):
        with pytest.raises(RegimeError):
            beta_squared_fd_limit(1.0, 1.0, -0.5)
        with pytest.raises(RegimeError):
            beta_squared_fd_limit(1.0, 1.0, 0.0)

    @pytest.mark.parametrize("q", [0.0, -1.0, math.inf, math.nan])
    def test_bad_frequency(self, q):
        with pytest.raises(DomainError, match="q must"):
            beta_squared_fd_limit(q, 1.0, -0.95)

    def test_limit_tracks_full_form(self):
        zeta = -0.99
        u = np.array([0.5, 1.0, 3.0])
        full = beta_squared_fd(u * (1 + zeta) / 2, u * (1 - zeta) / 2, 1.0, zeta)
        lim = beta_squared_fd_limit(u, 1.0, zeta)
        assert np.all(np.abs(lim / full - 1.0) <= 2.0 * abs(1.0 + zeta))


class TestSummaries:
    def test_energy_closed_vs_quadrature(self):
        assert rel(mirror_fd_energy_quadrature(2.2, 0.4),
                   mirror_fd_energy(2.2, 0.4)) < 1e-10

    def test_count_closed_vs_quadrature(self):
        assert rel(mirror_particle_count_quadrature(-0.35),
                   mirror_particle_count(-0.35)) < 1e-10
        # the count carries no scale, whatever scale the companion used
        assert rel(mirror_particle_count_quadrature(-0.35, kappa=3.0),
                   mirror_particle_count(-0.35)) < 1e-10

    def test_energy_symmetric_in_zeta(self):
        assert mirror_fd_energy(1.0, 0.6) == mirror_fd_energy(1.0, -0.6)

    def test_duality_against_emission_side(self):
        for zeta in (-0.5, 0.0, 0.5):
            params = TrajectoryParams(1.3, zeta, 0.7)
            e2 = params.e_squared
            # at kappa >= e^2 the emission side takes kappa before e^2
            assert fd_partial_energy(params) == e2 * mirror_fd_energy(1.3, zeta)
            assert fd_particle_count(params) == e2 * mirror_particle_count(zeta)

    @pytest.mark.parametrize("zeta", [1 - 2**-30, -(1 - 2**-30), 0.999999])
    def test_totals_near_zeta_one_against_oracle(self, zeta):
        # 1 - zeta^2 formed by subtraction would cancel to about 1e-10 here
        kappa, e2 = 1.3, 0.7
        params = TrajectoryParams(kappa, zeta, e2)
        p, q = 0.7 * (1 + zeta) / 2, 0.7 * (1 - zeta) / 2
        with mp.workdps(60):
            unit = 1 - mp.mpf(zeta) ** 2
            energy = unit * mp.mpf(kappa) / (192 * mp.pi)
            count = unit * mp.log(2) / (8 * mp.pi**2)
            u = mp.mpf(p + q)
            beta2 = unit / (2 * mp.pi * u * kappa) / (mp.exp(2 * mp.pi * u / kappa) + 1)
        for got, want in [(fd_partial_energy(params), e2 * energy),
                          (fd_partial_energy_quadrature(params), e2 * energy),
                          (fd_particle_count(params), e2 * count),
                          (fd_particle_count_quadrature(params), e2 * count),
                          (mirror_fd_energy(kappa, zeta), energy),
                          (mirror_fd_energy_quadrature(kappa, zeta), energy),
                          (mirror_particle_count(zeta), count),
                          (mirror_particle_count_quadrature(zeta, kappa), count),
                          (beta_squared_fd(p, q, kappa, zeta), beta2)]:
            assert rel(got, want) < 1e-14

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            mirror_fd_energy(0.0, 0.0)
        with pytest.raises(DomainError):
            mirror_fd_energy(1.0, 1.0)
        with pytest.raises(DomainError):
            mirror_particle_count(-1.0)
