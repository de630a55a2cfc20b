"""Mode mapping, pair-creation coefficients, and the two-sided duality."""
import math

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
    BetaCoefficient,
    ModePair,
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
    fd_particle_count,
    fermi_dirac_distribution,
)
from fdradiance.trajectory import TrajectoryParams

# frozen: occupancy form at p = q = 0.5, kappa = 1, zeta = 0
BETA2_HALF = 2.966587484687330053575e-4


def rel(got, want):
    return abs(got - want) / abs(want)


class TestModes:
    def test_pair_validation(self):
        ModePair(0.0, 1.0)
        ModePair(1.0, 0.0)
        with pytest.raises(DomainError):
            ModePair(-0.1, 1.0)
        with pytest.raises(DomainError):
            ModePair(1.0, -0.1)
        with pytest.raises(DomainError):
            ModePair(0.0, 0.0)

    def test_map_splits_frequency(self):
        pair = map_to_modes(1.0, EmissionDirection(math.pi / 2))
        assert pair.p == pytest.approx(0.5, rel=1e-15)
        assert pair.q == pytest.approx(0.5, rel=1e-15)
        pair = map_to_modes(2.0, EmissionDirection(0.0))
        assert pair.p == 2.0 and pair.q == 0.0
        pair = map_to_modes(2.0, EmissionDirection(math.pi))
        assert pair.q == pytest.approx(2.0, rel=1e-15)
        assert pair.p < 1e-31

    def test_map_conserves_total(self):
        rng = np.random.default_rng(417)
        for _ in range(50):
            omega = float(rng.uniform(0.1, 10.0))
            theta = float(rng.uniform(0.0, math.pi))
            pair = map_to_modes(omega, EmissionDirection(theta))
            assert rel(pair.p + pair.q, omega) < 1e-15


class TestBetaSquared:
    def test_frozen_value(self):
        got = beta_squared_fd(ModePair(0.5, 0.5), 1.0, 0.0)
        assert rel(got.beta_squared, BETA2_HALF) < 1e-13

    def test_constraint_enforced(self):
        with pytest.raises(ConstraintError):
            beta_squared_fd(ModePair(0.9, 0.1), 1.0, 0.0)
        with pytest.raises(ConstraintError):
            beta_squared_fd(ModePair(0.5, 0.5), 1.0, 0.3)

    def test_overflow_is_refused(self):
        # a coefficient the caller builds keeps its DomainError; one the
        # closed forms compute past the largest double is a range failure
        with pytest.raises(DomainError):
            BetaCoefficient(ModePair(0.5, 0.5), math.inf)
        with pytest.raises(OverflowRangeError):
            beta_squared_fd(ModePair(5e-321, 5e-321), 1.0, 0.0)
        with pytest.raises(OverflowRangeError):
            beta_squared_fd(ModePair(5e-161, 5e-161), 1e-155, 0.0)
        with pytest.raises(OverflowRangeError):
            beta_squared_fd_limit(1e-320, 1.0, -0.95)

    def test_underflow_is_zero(self):
        # at kappa 1e-310 the prefactor overflows but the occupancy
        # e^{-2 pi u/kappa} underflows faster: the true |beta|^2 is 0.
        # Where it does not underflow, the log form keeps the scaling
        # |beta|^2(u, kappa) = |beta|^2(u/kappa, 1)/kappa^2 to the log's
        # roundoff
        assert beta_squared_fd(ModePair(0.05, 0.05), 1e-310, 0.0).beta_squared == 0.0
        assert beta_squared_fd_limit(0.1, 1e-310, -0.95).beta_squared == 0.0
        tiny = beta_squared_fd(ModePair(5e-156, 5e-156), 1e-155, 0.0).beta_squared
        unit = beta_squared_fd(ModePair(0.5, 0.5), 1.0, 0.0).beta_squared
        assert tiny / 1e155 == pytest.approx(unit * 1e155, rel=1e-12)

    def test_constraint_accepts_matched_pair(self):
        zeta = 0.3
        u = 1.4
        pair = ModePair(u * (1 + zeta) / 2, u * (1 - zeta) / 2)
        got = beta_squared_fd(pair, 1.0, zeta)
        assert got.beta_squared > 0.0

    def test_round_trip_through_distribution(self):
        # numeric emission sample -> coefficient -> emission again
        params = TrajectoryParams(1, 0, 1)
        omega, theta = 1.0, math.pi / 3
        sample = distribution_numeric(params, omega,
                                      EmissionDirection(theta), 1e-8)
        beta = beta_squared_from_distribution(sample, 1.0)
        back = 1.0 * omega**2 / (4.0 * math.pi) * beta.beta_squared
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
        via_sample = beta_squared_from_distribution(sample, e_squared)
        direct = beta_squared_fd(via_sample.modes, kappa, zeta)
        assert rel(via_sample.beta_squared, direct.beta_squared) < 1e-12
        back = e_squared * omega**2 / (4.0 * math.pi) * via_sample.beta_squared
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

    def test_limit_modes(self):
        zeta = -0.95
        got = beta_squared_fd_limit(2.0, 1.0, zeta)
        assert got.modes.q == 2.0
        assert rel(got.modes.p, 2.0 * (1 + zeta) / (1 - zeta)) < 1e-13

    def test_limit_tracks_full_form(self):
        zeta = -0.99
        for u in (0.5, 1.0, 3.0):
            full = beta_squared_fd(
                ModePair(u * (1 + zeta) / 2, u * (1 - zeta) / 2), 1.0, zeta)
            lim = beta_squared_fd_limit(u, 1.0, zeta)
            assert abs(lim.beta_squared / full.beta_squared - 1.0) \
                <= 2.0 * abs(1.0 + zeta)


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
            assert rel(fd_partial_energy(params),
                       e2 * mirror_fd_energy(1.3, zeta)) < 1e-14
            assert rel(fd_particle_count(params),
                       e2 * mirror_particle_count(zeta)) < 1e-14

    def test_argument_validation(self):
        with pytest.raises(DomainError):
            mirror_fd_energy(0.0, 0.0)
        with pytest.raises(DomainError):
            mirror_fd_energy(1.0, 1.0)
        with pytest.raises(DomainError):
            mirror_particle_count(-1.0)
