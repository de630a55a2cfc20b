"""Property checks over drawn inputs, each against an independent route.

The inputs come from hypothesis; the profile registered in conftest.py
draws the same examples on every run.
"""
import cmath
import math
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from fdradiance.errors import OverflowRangeError
from fdradiance.mirror import map_to_modes
from fdradiance.spectra import (
    EmissionDirection,
    distribution_grid,
    energy_spectrum,
    fermi_dirac_distribution,
    total_energy_spectral,
)
from fdradiance.specfun import ln_gamma
from fdradiance.trajectory import (
    TrajectoryParams,
    coordinate_time,
    position_at_time,
    total_energy_larmor,
)

KAPPA = st.floats(0.5, 2.0)


def rel(got, want):
    return abs(got - want) / abs(want)


@given(kappa=KAPPA, y=st.floats(0.1, 8.0))
def test_exact_spectrum_matches_quadrature(kappa, y):
    # the closed form at zeta = 0 against direct quadrature of each direction
    params = TrajectoryParams(kappa, 0.0)
    tol = 1e-6
    exact = energy_spectrum(params, y * kappa, tol)
    numeric = energy_spectrum(params, y * kappa, tol, force_numeric=True)
    assert rel(exact, numeric) < 10 * tol


@given(kappa=KAPPA, y=st.floats(0.05, 3.0), theta=st.floats(0.0, math.pi))
def test_numeric_matches_exact_pointwise_at_zeta0(kappa, y, theta):
    # the quadrature of the emission integral against the closed form at
    # zeta = 0, direction by direction over all of [0, pi], poles included.
    # Within 1e-9 relative; below the smallest normal double (theta under
    # about 1e-150 from a pole) the values are subnormal and lose digits,
    # so there the 1e-9 is taken of that smallest normal
    params = TrajectoryParams(kappa, 0.0)
    [num] = distribution_grid(params, [y * kappa], [theta], "numeric", 1e-10)
    [exact] = distribution_grid(params, [y * kappa], [theta], "exact-zeta0")
    assert abs(num.value - exact.value) <= 1e-9 * max(exact.value, sys.float_info.min)


@given(kappa=KAPPA, zeta=st.floats(-0.9, 0.9), y=st.floats(0.1, 40.0))
def test_numeric_matches_fermi_dirac_at_the_special_angle(kappa, zeta, y):
    # at cos(theta) = zeta the quadrature of the phase integral against the
    # closed Fermi-Dirac form, within the sample's own error bar and to
    # 1e-10 relative, out to omega/kappa 40
    params = TrajectoryParams(kappa, zeta)
    tol = 1e-9
    [num] = distribution_grid(params, [y * kappa], [math.acos(zeta)], "numeric", tol)
    fd = fermi_dirac_distribution(params, y * kappa).value
    assert abs(num.value - fd) <= num.abs_error + tol * fd
    assert rel(num.value, fd) <= 1e-10


@settings(max_examples=4)
@given(kappa=KAPPA)
def test_spectral_energy_closes_against_larmor(kappa):
    # the frequency integral of the closed-form spectrum against the
    # worldline integral
    params = TrajectoryParams(kappa, 0.0)
    assert rel(total_energy_spectral(params, 1e-4),
               total_energy_larmor(params)) < 1e-3


@settings(max_examples=300)
@given(kappa=st.floats(0.01, 100.0),
       zeta=st.floats(-0.99, 0.99, exclude_min=True, exclude_max=True),
       t=st.floats(-1e308, 1e308))
def test_position_at_time_inverts_coordinate_time(kappa, zeta, t):
    # the root finder against the closed-form t(z) it inverts, over the
    # whole float range of t; z below the smallest normal double refuses
    params = TrajectoryParams(kappa, zeta)
    try:
        z = position_at_time(params, t)
    except OverflowRangeError:
        return
    assert abs(coordinate_time(params, z) - t) <= 1e-12 * max(1.0, abs(t))


@settings(max_examples=300)
@given(omega=st.floats(0.0, sys.float_info.max, exclude_min=True),
       theta=st.floats(0.0, math.pi))
def test_mode_pair_keeps_frequency_and_projection(omega, theta):
    # p + q = omega and p - q = omega cos(theta) from the half-angle forms,
    # to a few roundings of omega (and of the smallest subnormal below it)
    modes = map_to_modes(omega, EmissionDirection(theta))
    bound = 4.0 * sys.float_info.epsilon * omega + 4.0 * math.ulp(0.0)
    assert abs(modes.p + modes.q - omega) <= bound
    assert abs(modes.p - modes.q - omega * math.cos(theta)) <= bound


@settings(max_examples=200)
@given(x=st.floats(-30.0, 30.0), y=st.floats(-20.0, 20.0))
def test_ln_gamma_reflection_off_the_critical_line(x, y):
    # Gamma(z) Gamma(1 - z) = pi / sin(pi z) over the strip, away from the
    # poles; acceptance criterion 9 samples only Re z = 1/2
    z = complex(x, y)
    sin_pi_z = cmath.sin(math.pi * z)
    assume(abs(sin_pi_z) >= 1e-3)
    got = cmath.exp(ln_gamma(z) + ln_gamma(1.0 - z))
    assert rel(got, math.pi / sin_pi_z) <= 1e-12
