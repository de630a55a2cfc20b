"""Property checks over drawn inputs, each against an independent route.

The inputs come from hypothesis; the profile registered in conftest.py
draws the same examples on every run.
"""
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from fdradiance.spectra import (
    _samples,
    energy_spectrum,
    fermi_dirac_distribution,
    total_energy_spectral,
)
from fdradiance.trajectory import TrajectoryParams, total_energy_larmor

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


@given(kappa=KAPPA, zeta=st.floats(-0.9, 0.9), y=st.floats(0.1, 40.0))
def test_numeric_matches_fermi_dirac_at_the_special_angle(kappa, zeta, y):
    # at cos(theta) = zeta the quadrature of the phase integral against the
    # closed Fermi-Dirac form, within the sample's own error bar and to
    # 1e-10 relative, out to omega/kappa 40
    params = TrajectoryParams(kappa, zeta)
    tol = 1e-9
    [num] = _samples(params, [y * kappa], [math.acos(zeta)], "numeric", tol)
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
