"""Property checks over drawn inputs, each against an independent route,
and the invariances of scale and batch that every value keeps.

The inputs come from hypothesis; the profile registered in conftest.py
draws the same examples on every run.
"""
import cmath
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st

from fdradiance.cli import main
from fdradiance.errors import OverflowRangeError
from fdradiance.mirror import (
    beta_squared_fd,
    beta_squared_fd_limit,
    beta_squared_from_distribution,
    map_to_modes,
)
from fdradiance.spectra import (
    distribution_grid,
    energy_spectrum,
    fd_partial_energy_quadrature,
    fd_particle_count_quadrature,
    fermi_dirac_distribution,
    total_energy_spectral,
)
from fdradiance.specfun import ln_gamma
from fdradiance.trajectory import (
    E_SQUARED_DEFAULT,
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
    [[num]], _ = distribution_grid(params, [y * kappa], [theta], "numeric", 1e-10)
    [[exact]], _ = distribution_grid(params, [y * kappa], [theta], "exact-zeta0")
    assert abs(num - exact) <= 1e-9 * max(exact, sys.float_info.min)


@given(kappa=KAPPA, zeta=st.floats(-0.9, 0.9), y=st.floats(0.1, 40.0))
def test_numeric_matches_fermi_dirac_at_the_special_angle(kappa, zeta, y):
    # at cos(theta) = zeta the quadrature of the phase integral against the
    # closed Fermi-Dirac form, within the sample's own error bar and to
    # 1e-10 relative, out to omega/kappa 40
    params = TrajectoryParams(kappa, zeta)
    tol = 1e-9
    [[num]], [[num_error]] = distribution_grid(params, [y * kappa], [math.acos(zeta)],
                                               "numeric", tol)
    fd = fermi_dirac_distribution(params, y * kappa).value
    assert abs(num - fd) <= num_error + tol * fd
    assert rel(num, fd) <= 1e-10


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
# near the top of the range p + q overflows a double though the pair is exact
@example(omega=1.7976931348623155e308, theta=1.25)
def test_mode_pair_keeps_frequency_and_projection(omega, theta):
    # p + q = omega and p - q = omega cos(theta) from the half-angle forms,
    # to a few roundings of omega (and of the smallest subnormal below it).
    # Both sides are taken exactly, as fractions, so no sum of the test's
    # own rounds or overflows
    p, q = (Fraction(float(v)) for v in map_to_modes(omega, theta))
    omega = Fraction(omega)
    bound = 4 * Fraction(sys.float_info.epsilon) * omega + 4 * Fraction(math.ulp(0.0))
    assert abs(p + q - omega) <= bound
    assert abs(p - q - omega * Fraction(math.cos(theta))) <= bound


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


def test_spectral_layer_reads_kappa_only_through_omega_over_kappa():
    # every spectral quantity at omega = kappa y is its kappa = 1 value, and
    # every total kappa times it, to 4 ulp across the double range; y is a
    # power of two, so omega/kappa is y exactly
    ys = np.array([0.125, 0.5, 1.0, 2.0, 4.0])

    def quantities(kappa):
        at_zeta0, at_zeta3 = TrajectoryParams(kappa, 0.0), TrajectoryParams(kappa, 0.3)
        return {
            "exact": energy_spectrum(at_zeta0, kappa * ys),
            "numeric": energy_spectrum(at_zeta0, kappa * ys, force_numeric=True),
            "numeric at zeta 0.3": energy_spectrum(at_zeta3, kappa * ys),
            "fermi-dirac": [fermi_dirac_distribution(at_zeta3, kappa * y).value
                            for y in ys],
            "total": total_energy_spectral(at_zeta0) / kappa,
            "energy companion": fd_partial_energy_quadrature(at_zeta3) / kappa,
            "count companion": fd_particle_count_quadrature(at_zeta3),
        }

    want = quantities(1.0)
    for kappa in (1e-300, 1e-200, 1e-155, 1e150, 1e300, 1e306):
        for name, got in quantities(kappa).items():
            assert np.all(np.abs(np.asarray(got) - want[name])
                          <= 4 * np.spacing(want[name])), (name, kappa)


def test_spectral_commands_at_the_ends_of_the_double_range(capsys):
    # at kappa 1e-310, y = omega/kappa overflows and the Fermi-Dirac value
    # underflows to 0, a numerical failure; at kappa 1e308 the spectral
    # total is kappa e^2 times its unit total, within two roundings
    assert main(["distribution", "--method", "fermi-dirac", "--kappa", "1e-310",
                 "--omega-min", "0.05", "--omega-max", "0.05",
                 "--omega-steps", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "underflows a double" in err
    assert main(["energy", "--method", "spectral", "--kappa", "1e308"]) == 0
    got = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
    unit = total_energy_spectral(TrajectoryParams(1.0, 0.0, 1.0), 1e-6)
    want = Fraction(1e308) * Fraction(E_SQUARED_DEFAULT) * Fraction(unit)
    assert abs(Fraction(got) - want) <= 2 * Fraction(math.ulp(got))


def test_mirror_functions_keep_each_elements_bits():
    # an array call gives each element the bits of its own one-element call:
    # on the direct product, in the log form (kappa 1e-155, u below about
    # 2e-155), where |beta|^2 underflows (u 1e-150; kappa 1e-310), and for
    # pairs up to 5e-10 off the constraint line
    def elementwise(f, *arrays):
        batch = np.asarray(f(*arrays))
        for i in range(arrays[0].size):
            single = np.asarray(f(*(np.asarray(a)[i] for a in arrays)))
            assert np.array_equal(batch[..., i], single), (f.__name__, i)

    rng = np.random.default_rng(28)
    omega = np.concatenate([rng.uniform(0.1, 40.0, 6), [1e-300, 1e300]])
    theta = np.array([0.0, 0.3, 1.0, math.pi / 2, 2.0, 3.0, math.pi, 1.2])
    elementwise(map_to_modes, omega, theta)
    elementwise(lambda w, v: beta_squared_from_distribution(w, v, 0.7),
                omega[:6], rng.uniform(0.0, 1e-3, 6))
    for kappa, zeta, u in [
            (1.0, -0.6, np.geomspace(1e-3, 200.0, 9)),
            (1e-155, 0.3, np.array([5e-156, 1e-155, 1.5e-155, 1e-154, 1e-150])),
            (1e-310, 0.0, np.array([0.1, 1e-300, 5.0]))]:
        off = 1.0 + 5e-10 * np.resize([0.0, 1.0, -1.0], u.size)
        p, q = u * (1.0 + zeta) / 2.0 * off, u * (1.0 - zeta) / 2.0
        elementwise(lambda p, q: beta_squared_fd(p, q, kappa, zeta), p, q)
        elementwise(lambda q: beta_squared_fd_limit(q, kappa, -0.95), u)
