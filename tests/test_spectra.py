"""Angular distribution and angle-integrated spectrum checks.

Three routes to the same physics exist (oscillatory quadrature, the
closed hypergeometric form, the special-angle occupancy form); the tests
pin each against frozen mpmath values and against one another only at
points where an independent reference exists.
"""
import math

import mpmath as mp
import numpy as np
import pytest

from fdradiance import spectra
from fdradiance.errors import ConvergenceError, DomainError
from fdradiance.spectra import (
    EmissionDirection,
    SpectralSample,
    distribution_exact_zeta0,
    distribution_grid,
    distribution_numeric,
    energy_spectrum,
    fd_partial_energy,
    fd_partial_energy_quadrature,
    fd_particle_count,
    fd_particle_count_quadrature,
    fermi_dirac_distribution,
    particle_spectrum,
    total_energy_spectral,
)
from fdradiance.specfun import kummer_1f1, ln_gamma
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

    def test_exact_near_the_poles(self):
        # sin^2(theta) taken as 1 - cos^2(theta) cancels near the poles: it
        # was off the oracle by 8.0e-4, 8.3e-8 and 8.9e-5 at the first three
        for theta in (1e-7, 1e-5, math.pi - 1e-6, math.pi):
            got = distribution_exact_zeta0(1.0, 1.0, 1.0, EmissionDirection(theta))
            want = float(exact_distribution(1.0, 1.0, 1.0, theta))
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

    def test_numeric_bars_cover_the_special_angle(self):
        # at cos(theta) = zeta the numeric route must land within its own
        # error bar of the Fermi-Dirac form, and the bar must stay tight
        # where the cancellation on the ray is mild
        rng = np.random.default_rng(8)
        for y in (0.1, 1.0, 4.0, 8.0, 12.0, 16.0):
            for sign in (-1.0, 1.0):
                kappa = rng.uniform(0.5, 2.0)
                zeta = sign * rng.uniform(0.05, 0.6)
                params = TrajectoryParams(kappa, zeta, rng.uniform(0.5, 2.0))
                num = distribution_numeric(params, y * kappa,
                                           EmissionDirection(math.acos(zeta)), 1e-9)
                fd = fermi_dirac_distribution(params, y * kappa).value
                assert abs(num.value - fd) <= num.abs_error
                if y <= 8.0:
                    assert num.abs_error <= 1e-8 * num.value

    def test_numeric_matches_oracle_over_theta_at_zeta0(self):
        # the saddle contour reaches the backward directions (cos theta < 0
        # here) too: numeric against the 60-digit closed form at every theta.
        # Both take sin^2(theta) from sin; 1 - cos^2 alone would cost 2e-13
        # at 179 degrees.
        params = TrajectoryParams(1.0, 0.0, 1.0)
        thetas = [math.radians(d) for d in (10, 60, 90, 120, 150, 170, 179)]
        for y in (0.02, 0.5, 2.0, 5.0, 8.0, 12.0):
            for got in distribution_grid(params, [y], thetas, "numeric", 1e-9):
                want = float(exact_distribution(1.0, 1.0, y, got.theta))
                assert rel(got.value, want) <= 1e-9

    def test_numeric_refuses_a_bar_wider_than_its_limit(self):
        # at omega/kappa 48 and 150 degrees the ray to the saddle cancels
        # past what double precision can carry: the bar is 18 times the value
        params = TrajectoryParams(1.0, 0.0, 1.0)
        theta = math.radians(150)
        with pytest.raises(ConvergenceError) as info:
            distribution_grid(params, [48.0], [theta], "numeric", 1e-9)
        best = info.value.best
        assert isinstance(best, SpectralSample)
        assert (best.omega, best.theta, best.method) == (48.0, theta, "numeric")
        assert best.abs_error > spectra._REFUSAL * best.value
        with pytest.raises(ConvergenceError):
            distribution_numeric(params, 48.0, EmissionDirection(theta), 1e-9)

    def test_exact_route_refuses_a_wide_bar_too(self, monkeypatch):
        # the refusal reads the bar each route returns, whatever the route
        exact = spectra._exact_zeta0_values

        def wide(*args):
            values, _ = exact(*args)
            return values, 0.01 * values

        monkeypatch.setattr(spectra, "_exact_zeta0_values", wide)
        with pytest.raises(ConvergenceError, match="exact-zeta0") as info:
            distribution_grid(TrajectoryParams(1.0, 0.0, 1.0), [1.0], [1.0], "exact-zeta0")
        best = info.value.best
        assert best.method == "exact-zeta0" and best.abs_error == 0.01 * best.value

    def test_numeric_rows_are_honest_or_refused(self):
        # backward rows at large omega/kappa, where the contour cancels by up
        # to e^{omega/kappa}: every row, refused or not, lies within its bar
        # of the oracle, and a row whose bar exceeds the refusal limit raises.
        # The oracle's own two terms cancel here, so it runs at 160 digits
        # (at 60 it is off by 58x at omega/kappa 36, 170 deg).
        params = TrajectoryParams(1.0, 0.0, 1.0)
        for y in (24.0, 36.0, 48.0):
            for deg in (120, 150, 170):
                theta = math.radians(deg)
                try:
                    [got] = distribution_grid(params, [y], [theta], "numeric", 1e-9)
                except ConvergenceError as refusal:
                    got = refusal.best
                    assert got.abs_error > spectra._REFUSAL * got.value
                with mp.workdps(160):
                    want = float(exact_distribution(1.0, 1.0, y, theta))
                assert abs(got.value - want) <= got.abs_error

    def test_exact_batch_matches_single_points(self):
        # the CLI evaluates its whole omega x theta grid in one closed-form
        # call; each sample must be bit-identical to the one-point call
        rng = np.random.default_rng(4)
        for _ in range(10):
            kappa = rng.uniform(0.5, 2.0)
            params = TrajectoryParams(kappa, 0.0, rng.uniform(0.5, 2.0))
            omegas = (kappa * rng.uniform(0.1, 4.0, 3)).tolist()
            thetas = [0.0, math.pi, *rng.uniform(0.0, math.pi, 17)]
            batch = distribution_grid(params, omegas, thetas, "exact-zeta0")
            single = [distribution_exact_zeta0(
                          params.kappa, params.e_squared, omega,
                          EmissionDirection(th))
                      for omega in omegas for th in thetas]
            assert batch == single

    def test_numeric_batch_matches_single_points(self):
        # the angular rule and the CLI evaluate a whole omega x theta grid in
        # one batched quadrature run; each sample must equal the one-point call
        rng = np.random.default_rng(6)
        for _ in range(6):
            kappa = rng.uniform(0.5, 2.0)
            params = TrajectoryParams(kappa, rng.uniform(-0.6, 0.6),
                                      rng.uniform(0.5, 2.0))
            omegas = (kappa * rng.uniform(0.1, 8.0, 3)).tolist()
            thetas = [0.0, math.pi, *rng.uniform(0.0, math.pi, 9)]
            batch = distribution_grid(params, omegas, thetas, "numeric", 1e-8)
            single = [distribution_numeric(params, omega, EmissionDirection(th),
                                           1e-8) for omega in omegas for th in thetas]
            assert batch == single

    def test_numeric_dark_rows_skip_the_integral(self, monkeypatch):
        # sin^2(theta) = 0 rows are exactly 0 and never reach the quadrature;
        # the lit rows of both omegas are one call
        rows = []
        batched = spectra._oscillatory_rows

        def counting(b, d, tol):
            rows.append(np.broadcast(b, d).size)
            return batched(b, d, tol)

        monkeypatch.setattr(spectra, "_oscillatory_rows", counting)
        params = TrajectoryParams(1.0, 0.3, 1.0)
        got = distribution_grid(params, [1.5, 2.5], [0.0, 1.0, 0.0, 2.0], "numeric",
                                1e-8)
        assert rows == [4]
        assert [(s.value, s.abs_error) for s in got[::2]] == [(0.0, 0.0)] * 4
        assert all(s.value > 0.0 for s in got[1::2])
        assert distribution_grid(params, [1.5], [0.0], "numeric", 1e-8)[0].value == 0.0
        assert rows == [4]

    def test_grid_checks_its_inputs(self):
        # a direction outside [0, pi], a route the grid does not run, and
        # the zeta = 0 closed form off zeta = 0 are refused, not answered
        params = TrajectoryParams(1.0, 0.3)
        for theta in (4.0, -0.1, math.nan):
            with pytest.raises(DomainError, match="theta"):
                distribution_grid(params, [1.0], [1.0, theta], "numeric", 1e-8)
        with pytest.raises(DomainError, match="zeta"):
            distribution_grid(params, [1.0], [1.0], "exact-zeta0")
        for method in ("fermi-dirac", "exact"):
            with pytest.raises(DomainError, match="method"):
                distribution_grid(params, [1.0], [1.0], method)

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

    @pytest.mark.parametrize("zeta, tol", [
        pytest.param(0.0, 1e-4, id="0.0"), pytest.param(-0.5, 1e-4, id="-0.5"),
        pytest.param(0.5, 1e-4, id="0.5"), pytest.param(0.0, 1e-6, id="0.0-tol1e-6"),
        pytest.param(0.5, 1e-6, id="0.5-tol1e-6")])
    def test_total_energy_closure(self, zeta, tol):
        # the angular integrand is the exact route at zeta = 0 and the
        # numeric route elsewhere; 1e-6 is the CLI's floor for this route
        params = TrajectoryParams(1, zeta, 1)
        spectral = total_energy_spectral(params, tol=tol)
        larmor = total_energy_larmor(params)
        assert rel(spectral, larmor) < 10.0 * tol

    @pytest.mark.parametrize("zeta", [0.0, 0.3])
    @pytest.mark.parametrize("tol", [-1.0, 0.0, math.nan, 0.5, 5.0])
    def test_tolerance_outside_its_range(self, zeta, tol):
        # both angular routes take tol in (0, 1e-2], as the CLI does
        params = TrajectoryParams(1, zeta, 1)
        for call in (lambda: energy_spectrum(params, 1.0, tol),
                     lambda: energy_spectrum(params, np.array([0.5, 1.0]), tol),
                     lambda: particle_spectrum(params, 1.0, tol),
                     lambda: total_energy_spectral(params, tol)):
            with pytest.raises(DomainError, match="tol"):
                call()


class TestBatchedSpectra:
    """energy_spectrum runs one batched angular integral over an omega array."""

    def test_rows_match_single_calls_under_any_split(self):
        # total_energy_spectral hands whole waves of omegas to one call, the
        # CLI a whole grid; no row may depend on the rows batched with it
        rng = np.random.default_rng(11)
        params = TrajectoryParams(1.3, 0.0, 0.7)
        omegas = 1.3 * np.exp(rng.uniform(math.log(0.05), math.log(14.0), 200))
        single = [energy_spectrum(params, w, 1e-6) for w in omegas.tolist()]
        batch = energy_spectrum(params, omegas, 1e-6)
        assert batch.tolist() == single
        for _ in range(3):
            cuts = np.sort(rng.choice(np.arange(1, omegas.size), 6, replace=False))
            parts = [energy_spectrum(params, part, 1e-6)
                     for part in np.split(omegas, cuts)]
            assert np.concatenate(parts).tolist() == single

    def test_float_gives_float_and_array_gives_array(self):
        # off zeta = 0 the omegas of the array are rows of one batched
        # quadrature, each row with its own phase
        params = TrajectoryParams(1.2, 0.3, 0.8)
        omegas = np.array([0.4, 2.5, 1.1])
        batch = energy_spectrum(params, omegas)
        single = [energy_spectrum(params, w) for w in omegas.tolist()]
        assert all(type(v) is float for v in single)
        assert batch.shape == (3,) and batch.tolist() == single
        assert particle_spectrum(params, omegas).tolist() == \
            [v / w for v, w in zip(single, omegas.tolist())]
        with pytest.raises(DomainError):
            energy_spectrum(params, omegas.reshape(1, 3))
        with pytest.raises(DomainError):
            energy_spectrum(params, np.array([1.0, -1.0]))

    def test_mirrored_half_matches_full_nodes(self):
        # the 1F1s run once per distinct |u|; every value must keep the bits
        # of the closed form evaluated at its own signed u, written out here.
        # Gauss-Legendre nodes pair up exactly, the 19-angle theta grid in
        # only 4 of its 9 pairs, and -0.0 shares its modulus with 0.0
        def signed_u(kappa, e_squared, omegas, us, sin2):
            y = omegas[:, None] / kappa
            a = spectra._EXACT_A - 1j * y
            g_half, g_one = np.exp(ln_gamma(a))
            m_half, m_one = kummer_1f1(a, spectra._EXACT_B, 1j * y * us**2)
            m = g_half * m_half + 2.0 * us * (np.sqrt(y) * spectra._ROOT_I) * g_one * m_one
            pref = e_squared * omegas[:, None] * sin2 / (16.0 * math.pi**3 * kappa)
            return pref * np.exp(-math.pi * y) * np.abs(m) ** 2

        params = TrajectoryParams(1.3, 0.0, 0.7)
        rng = np.random.default_rng(12)
        omegas = rng.uniform(0.1, 8.0, 5)
        thetas = np.linspace(0.0, math.pi, 19)
        grids = [(us, 1.0 - us**2) for us in
                 (spectra._gl_nodes(order)[0] for order in (64, 128, 256, 512))]
        grids.append((np.cos(thetas), np.sin(thetas)**2))
        grids.append((np.array([-0.5, -0.0, 0.0, 0.25, 0.5]),
                      np.array([0.75, 1.0, 1.0, 0.9375, 0.75])))
        for us, sin2 in grids:
            got, err = spectra._exact_zeta0_values(params, omegas, us, sin2, 1e-6)
            assert np.array_equal(got, signed_u(1.3, 0.7, omegas, us, sin2))
            assert np.array_equal(err, got * spectra._CLOSED_FORM_REL)

    def test_large_grid_matches_small_pieces(self):
        # a grid several times _SLICE_ELEMENTS runs in slices; each element
        # must come out as it does in a small grid
        rng = np.random.default_rng(13)
        omegas = rng.uniform(0.1, 14.0, 300)
        us = spectra._gl_nodes(128)[0]
        sin2 = 1.0 - us**2
        params = TrajectoryParams(1.0, 0.0, 1.0)
        whole = spectra._exact_zeta0_values(params, omegas, us, sin2, 1e-6)[0]
        pieces = [spectra._exact_zeta0_values(params, omegas[i:i + 7], us, sin2, 1e-6)[0]
                  for i in range(0, omegas.size, 7)]
        assert np.array_equal(whole, np.concatenate(pieces))

    def test_large_numeric_grid_matches_small_pieces(self):
        # a grid of more than _SLICE_ELEMENTS lit rows runs in slices of
        # whole omega rows; each element must come out as in a small grid
        rng = np.random.default_rng(14)
        params = TrajectoryParams(1.0, -0.4, 1.0)
        omegas = rng.uniform(0.1, 6.0, 33)
        us = spectra._gl_nodes(128)[0]
        assert omegas.size * us.size > spectra._SLICE_ELEMENTS
        whole = spectra._numeric_values(params, omegas, us, 1.0 - us * us, 1e-7)
        pieces = [spectra._numeric_values(params, omegas[i:i + 5], us, 1.0 - us * us,
                                          1e-7)
                  for i in range(0, omegas.size, 5)]
        for got, want in zip(whole, zip(*pieces)):
            assert np.array_equal(got, np.concatenate(want))

    def test_numeric_total_is_a_few_oscillatory_calls(self, monkeypatch):
        # one batched quadrature per slice of a frequency wave and angular
        # order; per-omega calls made 274 here
        sizes = []
        batched = spectra._oscillatory_rows

        def counting(b, d, tol):
            sizes.append(np.broadcast(b, d).size)
            return batched(b, d, tol)

        monkeypatch.setattr(spectra, "_oscillatory_rows", counting)
        params = TrajectoryParams(1, -0.6)
        total = total_energy_spectral(params, 1e-4)
        assert len(sizes) <= 16 and max(sizes) <= spectra._SLICE_ELEMENTS
        assert rel(total, total_energy_larmor(params)) < 1e-3

    def test_closed_form_total_is_a_few_1f1_calls(self, monkeypatch):
        # one stacked 1F1 call per frequency wave and angular order, and the
        # exact route never reaches the oscillatory integrator
        sizes = []

        def counting(a, b, x):
            sizes.append(np.broadcast(a, b, x).size)
            return kummer_1f1(a, b, x)

        def no_quadrature(*args):
            raise AssertionError("the exact route ran the numeric one")

        monkeypatch.setattr(spectra, "kummer_1f1", counting)
        monkeypatch.setattr(spectra, "_oscillatory_rows", no_quadrature)
        params = TrajectoryParams(1, 0)
        total = total_energy_spectral(params, 1e-4)
        assert len(sizes) <= 10 and sum(sizes) <= 24_000
        assert max(sizes) <= spectra._SLICE_ELEMENTS
        assert rel(total, total_energy_larmor(params)) < 1e-8

    def test_unsettled_row_raises_with_its_own_best(self, monkeypatch):
        # rows with omega >= 1 grow with the order and never settle
        def fake(params, omegas, us, sin2, tol):
            grow = np.where(omegas >= 1.0, us.size, 1.0)
            values = np.outer(omegas * grow, np.ones(us.size))
            return values, np.zeros_like(values)

        monkeypatch.setattr(spectra, "_exact_zeta0_values", fake)
        params = TrajectoryParams(1, 0)
        with pytest.raises(ConvergenceError, match="omega=3.0") as err:
            energy_spectrum(params, np.array([0.5, 3.0, 2.0]), 1e-6)
        ws = spectra._gl_nodes(512)[1]
        assert err.value.best == 2.0 * math.pi * np.vecdot(np.full(512, 1536.0), ws)
        ws = spectra._gl_nodes(128)[1]
        assert energy_spectrum(params, 0.5) == \
            2.0 * math.pi * np.vecdot(np.full(128, 0.5), ws)

    def test_cutoff_refuses_a_spectrum_that_never_decays(self, monkeypatch):
        # six doublings from 30 kappa end at 1920 kappa, where 1/omega is
        # still far above 1e-12 of the peak
        monkeypatch.setattr(spectra, "energy_spectrum",
                            lambda params, omegas, *args, **kw: 1.0 / omegas)
        with pytest.raises(ConvergenceError, match="omega = 1920") as err:
            total_energy_spectral(TrajectoryParams(1, 0))
        assert err.value.best == 1920.0

    @pytest.mark.parametrize("kappa", [0.7, 1.0])
    def test_cutoff_walk_matches_the_sequential_rule(self, kappa):
        # the halving candidates run as one call; the chosen hi must be the
        # one of the walk that probes one omega at a time
        def sequential(spectra, kappa, peak):
            def I_at(w):
                return float(spectra(np.array([w]))[0])

            thresh = 1e-12 * peak
            hi = 30.0 * kappa
            if I_at(hi) < thresh:
                while hi > 4.0 * kappa and I_at(0.5 * hi) < thresh:
                    hi *= 0.5
                return hi
            for _ in range(6):
                hi *= 2.0
                if I_at(hi) < thresh:
                    return hi
            raise ConvergenceError("no cutoff")

        # e^{-omega/scale} crosses 1e-12 at 27.6 scale: below 3.75 kappa,
        # between each pair of walk steps, and out in the doubling branch
        crossings = kappa * np.array([1.0, 3.7, 3.8, 5.0, 7.4, 7.6, 11.0, 14.9,
                                      15.1, 22.0, 29.9, 30.1, 45.0, 100.0, 1000.0])
        calls = []
        for crossing in crossings:
            def fake(omegas, scale=crossing / math.log(1e12)):
                calls.append(omegas.size)
                return np.exp(-omegas / scale)

            want = sequential(fake, kappa, 1.0)
            calls.clear()
            assert spectra._omega_cutoff(fake, kappa, 1.0) == want
            assert calls[0] == 4 and all(size == 1 for size in calls[1:])
        # a candidate above threshold ends the walk, whatever lies below it
        def dip(omegas):
            return np.where(omegas == 15.0 * kappa, 1.0, 0.0)

        assert spectra._omega_cutoff(dip, kappa, 1.0) == sequential(dip, kappa, 1.0)
        assert spectra._omega_cutoff(dip, kappa, 1.0) == 30.0 * kappa


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
