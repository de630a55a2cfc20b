"""Angular distribution and angle-integrated spectrum checks.

Three routes to the same physics exist (oscillatory quadrature, the
closed hypergeometric form, the special-angle occupancy form); the tests
pin each against frozen mpmath values and against one another only at
points where an independent reference exists.
"""
import contextlib
import itertools
import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from fdradiance import mirror, quadrature, spectra
from fdradiance.errors import ConvergenceError, DomainError, OverflowRangeError
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
from fdradiance.specfun import ln_gamma
from fdradiance.trajectory import E_SQUARED_DEFAULT, TrajectoryParams, total_energy_larmor

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

    @pytest.mark.parametrize("kappa, zeta, omegas", [
        (1.0, 0.3, [0.5, 1.0, 10.0, 100.0, 115.0]),
        (1.3, 0.0, [118.0]),
        (1.0, 0.999999, [0.5, 1.0, 1.5, 2.0]),
        (1.0, 1.0 - 2.0**-30, [0.5, 1.0, 1.5, 2.0]),
    ], ids=["zeta-0.3-subnormal", "kappa-1.3", "zeta-0.999999", "zeta-1-2^-30"])
    def test_fd_bar_covers_a_subnormal_value(self, kappa, zeta, omegas):
        # every bar covers the 60-digit value at the exact omega/kappa: at
        # omega/kappa 115, zeta 0.3 the value 1.9e-315 is subnormal; at kappa
        # 1.3, omega 118 the rounding of y = 90.77 moves the value by more
        # than 1e-13 of it; near |zeta| = 1, 1 - zeta^2 formed by subtraction
        # was off by up to 4.7e-10. A normal value's bar is _CLOSED_FORM_REL
        # plus 2 eps (1 + 2 pi y) of it, bit for bit
        params = TrajectoryParams(kappa, zeta)
        omegas = np.array(omegas)
        values, errors = distribution_grid(params, omegas, [math.acos(zeta)], "fermi-dirac")
        values, errors = values[:, 0], errors[:, 0]
        normal = values >= sys.float_info.min
        bars = values * (spectra._CLOSED_FORM_REL
                         + 2.0 * math.ulp(1.0) * (1.0 + 2.0 * math.pi * (omegas / kappa)))
        assert np.array_equal(errors[normal], bars[normal])
        assert all(0.0 < error <= 1e-8 * value
                   for value, error in zip(values[~normal], errors[~normal]))
        with mp.workdps(60):
            for omega, value, error in zip(omegas.tolist(), values.tolist(), errors.tolist()):
                y = mp.mpf(omega) / mp.mpf(kappa)
                exact = ((1 - mp.mpf(zeta) ** 2) * mp.mpf(params.e_squared) / (8 * mp.pi**2)
                         * y / (mp.exp(2 * mp.pi * y) + 1))
                assert abs(mp.mpf(value) - exact) <= error

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
            [values], _ = distribution_grid(params, [y], thetas, "numeric", 1e-9)
            for theta, got in zip(thetas, values.tolist()):
                want = float(exact_distribution(1.0, 1.0, y, theta))
                assert rel(got, want) <= 1e-9

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
        # to e^{omega/kappa} and the closed form's two terms by up to
        # e^{2 omega/kappa}: every row, refused or not, lies within its bar
        # of the oracle, and a row whose bar exceeds the refusal limit raises.
        # The oracle's own two terms cancel here, so it runs at 160 digits
        # (at 60 it is off by 58x at omega/kappa 36, 170 deg). The closed
        # form is off by 6e9 of its value at omega/kappa 12, 170 deg; from
        # omega/kappa 4 down its rows must be returned.
        params = TrajectoryParams(1.0, 0.0, 1.0)
        refused = []
        for method, ys, degs in (("numeric", (24.0, 36.0, 48.0), (120, 150, 170)),
                                 ("exact-zeta0", (4.0, 8.0, 12.0), (120, 150, 170, 179))):
            for y in ys:
                for deg in degs:
                    theta = math.radians(deg)
                    try:
                        [[value]], [[bar]] = distribution_grid(params, [y], [theta], method,
                                                               1e-9)
                    except ConvergenceError as refusal:
                        value, bar = refusal.best.value, refusal.best.abs_error
                        assert bar > spectra._REFUSAL * value
                        refused.append((method, y, deg))
                    with mp.workdps(160):
                        want = float(exact_distribution(1.0, 1.0, y, theta))
                    assert abs(value - want) <= bar
        assert {("exact-zeta0", 8.0, 170), ("exact-zeta0", 12.0, 150),
                ("exact-zeta0", 12.0, 170)} <= set(refused)
        assert not [r for r in refused if r[:2] == ("exact-zeta0", 4.0)]

    @pytest.mark.parametrize("y, deg, want", [
        (100.0, 30, 1.710892954082386e-129),
        (100.0, 90, 1.547799467230679e-274),
        (300.0, 30, (ConvergenceError, "cancellation")),     # by 9.4e18
        (300.0, 90, (ConvergenceError, "underflows a double")),
        (400.0, 30, (OverflowRangeError, "overflowed")),
        (400.0, 90, (ConvergenceError, "underflows a double")),
    ])
    def test_exact_at_large_frequency(self, y, deg, want):
        # the closed form at omega/kappa 100-400, kappa 1: a value lies
        # within its bar of the one frozen from summing each 1F1 as its own
        # kummer_1f1 element, and a row that call refused is refused alike.
        # At 90 deg the value (5e-547 at omega/kappa 200) underflows a
        # double, and the 0 +- 0 it gives is refused
        params = TrajectoryParams(1.0, 0.0)
        theta = math.radians(deg)
        if isinstance(want, float):
            [[value]], [[bar]] = distribution_grid(params, [y], [theta], "exact-zeta0")
            assert abs(value - want) <= bar
            return
        with pytest.raises(want[0], match=want[1]) as info:
            distribution_grid(params, [y], [theta], "exact-zeta0")
        if deg == 90:
            assert (info.value.best.value, info.value.best.abs_error) == (0.0, 0.0)

    @pytest.mark.parametrize("method", ["exact-zeta0", "numeric"])
    @pytest.mark.parametrize("y, deg, frozen, want", [
        (125.0, 85, "0x0.0000000000002p-1022", "9.6501937217461066192e-324"),
        (150.0, 70, "0x0.000000000004bp-1022", "3.6873604906722917193e-322"),
        (140.0, 75, "0x0.00000000006b7p-1022", "8.4955346587972762937e-321"),
    ])
    def test_subnormal_exact_value_has_a_rounding_bar(self, y, deg, frozen, want, method):
        # at kappa 1, e^2 4 pi alpha, these values are subnormal on both
        # unit-charge routes and their relative bar underflows to 0; each
        # keeps its bits, and its bar, the rounding of the value and of its
        # product with e^2, covers dI/dOmega frozen from
        # oracles.exact_distribution at 60 + 3.2 omega/kappa digits (80
        # more change neither), a difference that only shows in more than
        # double precision. The bar is more than _REFUSAL of such a value,
        # so the grid refuses the cell, also at (140, 75 deg), whose bar is
        # 1.16e-3 of it: _REFUSAL times that value rounds up to the bar
        params = TrajectoryParams(1.0, 0.0)
        theta = math.radians(deg)
        with pytest.raises(ConvergenceError, match="error bar above") as info:
            distribution_grid(params, [y], [theta], method)
        value, bar = info.value.best.value, info.value.best.abs_error
        assert value == float.fromhex(frozen)
        assert 0.0 < abs(mp.mpf(value) - mp.mpf(want)) <= bar

    @pytest.mark.parametrize("y, want", [
        (20.0, [0.0, 7.561735155090255e-26, 2.2554495644466305e-28,
                3.6629550853900176e-33, 7.391598845667462e-40,
                5.3884918117599226e-48, 6.179613356679596e-57]),
        (30.0, [0.0, 7.414817882846631e-37, 6.340979477538006e-41,
                2.987921367571641e-48, 2.2489226161908955e-58,
                1.26957389566902e-70, 4.781074217836251e-84]),
        (40.0, [0.0, 6.460206849066317e-48, 1.5840965709052114e-53,
                2.1659631905608566e-63, 6.081270455846071e-77,
                2.6586802428772057e-93, 3.288040400959949e-111]),
        (50.0, [0.0, 5.2758279065808445e-59, 3.709535576926858e-66,
                1.471847150310091e-78, 1.5415576372133822e-95,
                5.219554529255844e-116, 2.1199229737193437e-138]),
        (60.0, [0.0, 4.135893228356429e-70, 8.338715553514023e-79,
                9.601182607569983e-94, 3.7513155609361045e-114,
                9.837074502908691e-139, 1.312122100647964e-165]),
    ])
    def test_exact_matches_the_oracle_to_omega_over_kappa_60(self, y, want):
        # the ledger's exact grid at kappa 1, theta 0-90 deg in steps of 15:
        # every cell within kummer_1f1's 1e-10 contract of dI/dOmega frozen
        # from oracles.exact_distribution at 60 + 3.2 omega/kappa digits (80
        # digits more change none of them); at theta 0 both are exactly 0.
        # The grid does better: its worst cell is 4.5e-12 (50, 15 deg), and
        # 1e-11 keeps that level; a re-check of the grid's own terms, which
        # the grid no longer makes, left (60, 15 deg) at 3.0e-11
        thetas = np.linspace(0.0, math.pi / 2, 7).tolist()
        [values], _ = distribution_grid(TrajectoryParams(1.0, 0.0), [y], thetas,
                                        "exact-zeta0")
        assert values[0] == want[0] == 0.0
        worst = np.max(np.abs(values[1:] / want[1:] - 1.0))
        assert worst < 1e-10
        assert worst < 1e-11

    @pytest.mark.parametrize("kappa, omega, theta", [
        (1.6369169808136923, 6.488508494724727, 2.8026654875260975),
        (0.9502251705326412, 3.7160465612936604, 2.6826464397282517),
    ])
    def test_exact_within_its_bar_where_the_bench_failed(self, kappa, omega, theta):
        # two closed-form benchmark tasks (seed 59 task 46, seed 3504 task
        # 171) whose exact value is off the oracle by 1.4e-9 of itself: the
        # two terms cancel there, and the bar (1.7e-7 and 7.5e-8 of the
        # value) covers the error
        got = distribution_exact_zeta0(kappa, E_SQUARED_DEFAULT, omega,
                                       EmissionDirection(theta))
        want = float(exact_distribution(kappa, E_SQUARED_DEFAULT, omega, theta))
        assert abs(got.value - want) <= got.abs_error < spectra._REFUSAL * got.value

    def test_exact_batch_matches_single_points(self):
        # the CLI evaluates its whole omega x theta grid in one closed-form
        # call; each sample must be bit-identical to the one-point call
        rng = np.random.default_rng(4)
        for _ in range(10):
            kappa = rng.uniform(0.5, 2.0)
            params = TrajectoryParams(kappa, 0.0, rng.uniform(0.5, 2.0))
            omegas = (kappa * rng.uniform(0.1, 4.0, 3)).tolist()
            thetas = [0.0, math.pi, *rng.uniform(0.0, math.pi, 17)]
            values, errors = distribution_grid(params, omegas, thetas, "exact-zeta0")
            single = [distribution_exact_zeta0(
                          params.kappa, params.e_squared, omega,
                          EmissionDirection(th))
                      for omega in omegas for th in thetas]
            assert [(s.value, s.abs_error) for s in single] == \
                list(zip(values.ravel().tolist(), errors.ravel().tolist()))

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
            values, errors = distribution_grid(params, omegas, thetas, "numeric", 1e-8)
            single = [distribution_numeric(params, omega, EmissionDirection(th),
                                           1e-8) for omega in omegas for th in thetas]
            assert [(s.value, s.abs_error) for s in single] == \
                list(zip(values.ravel().tolist(), errors.ravel().tolist()))

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
        values, errors = distribution_grid(params, [1.5, 2.5], [0.0, 1.0, 0.0, 2.0],
                                           "numeric", 1e-8)
        assert rows == [4]
        assert not values[:, ::2].any() and not errors[:, ::2].any()
        assert (values[:, 1::2] > 0.0).all()
        assert distribution_grid(params, [1.5], [0.0], "numeric", 1e-8)[0].item() == 0.0
        assert rows == [4]

    def test_exact_dark_rows_skip_the_series(self, monkeypatch):
        # as on the numeric route, sin^2(theta) = 0 rows are exactly 0 and
        # sum no series; float pi is not exactly pi, so its row is lit
        moduli = []
        grid = spectra._kummer_grid

        def counting(a, b, c, z):
            moduli.append(np.abs(c[0] * z).tolist())
            return grid(a, b, c, z)

        monkeypatch.setattr(spectra, "_kummer_grid", counting)
        params = TrajectoryParams(1.0, 0.0, 1.0)
        values, errors = distribution_grid(params, [1.5, 2.5], [0.0, 1.0, 0.0, math.pi],
                                           "exact-zeta0")
        assert moduli == [[1.5 * math.cos(1.0) ** 2, 1.5]]
        assert not values[:, ::2].any() and not errors[:, ::2].any()
        assert (values[:, 1::2] > 0.0).all()
        assert distribution_grid(params, [1.5], [0.0], "exact-zeta0")[0].item() == 0.0
        assert len(moduli) == 1

    def test_grid_checks_its_inputs(self):
        # a direction outside [0, pi], an unknown route, the zeta = 0 closed
        # form off zeta = 0 and the Fermi-Dirac form off the special angle
        # are refused, not answered
        params = TrajectoryParams(1.0, 0.3)
        for theta in (4.0, -0.1, math.nan):
            with pytest.raises(DomainError, match="theta"):
                distribution_grid(params, [1.0], [1.0, theta], "numeric", 1e-8)
        with pytest.raises(DomainError, match="zeta"):
            distribution_grid(params, [1.0], [1.0], "exact-zeta0")
        with pytest.raises(DomainError, match="acos"):
            distribution_grid(params, [1.0], [1.0], "fermi-dirac")
        with pytest.raises(DomainError, match="method"):
            distribution_grid(params, [1.0], [1.0], "exact")
        # a grid with no omega or no direction is answered with empty arrays
        for method, omegas, thetas in itertools.product(("numeric", "exact-zeta0"),
                                                        ([], [1.0]), ([], [1.0])):
            values, errors = distribution_grid(TrajectoryParams(1.0, 0.0), omegas, thetas,
                                               method)
            assert values.shape == errors.shape == (len(omegas), len(thetas))

    @pytest.mark.parametrize("zeta", [0.0, 0.3, -0.6])
    def test_fermi_dirac_grid_matches_one_point_calls(self, zeta):
        # the special angle's grid column is, bit for bit, the one-point
        # calls, over 1 to 64 frequencies
        params = TrajectoryParams(1.3, zeta, 0.7)
        theta0 = math.acos(zeta)
        rng = np.random.default_rng(39)
        for n in (1, 2, 3, 7, 16, 33, 64):
            omegas = rng.uniform(0.01, 60.0, n).tolist()
            values, errors = distribution_grid(params, omegas, [theta0], "fermi-dirac")
            assert values.shape == errors.shape == (n, 1)
            single = [fermi_dirac_distribution(params, omega) for omega in omegas]
            assert [(s.omega, s.theta, s.value, s.abs_error) for s in single] == \
                [(omega, theta0, v, e) for omega, v, e
                 in zip(omegas, values[:, 0].tolist(), errors[:, 0].tolist())]

    def test_fermi_dirac_grid_takes_the_special_angle_alone(self):
        # as the closed form refuses zeta != 0, the Fermi-Dirac form refuses
        # any angle list but [acos(zeta)]: a neighbouring double, pi/2 off
        # zeta = 0, the special angle twice, or no angle at all
        params = TrajectoryParams(1.0, 0.3)
        theta0 = math.acos(0.3)
        for thetas in ([math.nextafter(theta0, 0.0)], [math.nextafter(theta0, 4.0)],
                       [math.pi / 2], [theta0, theta0], [theta0, 1.0], [], [math.nan]):
            with pytest.raises(DomainError, match="acos"):
                distribution_grid(params, [1.0], thetas, "fermi-dirac")
        assert distribution_grid(params, [1.0], np.array([theta0]), "fermi-dirac")[0].size == 1
        # at zeta = 0 the special angle is pi/2, bit for bit
        assert math.acos(0.0) == math.pi / 2
        distribution_grid(TrajectoryParams(1.0, 0.0), [1.0], [math.pi / 2], "fermi-dirac")

    def test_fermi_dirac_grid_refuses_an_underflowing_value(self):
        # at zeta 0.3 the value at omega/kappa 120 underflows to 0: the grid
        # refuses it with the message and best the one-point call gives
        params = TrajectoryParams(2.0, 0.3)
        theta0 = math.acos(0.3)
        want = ("fermi-dirac dI/dOmega at omega=240, theta=1.2661 is 0.000e+00 "
                "+- 0.000e+00, a positive value that underflows a double")
        with pytest.raises(ConvergenceError) as grid:
            distribution_grid(params, [220.0, 230.0, 240.0, 250.0], [theta0], "fermi-dirac")
        with pytest.raises(ConvergenceError) as one:
            fermi_dirac_distribution(params, 240.0)
        for info in (grid, one):
            assert str(info.value) == want
            assert info.value.best == SpectralSample(240.0, theta0, 0.0, "fermi-dirac", 0.0)

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

    def test_angular_rule_nests_and_is_exact(self):
        # each order keeps the last one's nodes bit for bit at its even
        # indices, is exactly odd in u, dark at the poles, and integrates
        # every polynomial of degree up to its order; order 32, read from
        # order 64's even nodes, carries the first test of convergence
        for order in (32, 64, 128, 256, 512):
            us, sin2, ws = spectra._cc_rule(order)
            assert np.array_equal(us, -us[::-1]) and np.array_equal(ws, ws[::-1])
            assert sin2[0] == sin2[-1] == 0.0 and (sin2[1:-1] > 0.0).all()
            assert np.allclose(sin2, 1.0 - us**2, rtol=0.0, atol=1e-15)
            if order > 32:
                assert np.array_equal(us[::2], spectra._cc_rule(order // 2)[0])
                assert np.array_equal(sin2[::2], spectra._cc_rule(order // 2)[1])
            for degree in range(0, order + 1, 2):
                assert abs(np.vecdot(us**degree, ws) - 2.0 / (degree + 1)) < 1e-14

    @pytest.mark.parametrize("zeta", [-0.6, 0.0, 0.3])
    def test_against_a_fixed_gauss_legendre_rule(self, zeta):
        # a 96-node Gauss-Legendre rule, none of energy_spectrum's orders,
        # over the same angular integrand
        params = TrajectoryParams(1, zeta, 1)
        omegas = np.array([0.2, 1.0, 4.0, 8.0])
        us, ws = np.polynomial.legendre.leggauss(96)
        route = spectra._exact_zeta0_values if zeta == 0.0 else spectra._numeric_values
        values = route(params, omegas, us, 1.0 - us**2, 1e-6 / 8.0)[0]
        want = 2.0 * math.pi * np.vecdot(values, ws)
        got = energy_spectrum(params, omegas, 1e-6)
        assert (np.abs(got - want) <= 1e-6 * want).all()

    @pytest.mark.parametrize("zeta", [-0.99, -0.9, 0.0, 0.5, 0.99])
    def test_no_early_stop_against_a_fixed_order_512_rule(self, zeta):
        # the first test of convergence compares orders 32 and 64; over
        # four decades of frequency and every tol, the value it accepts
        # must lie within tol of the whole order-512 sum of the same route
        # at a per-node tol of min(tol, 1e-8)/8 (worst seen: 7.1e-4 tol)
        params = TrajectoryParams(1, zeta)
        omegas = np.geomspace(0.01, 60.0, 5)
        us, sin2, ws = spectra._cc_rule(512)
        route = spectra._exact_zeta0_values if zeta == 0.0 else spectra._numeric_values
        # the routes work at unit charge; e^2 is the spectrum's last factor
        want = params.e_squared * (
            2.0 * math.pi * np.vecdot(route(params, omegas, us, sin2, 1e-8 / 8.0)[0], ws))
        for tol in (1e-2, 1e-4, 1e-6, 1e-8):
            got = energy_spectrum(params, omegas, tol)
            assert (np.abs(got - want) <= tol * np.abs(want)).all()

    def test_numeric_angular_route_agrees(self):
        # same angular integral with the closed form switched off
        params = TrajectoryParams(1, 0, 1)
        exact = energy_spectrum(params, 1.0, tol=1e-8)
        numeric = energy_spectrum(params, 1.0, tol=1e-5, force_numeric=True)
        assert rel(numeric, exact) < 1e-4

    @pytest.mark.parametrize("zeta, tol", [
        pytest.param(0.0, 1e-4, id="0.0"), pytest.param(-0.5, 1e-4, id="-0.5"),
        pytest.param(0.5, 1e-4, id="0.5"), pytest.param(0.0, 1e-6, id="0.0-tol1e-6"),
        pytest.param(0.5, 1e-6, id="0.5-tol1e-6"), pytest.param(-0.9, 1e-4, id="-0.9"),
        pytest.param(0.9, 1e-4, id="0.9"), pytest.param(-0.99, 1e-4, id="-0.99"),
        pytest.param(0.99, 1e-4, id="0.99")])
    def test_total_energy_closure(self, zeta, tol):
        # the angular integrand is the exact route at zeta = 0 and the
        # numeric route elsewhere; 1e-6 is the CLI's floor for this route.
        # At zeta -0.9 the frequency rule runs past the first pair of
        # orders that could stop it early. At zeta -0.99 the tail rate c is
        # 0.0027 and the spectrum ends near 9,200 kappa; the Larmor route
        # warns there that the energy diverges as zeta -> -1
        params = TrajectoryParams(1, zeta, 1)
        spectral = total_energy_spectral(params, tol=tol)
        with pytest.warns(RuntimeWarning) if zeta <= -0.99 else contextlib.nullcontext():
            larmor = total_energy_larmor(params)
        assert rel(spectral, larmor) < tol

    def test_tail_follows_the_saddle_exponent(self):
        # I(omega) ~ omega^{-1} e^{-c omega/kappa}, c = 4 (a - sin a cos a)
        # with cos a = (1 - zeta)/2: the local slope of ln(I e^{c omega/kappa})
        # against ln omega lies in (-1, -0.84) at omega/kappa 10-80 and
        # tends to -1, 1 + slope roughly halving with each doubling of
        # omega. So I e^{c omega/kappa} falls with omega, and the pure
        # exponential that places the total's cutoff errs high. Measured at
        # zeta 0: -0.946, -0.972, -0.986 on both routes; zeta 0.3: -0.962,
        # -0.981, -0.990; zeta -0.6: -0.841, -0.909, -0.950
        omegas = np.array([10.0, 20.0, 40.0, 80.0])
        found = []
        for zeta, numeric in ((0.0, False), (0.0, True), (0.3, True), (-0.6, True)):
            I = energy_spectrum(TrajectoryParams(1.0, zeta), omegas, 1e-6,
                                force_numeric=numeric)
            slopes = np.diff(np.log(I) + spectra._tail_rate(zeta) * omegas) / math.log(2.0)
            assert ((-1.0 < slopes) & (slopes < -0.84)).all(), (zeta, slopes)
            shrink = (1.0 + slopes[1:]) / (1.0 + slopes[:-1])
            assert ((0.45 <= shrink) & (shrink <= 0.6)).all(), (zeta, shrink)
            found.append(slopes)
        assert np.max(np.abs(found[0] - found[1])) < 1e-3

    @pytest.mark.parametrize("kappa", [0.01, 1.0, 100.0])
    def test_soft_photon_limit_at_zeta0(self, kappa):
        # N(omega) 6 pi kappa/e^2 -> 1 as omega -> 0, on the closed form and
        # on the quadrature; both measure -2.887 omega/kappa at every kappa
        params = TrajectoryParams(kappa, 0.0, 1.3)
        limit = 1.3 / (6.0 * math.pi * kappa)
        for y in (1e-6, 1e-4):
            omega = y * kappa
            for n in (particle_spectrum(params, omega, 1e-8),
                      energy_spectrum(params, omega, 1e-8, force_numeric=True) / omega):
                assert abs(n / limit - 1.0) <= 3.0 * y

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
        # of the closed form evaluated at its own signed u at unit charge,
        # written out here, and its bar must be _CLOSED_FORM_REL times the
        # value times the cancellation factor K of the two signed-u terms.
        # Clenshaw-Curtis nodes pair up exactly, the 19-angle theta grid in
        # only 4 of its 9 pairs, and -0.0 shares its modulus with 0.0
        def signed_u(kappa, omegas, us, sin2):
            y = omegas / kappa
            iy = np.broadcast_to(1j * y, (2, y.size))
            a = spectra._EXACT_A - iy
            g_half, g_one = np.exp(ln_gamma(a))[..., None]
            b = np.broadcast_to(spectra._EXACT_B, a.shape)
            m_half, m_one = spectra._kummer_grid(a.ravel(), b.ravel(), iy.ravel(),
                                                 us**2).reshape(2, y.size, -1)
            y = y[:, None]
            t1 = g_half * m_half
            t2 = 2.0 * us * (np.sqrt(y) * spectra._ROOT_I) * g_one * m_one
            m = t1 + t2
            scale = y * sin2 / (16.0 * math.pi**3) * np.exp(-math.pi * y)
            return (scale * np.abs(m) ** 2,
                    (np.abs(t1) + np.abs(t2)) / np.abs(m))

        params = TrajectoryParams(1.3, 0.0, 0.7)
        rng = np.random.default_rng(12)
        omegas = rng.uniform(0.1, 8.0, 5)
        thetas = np.linspace(0.0, math.pi, 19)
        grids = [spectra._cc_rule(order)[:2] for order in (64, 128, 256, 512)]
        grids.append((np.cos(thetas), np.sin(thetas)**2))
        grids.append((np.array([-0.5, -0.0, 0.0, 0.25, 0.5]),
                      np.array([0.75, 1.0, 1.0, 0.9375, 0.75])))
        for us, sin2 in grids:
            got, err = spectra._exact_zeta0_values(params, omegas, us, sin2, 1e-6)
            want, K = signed_u(1.3, omegas, us, sin2)
            assert np.array_equal(got, want)
            assert np.allclose(err, spectra._CLOSED_FORM_REL * K * got, rtol=1e-14, atol=0.0)

    def test_large_grid_matches_small_pieces(self):
        # a grid several times _SLICE_ELEMENTS runs in slices; each element
        # must come out as it does in a small grid
        rng = np.random.default_rng(13)
        omegas = rng.uniform(0.1, 14.0, 300)
        us, sin2, _ = spectra._cc_rule(128)
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
        us, sin2, _ = spectra._cc_rule(128)
        assert omegas.size * np.count_nonzero(sin2) > spectra._SLICE_ELEMENTS
        whole = spectra._numeric_values(params, omegas, us, sin2, 1e-7)
        pieces = [spectra._numeric_values(params, omegas[i:i + 5], us, sin2, 1e-7)
                  for i in range(0, omegas.size, 5)]
        for got, want in zip(whole, zip(*pieces)):
            assert np.array_equal(got, np.concatenate(want))

    def test_numeric_total_is_a_few_oscillatory_calls(self, monkeypatch, fresh_caches):
        # one batched quadrature per slice of a frequency order and angular
        # order, on the nodes new at that order; per-omega calls made 274 here
        sizes, evals = [], []
        batched = spectra._oscillatory_rows

        def counting(b, d, tol):
            sizes.append(np.broadcast(b, d).size)
            out = batched(b, d, tol)
            evals.append(int(np.sum(out[2])))
            return out

        monkeypatch.setattr(spectra, "_oscillatory_rows", counting)
        for zeta, runs, rows, work in ((-0.6, 2, 4_300, 900_000),
                                       (-0.9, 4, 5_200, 2_200_000)):
            sizes.clear()
            evals.clear()
            params = TrajectoryParams(1, zeta)
            total = total_energy_spectral(params, 1e-4)
            assert len(sizes) <= runs and max(sizes) <= spectra._SLICE_ELEMENTS
            assert sum(sizes) <= rows and sum(evals) <= work
            assert rel(total, total_energy_larmor(params)) < 1e-3

    def test_closed_form_total_is_a_few_1f1_calls(self, monkeypatch, fresh_caches):
        # one 1F1 grid of both series per frequency order and angular order,
        # and the exact route never reaches the oscillatory integrator
        sizes = []
        grid = spectra._kummer_grid

        def counting(a, b, c, z):
            sizes.append(a.size * z.size)
            return grid(a, b, c, z)

        def no_quadrature(*args):
            raise AssertionError("the exact route ran the numeric one")

        monkeypatch.setattr(spectra, "_kummer_grid", counting)
        monkeypatch.setattr(spectra, "_oscillatory_rows", no_quadrature)
        params = TrajectoryParams(1, 0)
        total = total_energy_spectral(params, 1e-4)
        assert len(sizes) <= 2 and sum(sizes) <= 4_400
        assert max(sizes) <= spectra._SLICE_ELEMENTS
        assert rel(total, total_energy_larmor(params)) < 1e-8

    def test_overflowing_row_raises(self, monkeypatch):
        # the unit-charge I(omega = 2) is 1.3e301, a double, but e^2 times
        # it is not: the row is refused, with no warning
        def huge(params, omegas, us, sin2, tol):
            values = np.where(omegas[:, None] > 1.0, 1e300, 1.0) * np.ones(us.size)
            return values, np.zeros_like(values)

        monkeypatch.setattr(spectra, "_exact_zeta0_values", huge)
        with pytest.raises(OverflowRangeError, match="omega=2 overflows"):
            energy_spectrum(TrajectoryParams(1, 0, 1e10), np.array([0.5, 2.0]))

    def test_unsettled_row_raises_with_its_own_best(self, monkeypatch):
        # rows with omega >= 1 vary over u and scale with the size of the
        # route call that first evaluated a node, so they never settle; each
        # node keeps the value of that call. With or without a floor the
        # first call holds the 65 nodes of order 64, then come 64, 128 and
        # 256; a constant row settles at order 64, against order 32
        def fake(params, omegas, us, sin2, tol):
            values = np.where(omegas[:, None] >= 1.0,
                              np.outer(omegas * us.size, 1.0 + np.abs(us)),
                              omegas[:, None] * np.ones(us.size))
            return values, np.zeros_like(values)

        monkeypatch.setattr(spectra, "_exact_zeta0_values", fake)
        params = TrajectoryParams(1, 0)
        us, _, ws = spectra._cc_rule(512)
        k = np.arange(513)
        first = np.select([k % 8 == 0, k % 4 == 0, k % 2 == 0], [65.0, 64.0, 128.0], 256.0)
        for abs_floor in (0.0, 1e-300):
            with pytest.raises(ConvergenceError, match="omega=3.0") as err:
                energy_spectrum(params, np.array([0.5, 3.0, 2.0]), 1e-6,
                                abs_floor=abs_floor)
            # the route's values are at unit charge, and e^2 comes last
            e2 = params.e_squared
            assert err.value.best == e2 * float(
                2.0 * math.pi * np.vecdot((3.0 * first) * (1.0 + np.abs(us)), ws))
            assert energy_spectrum(params, 0.5, abs_floor=abs_floor) == e2 * float(
                2.0 * math.pi * np.vecdot(np.full(65, 0.5), spectra._cc_rule(64)[2]))

    def test_each_order_evaluates_only_its_new_nodes(self, monkeypatch):
        # the orders nest: after the first call, the route gets only the
        # odd-indexed nodes, which are the ones the last order lacks. With
        # or without a floor the first call runs on all of order 64, and
        # order 32 reads every other node of it
        calls = []

        def never_settles(params, omegas, us, sin2, tol):
            calls.append((us, sin2))
            values = np.outer(omegas, len(calls) + np.abs(us))
            return values, np.zeros_like(values)

        monkeypatch.setattr(spectra, "_numeric_values", never_settles)
        orders = (64, 128, 256, 512)
        for abs_floor in (0.0, 1e-300):
            calls.clear()
            with pytest.raises(ConvergenceError):
                energy_spectrum(TrajectoryParams(1, 0.3), 1.0, 1e-6, abs_floor=abs_floor)
            assert [us.size for us, _ in calls] == [65, 64, 128, 256]
            assert [np.count_nonzero(sin2) for _, sin2 in calls] == [63, 64, 128, 256]
            for (us, sin2), order in zip(calls, orders):
                new = slice(None) if order == 64 else slice(1, None, 2)
                assert np.array_equal(us, spectra._cc_rule(order)[0][new])
                assert np.array_equal(sin2, spectra._cc_rule(order)[1][new])
        monkeypatch.undo()

        # the real routes, which settle at order 64: the numeric one
        # integrates the lit nodes, the exact one sums its series per |u|
        rows, moduli = [], []
        oscillatory, exact = spectra._oscillatory_rows, spectra._exact_zeta0_values

        def counting_rows(b, d, tol):
            rows.append(np.broadcast(b, d).size)
            return oscillatory(b, d, tol)

        def counting_moduli(params, omegas, us, sin2, tol):
            moduli.append(np.unique(np.abs(us)).size)
            return exact(params, omegas, us, sin2, tol)

        monkeypatch.setattr(spectra, "_oscillatory_rows", counting_rows)
        monkeypatch.setattr(spectra, "_exact_zeta0_values", counting_moduli)
        for abs_floor in (0.0, 1e-300):
            rows.clear()
            moduli.clear()
            energy_spectrum(TrajectoryParams(1, -0.6), 1.0, 1e-6, abs_floor=abs_floor)
            energy_spectrum(TrajectoryParams(1, 0), 1.0, 1e-6, abs_floor=abs_floor)
            assert rows == [63] and moduli == [33]

    @pytest.mark.parametrize("zeta", [-0.6, 0.0, 0.3])
    def test_both_schedules_give_the_same_bits(self, zeta):
        # a floor changes when a row settles, never which nodes a call
        # takes, so a floor too small to settle any row leaves every value
        # as it is
        params = TrajectoryParams(0.8, zeta)
        omegas = 0.8 * np.array([0.1, 0.7, 2.5, 6.0])
        floored = energy_spectrum(params, omegas, 1e-6, abs_floor=1e-300)
        assert energy_spectrum(params, omegas, 1e-6).tolist() == floored.tolist()

    def test_unsettled_total_raises_with_its_last_value(self, monkeypatch, fresh_caches):
        # a step in I(omega) at omega 5 keeps every pair of orders in
        # s = sqrt(omega) apart, and each node's value scales with the size
        # of the call that evaluated it: the first holds the 64 nonzero
        # nodes of order 64, then come 64, 128 and 256 new ones. The probe
        # puts the peak at 4 and I0 = 0 at omega0 = 20/c, so hi is omega0,
        # where I(hi) = 0 passes the endpoint check. The last value is the
        # caller's E, e^2 kappa times the unit run's
        monkeypatch.setattr(spectra, "energy_spectrum",
                            lambda params, omegas, *args, **kw:
                            omegas.size * np.where(omegas < 5.0, 1.0, 0.0))
        with pytest.raises(ConvergenceError, match="did not stabilize") as err:
            total_energy_spectral(TrajectoryParams(1, 0))
        us, _, ws = spectra._cc_rule(512)
        k = np.arange(513)
        size = np.select([k % 4 == 0, k % 2 == 0], [64.0, 128.0], 256.0)
        root_hi = math.sqrt(20.0 / spectra._tail_rate(0.0))
        s = 0.5 * root_hi * (1.0 + us)
        want = 0.5 * root_hi * np.vecdot(2.0 * s * size * (s**2 < 5.0), ws)
        assert err.value.best == pytest.approx(E_SQUARED_DEFAULT * want, rel=1e-14, abs=0.0)

    def test_cutoff_refuses_a_spectrum_that_never_decays(self, monkeypatch, fresh_caches):
        # the tail law puts hi at 20/c + ln(I0/1e-11)/c = 17.6 for a peak
        # of 10 at omega 0.1 and I0 = c/20, but 1/hi is far above 1e-11 of
        # the peak there
        monkeypatch.setattr(spectra, "energy_spectrum",
                            lambda params, omegas, *args, **kw: 1.0 / omegas)
        with pytest.raises(ConvergenceError, match="at the cutoff omega = 17.597") as err:
            total_energy_spectral(TrajectoryParams(1, 0))
        c = spectra._tail_rate(0.0)
        assert err.value.best == pytest.approx(20.0 / c + math.log(c / 20.0 / 1e-11) / c,
                                               rel=1e-14, abs=0.0)

    def test_cutoff_refuses_a_threshold_that_is_no_double(self, monkeypatch, fresh_caches):
        # a subnormal peak puts 1e-12 of it at 0, where ln(I0/threshold)
        # has no value; an infinite one leaves no finite threshold
        for value in (1e-315, math.inf):
            monkeypatch.setattr(spectra, "energy_spectrum",
                                lambda params, omegas, *args, **kw:
                                np.full(omegas.size, value))
            with pytest.raises(ConvergenceError, match="cutoff .* no positive finite"):
                total_energy_spectral(TrajectoryParams(1, 0))


class TestUnitTotal:
    # E = e^2 kappa E_1, where the unit total E_1 at kappa = e^2 = 1 runs
    # once per (zeta, tol) per process

    def test_sweep_over_kappa_and_charge_is_one_total(self, monkeypatch, fresh_caches):
        # twelve worlds at one (zeta, tol): only the first total integrates,
        # and it does so at kappa = e^2 = 1
        worlds = []
        spectrum = spectra.energy_spectrum

        def counting(params, omegas, *args, **kw):
            worlds.append((params.kappa, params.e_squared))
            return spectrum(params, omegas, *args, **kw)

        monkeypatch.setattr(spectra, "energy_spectrum", counting)
        for i, (kappa, e2) in enumerate(itertools.product((0.5, 1.0, 3.0, 1e5),
                                                          (0.2, 1.0, 7.0))):
            total_energy_spectral(TrajectoryParams(kappa, 0.0, e2), 1e-4)
            if i == 0:
                first = len(worlds)
            assert len(worlds) == first
        assert first > 0 and set(worlds) == {(1.0, 1.0)}
        info = spectra._unit_total.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 11, 1)

    def test_refused_unit_runs_stay_uncached(self, monkeypatch, fresh_caches):
        # a refused tol, a cutoff refused and a frequency rule that never
        # settles each raise on every call and leave nothing in the cache
        params = TrajectoryParams(2.0, 0.0, 3.0)
        spectra_that_fail = {
            "cutoff": lambda params, omegas, *args, **kw: 1.0 / omegas,
            "did not stabilize": lambda params, omegas, *args, **kw:
                omegas.size * np.where(omegas < 5.0, 1.0, 0.0)}
        for _ in range(2):
            with pytest.raises(DomainError, match="tol"):
                total_energy_spectral(params, math.nan)
            for match, spectrum in spectra_that_fail.items():
                monkeypatch.setattr(spectra, "energy_spectrum", spectrum)
                with pytest.raises(ConvergenceError, match=match):
                    total_energy_spectral(params)
                monkeypatch.undo()
        assert spectra._unit_total.cache_info().currsize == 0
        misses = spectra._unit_total.cache_info().misses
        unit = total_energy_spectral(TrajectoryParams(1.0, 0.0, 1.0))
        assert total_energy_spectral(params) == 6.0 * unit
        # a product past the double range is refused after the unit run,
        # which stays cached
        with pytest.raises(ConvergenceError, match="underflows a double"):
            total_energy_spectral(TrajectoryParams(1e-300, 0.0, 1e-300))
        info = spectra._unit_total.cache_info()
        assert (info.misses, info.currsize) == (misses + 1, 1)

    def test_refusals_state_the_callers_units(self, monkeypatch, fresh_caches):
        # the unit run's refusals restated at kappa 2 and e^2 3: a frequency
        # is kappa times the unit run's, I(omega) e^2 times and E e^2 kappa
        # times, and kappa = e^2 = 1 reads the unit run's own numbers
        c = spectra._tail_rate(0.0)
        hi = 20.0 / c + math.log(c / 20.0 / 1e-11) / c
        monkeypatch.setattr(spectra, "energy_spectrum",
                            lambda params, omegas, *args, **kw: 1.0 / omegas)
        for kappa, e2, text in ((2.0, 3.0, "1.705e-01 at the cutoff omega = 35.1942"),
                                (1.0, 1.0, "5.683e-02 at the cutoff omega = 17.5971")):
            with pytest.raises(ConvergenceError, match=f"I\\(omega\\) = {text} ") as err:
                total_energy_spectral(TrajectoryParams(kappa, 0.0, e2))
            assert err.value.best == pytest.approx(kappa * hi, rel=1e-14, abs=0.0)
        monkeypatch.setattr(spectra, "energy_spectrum",
                            lambda params, omegas, *args, **kw: np.full(omegas.size, math.inf))
        with pytest.raises(ConvergenceError, match="cutoff 16.2817 or its threshold inf ") as err:
            total_energy_spectral(TrajectoryParams(2.0, 0.0, 3.0))
        assert err.value.best == 2.0 * (20.0 / c)
        monkeypatch.setattr(spectra, "energy_spectrum",
                            lambda params, omegas, *args, **kw:
                            omegas.size * np.where(omegas < 5.0, 1.0, 0.0))
        bests = []
        for kappa, e2 in ((1.0, 1.0), (2.0, 3.0)):
            with pytest.raises(ConvergenceError, match="did not stabilize") as err:
                total_energy_spectral(TrajectoryParams(kappa, 0.0, e2))
            bests.append(err.value.best)
        assert bests[1] == 6.0 * bests[0]

    def test_angular_refusal_states_the_callers_units(self, fresh_caches):
        # at zeta -0.995 an angular rule of the unit run's spectra does not
        # settle; energy_spectrum's refusal reaches a caller at kappa 2 and
        # e^2 3 with omega kappa times and best e^2 times the unit run's,
        # and kappa = e^2 = 1 reads the unit run's own numbers
        refusals = []
        for kappa, e2 in ((1.0, 1.0), (2.0, 3.0)):
            with pytest.raises(ConvergenceError) as err:
                total_energy_spectral(TrajectoryParams(kappa, -0.995, e2))
            refusals.append(err.value)
        unit, scaled = refusals
        y = 21221.16314897473
        assert str(unit) == f"angular quadrature did not stabilize for omega={y}"
        assert str(scaled) == f"angular quadrature did not stabilize for omega={2.0 * y}"
        assert unit.best > 0.0 and scaled.best == 3.0 * unit.best
        assert spectra._unit_total.cache_info().currsize == 0

    def test_total_is_charge_and_kappa_times_the_unit_total(self):
        # E/(e^2 kappa), taken exactly, is within 2 ulp of the unit total
        # wherever E is a normal double, also where e^2 alone is subnormal,
        # and E within one subnormal step of e^2 kappa E_1 where it is
        # subnormal; a product past the largest double, or one whose
        # subnormal step exceeds tol of it, is refused, and none overflows
        # on its way. The Larmor total, at its own tol, is scaled alike
        kappas = [1e-300, 1e-200, 1e-100, 1e-10, 0.7, 1.0, 3.0, 1e10, 1e100, 1e200,
                  1e300, 1e308]
        for total, tol in ((total_energy_spectral, 1e-4), (total_energy_larmor, 1e-9)):
            unit = total(TrajectoryParams(1.0, 0.0, 1.0), tol)
            for kappa, e2 in itertools.product(kappas, (1e-320, 1e-315, 1e-300, 1.0, 1e308)):
                params = TrajectoryParams(kappa, 0.0, e2)
                exact = Fraction(e2) * Fraction(kappa) * Fraction(unit)
                if exact > sys.float_info.max:
                    with pytest.raises(OverflowRangeError,
                                       match="the total energy overflows a double"):
                        total(params, tol)
                elif math.ulp(0.0) > tol * exact:
                    with pytest.raises(ConvergenceError, match="underflows a double"):
                        total(params, tol)
                elif exact >= sys.float_info.min:
                    got = Fraction(total(params, tol))
                    assert abs(got / (Fraction(e2) * Fraction(kappa)) - Fraction(unit)) \
                        <= 2 * Fraction(math.ulp(unit)), (total, kappa, e2)
                else:
                    got = Fraction(total(params, tol))
                    assert abs(got - exact) <= Fraction(math.ulp(0.0)), (total, kappa, e2)

    @pytest.mark.parametrize("zeta, bits", [(0.0, "0x1.9af4e7c309cf8p-9"),
                                            (0.3, "0x1.ed04b97c7198ep-10"),
                                            (-0.3, "0x1.9156461d61c7cp-8")])
    def test_unit_total_keeps_its_bits(self, zeta, bits):
        # at kappa = e^2 = 1 the total is the unit run itself, with the bits
        # it had when every total integrated its own spectrum
        assert total_energy_spectral(TrajectoryParams(1.0, zeta, 1.0), 1e-4) \
            == float.fromhex(bits)


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

    @pytest.mark.parametrize("companion", [fd_partial_energy_quadrature,
                                           fd_particle_count_quadrature])
    def test_quadrature_refuses_a_nan_tol(self, companion):
        with pytest.raises(DomainError, match="tol"):
            companion(TrajectoryParams(1.0, 0.2, 1.0), tol=math.nan)

    def test_companion_task_is_two_quadratures(self, monkeypatch, fresh_caches):
        # four zetas of the four companions at the default tol: the energy
        # and count shapes are each integrated once, then only scaled
        calls = []
        semi_infinite = spectra.integrate_semi_infinite

        def counting(f, scale=1.0, tol=1e-10):
            calls.append(tol)
            return semi_infinite(f, scale, tol)

        monkeypatch.setattr(spectra, "integrate_semi_infinite", counting)
        for zeta in (-0.45, -0.1, 0.2, 0.55):
            fd_partial_energy_quadrature(TrajectoryParams(1.3, zeta))
            fd_particle_count_quadrature(TrajectoryParams(1.3, zeta))
            mirror.mirror_fd_energy_quadrature(1.3, zeta)
            mirror.mirror_particle_count_quadrature(zeta, 1.3)
        assert calls == [1e-10, 1e-10]

    def test_errors_stay_uncached(self, monkeypatch, fresh_caches):
        params = TrajectoryParams(1.0, 0.2, 1.0)
        fd_partial_energy_quadrature(params)
        fd_particle_count_quadrature(params)
        assert spectra._fd_shape.cache_info().currsize == 2
        for companion in (fd_partial_energy_quadrature, fd_particle_count_quadrature):
            with pytest.raises(DomainError, match="tol"):
                companion(params, tol=math.nan)
            # a run out of waves stalls; the shape needs only its first wave,
            # so no evaluation budget can stall it
            monkeypatch.setattr(quadrature, "_MAX_WAVES", 0)
            with pytest.raises(ConvergenceError, match="stalled"):
                companion(params, tol=1e-11)
            monkeypatch.undo()
            assert spectra._fd_shape.cache_info().currsize == 2
        misses = spectra._fd_shape.cache_info().misses
        fd_partial_energy_quadrature(params, tol=1e-11)
        assert spectra._fd_shape.cache_info().misses == misses + 1

    @pytest.mark.parametrize("zeta", [-0.99, -0.5, 0.0, 0.5, 0.99])
    def test_companions_match_closed_forms_across_scales(self, zeta):
        scales = [10.0 ** k for k in range(-300, 301, 50)]
        worlds = ([TrajectoryParams(kappa, zeta, 1.0) for kappa in scales]
                  + [TrajectoryParams(1.0, zeta, e2) for e2 in scales])
        for params in worlds:
            assert rel(fd_partial_energy_quadrature(params),
                       fd_partial_energy(params)) < 1e-12
            assert rel(fd_particle_count_quadrature(params),
                       fd_particle_count(params)) < 1e-12
        for kappa in scales:
            assert rel(mirror.mirror_fd_energy_quadrature(kappa, zeta),
                       mirror.mirror_fd_energy(kappa, zeta)) < 1e-12
            assert rel(mirror.mirror_particle_count_quadrature(zeta, kappa),
                       mirror.mirror_particle_count(zeta, kappa)) < 1e-12

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
