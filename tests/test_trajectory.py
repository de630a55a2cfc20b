"""Worldline kinematics and the radiated-power route.

Frozen energy and power values come from 30-to-60-digit mpmath
quadrature of the same integrand written independently.
"""
import itertools
import math
import re
import sys
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from oracles import worldline_position

from fdradiance import quadrature, trajectory
from fdradiance.errors import ConvergenceError, DomainError, OverflowRangeError
from fdradiance.trajectory import (
    E_SQUARED_DEFAULT,
    TrajectoryParams,
    coordinate_time,
    kinematic_state,
    larmor_power,
    penrose_coordinates,
    position_at_time,
    total_energy_larmor,
)


# the ends of the bound on kappa and e^2
KAPPA_MIN, KAPPA_MAX = 2.0**-256, 2.0**256


def rel(got, want):
    return abs(got - want) / abs(want)


class TestParams:
    def test_default_charge(self):
        assert rel(E_SQUARED_DEFAULT, 4 * math.pi * 7.2973525693e-3) < 1e-15

    def test_validation(self):
        with pytest.raises(DomainError):
            TrajectoryParams(0.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            TrajectoryParams(-2.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            TrajectoryParams(1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            TrajectoryParams(1.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            TrajectoryParams(1.0, 0.0, 0.0)


class TestWorldline:
    def test_time_formula(self):
        # t = (kappa/4) z^2 + (2/kappa) ln(kappa z) + zeta z, checked inline
        params = TrajectoryParams(2.0, 0.3, 1.0)
        z = 1.7
        want = 0.5 * z**2 + math.log(2 * z) + 0.3 * z
        assert rel(coordinate_time(params, z), want) < 1e-15
        assert coordinate_time(TrajectoryParams(1, 0, 1), 1.0) == 0.25

    def test_time_vectorized(self):
        params = TrajectoryParams(1.0, -0.2, 1.0)
        z = np.array([0.5, 1.0, 2.0])
        out = coordinate_time(params, z)
        assert out.shape == z.shape
        assert out[0] < out[1] < out[2]

    def test_inversion_round_trip(self):
        for kappa in (0.5, 1.0, 2.0):
            for zeta in (-0.8, 0.0, 0.8):
                params = TrajectoryParams(kappa, zeta, 1.0)
                for t in (-30.0, -5.0, -1.0, 0.0, 1.0, 5.0, 30.0):
                    z = position_at_time(params, t)
                    assert z > 0
                    back = coordinate_time(params, z)
                    assert abs(back - t) < 1e-11 * max(1.0, abs(t))

    def test_inversion_far_times(self):
        # z spans the normal doubles from t ~ -1400 (kappa = 1) to beyond
        # t = 1e300; below that the position is refused, never misreported
        tiny = sys.float_info.min
        ts = [s * 10.0**k for k in range(301) for s in (1.0, -1.0)]
        for kappa in (0.5, 1.0, 2.0):
            for zeta in (-0.9, 0.0, 0.9):
                params = TrajectoryParams(kappa, zeta, 1.0)
                for t in ts + [-500.0, -700.0]:
                    if coordinate_time(params, tiny) > t:
                        with pytest.raises(OverflowRangeError):
                            position_at_time(params, t)
                        continue
                    back = coordinate_time(params, position_at_time(params, t))
                    assert abs(back - t) <= 1e-12 * max(1.0, abs(t))
        with pytest.raises(OverflowRangeError):
            position_at_time(TrajectoryParams(1.0, 0.0, 1.0), -1e4)

    def test_inversion_near_overflow(self):
        # for kappa < 4, z^2 overflows before t(z) does
        params = TrajectoryParams(0.5, 0.0, 1.0)
        assert rel(coordinate_time(params, 1.5e154), 2.8125e307) < 1e-15
        for kappa in (0.5, 1.0, 2.0):
            for zeta in (-0.9, 0.9):
                params = TrajectoryParams(kappa, zeta, 1.0)
                for t in (2e307, 8e307, 1.5e308):
                    back = coordinate_time(params, position_at_time(params, t))
                    assert rel(back, t) <= 1e-15
                # above t(z) at the largest z whose t(z) is finite (a few
                # ulps below the largest double), positions are refused
                with pytest.raises(OverflowRangeError):
                    position_at_time(params, sys.float_info.max)

    def test_time_overflow_refused(self):
        # t(z) beyond the doubles raises, with no numpy warning (an error
        # under the suite's filterwarnings)
        for kappa, z in ((1.0, 1e300), (1.0, np.array([1.0, 1e300])),
                         (1e-10, 1e-320)):
            with pytest.raises(OverflowRangeError, match="finite"):
                coordinate_time(TrajectoryParams(kappa, 0.0), z)
        with pytest.raises(OverflowRangeError):
            penrose_coordinates(TrajectoryParams(1.0, 0.0), 1e300)

    def test_subnormal_kappa_time_refused(self):
        # below 2/max, 2/kappa would be inf, and its product with ln(kappa
        # z) = 0 at kappa z = 1 nan; such a kappa lies below the bound and
        # is refused with the worldline
        with pytest.raises(DomainError, match=re.escape("kappa must lie in [2^-256, 2^256]")):
            TrajectoryParams(1.1e-308, 0.0)

    def test_tiny_kappa_ceiling_is_bisected(self):
        # at kappa 2^-256 the log term (2/kappa) ln(kappa z) takes t(z) past
        # the largest double where kappa z^2/4 reaches it, so the ceiling is
        # bisected, in a few dozen probes. The z is the one returned before
        # the bound; t(z) = 1 lies within a step of z there
        params = TrajectoryParams(KAPPA_MIN, 0.0)
        start = time.perf_counter()
        assert position_at_time(params, 1.0) == 1.0456951561520488e+77
        assert time.perf_counter() - start < 1.0
        # below 2/max, 2/kappa itself would overflow and no z have a finite
        # t(z): such a kappa is refused with the worldline
        with pytest.raises(DomainError, match="kappa"):
            TrajectoryParams(5e-324, 0.0)

    def test_numpy_time_matches_float_time(self):
        # a numpy float t must not overflow in the seed's t / kappa, which a
        # Python float never does (it would be a RuntimeWarning, an error
        # under the suite's filterwarnings)
        params = TrajectoryParams(0.01, 0.3)
        assert position_at_time(params, np.float64(1e308)) \
            == position_at_time(params, 1e308)

    def test_position_monotone(self):
        params = TrajectoryParams(1.3, 0.4, 1.0)
        ts = np.linspace(-20, 20, 41)
        zs = [position_at_time(params, float(t)) for t in ts]
        assert all(a < b for a, b in zip(zs, zs[1:]))

    def test_speed_peak(self):
        # v is maximal exactly where the two braking terms balance
        for zeta in (-0.5, 0.0, 0.5):
            params = TrajectoryParams(1.0, zeta, 1.0)
            peak = kinematic_state(params, 2.0).v
            assert rel(peak, 1.0 / (2.0 + zeta)) < 1e-15
            assert kinematic_state(params, 1.0).v < peak
            assert kinematic_state(params, 4.0).v < peak

    def test_speed_limits(self):
        params = TrajectoryParams(1.0, 0.0, 1.0)
        assert kinematic_state(params, 1e-12).v < 1e-11
        assert kinematic_state(params, 1e12).v < 1e-11

    def test_gamma_matches_speed(self):
        params = TrajectoryParams(1.0, 0.1, 1.0)
        for z in (0.5, 1.0, 2.0, 5.0):
            st = kinematic_state(params, z)
            assert rel(st.gamma, 1.0 / math.sqrt(1.0 - st.v**2)) < 1e-12

    def test_gamma_far_out(self):
        # at kappa 100 and z = 1e153, t = 2.5e307 is finite while
        # (1/v - 1)(1/v + 1) is not; gamma is 1 to double precision
        st = kinematic_state(TrajectoryParams(100.0, 0.0), 1e153)
        assert st.t == 2.5e307 and st.gamma == 1.0

    def test_acceleration_sign_flip(self):
        params = TrajectoryParams(1.0, 0.0, 1.0)
        assert kinematic_state(params, 1.5).accel > 0
        assert kinematic_state(params, 2.0).accel == 0
        assert kinematic_state(params, 2.5).accel < 0

    def test_proper_acceleration(self):
        st = kinematic_state(TrajectoryParams(1.0, -0.2, 1.0), 3.0)
        assert rel(st.proper_accel, st.gamma**3 * st.accel) < 1e-15

    def test_penrose(self):
        params = TrajectoryParams(1.0, 0.0, 1.0)
        U, V = penrose_coordinates(params, 1.0)  # t = 0.25 here
        assert rel(U, math.atan(0.25 - 1.0)) < 1e-15
        assert rel(V, math.atan(0.25 + 1.0)) < 1e-15
        assert -math.pi / 2 < U < V < math.pi / 2

    def test_penrose_array_matches_scalars(self):
        params = TrajectoryParams(0.7, -0.3, 1.0)
        zs = np.array([1e-3, 0.5, 2.0, 40.0])
        U, V = penrose_coordinates(params, zs)
        assert list(zip(U.tolist(), V.tolist())) == \
            [penrose_coordinates(params, z) for z in zs.tolist()]

    def test_penrose_bounded_far_out(self):
        params = TrajectoryParams(1.0, 0.6, 1.0)
        U, V = penrose_coordinates(params, 1e8)
        assert abs(U) <= math.pi / 2 and abs(V) <= math.pi / 2

    def test_errors(self):
        params = TrajectoryParams(1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            kinematic_state(params, 0.0)
        with pytest.raises(DomainError):
            kinematic_state(params, -1.0)
        with pytest.raises(DomainError):
            position_at_time(params, math.nan)


class TestInversionAccuracy:
    """position_at_time against a 60-digit root of t(z) = t."""

    @pytest.mark.parametrize("kappa", [0.01, 0.1, 1.0, 10.0, 100.0])
    def test_against_oracle_root(self, kappa):
        # the unit is one ulp of z plus the z-spread of one eps |t| in t,
        # which dominates in the far past, where dt/dz = 2/(kappa z) is huge
        eps = np.finfo(float).eps
        for zeta in (-0.99, 0.0, 0.99):
            params = TrajectoryParams(kappa, zeta, 1.0)
            t_min = coordinate_time(params, sys.float_info.min / min(1.0, kappa))
            ts = np.concatenate([
                -np.geomspace(-t_min, 1e-6, 30), [-1e-300, 0.0, 1e-300, 1e-12],
                np.geomspace(1e-6, 1e300, 40), np.linspace(-5.0, 5.0, 101)])
            for t, z in zip(ts.tolist(), position_at_time(params, ts).tolist()):
                root = worldline_position(kappa, zeta, t, z)
                slope = kappa / 2 * root + 2 / (kappa * root) + zeta
                unit = np.spacing(z) + eps * max(1.0, abs(t)) / float(slope)
                assert float(abs(mp.mpf(z) - root)) <= 4 * unit, (zeta, t)

    @pytest.mark.parametrize("kappa", [0.3, 0.5, 1.0, 2.0, 7.0])
    def test_floor_edge(self, kappa):
        # t at the smallest z whose kappa z is a normal double is the first
        # time given a position; the double below it is refused
        for zeta in (-0.9, 0.0, 0.9):
            params = TrajectoryParams(kappa, zeta, 1.0)
            floor = np.exp(math.log(sys.float_info.min / min(1.0, kappa)))
            t = coordinate_time(params, floor)
            below = float(np.nextafter(t, -math.inf))
            assert position_at_time(params, t) > 0.0
            assert (position_at_time(params, np.array([t, 1.0])) > 0.0).all()
            with pytest.raises(OverflowRangeError, match=re.escape(f"t={below!r} ")):
                position_at_time(params, below)
            with pytest.raises(OverflowRangeError, match=re.escape(f"t={below!r} ")):
                position_at_time(params, np.array([1.0, below]))


class TestArrayInversion:
    """One array call to position_at_time equals its per-element calls."""

    @pytest.mark.parametrize("kappa", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("zeta", [-0.9, 0.0, 0.9])
    def test_array_matches_elementwise_calls(self, kappa, zeta):
        # from the far past, where z nears the smallest normal double, to
        # t = 1.5e308 near the ceiling; each element's iterates must not
        # depend on the other elements, so the bits are those of its own call
        params = TrajectoryParams(kappa, zeta, 1.0)
        t_min = coordinate_time(params, sys.float_info.min / min(1.0, kappa))
        ts = np.concatenate([
            -np.geomspace(-t_min, 1e-3, 40), np.linspace(-5.0, 5.0, 41),
            np.geomspace(1e-3, 1e308, 60), [0.0, 2e307, 8e307, 1.5e308]])
        ts = ts[ts >= t_min]
        np.random.default_rng(7).shuffle(ts)
        whole = position_at_time(params, ts)
        single = [position_at_time(params, t) for t in ts.tolist()]
        assert whole.shape == ts.shape
        assert whole.tolist() == single
        grid = position_at_time(params, ts[:100].reshape(4, 25))
        assert grid.shape == (4, 25)
        assert grid.ravel().tolist() == single[:100]

    def test_refusal_names_the_first_offending_time(self):
        params = TrajectoryParams(1.0, 0.0, 1.0)
        with pytest.raises(OverflowRangeError, match=r"t=-10000\.0 "):
            position_at_time(params, np.array([-1.0, 0.0, -1e4, 5.0]))
        # of two refused times, the one first in the array is named
        with pytest.raises(OverflowRangeError, match=r"t=1\.7976931348623157e\+308 "):
            position_at_time(params, [1.0, sys.float_info.max, -1e4])

    def test_nan_time_raises(self):
        params = TrajectoryParams(1.0, 0.0, 1.0)
        with pytest.raises(DomainError, match="t=nan"):
            position_at_time(params, np.array([0.0, math.nan, 1.0]))

    def test_scalar_gives_float(self):
        params = TrajectoryParams(1.0, 0.3, 1.0)
        for t in (1.0, np.float64(1.0), np.array(1.0)):
            z = position_at_time(params, t)
            assert type(z) is float
            assert z == position_at_time(params, np.array([1.0]))[0]


class TestRadiation:
    def test_power_frozen(self):
        assert rel(larmor_power(TrajectoryParams(1, 0, 1), 1.0),
                   8.249041430094996346946e-4) < 1e-13
        assert rel(larmor_power(TrajectoryParams(2, -0.3, 1), 0.8),
                   1.913207430105428529153e-3) < 1e-13

    def test_power_scales_with_charge(self):
        p1 = larmor_power(TrajectoryParams(1, 0.2, 1.0), 1.3)
        p2 = larmor_power(TrajectoryParams(1, 0.2, 3.5), 1.3)
        assert rel(p2, 3.5 * p1) < 1e-15

    def test_power_nonnegative(self):
        params = TrajectoryParams(1.0, -0.4, 1.0)
        z = np.geomspace(1e-6, 1e6, 200)
        assert np.all(larmor_power(params, z) >= 0.0)

    def test_energy_closed_form(self):
        got = total_energy_larmor(TrajectoryParams(1, 0, 1))
        want = (1.0 / 36.0) * (1.0 / (3.0 * math.sqrt(3.0))
                               - 1.0 / (4.0 * math.pi))
        assert rel(got, want) < 1e-9

    def test_energy_frozen_offsets(self):
        assert rel(total_energy_larmor(TrajectoryParams(1, -0.5, 1)),
                   0.011218160918105490214) < 1e-9
        assert rel(total_energy_larmor(TrajectoryParams(1, 0.5, 1)),
                   0.0014141161545271872361) < 1e-9

    @pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0])
    def test_energy_refuses_a_bad_tol(self, tol):
        with pytest.raises(DomainError, match="tol"):
            total_energy_larmor(TrajectoryParams(1.0, 0.0, 1.0), tol=tol)

    def test_energy_scales_with_kappa(self):
        e1 = total_energy_larmor(TrajectoryParams(1.0, 0.1, 1.0))
        e2 = total_energy_larmor(TrajectoryParams(2.0, 0.1, 1.0))
        assert rel(e2, 2.0 * e1) < 1e-8

    @pytest.mark.parametrize("zeta", [-0.9, 0.0, 0.3])
    def test_energy_over_kappa_is_the_same_at_every_scale(self, zeta):
        # in s = kappa z the energy integral depends on zeta alone, so E/kappa
        # keeps its kappa = 1 value across the bound on kappa
        want = total_energy_larmor(TrajectoryParams(1.0, zeta))
        for kappa in (KAPPA_MIN, 1e-60, 1e-40, 1e-10, 1e10, 1e40, 1e60, KAPPA_MAX):
            got = total_energy_larmor(TrajectoryParams(kappa, zeta)) / kappa
            assert abs(got - want) <= 4 * np.spacing(want), kappa

    def test_power_is_kappa_squared_times_a_function_of_kappa_z(self):
        s = np.geomspace(1e-3, 1e3, 13)
        want = larmor_power(TrajectoryParams(1.0, 0.2), s)
        got = larmor_power(TrajectoryParams(KAPPA_MAX, 0.2), s / KAPPA_MAX) / KAPPA_MAX**2
        assert np.max(np.abs(got - want) / want) < 1e-14

    @pytest.mark.parametrize("kappa, zeta", [(1.0, 0.0), (1e50, 0.3), (1e-50, -0.6)])
    def test_power_at_tiny_kappa_z(self, kappa, zeta):
        # v = s/2 to first order in s = kappa z and v^2 dw/ds = -1/2, so P
        # tends to e^2 s^2 kappa^2/(96 pi), a double although w^6 is not
        s = 1e-60
        params = TrajectoryParams(kappa, zeta)
        want = params.e_squared * s * s * kappa * kappa / (96.0 * math.pi)
        assert rel(larmor_power(params, s / kappa), want) < 1e-12

    @pytest.mark.parametrize("zeta", [-0.99, 0.0, 0.9])
    def test_power_is_quiet_over_the_double_range(self, zeta):
        # no factor of the integrand overflows: P ~ s^2/(96 pi) below the
        # turning point and 16/(6 pi s^6) above it underflow to 0 far out
        # on either side, with no warning on the way
        s = np.geomspace(1e-300, 1e300, 601)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            P = larmor_power(TrajectoryParams(1.0, zeta, 1.0), s)
            assert larmor_power(TrajectoryParams(1.0, zeta, 1.0), 1e200) == 0.0
        assert np.isfinite(P).all() and (P >= 0.0).all()
        assert P[0] == 0.0 and P[-1] == 0.0
        assert (P[(s > 1e-150) & (s < 1e50)] > 0.0).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_power_refuses_where_one_minus_v_squared_rounds_to_0(self):
        # at zeta = -(1 - 2^-53), 2 + zeta rounds to 1, so v rounds to 1 near
        # kappa z = 2 and gamma has no value: 0/0 at 2 and x/0 just above.
        # The refusal names the first such z, with no warning on the way,
        # and every other value keeps its bits
        params = TrajectoryParams(1.0, -(1.0 - 2.0**-53), 1.0)
        above = 2.0000000001053673
        for z, first in (([1.0, 2.0, above, 3.0], 2.0), ([1.0, above, 2.0], above),
                         (2.0, 2.0), (above, above)):
            with pytest.raises(OverflowRangeError, match=f"P at z={first!r} has no value"):
                larmor_power(params, np.array(z))
        z = np.array([1e-3, 1.0, 1.9, 1.99999, 2.00001, 2.1, 3.0, 1e3])
        P = larmor_power(params, z)
        assert np.isfinite(P).all() and (P > 0.0).all()
        assert P.tolist() == trajectory._larmor(params.zeta, z, 6).tolist()
        assert P.tolist() == [larmor_power(params, w) for w in z.tolist()]

    def test_overflow_is_refused(self):
        # at kappa 1e300, P would overflow a double near kappa z = 1, and at
        # (kappa, e^2) = (1e300, 1e12) so would E: such a kappa is refused.
        # Inside the bound P stays finite: kappa^2 e^2 <= 2^768 times a unit
        # power that peaks near 1/(1 + zeta)^2, close to kappa z = 2
        with pytest.raises(DomainError, match="kappa"):
            TrajectoryParams(1e300, 0.0)
        for zeta in (-(1.0 - 2.0**-30), -0.99, 0.0, 0.99, 1.0 - 2.0**-30):
            near = 2.0 + math.sqrt(1.0 + zeta) * np.geomspace(0.01, 100.0, 41)
            s = np.concatenate([np.geomspace(1e-6, 1e6, 241), near, 4.0 - near])
            P = larmor_power(TrajectoryParams(KAPPA_MAX, zeta, KAPPA_MAX), s[s > 0.0] / KAPPA_MAX)
            assert np.isfinite(P).all() and (P >= 0.0).all() and P.max() > 1e227

    def test_energy_warns_near_divergence(self):
        with pytest.warns(RuntimeWarning):
            total_energy_larmor(TrajectoryParams(1.0, -0.99, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            total_energy_larmor(TrajectoryParams(1.0, -0.9, 1.0))


class TestUnitLarmor:
    # E = kappa (e^2 E_1), where the unit integral E_1 runs once per
    # (zeta, tol) per process

    @staticmethod
    def counting(monkeypatch):
        calls = []
        semi_infinite = trajectory.integrate_semi_infinite

        def counting(f, scale=1.0, tol=1e-10):
            calls.append(tol)
            return semi_infinite(f, scale, tol)

        monkeypatch.setattr(trajectory, "integrate_semi_infinite", counting)
        return calls

    def test_sweep_over_kappa_and_charge_is_one_integral(self, monkeypatch, fresh_caches):
        # twelve worlds at one (zeta, tol) integrate once, and each E keeps
        # the bits of its own integral times e^2, then kappa
        calls = self.counting(monkeypatch)
        for kappa, e2 in itertools.product((0.5, 1.0, 3.0, 1e5), (0.2, 1.0, 7.0)):
            params = TrajectoryParams(kappa, 0.3, e2)
            unit = float(quadrature.integrate_semi_infinite(
                lambda s: trajectory._larmor(0.3, s, 5), 1.0, 1e-9).value)
            assert total_energy_larmor(params) == kappa * (e2 * unit)
        assert calls == [1e-9]
        info = trajectory._unit_larmor.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 11, 1)
        # another zeta or tol is another integral
        total_energy_larmor(TrajectoryParams(2.0, 0.3), 1e-10)
        total_energy_larmor(TrajectoryParams(2.0, -0.3))
        assert calls == [1e-9, 1e-10, 1e-9]

    def test_warning_and_refusals_come_on_every_call(self, monkeypatch, fresh_caches):
        # the zeta -> -1 warning comes from a cached integral too; a bad tol
        # is refused before the cache, a stalled integral raises on every
        # call, and neither leaves anything in it
        calls = self.counting(monkeypatch)
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="divergent endpoint"):
                total_energy_larmor(TrajectoryParams(1.0, -0.995, 1.0))
        assert len(calls) == 1
        trajectory._unit_larmor.cache_clear()
        calls.clear()
        monkeypatch.setattr(quadrature, "_MAX_EVALS", 100)
        for _ in range(2):
            with pytest.raises(DomainError, match="tol"):
                total_energy_larmor(TrajectoryParams(1.0, 0.0), math.nan)
            with pytest.raises(ConvergenceError):
                total_energy_larmor(TrajectoryParams(1.0, 0.0), 1e-13)
        assert calls == [1e-13, 1e-13]
        assert trajectory._unit_larmor.cache_info().currsize == 0
        # the unit run at the bound's top corner is finite, and stays cached
        monkeypatch.undo()
        assert math.isfinite(total_energy_larmor(TrajectoryParams(KAPPA_MAX, 0.0, KAPPA_MAX)))
        assert trajectory._unit_larmor.cache_info().currsize == 1
