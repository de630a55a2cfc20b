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
        # below 2/max, 2/kappa is inf, and at kappa z = 1 its product with
        # ln(kappa z) = 0 is nan: refused like an infinite t(z), with no
        # numpy warning
        kappa = 1.1e-308
        with pytest.raises(OverflowRangeError, match="finite"):
            coordinate_time(TrajectoryParams(kappa, 0.0), 1.0 / kappa)

    def test_tiny_kappa_ceiling_is_bisected(self):
        # at kappa 1e-300 the log term (2/kappa) ln(kappa z) overflows far
        # below where kappa z^2/4 does; the ceiling walk of one ulp of ln z
        # per probe took 12 s to get there, the bisection a few dozen probes.
        # The z is the one the walk returned
        params = TrajectoryParams(1e-300, 0.0)
        start = time.perf_counter()
        assert position_at_time(params, 1.0) == 9.030799625774899e+299
        assert time.perf_counter() - start < 1.0
        # below 2/max, 2/kappa itself overflows and no z has a finite t(z)
        with pytest.raises(OverflowRangeError):
            position_at_time(TrajectoryParams(5e-324, 0.0), 1.0)

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
        # keeps its kappa = 1 value across the double range
        want = total_energy_larmor(TrajectoryParams(1.0, zeta))
        for kappa in (1e-300, 1e-200, 1e-160, 1e-156, 1e150, 1e300):
            got = total_energy_larmor(TrajectoryParams(kappa, zeta)) / kappa
            assert abs(got - want) <= 4 * np.spacing(want), kappa

    def test_power_is_kappa_squared_times_a_function_of_kappa_z(self):
        s = np.geomspace(1e-3, 1e3, 13)
        want = larmor_power(TrajectoryParams(1.0, 0.2), s)
        got = larmor_power(TrajectoryParams(1e150, 0.2), s / 1e150) / 1e300
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

    def test_overflow_is_refused(self):
        # at kappa 1e300, P = kappa^2 P(kappa z)|_{kappa=1} is 8e298 out at
        # kappa z = 1e50 and overflows a double near kappa z = 1 (but for
        # the turning point kappa z = 2, where the acceleration vanishes)
        params = TrajectoryParams(1e300, 0.0)
        assert 1e298 < larmor_power(params, 1e-250) < 1e299
        with pytest.raises(OverflowRangeError, match="z=1e-300 is not a finite double"):
            larmor_power(params, 1e-300)
        with pytest.raises(OverflowRangeError, match="z=3e-300 "):
            larmor_power(params, np.array([1e-250, 3e-300, 5e-300]))
        # E/kappa = e^2 x 0.0031: finite, but not once multiplied by kappa
        with pytest.raises(OverflowRangeError, match="total energy overflows a double"):
            total_energy_larmor(TrajectoryParams(1e300, 0.0, 1e12))

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
        # a product past the double range is refused after the unit run,
        # which stays cached
        monkeypatch.undo()
        with pytest.raises(OverflowRangeError, match="total energy overflows a double"):
            total_energy_larmor(TrajectoryParams(1e300, 0.0, 1e12))
        assert trajectory._unit_larmor.cache_info().currsize == 1
