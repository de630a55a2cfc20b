"""Worldline kinematics and the radiated-power route.

Frozen energy and power values come from 30-to-60-digit mpmath
quadrature of the same integrand written independently.
"""
import math
import sys
import warnings

import numpy as np
import pytest

from fdradiance.errors import DomainError, OverflowRangeError
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

    def test_energy_scales_with_kappa(self):
        e1 = total_energy_larmor(TrajectoryParams(1.0, 0.1, 1.0))
        e2 = total_energy_larmor(TrajectoryParams(2.0, 0.1, 1.0))
        assert rel(e2, 2.0 * e1) < 1e-8

    def test_energy_warns_near_divergence(self):
        with pytest.warns(RuntimeWarning):
            total_energy_larmor(TrajectoryParams(1.0, -0.99, 1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            total_energy_larmor(TrajectoryParams(1.0, -0.9, 1.0))
