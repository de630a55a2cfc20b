"""Scans the reach of the closed form in ``energy_spectrum`` off zeta = 0.

``energy_spectrum`` integrates a frequency row over u = cos(theta) with the
hypergeometric closed form, in the shift cos(theta) - zeta, when zeta = 0
or when X = (omega/kappa)(1 + |zeta|)^2 is at most ``spectra._EXACT_X_MAX``,
and on the saddle contour otherwise. This script measures what that
constant rests on, at kappa = 1:

* reach: at zeta from -0.99 to 0.99 in steps of 0.05 (0 left out; there
  every row takes the closed form), at X on both sides of the constant
  and at tol 1e-6 and 1e-8, each row is computed with the closed form
  forced (the constant set to inf) and with ``force_numeric=True``. A
  closed row fails where it refuses, or lies more than tol from the
  contour's value. Every row is also run with long double patched to
  double (float64 and complex128 in ``specfun``, and the 1F1 fail
  threshold taken from double's eps), which stands in for a platform
  whose long double is double. The constant must lie at least 1.5 times
  below the smallest failing X on either precision, and no row at or
  below it may fail.
* totals: the spectral total at tol 1e-4 must lie within tol of the Larmor
  total at zeta in {+-0.9, +-0.6, +-0.3, -0.99}.
* floor: at zeta from -0.99 to 0.99 in steps of 0.01, the spectral total at
  tol 1e-4 against its refusal floor, 0.9 min(I(0.1), I(1)); the smallest
  and largest ratio are printed.

Run from the root of a checkout; it takes about 20 s on one core:

    PYTHONPATH=src python tests/scan_closed_form_reach.py [reach|totals|floor ...]

It prints one line per failing row and a summary per section, and exits 1
if a check above fails.
"""
import contextlib
import math
import sys
import time
import warnings
from unittest import mock

import numpy as np

from fdradiance import spectra, specfun
from fdradiance.errors import ConvergenceError
from fdradiance.trajectory import TrajectoryParams, total_energy_larmor

REACH_ZETAS = [-0.99] + [round(z, 2) for z in np.arange(-0.95, 0.951, 0.05)
                         if abs(z) > 1e-9] + [0.99]
BELOW = (0.5, 2.0, 4.0, 8.0, 10.0, 12.0, 13.0, 14.0)
ABOVE = (15.0, 16.0, 17.0, 18.0, 19.0, 20.0, 21.0, 22.0, 23.0, 24.0, 26.0, 28.0, 32.0, 40.0, 48.0)
TOTAL_ZETAS = (-0.99, -0.9, -0.6, -0.3, 0.3, 0.6, 0.9)


class _DoubleOnly:
    """numpy, with long double read as double."""

    longdouble, clongdouble = np.float64, np.complex128

    def __getattr__(self, name):
        return getattr(np, name)


@contextlib.contextmanager
def double_only():
    with mock.patch.object(specfun, "np", _DoubleOnly()), \
            mock.patch.object(specfun, "_CANCEL_FAIL",
                              specfun._cancel_fail(np.finfo(np.float64).eps)):
        yield


def spectrum(params, omega, tol, **kw):
    """I(omega), or the refusal's text."""
    try:
        return spectra.energy_spectrum(params, omega, tol, **kw)
    except ConvergenceError as err:
        return str(err).split(":")[0][:60]


def reach():
    x0 = spectra._EXACT_X_MAX
    first_fail = {"long double": math.inf, "double only": math.inf}
    worst = dict.fromkeys(first_fail, 0.0)
    rows = failed_below = 0
    for tol in (1e-6, 1e-8):
        for zeta in REACH_ZETAS:
            params = TrajectoryParams(1.0, zeta, 1.0)
            for x in BELOW + ABOVE:
                omega = x / (1.0 + abs(zeta)) ** 2
                want = spectrum(params, omega, tol, force_numeric=True)
                if isinstance(want, str):
                    print(f"contour refused: tol {tol:g} zeta {zeta} X {x} "
                          f"omega {omega:.6g}: {want}")
                    continue
                for name, precision in (("long double", contextlib.nullcontext),
                                        ("double only", double_only)):
                    with precision(), mock.patch.object(spectra, "_EXACT_X_MAX", math.inf):
                        got = spectrum(params, omega, tol)
                    rows += 1
                    ok = not isinstance(got, str) and abs(got - want) <= tol * want
                    if ok:
                        if x <= x0:
                            worst[name] = max(worst[name], abs(got - want) / want)
                        continue
                    first_fail[name] = min(first_fail[name], x)
                    failed_below += x <= x0
                    how = got if isinstance(got, str) else f"{abs(got - want) / want:.2e} off"
                    print(f"closed form failed ({name}): tol {tol:g} zeta {zeta} X {x} "
                          f"omega {omega:.6g}: {how}")
    for name in first_fail:
        print(f"reach ({name}): worst relative difference at X <= X0 = {x0:g}: "
              f"{worst[name]:.2e}; smallest failing X: {first_fail[name]:g}")
    print(f"reach: {rows} closed rows; {failed_below} failed at X <= X0")
    return failed_below == 0 and 1.5 * x0 <= min(first_fail.values())


def totals():
    ok = True
    for zeta in TOTAL_ZETAS:
        params = TrajectoryParams(1.0, zeta, 1.0)
        start = time.perf_counter()
        spectral = spectra.total_energy_spectral(params, 1e-4)
        seconds = time.perf_counter() - start
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            larmor = total_energy_larmor(params)
        rel = abs(spectral - larmor) / larmor
        ok &= rel <= 1e-4
        print(f"total zeta {zeta:+.2f}: spectral {spectral:.16e} larmor {larmor:.16e} "
              f"rel {rel:.2e} ({seconds:.2f} s)")
    return ok


def floor():
    ratios = []
    refused = []
    for zeta in np.round(np.arange(-0.99, 0.9901, 0.01), 2):
        zeta = float(zeta) if zeta != 0.0 else 0.0
        try:
            total = spectra.total_energy_spectral(TrajectoryParams(1.0, zeta, 1.0), 1e-4)
        except ConvergenceError as err:
            refused.append((zeta, str(err)))
            continue
        low = spectra.energy_spectrum(TrajectoryParams(1.0, zeta, 1.0),
                                      np.array([0.1, 1.0]), 1e-4)
        ratios.append((total / (0.9 * low.min()), zeta))
    for zeta, why in refused:
        print(f"floor: zeta {zeta} refused: {why}")
    (lo, zlo), (hi, zhi) = min(ratios), max(ratios)
    print(f"floor: {len(ratios)} totals; total / floor from {lo:.3g} (zeta {zlo}) "
          f"to {hi:.3g} (zeta {zhi}); {len(refused)} refused")
    return not refused and lo > 1.0


def main(argv):
    sections = {"reach": reach, "totals": totals, "floor": floor}
    names = argv or list(sections)
    results = [sections[name]() for name in names]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
