"""Runs the ten-point acceptance suite once and asserts each criterion.

The per-criterion pass/fail lines are echoed in the terminal summary via
the conftest hook, so a plain pytest run shows the full scorecard.
"""
import math

import numpy as np
import pytest

import conftest
from fdradiance import acceptance, specfun, spectra
from fdradiance.acceptance import CRITERION_NAMES, run_all
from fdradiance.errors import DomainError


@pytest.fixture(scope="session")
def results():
    res = run_all()
    conftest.ACCEPTANCE_LINES[:] = [r.line() for r in res]
    return {r.index: r for r in res}


@pytest.mark.parametrize(
    "index", sorted(CRITERION_NAMES),
    ids=[f"{i:02d}-{CRITERION_NAMES[i]}" for i in sorted(CRITERION_NAMES)])
def test_criterion(results, index):
    result = results[index]
    assert result.passed, result.line()


@pytest.mark.parametrize("kwargs", [
    {"tolerance_scale": -1.0}, {"tolerance_scale": math.nan},
    {"criteria": [1, 99]}], ids=["negative-scale", "nan-scale", "unknown-criterion"])
def test_bad_arguments(kwargs):
    with pytest.raises(DomainError):
        run_all(**kwargs)


def test_zero_scale_fails_every_scalable_criterion():
    # every criterion passes on measured < target, strictly, so a zero
    # target fails even a deviation of exactly 0; criterion 8 has no
    # tolerance to scale
    res = run_all(tolerance_scale=0.0)
    assert [r.index for r in res if r.passed] == [8]
    assert all(r.target == 0.0 for r in res if r.index != 8)


def test_kummer_identities_see_a_series_error_off_the_imaginary_axis(monkeypatch):
    # an a-dependent error in every series summed at Re x != 0: there
    # Kummer's transform would compare one series with itself, so only the
    # contiguous relation can catch it
    taylor = specfun._taylor_1f1

    def faulty(a, b, x, dtype=complex):
        s, cancel, unconverged = taylor(a, b, x, dtype)
        return np.where(x.real != 0.0, s * (1.0 + 1e-8 * a), s), cancel, unconverged

    monkeypatch.setattr(specfun, "_taylor_1f1", faulty)
    [result] = run_all(criteria=[9])
    assert not result.passed, result.line()


def test_duality_criteria_read_the_special_angle_contour(monkeypatch):
    # a 1e-7 error in every contour row at d = zeta - cos(theta) = 0, where
    # the emission is the Fermi-Dirac form: the criteria that compare the
    # contour with |beta|^2 and the pair count must see it, and no other
    rows = spectra._oscillatory_rows

    def faulty(b, d, tol):
        values, abs_errors, evals = rows(b, d, tol)
        at_theta0 = np.abs(np.broadcast_to(d, np.broadcast(b, d).shape)).ravel() < 1e-12
        return np.where(at_theta0, values * (1.0 + 1e-7), values), abs_errors, evals

    monkeypatch.setattr(spectra, "_oscillatory_rows", faulty)
    res = run_all()
    assert [r.index for r in res if not r.passed] == [6, 7], [r.line() for r in res]


@pytest.mark.parametrize("index, runs, rows", [(6, 2, 165), (7, 3, 24)])
def test_duality_criteria_work(monkeypatch, index, runs, rows):
    # check runs every criterion in each cli-readme benchmark cycle; pinned
    # at the measured oscillatory runs and rows (2 on 150, 3 on 21) plus 10%
    sizes = []
    batched = spectra._oscillatory_rows

    def counting(b, d, tol):
        sizes.append(np.broadcast(b, d).size)
        return batched(b, d, tol)

    monkeypatch.setattr(spectra, "_oscillatory_rows", counting)
    [result] = run_all(criteria=[index])
    assert result.passed, result.line()
    assert len(sizes) <= runs and sum(sizes) <= rows, sizes


@pytest.mark.parametrize("index, calls", [
    (7, {"beta_squared_fd": 3}),
    (10, {"beta_squared_fd": 1, "beta_squared_fd_limit": 1})],
    ids=["criterion-7", "criterion-10"])
def test_mirror_criteria_make_one_call_per_grid(monkeypatch, index, calls):
    # the mirror functions are elementwise: criterion 7 maps its seven
    # frequencies in one call per zeta, and criterion 10 its fifty in one
    counted = dict.fromkeys(calls, 0)
    for name in calls:
        def counting(*args, _f=getattr(acceptance, name), _name=name):
            counted[_name] += 1
            return _f(*args)
        monkeypatch.setattr(acceptance, name, counting)
    [result] = run_all(criteria=[index])
    assert result.passed, result.line()
    assert counted == calls


def test_kummer_identities_work(monkeypatch):
    # check runs criterion 9 in each cli-readme benchmark cycle: its 40
    # points go to kummer_1f1 in speculative batches, one call until the
    # first refused point, pinned at the measured 3 calls on 260 elements
    # plus 10%; the points, their bits and the two redrawn are the ones
    # of one call per point
    sizes = []
    joint = acceptance.kummer_1f1

    def counting(a, b, x):
        sizes.append(np.broadcast(a, b, x).size)
        return joint(a, b, x)

    monkeypatch.setattr(acceptance, "kummer_1f1", counting)
    [result] = run_all(criteria=[9])
    assert result.passed, result.line()
    assert len(sizes) <= 3 and sum(sizes) <= 290, sizes
    assert result.measured == 0.10055766041140557
    assert result.detail == ("reflection 1.17e-14 (tol 1e-12), kummer 1.01e-11 "
                             "(tol 1e-10), 40 points (2 uncertifiable redrawn)")
