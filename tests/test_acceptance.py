"""Runs the ten-point acceptance suite once and asserts each criterion.

The per-criterion pass/fail lines are echoed in the terminal summary via
the conftest hook, so a plain pytest run shows the full scorecard.
"""
import math

import numpy as np
import pytest

import conftest
from fdradiance import specfun
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


def test_kummer_identities_see_a_series_error_off_the_imaginary_axis(monkeypatch):
    # an a-dependent error in every series summed at Re x != 0: there
    # Kummer's transform would compare one series with itself, so only the
    # contiguous relation can catch it
    taylor = specfun._taylor_1f1

    def faulty(a, b, x, dtype=complex):
        s, cancel = taylor(a, b, x, dtype)
        return np.where(x.real != 0.0, s * (1.0 + 1e-8 * a), s), cancel

    monkeypatch.setattr(specfun, "_taylor_1f1", faulty)
    [result] = run_all(criteria=[9])
    assert not result.passed, result.line()
