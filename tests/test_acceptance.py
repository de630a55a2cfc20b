"""Runs the ten-point acceptance suite once and asserts each criterion.

The per-criterion pass/fail lines are echoed in the terminal summary via
the conftest hook, so a plain pytest run shows the full scorecard.
"""
import math

import pytest

import conftest
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
