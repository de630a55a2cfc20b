"""The CLI's output ledger: every case under tests/ledger/ replays byte for byte.

Each case is one ``cli.main`` call, written by ``regenerate_ledger.py``;
its exit code, stdout and stderr must come back exactly. The bits of a
value can depend on numpy's kernels, so a case recorded under another
numpy version is skipped rather than compared.
"""
import json
import os

import numpy as np
import pytest

from regenerate_ledger import CASES, LEDGER, run_case


def load(name):
    with open(os.path.join(LEDGER, f"{name}.json"), encoding="utf-8") as f:
        return json.load(f)


def test_ledger_holds_exactly_the_cases():
    assert sorted(os.listdir(LEDGER)) == sorted(f"{name}.json" for name, _ in CASES)
    for name, command in CASES:
        assert load(name)["argv"] == command.split()


@pytest.mark.parametrize("name", [name for name, _ in CASES])
def test_case_replays_exactly(name):
    case = load(name)
    if case["numpy"] != np.__version__:
        pytest.skip(f"recorded under numpy {case['numpy']}, running {np.__version__}")
    code, out, err = run_case(case["argv"])
    assert code == case["exit_code"]
    assert out == case["stdout"]
    assert err == case["stderr"]
