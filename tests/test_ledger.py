"""The CLI's output ledger: every case under tests/ledger/ replays byte for byte.

Each case is one ``cli.main`` call, written by ``regenerate_ledger.py``;
its exit code, stdout and stderr must come back exactly. The bits of a
value can depend on numpy's kernels and on the precision of long double,
so a case recorded under another numpy version or another long double is
skipped rather than compared.
"""
import json
import os

import pytest

from regenerate_ledger import CASES, LEDGER, platform, run_case


def load(name):
    with open(os.path.join(LEDGER, f"{name}.json"), encoding="utf-8") as f:
        return json.load(f)


def test_ledger_holds_exactly_the_cases():
    assert sorted(os.listdir(LEDGER)) == sorted(f"{name}.json" for name, _ in CASES)
    for name, command in CASES:
        assert load(name)["argv"] == command.split()


@pytest.mark.parametrize("name", [name for name, _ in CASES])
# a RuntimeWarning prints as on the command line, where the ledger was
# recorded; stderr is compared exactly, so a new one still fails the case
@pytest.mark.filterwarnings("default::RuntimeWarning")
def test_case_replays_exactly(name):
    case = load(name)
    recorded = {key: case[key] for key in platform()}
    if recorded != platform():
        pytest.skip(f"recorded under {recorded}, running under {platform()}")
    code, out, err = run_case(case["argv"])
    assert code == case["exit_code"]
    assert out == case["stdout"]
    assert err == case["stderr"]
