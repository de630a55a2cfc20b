"""Writes the CLI output ledger under tests/ledger/, one JSON file per case.

Each case holds the argv, exit code, stdout and stderr of one
``fdradiance.cli.main`` call in this process, and the numpy version it ran
under. ``tests/test_ledger.py`` replays every case and compares the bytes
exactly, so a change that should keep every number can show that it does.
Regenerate only when an output is meant to change, and say why:

    PYTHONPATH=src python tests/regenerate_ledger.py
"""
import contextlib
import io
import itertools
import json
import os
import sys
import time
from unittest import mock

import numpy as np

from fdradiance import cli

LEDGER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ledger")

# (name, argv): the six README commands, then the grids and refusals the
# distribution routes meet on the command line
CASES = [
    ("readme-trajectory", "trajectory --zeta-min -0.5 --zeta-max 0.5 --zeta-steps 3 --penrose"),
    ("readme-energy", "energy --method both --tol 1e-4"),
    ("readme-distribution",
     "distribution --method all --omega-min 0.5 --omega-max 5 --omega-steps 10"),
    ("readme-spectrum", "spectrum --kind both --omega-min 0.1 --omega-max 5 --omega-steps 25"),
    ("readme-mirror", "mirror --zeta -0.5 --duality"),
    ("readme-check", "check"),
    ("check-json", "check --format json"),
    ("distribution-all-csv", "distribution --method all"),
    ("distribution-all-json", "distribution --method all --format json"),
    ("fermi-dirac-underflow",
     "distribution --method fermi-dirac --zeta 0.3 --omega-min 110 --omega-max 125 "
     "--omega-steps 4"),
    ("exact-off-zeta0", "distribution --method exact-zeta0 --zeta 0.3"),
    ("mirror-emission-grid", "mirror --omega-min 1 --omega-max 2 --omega-steps 2"),
]


def run_case(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)`` in this process.

    The acceptance runtimes come from a clock that ticks 0.25 s a reading,
    so that ``check`` prints the same runtimes on every run.
    """
    ticks = itertools.count(step=0.25)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(time, "perf_counter", lambda: next(ticks)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def main():
    os.makedirs(LEDGER, exist_ok=True)
    for name, command in CASES:
        argv = command.split()
        code, out, err = run_case(argv)
        case = {"argv": argv, "exit_code": code, "stdout": out, "stderr": err,
                "numpy": np.__version__}
        with open(os.path.join(LEDGER, f"{name}.json"), "w", encoding="utf-8",
                  newline="\n") as f:
            json.dump(case, f, indent=1)
            f.write("\n")
        print(f"{name}: exit {code}, {len(out)} bytes out, {len(err)} bytes err",
              file=sys.stderr)


if __name__ == "__main__":
    main()
