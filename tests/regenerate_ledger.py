"""Writes the CLI output ledger under tests/ledger/, one JSON file per case.

Each case holds the argv, exit code, stdout and stderr of one
``fdradiance.cli.main`` call in this process, and the platform it ran
under: the numpy version and the mantissa bits of long double, the
precision ``specfun.kummer_1f1`` retries in. ``tests/test_ledger.py``
replays every case and compares the bytes exactly, so a change that should
keep every number can show that it does.
Regenerate only when an output is meant to change, and say why:

    PYTHONPATH=src python tests/regenerate_ledger.py

A case whose output differs from the file it replaces is reported on
stderr, each changed numeric cell with its line, old text, new text and
distance in ulp; unchanged cases print nothing.
"""
import contextlib
import io
import itertools
import json
import math
import os
import re
import struct
import sys
import time
from unittest import mock

import numpy as np

from fdradiance import cli

LEDGER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "ledger")

# (name, argv): the six README commands, then the grids and refusals the
# distribution routes meet on the command line, a spectral total on each
# side of zeta = 0 and the Larmor total's warning near zeta = -1
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
    ("exact-large-omega",
     "distribution --method exact-zeta0 --omega-min 20 --omega-max 60 --omega-steps 5 "
     "--theta-min 0 --theta-max 1.5707963267948966 --theta-steps 7"),
    ("exact-long-double-retry",
     "distribution --method exact-zeta0 --omega-min 60 --omega-max 80 --omega-steps 3 "
     "--theta-min 0 --theta-max 0.4363323129985824 --theta-steps 6"),
    ("spectral-total-zeta-neg-0.9", "energy --method spectral --zeta -0.9 --tol 1e-4"),
    ("spectral-total-zeta-0.3", "energy --method spectral --zeta 0.3 --tol 1e-4"),
    ("larmor-total-warning", "energy --zeta -0.995"),
    ("spectrum-numeric-zeta-0.3",
     "spectrum --zeta 0.3 --tol 1e-6 --omega-min 0.1 --omega-max 8 --omega-steps 9"),
    ("numeric-both-sides-zeta-neg-0.6",
     "distribution --zeta -0.6 --omega-min 0.05 --omega-max 20 --omega-steps 4"),
    ("fermi-dirac-kappa-1.3",
     "distribution --method fermi-dirac --kappa 1.3 --omega-min 110 --omega-max 118 "
     "--omega-steps 5"),
    ("fermi-dirac-zeta-near-1",
     "distribution --method fermi-dirac --zeta 0.999999 --omega-min 0.5 --omega-max 2 "
     "--omega-steps 4"),
    ("exact-subnormal-140-75deg",
     "distribution --method exact-zeta0 --omega-min 140 --omega-max 140 --omega-steps 1 "
     "--theta-min 1.3089969389957472 --theta-max 1.3089969389957472 --theta-steps 1"),
]


def platform():
    """The numpy version and long double's mantissa bits (63 for x87's
    80-bit format, 52 where it is plain double, 112 for IEEE quad)."""
    return {"numpy": np.__version__, "longdouble_bits": int(np.finfo(np.longdouble).nmant)}


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


# a decimal number, split out of the text around it
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def ulps(old, new):
    """The number of doubles from float(old) to float(new), or None if
    either is not finite."""
    def ordered(value):
        bits = struct.unpack("<q", struct.pack("<d", value))[0]
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)
    old, new = float(old), float(new)
    if not (math.isfinite(old) and math.isfinite(new)):
        return None
    return abs(ordered(old) - ordered(new))


def moved_cells(old, new):
    """(line, old text, new text, ulps) for each numeric cell that differs
    between two outputs whose text outside the numbers is the same, or
    None if that text differs too."""
    old_parts, new_parts = NUMBER.split(old), NUMBER.split(new)
    if old_parts[::2] != new_parts[::2]:
        return None
    moved, line = [], 1
    for i, (was, now) in enumerate(zip(old_parts, new_parts)):
        if i % 2 and was != now:
            moved.append((line, was, now, ulps(was, now)))
        line += was.count("\n")
    return moved


def report(name, old, case):
    """Print how ``case`` differs from ``old``, the case it replaces (None
    if new), to stderr; print nothing if it does not."""
    if old == case:
        return
    if old is None:
        print(f"{name}: new case, exit {case['exit_code']}", file=sys.stderr)
        return
    print(f"{name}: changed", file=sys.stderr)
    for key in ("exit_code", "numpy", "longdouble_bits"):
        if old.get(key) != case[key]:
            print(f"  {key}: {old.get(key)} -> {case[key]}", file=sys.stderr)
    for stream in ("stdout", "stderr"):
        moved = moved_cells(old[stream], case[stream])
        if moved is None:
            print(f"  {stream}: text outside the numeric cells changed", file=sys.stderr)
            continue
        for line, was, now, distance in moved:
            print(f"  {stream} line {line}: {was} -> {now} ({distance} ulp)",
                  file=sys.stderr)


def main():
    os.makedirs(LEDGER, exist_ok=True)
    for name, command in CASES:
        argv = command.split()
        code, out, err = run_case(argv)
        case = {"argv": argv, "exit_code": code, "stdout": out, "stderr": err,
                **platform()}
        path = os.path.join(LEDGER, f"{name}.json")
        old = None
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                old = json.load(f)
        report(name, old, case)
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            json.dump(case, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
