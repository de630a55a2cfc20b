"""Writes tests/oracle_values.json: oracle values the quadrature tests compare with, frozen.

Two tests of ``test_quadrature.py`` read it instead of running their
oracles on every run:

* ``series_head``: the nine rows (b, d) of
  ``test_series_head_against_oracle``, three values of b with a d below,
  at and above 0, with the head angle alpha and radius h that
  ``quadrature._saddle_setup`` gives them, and ``oracles.ray_head_segment``
  at those inputs (a 40-digit quadrature rounded to a complex double). The
  test fails if the set-up moves alpha or h by one bit, so the frozen value
  always belongs to the segment the package sums.
* ``damped``: the 25 phases (a, b, c) = (w/4, 2w, -w cos theta) of
  ``test_against_damped_oracle`` and ``oracles.damped_phase_integral`` there.

Every double is stored as ``float.hex``, so it reads back bit for bit.
Regenerate only when the oracles, the rows or the set-up's alpha and h are
meant to change, and say why:

    PYTHONPATH=src python tests/regenerate_oracle_values.py

Each entry whose stored value differs from the new one is reported on
stderr with its relative change; unchanged entries print nothing.
"""
import json
import math
import os
import sys

import numpy as np

from fdradiance import quadrature

from oracles import damped_phase_integral, ray_head_segment

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_values.json")

# the damped oracle is out of regime below a ~ 0.1, so w starts at 0.5
DAMPED_OMEGAS = (0.5, 1.0, 2.0, 3.0, 4.0)
DAMPED_THETAS = (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3, 5 * math.pi / 6)


def head_rows():
    """The nine (b, d) rows: for each b, d = 0 (the special angle, whose
    terms decay slowest) between a d < 0 and a d > 0 (the saddle behind
    the origin, alpha > pi/2)."""
    rng = np.random.default_rng(31)
    rows = []
    for b in (0.5, 8.0, 40.0):
        ds = 2.0 * np.array([rng.uniform(-0.99, -0.05), 0.0, rng.uniform(0.05, 0.99)])
        rows.extend((b, d) for d in ds.tolist())
    return rows


def damped_phases():
    """The 25 (a, b, c) of the damped-oracle comparison, omega-major."""
    return [(w / 4.0, 2.0 * w, -w * math.cos(th)) for w in DAMPED_OMEGAS for th in DAMPED_THETAS]


def pair(z):
    return [float(z.real).hex(), float(z.imag).hex()]


def unpair(hexes):
    return complex(float.fromhex(hexes[0]), float.fromhex(hexes[1]))


def build():
    b, d = np.array(head_rows()).T
    alpha, h = quadrature._saddle_setup(b, d, 1e-9)[:2]
    head = [{"b": bb.hex(), "d": dd.hex(), "alpha": al.hex(), "h": hc.hex(),
             "value": pair(ray_head_segment(bb / 2, bb, bb * dd, hc, al))}
            for bb, dd, al, hc in zip(b.tolist(), d.tolist(), alpha.tolist(), h.tolist())]
    damped = [{"a": a.hex(), "b": bb.hex(), "c": c.hex(),
               "value": pair(damped_phase_integral(a, bb, c))}
              for a, bb, c in damped_phases()]
    return {"series_head": head, "damped": damped}


def report(old, new):
    """Print to stderr each entry of ``new`` that differs from ``old``."""
    for key in ("series_head", "damped"):
        olds = (old or {}).get(key, [])
        for i, entry in enumerate(new[key]):
            was = olds[i] if i < len(olds) else None
            if was == entry:
                continue
            if was is None:
                print(f"{key}[{i}]: new", file=sys.stderr)
                continue
            moved = [k for k in entry if k != "value" and entry[k] != was.get(k)]
            a, b = unpair(was["value"]), unpair(entry["value"])
            print(f"{key}[{i}]: inputs moved {moved}, value {a!r} -> {b!r} "
                  f"(relative {abs(b - a) / abs(a):.3g})", file=sys.stderr)


def main():
    old = None
    if os.path.exists(PATH):
        with open(PATH, encoding="utf-8") as f:
            old = json.load(f)
    new = build()
    report(old, new)
    with open(PATH, "w", encoding="utf-8", newline="\n") as f:
        json.dump(new, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
