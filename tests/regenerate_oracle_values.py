"""Writes tests/oracle_values.json: oracle values the quadrature and 1F1 tests compare with, frozen.

Two tests of ``test_quadrature.py`` and one of ``test_specfun.py`` read it
instead of running their oracles on every run:

* ``series_head``: the nine rows (b, d) of
  ``test_series_head_against_oracle``, three values of b with a d below,
  at and above 0, with the head angle alpha and radius h that
  ``quadrature._saddle_setup`` gives them, and ``oracles.ray_head_segment``
  at those inputs (a 40-digit quadrature rounded to a complex double). The
  test fails if the set-up moves alpha or h by one bit, so the frozen value
  always belongs to the segment the package sums.
* ``damped``: the 25 phases (a, b, c) = (w/4, 2w, -w cos theta) of
  ``test_against_damped_oracle`` and ``oracles.damped_phase_integral`` there.
* ``retried_1f1``: 40 series of ``test_retried_elements_carry_long_double_roundoff``
  whose sums cancel by RETRIED_CANCEL, so that ``specfun.kummer_1f1``
  sums each again in long double and returns it: the first 20 seeded
  draws of each of two kinds that qualify, the exact route's series at
  omega/kappa 60-150 and points of ``check`` criterion 9's box. Each holds
  ``oracles.hyp1f1_series_peak`` of the series ``kummer_1f1`` sums (after
  its Kummer transform where Re x < 0), its largest term over its sum as
  ``cancellation``, and 1F1(a; b; x) rounded to a complex double.

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

import mpmath as mp
import numpy as np

from fdradiance import quadrature

from oracles import damped_phase_integral, hyp1f1_series_peak, ray_head_segment

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracle_values.json")

# the damped oracle is out of regime below a ~ 0.1, so w starts at 0.5
DAMPED_OMEGAS = (0.5, 1.0, 2.0, 3.0, 4.0)
DAMPED_THETAS = (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3, 5 * math.pi / 6)
# the cancellation of the retried series: inside (2e5, 3e8), between
# specfun's retry and fail thresholds, by a margin that the double sum's
# own cancellation, off by its roundoff, cannot cross
RETRIED_CANCEL = (2.2e5, 2.9e8)


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


def retried_candidates(kind):
    """Seeded (a, b, x) draws of one kind, without end: "exact", the exact
    route's two series at y = omega/kappa in [60, 150] and x = iy u^2 with
    u in [0, 1], or "box", criterion 9's a and b in [-10, 10]^2 and x pure
    imaginary in [-15i, 15i] (5 draws in 8) or in [-8, 8]^2, b a unit
    from every pole."""
    rng = np.random.default_rng({"exact": 60, "box": 9}[kind])
    while True:
        if kind == "exact":
            y, u = rng.uniform(60.0, 150.0), rng.uniform(0.0, 1.0)
            half = rng.random() < 0.5
            yield (0.5 if half else 1.0) - 1j * y, 0.5 if half else 1.5, 1j * y * u * u
            continue
        a, b = (complex(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(2))
        if abs(b - min(round(b.real), 0)) < 1.0:
            continue   # criterion 9's unit margin from the poles b = 0, -1, ...
        if rng.random() < 5 / 8:
            x = 1j * rng.uniform(-15, 15)
        else:
            x = complex(rng.uniform(-8, 8), rng.uniform(-8, 8))
        yield a, b, x


def retried_series():
    """(a, b, x, cancellation, 1F1) of the first 20 draws of each kind whose
    summed series cancels by RETRIED_CANCEL."""
    rows = []
    for kind in ("exact", "box"):
        found = 0
        for a, b, x in retried_candidates(kind):
            flip = x.real < 0.0
            s, peak = hyp1f1_series_peak(b - a if flip else a, b, -x if flip else x)
            cancel = float(peak / abs(s))
            if RETRIED_CANCEL[0] < cancel < RETRIED_CANCEL[1]:
                rows.append((a, b, x, cancel, complex(s * mp.exp(x) if flip else s)))
                found += 1
                if found == 20:
                    break
    return rows


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
    retried = [{"a": pair(a), "b": pair(b), "x": pair(x), "cancellation": cancel.hex(),
                "value": pair(value)}
               for a, b, x, cancel, value in retried_series()]
    return {"series_head": head, "damped": damped, "retried_1f1": retried}


def report(old, new):
    """Print to stderr each entry of ``new`` that differs from ``old``."""
    for key in ("series_head", "damped", "retried_1f1"):
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
