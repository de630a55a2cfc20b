"""Command-line front end: sweeps, figure data, and the acceptance runner.

Commands
--------
trajectory    (t, z) samples of the worldline, optionally with Penrose columns
energy        total radiated energy by the Larmor and/or spectral route
distribution  dI/dOmega samples over an (omega, theta) grid
spectrum      angle-integrated I(omega) or N(omega) curves
mirror        mode pairs (p, q) with |beta|^2, plus energy/count summaries
check         the ten-point acceptance suite

Exit codes: 0 success, 1 acceptance failure, 2 usage or validation error,
3 numerical failure, 141 stdout closed by its reader (128 + SIGPIPE). CSV
output has a header row, 17-significant-digit numbers, and LF line
endings; JSON output is one object with "config", "rows", and "summary"
keys in stable lexicographic order.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys
import warnings

import numpy as np

from .acceptance import run_all
from .errors import DomainError, FdradianceError
from .mirror import (
    beta_squared_fd,
    beta_squared_from_distribution,
    map_to_modes,
    mirror_fd_energy,
    mirror_particle_count,
)
from .quadrature import _check_tol
from .spectra import (
    distribution_grid,
    energy_spectrum,
    fd_particle_count,
    total_energy_spectral,
)
from .trajectory import (
    E_SQUARED_DEFAULT,
    TrajectoryParams,
    coordinate_time,
    penrose_coordinates,
    position_at_time,
    total_energy_larmor,
)

__all__ = ["main"]


class _Given(argparse.Action):
    """Store an option and add its dest (``zeta``, ``zeta_min``) to ``ns.given``."""

    def __call__(self, parser, ns, value, option_string=None):
        setattr(ns, self.dest, value)
        ns.given = ns.given | {self.dest}


def _gave_grid(ns, name: str) -> bool:
    """Whether any of --NAME-min/--NAME-max/--NAME-steps was given."""
    return not ns.given.isdisjoint({f"{name}_min", f"{name}_max", f"{name}_steps"})


def _add_grid(sub, name: str, default=(None, None, None), help=None):
    """Declare the --NAME-min/--NAME-max/--NAME-steps options ``_grid`` reads."""
    lo, hi, steps = default
    sub.add_argument(f"--{name}-min", type=float, default=lo, help=help, action=_Given)
    sub.add_argument(f"--{name}-max", type=float, default=hi, action=_Given)
    sub.add_argument(f"--{name}-steps", type=int, default=steps, action=_Given)
    sub.set_defaults(given=frozenset())


def _grid(ns, name: str, default=None):
    """The --NAME-min/--NAME-max/--NAME-steps grid, checked against its domain.

    When none of the three options is given, the grid comes from
    ``default``, a (min, max, steps) triple, or is None without one.
    """
    lo, hi, steps = (getattr(ns, f"{name}_{end}") for end in ("min", "max", "steps"))
    if lo is None and hi is None and steps is None:
        if default is None:
            return None
        lo, hi, steps = default
    if None in (lo, hi, steps):
        raise DomainError(f"give all of --{name}-min/--{name}-max/--{name}-steps")
    if steps < 1:
        raise DomainError(f"{name} grid needs at least one step")
    if steps == 1:
        grid = np.array([float(lo)])
    elif not (lo < hi):
        raise DomainError(f"{name} grid bounds must be strictly ascending")
    else:
        grid = np.linspace(float(lo), float(hi), int(steps))
    if name in ("z", "omega", "pq") and not np.all(grid > 0.0):
        raise DomainError(f"{name} grid must be positive")
    if name == "theta" and not (np.all(grid >= 0.0) and np.all(grid <= math.pi)):
        raise DomainError("theta grid must lie in [0, pi]")
    return grid.tolist()


def _params(ns) -> TrajectoryParams:
    """The worldline from --kappa/--zeta/--e-squared, then the --tol range check."""
    params = TrajectoryParams(ns.kappa, ns.zeta, ns.e_squared)
    _check_tol(ns.tol)
    return params


def _zeta_sweep(ns, base: TrajectoryParams) -> list:
    """One worldline per --zeta-* grid value; just ``base`` without a grid."""
    if "zeta" in ns.given and _gave_grid(ns, "zeta"):
        raise DomainError("give --zeta or a --zeta-* grid, not both")
    return [dataclasses.replace(base, zeta=zeta)
            for zeta in _grid(ns, "zeta", default=(base.zeta, base.zeta, 1))]


def run_trajectory(ns):
    worldlines = _zeta_sweep(ns, TrajectoryParams(ns.kappa, ns.zeta))
    if _gave_grid(ns, "t") and _gave_grid(ns, "z"):
        raise DomainError("give a --t-* grid or a --z-* grid, not both")
    zs, ts = _grid(ns, "z"), _grid(ns, "t", default=(-5.0, 5.0, 101))
    curves = []
    for params in worldlines:
        if zs is not None:
            z = np.array(zs)
            t = coordinate_time(params, z)
        else:
            t = np.array(ts)
            z = position_at_time(params, t)
        curves.append((t, z, *(penrose_coordinates(params, z) if ns.penrose else ())))
    # (worldline, column, sample) -> (column, worldline, sample), each
    # worldline's samples in ascending t
    curves = np.array(curves)
    order = np.argsort(curves[:, 0], axis=1, kind="stable")
    columns = np.take_along_axis(curves, order[:, None, :], axis=2).transpose(1, 0, 2)
    table = {"zeta": np.repeat([p.zeta for p in worldlines], order.shape[1]).tolist()}
    for name, column in zip(("t", "z", "U", "V"), columns):
        table[name] = column.ravel().tolist()
    return table, {}


def run_energy(ns):
    base = _params(ns)
    worldlines = _zeta_sweep(ns, base)
    method = ns.method
    larmor, spectral = [], []
    for params in worldlines:
        if method in ("larmor", "both"):
            larmor.append(total_energy_larmor(params, tol=min(ns.tol, 1e-9)))
        if method in ("spectral", "both"):
            spectral.append(total_energy_spectral(params, tol=max(ns.tol, 1e-6)))
    zetas = [params.zeta for params in worldlines]
    # E/(e^2 kappa) by two divisions, which fix the ratio columns' bits
    e2, kappa = base.e_squared, base.kappa
    if method == "both":
        return {
            "zeta": zetas,
            "E_larmor": larmor,
            "E_spectral": spectral,
            "rel_diff": [abs(s - l) / abs(l) for l, s in zip(larmor, spectral)],
            "E_larmor_over_e2kappa": [l / e2 / kappa for l in larmor],
            "E_spectral_over_e2kappa": [s / e2 / kappa for s in spectral],
        }, {}
    values = larmor or spectral
    return {"zeta": zetas, "method": [method] * len(zetas), "E": values,
            "E_over_e2kappa": [v / e2 / kappa for v in values]}, {}


def run_distribution(ns):
    params = _params(ns)
    omegas, thetas = _grid(ns, "omega"), _grid(ns, "theta")
    method, zeta = ns.method, params.zeta
    methods = [method]
    if method == "all":
        methods = (["numeric"] + (["exact-zeta0"] if zeta == 0.0 else [])
                   + ["fermi-dirac"])
    omega, theta, names, value, abs_error = [], [], [], [], []
    for m in methods:
        route_thetas = [math.acos(zeta)] if m == "fermi-dirac" else thetas
        values, abs_errors = distribution_grid(params, omegas, route_thetas, m, ns.tol)
        omega += [w for w in omegas for _ in route_thetas]
        theta += route_thetas * len(omegas)
        value += values.ravel().tolist()
        abs_error += abs_errors.ravel().tolist()
        names += [m] * (len(omega) - len(names))
    kappa = params.kappa
    return {"omega": omega, "omega_over_kappa": [w / kappa for w in omega],
            "theta": theta, "method": names, "value": value,
            "abs_error": abs_error}, {}


def run_spectrum(ns):
    params = _params(ns)
    omegas = _grid(ns, "omega")
    kappa = params.kappa
    values = energy_spectrum(params, np.array(omegas), ns.tol).tolist()
    curves = []
    if ns.kind in ("energy", "both"):
        curves.append(("energy-spectrum", values))
    if ns.kind in ("particle", "both"):
        curves.append(("particle-spectrum", [v / w for w, v in zip(omegas, values)]))
    return {
        "omega": omegas * len(curves),
        "omega_over_kappa": [w / kappa for w in omegas] * len(curves),
        "kind": [kind for kind, _ in curves for _ in omegas],
        "value": [v for _, curve in curves for v in curve],
    }, {}


def run_mirror(ns):
    params = _params(ns)
    kappa, zeta, e2 = params.kappa, params.zeta, params.e_squared
    omegas = _grid(ns, "omega")
    if _gave_grid(ns, "theta" if omegas is None else "pq"):
        raise DomainError("a --theta-* grid goes with an --omega-* grid, "
                          "and a --pq-* grid with neither")
    if omegas is not None:
        thetas = _grid(ns, "theta")
        values, _ = distribution_grid(params, omegas, thetas, "numeric", ns.tol)
        omega = np.repeat(omegas, len(thetas))
        p, q = map_to_modes(omega, np.tile(thetas, len(omegas)))
        beta2 = beta_squared_from_distribution(omega, values.ravel(), e2)
    else:
        # pairs on the constraint line p/q = (1 + zeta)/(1 - zeta)
        u = np.array(_grid(ns, "pq"))
        p, q = u * (1.0 + zeta) / 2.0, u * (1.0 - zeta) / 2.0
        beta2 = beta_squared_fd(p, q, kappa, zeta)
    table = {"p": p.tolist(), "q": q.tolist(), "beta_squared": beta2.tolist()}
    summary = {
        "fd_energy": mirror_fd_energy(kappa, zeta),
        "particle_count": mirror_particle_count(zeta),
    }
    if ns.duality:
        electron_over_e2 = fd_particle_count(params) / e2
        summary["electron_count_over_e2"] = electron_over_e2
        summary["duality_rel_diff"] = (
            abs(electron_over_e2 - summary["particle_count"])
            / summary["particle_count"]
        )
    return table, summary


def run_check(ns):
    criteria = None
    if ns.criteria is not None:
        try:
            criteria = [int(tok) for tok in ns.criteria.split(",")]
        except ValueError as exc:
            raise DomainError(f"bad --criteria value: {ns.criteria}") from exc
    results = run_all(tolerance_scale=ns.tolerance_scale, criteria=criteria)
    table = {
        "criterion": [r.index for r in results],
        "name": [r.name for r in results],
        "measured": [r.measured for r in results],
        "target": [r.target for r in results],
        "passed": [r.passed for r in results],
        "runtime": [r.runtime for r in results],
        "detail": [r.detail for r in results],
    }
    summary = {"all_passed": all(r.passed for r in results),
               "lines": [r.line() for r in results]}
    return table, summary


def _csv_cell(text):
    """``text`` as a cell beside others in a row, quoted as the csv module does."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


def _csv_column(column):
    """A column's cells as CSV text, in one pass; a column holds one kind of value."""
    if isinstance(column[0], bool):
        return ["true" if v else "false" for v in column]
    if isinstance(column[0], float):
        return [format(v, ".17g") for v in column]
    text = [str(v) for v in column]
    cells = {s: _csv_cell(s) for s in set(text)}
    return [cells[s] for s in text]


def _write_csv(stream, table, summary):
    """The table's keys as the header row, one row per index of its columns,
    then the summary as trailing ``# name,value`` rows.

    Floats are written as %.17g, booleans as true/false, and any other
    cell with str; a cell holding a comma, a double quote or a line feed
    is quoted, with inner quotes doubled.
    """
    lines = [_csv_column(list(table)), *zip(*map(_csv_column, table.values()))]
    lines += [(_csv_cell(f"# {key}"), *_csv_column([summary[key]]))
              for key in sorted(summary) if key != "lines"]
    text = "\n".join(map(",".join, lines)) + "\n"
    # In pieces: on an unbuffered stdout each write is one system call, and
    # a reader that closes mid-call cuts it short without an error, so only
    # a later piece can raise BrokenPipeError.
    for start in range(0, len(text), io.DEFAULT_BUFFER_SIZE):
        stream.write(text[start:start + io.DEFAULT_BUFFER_SIZE])


def _write_json(stream, table, summary, config_echo):
    doc = {
        "config": config_echo,
        "rows": [dict(zip(table, row)) for row in zip(*table.values())],
        "summary": {k: v for k, v in summary.items() if k != "lines"},
    }
    json.dump(doc, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _add_common(sub, *, radiation=True):
    """--kappa/--zeta, then --e-squared/--tol for radiation, then output options."""
    sub.add_argument("--kappa", type=float, default=1.0,
                     help="acceleration scale in [2^-256, 2^256] (default 1.0)")
    sub.add_argument("--zeta", type=float, default=0.0, action=_Given,
                     help="shape parameter in (-1, 1) (default 0)")
    if radiation:
        sub.add_argument("--e-squared", type=float, default=E_SQUARED_DEFAULT,
                         help="squared charge in [2^-256, 2^256] (default 4*pi*alpha)")
        sub.add_argument("--tol", type=float, default=1e-8,
                         help="relative tolerance (default 1e-8)")
    _add_output(sub)


def _add_output(sub):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", default=None, metavar="PATH",
                     help="write to PATH instead of standard output")


@functools.cache
def _build_parser():
    """The one parser of the process: argparse keeps no state between parses."""
    parser = argparse.ArgumentParser(
        prog="fdradiance",
        description="Radiation spectrum of a charge on a Fermi-Dirac "
                    "trajectory, and its moving-mirror dual.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    t = subs.add_parser("trajectory", help="worldline samples z(t)")
    _add_common(t, radiation=False)
    _add_grid(t, "zeta")
    _add_grid(t, "t", help="t grid (default -5..5, 101 steps)")
    _add_grid(t, "z")
    t.add_argument("--penrose", action="store_true",
                   help="add compactified null coordinate columns U, V")

    e = subs.add_parser(
        "energy", help="total radiated energy",
        description="Total radiated energy. The worldline-integral route "
                    "honors --tol down to 1e-9; the spectral route floors "
                    "it at 1e-6 because its cost grows steeply.")
    _add_common(e)
    _add_grid(e, "zeta")
    e.add_argument("--method", choices=("larmor", "spectral", "both"),
                   default="larmor")

    d = subs.add_parser("distribution", help="dI/dOmega over an (omega, theta) grid")
    _add_common(d)
    _add_grid(d, "omega", (0.1, 5.0, 25))
    _add_grid(d, "theta", (0.0, math.pi, 19))
    d.add_argument("--method",
                   choices=("numeric", "exact-zeta0", "fermi-dirac", "all"),
                   default="numeric")

    s = subs.add_parser("spectrum", help="angle-integrated I(omega) or N(omega)")
    _add_common(s)
    _add_grid(s, "omega", (0.1, 5.0, 25))
    s.add_argument("--kind", choices=("energy", "particle", "both"),
                   default="energy")

    m = subs.add_parser("mirror", help="mode pairs and |beta|^2")
    _add_common(m)
    _add_grid(m, "pq", (0.1, 5.0, 25),
              help="lower bound of the total frequency p+q grid")
    _add_grid(m, "omega",
              help="with --omega-*/--theta-*: map an emission grid instead")
    _add_grid(m, "theta", (0.0, math.pi, 19))
    m.add_argument("--duality", action="store_true",
                   help="add the electron-side count comparison to the summary")

    # No prefix matching here: --tol, which check does not take, would
    # otherwise be read as --tolerance-scale.
    c = subs.add_parser("check", help="run the acceptance suite",
                        allow_abbrev=False)
    _add_output(c)
    c.add_argument("--tolerance-scale", type=float, default=1.0,
                   help="multiply all scalable tolerances (0 must fail)")
    c.add_argument("--criteria", default=None,
                   help="comma-separated criterion indices, e.g. 1,4,9")
    return parser


_RUNNERS = {
    "trajectory": run_trajectory,
    "energy": run_energy,
    "distribution": run_distribution,
    "spectrum": run_spectrum,
    "mirror": run_mirror,
    "check": run_check,
}


def _config_echo(ns) -> dict:
    return {key: value for key, value in vars(ns).items()
            if key not in ("command", "given")}


@contextlib.contextmanager
def _warnings_to_stderr():
    """Print each distinct warning raised inside as one ``warning:`` line
    on stderr on the way out, before any error line.

    The caller's filters still decide which warnings are shown, ignored or
    raised (``python -W error`` stops the run); entering the block resets
    the once-per-location registry, so each run shows its own warnings."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            yield
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        with _warnings_to_stderr():
            table, summary = _RUNNERS[ns.command](ns)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FdradianceError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    def write(stream):
        if ns.format == "csv":
            _write_csv(stream, table, summary)
        else:
            _write_json(stream, table, summary, _config_echo(ns))

    if ns.output:
        try:
            with open(ns.output, "w", encoding="utf-8", newline="") as stream:
                write(stream)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        try:
            if ns.command == "check" and ns.format == "csv":
                for line in summary["lines"]:
                    print(line)
                sys.stdout.flush()
                return 0 if summary["all_passed"] else 1
            write(sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader closed stdout early (``| head``). Point its
            # descriptor at devnull so that the flush at exit cannot fail,
            # and exit as a process killed by SIGPIPE would: 128 + 13.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 141
    if ns.command == "check":
        for line in summary["lines"]:
            print(line, file=sys.stderr)
        return 0 if summary["all_passed"] else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
