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
3 numerical failure. CSV output has a header row, 17-significant-digit
numbers, and LF line endings; JSON output is one object with "config",
"rows", and "summary" keys in stable lexicographic order.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from .acceptance import CRITERION_NAMES, run_all
from .errors import DomainError, FdradianceError
from .mirror import (
    ModePair,
    beta_squared_fd,
    beta_squared_from_distribution,
    mirror_fd_energy,
    mirror_particle_count,
)
from .spectra import (
    EmissionDirection,
    distribution_exact_zeta0,
    distribution_numeric,
    energy_spectrum,
    fd_particle_count,
    fermi_dirac_distribution,
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

__all__ = ["RunConfig", "main", "run_trajectory", "run_energy",
           "run_distribution", "run_spectrum", "run_mirror", "run_check"]


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Parsed invocation: command, physics parameters, grids, output plan."""

    command: str
    params: TrajectoryParams
    grids: dict
    tol: float
    output_format: str
    output_path: str | None
    options: dict

    def __post_init__(self):
        if self.output_format not in ("csv", "json"):
            raise DomainError("format must be csv or json")
        if not (0.0 < self.tol <= 1e-2):
            raise DomainError("tol must lie in (0, 1e-2]")


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
    return grid


def run_trajectory(config: RunConfig):
    g = config.grids
    penrose = config.options["penrose"]
    rows = []
    for zeta in g["zeta"]:
        params = TrajectoryParams(config.params.kappa, zeta,
                                  config.params.e_squared)
        if g.get("z") is not None:
            pairs = [(float(coordinate_time(params, z)), float(z))
                     for z in g["z"]]
        else:
            pairs = [(float(t), position_at_time(params, float(t)))
                     for t in g["t"]]
        for t, z in sorted(pairs, key=lambda tz: tz[0]):
            row = {"zeta": zeta, "t": t, "z": z}
            if penrose:
                row["U"], row["V"] = penrose_coordinates(params, z)
            rows.append(row)
    columns = ["zeta", "t", "z"] + (["U", "V"] if penrose else [])
    return rows, columns, {}


def run_energy(config: RunConfig):
    method = config.options["method"]
    kappa, e2 = config.params.kappa, config.params.e_squared
    scale = e2 * kappa
    rows = []
    for zeta in config.grids["zeta"]:
        zeta = float(zeta)
        params = TrajectoryParams(kappa, zeta, e2)
        if method in ("larmor", "both"):
            e_larmor = total_energy_larmor(params, tol=min(config.tol, 1e-9))
        if method in ("spectral", "both"):
            e_spectral = total_energy_spectral(params, tol=max(config.tol, 1e-6))
        if method == "both":
            rows.append({
                "zeta": zeta,
                "E_larmor": e_larmor,
                "E_spectral": e_spectral,
                "rel_diff": abs(e_spectral - e_larmor) / abs(e_larmor),
                "E_larmor_over_e2kappa": e_larmor / scale,
                "E_spectral_over_e2kappa": e_spectral / scale,
            })
        else:
            value = e_larmor if method == "larmor" else e_spectral
            rows.append({"zeta": zeta, "method": method, "E": value,
                         "E_over_e2kappa": value / scale})
    if method == "both":
        columns = ["zeta", "E_larmor", "E_spectral", "rel_diff",
                   "E_larmor_over_e2kappa", "E_spectral_over_e2kappa"]
    else:
        columns = ["zeta", "method", "E", "E_over_e2kappa"]
    return rows, columns, {}


def run_distribution(config: RunConfig):
    method = config.options["method"]
    params = config.params
    zeta = params.zeta
    if method == "exact" and zeta != 0.0:
        raise DomainError("the exact closed form applies only at zeta = 0")
    methods = [method]
    if method == "all":
        methods = ["numeric"] + (["exact"] if zeta == 0.0 else []) + ["fd"]
    omegas = [float(w) for w in config.grids["omega"]]
    thetas = [float(th) for th in config.grids["theta"]]
    samples = []
    for m in methods:
        if m == "numeric":
            samples.extend(distribution_numeric(params, w, EmissionDirection(th),
                                                config.tol)
                           for w in omegas for th in thetas)
        elif m == "exact":
            samples.extend(distribution_exact_zeta0(params.kappa, params.e_squared,
                                                    w, EmissionDirection(th))
                           for w in omegas for th in thetas)
        else:
            # the special-angle value is a function of omega alone
            samples.extend(fermi_dirac_distribution(params, w) for w in omegas)
    rows = [{"omega": s.omega, "omega_over_kappa": s.omega / params.kappa,
             "theta": s.theta, "method": s.method, "value": s.value,
             "abs_error": s.abs_error} for s in samples]
    columns = ["omega", "omega_over_kappa", "theta", "method", "value",
               "abs_error"]
    return rows, columns, {}


def run_spectrum(config: RunConfig):
    kind = config.options["kind"]
    kappa = config.params.kappa
    omegas = [float(w) for w in config.grids["omega"]]
    values = [energy_spectrum(config.params, w, config.tol) for w in omegas]
    rows = []
    if kind in ("energy", "both"):
        rows.extend({"omega": w, "omega_over_kappa": w / kappa,
                     "kind": "energy-spectrum", "value": v}
                    for w, v in zip(omegas, values))
    if kind in ("particle", "both"):
        rows.extend({"omega": w, "omega_over_kappa": w / kappa,
                     "kind": "particle-spectrum", "value": v / w}
                    for w, v in zip(omegas, values))
    columns = ["omega", "omega_over_kappa", "kind", "value"]
    return rows, columns, {}


def run_mirror(config: RunConfig):
    params = config.params
    kappa, zeta, e2 = params.kappa, params.zeta, params.e_squared
    if config.options["p"] is not None:
        betas = [beta_squared_fd(ModePair(config.options["p"], config.options["q"]),
                                 kappa, zeta)]
    elif config.grids.get("omega") is not None:
        betas = [beta_squared_from_distribution(
                     distribution_numeric(params, float(w),
                                          EmissionDirection(float(th)), config.tol),
                     e2)
                 for w in config.grids["omega"] for th in config.grids["theta"]]
    else:
        # pairs on the constraint line p/q = (1 + zeta)/(1 - zeta)
        betas = [beta_squared_fd(ModePair(float(u) * (1.0 + zeta) / 2.0,
                                          float(u) * (1.0 - zeta) / 2.0),
                                 kappa, zeta)
                 for u in config.grids["pq"]]
    rows = [{"p": b.modes.p, "q": b.modes.q, "beta_squared": b.beta_squared}
            for b in betas]
    summary = {
        "fd_energy": mirror_fd_energy(kappa, zeta),
        "particle_count": mirror_particle_count(zeta),
    }
    if config.options["duality"]:
        electron_over_e2 = fd_particle_count(params) / e2
        summary["electron_count_over_e2"] = electron_over_e2
        summary["duality_rel_diff"] = (
            abs(electron_over_e2 - summary["particle_count"])
            / summary["particle_count"]
        )
    return rows, ["p", "q", "beta_squared"], summary


def run_check(config: RunConfig):
    results = run_all(tolerance_scale=config.options["tolerance_scale"],
                      criteria=config.options["criteria"])
    rows = [{
        "criterion": r.index, "name": r.name, "measured": r.measured,
        "target": r.target, "passed": r.passed, "runtime": r.runtime,
        "detail": r.detail,
    } for r in results]
    columns = ["criterion", "name", "measured", "target", "passed",
               "runtime", "detail"]
    summary = {"all_passed": all(r.passed for r in results),
               "lines": [r.line() for r in results]}
    return rows, columns, summary


def _format_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    return str(value)


def _write_csv(stream, rows, columns, summary):
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_format_cell(row[c]) for c in columns) + "\n")
    for key in sorted(summary):
        if key == "lines":
            continue
        stream.write(f"# {key},{_format_cell(summary[key])}\n")


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def _write_json(stream, rows, columns, summary, config_echo):
    doc = {
        "config": config_echo,
        "rows": [{c: _jsonable(r[c]) for c in columns} for r in rows],
        "summary": {k: _jsonable(v) for k, v in summary.items()
                    if k != "lines"},
    }
    json.dump(doc, stream, indent=2, sort_keys=True)
    stream.write("\n")


def _add_common(sub, *, zeta_sweep=False):
    sub.add_argument("--kappa", type=float, default=1.0,
                     help="acceleration scale (default 1.0)")
    sub.add_argument("--zeta", type=float, default=0.0,
                     help="shape parameter in (-1, 1) (default 0)")
    sub.add_argument("--e-squared", type=float, default=E_SQUARED_DEFAULT,
                     help="squared charge (default 4*pi*alpha)")
    sub.add_argument("--tol", type=float, default=1e-8,
                     help="relative tolerance (default 1e-8)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output", default=None, metavar="PATH",
                     help="write to PATH instead of standard output")
    if zeta_sweep:
        sub.add_argument("--zeta-min", type=float, default=None)
        sub.add_argument("--zeta-max", type=float, default=None)
        sub.add_argument("--zeta-steps", type=int, default=None)


def _add_omega_theta(sub, omega_default=(0.1, 5.0, 25),
                     theta_default=(0.0, math.pi, 19)):
    sub.add_argument("--omega-min", type=float, default=omega_default[0])
    sub.add_argument("--omega-max", type=float, default=omega_default[1])
    sub.add_argument("--omega-steps", type=int, default=omega_default[2])
    sub.add_argument("--theta-min", type=float, default=theta_default[0])
    sub.add_argument("--theta-max", type=float, default=theta_default[1])
    sub.add_argument("--theta-steps", type=int, default=theta_default[2])


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="fdradiance",
        description="Radiation spectrum of a charge on a Fermi-Dirac "
                    "trajectory, and its moving-mirror dual.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    t = subs.add_parser("trajectory", help="worldline samples z(t)")
    _add_common(t, zeta_sweep=True)
    t.add_argument("--t", type=float, default=None,
                   help="single coordinate time")
    t.add_argument("--t-min", type=float, default=None,
                   help="t grid (default -5..5, 101 steps)")
    t.add_argument("--t-max", type=float, default=None)
    t.add_argument("--t-steps", type=int, default=None)
    t.add_argument("--z-min", type=float, default=None)
    t.add_argument("--z-max", type=float, default=None)
    t.add_argument("--z-steps", type=int, default=None)
    t.add_argument("--penrose", action="store_true",
                   help="add compactified null coordinate columns U, V")

    e = subs.add_parser(
        "energy", help="total radiated energy",
        description="Total radiated energy. The worldline-integral route "
                    "honors --tol down to 1e-9; the spectral route floors "
                    "it at 1e-6 because its cost grows steeply.")
    _add_common(e, zeta_sweep=True)
    e.add_argument("--method", choices=("larmor", "spectral", "both"),
                   default="larmor")

    d = subs.add_parser("distribution", help="dI/dOmega over an (omega, theta) grid")
    _add_common(d)
    _add_omega_theta(d)
    d.add_argument("--method", choices=("numeric", "exact", "fd", "all"),
                   default="numeric")

    s = subs.add_parser("spectrum", help="angle-integrated I(omega) or N(omega)")
    _add_common(s)
    s.add_argument("--omega-min", type=float, default=0.1)
    s.add_argument("--omega-max", type=float, default=5.0)
    s.add_argument("--omega-steps", type=int, default=25)
    s.add_argument("--kind", choices=("energy", "particle", "both"),
                   default="energy")

    m = subs.add_parser("mirror", help="mode pairs and |beta|^2")
    _add_common(m)
    m.add_argument("--pq-min", type=float, default=0.1,
                   help="lower bound of the total frequency p+q grid")
    m.add_argument("--pq-max", type=float, default=5.0)
    m.add_argument("--pq-steps", type=int, default=25)
    m.add_argument("--omega-min", type=float, default=None,
                   help="with --omega-*/--theta-*: map an emission grid instead")
    m.add_argument("--omega-max", type=float, default=None)
    m.add_argument("--omega-steps", type=int, default=None)
    m.add_argument("--theta-min", type=float, default=0.0)
    m.add_argument("--theta-max", type=float, default=math.pi)
    m.add_argument("--theta-steps", type=int, default=19)
    m.add_argument("--p", type=float, default=None,
                   help="single explicit right-mode frequency")
    m.add_argument("--q", type=float, default=None,
                   help="single explicit left-mode frequency")
    m.add_argument("--duality", action="store_true",
                   help="add the electron-side count comparison to the summary")

    c = subs.add_parser("check", help="run the acceptance suite")
    _add_common(c)
    c.add_argument("--tolerance-scale", type=float, default=1.0,
                   help="multiply all scalable tolerances (0 must fail)")
    c.add_argument("--criteria", default=None,
                   help="comma-separated criterion indices, e.g. 1,4,9")
    return parser


def _config_from(ns) -> RunConfig:
    params = TrajectoryParams(ns.kappa, ns.zeta, ns.e_squared)
    grids: dict = {}
    options: dict = {}

    if ns.command in ("trajectory", "energy"):
        grids["zeta"] = _grid(ns, "zeta", default=(ns.zeta, ns.zeta, 1))
        for z in grids["zeta"]:
            TrajectoryParams(ns.kappa, float(z), ns.e_squared)

    if ns.command == "trajectory":
        z_given = any(v is not None for v in (ns.z_min, ns.z_max, ns.z_steps))
        t_given = any(v is not None for v in (ns.t_min, ns.t_max, ns.t_steps))
        families = sum([z_given, t_given, ns.t is not None])
        if families > 1:
            raise DomainError("give exactly one of --t, a --t-* grid, "
                              "or a --z-* grid")
        if z_given:
            grids["z"] = _grid(ns, "z")
        elif ns.t is not None:
            grids["t"] = np.array([ns.t])
        else:
            grids["t"] = _grid(ns, "t", default=(-5.0, 5.0, 101))
        options["penrose"] = bool(ns.penrose)

    if ns.command == "energy":
        options["method"] = ns.method

    if ns.command == "distribution":
        grids["omega"] = _grid(ns, "omega")
        grids["theta"] = _grid(ns, "theta")
        options["method"] = ns.method

    if ns.command == "spectrum":
        grids["omega"] = _grid(ns, "omega")
        options["kind"] = ns.kind

    if ns.command == "mirror":
        if (ns.p is None) != (ns.q is None):
            raise DomainError("give both --p and --q or neither")
        options["p"] = ns.p
        options["q"] = ns.q
        options["duality"] = bool(ns.duality)
        grids["omega"] = _grid(ns, "omega")
        if grids["omega"] is not None:
            grids["theta"] = _grid(ns, "theta")
        else:
            grids["pq"] = _grid(ns, "pq")

    if ns.command == "check":
        if not (ns.tolerance_scale >= 0.0 and math.isfinite(ns.tolerance_scale)):
            raise DomainError("--tolerance-scale must be finite and non-negative")
        options["tolerance_scale"] = ns.tolerance_scale
        if ns.criteria is None:
            options["criteria"] = None
        else:
            try:
                options["criteria"] = [int(tok) for tok in ns.criteria.split(",")]
            except ValueError as exc:
                raise DomainError(f"bad --criteria value: {ns.criteria}") from exc
            unknown = sorted(set(options["criteria"]) - set(CRITERION_NAMES))
            if unknown:
                raise DomainError(f"unknown criterion indices: {unknown}")

    return RunConfig(
        command=ns.command, params=params, grids=grids, tol=ns.tol,
        output_format=ns.format, output_path=ns.output, options=options,
    )


_RUNNERS = {
    "trajectory": run_trajectory,
    "energy": run_energy,
    "distribution": run_distribution,
    "spectrum": run_spectrum,
    "mirror": run_mirror,
    "check": run_check,
}


def _config_echo(ns) -> dict:
    echo = {}
    for key, value in sorted(vars(ns).items()):
        if key == "command":
            continue
        echo[key] = _jsonable(value)
    return echo


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = _config_from(ns)
        rows, columns, summary = _RUNNERS[config.command](config)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FdradianceError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    if config.command == "check" and config.output_format == "csv" \
            and config.output_path is None:
        for line in summary["lines"]:
            print(line)
        return 0 if summary["all_passed"] else 1

    stream = (open(config.output_path, "w", encoding="utf-8", newline="")
              if config.output_path else sys.stdout)
    try:
        if config.output_format == "csv":
            _write_csv(stream, rows, columns, summary)
        else:
            _write_json(stream, rows, columns, summary, _config_echo(ns))
    finally:
        if config.output_path:
            stream.close()
    if config.command == "check":
        for line in summary["lines"]:
            print(line, file=sys.stderr)
        return 0 if summary["all_passed"] else 1
    return 0
