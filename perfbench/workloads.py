"""Seeded task lists for the three workloads, and the reference each task is gated by.

A task is ``(kind, call)``: ``call`` takes no arguments and looks every
package function up through its module at call time, so that the tracer's
wrappers see the call. Outputs are plain floats, or ``(exit code, text)``
for CLI commands.

Every gate compares an output with a reference computed outside the timed
region by a different code path: a closed form, a different route through
the package, or a reference written here. ``perturb`` alters one output
number so that the gate's self-check can show that the gate reads it.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import io
import math
import re

import numpy as np

from fdradiance import cli, mirror, spectra, trajectory
from fdradiance.spectra import EmissionDirection
from fdradiance.trajectory import E_SQUARED_DEFAULT, TrajectoryParams

E2 = E_SQUARED_DEFAULT
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Check:
    """|value - reference| <= allowed, for one number of one task."""

    __slots__ = ("label", "value", "ref", "allowed")

    def __init__(self, label, value, ref, allowed):
        self.label, self.value, self.ref, self.allowed = label, value, ref, allowed

    def passes(self):
        return bool(abs(self.value - self.ref) <= self.allowed)


def rel_check(label, value, ref, rel):
    return Check(label, value, ref, rel * abs(ref))


@functools.lru_cache(maxsize=None)
def _memo(fn, *args, **kw):
    """fn(*args, **kw), computed once: the self-check gates each task twice."""
    return fn(*args, **kw)


def _stratified(rng, n):
    """n values in [0, 1), one in each stratum [i/n, (i+1)/n), in seeded order.

    Stratified inputs keep each run's cost mix close to the population's,
    so that runs with different seeds give comparable timings.
    """
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def _log_uniform(frac, lo, hi):
    return lo * (hi / lo) ** frac


def _zeta_nonzero(frac, half_width=0.6):
    zeta = float(-half_width + 2.0 * half_width * frac)
    return zeta if zeta != 0.0 else 1e-3


# ---------------------------------------------------------------------------
# spectrum-numeric: energy_spectrum at zeta != 0 (the oscillatory route)

SPECTRUM_TOL = 1e-6
FD_CHECK_TOL = 1e-9


def spectrum_numeric_tasks(rng, units):
    """``units`` energy_spectrum calls over a jittered 2-D lattice of inputs.

    omega/kappa is log-uniform in [0.1, 8] with one task per stratum, and
    zeta in [-0.6, 0.6] (never 0, which would take the closed route) follows
    the golden-ratio sequence along it, jittered within 1/units. The
    pairing of small omega/kappa with zeta, which sets the costliest tasks,
    is thus the same in every run. kappa in [0.5, 2] is drawn freely: the
    cost does not depend on it.
    """
    i = np.arange(units)
    y_frac = (i + rng.random(units)) / units
    z_frac = np.mod(i * GOLDEN + rng.random(units) / units, 1.0)
    kappas = _log_uniform(rng.random(units), 0.5, 2.0)
    tasks = []
    for fy, fz, kappa in zip(y_frac, z_frac, kappas):
        params = TrajectoryParams(float(kappa), _zeta_nonzero(fz))
        omega = float(kappa * _log_uniform(fy, 0.1, 8.0))
        tasks.append(("energy_spectrum", _call(spectra, "energy_spectrum", params, omega,
                                               SPECTRUM_TOL)))
    rng.shuffle(tasks)
    return tasks


def spectrum_numeric_warmup():
    for zeta, y in ((0.3, 1.0), (-0.4, 3.0)):
        spectra.energy_spectrum(TrajectoryParams(1.0, zeta), y, SPECTRUM_TOL)


ANGULAR_REF_ORDER = 96      # neither of the package's 64/128/256/512 rules


def angular_reference(params, omega, tol, order=ANGULAR_REF_ORDER):
    """I(omega) = 2 pi int du dI/dOmega by a fixed Gauss-Legendre rule written here.

    Each node is one distribution_numeric at tol/8, the per-node tolerance
    energy_spectrum uses. The integrand is smooth in u = cos(theta): on
    seeded spectrum-numeric inputs this rule and a 160-node one agreed to
    3e-14 relative.
    """
    us, ws = np.polynomial.legendre.leggauss(order)
    vals = [spectra.distribution_numeric(params, omega, EmissionDirection(math.acos(u)),
                                         tol / 8.0).value for u in us]
    return 2.0 * math.pi * float(ws @ np.array(vals))


def _fd_special_angle(params, omega, tol, fd_value=None):
    """Numeric dI/dOmega at cos(theta) = zeta against the Fermi-Dirac form."""
    num = _memo(spectra.distribution_numeric,
                params, omega, EmissionDirection(math.acos(params.zeta)), tol)
    if fd_value is None:
        fd_value = spectra.fermi_dirac_distribution(params, omega).value
    return Check("numeric-vs-fermi-dirac", num.value, fd_value,
                 num.abs_error + tol * abs(fd_value))


def gate_spectrum_numeric(kind, call, out):
    params, omega, tol = call.inputs
    return [
        rel_check("spectrum-vs-angular-reference", out,
                  _memo(angular_reference, params, omega, tol), 10.0 * tol),
        _fd_special_angle(params, omega, FD_CHECK_TOL),
    ]


# ---------------------------------------------------------------------------
# closed-form: the zeta = 0 routes and the closed-form companions

CLOSED_TOTAL_TOL = 1e-4
CLOSURE_REL = 1e-3          # spectral vs Larmor total, as in acceptance check 2
COMPANION_REL = 1e-8        # quadrature companions vs their closed totals
LARMOR_REL = 1e-8
# Single dI/dOmega values of the exact zeta = 0 route are asked for only at
# omega/kappa <= EXACT_Y_MAX. Above it, near cos(theta) = -1, the route's two
# 1F1 terms cancel and it loses accuracy while claiming 1e-13 relative: at
# theta = 170 deg it is off the 60-digit mpmath oracle of tests/oracles.py by
# 1.9e-9 at omega/kappa = 4, 5.7e-7 at 5 and 4e-2 at 8 (the numeric route
# stays within its error bar), and from about 4.5 on it fails the
# numeric-vs-exact gate. That defect of the package is measured on every run
# by ``exact_route_defect``. Angle-integrated spectra still use the route up
# to omega/kappa = 8: those values are too small there to move I(omega)
# beyond its gate.
EXACT_Y_MAX = 4.0


def _larmor_zeta0(kappa, e2=E2):
    return e2 * kappa / 36.0 * (1.0 / (3.0 * math.sqrt(3.0)) - 1.0 / (4.0 * math.pi))


def closed_form_tasks(rng, units):
    """``units`` cycles of 14 tasks; one total_energy_spectral(zeta=0) per cycle.

    Per cycle, at one seeded kappa: 1 total_energy_spectral, 1
    energy_spectrum and 3 scalar distribution_exact_zeta0 (omega/kappa up
    to EXACT_Y_MAX) at zeta = 0,
    3 total_energy_larmor (one at zeta = 0), and 6 companion tasks, each
    the four fd_*/mirror_* quadrature companions at four seeded zetas. A
    single companion call takes about 0.1 ms, short enough that timer and
    cache jitter would dominate it; sixteen per task keep its time readable
    while per-call overhead still sets it.
    """
    n = units
    kappa_f, es_f = _stratified(rng, n), _stratified(rng, n)
    exact_y, exact_u = _stratified(rng, 3 * n), _stratified(rng, 3 * n)
    larmor_z, comp_z = _stratified(rng, 2 * n), _stratified(rng, 24 * n)
    perturb_at = rng.integers(0, 16, size=6 * n)
    tasks = []
    for cyc in range(n):
        kappa = float(_log_uniform(kappa_f[cyc], 0.5, 2.0))
        p0 = TrajectoryParams(kappa, 0.0)
        tasks.append(("total_energy_spectral", _call(
            spectra, "total_energy_spectral", p0, CLOSED_TOTAL_TOL)))
        tasks.append(("energy_spectrum_zeta0", _call(
            spectra, "energy_spectrum", p0, kappa * _log_uniform(es_f[cyc], 0.1, 8.0),
            SPECTRUM_TOL)))
        for k in range(3 * cyc, 3 * cyc + 3):
            theta = math.acos(-0.95 + 1.9 * exact_u[k])
            tasks.append(("distribution_exact_zeta0", _call(
                spectra, "distribution_exact_zeta0", kappa, E2,
                kappa * _log_uniform(exact_y[k], 0.1, EXACT_Y_MAX),
                EmissionDirection(theta))))
        tasks.append(("total_energy_larmor", _call(trajectory, "total_energy_larmor", p0)))
        for k in range(2 * cyc, 2 * cyc + 2):
            pz = TrajectoryParams(kappa, _zeta_nonzero(larmor_z[k]))
            tasks.append(("total_energy_larmor", _call(trajectory, "total_energy_larmor", pz)))
        for k in range(24 * cyc, 24 * cyc + 24, 4):
            zetas = [_zeta_nonzero(z) for z in comp_z[k:k + 4]]
            tasks.append(("companions", _companions_call(kappa, zetas,
                                                         int(perturb_at[k // 4]))))
    return tasks


_COMPANIONS = (
    (spectra, "fd_partial_energy_quadrature", "fd_partial_energy",
     lambda k, z: (TrajectoryParams(k, z),)),
    (spectra, "fd_particle_count_quadrature", "fd_particle_count",
     lambda k, z: (TrajectoryParams(k, z),)),
    (mirror, "mirror_fd_energy_quadrature", "mirror_fd_energy", lambda k, z: (k, z)),
    (mirror, "mirror_particle_count_quadrature", "mirror_particle_count", lambda k, z: (z, k)),
)


def _companions_call(kappa, zetas, gate_row):
    jobs = [(module, quad, closed, make_args(kappa, zeta))
            for zeta in zetas for module, quad, closed, make_args in _COMPANIONS]

    def call():
        return tuple(float(getattr(m, quad)(*args)) for m, quad, _, args in jobs)
    call.inputs = jobs
    call.gate_row = gate_row
    return call


def _call(module, name, *args):
    def call():
        out = getattr(module, name)(*args)
        return float(out.value) if hasattr(out, "value") else float(out)
    call.inputs = args
    return call


def closed_form_warmup():
    p0 = TrajectoryParams(1.0, 0.0)
    spectra.energy_spectrum(p0, 1.0, SPECTRUM_TOL)
    spectra.distribution_exact_zeta0(1.0, E2, 1.0, EmissionDirection(1.0))
    trajectory.total_energy_larmor(p0)
    spectra.fd_partial_energy_quadrature(p0)
    mirror.mirror_particle_count_quadrature(0.0, 1.0)


def larmor_reference(params, panels=600, order=8):
    """Larmor energy by Gauss-Legendre in s = ln(kappa z), written here.

    E = int (e^2 gamma^6 w'^2 / (6 pi w^5)) dz with w = dt/dz = 1/v; the
    integrand decays like e^{2s} and e^{-4s}, so [-40, 25] holds it all.
    """
    x, wts = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-40.0, 25.0, panels + 1)
    h = 0.5 * np.diff(edges)
    s = (0.5 * (edges[1:] + edges[:-1]))[:, None] + h[:, None] * x[None, :]
    k, zeta = params.kappa, params.zeta
    kz = np.exp(s)
    w = 0.5 * kz + 2.0 / kz + zeta
    dw = 0.5 * k * (1.0 - 4.0 / kz**2)
    gamma2 = w * w / ((w - 1.0) * (w + 1.0))
    f = params.e_squared * gamma2**3 * dw**2 / (6.0 * math.pi * w**5) * (kz / k)
    return float(np.sum(h[:, None] * f * wts[None, :]))


def gate_closed_form(kind, call, out):
    args = call.inputs
    if kind == "total_energy_spectral":
        params = args[0]
        larmor = _memo(trajectory.total_energy_larmor, params)
        return [rel_check("spectral-vs-larmor", out, larmor, CLOSURE_REL),
                rel_check("larmor-vs-closed-form", larmor,
                          _larmor_zeta0(params.kappa, params.e_squared), LARMOR_REL)]
    if kind == "energy_spectrum_zeta0":
        params, omega, tol = args
        numeric = _memo(spectra.energy_spectrum, params, omega, tol, force_numeric=True)
        return [rel_check("exact-vs-numeric-angular", out, numeric, 10.0 * tol)]
    if kind == "distribution_exact_zeta0":
        kappa, e2, omega, direction = args
        num = _memo(spectra.distribution_numeric,
                    TrajectoryParams(kappa, 0.0, e2), omega, direction, FD_CHECK_TOL)
        return [Check("numeric-vs-exact", num.value, out,
                      num.abs_error + FD_CHECK_TOL * abs(out))]
    if kind == "total_energy_larmor":
        params = args[0]
        checks = [rel_check("larmor-vs-reference", out, _memo(larmor_reference, params),
                            LARMOR_REL)]
        if params.zeta == 0.0:
            checks.append(rel_check("larmor-vs-closed-form", out,
                                    _larmor_zeta0(params.kappa, params.e_squared),
                                    LARMOR_REL))
        return checks
    return [rel_check(f"{quad}-vs-{closed}", value,
                      float(_memo(getattr(m, closed), *job_args)), COMPANION_REL)
            for (m, quad, closed, job_args), value in zip(args, out)]


def _pole_limit(kappa, e2, omega, theta):
    """Reference for dI/dOmega at a theta whose cos(theta) rounds to +-1.

    The closed form reads the angle only through u = cos(theta), rounded to
    a double, and takes sin^2 as 1 - u^2. At theta = float(pi), u rounds to
    -1 exactly and it gives 0, while the numeric route, which uses
    sin(theta), gives ~1e-37, the value at that input. The closed form over
    its own 1 - u^2 factor is smooth in u; taken at 1e-3 from the pole and
    times sin^2(theta), it gives the reference. Its error is quadratic in
    that offset, so the change from 2e-3 bounds it. Returns (reference,
    error bound).
    """
    def limit(h):
        t = h if math.cos(theta) > 0.0 else math.pi - h
        f = spectra.distribution_exact_zeta0(kappa, e2, omega, EmissionDirection(t)).value
        return f / (1.0 - math.cos(t) ** 2) * math.sin(theta) ** 2
    near, far = limit(1e-3), limit(2e-3)
    return near, abs(near - far)


# ---------------------------------------------------------------------------
# cli-readme: the README commands, in-process, default settings

CLI_CHECK_TOL = 1e-8        # the CLI's default --tol
_RUNTIME = re.compile(r"\(\d+\.\d+s / limit")
DEFECT_PROBES = ((5.0, 170.0), (8.0, 170.0))    # (omega/kappa, theta in degrees)


def exact_route_defect():
    """The exact route's known defect, measured at fixed inputs beyond EXACT_Y_MAX.

    Each probe is the cli-readme numeric-vs-exact check at the CLI's
    default tolerance; it is reported, not counted in any workload.
    """
    notes = []
    for y, deg in DEFECT_PROBES:
        where = f"omega/kappa {y:g}, theta {deg:g} deg: "
        direction = EmissionDirection(math.radians(deg))
        try:
            num = spectra.distribution_numeric(TrajectoryParams(1.0, 0.0), y, direction,
                                               CLI_CHECK_TOL)
            exact = spectra.distribution_exact_zeta0(1.0, E2, y, direction)
            check = Check("numeric-vs-exact", num.value, exact.value,
                          num.abs_error + CLI_CHECK_TOL * abs(exact.value))
            notes.append(where + f"exact off numeric by "
                         f"{abs(num.value - exact.value) / abs(num.value):.1e} relative, "
                         f"{abs(num.value - exact.value) / check.allowed:.2f}x the "
                         f"allowance ({'passes' if check.passes() else 'fails'}), "
                         f"claiming {exact.abs_error / num.value:.0e}")
        except Exception as exc:    # a note, never a reason to lose the run's result
            notes.append(where + f"raised {type(exc).__name__}: {exc}")
    return notes


def cli_readme_tasks(rng, units):
    """``units`` cycles of the six README commands in README order (seven tasks).

    The seed moves only zeta ranges and grid bounds, where cost stays flat;
    ``energy --method both`` stays at zeta = 0. The ``distribution`` grid
    ends at omega in [3.5, EXACT_Y_MAX], not at the README's 5, where the
    exact rows at theta >= 160 deg are off by the known defect. No --threads is passed, so
    the CLI's default process pool is used. ``spectrum`` runs twice per
    cycle, on two seeded grids: with six equally frequent commands the
    median task would always be the mean of the slowest ``spectrum`` and
    the fastest ``distribution``, two extremes (14% run-to-run spread);
    with seven it lies inside the ``spectrum`` group.
    """
    tasks = []
    for _ in range(units):
        zlo, zhi, wlo, whi, mz = (
            rng.uniform(0.4, 0.6), rng.uniform(0.4, 0.6),
            rng.uniform(0.4, 0.6), rng.uniform(3.5, EXACT_Y_MAX), rng.uniform(-0.6, -0.4))
        spectra_cmds = [
            f"spectrum --kind both --omega-min {rng.uniform(0.08, 0.12)!r} "
            f"--omega-max {rng.uniform(4.5, 5.5)!r} --omega-steps 25" for _ in range(2)]
        commands = [
            f"trajectory --zeta-min {-zlo!r} --zeta-max {zhi!r} --zeta-steps 3 --penrose",
            "energy --method both --tol 1e-4",
            f"distribution --method all --omega-min {wlo!r} --omega-max {whi!r} --omega-steps 10",
            *spectra_cmds,
            f"mirror --zeta {mz!r} --duality",
            "check",
        ]
        gate_row = int(rng.integers(0, 25))
        for cmd in commands:
            tasks.append((cmd.split()[0], _cli_call(cmd.split(), gate_row)))
    return tasks


def _cli_call(argv, gate_row=0):
    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, _RUNTIME.sub("(<runtime>s / limit", buf.getvalue())
    call.inputs = argv
    call.gate_row = gate_row
    return call


def cli_readme_warmup():
    """Each command once on a tiny grid (the pool starts on the first two)."""
    for argv in ("mirror --zeta -0.5 --duality",
                 "trajectory --zeta-min -0.5 --zeta-max 0.5 --zeta-steps 2 --t-min -1 --t-max 1 --t-steps 5",
                 "distribution --method all --omega-min 1 --omega-max 2 --omega-steps 1 --theta-steps 2",
                 "spectrum --kind both --omega-steps 1",
                 "energy",
                 "check --criteria 3"):
        _cli_call(argv.split())()


def _csv_rows(text):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    summary = dict(ln[2:].split(",", 1) for ln in text.splitlines() if ln.startswith("# "))
    return list(csv.DictReader(lines)), summary


def cli_rows(out):
    """Data rows one CLI task printed (criterion lines for ``check``)."""
    code, text = out
    if text.startswith("["):
        return len(text.splitlines())
    return len(_csv_rows(text)[0])


def _argv_value(argv, flag, default):
    return float(argv[argv.index(flag) + 1]) if flag in argv else default


def gate_cli_readme(kind, call, out):
    code, text = out
    argv = call.inputs
    checks = [Check("exit-code", float(code), 0.0, 0.0)]
    if kind == "check":
        lines = text.splitlines()
        passed = sum(ln.startswith("[PASS]") for ln in lines)
        return checks + [Check("criteria-passed", float(passed), 10.0, 0.0)]
    rows, summary = _csv_rows(text)
    kappa = _argv_value(argv, "--kappa", 1.0)
    if kind == "trajectory":
        checks.append(Check("row-count", float(len(rows)), 303.0, 0.0))
        for r in rows:
            t, z, zeta = float(r["t"]), float(r["z"]), float(r["zeta"])
            back = _memo(trajectory.coordinate_time, TrajectoryParams(kappa, zeta), z)
            checks.append(Check("t-z-t-round-trip", back, t, 1e-12 * max(1.0, abs(t))))
            checks.append(Check("penrose-U", float(r["U"]), math.atan(back - z), 1e-14))
            checks.append(Check("penrose-V", float(r["V"]), math.atan(back + z), 1e-14))
    elif kind == "energy":
        (r,) = rows
        e_larmor = float(r["E_larmor"])
        checks.append(rel_check("spectral-vs-larmor", float(r["E_spectral"]), e_larmor,
                                CLOSURE_REL))
        checks.append(Check("rel_diff-column", float(r["rel_diff"]), 0.0, CLOSURE_REL))
        checks.append(rel_check("larmor-vs-closed-form", e_larmor,
                                _larmor_zeta0(kappa), LARMOR_REL))
    elif kind == "distribution":
        exact = {(r["omega"], r["theta"]): float(r["value"])
                 for r in rows if r["method"] == "exact-zeta0"}
        for r in rows:
            value, err = float(r["value"]), float(r["abs_error"])
            if r["method"] == "numeric":
                ref = exact[(r["omega"], r["theta"])]
                theta = float(r["theta"])
                if abs(math.cos(theta)) < 1.0 or math.sin(theta) == 0.0:
                    checks.append(Check("numeric-vs-exact", value, ref,
                                        err + CLI_CHECK_TOL * abs(ref)))
                    continue
                # At the pole the exact row is fixed only up to the rounding of u.
                lim, lim_err = _memo(_pole_limit, kappa, E2, float(r["omega"]), theta)
                checks.append(Check("numeric-vs-pole-limit", value, lim,
                                    err + lim_err + CLI_CHECK_TOL * abs(lim)))
                checks.append(Check("exact-at-pole", ref, lim, abs(lim) + lim_err))
            elif r["method"] == "fermi-dirac":
                checks.append(_fd_special_angle(TrajectoryParams(kappa, 0.0),
                                                float(r["omega"]), CLI_CHECK_TOL, value))
    elif kind == "spectrum":
        energy = [r for r in rows if r["kind"] == "energy-spectrum"]
        particle = [r for r in rows if r["kind"] == "particle-spectrum"]
        for e, p in zip(energy, particle):
            omega = float(e["omega"])
            checks.append(Check("particle-is-energy-over-omega", float(p["value"]),
                                float(e["value"]) / omega, 0.0))
        e = energy[call.gate_row % len(energy)]
        numeric = _memo(spectra.energy_spectrum, TrajectoryParams(kappa, 0.0),
                        float(e["omega"]), CLI_CHECK_TOL, force_numeric=True)
        checks.append(rel_check("exact-vs-numeric-angular", float(e["value"]),
                                numeric, 10.0 * CLI_CHECK_TOL))
    elif kind == "mirror":
        zeta = _argv_value(argv, "--zeta", 0.0)
        checks.append(Check("duality_rel_diff", float(summary["duality_rel_diff"]), 0.0, 1e-12))
        params = TrajectoryParams(kappa, zeta)
        for r in rows:
            p, q, beta2 = float(r["p"]), float(r["q"]), float(r["beta_squared"])
            fd = spectra.fermi_dirac_distribution(params, p + q)
            ref = 4.0 * math.pi * fd.value / (E2 * (p + q) ** 2)
            checks.append(rel_check("beta-vs-emission", beta2, ref, 1e-12))
    return checks


# ---------------------------------------------------------------------------
# gate self-check

PERTURB_REL = 1e-2      # ten times the loosest relative allowance (the 1e-3 closure)
# The CSV column holding each CLI command's computed result.
_CLI_RESULT = {"trajectory": "z", "energy": "E_spectral", "distribution": "value",
               "spectrum": "value", "mirror": "beta_squared"}


def perturb(kind, call, out):
    """``out`` with one number moved by PERTURB_REL: the gate must reject it.

    A float is scaled; in a tuple of floats, the element at ``gate_row``.
    A CLI task gets one result cell scaled, in the ``gate_row``-th row where
    it is non-zero, or, for ``check``, one ``[PASS]`` turned into ``[FAIL]``.
    """
    if isinstance(out, float):
        return out * (1.0 + PERTURB_REL)
    if not isinstance(out[1], str):
        k = call.gate_row % len(out)
        return out[:k] + (out[k] * (1.0 + PERTURB_REL),) + out[k + 1:]
    code, text = out
    lines = text.splitlines(keepends=True)
    if kind == "check":
        at = [i for i, ln in enumerate(lines) if ln.startswith("[PASS]")]
        i = at[call.gate_row % len(at)]
        lines[i] = "[FAIL]" + lines[i][len("[PASS]"):]
        return code, "".join(lines)
    data = [i for i, ln in enumerate(lines) if ln.strip() and not ln.startswith("#")]
    col = lines[data[0]].rstrip("\n").split(",").index(_CLI_RESULT[kind])
    at = [i for i in data[1:] if float(lines[i].split(",")[col]) != 0.0]
    i = at[call.gate_row % len(at)]
    cells = lines[i].rstrip("\n").split(",")
    cells[col] = repr(float(cells[col]) * (1.0 + PERTURB_REL))
    lines[i] = ",".join(cells) + "\n"
    return code, "".join(lines)


WORKLOADS = {
    "spectrum-numeric": (spectrum_numeric_tasks, spectrum_numeric_warmup,
                         gate_spectrum_numeric),
    "closed-form": (closed_form_tasks, closed_form_warmup, gate_closed_form),
    "cli-readme": (cli_readme_tasks, cli_readme_warmup, gate_cli_readme),
}
