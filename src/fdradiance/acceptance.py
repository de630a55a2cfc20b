"""Self-contained acceptance suite: ten checks, each with a pinned tolerance.

Every check compares an independently computed quantity against a closed
form or against a second, structurally different evaluation route, and
returns a measured value and a target: a check passes when measured <
target, strictly, and within its runtime limit. The tolerances are part
of the library's contract; ``tolerance_scale`` multiplies every target
but check 8's, so a harness can demonstrate falsifiability (scale 0 makes
every other check fail) or grant slack on exotic hardware. Check 8 is a
strict trend with no numeric tolerance: its largest ratio of successive
energies must stay below 1.
"""
from __future__ import annotations

import dataclasses
import math
import time

import numpy as np

from .errors import ConvergenceError, DomainError
from .mirror import (
    beta_squared_fd,
    beta_squared_fd_limit,
    beta_squared_from_distribution,
    map_to_modes,
    mirror_particle_count,
)
from .quadrature import integrate_adaptive
from .specfun import kummer_1f1, ln_gamma
from .spectra import (
    distribution_grid,
    fd_partial_energy,
    fd_partial_energy_quadrature,
    fd_particle_count,
    fd_particle_count_quadrature,
    fermi_dirac_distribution,
    total_energy_spectral,
)
from .trajectory import TrajectoryParams, total_energy_larmor

__all__ = ["CriterionResult", "run_all", "CRITERION_NAMES"]

_GRID_OMEGAS = (0.25, 0.5, 1.0, 2.0, 4.0)
_GRID_THETAS = (math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3,
                5 * math.pi / 6)
_ZETA_SET = (-0.5, 0.0, 0.5)


@dataclasses.dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    measured: float
    target: float
    passed: bool
    runtime: float
    runtime_limit: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] criterion {self.index:2d} {self.name}: "
                f"measured {self.measured:.3e} vs target {self.target:.3e} "
                f"({self.runtime:.2f}s / limit {self.runtime_limit:.0f}s)"
                + (f" -- {self.detail}" if self.detail else ""))


def _rel(a, b):
    return abs(a - b) / abs(b)


def _c1_energy_closed_form(scale):
    params = TrajectoryParams(kappa=1.0, zeta=0.0, e_squared=1.0)
    measured = total_energy_larmor(params)
    ref = (1.0 / 36.0) * (1.0 / (3.0 * math.sqrt(3.0)) - 1.0 / (4.0 * math.pi))
    return _rel(measured, ref), 1e-6 * scale, f"E={measured:.9e}"


def _c2_spectral_larmor_closure(scale):
    params = TrajectoryParams(kappa=1.0, zeta=0.0, e_squared=1.0)
    e_larmor = total_energy_larmor(params)
    e_spectral = total_energy_spectral(params, tol=1e-4)
    return (_rel(e_spectral, e_larmor), 1e-3 * scale,
            f"spectral={e_spectral:.6e} larmor={e_larmor:.6e}")


def _c3_special_angle_reduction(scale):
    params = TrajectoryParams(kappa=1.0, zeta=0.0, e_squared=1.0)
    ys = (0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0)
    exact = distribution_grid(params, ys, [math.pi / 2], "exact-zeta0")
    worst = max(_rel(e.value, fermi_dirac_distribution(params, y).value)
                for e, y in zip(exact, ys))
    return worst, 1e-10 * scale, "theta=pi/2 vs closed form, 7 frequencies"


def _c4_numeric_vs_exact_grid(scale):
    params = TrajectoryParams(kappa=1.0, zeta=0.0, e_squared=1.0)
    numeric = distribution_grid(params, _GRID_OMEGAS, _GRID_THETAS, "numeric", 1e-9)
    exact = distribution_grid(params, _GRID_OMEGAS, _GRID_THETAS, "exact-zeta0")
    worst = max(_rel(n.value, e.value) for n, e in zip(numeric, exact))
    return worst, 1e-6 * scale, "5x5 (omega, theta) grid"


def _c5_fd_partial_energy(scale):
    worst = 0.0
    for zeta in _ZETA_SET:
        params = TrajectoryParams(kappa=1.0, zeta=zeta, e_squared=1.0)
        worst = max(worst, _rel(fd_partial_energy_quadrature(params, tol=1e-12),
                                fd_partial_energy(params)))
    return worst, 1e-8 * scale, "quadrature vs closed form, 3 zeta values"


def _special_angle_betas(zeta, omegas):
    """|beta|^2 of the saddle-contour route at cos(theta) = zeta, kappa = e^2 = 1."""
    params = TrajectoryParams(kappa=1.0, zeta=zeta, e_squared=1.0)
    samples = distribution_grid(params, omegas, [math.acos(zeta)], "numeric", 1e-10)
    return beta_squared_from_distribution(omegas, [s.value for s in samples], 1.0)


def _c6_particle_count_duality(scale):
    worst = 0.0
    for zeta in _ZETA_SET:
        params = TrajectoryParams(kappa=1.0, zeta=zeta, e_squared=1.0)
        n_closed = fd_particle_count(params)
        worst = max(worst,
                    _rel(fd_particle_count_quadrature(params, tol=1e-12), n_closed),
                    _rel(params.e_squared * mirror_particle_count(zeta), n_closed))

    # the contour's pair density (u/2) |beta|^2 up to u = 6 kappa, past which
    # the occupancy is below e^{-12 pi}; at d = 0 the contour is the same for
    # every zeta, so one is enough
    def density(u):
        return 0.5 * u * _special_angle_betas(0.5, u)

    m_contour = integrate_adaptive(density, 0.0, 6.0, tol=1e-10).value
    worst = max(worst, _rel(m_contour, mirror_particle_count(0.5)))
    return worst, 1e-8 * scale, "electron, e^2 x mirror and contour pair counts"


def _c7_special_angle_beta(scale):
    omegas = np.array((0.25, 0.5, 1.0, 2.0, 4.0, 16.0, 40.0))
    worst = 0.0
    for zeta in _ZETA_SET:
        closed = beta_squared_fd(*map_to_modes(omegas, math.acos(zeta)), 1.0, zeta)
        worst = max(worst, _rel(_special_angle_betas(zeta, omegas), closed).max())
    return worst, 1e-12 * scale, "contour vs Fermi-Dirac |beta|^2, 3 zeta x 7 omega"


def _c8_energy_zeta_trend(scale):
    # No numeric tolerance to scale here: the claim is strict monotonicity.
    zetas = (-0.9, -0.6, -0.3, 0.0, 0.3, 0.6, 0.9)
    energies = [total_energy_larmor(TrajectoryParams(1.0, z, 1.0)) for z in zetas]
    ratios = [energies[i + 1] / energies[i] for i in range(len(energies) - 1)]
    finite_positive = all(math.isfinite(e) and e > 0.0 for e in energies)
    detail = "E(zeta) ratios " + ", ".join(f"{r:.3f}" for r in ratios)
    return max(ratios) if finite_positive else math.inf, 1.0, detail


def _kummer_point(rng, imaginary):
    """One (a, b, x) of criterion 9's Kummer identities, x pure imaginary or not."""
    a = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
    while True:
        b = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
        # keep a unit margin from every series pole b = 0, -1, -2, ...
        # (and from b-a poles of the flipped side, same lattice)
        k = min(round(b.real), 0)
        kk = min(round((b - a).real), 0)
        if abs(b - k) >= 1.0 and abs((b - a) - kk) >= 1.0:
            break
    if imaginary:
        # pure imaginary argument: neither side triggers the internal
        # sign flip, so two genuinely different series are compared
        return a, b, complex(0.0, rng.uniform(-15, 15))
    return a, b, complex(rng.uniform(-8, 8), rng.uniform(-8, 8))


def _kummer_series(a, b, x):
    """The (a, b, x) of each series that one point's identity compares."""
    if x.real == 0.0:
        return [(a, b, x), (b - a, b, -x)]
    # Kummer's transform would flip one side internally and sum the same
    # series twice; the contiguous relation DLMF 13.3.1 sums three
    # different ones
    return [(a - 1.0, b, x), (a, b, x), (a + 1.0, b, x)]


def _kummer_error(a, b, x, values):
    """Relative defect of the point's identity, given its series' values."""
    if x.real == 0.0:
        lhs, flipped = values
        return abs(lhs - np.exp(x) * flipped) / abs(lhs)
    # (b-a)M(a-1) + (2a-b+x)M(a) - aM(a+1) = 0, measured against the
    # largest term
    m_down, m, m_up = values
    terms = ((b - a) * m_down, (2.0 * a - b + x) * m, -a * m_up)
    return abs(sum(terms)) / max(abs(t) for t in terms)


def _c9_special_function_identities(scale):
    ys = np.arange(0.0, 10.0 + 1e-9, 0.1)
    worst_refl = 0.0
    for y, lg in zip(ys.tolist(), ln_gamma(0.5 + 1j * ys).tolist()):
        val = math.exp(2.0 * lg.real)
        ref = math.pi / math.cosh(math.pi * y)
        worst_refl = max(worst_refl, _rel(val, ref))

    rng = np.random.default_rng(20240817)
    worst_kummer = 0.0
    accepted = 0
    rejected = 0
    while accepted < 40 and rejected < 200:
        # Draw the remaining points as if each will be accepted, keeping the
        # generator's state after each, and sum all their series in one
        # call: every element keeps the bits of its own call, and the call
        # marks exactly the elements whose own call would refuse.
        points, states = [], []
        for k in range(accepted, 40):
            points.append(_kummer_point(rng, imaginary=k % 8 < 5))
            states.append(rng.bit_generator.state)
        series = [_kummer_series(*point) for point in points]
        a, b, x = zip(*(s for group in series for s in group))
        try:
            values = kummer_1f1(a, b, x).tolist()
            failed = [False] * len(values)
        except ConvergenceError as exc:
            values, failed = exc.best.tolist(), exc.failed.tolist()
        start = 0
        for point, state, group in zip(points, states, series):
            stop = start + len(group)
            if any(failed[start:stop]):
                # near a zero of the function the series cancellation makes
                # a certified 1e-10 value impossible; such points cannot
                # witness the identity at that accuracy and are redrawn
                # (counted below), from right after this point's draws
                rejected += 1
                rng.bit_generator.state = state
                break
            worst_kummer = max(worst_kummer, _kummer_error(*point, values[start:stop]))
            accepted += 1
            start = stop

    # two sub-tolerances; report the fraction of budget used, worst case
    measured = max(worst_refl / 1e-12, worst_kummer / 1e-10)
    detail = (f"reflection {worst_refl:.2e} (tol 1e-12), "
              f"kummer {worst_kummer:.2e} (tol 1e-10), "
              f"{accepted} points ({rejected} uncertifiable redrawn)")
    if accepted < 40:
        measured = math.inf
    return measured, 1.0 * scale, detail


def _c10_near_minus_one_limit(scale):
    zeta = -0.99
    kappa = 1.0
    u = np.linspace(0.1, 5.0, 50)
    full = beta_squared_fd(u * (1.0 + zeta) / 2.0, u * (1.0 - zeta) / 2.0, kappa, zeta)
    worst = _rel(beta_squared_fd_limit(u, kappa, zeta), full).max()
    return worst, 2.0 * abs(1.0 + zeta) * scale, "zeta=-0.99, matched total frequency"


_CRITERIA = (
    (1, "energy-closed-form", 1.0, _c1_energy_closed_form),
    (2, "spectral-larmor-closure", 60.0, _c2_spectral_larmor_closure),
    (3, "special-angle-reduction", 1.0, _c3_special_angle_reduction),
    (4, "numeric-vs-exact-grid", 30.0, _c4_numeric_vs_exact_grid),
    (5, "fd-partial-energy", 5.0, _c5_fd_partial_energy),
    (6, "particle-count-duality", 5.0, _c6_particle_count_duality),
    (7, "duality-round-trip", 1.0, _c7_special_angle_beta),
    (8, "energy-zeta-trend", 10.0, _c8_energy_zeta_trend),
    (9, "special-function-identities", 5.0, _c9_special_function_identities),
    (10, "near-minus-one-limit", 1.0, _c10_near_minus_one_limit),
)

CRITERION_NAMES = {index: name for index, name, _, _ in _CRITERIA}


def run_all(tolerance_scale: float = 1.0, criteria=None) -> list[CriterionResult]:
    """Run the acceptance checks and return one result per criterion.

    Parameters
    ----------
    tolerance_scale : float
        Multiplier on every numeric tolerance (criterion 8 is a strict
        trend and is exempt). Zero makes every criterion but 8 fail, which
        is the documented falsifiability probe.
    criteria : iterable of int, optional
        Subset of criterion indices to run; default all ten.
    """
    if tolerance_scale < 0.0 or not math.isfinite(tolerance_scale):
        raise DomainError("--tolerance-scale must be finite and non-negative")
    wanted = set(range(1, 11)) if criteria is None else {int(c) for c in criteria}
    unknown = wanted - set(CRITERION_NAMES)
    if unknown:
        raise DomainError(f"unknown criterion indices: {sorted(unknown)}")
    results = []
    for index, name, limit, func in _CRITERIA:
        if index not in wanted:
            continue
        start = time.perf_counter()
        measured, target, detail = func(tolerance_scale)
        elapsed = time.perf_counter() - start
        passed = bool(measured < target) and elapsed < limit
        results.append(CriterionResult(
            index=index, name=name, measured=float(measured),
            target=float(target), passed=passed, runtime=elapsed,
            runtime_limit=limit, detail=detail,
        ))
    return results
