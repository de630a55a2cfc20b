"""Radiation from a point charge on a Fermi-Dirac trajectory.

The worldline approaches the speed of light along +z with a rapidity
profile whose late-time acceleration spectrum carries a Fermi-Dirac
factor. This package computes the classical radiation it emits, checks
the closed forms that the spectrum collapses to at special angles and
parameter values, and maps the emission onto the pair-creation
coefficients of an accelerated-mirror model with the same asymptotics.

Modules: trajectory (kinematics and Larmor energy), spectra (angular
and frequency distributions), mirror (mode mapping and particle
counts), specfun (log-gamma and the confluent hypergeometric series),
quadrature (adaptive and oscillatory integration), acceptance (the
ten-point verification suite), cli (command-line front end).
"""
from .errors import (
    ConstraintError,
    ConvergenceError,
    DomainError,
    FdradianceError,
    NonFiniteError,
    OverflowRangeError,
    PoleError,
    RegimeError,
)
from .specfun import kummer_1f1, ln_gamma
from .quadrature import (
    OscillatoryPhaseSpec,
    QuadratureResult,
    integrate_adaptive,
    integrate_oscillatory,
    integrate_semi_infinite,
)
from .trajectory import (
    E_SQUARED_DEFAULT,
    KinematicState,
    TrajectoryParams,
    coordinate_time,
    kinematic_state,
    larmor_power,
    penrose_coordinates,
    position_at_time,
    total_energy_larmor,
)
from .spectra import (
    EmissionDirection,
    SpectralSample,
    distribution_exact_zeta0,
    distribution_numeric,
    energy_spectrum,
    fd_partial_energy,
    fd_partial_energy_quadrature,
    fd_particle_count,
    fd_particle_count_quadrature,
    fermi_dirac_distribution,
    particle_spectrum,
    phase_spec,
    total_energy_spectral,
)
from .mirror import (
    BetaCoefficient,
    ModePair,
    beta_squared_fd,
    beta_squared_fd_limit,
    beta_squared_from_distribution,
    map_to_modes,
    mirror_fd_energy,
    mirror_fd_energy_quadrature,
    mirror_particle_count,
    mirror_particle_count_quadrature,
)
from .acceptance import CriterionResult, run_all

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "FdradianceError",
    "DomainError",
    "PoleError",
    "ConstraintError",
    "RegimeError",
    "NonFiniteError",
    "OverflowRangeError",
    "ConvergenceError",
    "ln_gamma",
    "kummer_1f1",
    "QuadratureResult",
    "OscillatoryPhaseSpec",
    "integrate_adaptive",
    "integrate_semi_infinite",
    "integrate_oscillatory",
    "E_SQUARED_DEFAULT",
    "TrajectoryParams",
    "KinematicState",
    "coordinate_time",
    "kinematic_state",
    "position_at_time",
    "penrose_coordinates",
    "larmor_power",
    "total_energy_larmor",
    "EmissionDirection",
    "SpectralSample",
    "phase_spec",
    "distribution_numeric",
    "distribution_exact_zeta0",
    "fermi_dirac_distribution",
    "energy_spectrum",
    "particle_spectrum",
    "total_energy_spectral",
    "fd_partial_energy",
    "fd_partial_energy_quadrature",
    "fd_particle_count",
    "fd_particle_count_quadrature",
    "ModePair",
    "BetaCoefficient",
    "map_to_modes",
    "beta_squared_from_distribution",
    "beta_squared_fd",
    "beta_squared_fd_limit",
    "mirror_fd_energy",
    "mirror_fd_energy_quadrature",
    "mirror_particle_count",
    "mirror_particle_count_quadrature",
    "CriterionResult",
    "run_all",
]
