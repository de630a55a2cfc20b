"""Radiation from a point charge on a Fermi-Dirac trajectory.

The worldline is asymptotically static: it starts and ends at rest,
moving along +z at a speed that never exceeds 1/(2 + zeta), and its
emission at the special angle cos(theta) = zeta carries a Fermi-Dirac
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
from . import acceptance, errors, mirror, quadrature, specfun, spectra, trajectory
from .errors import *  # noqa: F401,F403
from .specfun import *  # noqa: F401,F403
from .quadrature import *  # noqa: F401,F403
from .trajectory import *  # noqa: F401,F403
from .spectra import *  # noqa: F401,F403
from .mirror import *  # noqa: F401,F403
from .acceptance import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name for module in (errors, specfun, quadrature, trajectory, spectra, mirror,
                        acceptance) for name in module.__all__]
