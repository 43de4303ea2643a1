"""frictionlab: a 1D numerical laboratory for the damped Euler-Poisson
system and its Keller-Segel aggregation limit.

The package couples three views of the same dynamics: a pseudo-spectral
solver for the stiff perturbation system, a solver for the limit
transport equation, and exact characteristic formulas for vacuum
profiles, plus dispersion analysis and an experiment/CLI layer.

The package namespace holds the names of a minimal run (`__all__`);
every other name is imported from its module, such as
`frictionlab.characteristics` or `frictionlab.experiments`.  Importing
the package imports every module.
"""

from . import (characteristics, diagnostics, errors, experiments, io, ksmap,
               spectral, spectrum)
from .core import Field, Grid, KSState, ParamSet
from .euler_poisson import simulate_ep
from .keller_segel import simulate_ks
from .profiles import profile_field

__version__ = "0.1.0"

__all__ = ["Field", "Grid", "KSState", "ParamSet", "profile_field",
           "simulate_ep", "simulate_ks"]
