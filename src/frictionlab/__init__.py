"""frictionlab: a 1D numerical laboratory for the damped Euler-Poisson
system and its Keller-Segel aggregation limit.

The package couples three views of the same dynamics: a pseudo-spectral
solver for the stiff perturbation system, a solver for the limit
transport equation, and exact characteristic formulas for vacuum
profiles, plus dispersion analysis and an experiment/CLI layer.
"""

from .core import (
    EPState, Field, Grid, KSState, ParamSet, validate_initial_data,
)
from .errors import (
    Blowup, FrictionLabError, InversionFailure, NoVacuum, NonFinite,
    RangeBreach, RangeViolation, SolverBreakdown, VacuumApproach,
    ValidationError,
)
from .ksmap import ks_map_torus
from .euler_poisson import SimulationResult, simulate_ep, simulate_ep_rows
from .keller_segel import simulate_ks
from .diagnostics import (
    DiagnosticsRecord, fit_exponential_rate, norms, record_ep, record_ks,
)
from .spectrum import (
    DispersionQuery, ModePair, amplitude_ratio, dispersion_roots,
)
from .profiles import (
    InitialProfile, PROFILES, bump_profile, equilibrium_profile,
    profile_field, profile_line, vacuum_ramp_profile,
)
from .characteristics import (
    VacuumReport, derivative_along, dxeta, reconstruct_eulerian,
    semi_lagrangian_oracle, sigma_along, trajectory_position,
    vacuum_interval, velocity_along,
)
from .experiments import (
    ExperimentSpec, run_decay_fit, run_epsilon_sweep, run_single_ep,
    run_single_ks, run_spectrum_table, run_vacuum_collapse,
)

__version__ = "0.1.0"

__all__ = [
    "Blowup", "DiagnosticsRecord", "DispersionQuery", "EPState",
    "ExperimentSpec", "Field", "FrictionLabError", "Grid", "InitialProfile",
    "InversionFailure", "KSState", "ModePair", "NoVacuum", "NonFinite",
    "PROFILES", "ParamSet", "RangeBreach", "RangeViolation",
    "SimulationResult", "SolverBreakdown",
    "VacuumApproach", "VacuumReport", "ValidationError",
    "amplitude_ratio", "bump_profile", "derivative_along",
    "dispersion_roots", "dxeta", "equilibrium_profile", "fit_exponential_rate",
    "ks_map_torus", "norms", "profile_field",
    "profile_line", "reconstruct_eulerian", "record_ep",
    "record_ks", "run_decay_fit", "run_epsilon_sweep", "run_single_ep",
    "run_single_ks", "run_spectrum_table", "run_vacuum_collapse",
    "semi_lagrangian_oracle", "sigma_along", "simulate_ep",
    "simulate_ep_rows", "simulate_ks", "trajectory_position",
    "vacuum_interval", "vacuum_ramp_profile", "validate_initial_data",
    "velocity_along",
]
