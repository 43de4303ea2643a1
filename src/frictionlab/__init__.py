"""frictionlab: a 1D numerical laboratory for the damped Euler-Poisson
system and its Keller-Segel aggregation limit.

The package couples three views of the same dynamics: a pseudo-spectral
solver for the stiff perturbation system, a solver for the limit
transport equation, and exact characteristic formulas for vacuum
profiles, plus dispersion analysis and an experiment/CLI layer.
"""

from .core import (
    EPState, Field, Grid, KSState, ParamSet, ValidationReport, mean,
    validate_initial_data,
)
from .errors import (
    Blowup, CflViolation, FrictionLabError, InversionFailure, NoVacuum,
    NonFinite, RangeBreach, RangeViolation, SolverBreakdown, VacuumApproach,
    ValidationError,
)
from .ksmap import ks_map_line, ks_map_torus
from .euler_poisson import (
    SimulationResult, reconstruct_u, simulate_ep, simulate_ep_rows, stable_dt,
    step_ep, step_ep_rows,
)
from .keller_segel import simulate_ks, stable_dt_ks, step_ks, step_ks_to
from .diagnostics import (
    DiagnosticsRecord, dissipation_total, energy_e0, energy_e1,
    fit_exponential_rate, norms, record_ep, record_ks,
)
from .spectrum import (
    DispersionQuery, ModePair, amplitude_ratio, dispersion_roots,
    slow_mode_fields,
)
from .profiles import (
    InitialProfile, PROFILES, bump_profile, equilibrium_profile,
    profile_field, profile_line, vacuum_ramp_profile,
)
from .characteristics import (
    TrajectoryBundle, VacuumReport, derivative_along, dxeta,
    reconstruct_eulerian, semi_lagrangian_oracle, sigma_along,
    trajectory_position, vacuum_interval, velocity_along,
)
from .experiments import (
    ExperimentSpec, run_decay_fit, run_epsilon_sweep, run_single_ep,
    run_single_ks, run_spectrum_table, run_vacuum_collapse,
)

__version__ = "0.1.0"

__all__ = [
    "Blowup", "CflViolation", "DiagnosticsRecord", "DispersionQuery", "EPState",
    "ExperimentSpec", "Field", "FrictionLabError", "Grid", "InitialProfile",
    "InversionFailure", "KSState", "ModePair", "NoVacuum", "NonFinite",
    "PROFILES", "ParamSet", "RangeBreach", "RangeViolation",
    "SimulationResult", "SolverBreakdown", "TrajectoryBundle",
    "VacuumApproach", "VacuumReport", "ValidationError", "ValidationReport",
    "amplitude_ratio", "bump_profile", "derivative_along",
    "dispersion_roots", "dissipation_total", "dxeta", "energy_e0",
    "energy_e1", "equilibrium_profile", "fit_exponential_rate",
    "ks_map_line", "ks_map_torus", "mean", "norms", "profile_field",
    "profile_line", "reconstruct_eulerian", "reconstruct_u", "record_ep",
    "record_ks", "run_decay_fit", "run_epsilon_sweep", "run_single_ep",
    "run_single_ks", "run_spectrum_table", "run_vacuum_collapse",
    "semi_lagrangian_oracle", "sigma_along", "simulate_ep",
    "simulate_ep_rows", "simulate_ks", "slow_mode_fields", "stable_dt",
    "stable_dt_ks", "step_ep", "step_ep_rows", "step_ks", "step_ks_to",
    "trajectory_position", "vacuum_interval", "vacuum_ramp_profile",
    "validate_initial_data", "velocity_along",
]
