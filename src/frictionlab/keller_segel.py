"""Eulerian integration of the limit system on the torus:

    d(sigma)/dtau = -d/dx(sigma * v),   v = -grad(-Delta)^{-1}(sigma - M),

conservative spectral RK3 with the velocity refreshed at every stage.
Near-vacuum states are refused (the characteristic module handles vacuum
exactly); positive data stays positive on the tested horizons because each
characteristic value moves monotonically toward M.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MEAN_DEFECT_TOL, Field, KSState, ParamSet
from .diagnostics import record_ks
from .errors import CflViolation, MeanDefect, VacuumApproach
from .euler_poisson import SimulationResult, _check_blowup, _integrate
from .spectral import dealias, deriv, inverse_gradient

VACUUM_FRACTION = 1e-6


@dataclass(frozen=True)
class KSStepReport:
    dt_used: float
    mass_defect: float
    min_sigma: float


def _flux_rhs(sigma: np.ndarray, p: ParamSet):
    vel = -inverse_gradient(sigma - p.mass_level, p.grid)[0]
    flux = dealias(sigma * vel, p.grid)
    return -deriv(flux, p.grid), float(np.max(np.abs(vel)))


def step_ks(state: KSState, p: ParamSet, dt: float) -> tuple[KSState, KSStepReport]:
    """One conservative RK3 step (stage times 0, 1/3, 2/3)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    grid = p.grid
    M = p.mass_level
    s_n = state.sigma.values
    if float(s_n.min()) < VACUUM_FRACTION * M:
        raise VacuumApproach(
            f"min sigma = {s_n.min():.3e} below {VACUUM_FRACTION:g}*M; "
            "use the characteristic solver near vacuum")

    g1, vmax = _flux_rhs(s_n, p)
    bound = p.dt_cfl * grid.h / vmax if vmax > 0.0 else math.inf
    if dt > bound * (1.0 + 1e-9):
        raise CflViolation(f"dt = {dt:.3e} exceeds the stability bound {bound:.3e}")

    s_b = s_n + (dt / 3.0) * g1
    g2, _ = _flux_rhs(s_b, p)
    s_c = s_n + (2.0 * dt / 3.0) * g2
    g3, _ = _flux_rhs(s_c, p)
    s_new = s_n + (dt / 4.0) * (g1 + 3.0 * g3)

    _check_blowup(state.time + dt, s_new)
    min_sigma = float(s_new.min())
    if min_sigma < VACUUM_FRACTION * M:
        raise VacuumApproach(
            f"min sigma = {min_sigma:.3e} reached the vacuum guard")

    mass_defect = grid.h * float(np.sum(s_new) - np.sum(s_n))
    new_state = KSState(sigma=Field(grid, s_new, tag="density"),
                        time=state.time + dt)
    return new_state, KSStepReport(dt_used=dt, mass_defect=mass_defect,
                                   min_sigma=min_sigma)


def stable_dt_ks(state: KSState, p: ParamSet) -> float:
    vel = inverse_gradient(state.sigma.values - p.mass_level, p.grid)[0]
    vmax = float(np.max(np.abs(vel)))
    bound = p.dt_cfl * p.grid.h / vmax if vmax > 0.0 else math.inf
    return min(bound, 0.1 / p.mass_level)


def simulate_ks(sigma0: Field, p: ParamSet, sample_times) -> SimulationResult:
    """Sampled trajectory of the limit solver, mirroring simulate_ep."""
    defect = p.grid.integrate(sigma0.values - p.mass_level)
    if abs(defect) > MEAN_DEFECT_TOL * p.grid.measure:
        raise MeanDefect(f"sigma0 mass defect {defect:.3e}")
    state = KSState(sigma=Field(p.grid, sigma0.values, tag="density"), time=0.0)
    return _integrate(state, lambda s, dt: step_ks(s, p, dt),
                      lambda s: stable_dt_ks(s, p), lambda s: record_ks(s, p),
                      sample_times)
