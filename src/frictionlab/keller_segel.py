"""Eulerian integration of the limit system on the torus:

    d(sigma)/dtau = -d/dx(sigma * v),   v = -grad(-Delta)^{-1}(sigma - M),

the density row of the Euler-Poisson step: its Lawson RK3 core
(`euler_poisson._rk3`) with rate 0 is conservative RK3, the velocity
refreshed at every stage.  Near-vacuum states are refused (the
characteristic module handles vacuum exactly); positive data stays
positive on the tested horizons because each characteristic value moves
monotonically toward M.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MEAN_DEFECT_TOL, Field, KSState, ParamSet
from .diagnostics import record_ks
from .errors import MeanDefect, VacuumApproach
from .euler_poisson import (
    SimulationResult, _cfl_bound, _check_blowup, _checked_dt, _integrate,
    _rk3, _solo,
)
from .spectral import _symbols, inverse_gradient

VACUUM_FRACTION = 1e-6


@dataclass(frozen=True)
class KSStepReport:
    dt_used: float
    mass_defect: float
    min_sigma: float


def _flux_rhs(sigma: np.ndarray, p: ParamSet):
    """Right side -d/dx(sigma v) and max |v| for the CFL bound.

    Four FFT calls on the cached symbols of inverse_gradient, dealias and
    deriv: v from one round trip, then the dealiased flux is
    differentiated in the same spectrum it was masked in."""
    n = p.grid.n
    sym = _symbols(p.grid)
    v = -np.fft.irfft(np.fft.rfft(sigma - p.mass_level) * sym.inv_grad, n=n)
    fh = np.fft.rfft(sigma * v) * sym.keep
    return -np.fft.irfft(fh * sym.ik, n=n), float(np.max(np.abs(v)))


def step_ks(state: KSState, p: ParamSet, dt: float) -> tuple[KSState, KSStepReport]:
    """One conservative RK3 step (stage times 0, 1/3, 2/3)."""
    grid = p.grid
    M = p.mass_level
    s_n = state.sigma.values
    if float(s_n.min()) < VACUUM_FRACTION * M:
        raise VacuumApproach(
            f"min sigma = {s_n.min():.3e} below {VACUUM_FRACTION:g}*M; "
            "use the characteristic solver near vacuum")

    g1, v_max = _flux_rhs(s_n, p)
    _checked_dt(dt, _cfl_bound(p, v_max))
    u_new = _rk3(s_n[None, None], g1, lambda u: _flux_rhs(u[0, 0], p)[0],
                 [dt], ((0.0,),))
    (blowup,) = _check_blowup([state.time + dt], u_new)
    if blowup is not None:
        raise blowup
    s_new = u_new[0, 0]
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
    return min(_cfl_bound(p, vmax), 0.1 / p.mass_level)


def simulate_ks(sigma0: Field, p: ParamSet, sample_times) -> SimulationResult:
    """Sampled trajectory of the limit solver, mirroring simulate_ep."""
    defect = p.grid.integrate(sigma0.values - p.mass_level)
    if abs(defect) > MEAN_DEFECT_TOL * p.grid.measure:
        raise MeanDefect(f"sigma0 mass defect {defect:.3e}")
    state = KSState(sigma=Field(p.grid, sigma0.values, tag="density"), time=0.0)
    (result,) = _integrate([state], _solo(lambda s, dt: step_ks(s, p, dt),
                                          lambda s: stable_dt_ks(s, p)),
                           lambda _, s: record_ks(s, p), sample_times)
    return result
