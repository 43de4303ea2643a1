"""Eulerian integration of the limit system on the torus:

    d(sigma)/dtau = -d/dx(sigma * v),   v = -grad(-Delta)^{-1}(sigma - M),

the density row of the Euler-Poisson step: its Lawson RK3 core
(`euler_poisson._rk3`) with rate 0 is conservative RK3, the velocity
refreshed at every stage.  As there, the step runs on the rfft
coefficients of sigma - M, with 8 FFT calls: one forward transform of
the state, two per stage (`_flux_rhs`) and one inverse of the new state.
Near-vacuum states are refused (the characteristic module handles
vacuum exactly); positive data stays positive on the tested horizons
because each characteristic value moves monotonically toward M.  `simulate_ks` advances by `step_ks_to`, which
picks dt from its own first stage; `step_ks` is the fixed-dt step for
callers that choose dt, and `stable_dt_ks` a helper that gives them it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MEAN_DEFECT_TOL, Field, KSState, ParamSet
from .diagnostics import record_ks
from .errors import MeanDefect, SolverBreakdown, VacuumApproach
from .euler_poisson import (
    SimulationResult, _cfl_bound, _check_blowup, _checked_dt, _integrate,
    _rk3,
)
from .spectral import _symbols

VACUUM_FRACTION = 1e-6


@dataclass(frozen=True)
class KSStepReport:
    dt_used: float
    mass_defect: float
    min_sigma: float


def _flux_rhs(sigma, sh: np.ndarray, p: ParamSet):
    """Slope -ik (sigma v)^ of the rfft coefficients sh of sigma - M, the
    flux dealiased, and max |v| for the CFL bound.  sigma holds the
    samples where the caller has them (the first stage), else None.

    Two FFT calls on the cached symbols of inverse_gradient and of the
    dealiased derivative: v (and sigma - M when sigma is None) from one
    batched inverse, then the flux forward, dealiased and differentiated
    in one product with -ik keep."""
    n = p.grid.n
    sym = _symbols(p.grid)
    if sigma is None:
        source, grad_inv = np.fft.irfft(np.array((sh, sh * sym.inv_grad)), n=n)
        sigma = source + p.mass_level
    else:
        grad_inv = np.fft.irfft(sh * sym.inv_grad, n=n)
    v = -grad_inv
    return np.fft.rfft(sigma * v) * sym.neg_ik_keep, float(np.max(np.abs(v)))


def _step_ks(state: KSState, p: ParamSet, dt_for):
    """One conservative RK3 step (stage times 0, 1/3, 2/3) of dt = dt_for(CFL
    bound of stage 1): (KSState, KSStepReport) or the SolverBreakdown."""
    M = p.mass_level
    s_n = state.sigma.values
    if float(s_n.min()) < VACUUM_FRACTION * M:
        return VacuumApproach(
            f"min sigma = {s_n.min():.3e} below {VACUUM_FRACTION:g}*M; "
            "use the characteristic solver near vacuum")

    sh_n = np.fft.rfft(s_n - M)
    g1, v_max = _flux_rhs(s_n, sh_n, p)
    dt = dt_for(_cfl_bound(p, v_max))
    u_new = np.fft.irfft(_rk3(sh_n[None, None], g1,
                              lambda u: _flux_rhs(None, u, p)[0],
                              [dt], ((0.0,),)), n=p.grid.n)
    u_new += M
    (blowup,) = _check_blowup([state.time + dt], u_new)
    if blowup is not None:
        return blowup
    s_new = u_new[0, 0]
    min_sigma = float(s_new.min())
    if min_sigma < VACUUM_FRACTION * M:
        return VacuumApproach(
            f"min sigma = {min_sigma:.3e} reached the vacuum guard")

    mass_defect = p.grid.h * float(np.sum(s_new) - np.sum(s_n))
    # _check_blowup and the vacuum guard have scanned s_new
    new_state = KSState(sigma=Field._trusted(p.grid, s_new, tag="density"),
                        time=state.time + dt)
    return new_state, KSStepReport(dt_used=dt, mass_defect=mass_defect,
                                   min_sigma=min_sigma)


def _capped(p: ParamSet, bound: float) -> float:
    """A CFL bound capped at 0.1/M: v vanishes at equilibrium."""
    return min(bound, 0.1 / p.mass_level)


def step_ks(state: KSState, p: ParamSet, dt: float) -> tuple[KSState, KSStepReport]:
    """One step of size dt; raises its breakdown, or CflViolation."""
    out = _step_ks(state, p, lambda bound: _checked_dt(dt, bound))
    if isinstance(out, SolverBreakdown):
        raise out
    return out


def step_ks_to(state: KSState, p: ParamSet, target: float):
    """One step toward `target` of dt = min(stable_dt_ks, target - t), the
    bound from its first stage; returns the step_ks pair or the breakdown."""
    if not state.time < target:
        raise ValueError("the state must be behind the target time")
    return _step_ks(state, p,
                    lambda bound: min(_capped(p, bound), target - state.time))


def stable_dt_ks(state: KSState, p: ParamSet) -> float:
    """The step bound step_ks_to takes: the CFL bound, capped at 0.1/M."""
    sigma = state.sigma.values
    sh = np.fft.rfft(sigma - p.mass_level)
    return _capped(p, _cfl_bound(p, _flux_rhs(sigma, sh, p)[1]))


def simulate_ks(sigma0: Field, p: ParamSet, sample_times,
                records: bool = True) -> SimulationResult:
    """Sampled trajectory of the limit solver, advanced by step_ks_to.
    With records False no diagnostics are computed: each sample pairs its
    state with None."""
    if sigma0.grid != p.grid:
        raise ValueError("initial fields must live on the parameter grid")
    defect = p.grid.integrate(sigma0.values - p.mass_level)
    if abs(defect) > MEAN_DEFECT_TOL * p.grid.measure:
        raise MeanDefect(f"sigma0 mass defect {defect:.3e}")
    state = KSState(sigma=Field(p.grid, sigma0.values, tag="density"), time=0.0)
    # step_ks_to is looked up per call, so the benchmark tracer sees it
    (result,) = _integrate(
        [state], lambda _rows, states, target: [step_ks_to(states[0], p, target)],
        (lambda _, s: record_ks(s, p)) if records else None, sample_times)
    return result
