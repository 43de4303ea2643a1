"""Eulerian integration of the limit system on the torus:

    d(sigma)/dtau = -d/dx(sigma * v),   v = -grad(-Delta)^{-1}(sigma - M),

the density row of the Euler-Poisson step: its Lawson RK3 core
(`euler_poisson._rk3`) with rate 0 is conservative RK3, the velocity
refreshed at every stage.  As there, the step runs on the rfft
coefficients of sigma - M and starts from the ones the previous step
left, with 7 FFT calls on 9 rows: two per stage (`_flux_rhs`) and one
inverse of the new coefficients.
Near-vacuum states are refused (the characteristic module handles
vacuum exactly); positive data stays positive on the tested horizons
because each characteristic value moves monotonically toward M.
`simulate_ks` keeps its rows between steps (`euler_poisson.Rows`),
advances them by `step_ks_to`, which picks dt from its own first stage,
and builds states at sample times only.
"""
from __future__ import annotations

import numpy as np

from .core import MEAN_DEFECT_TOL, Field, KSState, ParamSet
from .diagnostics import record_ks
from .errors import MeanDefect, VacuumApproach
from .euler_poisson import (
    Rows, SimulationResult, _cfl_bound, _check_blowup, _integrate, _rk3,
    _rows_of,
)
from .spectral import _symbols

VACUUM_FRACTION = 1e-6


def _flux_rhs(sigma, sh: np.ndarray, p: ParamSet):
    """Slope -ik (sigma v)^ of the rfft coefficients sh of sigma - M, the
    flux dealiased, and the velocity v.  sigma holds the samples where the
    caller has them (the first stage), else None.

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
    return np.fft.rfft(sigma * v) * sym.neg_ik_keep, v


def step_ks_to(rows: Rows, target: float):
    """One conservative RK3 step (stage times 0, 1/3, 2/3) toward `target`
    of the one-member batch rows, in place, of dt = min(CFL bound, 0.1/M,
    target - t), the bound from its first stage and capped because v
    vanishes at equilibrium: the driver's step.  Returns None or the
    SolverBreakdown that stops it."""
    if not rows.times[0] < target:
        raise ValueError("the state must be behind the target time")
    p = rows.ps[0]
    M = p.mass_level
    s_n = rows.u[0, 0]
    if float(s_n.min()) < VACUUM_FRACTION * M:
        return VacuumApproach(
            f"min sigma = {s_n.min():.3e} below {VACUUM_FRACTION:g}*M; "
            "use the characteristic solver near vacuum")

    g1, v = _flux_rhs(s_n, rows.uh, p)
    dt = min(_cfl_bound(p, float(np.max(np.abs(v)))), 0.1 / M,
             target - rows.times[0])
    uh = _rk3(rows.uh, g1, lambda u: _flux_rhs(None, u, p)[0], [dt], ((0.0,),))
    u = np.fft.irfft(uh, n=p.grid.n)
    u += M
    time = rows.times[0] + dt
    rows.u, rows.uh, rows.times = u, uh, [time]
    (blowup,) = _check_blowup([time], u)
    if blowup is not None:
        return blowup
    min_sigma = float(u.min())
    if min_sigma < VACUUM_FRACTION * M:
        return VacuumApproach(
            f"min sigma = {min_sigma:.3e} reached the vacuum guard")
    return None


def simulate_ks(sigma0: Field, p: ParamSet, sample_times,
                records: bool = True) -> SimulationResult:
    """Sampled trajectory of the limit solver, advanced by step_ks_to: the
    initial row is transformed once, then the run carries its rows from
    step to step and builds states at sample times only.  With records
    False no diagnostics are computed: each sample pairs its state with
    None."""
    if sigma0.grid != p.grid:
        raise ValueError("initial fields must live on the parameter grid")
    defect = p.grid.integrate(sigma0.values - p.mass_level)
    if abs(defect) > MEAN_DEFECT_TOL * p.grid.measure:
        raise MeanDefect(f"sigma0 mass defect {defect:.3e}")

    def state_at(u, time):
        return KSState(sigma=Field(p.grid, u[0], tag="density"), time=time)

    # step_ks_to is looked up per call, so the benchmark tracer sees it
    (result,) = _integrate(
        _rows_of([KSState(sigma=Field(p.grid, sigma0.values, tag="density"))],
                 (p,), ("sigma",)),
        lambda rows, target: [step_ks_to(rows, target)], state_at,
        (lambda _, s: record_ks(s, p)) if records else None, sample_times)
    return result
