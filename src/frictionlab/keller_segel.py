"""Eulerian integration of the limit system on the torus:

    d(sigma)/dtau = -d/dx(sigma * v),   v = -grad(-Delta)^{-1}(sigma - M),

the density row of the Euler-Poisson step: its Lawson RK3 core
(`euler_poisson._rk3`) with rate 0 is conservative RK3, the velocity
refreshed at every stage.  As there, the step runs on the rfft
coefficients of sigma - M and starts from the ones the previous step
left, and from the rows its closing inverse made (`_inverse`): sigma and
the velocity v, which the guards, the samples and the next first stage
read; v's symbol is -i/k, so the flux is the one product sigma*v.  So
the first stage makes one forward transform, each later stage an
inverse of those two rows and a forward (`_flux_rhs`), and the close one
inverse: 6 calls of the FFT seam (`spectral.rfft`/`irfft`) on 9 rows.
The closing guard pass takes min sigma and max sigma once; the vacuum
guard at the next step's start reads the minimum from there.
Near-vacuum states are refused (the characteristic module handles
vacuum exactly); positive data stays positive on the tested horizons
because each characteristic value moves monotonically toward M.
`simulate_ks` keeps its rows between steps (`euler_poisson.Rows`),
advances them by `step_ks_to`, which picks dt from its own first stage,
and builds states at sample times only.
"""
from __future__ import annotations

import numpy as np

from .core import Field, KSState, ParamSet, mean_defect
from .diagnostics import record_ks
from .errors import MeanDefect, VacuumApproach
from .euler_poisson import (
    Rows, SimulationResult, _blowup, _cfl_bound, _integrate, _rk3, _transform,
)
from .spectral import _symbols, irfft, rfft

VACUUM_FRACTION = 1e-6
_RATE = np.zeros((1, 1, 1))     # _rk3's linear rate: none
_RATE.setflags(write=False)


def _inverse(sh: np.ndarray, p: ParamSet) -> np.ndarray:
    """The rows (sigma, v), stacked 2 x 1 x n, from one batched inverse of
    the rfft coefficients sh of sigma - M (1 x 1 x (n/2 + 1)), v's on the
    cached symbol -i/k (minus inverse_gradient's)."""
    u = irfft(np.concatenate((sh, sh * _symbols(p.grid).neg_inv_grad)),
              p.grid.n)
    u[0] += p.mass_level
    return u


def _flux_rhs(u: np.ndarray, p: ParamSet) -> np.ndarray:
    """Slope -ik (sigma v)^ of the rfft coefficients of sigma - M, the flux
    dealiased, from the rows u = (sigma, v) of `_inverse`: one forward
    transform of the flux, dealiased and differentiated in one product
    with the cached -ik keep."""
    return rfft(u[:1] * u[1:]) * _symbols(p.grid).neg_ik_keep


def _rows_of(state: KSState, p: ParamSet) -> Rows:
    """The one-member batch of a state: its samples and the velocity row
    a first stage reads."""
    samples, sh = _transform([state], ("sigma",), p.mass_level)
    u = np.empty((2,) + samples.shape[1:])
    u[0] = samples[0]
    irfft(sh * _symbols(p.grid).neg_inv_grad, p.grid.n, out=u[1:])
    return Rows(u, sh, [state.time], (p,), [(float(samples.min()),)])


def step_ks_to(rows: Rows, target: float):
    """One conservative RK3 step (stage times 0, 1/3, 2/3) toward `target`
    of the one-member batch rows, in place, of dt = min(CFL bound, 0.1/M,
    target - t), the bound from its first stage and capped because v
    vanishes at equilibrium: the driver's step.  Returns None or the
    SolverBreakdown that stops it; data at the vacuum guard is refused
    before the step."""
    if not rows.times[0] < target:
        raise ValueError("the state must be behind the target time")
    p = rows.ps[0]
    M = p.mass_level
    ((low,),) = rows.extrema
    if low < VACUUM_FRACTION * M:
        return VacuumApproach(
            f"min sigma = {low:.3e} below {VACUUM_FRACTION:g}*M; "
            "use the characteristic solver near vacuum")

    u_n = rows.u
    g1 = _flux_rhs(u_n, p)
    dt = min(_cfl_bound(p, float(np.max(np.abs(u_n[1])))), 0.1 / M,
             target - rows.times[0])
    uh = _rk3(rows.uh, g1, lambda uh: _flux_rhs(_inverse(uh, p), p), [dt],
              _RATE)
    u = _inverse(uh, p)
    time = rows.times[0] + dt
    low, high = float(u[0].min()), float(u[0].max())
    rows.u, rows.uh, rows.times, rows.extrema = u, uh, [time], [(low,)]
    blowup = _blowup(time, low, high)
    if blowup is not None:
        return blowup
    if low < VACUUM_FRACTION * M:
        return VacuumApproach(
            f"min sigma = {low:.3e} reached the vacuum guard")
    return None


def simulate_ks(sigma0: Field, p: ParamSet, sample_times,
                records: bool = True) -> SimulationResult:
    """Sampled trajectory of the limit solver, advanced by step_ks_to: the
    initial row is transformed once and its velocity inverted once, then
    the run carries its rows from step to step and builds states at
    sample times only.  With records False no diagnostics are computed:
    each sample pairs its state with None."""
    if sigma0.grid != p.grid:
        raise ValueError("initial fields must live on the parameter grid")
    defect = mean_defect(p.grid, sigma0.values, p.mass_level)
    if defect is not None:
        raise MeanDefect(f"sigma0 mass defect {defect:.3e}")

    def state_at(u, time):
        return KSState(sigma=Field(p.grid, u[0].copy(), tag="density"),
                       time=time)

    # step_ks_to is looked up per call, so the benchmark tracer sees it
    (result,) = _integrate(
        _rows_of(KSState(sigma=Field(p.grid, sigma0.values, tag="density")), p),
        lambda rows, targets: [step_ks_to(rows, targets[0])], state_at,
        (lambda _, s: record_ks(s, p)) if records else None, sample_times)
    return result
