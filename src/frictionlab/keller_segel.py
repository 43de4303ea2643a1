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
The closing pass takes min and max of the rows sigma and v in two
reductions: min sigma and max sigma for the guards, and
max |v| = max(max v, -min v) for the next step's CFL bound, which the
vacuum guard at the next step's start reads with min sigma.
Near-vacuum states are refused (the characteristic module handles
vacuum exactly); positive data stays positive on the tested horizons
because each characteristic value moves monotonically toward M.

The workspace rule of the Euler-Poisson step holds here too: a run is a
one-member batch (`_Work`), which holds its ParamSet, its clock, the
extrema its rows carry and a workspace made with it, whose two inverses
(`_Side`: the closing one and the later stages') and whose flux, slope
and RK3 stage buffers every step fills in place with out=; the Lawson
factors of rate 0 are Python floats.  `simulate_ks` makes the batch
once, advances it by `step_ks_to` and builds states at sample times
only.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .core import Field, KSState, ParamSet, mean_defect
from .errors import MeanDefect, VacuumApproach
from .euler_poisson import (
    SimulationResult, _blowup, _cfl_bound, _integrate, _lawson, _rk3,
    _transform, _with_records,
)
from .spectral import _Symbols, _symbols, irfft, rfft

VACUUM_FRACTION = 1e-6


class _Side(NamedTuple):
    """One inverse of the step and the flux slope of its rows, in buffers
    of the run's workspace (`_Work`): the closing inverse, whose input's
    head is the carried coefficients and whose output is the carried
    rows, or the later stages' inverse, whose input's head is the stage
    rows."""

    spectra: np.ndarray     # 2 x 1 x (n/2 + 1): (sigma - M, v)^, the input
    head: np.ndarray        # spectra[:1], the coefficients of sigma - M
    sh: np.ndarray          # spectra[0]
    vh: np.ndarray          # spectra[1]
    rows: np.ndarray        # 2 x 1 x n: (sigma, v), the output
    sigma: np.ndarray       # rows[:1]
    v: np.ndarray           # rows[1:]
    flux: np.ndarray        # 1 x 1 x n: sigma v, shared by both sides
    g: np.ndarray           # 1 x 1 x (n/2 + 1): the slope of the rows
    p: ParamSet
    sym: _Symbols           # the grid's cached symbols


class _Work:
    """A Keller-Segel run as a one-member batch, as `_integrate` steps it:
    its ParamSet p, its clock (times) and the extrema its rows carry to
    the next step (extrema: min sigma and max |v| of its last closing
    pass), and its workspace: every array its steps write and every view
    of them that a step reads, made with it, as for an Euler-Poisson
    batch.  u and uh are the rows and coefficients the run carries from
    step to step."""

    def __init__(self, p: ParamSet):
        self.p, self.times, self.extrema = p, [], []
        n = p.grid.n
        shape = (1, 1, n // 2 + 1)
        flux, sym = np.empty((1, 1, n)), _symbols(p.grid)

        def side():
            spectra = np.empty((2,) + shape[1:], dtype=complex)
            rows = np.empty((2, 1, n))
            return _Side(spectra, spectra[:1], spectra[0], spectra[1], rows,
                         rows[:1], rows[1:], flux,
                         np.empty(shape, dtype=complex), p, sym)

        # the closing inverse (its slope is the first stage's) and the
        # later stages' inverse
        self.carried, self.stage = side(), side()
        self.u, self.uh = self.carried.rows, self.carried.head
        self.e3g1 = np.empty(shape, dtype=complex)
        self.low, self.high = np.empty((2, 1)), np.empty((2, 1))


def _inverse(side: _Side) -> _Side:
    """The rows (sigma, v) of side, from one batched inverse of the
    coefficients of sigma - M at its input's head and of v's, written
    after them on the cached symbol -i/k (minus inverse_gradient's)."""
    np.multiply(side.sh, side.sym.neg_inv_grad, out=side.vh)
    irfft(side.spectra, side.p.grid.n, out=side.rows)
    np.add(side.sigma, side.p.mass_level, out=side.sigma)
    return side


def _flux_rhs(side: _Side) -> np.ndarray:
    """Slope -ik (sigma v)^ of the rfft coefficients of sigma - M, the flux
    dealiased, from the rows (sigma, v) of side, into its slope buffer:
    one forward transform of the flux, dealiased and differentiated in
    one product with the cached -ik keep."""
    np.multiply(side.sigma, side.v, out=side.flux)
    g = rfft(side.flux, out=side.g)
    g *= side.sym.neg_ik_keep
    return g


def _extrema(work: _Work) -> tuple:
    """The closing pass over the carried rows (sigma, v), two reductions:
    min sigma, max sigma and max |v| = max(max v, -min v), which is NaN
    when v holds a NaN, as Python floats."""
    ((low,), (low_v,)) = np.minimum.reduce(work.u, axis=-1,
                                           out=work.low).tolist()
    ((high,), (high_v,)) = np.maximum.reduce(work.u, axis=-1,
                                             out=work.high).tolist()
    return low, high, max(high_v, -low_v)


def _rows_of(state: KSState, p: ParamSet) -> _Work:
    """The one-member batch of a state: its samples and clock, and the
    velocity row a first stage reads."""
    work = _Work(p)
    carried = work.carried
    _transform([state], ("sigma",), p.mass_level, carried.sigma,
               carried.head)
    np.multiply(carried.sh, carried.sym.neg_inv_grad, out=carried.vh)
    irfft(carried.spectra[1:], p.grid.n, out=carried.v)
    low, _, v_max = _extrema(work)
    work.times, work.extrema = [state.time], [(low, v_max)]
    return work


def step_ks_to(work: _Work, target: float):
    """One conservative RK3 step (stage times 0, 1/3, 2/3) toward `target`
    of the one-member batch work, in place, of dt = min(CFL bound, 0.1/M,
    target - t), the bound from the max |v| its rows carry and capped
    because v vanishes at equilibrium: the step of `simulate_ks`.
    Returns None or the SolverBreakdown that stops it; data at the vacuum
    guard is refused before the step."""
    if not work.times[0] < target:
        raise ValueError("the state must be behind the target time")
    p = work.p
    M = p.mass_level
    ((low, v_max),) = work.extrema
    if low < VACUUM_FRACTION * M:
        return VacuumApproach(
            f"min sigma = {low:.3e} below {VACUUM_FRACTION:g}*M; "
            "use the characteristic solver near vacuum")

    carried, stage = work.carried, work.stage
    dt = min(_cfl_bound(p, v_max), 0.1 / M, target - work.times[0])
    _rk3(carried.head, _flux_rhs(carried),
         lambda: _flux_rhs(_inverse(stage)), _lawson(0.0, dt), stage.head,
         work.e3g1)
    _inverse(carried)
    time = work.times[0] + dt
    low, high, v_max = _extrema(work)
    work.times, work.extrema = [time], [(low, v_max)]
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
    each sample pairs its state with None; otherwise the records are
    attached after the run, from stacked passes over its samples
    (`euler_poisson._with_records`), a run that broke down included."""
    if sigma0.grid != p.grid:
        raise ValueError("initial fields must live on the parameter grid")
    defect = mean_defect(p.grid, sigma0.values, p.mass_level)
    if defect is not None:
        raise MeanDefect(f"sigma0 mass defect {defect:.3e}")

    def state_at(u, time):
        return KSState(sigma=Field(p.grid, u[0].copy(), tag="density"),
                       time=time)

    # _integrate passes a list of targets, one per member; step_ks_to
    # takes the one target of its one-member run
    results = _integrate(
        _rows_of(KSState(sigma=Field(p.grid, sigma0.values, tag="density")), p),
        lambda work, targets: [step_ks_to(work, targets[0])], state_at,
        sample_times)
    (result,) = _with_records(results, (p,)) if records else results
    return result
