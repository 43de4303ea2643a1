"""Experiment recipes: epsilon sweeps, vacuum collapse, decay fits,
dispersion tables.

Each runner consumes an ExperimentSpec, returns a TableResult and (when
an output directory is configured) writes one deterministic CSV per
experiment.  Every EP or KS step picks its own dt.  Sweep members
advance together as rows of one batched EP step, each with its own dt
and clock, so its trajectory is bit-identical to a separate, one-member
run.
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .core import Field, Grid, KSState, ParamSet
from .diagnostics import DiagnosticsRecord, fit_exponential_rate, h2_norm
from .errors import InsufficientSamples, NonPositiveSample
from .euler_poisson import simulate_ep, simulate_ep_rows
from .keller_segel import simulate_ks
from .characteristics import (
    density_at, edge_derivative_along, edge_growth, reconstruct_eulerian,
    vacuum_interval,
)
from .profiles import PROFILES, InitialProfile, profile_field, profile_line
from .spectrum import DispersionQuery, dispersion_roots
from .io import write_csv

KINDS = ("single-run", "epsilon-sweep", "vacuum-collapse",
         "decay-fit", "spectrum-table")
DEFAULT_WAVENUMBERS = (0.0, 0.5, 1.0, 2.0, 4.0)
ZERO_SIGNAL_FLOOR = 1e-13     # below this, deviations count as machine zero
VACUUM_SIGMA_CUTOFF = 1e-9    # reconstruction cells at/below cutoff*M -> vacuum
FD_WINDOW_SCALE = 0.02        # edge finite-difference window at tau = 0, / (b0 - a0)
FD_TAU_MAX = 3.0              # no finite-difference check past this tau
FD_NODES = 2048               # nodes of the edge finite-difference window


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment run."""

    kind: str
    params: ParamSet
    epsilon_list: tuple = ()
    profile: str = "cosine"
    profile_args: dict = field(default_factory=dict)
    output_dir: Optional[Path] = None
    wavenumbers: tuple = DEFAULT_WAVENUMBERS

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}; "
                             f"choose from {KINDS}")
        if self.profile not in PROFILES:
            raise KeyError(f"unknown profile {self.profile!r}; "
                           f"choose from {sorted(PROFILES)}")
        eps = tuple(float(e) for e in self.epsilon_list)
        if any(not (0.0 < e < 1.0) for e in eps):
            raise ValueError("every epsilon must lie in (0, 1)")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("epsilon_list must be strictly decreasing")
        object.__setattr__(self, "epsilon_list", eps)
        if self.output_dir is not None:
            object.__setattr__(self, "output_dir", Path(self.output_dir))

    @property
    def epsilons(self) -> tuple:
        return self.epsilon_list or (self.params.epsilon,)


def _initial_field(spec: ExperimentSpec) -> Field:
    return profile_field(spec.profile, spec.params.grid,
                         spec.params.mass_level, **spec.profile_args)


def _sample_times(t_end: float, n: int = 21) -> np.ndarray:
    return np.linspace(0.0, t_end, n)


def _write_table(spec: ExperimentSpec, name: str, header, rows):
    """The CSV `name` in the spec's output directory, or None without one."""
    if spec.output_dir is None:
        return None
    return write_csv(spec.output_dir / name, header, rows)


def _row_table(spec: ExperimentSpec, name: str, row_type, rows):
    """Dataclass rows as the CSV `name`, one column per field of row_type."""
    return _write_table(spec, name, [f.name for f in fields(row_type)],
                        map(astuple, rows))


def _record_table(spec: ExperimentSpec, result, initial: Field, name: str):
    """A run's diagnostics records as the CSV `name`, each row's mass as
    its drift from the initial field's."""
    mass0 = spec.params.grid.integrate(initial.values)
    return _write_table(spec, name, DiagnosticsRecord.CSV_COLUMNS,
                        (rec.csv_row(mass0) for _, rec in result.samples))


@dataclass(frozen=True)
class TableResult:
    """A table's rows, its named pass/fail checks, the statuses of the runs
    or fits in it that broke down, its CSV (None without an output
    directory) and, for the vacuum collapse, the limit point."""

    rows: tuple
    verdicts: dict
    failures: tuple = ()
    csv_path: Optional[Path] = None
    limit_point: Optional[float] = None

    @property
    def verdict_ok(self) -> bool:
        return not self.failures and all(self.verdicts.values())

    @property
    def monotone_decreasing(self) -> bool:
        """The sweep's verdict that its errors strictly decrease."""
        return self.verdicts["monotone_decreasing"]


# --------------------------------------------------------------------------
# single runs (CLI plumbing around simulate_ep / simulate_ks)

def run_single_ep(spec: ExperimentSpec, rho0: Optional[Field] = None,
                  n_samples: int = 21):
    """EP run from well-prepared data (w0 = 0)."""
    p = spec.params
    if rho0 is None:
        rho0 = _initial_field(spec)
    w0 = Field(p.grid, np.zeros(p.grid.n))
    result = simulate_ep(rho0, w0, p, _sample_times(p.t_end, n_samples))
    return result, _record_table(spec, result, rho0, "ep_run.csv")


def run_single_ks(spec: ExperimentSpec, sigma0: Optional[Field] = None,
                  n_samples: int = 21):
    p = spec.params
    if sigma0 is None:
        sigma0 = _initial_field(spec)
    result = simulate_ks(sigma0, p, _sample_times(p.t_end, n_samples))
    return result, _record_table(spec, result, sigma0, "ks_run.csv")


# --------------------------------------------------------------------------
# epsilon sweep against the shared Keller-Segel reference

@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    sup_l2_error: float      # sup over sampled tau of ||rho_eps - sigma||_L2
    h2_error_final: float    # discrete-H2 gap at tau = T
    sup_w_l2: float          # sup over sampled tau of ||w||_L2
    status: str


def _sweep_member(result, p: ParamSet, sigma_samples: list) -> SweepRow:
    """One member's row of the sweep table, from its EP run."""
    if not result.ok:
        return SweepRow(p.epsilon, math.nan, math.nan, math.nan,
                        result.status)
    grid = p.grid
    sup_l2 = 0.0
    sup_w = 0.0
    diff_final = None
    for (state, _), sigma in zip(result.samples, sigma_samples):
        diff = state.rho.values - sigma
        sup_l2 = max(sup_l2, math.sqrt(grid.integrate(diff * diff)))
        w = state.w.values
        sup_w = max(sup_w, math.sqrt(grid.integrate(w * w)))
        diff_final = diff
    h2_final = h2_norm(Field(grid, diff_final))
    return SweepRow(p.epsilon, sup_l2, h2_final, sup_w, "ok")


def run_epsilon_sweep(spec: ExperimentSpec) -> TableResult:
    """EP runs over the epsilon list against one shared KS reference.

    The members are stepped together (simulate_ep_rows), each with its own
    dt and clock, so every row equals that of a separate simulate_ep run.
    The reference density is integrated once (with a halved CFL number so
    its time error sits below every member's) and reused for every row;
    the limit object does not depend on epsilon.  Data are well-prepared
    (w0 = 0).  The table needs the sampled states alone, so neither run
    computes diagnostics records.  A member that broke down is a failure,
    and left out of the monotone_decreasing verdict.
    """
    p = spec.params
    rho0 = _initial_field(spec)
    w0 = Field(p.grid, np.zeros(p.grid.n))
    times = _sample_times(p.t_end)
    reference = simulate_ks(rho0, p.replace(dt_cfl=0.5 * p.dt_cfl), times,
                            records=False)
    reference.raise_if_failed()
    sigma_samples = [state.sigma.values for state, _ in reference.samples]

    members = [p.replace(epsilon=e) for e in spec.epsilons]
    results = simulate_ep_rows(rho0, w0, members, times, records=False)
    rows = tuple(_sweep_member(result, pe, sigma_samples)
                 for result, pe in zip(results, members))

    ok_errors = [r.sup_l2_error for r in rows if r.status == "ok"]
    monotone = all(b < a for a, b in zip(ok_errors, ok_errors[1:]))
    return TableResult(
        rows, {"monotone_decreasing": monotone},
        tuple(r.status for r in rows if r.status != "ok"),
        _row_table(spec, "sweep.csv", SweepRow, rows))


# --------------------------------------------------------------------------
# vacuum collapse

@dataclass(frozen=True)
class VacuumRow:
    tau: float
    a: float
    b: float
    length: float            # closed-form (b0 - a0) e^{-M tau}
    length_measured: float   # from Eulerian reconstruction, zero-cell count
    deriv_along: float       # order-`touch` derivative at the right edge
    growth_factor: float     # deriv_along(tau) / deriv_along(0)
    factor_predicted: float  # e^{(touch+1) M tau}
    fd_estimate: float       # windowed finite difference on reconstruction
    fd_rel_gap: float


def measured_vacuum_length(state: KSState, M: float) -> float:
    """Length of the contiguous zero-density block of a reconstructed
    field: (last_zero - first_zero) + h, or 0 when no cell is at vacuum."""
    sigma = state.sigma.values
    x = state.sigma.grid.x
    zero = np.flatnonzero(sigma <= VACUUM_SIGMA_CUTOFF * M)
    if zero.size == 0:
        return 0.0
    return float(x[zero[-1]] - x[zero[0]] + state.sigma.grid.h)


def _edge_derivatives_fd(prof: InitialProfile, taus, edges,
                         order: int) -> list:
    """One-sided forward difference of order `order` at the right vacuum
    edge at each of taus (all <= FD_TAU_MAX), given its image b at each, on
    the density reconstructed over a window of FD_NODES nodes from b, from
    one stacked inversion of the stencils.  The window shrinks like
    e^{-2 M tau}: the sharpening front squeezes the region where the edge
    power law dominates, so a fixed window would average over the
    saturated profile and miss the growth; past FD_TAU_MAX it is too thin
    for its grid."""
    if not taus:
        return []
    (a0, b0) = prof.vacuum_set[0]
    grids = [Grid.line(b, b + FD_WINDOW_SCALE * (b0 - a0)
                       * math.exp(-2.0 * prof.M * tau), FD_NODES)
             for tau, b in zip(taus, edges)]
    # the stencil reads the first order + 1 nodes: invert only those
    stencils = density_at(np.stack([grid.x[:order + 1] for grid in grids]),
                          taus, prof)
    differences = np.diff(stencils, n=order, axis=1)[:, 0]
    return [float(d / grid.h ** order) for d, grid in zip(differences, grids)]


def run_vacuum_collapse(spec: ExperimentSpec,
                        taus=None, n_grid: int = 2048) -> TableResult:
    """Vacuum-interval collapse along the exact characteristic flow.

    Closed-form interval length and edge-derivative growth are tabulated
    against their exponential laws; the Eulerian reconstruction re-measures
    the gap on an N-cell grid and a windowed finite difference re-measures
    the edge derivative (skipped past FD_TAU_MAX where the front is too
    sharp for the 5% check to be meaningful at this resolution).  The
    reconstructions are stacked inversions of the grid at several taus,
    and the finite-difference stencils one stacked inversion; each value
    equals its per-tau computation bit for bit.
    Raises ValueError for an empty taus or a NaN or negative tau in it.
    """
    if taus is None:
        taus = np.arange(0.0, 5.0 + 1e-12, 0.5)
    if len(taus) == 0 or any(math.isnan(t) or t < 0.0 for t in taus):
        raise ValueError(f"taus must be a nonempty list of tau >= 0, got {taus}")
    M = spec.params.mass_level
    prof = profile_line(spec.profile, M, **spec.profile_args)
    taus = [float(tau) for tau in taus]
    reps = vacuum_interval(taus, prof)   # raises NoVacuum first
    (a0, b0) = prof.vacuum_set[0]
    touch = len(prof.edge_jet)
    deriv0 = edge_derivative_along(touch, 0.0, prof)
    full_grid = Grid.line(prof.domain[0], prof.domain[1], n_grid)
    states = reconstruct_eulerian(taus, prof, full_grid)
    checked = [i for i, tau in enumerate(taus) if tau <= FD_TAU_MAX]
    fds = dict(zip(checked, _edge_derivatives_fd(
        prof, [taus[i] for i in checked], [reps[i].b for i in checked],
        touch)))
    rows = []
    for i, (tau, rep, state) in enumerate(zip(taus, reps, states)):
        d_tau = edge_derivative_along(touch, tau, prof)
        fd = fds.get(i, math.nan)
        rows.append(VacuumRow(
            tau=tau, a=rep.a, b=rep.b, length=rep.length,
            length_measured=measured_vacuum_length(state, M),
            deriv_along=d_tau, growth_factor=d_tau / deriv0,
            factor_predicted=edge_growth(touch, tau, M),
            fd_estimate=fd, fd_rel_gap=abs(fd - d_tau) / abs(d_tau)))

    h = full_grid.h
    verdicts = {
        "length_law": all(
            abs(r.length - (b0 - a0) * math.exp(-M * r.tau))
            <= 1e-12 * (b0 - a0) for r in rows),
        "length_measured": all(
            abs(r.length_measured - r.length) <= h for r in rows),
        # equal values pass first: at tau = inf both are inf, and
        # inf - inf is NaN
        "growth_law": all(
            r.growth_factor == r.factor_predicted
            or abs(r.growth_factor - r.factor_predicted)
            <= 1e-12 * r.factor_predicted for r in rows),
        "fd_agreement": all(
            r.fd_rel_gap <= 0.05 for r in rows if math.isfinite(r.fd_rel_gap)),
    }
    return TableResult(tuple(rows), verdicts,
                       csv_path=_row_table(spec, "vacuum.csv", VacuumRow, rows),
                       limit_point=reps[0].limit_point)


# --------------------------------------------------------------------------
# decay-rate fits

@dataclass(frozen=True)
class RateFit:
    series: str
    rate: float
    r_squared: float
    status: str              # ok | zero-signal | <solver status>
    window_start: float


def _fit_series(name: str, series: list, window) -> RateFit:
    if max(y for _, y in series) < ZERO_SIGNAL_FLOOR:
        return RateFit(name, 0.0, 1.0, "zero-signal", window[0])
    try:
        rate, r2 = fit_exponential_rate(series, window)
    except (InsufficientSamples, NonPositiveSample) as err:
        return RateFit(name, math.nan, math.nan,
                       type(err).__name__, window[0])
    return RateFit(name, rate, r2, "ok", window[0])


def _run_fits(run, series, window) -> list:
    """The fit of each (name, record field) of `series` over a run's
    records; NaN fits with the run's status if it broke down."""
    if not run.ok:
        return [RateFit(name, math.nan, math.nan, run.status, window[0])
                for name, _ in series]
    return [_fit_series(name, [(rec.tau, getattr(rec, key))
                               for _, rec in run.samples], window)
            for name, key in series]


def run_decay_fit(spec: ExperimentSpec, n_samples: int = 51) -> TableResult:
    """Exponential-rate fits on the post-layer window.

    The EP run is fitted for e_total, the sup-norm deviation, and the
    L4 norm of the density gradient, skipping the initial layer of
    duration ~ eps^{2-alpha}; a companion KS run from the same profile is
    fitted for its sup-norm rate, which the logistic transport bounds
    from below by min{min sigma0, M}.  A fit whose status is neither ok
    nor zero-signal is a failure.
    """
    p = spec.params
    if not p.t_end > 0.0:
        raise ValueError(f"a decay fit needs t_end > 0, got t_end={p.t_end}")
    rho0 = _initial_field(spec)
    w0 = Field(p.grid, np.zeros(p.grid.n))
    times = _sample_times(p.t_end, n_samples)
    layer = 10.0 * p.epsilon ** (2.0 - p.alpha)
    window = (min(layer, 0.5 * p.t_end), p.t_end)

    fits = _run_fits(simulate_ep(rho0, w0, p, times),
                     [(key, key) for key in ("e_total", "sup_dev", "grad_l4")],
                     window)
    ks_window = (min(0.5, 0.5 * p.t_end), p.t_end)
    fits += _run_fits(simulate_ks(rho0, p, times),
                      [("ks_sup_dev", "sup_dev")], ks_window)

    sigma_min = float(rho0.values.min())
    ks_floor = 0.9 * min(sigma_min, p.mass_level)
    ks_fit = fits[-1]
    failures = tuple(f.status for f in fits
                     if f.status not in ("ok", "zero-signal"))
    verdicts = {
        "rates_positive": all(
            f.rate > 0.0 for f in fits[:-1] if f.status == "ok"),
        "no_failures": not failures,
        "ks_rate_floor": ks_fit.status != "ok" or ks_fit.rate >= ks_floor,
    }
    return TableResult(tuple(fits), verdicts, failures,
                       _row_table(spec, "decay.csv", RateFit, fits))


# --------------------------------------------------------------------------
# dispersion tables

SPECTRUM_COLUMNS = ("epsilon", "alpha", "gamma", "M", "k",
                    "re_lambda_slow", "im_lambda_slow",
                    "re_lambda_fast", "im_lambda_fast",
                    "amplitude_ratio_abs", "stable")


def run_spectrum_table(spec: ExperimentSpec) -> TableResult:
    p = spec.params
    rows = []
    for eps in spec.epsilons:
        for k in spec.wavenumbers:
            q = DispersionQuery(epsilon=eps, alpha=p.alpha, gamma=p.gamma,
                                M=p.mass_level, k=float(k))
            pair = dispersion_roots(q)
            ratio = abs(pair.amplitude_ratio)
            fast = pair.lambda_fast
            rows.append([eps, p.alpha, p.gamma, p.mass_level, float(k),
                         pair.lambda_slow.real, pair.lambda_slow.imag,
                         fast.real if fast is not None else math.nan,
                         fast.imag if fast is not None else math.nan,
                         ratio, pair.stable])
    return TableResult(tuple(tuple(r) for r in rows),
                       {"all_stable": all(stable for *_, stable in rows)},
                       csv_path=_write_table(spec, "spectrum.csv",
                                             SPECTRUM_COLUMNS, rows))
