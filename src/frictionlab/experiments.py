"""Experiment recipes: epsilon sweeps, vacuum collapse, decay fits,
dispersion tables.

Each runner consumes an ExperimentSpec, returns a result object carrying
the table rows plus pass/fail verdicts, and (when an output directory is
configured) writes one deterministic CSV per experiment.  Every EP or KS
step picks its own dt.  Sweep members advance together as rows of one
batched EP step, each with its own dt and clock, so its trajectory is
bit-identical to a separate, one-member run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .core import Field, Grid, KSState, ParamSet
from .diagnostics import DiagnosticsRecord, fit_exponential_rate, norms
from .errors import InsufficientSamples, NonPositiveSample
from .euler_poisson import simulate_ep, simulate_ep_rows
from .keller_segel import simulate_ks
from .characteristics import (
    derivative_along, reconstruct_eulerian, vacuum_interval,
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
    path = None
    if spec.output_dir is not None:
        mass0 = p.grid.integrate(rho0.values)
        rows = [rec.csv_row(mass0) for _, rec in result.samples]
        path = write_csv(spec.output_dir / "ep_run.csv",
                         DiagnosticsRecord.CSV_COLUMNS, rows)
    return result, path


def run_single_ks(spec: ExperimentSpec, sigma0: Optional[Field] = None,
                  n_samples: int = 21):
    p = spec.params
    if sigma0 is None:
        sigma0 = _initial_field(spec)
    result = simulate_ks(sigma0, p, _sample_times(p.t_end, n_samples))
    path = None
    if spec.output_dir is not None:
        mass0 = p.grid.integrate(sigma0.values)
        rows = [rec.csv_row(mass0) for _, rec in result.samples]
        path = write_csv(spec.output_dir / "ks_run.csv",
                         DiagnosticsRecord.CSV_COLUMNS, rows)
    return result, path


# --------------------------------------------------------------------------
# epsilon sweep against the shared Keller-Segel reference

@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    sup_l2_error: float      # sup over sampled tau of ||rho_eps - sigma||_L2
    h2_error_final: float    # discrete-H2 gap at tau = T
    sup_w_l2: float          # sup over sampled tau of ||w||_L2
    status: str

    def as_list(self) -> list:
        return [self.epsilon, self.sup_l2_error, self.h2_error_final,
                self.sup_w_l2, self.status]


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    monotone_decreasing: bool
    csv_path: Optional[Path] = None

    SWEEP_COLUMNS = ("epsilon", "sup_l2_error", "h2_error_final",
                     "sup_w_l2", "status")

    @property
    def verdict_ok(self) -> bool:
        return self.monotone_decreasing and all(
            r.status == "ok" for r in self.rows)


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
    h2_final = norms(Field(grid, diff_final))["h2"]
    return SweepRow(p.epsilon, sup_l2, h2_final, sup_w, "ok")


def run_epsilon_sweep(spec: ExperimentSpec) -> SweepResult:
    """EP runs over the epsilon list against one shared KS reference.

    The members are stepped together (simulate_ep_rows), each with its own
    dt and clock, so every row equals that of a separate simulate_ep run.
    The reference density is integrated once (with a halved CFL number so
    its time error sits below every member's) and reused for every row;
    the limit object does not depend on epsilon.  Data are well-prepared
    (w0 = 0).
    """
    p = spec.params
    rho0 = _initial_field(spec)
    w0 = Field(p.grid, np.zeros(p.grid.n))
    times = _sample_times(p.t_end)
    reference = simulate_ks(rho0, p.replace(dt_cfl=0.5 * p.dt_cfl), times)
    reference.raise_if_failed()
    sigma_samples = [state.sigma.values for state, _ in reference.samples]

    members = [p.replace(epsilon=e) for e in spec.epsilons]
    results = simulate_ep_rows(rho0, w0, members, times)
    rows = tuple(_sweep_member(result, pe, sigma_samples)
                 for result, pe in zip(results, members))

    ok_errors = [r.sup_l2_error for r in rows if r.status == "ok"]
    monotone = all(b < a for a, b in zip(ok_errors, ok_errors[1:]))
    path = None
    if spec.output_dir is not None:
        path = write_csv(spec.output_dir / "sweep.csv",
                         SweepResult.SWEEP_COLUMNS,
                         [r.as_list() for r in rows])
    return SweepResult(rows, monotone, path)


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

    def as_list(self) -> list:
        return [self.tau, self.a, self.b, self.length, self.length_measured,
                self.deriv_along, self.growth_factor, self.factor_predicted,
                self.fd_estimate, self.fd_rel_gap]


@dataclass(frozen=True)
class VacuumCollapseResult:
    rows: tuple
    limit_point: float
    verdicts: dict
    csv_path: Optional[Path] = None

    VACUUM_COLUMNS = ("tau", "a", "b", "length", "length_measured",
                      "deriv_along", "growth_factor", "factor_predicted",
                      "fd_estimate", "fd_rel_gap")

    @property
    def verdict_ok(self) -> bool:
        return all(self.verdicts.values())


def measured_vacuum_length(state: KSState, M: float) -> float:
    """Length of the contiguous zero-density block of a reconstructed
    field: (last_zero - first_zero) + h, or 0 when no cell is at vacuum."""
    sigma = state.sigma.values
    x = state.sigma.grid.x
    zero = np.flatnonzero(sigma <= VACUUM_SIGMA_CUTOFF * M)
    if zero.size == 0:
        return 0.0
    return float(x[zero[-1]] - x[zero[0]] + state.sigma.grid.h)


def measure_edge_derivative_fd(prof: InitialProfile, M: float, tau: float,
                               order: int = 1, n: int = 2048) -> float:
    """One-sided forward difference of order `order` at the right vacuum
    edge, computed on a reconstructed field over a thin window.

    The window shrinks like e^{-2 M tau}: the sharpening density front
    squeezes the region where the edge power law dominates, so a fixed
    window would average over the saturated profile and miss the growth.
    """
    rep = vacuum_interval(tau, prof, M)     # raises NoVacuum first
    (a0, b0) = prof.vacuum_set[0]
    width = FD_WINDOW_SCALE * (b0 - a0) * math.exp(-2.0 * M * tau)
    grid = Grid.line(rep.b, rep.b + width, n)
    sigma = reconstruct_eulerian(tau, prof, M, grid).sigma.values
    h = grid.h
    stencil = sigma[:order + 1]
    for _ in range(order):
        stencil = np.diff(stencil)
    return float(stencil[0] / h ** order)


def run_vacuum_collapse(spec: ExperimentSpec,
                        taus=None, n_grid: int = 2048,
                        fd_tau_max: float = 3.0) -> VacuumCollapseResult:
    """Vacuum-interval collapse along the exact characteristic flow.

    Closed-form interval length and edge-derivative growth are tabulated
    against their exponential laws; the Eulerian reconstruction re-measures
    the gap on an N-cell grid and a windowed finite difference re-measures
    the edge derivative (skipped past fd_tau_max where the front is too
    sharp for the 5% check to be meaningful at this resolution).
    """
    M = spec.params.mass_level
    prof = profile_line(spec.profile, M, **spec.profile_args)
    touch = int(spec.profile_args.get("touch", 1))
    if taus is None:
        taus = np.arange(0.0, 5.0 + 1e-12, 0.5)
    limit = vacuum_interval(0.0, prof, M).limit_point   # raises NoVacuum first
    (a0, b0) = prof.vacuum_set[0]
    deriv0 = derivative_along(b0, touch, 0.0, prof, M)
    full_grid = Grid.line(prof.domain[0], prof.domain[1], n_grid)

    rows = []
    for tau in taus:
        rep = vacuum_interval(tau, prof, M)
        measured = measured_vacuum_length(
            reconstruct_eulerian(tau, prof, M, full_grid), M)
        d_tau = derivative_along(b0, touch, tau, prof, M)
        if tau <= fd_tau_max:
            fd = measure_edge_derivative_fd(prof, M, tau, order=touch)
            fd_gap = abs(fd - d_tau) / abs(d_tau)
        else:
            fd, fd_gap = math.nan, math.nan
        rows.append(VacuumRow(
            tau=float(tau), a=rep.a, b=rep.b, length=rep.length,
            length_measured=measured,
            deriv_along=d_tau, growth_factor=d_tau / deriv0,
            factor_predicted=math.exp((touch + 1) * M * tau),
            fd_estimate=fd, fd_rel_gap=fd_gap))

    h = full_grid.h
    verdicts = {
        "length_law": all(
            abs(r.length - (b0 - a0) * math.exp(-M * r.tau))
            <= 1e-12 * (b0 - a0) for r in rows),
        "length_measured": all(
            abs(r.length_measured - r.length) <= h for r in rows),
        "growth_law": all(
            abs(r.growth_factor - r.factor_predicted)
            <= 1e-12 * r.factor_predicted for r in rows),
        "fd_agreement": all(
            r.fd_rel_gap <= 0.05 for r in rows if math.isfinite(r.fd_rel_gap)),
    }
    path = None
    if spec.output_dir is not None:
        path = write_csv(spec.output_dir / "vacuum.csv",
                         VacuumCollapseResult.VACUUM_COLUMNS,
                         [r.as_list() for r in rows])
    return VacuumCollapseResult(tuple(rows), limit, verdicts, path)


# --------------------------------------------------------------------------
# decay-rate fits

@dataclass(frozen=True)
class RateFit:
    series: str
    rate: float
    r_squared: float
    status: str              # ok | zero-signal | <solver status>
    window_start: float

    def as_list(self) -> list:
        return [self.series, self.rate, self.r_squared, self.status,
                self.window_start]


@dataclass(frozen=True)
class DecayFitResult:
    fits: tuple
    verdicts: dict
    csv_path: Optional[Path] = None

    DECAY_COLUMNS = ("series", "rate", "r_squared", "status", "window_start")

    def fit(self, series: str) -> RateFit:
        for f in self.fits:
            if f.series == series:
                return f
        raise KeyError(series)

    @property
    def verdict_ok(self) -> bool:
        return all(self.verdicts.values())


def _fit_series(name: str, records: list, pick, window) -> RateFit:
    series = [(rec.tau, pick(rec)) for rec in records]
    if max(y for _, y in series) < ZERO_SIGNAL_FLOOR:
        return RateFit(name, 0.0, 1.0, "zero-signal", window[0])
    try:
        rate, r2 = fit_exponential_rate(series, window)
    except (InsufficientSamples, NonPositiveSample) as err:
        return RateFit(name, math.nan, math.nan,
                       type(err).__name__, window[0])
    return RateFit(name, rate, r2, "ok", window[0])


def run_decay_fit(spec: ExperimentSpec, n_samples: int = 51) -> DecayFitResult:
    """Exponential-rate fits on the post-layer window.

    The EP run is fitted for e_total, the sup-norm deviation, and the
    L4 norm of the density gradient, skipping the initial layer of
    duration ~ eps^{2-alpha}; a companion KS run from the same profile is
    fitted for its sup-norm rate, which the logistic transport bounds
    from below by min{min sigma0, M}.
    """
    p = spec.params
    rho0 = _initial_field(spec)
    w0 = Field(p.grid, np.zeros(p.grid.n))
    times = _sample_times(p.t_end, n_samples)
    layer = 10.0 * p.epsilon ** (2.0 - p.alpha)
    window = (min(layer, 0.5 * p.t_end), p.t_end)

    ep = simulate_ep(rho0, w0, p, times)
    fits = []
    if ep.ok:
        records = [rec for _, rec in ep.samples]
        fits.append(_fit_series("e_total", records,
                                lambda r: r.e_total, window))
        fits.append(_fit_series("sup_dev", records,
                                lambda r: r.sup_dev, window))
        fits.append(_fit_series("grad_l4", records,
                                lambda r: r.grad_l4, window))
    else:
        for name in ("e_total", "sup_dev", "grad_l4"):
            fits.append(RateFit(name, math.nan, math.nan, ep.status,
                                window[0]))

    ks = simulate_ks(rho0, p, times)
    ks_window = (min(0.5, 0.5 * p.t_end), p.t_end)
    if ks.ok:
        fits.append(_fit_series("ks_sup_dev", [rec for _, rec in ks.samples],
                                lambda r: r.sup_dev, ks_window))
    else:
        fits.append(RateFit("ks_sup_dev", math.nan, math.nan, ks.status,
                            ks_window[0]))

    sigma_min = float(rho0.values.min())
    ks_floor = 0.9 * min(sigma_min, p.mass_level)
    by_name = {f.series: f for f in fits}
    ep_fits = [by_name[n] for n in ("e_total", "sup_dev", "grad_l4")]
    verdicts = {
        "rates_positive": all(
            f.rate > 0.0 for f in ep_fits if f.status == "ok"),
        "no_failures": all(f.status in ("ok", "zero-signal") for f in fits),
        "ks_rate_floor": (by_name["ks_sup_dev"].status != "ok"
                          or by_name["ks_sup_dev"].rate >= ks_floor),
    }
    path = None
    if spec.output_dir is not None:
        path = write_csv(spec.output_dir / "decay.csv",
                         DecayFitResult.DECAY_COLUMNS,
                         [f.as_list() for f in fits])
    return DecayFitResult(tuple(fits), verdicts, path)


# --------------------------------------------------------------------------
# dispersion tables

@dataclass(frozen=True)
class SpectrumTableResult:
    rows: tuple
    all_stable: bool
    csv_path: Optional[Path] = None

    SPECTRUM_COLUMNS = ("epsilon", "alpha", "gamma", "M", "k",
                        "re_lambda_slow", "im_lambda_slow",
                        "re_lambda_fast", "im_lambda_fast",
                        "amplitude_ratio_abs", "stable")

    @property
    def verdict_ok(self) -> bool:
        return self.all_stable


def run_spectrum_table(spec: ExperimentSpec) -> SpectrumTableResult:
    p = spec.params
    rows = []
    all_stable = True
    for eps in spec.epsilons:
        for k in spec.wavenumbers:
            q = DispersionQuery(epsilon=eps, alpha=p.alpha, gamma=p.gamma,
                                M=p.mass_level, k=float(k))
            pair = dispersion_roots(q)
            ratio = abs(pair.amplitude_ratio)
            fast = pair.lambda_fast
            all_stable = all_stable and pair.stable
            rows.append([eps, p.alpha, p.gamma, p.mass_level, float(k),
                         pair.lambda_slow.real, pair.lambda_slow.imag,
                         fast.real if fast is not None else math.nan,
                         fast.imag if fast is not None else math.nan,
                         ratio, pair.stable])
    path = None
    if spec.output_dir is not None:
        path = write_csv(spec.output_dir / "spectrum.csv",
                         SpectrumTableResult.SPECTRUM_COLUMNS, rows)
    return SpectrumTableResult(tuple(tuple(r) for r in rows),
                               all_stable, path)
