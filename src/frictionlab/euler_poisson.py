"""Time integration of the relaxation system in (rho, w) variables.

The system advanced here (torus, conservative continuity + symmetric
momentum form, velocity u = eps*v + eps^alpha*w with v the nonlocal map):

    d(rho)/dtau = -d/dx( rho*w/eps^(1-alpha) + rho*v )
    d(w)/dtau   = -(u/eps) dw/dx - (gamma/eps) rho^(gamma-2) d(rho)/dx
                  - w/eps^2 - eps^(1-alpha) dv/dtau - eps^(-alpha) u dv/dx

The friction term -w/eps^2 is linear and pointwise, so it is applied
exactly through an integrating factor inside a Lawson-transformed
three-stage third-order Runge-Kutta step (stage times 0, 1/3, 2/3): every
exponential factor that appears decays, so the stiff part never limits
the step size.  The transport/pressure terms set the CFL bound, on the
sum of the advective and sound speeds.  The step (`_rk3`) runs on stacked
rows with one linear rate per row; the Keller-Segel stepper is the same
step on its density row alone, with rate 0.

The rows are the rfft coefficients of (rho - M, w): the friction factor
is pointwise, so it acts on coefficients as on samples, and the stage
kernel `_rhs` hands back its slope in Fourier space.  A step makes one
forward transform of the state (the one stable_dt feeds to
inverse_gradient), one batched inverse and one batched forward transform
per stage, and one inverse of the new state: 8 FFT calls whatever the
member count.  At small n a step costs numpy calls more than flops, so
every eps-dependent factor of the stage is folded into a Fourier symbol
with one row per member (`_members`, built once per batch and read-only)
and the transforms' inputs and outputs are written in place: 23 numpy
calls in a later stage.

One driver path: `simulate_ep_rows` steps members that differ in epsilon
only as rows of one batched step (`step_ep_rows`), each with its own dt,
picked from its own first stage, and clock; `simulate_ep` is the
one-member batch.  Batched FFT rows, per-row reductions and products with
per-row columns are bit-identical to the one-member arithmetic, so a
member's trajectory does not depend on its batch.  `step_ep` is the
fixed-dt step for callers that choose dt, and `stable_dt` a helper that
gives them it.

dv/dtau comes from pushing the continuity flux through the inverse
gradient: on the torus this collapses to -(flux - mean(flux)), in Fourier
space the dealiased flux with its k = 0 mode zeroed.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import EPState, Field, ParamSet, validate_initial_data
from .diagnostics import DiagnosticsRecord, record_ep
from .errors import Blowup, CflViolation, RangeBreach, SolverBreakdown
from .spectral import _symbols, inverse_gradient

BLOWUP_THRESHOLD = 1e12


@dataclass(frozen=True)
class EPStepReport:
    dt_used: float
    max_cfl_speed: float     # advective + sound speed, as in stable_dt
    friction_factor: float   # the exact integrating-factor multiplier e^{-dt/eps^2}
    mass_defect: float


class _Members(NamedTuple):
    """The parameters of a batch of members, worked out once per run.
    The members share every parameter but epsilon.  The eps-dependent
    coefficients of the stage kernel are folded into Fourier symbols, one
    row per member (members x (n/2 + 1)), or are columns with one
    Python-computed value per member.  All arrays are read-only."""

    p: ParamSet              # the shared parameters
    eps: np.ndarray          # eps
    eps_a: np.ndarray        # eps^alpha
    lam: tuple               # linear rates: 0 for the rho rows, -1/eps^2 for w
    inv_grad: np.ndarray     # i/k, shared: v = -irfft(sh * inv_grad)
    keep: np.ndarray         # 2/3 rule, shared
    ik_eps: np.ndarray       # ik/eps: on w^, dw/dx / eps
    dxv_eps: np.ndarray      # eps^-alpha, 0 at k = 0: on (rho - M)^, eps^-alpha dv/dx
    gik_eps: np.ndarray      # (gamma/eps) ik: on (rho - M)^, (gamma/eps) d(rho)/dx
    div_eps: np.ndarray      # -ik keep/eps: on (rho vel)^, the rho slope
    flux_w: np.ndarray       # eps^-alpha keep, 0 at k = 0: on (rho vel)^, the
                             # share -eps^(1-alpha) dv/dtau of the w slope


@functools.lru_cache(maxsize=64)
def _members(ps: tuple) -> _Members:
    if not ps:
        raise ValueError("a batch needs at least one member")
    p = ps[0]
    if any(q.replace(epsilon=p.epsilon) != p for q in ps[1:]):
        raise ValueError("batched members may differ in epsilon only")
    alpha, gamma = p.alpha, p.gamma
    eps = [q.epsilon for q in ps]
    sym = _symbols(p.grid)

    def read_only(a):
        a.setflags(write=False)
        return a

    def column(values):
        return np.array(values)[:, None]

    eps_col, eps_ma = column(eps), column([e ** (-alpha) for e in eps])
    nonzero = np.arange(sym.k.size) > 0     # zeroes the mean, k = 0
    return _Members(p, read_only(eps_col),
                    read_only(column([e**alpha for e in eps])),
                    ((0.0,) * len(ps), tuple(-1.0 / e**2 for e in eps)),
                    sym.inv_grad, sym.keep,
                    read_only(sym.ik / eps_col),
                    read_only(eps_ma * nonzero),
                    read_only(sym.ik * column([gamma / e for e in eps])),
                    read_only(sym.neg_ik_keep / eps_col),
                    read_only(eps_ma * (sym.keep * nonzero)))


def _speeds(rho: np.ndarray, w: np.ndarray, v: np.ndarray, ps) -> list:
    """Per member (one row of rho, w and v each): its maximum advective and
    sound speeds, for the CFL bound."""
    out = []
    for p, w_max, v_max, rho_max in zip(ps, np.abs(w).max(axis=-1).tolist(),
                                        np.abs(v).max(axis=-1).tolist(),
                                        rho.max(axis=-1).tolist()):
        eps, alpha, gamma = p.epsilon, p.alpha, p.gamma
        adv = w_max / eps ** (1.0 - alpha) + v_max
        sound = math.sqrt(gamma * max(rho_max, 0.0) ** (gamma - 1.0)) \
            * eps ** (0.5 * (alpha - 2.0))
        out.append((adv, sound))
    return out


def _cfl_bound(p: ParamSet, speed: float) -> float:
    return p.dt_cfl * p.grid.h / speed if speed > 0.0 else math.inf


def _checked_dt(dt: float, bound: float) -> float:
    """A step size handed in by the caller, checked against the CFL bound
    of the first stage."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if dt > bound * (1.0 + 1e-9):
        raise CflViolation(f"dt = {dt:.3e} exceeds the stability bound {bound:.3e}")
    return dt


def _check_blowup(times, u: np.ndarray) -> list:
    """Per member (axis 1 of the stacked rows u): a Blowup if any of its
    values is non-finite or beyond BLOWUP_THRESHOLD, else None.  One
    reduction: max|u| <= BLOWUP_THRESHOLD is false for NaN and +-inf too."""
    peaks = np.abs(u).max(axis=(0, 2)).tolist()
    return [None if peak <= BLOWUP_THRESHOLD
            else Blowup(f"solution blew up at tau = {time:.6g}")
            for peak, time in zip(peaks, times)]


def _rhs(u, uh: np.ndarray, m: _Members):
    """Slope G^ of the rfft coefficients uh of the stacked rows
    (rho - M, w), each members x (n/2 + 1), without the stiff friction
    term, and the nonlocal velocity v of rho.  u holds the rows (rho, w)
    in physical space where the caller has them (the first stage), else
    None.

    One fused spectral kernel, two FFT calls whatever the member count.
    With vel = eps v + eps^alpha w the w slope is -h - eps^(1-alpha)
    dv/dtau, where

        -h = vel (dw/dx / eps + eps^(-alpha) dv/dx)
             + rho^(gamma-2) (gamma/eps) d(rho)/dx.

    One batched inverse gives v, the bracket and (gamma/eps) d(rho)/dx
    (and rho - M and w when u is None): the eps factors sit in the
    members' symbols, and dv/dx = rho - mean rho is rho - M with its
    k = 0 mode zeroed.  One batched forward transforms rho*vel and -h.
    rho*vel is eps f for the continuity flux f = rho (w/eps^(1-alpha) + v),
    so the rho slope is (-ik keep/eps) (rho vel)^, and dv/dtau =
    -(f - mean f) enters the w slope as eps^(-alpha) keep (rho vel)^ with
    its k = 0 mode zeroed.  The transforms' inputs and outputs are
    written in place: 23 numpy calls in a later stage, 21 in the first."""
    sh, wh = uh
    spectra = np.empty((3 if u is not None else 5,) + sh.shape, dtype=complex)
    if u is None:
        spectra[:2] = uh
    np.multiply(sh, m.inv_grad, out=spectra[-3])
    np.multiply(wh, m.ik_eps, out=spectra[-2])
    spectra[-2] += sh * m.dxv_eps
    np.multiply(sh, m.gik_eps, out=spectra[-1])
    x = np.fft.irfft(spectra, n=m.p.grid.n)
    grad_inv, bracket, g_dxrho = x[-3:]
    if u is None:
        source, w = x[:2]
        rho = source + m.p.mass_level
    else:
        rho, w = u
    v = -grad_inv
    vel = m.eps * v + m.eps_a * w
    # rows 0 and 1 of x have been read: they take rho*vel and -h
    np.add(vel * bracket, rho ** (m.p.gamma - 2.0) * g_dxrho, out=x[1])
    np.multiply(rho, vel, out=x[0])
    g = np.fft.rfft(x[:2])
    fh, hh = g
    w_flux = m.flux_w * fh
    np.multiply(fh, m.div_eps, out=fh)
    np.multiply(hh, m.keep, out=hh)
    np.subtract(w_flux, hh, out=hh)
    return g, v


def stable_dt(state: EPState, p: ParamSet) -> float:
    """CFL-limited step dt_cfl*h/(advective + sound speed), as step_ep_rows takes it."""
    rho, w = state.rho.values, state.w.values
    v = -inverse_gradient(rho - p.mass_level, p.grid)[0]
    ((adv, sound),) = _speeds(rho[None], w[None], v[None], (p,))
    return _cfl_bound(p, adv + sound)


def _rk3(u_n: np.ndarray, g1: np.ndarray, rhs, dt, lam) -> np.ndarray:
    """One Lawson RK3 step (stage times 0, 1/3, 2/3) of du/dtau = lam*u + G(u)
    on stacked rows u_n (row kinds x members x anything), from the first
    stage's slope g1 = G(u_n); rhs(u) gives G at the later stages, as a
    new array of u's shape, which the step updates in place.  dt
    holds one step per member and lam one linear rate per row kind and
    member.  The rates act pointwise, so the rows may be Fourier
    coefficients as well as samples: the steppers pass coefficients."""
    # integrating factors over dt/3, 2dt/3 and dt, the stage weights and
    # their products with e1, one column per row, all in Python floats; a
    # rate-0 row gets factors of exactly 1.0, so its arithmetic is plain RK3
    e1, e2, e3, c1, c2e1, c3, e1_3 = np.array([
        [_rk3_coefficients(rate, d) for rate, d in zip(rates, dt)]
        for rates in lam]).transpose(2, 0, 1)[..., None]

    u = c1 * g1
    u += u_n
    u *= e1                 # stage 2: e1 (u_n + c1 g1)
    g = rhs(u)
    g *= c2e1
    np.multiply(e2, u_n, out=u)
    u += g                  # stage 3: e2 u_n + c2 e1 g2
    g = rhs(u)
    g *= e1_3
    g += e3 * g1
    g *= c3
    np.multiply(e3, u_n, out=u)
    u += g                  # e3 u_n + c3 (e3 g1 + 3 e1 g3)
    return u


def _rk3_coefficients(rate: float, d: float) -> tuple:
    """e1, e2, e3, c1, c2 e1, c3 and 3 e1 of one row of _rk3."""
    e1 = math.exp(rate * d / 3.0)
    return (e1, math.exp(2.0 * rate * d / 3.0), math.exp(rate * d),
            d / 3.0, 2.0 * d / 3.0 * e1, d / 4.0, 3.0 * e1)


def _step_members(states, ps: tuple, dt_for) -> list:
    """One Lawson RK3 step of every member's rows (rho, w); friction acts on
    the w rows only.  dt_for(bounds) turns the members' CFL bounds at the
    first stage into their steps.  Returns, per member, (EPState,
    EPStepReport) or the SolverBreakdown that stopped it."""
    m = _members(ps)
    p = m.p
    grid = p.grid
    u_n = np.array([[s.rho.values for s in states],
                    [s.w.values for s in states]])
    # the transform stable_dt feeds to inverse_gradient, so the first
    # stage's v, speeds and dt are stable_dt's
    uh_n = np.fft.rfft(np.array((u_n[0] - p.mass_level, u_n[1])))
    g1, v = _rhs(u_n, uh_n, m)
    speeds = [adv + sound for adv, sound in _speeds(u_n[0], u_n[1], v, ps)]
    dt = dt_for([_cfl_bound(p, speed) for speed in speeds])
    u_new = np.fft.irfft(_rk3(uh_n, g1, lambda uh: _rhs(None, uh, m)[0],
                              dt, m.lam), n=grid.n)
    u_new[0] += p.mass_level

    times = [s.time + d for s, d in zip(states, dt)]
    rho_new, w_new = u_new
    rmin, rmax = rho_new.min(axis=-1).tolist(), rho_new.max(axis=-1).tolist()
    defects = (rho_new.sum(axis=-1) - u_n[0].sum(axis=-1)).tolist()
    lo, hi = 0.5 * p.rho_lower, 2.0 * p.rho_upper
    out = []
    for i, blowup in enumerate(_check_blowup(times, u_new)):
        if blowup is not None:
            out.append(blowup)
        elif rmin[i] < lo or rmax[i] > hi:
            out.append(RangeBreach(
                f"rho range [{rmin[i]:.6g}, {rmax[i]:.6g}] left "
                f"[{lo:.6g}, {hi:.6g}] at tau = {times[i]:.6g}"))
        else:
            # copies: a view would keep the whole batch buffer alive for as
            # long as the state is kept (every sampled state is); no rescan:
            # _check_blowup and the range guard have checked both rows
            state = EPState(
                rho=Field._trusted(grid, rho_new[i].copy(), tag="density"),
                w=Field._trusted(grid, w_new[i].copy()), time=times[i])
            out.append((state, EPStepReport(
                dt_used=dt[i], max_cfl_speed=speeds[i],
                friction_factor=math.exp(m.lam[1][i] * dt[i]),
                mass_defect=grid.h * defects[i])))
    return out


def step_ep(state: EPState, p: ParamSet, dt: float) -> tuple[EPState, EPStepReport]:
    """One integrating-factor RK3 step of size dt on the rows (rho, w);
    friction acts on the w row only.  The one-member batch, with dt given:
    raises CflViolation if dt exceeds the stable_dt bound."""
    (out,) = _step_members([state], (p,),
                           lambda bounds: [_checked_dt(dt, bounds[0])])
    if isinstance(out, SolverBreakdown):
        raise out
    return out


def step_ep_rows(states, ps, target: float) -> list:
    """One step toward time `target` of each member, stepped together as
    rows of one batched step; ps holds one ParamSet per member, and the
    members may differ in epsilon only.

    Each member takes dt = min(stable_dt, target - t), from the speeds of
    its own first stage.  Returns, per member, (EPState, EPStepReport) or
    the SolverBreakdown that stopped it; a breakdown leaves the other
    members' steps as they would be alone."""
    if not all(s.time < target for s in states):
        raise ValueError("every member must be behind the target time")
    return _step_members(states, tuple(ps), lambda bounds: [
        min(bound, target - s.time) for bound, s in zip(bounds, states)])


@dataclass
class SimulationResult:
    """Trajectory samples plus a status flag; errors surface here rather
    than escaping mid-run (the partial trajectory is kept on breakdown)."""

    samples: list                      # [(state, record or None), ...]
    status: str                        # 'ok', or the breakdown's status
    error: Optional[Exception] = None
    n_steps: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def raise_if_failed(self):
        if self.error is not None:
            raise self.error


def _integrate(states, advance, record, sample_times) -> list:
    """Advance every member to each sample time in turn, landing on it
    exactly, and record member i there as record(i, state); with record
    None the samples hold the states alone, paired with None.

    advance(members, states, target) takes one step toward target of each
    listed member (those whose clock is behind), in one call, and returns
    per member its (new_state, report) or the SolverBreakdown that ends its
    run.  A member that breaks down keeps its samples so far; the others
    go on.  Returns one SimulationResult per member."""
    times = sorted(sample_times)
    if not all(math.isfinite(t) and t >= 0.0 for t in times):
        raise ValueError("sample times must be finite and nonnegative")
    states = list(states)
    results = [SimulationResult([], "ok") for _ in states]
    live = list(range(len(states)))
    for target in times:
        while behind := [i for i in live if states[i].time < target - 1e-12]:
            outcomes = advance(behind, [states[i] for i in behind], target)
            for i, out in zip(behind, outcomes):
                if isinstance(out, SolverBreakdown):
                    results[i].status, results[i].error = out.status, out
                    live.remove(i)
                else:
                    states[i] = out[0]
                    results[i].n_steps += 1
        for i in live:
            results[i].samples.append(
                (states[i], None if record is None else record(i, states[i])))
    return results


def simulate_ep(rho0: Field, w0: Field, p: ParamSet,
                sample_times) -> SimulationResult:
    """The one-member simulate_ep_rows."""
    (result,) = simulate_ep_rows(rho0, w0, (p,), sample_times)
    return result


def simulate_ep_rows(rho0: Field, w0: Field, ps, sample_times,
                     records: bool = True) -> list:
    """Sampled trajectories, landing exactly on each sample time, of members
    from the same initial data that differ in epsilon only, stepped
    together by step_ep_rows; each keeps its own dt and clock.  With
    records False no diagnostics are computed: each sample pairs its
    state with None."""
    ps = tuple(ps)
    p = _members(ps).p
    validate_initial_data(rho0, w0, p).raise_if_failed()
    state = EPState(rho=Field(p.grid, rho0.values, tag="density"),
                    w=Field(p.grid, w0.values), time=0.0)
    # step_ep_rows is looked up per call, so the benchmark tracer sees it
    return _integrate([state] * len(ps),
                      lambda rows, states, target: step_ep_rows(
                          states, [ps[i] for i in rows], target),
                      (lambda i, s: record_ep(s, ps[i])) if records else None,
                      sample_times)
