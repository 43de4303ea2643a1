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

One driver path: `simulate_ep_rows` steps members that differ in epsilon
only as rows of one batched step (`step_ep_rows`), each with its own dt,
picked from its own first stage, and clock; `simulate_ep` is the
one-member batch.  Batched FFT rows, per-row reductions and products with
per-row columns are bit-identical to the one-member arithmetic, so a
member's trajectory does not depend on its batch.  `step_ep` is the
fixed-dt step for callers that choose dt, and `stable_dt` a helper that
gives them it.

dv/dtau comes from pushing the continuity flux through the inverse
gradient: on the torus this collapses to -(flux - mean(flux)).
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
from .ksmap import ks_map_torus
from .spectral import _symbols, inverse_gradient

BLOWUP_THRESHOLD = 1e12


@dataclass(frozen=True)
class EPStepReport:
    dt_used: float
    max_cfl_speed: float     # advective + sound speed, as in stable_dt
    friction_factor: float   # the exact integrating-factor multiplier e^{-dt/eps^2}
    mass_defect: float


def reconstruct_u(state: EPState, p: ParamSet) -> Field:
    """Physical velocity u = eps*v + eps^alpha * w."""
    v = ks_map_torus(state.rho, p.mass_level).v
    u = p.epsilon * v.values + p.epsilon**p.alpha * state.w.values
    return Field(p.grid, u)


class _Members(NamedTuple):
    """The parameters of a batch of members, worked out once per run.
    The members share every parameter but epsilon; each eps-dependent
    coefficient is a column with one Python-computed value per member."""

    p: ParamSet              # the shared parameters
    eps: np.ndarray          # eps
    eps_1ma: np.ndarray      # eps^(1-alpha)
    eps_a: np.ndarray        # eps^alpha
    eps_ma: np.ndarray       # eps^(-alpha)
    gamma_eps: np.ndarray    # gamma/eps
    lam: tuple               # linear rates: 0 for the rho rows, -1/eps^2 for w


@functools.lru_cache(maxsize=64)
def _members(ps: tuple) -> _Members:
    if not ps:
        raise ValueError("a batch needs at least one member")
    p = ps[0]
    if any(q.replace(epsilon=p.epsilon) != p for q in ps[1:]):
        raise ValueError("batched members may differ in epsilon only")
    alpha, gamma = p.alpha, p.gamma
    eps = [q.epsilon for q in ps]

    def column(values):
        a = np.array(values)[:, None]
        a.setflags(write=False)
        return a

    return _Members(p, column(eps),
                    column([e ** (1.0 - alpha) for e in eps]),
                    column([e**alpha for e in eps]),
                    column([e ** (-alpha) for e in eps]),
                    column([gamma / e for e in eps]),
                    ((0.0,) * len(ps), tuple(-1.0 / e**2 for e in eps)))


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


def _rhs(u: np.ndarray, m: _Members):
    """Right side G(u) of the stacked rows u = (rho, w), each members x n,
    without the stiff friction term, and the nonlocal velocity v of rho.

    One fused spectral kernel, six FFT calls whatever the member count:
    (rho - M, w) are transformed together; v, dw/dx and d(rho)/dx come
    back in one batched inverse; the dealiased flux and its derivative
    share one more.  The cached symbols are those of inverse_gradient,
    deriv and dealias."""
    rho, w = u
    p = m.p
    n = p.grid.n
    sym = _symbols(p.grid)

    source = rho - p.mass_level
    sh, wh = np.fft.rfft(np.array((source, w)))
    removed = sh[:, :1].real / n
    grad_inv, dxw, dxrho = np.fft.irfft(
        np.array((sh * sym.inv_grad, wh * sym.ik, sh * sym.ik)), n=n)
    v = -grad_inv
    dxv = source - removed          # exact spectral derivative of v

    fh = np.fft.rfft(rho * (w / m.eps_1ma + v)) * sym.keep
    flux, dxflux = np.fft.irfft(np.array((fh, fh * sym.ik)), n=n)
    dtau_v = -(flux - flux.sum(axis=-1, keepdims=True) / n)   # minus the mean

    vel = m.eps * v + m.eps_a * w
    g_w = (-vel * dxw / m.eps
           - m.gamma_eps * rho ** (p.gamma - 2.0) * dxrho
           - m.eps_1ma * dtau_v
           - m.eps_ma * vel * dxv)
    g_w = np.fft.irfft(np.fft.rfft(g_w) * sym.keep, n=n)
    return np.array((-dxflux, g_w)), v


def stable_dt(state: EPState, p: ParamSet) -> float:
    """CFL-limited step dt_cfl*h/(advective + sound speed), as step_ep_rows takes it."""
    rho, w = state.rho.values, state.w.values
    v = -inverse_gradient(rho - p.mass_level, p.grid)[0]
    ((adv, sound),) = _speeds(rho[None], w[None], v[None], (p,))
    return p.dt_cfl * p.grid.h / (adv + sound)


def _rk3(u_n: np.ndarray, g1: np.ndarray, rhs, dt, lam) -> np.ndarray:
    """One Lawson RK3 step (stage times 0, 1/3, 2/3) of du/dtau = lam*u + G(u)
    on stacked rows u_n (row kinds x members x n), from the first stage's
    slope g1 = G(u_n); rhs(u) gives G at the later stages.  dt holds one
    step per member and lam one linear rate per row kind and member."""
    # integrating factors over dt/3, 2dt/3 and dt and the stage weights,
    # one column per row, all in Python floats; a rate-0 row gets factors
    # of exactly 1.0, so its arithmetic is plain RK3
    e1, e2, e3, c1, c2, c3 = np.array([
        [(math.exp(rate * d / 3.0), math.exp(2.0 * rate * d / 3.0),
          math.exp(rate * d), d / 3.0, 2.0 * d / 3.0, d / 4.0)
         for rate, d in zip(rates, dt)]
        for rates in lam]).transpose(2, 0, 1)[..., None]

    u_b = e1 * (u_n + c1 * g1)
    u_c = e2 * u_n + c2 * e1 * rhs(u_b)
    return e3 * u_n + c3 * (e3 * g1 + 3.0 * e1 * rhs(u_c))


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
    g1, v = _rhs(u_n, m)
    speeds = [adv + sound for adv, sound in _speeds(u_n[0], u_n[1], v, ps)]
    dt = dt_for([_cfl_bound(p, speed) for speed in speeds])
    u_new = _rk3(u_n, g1, lambda u: _rhs(u, m)[0], dt, m.lam)

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
            # long as the state is kept (every sampled state is)
            state = EPState(rho=Field(grid, rho_new[i].copy(), tag="density"),
                            w=Field(grid, w_new[i].copy()), time=times[i])
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

    samples: list                      # [(state, DiagnosticsRecord), ...]
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
    exactly, and record member i there as record(i, state).

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
            results[i].samples.append((states[i], record(i, states[i])))
    return results


def simulate_ep(rho0: Field, w0: Field, p: ParamSet,
                sample_times) -> SimulationResult:
    """The one-member simulate_ep_rows."""
    (result,) = simulate_ep_rows(rho0, w0, (p,), sample_times)
    return result


def simulate_ep_rows(rho0: Field, w0: Field, ps,
                     sample_times) -> list:
    """Sampled trajectories, landing exactly on each sample time, of members
    from the same initial data that differ in epsilon only, stepped
    together by step_ep_rows; each keeps its own dt and clock."""
    ps = tuple(ps)
    p = _members(ps).p
    validate_initial_data(rho0, w0, p).raise_if_failed()
    state = EPState(rho=Field(p.grid, rho0.values, tag="density"),
                    w=Field(p.grid, w0.values), time=0.0)
    # step_ep_rows is looked up per call, so the benchmark tracer sees it
    return _integrate([state] * len(ps),
                      lambda rows, states, target: step_ep_rows(
                          states, [ps[i] for i in rows], target),
                      lambda i, s: record_ep(s, ps[i]), sample_times)
