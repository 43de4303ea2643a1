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

dv/dtau comes from pushing the continuity flux through the inverse
gradient: on the torus this collapses to -(flux - mean(flux)).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

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


def _speeds(rho: np.ndarray, w: np.ndarray, v: np.ndarray, p: ParamSet):
    """Maximum advective and sound speeds of the state, for the CFL bound."""
    eps, alpha, gamma = p.epsilon, p.alpha, p.gamma
    adv = float(np.max(np.abs(w))) / eps ** (1.0 - alpha) + float(np.max(np.abs(v)))
    rho_max = float(np.max(rho))
    sound = math.sqrt(gamma * max(rho_max, 0.0) ** (gamma - 1.0)) \
        * eps ** (0.5 * (alpha - 2.0))
    return adv, sound


def _check_blowup(time: float, a: np.ndarray):
    """Raise Blowup if a is non-finite or beyond BLOWUP_THRESHOLD."""
    if not np.all(np.isfinite(a)) or np.max(np.abs(a)) > BLOWUP_THRESHOLD:
        raise Blowup(f"solution blew up at tau = {time:.6g}")


def _rhs(rho: np.ndarray, w: np.ndarray, p: ParamSet):
    """Right side (G_rho, G_w) without the stiff friction term, plus the
    maximum advective and sound speeds for the CFL bound.

    One fused spectral kernel, six FFT calls: (rho - M, w) are transformed
    together; v, dw/dx and d(rho)/dx come back in one batched inverse; the
    dealiased flux and its derivative share one more.  The cached symbols
    are those of inverse_gradient, deriv and dealias."""
    n = p.grid.n
    eps, alpha, gamma, M = p.epsilon, p.alpha, p.gamma, p.mass_level
    sym = _symbols(p.grid)

    source = rho - M
    sh, wh = np.fft.rfft(np.array((source, w)))
    removed = sh[0].real / n
    grad_inv, dxw, dxrho = np.fft.irfft(
        np.array((sh * sym.inv_grad, wh * sym.ik, sh * sym.ik)), n=n)
    v = -grad_inv
    dxv = source - removed          # exact spectral derivative of v

    fh = np.fft.rfft(rho * (w / eps ** (1.0 - alpha) + v)) * sym.keep
    flux, dxflux = np.fft.irfft(np.array((fh, fh * sym.ik)), n=n)
    g_rho = -dxflux
    dtau_v = -(flux - np.mean(flux))

    u = eps * v + eps**alpha * w
    g_w = (-u * dxw / eps
           - (gamma / eps) * rho ** (gamma - 2.0) * dxrho
           - eps ** (1.0 - alpha) * dtau_v
           - eps ** (-alpha) * u * dxv)
    g_w = np.fft.irfft(np.fft.rfft(g_w) * sym.keep, n=n)
    return (g_rho, g_w) + _speeds(rho, w, v, p)


def stable_dt(state: EPState, p: ParamSet) -> float:
    """CFL-limited step: dt_cfl * h / (advective + sound speed)."""
    rho, w = state.rho.values, state.w.values
    v = -inverse_gradient(rho - p.mass_level, p.grid)[0]
    adv, sound = _speeds(rho, w, v, p)
    return p.dt_cfl * p.grid.h / (adv + sound)


def _rk3(u_n: np.ndarray, rhs, dt: float, lam, p: ParamSet, time: float):
    """One Lawson RK3 step (stage times 0, 1/3, 2/3) of du/dtau = lam*u + G(u)
    on stacked rows, with (G(u), speed) = rhs(u) and one linear rate per
    row in lam.  Checks dt > 0, the first stage's CFL bound and blow-up;
    returns (u_new, speed)."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    g1, speed = rhs(u_n)
    bound = p.dt_cfl * p.grid.h / speed if speed > 0.0 else math.inf
    if dt > bound * (1.0 + 1e-9):
        raise CflViolation(f"dt = {dt:.3e} exceeds the stability bound {bound:.3e}")

    # integrating factors over dt/3, 2dt/3 and dt, one column per row; a
    # rate-0 row gets exactly 1.0, so its arithmetic is plain RK3
    e1, e2, e3 = np.array([[math.exp(rate * dt / 3.0) for rate in lam],
                           [math.exp(2.0 * rate * dt / 3.0) for rate in lam],
                           [math.exp(rate * dt) for rate in lam]])[:, :, None]

    u_b = e1 * (u_n + (dt / 3.0) * g1)
    g2, _ = rhs(u_b)
    u_c = e2 * u_n + (2.0 * dt / 3.0) * e1 * g2
    g3, _ = rhs(u_c)
    u_new = e3 * u_n + (dt / 4.0) * (e3 * g1 + 3.0 * e1 * g3)

    _check_blowup(time + dt, u_new)
    return u_new, speed


def step_ep(state: EPState, p: ParamSet, dt: float) -> tuple[EPState, EPStepReport]:
    """One integrating-factor RK3 step of size dt on the rows (rho, w);
    friction acts on the w row only."""
    grid = p.grid
    lam = -1.0 / p.epsilon**2
    rho_n = state.rho.values

    def rhs(u):
        g_rho, g_w, adv, sound = _rhs(u[0], u[1], p)
        return np.array((g_rho, g_w)), adv + sound

    (rho_new, w_new), speed = _rk3(np.array((rho_n, state.w.values)), rhs,
                                   dt, (0.0, lam), p, state.time)
    lo, hi = 0.5 * p.rho_lower, 2.0 * p.rho_upper
    rmin, rmax = float(rho_new.min()), float(rho_new.max())
    if rmin < lo or rmax > hi:
        raise RangeBreach(
            f"rho range [{rmin:.6g}, {rmax:.6g}] left [{lo:.6g}, {hi:.6g}] "
            f"at tau = {state.time + dt:.6g}")

    mass_defect = grid.h * float(np.sum(rho_new) - np.sum(rho_n))
    new_state = EPState(
        rho=Field(grid, rho_new, tag="density"),
        w=Field(grid, w_new),
        time=state.time + dt,
    )
    report = EPStepReport(dt_used=dt, max_cfl_speed=speed,
                          friction_factor=math.exp(lam * dt),
                          mass_defect=mass_defect)
    return new_state, report


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


def _integrate(state, step, next_dt, record, sample_times) -> SimulationResult:
    """Advance state by step(state, dt) with dt = next_dt(state), landing
    exactly on each sample time and recording record(state) there.  A
    SolverBreakdown ends the run with its status; samples taken so far
    are kept."""
    times = sorted(sample_times)
    if not all(math.isfinite(t) and t >= 0.0 for t in times):
        raise ValueError("sample times must be finite and nonnegative")
    samples = []
    n_steps = 0
    for target in times:
        while state.time < target - 1e-12:
            dt = min(next_dt(state), target - state.time)
            try:
                state, _ = step(state, dt)
            except SolverBreakdown as err:
                return SimulationResult(samples, err.status, err, n_steps)
            n_steps += 1
        samples.append((state, record(state)))
    return SimulationResult(samples, "ok", None, n_steps)


def simulate_ep(rho0: Field, w0: Field, p: ParamSet,
                sample_times) -> SimulationResult:
    """Drive step_ep with adaptive dt, landing exactly on each sample time."""
    report = validate_initial_data(rho0, w0, p)
    report.raise_if_failed()

    state = EPState(rho=Field(p.grid, rho0.values, tag="density"),
                    w=Field(p.grid, w0.values), time=0.0)
    # module globals are looked up per call, so wrappers installed on
    # step_ep / stable_dt / record_ep (the benchmark tracer) see every step
    return _integrate(state, lambda s, dt: step_ep(s, p, dt),
                      lambda s: stable_dt(s, p), lambda s: record_ep(s, p),
                      sample_times)
