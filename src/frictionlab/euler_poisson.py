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
kernel `_rhs` hands back its slope in Fourier space.  A step starts from
the coefficients the previous step left (a run transforms its initial
data once), makes one batched inverse and one batched forward transform
per stage, and one inverse of the new coefficients, which the guards,
the next first stage and the samples read: 7 FFT calls whatever the
member count.  At gamma = 2 the pressure term (gamma/eps) d(rho)/dx is
linear and is added in Fourier space, so per member a step transforms
2+2 rows in its first stage, 4+2 in each later one and 2 at the end:
18 rows, 21 at any other gamma.  At small n a step costs numpy calls
more than flops, so every eps-dependent factor of the stage is folded
into a Fourier symbol with one row per member (`_members`, built once
per batch and read-only) and the transforms' inputs and outputs are
written in place: 21 numpy calls in a later stage at gamma = 2, 23
otherwise.

One driver path: `simulate_ep_rows` steps members that differ in epsilon
only as rows of one batched step (`step_ep_rows`), each with its own dt,
picked from its own first stage, and clock; `simulate_ep` is the
one-member batch.  Between steps the driver keeps the batch's samples
and coefficients stacked (`Rows`) and builds states only at sample
times.  Batched FFT rows, per-row reductions and products with per-row
columns are bit-identical to the one-member arithmetic, so a member's
trajectory does not depend on its batch.  A caller that wants a fixed dt
samples the run at that spacing: below the CFL bound, each sample is one
step.

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
from .errors import Blowup, RangeBreach
from .spectral import _symbols

BLOWUP_THRESHOLD = 1e12


class _Members(NamedTuple):
    """The parameters of a batch of members, worked out once per run.
    The members share every parameter but epsilon.  The eps-dependent
    coefficients of the stage kernel are folded into Fourier symbols, one
    row per member (members x (n/2 + 1)), or are columns with one
    Python-computed value per member.  All arrays are read-only."""

    p: ParamSet              # the shared parameters
    ps: tuple                # one ParamSet per member
    linear_pressure: bool    # gamma = 2: the pressure term is linear in rho
    eps: np.ndarray          # eps
    eps_a: np.ndarray        # eps^alpha
    lam: tuple               # linear rates: 0 for the rho rows, -1/eps^2 for w
    inv_grad: np.ndarray     # i/k, shared: v = -irfft(sh * inv_grad)
    keep: np.ndarray         # 2/3 rule, shared
    ik_eps: np.ndarray       # ik/eps: on w^, dw/dx / eps
    dxv_eps: np.ndarray      # eps^-alpha, 0 at k = 0: on (rho - M)^, eps^-alpha dv/dx
    gik_eps: np.ndarray      # (gamma/eps) ik: on (rho - M)^, (gamma/eps) d(rho)/dx,
                             # the pressure term itself when it is linear
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
    return _Members(p, ps, gamma == 2.0, read_only(eps_col),
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

    One batched inverse gives v and the bracket (and rho - M and w when u
    is None): the eps factors sit in the members' symbols, and dv/dx =
    rho - mean rho is rho - M with its k = 0 mode zeroed.  One batched
    forward transforms rho*vel and -h.  rho*vel is eps f for the
    continuity flux f = rho (w/eps^(1-alpha) + v), so the rho slope is
    (-ik keep/eps) (rho vel)^, and dv/dtau = -(f - mean f) enters the w
    slope as eps^(-alpha) keep (rho vel)^ with its k = 0 mode zeroed.

    The pressure term: at gamma = 2 it is (gamma/eps) d(rho)/dx, linear,
    and its transform (gamma/eps) ik (rho - M)^ is added to the forward
    output; otherwise the inverse also gives (gamma/eps) d(rho)/dx, and
    rho^(gamma-2) times it joins -h before the forward transform.  So the
    inverse takes 2 rows per member in the first stage and 4 in a later
    one, one more each when gamma != 2.  The transforms' inputs and
    outputs are written in place: 21 numpy calls in a later stage and 19
    in the first at gamma = 2, 23 and 21 otherwise."""
    sh, wh = uh
    first = u is not None
    base = 0 if first else 2    # rows 0 and 1 of a later stage: rho - M, w
    spectra = np.empty((base + (2 if m.linear_pressure else 3),) + sh.shape,
                       dtype=complex)
    if not first:
        spectra[:2] = uh
    np.multiply(sh, m.inv_grad, out=spectra[base])
    np.multiply(wh, m.ik_eps, out=spectra[base + 1])
    spectra[base + 1] += sh * m.dxv_eps
    if not m.linear_pressure:
        np.multiply(sh, m.gik_eps, out=spectra[base + 2])
    x = np.fft.irfft(spectra, n=m.p.grid.n)
    grad_inv, bracket = x[base], x[base + 1]
    if first:
        rho, w = u
    else:
        source, w = x[:2]
        rho = source + m.p.mass_level
    v = -grad_inv
    vel = m.eps * v + m.eps_a * w
    # rows 0 and 1 of x have been read: they take rho*vel and -h
    if m.linear_pressure:
        np.multiply(vel, bracket, out=x[1])
    else:
        np.add(vel * bracket, rho ** (m.p.gamma - 2.0) * x[base + 2], out=x[1])
    np.multiply(rho, vel, out=x[0])
    g = np.fft.rfft(x[:2])
    fh, hh = g
    if m.linear_pressure:
        hh += m.gik_eps * sh
    w_flux = m.flux_w * fh
    np.multiply(fh, m.div_eps, out=fh)
    np.multiply(hh, m.keep, out=hh)
    np.subtract(w_flux, hh, out=hh)
    return g, v


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


class Rows:
    """What a driver keeps of a batch of members between steps: their rows
    stacked as samples u (row kinds x members x n) and as the rfft
    coefficients uh that the next step starts from (of rho - M and w for
    Euler-Poisson, of sigma - M for Keller-Segel), and each member's clock
    and ParamSet.  A step replaces u, uh and times with new arrays."""

    __slots__ = ("u", "uh", "times", "ps", "_m")

    def __init__(self, u, uh, times, ps):
        self.u, self.uh, self.times, self.ps = u, uh, list(times), tuple(ps)
        self._m = None

    @property
    def members(self) -> _Members:
        """The Euler-Poisson batch's _Members, looked up once."""
        if self._m is None:
            self._m = _members(self.ps)
        return self._m

    def take(self, keep: list) -> "Rows":
        """The batch of the members at positions keep."""
        return Rows(self.u[:, keep], self.uh[:, keep],
                    [self.times[j] for j in keep], [self.ps[j] for j in keep])

    def column(self, j: int) -> tuple:
        """Member j's samples (a copy, which a state may keep without the
        batch), coefficients, clock and ParamSet."""
        return self.u[:, j].copy(), self.uh[:, j], self.times[j], self.ps[j]

    @classmethod
    def stack(cls, columns) -> "Rows":
        """The batch of members given as columns."""
        u, uh, times, ps = zip(*columns)
        return cls(np.stack(u, axis=1), np.stack(uh, axis=1), times, ps)


def _rows_of(states, ps, names) -> Rows:
    """The batch of states, `names` their fields (rho and w, or sigma):
    their samples and the rfft of their rows, the members' shared mass
    level M subtracted from the first."""
    u = np.array([[getattr(s, name).values for name in names]
                  for s in states]).transpose(1, 0, 2)
    shifted = u.copy()
    shifted[0] -= ps[0].mass_level
    return Rows(u, np.fft.rfft(shifted), [s.time for s in states], ps)


def step_ep_rows(rows: Rows, target: float) -> list:
    """One Lawson RK3 step toward time `target` of every member's rows
    (rho, w), in place; friction acts on the w rows only.  The drivers'
    step.  The members may differ in epsilon only.

    Each member takes dt = min(CFL bound, target - t), the bound
    dt_cfl*h/(advective + sound speed) from its own first stage.  Returns
    per member None or the SolverBreakdown that stopped it; a breakdown
    leaves the other members' steps as they would be alone."""
    if not all(t < target for t in rows.times):
        raise ValueError("every member must be behind the target time")
    m = rows.members
    p = m.p
    u_n = rows.u
    g1, v = _rhs(u_n, rows.uh, m)
    dt = [min(_cfl_bound(p, adv + sound), target - t)
          for (adv, sound), t in zip(_speeds(u_n[0], u_n[1], v, m.ps),
                                     rows.times)]
    uh = _rk3(rows.uh, g1, lambda uh: _rhs(None, uh, m)[0], dt, m.lam)
    u = np.fft.irfft(uh, n=p.grid.n)
    u[0] += p.mass_level
    times = [t + d for t, d in zip(rows.times, dt)]
    rows.u, rows.uh, rows.times = u, uh, times

    rmin, rmax = u[0].min(axis=-1).tolist(), u[0].max(axis=-1).tolist()
    lo, hi = 0.5 * p.rho_lower, 2.0 * p.rho_upper
    out = _check_blowup(times, u)
    for i, (low, high) in enumerate(zip(rmin, rmax)):
        if out[i] is None and (low < lo or high > hi):
            out[i] = RangeBreach(
                f"rho range [{low:.6g}, {high:.6g}] left "
                f"[{lo:.6g}, {hi:.6g}] at tau = {times[i]:.6g}")
    return out


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


def _integrate(rows: Rows, advance, state_at, record, sample_times) -> list:
    """Advance every member of the batch rows to each sample time in turn,
    landing on it exactly, and sample member i there as
    state = state_at(u, time), u its rows of samples, paired with
    record(i, state), or with None when record is None.

    advance(rows, target) takes one step toward target of every member of
    rows, all behind it, in one call, and returns per member None or the
    SolverBreakdown that ends its run.  The rows stay stacked from step to
    step: a member leaves the batch when it lands on the sample time or
    breaks down (keeping its samples so far), and the members that landed
    are stacked again for the next sample time, unless they all landed in
    the same step.  Returns one SimulationResult per member."""
    times = sorted(sample_times)
    if not all(math.isfinite(t) and t >= 0.0 for t in times):
        raise ValueError("sample times must be finite and nonnegative")
    results = [SimulationResult([], "ok") for _ in rows.times]
    members = list(range(len(results)))     # the member in each batch row
    for target in times:
        landed = {}
        outcomes, stepped = [None] * len(members), False
        while True:
            keep = []
            for j, (i, out) in enumerate(zip(members, outcomes)):
                if out is not None:
                    results[i].status, results[i].error = out.status, out
                    continue
                results[i].n_steps += stepped
                if rows.times[j] < target - 1e-12:
                    keep.append(j)
                else:
                    landed[i] = rows.column(j)
            if len(keep) < len(members):
                if not keep:
                    break
                rows, members = rows.take(keep), [members[j] for j in keep]
            outcomes, stepped = advance(rows, target), True
        live = sorted(landed)
        if not live:
            break
        for i in live:
            u, _, time, _ = landed[i]
            state = state_at(u, time)
            results[i].samples.append(
                (state, None if record is None else record(i, state)))
        if live != members:     # a member left the batch before the end
            rows, members = Rows.stack([landed[i] for i in live]), live
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
    state with None.

    The initial rows are transformed once; after that the batch carries
    its rows from step to step, and states are built at sample times
    only."""
    ps = tuple(ps)
    p = _members(ps).p
    validate_initial_data(rho0, w0, p)
    one = _rows_of([EPState(rho=rho0, w=w0)], ps[:1], ("rho", "w"))
    rows = Rows(np.repeat(one.u, len(ps), axis=1),
                np.repeat(one.uh, len(ps), axis=1), [0.0] * len(ps), ps)
    grid = p.grid

    def state_at(u, time):
        return EPState(rho=Field(grid, u[0], tag="density"),
                       w=Field(grid, u[1]), time=time)

    # step_ep_rows is looked up per call, so the benchmark tracer sees it
    return _integrate(rows, lambda rows, target: step_ep_rows(rows, target),
                      state_at,
                      (lambda i, s: record_ep(s, ps[i])) if records else None,
                      sample_times)
