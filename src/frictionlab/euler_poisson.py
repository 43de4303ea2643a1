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
the coefficients the previous step left and from the physical rows its
closing inverse made (`_carried_rows`): rho, w, the inverse gradient of
rho - M and the bracket of the w slope (and at gamma != 2 the pressure
row), which the guards, the samples and the next first stage read.  So
the first stage inverts nothing and makes one forward transform, a later
stage one batched inverse and one batched forward, and the closing
inverse is one call: 1 + 2 + 2 + 1 = 6 FFT calls whatever the member
count (a run transforms its initial data once and inverts its first
stage's other rows once), each a call of the package's FFT seam,
`spectral.rfft` or `spectral.irfft`, which reaches numpy's pocketfft
kernel without numpy.fft's argument handling.  A later stage inverts
the velocity vel = eps v + eps^alpha w, formed in Fourier space, with
rho - M and the bracket.  At gamma = 2 the pressure term
(gamma/eps) d(rho)/dx is linear and is added in Fourier space, so per
member a step transforms 2 rows in its first stage, 3 + 2 in each
later one and 4 at the close: 16 rows, 19 at any other gamma.  At small
n a step costs numpy calls more than flops, so every eps-dependent
factor of the stage is folded into a Fourier symbol with one row per
member (`_members`, built once per batch and read-only), symbols that
act together are stacked (the stacked-symbol rule below), the buffers
of `_rk3`'s stages have room for the rows their inverses add, and the
transforms' inputs and outputs are written in place: 11 numpy calls in
a later stage and 9 in the first at gamma = 2, 13 and 10 otherwise, 63
per step at gamma = 2.  The closing pass takes the min and max of the
rows rho, w and grad_inv in two reductions: min rho and max rho for the
guards, and max |w| = max(max w, -min w) and max |v| for the next
step's CFL bound, so the first stage reduces nothing.

The operand rule: each elementwise op of a step reads operands of one
dtype and one shape, so numpy runs it on its contiguous loop.  A product
on a 2 x 4 x 129 coefficient stack costs about half as much against a
complex array of its own shape as against a real row, a real column or
a shared symbol, which numpy broadcasts and casts on the way.  So each
symbol that multiplies coefficient rows is complex, one row per member,
each factor of the first stage's samples is a real row per member, and
`_rk3` builds its seven Lawson factors once per step as complex rows of
the coefficients' width (the one-member Keller-Segel step passes Python
floats, which numpy reads on its scalar loop).  x + iy times r + 0j is
rx + iry exactly, as it is times the real r, which numpy promotes to
r + 0j: every output bit is that of the real factors.

The allocation rule: a batch steps in buffers of its own (`Rows.work`),
made on its first step and filled in place by every step after: `_rk3`'s
seven factor rows and its stages' buffer, whose room the closing inverse
fills.  Made anew at every step, the factor rows of one member at
n = 2048 (229 KiB, above glibc's 128 KiB mmap threshold) went back to the
kernel when freed, and the next step faulted them in again: 17-22
minor page faults a step in the benchmark's fine-grid run, 90 in a
fresh process.  What a step carries to the next (its coefficients and
rows) is copied out of the buffers, and a batch that members leave
(`Rows.take`) makes buffers of its own.

The stacked-symbol rule: symbols that multiply the same stage's rows
sit in one array, so that one broadcast product forms all their terms
and one sum adds each pair (`_combine`): the later stage's bracket^ and
vel^ from (rho - M)^ and w^ (a 2 x 2 x members x (n/2 + 1) stack), the
closing pass's bracket^, the first stage's vel from w and grad_inv, and
the (-ik keep/eps, keep) that the forward transform's output is
multiplied by.  Every symbol is real or imaginary, and numpy's complex
product with one gives the same bits in either operand order (a general
complex product need not: numpy's loop may fuse one of its
multiply-adds); a sum of two terms does too: the stacked arithmetic is
that of the separate products bit for bit.

One driver path: `simulate_ep_rows` steps members that differ in epsilon
only as rows of one batched step (`step_ep_rows`), each toward its own
next sample time with its own dt, picked from the extrema its rows
carry, and clock; `simulate_ep` is the one-member batch.  The driver
keeps the batch's rows and coefficients stacked (`Rows`) from step to
step and builds states only at sample times.  Batched FFT rows, per-row
reductions and products with per-row columns are bit-identical to the
one-member arithmetic, so a member's trajectory does not depend on its
batch.  A caller that wants a fixed dt samples the run at that spacing:
below the CFL bound, each sample is one step.

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
from .errors import Blowup, RangeBreach, SolverBreakdown
from .spectral import _symbols, irfft, rfft

BLOWUP_THRESHOLD = 1e12
LANDING_ULPS = 4    # a clock this many ulps short of a sample time is on it


class _Members(NamedTuple):
    """The parameters of a batch of members, worked out once per run.
    The members share every parameter but epsilon.  The eps-dependent
    coefficients of the stage kernel are folded into Fourier symbols, one
    row per member: each symbol that multiplies coefficient rows is a
    complex members x (n/2 + 1) array, real or imaginary, and each factor
    of the first stage's samples a real members x n array (the operand
    rule of the module docstring).  Symbols that act on the same stage
    are stacked, so that one product applies them all.  All arrays are
    C-contiguous and read-only."""

    p: ParamSet              # the shared parameters
    ps: tuple                # one ParamSet per member
    linear_pressure: bool    # gamma = 2: the pressure term is linear in rho
    inverse_rows: int        # rows of the closing inverse, 5 at gamma != 2
    lam: np.ndarray          # linear rates, row kinds x members x 1: 0 for
                             # the rho rows, -1/eps^2 for w
    vel_rows: np.ndarray     # (eps^alpha, -eps), 2 x members x n: on the
                             # samples (w, grad_inv), the two shares of vel
    symbols: np.ndarray      # 2 x 2 x members x (n/2 + 1): per column,
                             # on (rho - M)^ and on w^, the shares of
                             # bracket^ and vel^:
                             #   [[eps^-alpha (0 at k = 0), -eps i/k],
                             #    [ik/eps,                  eps^alpha]]
    inv_grad: np.ndarray     # i/k: on (rho - M)^, the inverse gradient -v
    gik_eps: np.ndarray      # (gamma/eps) ik: on (rho - M)^, (gamma/eps) d(rho)/dx,
                             # the pressure term itself when it is linear
    flux_w: np.ndarray       # eps^-alpha keep, 0 at k = 0: on (rho vel)^, the
                             # share -eps^(1-alpha) dv/dtau of the w slope
    post: np.ndarray         # (-ik keep/eps, keep), 2 x members x (n/2 + 1):
                             # on ((rho vel)^, -h^), the rho slope and the
                             # dealiased -h
    eps_1a: tuple            # eps^(1-alpha) per member, for the CFL bound
    eps_sound: tuple         # eps^((alpha-2)/2) per member, for the CFL bound


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

    def column(values):
        return np.array(values)[:, None]

    def rows(*arrays, dtype=complex, width=sym.k.size):
        """The arrays, each broadcast to its own members x width rows of
        dtype, stacked in one read-only array."""
        out = np.empty((len(arrays), len(ps), width), dtype=dtype)
        for row, a in zip(out, arrays):
            row[...] = a
        out.setflags(write=False)
        return out

    eps_col, eps_ma = column(eps), column([e ** (-alpha) for e in eps])
    eps_a = column([e**alpha for e in eps])
    nonzero = np.arange(sym.k.size) > 0     # zeroes the mean, k = 0
    inv_grad, gik_eps, flux_w = rows(
        sym.inv_grad, sym.ik * column([gamma / e for e in eps]),
        eps_ma * (sym.keep * nonzero))
    return _Members(
        p, ps, gamma == 2.0, 4 if gamma == 2.0 else 5,
        rows(0.0, column([-1.0 / e**2 for e in eps]), dtype=float, width=1),
        rows(eps_a, -eps_col, dtype=float, width=p.grid.n),
        rows(eps_ma * nonzero, -eps_col * sym.inv_grad, sym.ik / eps_col,
             eps_a).reshape(2, 2, len(ps), sym.k.size),
        inv_grad, gik_eps, flux_w,
        rows(sym.neg_ik_keep / eps_col, sym.keep),
        tuple(e ** (1.0 - alpha) for e in eps),
        tuple(e ** (0.5 * (alpha - 2.0)) for e in eps))


def _speeds(extrema, m: _Members) -> list:
    """Per member, from its (max rho, max |w|, max |v|): its maximum
    advective and sound speeds, for the CFL bound."""
    gamma = m.p.gamma
    return [(w_max / eps_1a + v_max,
             math.sqrt(gamma * max(rho_max, 0.0) ** (gamma - 1.0)) * eps_sound)
            for (rho_max, w_max, v_max), eps_1a, eps_sound
            in zip(extrema, m.eps_1a, m.eps_sound)]


def _cfl_bound(p: ParamSet, speed: float) -> float:
    return p.dt_cfl * p.grid.h / speed if speed > 0.0 else math.inf


def _blowup(time: float, low: float, high: float,
            peak: float = 0.0) -> Optional[Blowup]:
    """A Blowup at `time` unless -low, high and peak are all at most
    BLOWUP_THRESHOLD, else None.  Each comparison is false for NaN, so a
    row with a NaN fails; no max() is taken over the values, which would
    depend on their order when one is NaN."""
    if -low <= BLOWUP_THRESHOLD and high <= BLOWUP_THRESHOLD \
            and peak <= BLOWUP_THRESHOLD:
        return None
    return Blowup(f"solution blew up at tau = {time:.6g}")


def _extrema(u: np.ndarray) -> tuple:
    """The one extrema pass over stacked rows u (rho, w, grad_inv, ...),
    two reductions: per member min rho, and (max rho, max |w|, max |v|),
    which the next step's CFL bound reads, as Python floats.  max |x| is
    max(max x, -min x), NaN when x holds a NaN, and max |v| is that of
    grad_inv = -v."""
    low = np.minimum.reduce(u[:3], axis=-1)
    high = np.maximum.reduce(u[:3], axis=-1)
    np.maximum(high[1:], -low[1:], out=high[1:])
    return low[0].tolist(), list(zip(*high.tolist()))


def _guards(u: np.ndarray, times, p: ParamSet) -> tuple:
    """The closing guard pass over stacked rows u (rho, w, grad_inv, ...):
    per member None or the SolverBreakdown that stops it (a Blowup before
    a RangeBreach), and the extrema the next step's CFL bound reads
    (`_extrema`)."""
    lows, extrema = _extrema(u)
    lo, hi = 0.5 * p.rho_lower, 2.0 * p.rho_upper
    top = min(hi, BLOWUP_THRESHOLD)
    # one pass clears the whole batch: lo > 0 bounds -min rho as well, and
    # every comparison with a NaN is false
    if all(a >= lo for a in lows) and all(
            b <= top and w_peak <= BLOWUP_THRESHOLD
            for b, w_peak, *_ in extrema):
        return [None] * len(lows), extrema
    out = []
    for a, (b, w_peak, *_), time in zip(lows, extrema, times):
        breakdown = _blowup(time, a, b, w_peak)
        if breakdown is None and (a < lo or b > hi):
            breakdown = RangeBreach(
                f"rho range [{a:.6g}, {b:.6g}] left "
                f"[{lo:.6g}, {hi:.6g}] at tau = {time:.6g}")
        out.append(breakdown)
    return out, extrema


def _combine(factors: np.ndarray, rows: np.ndarray, out=None) -> np.ndarray:
    """factors[0] * rows[0] + factors[1] * rows[1]: one product of the
    stacks and one sum, whose product buffer is freed on return."""
    terms = factors * rows
    return np.add(terms[0], terms[1], out=out)


def _with_room(uh: np.ndarray, rows: int) -> np.ndarray:
    """uh as the head of an inverse input of `rows` rows: uh itself when
    it is one (the stage buffers of `_rk3` are), else a copy in a new
    buffer."""
    if len(uh) == rows:
        return uh
    spectra = np.empty((rows,) + uh.shape[1:], dtype=complex)
    spectra[:len(uh)] = uh
    return spectra


def _carried_rows(uh: np.ndarray, m: _Members, samples=None) -> np.ndarray:
    """The rows a first stage reads, from one batched inverse of the
    coefficients uh[:2] of (rho - M, w): rho, w, the inverse gradient of
    rho - M (that is -v), the bracket (dw/dx / eps + eps^(-alpha) dv/dx)
    and, at gamma != 2, the pressure row (gamma/eps) d(rho)/dx, each
    members x n.  Their coefficients are written after uh[:2], in place
    when uh has the room (`m.inverse_rows` rows), as `_rk3`'s result
    has.  With samples given, (rho, w) are those samples and only the
    other rows are inverted."""
    spectra = _with_room(uh, m.inverse_rows)
    sh = spectra[0]
    _combine(m.symbols[:, 0], spectra[:2], out=spectra[3])
    np.multiply(sh, m.inv_grad, out=spectra[2])
    if not m.linear_pressure:
        np.multiply(sh, m.gik_eps, out=spectra[4])
    n = m.p.grid.n
    if samples is None:
        u = irfft(spectra, n)
        u[0] += m.p.mass_level
        return u
    u = np.empty((len(spectra),) + samples.shape[1:])
    u[:2] = samples
    irfft(spectra[2:], n, out=u[2:])
    return u


def _rhs(u, uh: np.ndarray, m: _Members) -> np.ndarray:
    """Slope G^ of the rfft coefficients uh of the stacked rows
    (rho - M, w), each members x (n/2 + 1), without the stiff friction
    term.  In the first stage u holds the rows the step starts from
    (`_carried_rows`); a later stage passes None.

    One fused spectral kernel.  With vel = eps v + eps^alpha w the w slope
    is -h - eps^(1-alpha) dv/dtau, where

        -h = vel (dw/dx / eps + eps^(-alpha) dv/dx)
             + rho^(gamma-2) (gamma/eps) d(rho)/dx.

    The first stage forms vel = eps^alpha w + (-eps) grad_inv from its
    rows, in one product with the stacked (eps^alpha, -eps), so its only
    FFT call is the forward one.  A later stage makes one batched inverse
    of rho - M, the bracket and vel, whose coefficients
    bracket^ = eps^(-alpha) (rho - M)^ + (ik/eps) w^ (dv/dx = rho - mean
    rho is rho - M with its k = 0 mode zeroed) and
    vel^ = -eps (i/k) (rho - M)^ + eps^alpha w^ come from one product with
    the 2 x 2 symbol stack and one sum of its columns, written into uh's
    room (`_rk3`) or a new buffer.  One product with vel writes
    (rho vel, -h), which one batched forward transforms.
    rho*vel is eps f for the continuity flux f = rho (w/eps^(1-alpha) + v),
    so the rho slope is (-ik keep/eps) (rho vel)^, and
    dv/dtau = -(f - mean f) enters the w slope as
    eps^(-alpha) keep (rho vel)^ with its k = 0 mode zeroed.

    The pressure term: at gamma = 2 it is (gamma/eps) d(rho)/dx, linear,
    and its transform (gamma/eps) ik (rho - M)^ is added to the forward
    output; otherwise its row is inverted too (or carried), and
    rho^(gamma-2) times it joins -h before the forward transform.  So a
    later stage inverts 3 rows per member, 4 when gamma != 2.  The
    transforms' inputs and outputs are written in place."""
    sh = uh[0]
    if u is not None:
        x = u[0:4:3] * _combine(m.vel_rows, u[1:3])   # rho vel, bracket vel
        if not m.linear_pressure:
            x[1] += u[0] ** (m.p.gamma - 2.0) * u[4]
    else:
        # the inverse input (rho - M, bracket, vel[, pressure])^ in uh's
        # room, the bracket's and vel's from (rho - M, w)^ before the
        # bracket takes w's row
        spectra = _with_room(uh, m.inverse_rows)[:m.inverse_rows - 1]
        _combine(m.symbols, spectra[:2, None], out=spectra[1:3])
        if not m.linear_pressure:
            np.multiply(sh, m.gik_eps, out=spectra[3])
        y = irfft(spectra, m.p.grid.n)
        y[0] += m.p.mass_level
        if not m.linear_pressure:
            pressure = y[0] ** (m.p.gamma - 2.0)
            pressure *= y[3]
        # rho and the bracket are read last: their rows take rho*vel and
        # -h, contiguous for the forward transform
        x = y[:2]
        np.multiply(x, y[2], out=x)
        if not m.linear_pressure:
            x[1] += pressure
    g = rfft(x)
    fh, hh = g
    if m.linear_pressure:
        hh += m.gik_eps * sh
    w_flux = m.flux_w * fh
    g *= m.post
    np.subtract(w_flux, hh, out=hh)
    return g


def _rk3(u_n: np.ndarray, g1: np.ndarray, rhs, dt, lam,
         work: Optional[tuple] = None) -> np.ndarray:
    """One Lawson RK3 step (stage times 0, 1/3, 2/3) of du/dtau = lam*u + G(u)
    on stacked rows u_n (row kinds x members x anything), from the first
    stage's slope g1 = G(u_n).  dt holds one step per member and the
    array lam one linear rate per row kind and member (row kinds x
    members x 1).  The rates act pointwise, so the rows may be Fourier
    coefficients as well as samples: the steppers pass coefficients.

    work is None or the buffers (factors, stages) that the step fills
    in place, of u_n's dtype (a batch's `Rows.work`): the seven factor
    rows, 7 x u_n's shape, and the stages' buffer, whose head is u and
    whose other rows are room for the rows a caller inverts with u; None
    makes new ones, without room.  One row kind and member need no
    factor buffer: their factors are Python floats.  At the later stages
    rhs(buffer) gives G(u) as a new array of u's shape; it may overwrite
    the whole buffer, as the step reads u only before calling it.  The
    step returns the stages' buffer, the new rows at its head."""
    # integrating factors over dt/3, 2dt/3 and dt, the stage weights and
    # their products with e1, per row kind and member in Python floats
    # from math.exp (numpy's exp differs from it in the last bit on some
    # arguments); a rate-0 row gets factors of exactly 1.0, as math.exp(0)
    # would give, so its arithmetic is plain RK3
    table = []
    for rates in lam.tolist():
        for (rate,), d in zip(rates, dt, strict=True):
            if rate:
                e1 = math.exp(rate * d / 3.0)
                table += (e1, math.exp(2.0 * rate * d / 3.0),
                          math.exp(rate * d), d / 3.0, 2.0 * d / 3.0 * e1,
                          d / 4.0, 3.0 * e1)
            else:
                table += (1.0, 1.0, 1.0, d / 3.0, 2.0 * d / 3.0, d / 4.0, 3.0)
    factors, buffer = (None, None) if work is None else work
    if len(table) == 7:
        factors = table     # one row kind and member: numpy's scalar loop
    else:
        # each factor as rows of the coefficients' dtype and width, one
        # per row kind and member, so that every product below runs on
        # numpy's contiguous loop (the operand rule), written into the
        # batch's buffer (the allocation rule): 229 KiB for one member at
        # n = 2048, above glibc's 128 KiB mmap threshold
        if factors is None:
            factors = np.empty((7,) + u_n.shape, dtype=u_n.dtype)
        factors[...] = np.array(table).reshape(
            lam.shape[:2] + (7, 1)).transpose(2, 0, 1, 3)
    e1, e2, e3, c1, c2e1, c3, e1_3 = factors

    if buffer is None:
        buffer = np.empty_like(u_n)
    u = buffer[:len(u_n)]
    np.multiply(c1, g1, out=u)
    u += u_n
    u *= e1                 # stage 2: e1 (u_n + c1 g1)
    g = rhs(buffer)
    g *= c2e1
    np.multiply(e2, u_n, out=u)
    u += g                  # stage 3: e2 u_n + c2 e1 g2
    g = rhs(buffer)
    g *= e1_3
    g += e3 * g1
    g *= c3
    np.multiply(e3, u_n, out=u)
    u += g                  # e3 u_n + c3 (e3 g1 + 3 e1 g3)
    return buffer


class Rows:
    """What a driver keeps of a batch of members between steps: the rows
    its next first stage reads, stacked as samples u (row kinds x members
    x n, the solution rows first), the rfft coefficients uh that the next
    step starts from (of rho - M and w for Euler-Poisson, of sigma - M for
    Keller-Segel), and per member its clock, its ParamSet and the extrema
    of its rows that the next step reads (its last guard pass's: max rho,
    max |w| and max |v| for Euler-Poisson, min sigma for Keller-Segel).
    A step replaces u, uh, times and extrema with new values; an
    Euler-Poisson step fills the batch's `work` buffers in place."""

    __slots__ = ("u", "uh", "times", "ps", "extrema", "_m", "_work")

    def __init__(self, u, uh, times, ps, extrema):
        self.u, self.uh, self.times = u, uh, list(times)
        self.ps, self.extrema = tuple(ps), list(extrema)
        self._m = self._work = None

    @property
    def members(self) -> _Members:
        """The Euler-Poisson batch's _Members, looked up once."""
        if self._m is None:
            self._m = _members(self.ps)
        return self._m

    @property
    def work(self) -> tuple:
        """The Euler-Poisson batch's buffers for `_rk3`, made on its first
        step: the seven factor rows (7 x uh's shape) and the stages'
        buffer, with room for the rows of the closing inverse
        (`_Members.inverse_rows` x members x (n/2 + 1)).  Every step of
        the batch fills them in place, and what it carries to the next
        step is copied out of them."""
        if self._work is None:
            shape = self.uh.shape
            self._work = (
                np.empty((7,) + shape, dtype=complex),
                np.empty((self.members.inverse_rows,) + shape[1:],
                         dtype=complex))
        return self._work

    def take(self, keep: list) -> "Rows":
        """The batch of the members at positions keep, which makes buffers
        of its own."""
        return Rows(self.u[:, keep], self.uh[:, keep],
                    [self.times[j] for j in keep], [self.ps[j] for j in keep],
                    [self.extrema[j] for j in keep])


def _transform(states, names, mass_level: float) -> tuple:
    """The samples of the states' fields `names` (rho and w, or sigma),
    stacked as row kinds x members x n, and their rfft with the members'
    shared mass level M subtracted from the first row."""
    u = np.array([[getattr(s, name).values for name in names]
                  for s in states]).transpose(1, 0, 2)
    shifted = u.copy()
    shifted[0] -= mass_level
    return u, rfft(shifted)


def _rows_of(states, ps) -> Rows:
    """The Euler-Poisson batch of states, member i stepped with ps[i]: their
    samples with the other rows a first stage reads, from one inverse."""
    m = _members(tuple(ps))
    u, uh = _transform(states, ("rho", "w"), m.p.mass_level)
    u = _carried_rows(uh, m, u)
    return Rows(u, uh, [s.time for s in states], ps, _extrema(u)[1])


def step_ep_rows(rows: Rows, targets) -> list:
    """One Lawson RK3 step of every member's rows (rho, w) toward its own
    time in `targets`, in place; friction acts on the w rows only.  The
    drivers' step.  The members may differ in epsilon only.

    Each member takes dt = min(CFL bound, target - t), the bound
    dt_cfl*h/(advective + sound speed) from the extrema its rows carry.
    Returns per member None or the SolverBreakdown that stopped it; a
    breakdown leaves the other members' steps as they would be alone."""
    m = rows.members
    p = m.p
    dt = []
    for (adv, sound), t, target in zip(_speeds(rows.extrema, m), rows.times,
                                       targets, strict=True):
        if not t < target:
            raise ValueError("every member must be behind its target time")
        dt.append(min(_cfl_bound(p, adv + sound), target - t))
    # the step runs in the batch's buffers, whose stage rows have room
    # for the rows each inverse adds; the coefficients are carried in a
    # copy, as the next step overwrites the buffer
    spectra = _rk3(rows.uh, _rhs(rows.u, rows.uh, m),
                   lambda uh: _rhs(None, uh, m), dt, m.lam, rows.work)
    uh = spectra[:2].copy()
    u = _carried_rows(spectra, m)
    times = [t + d for t, d in zip(rows.times, dt)]
    out, extrema = _guards(u, times, p)
    rows.u, rows.uh, rows.times, rows.extrema = u, uh, times, extrema
    return out


@dataclass
class SimulationResult:
    """Trajectory samples plus the breakdown that ended the run, if any;
    errors surface here rather than escaping mid-run (the partial
    trajectory is kept on breakdown)."""

    samples: list                      # [(state, record or None), ...]
    error: Optional[SolverBreakdown] = None
    n_steps: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def status(self) -> str:
        """'ok', or the breakdown's status."""
        return "ok" if self.error is None else self.error.status

    def raise_if_failed(self):
        if self.error is not None:
            raise self.error


def _integrate(rows: Rows, advance, state_at, record, sample_times) -> list:
    """Advance each member of the batch rows toward its next sample time,
    in sorted order, landing on it exactly, and sample member i there as
    state = state_at(u, time), u its rows (the samples first, a view that
    state_at copies what it keeps of), paired with record(i, state), or
    with None when record is None.

    advance(rows, targets) takes one step of every member of rows toward
    its target, each behind its own, in one call, and returns per member
    None or the SolverBreakdown that ends its run.  A member is on a
    sample time when its clock is within LANDING_ULPS ulps of it: the
    step of dt = target - t rounds t + dt to within one ulp of the
    target.  The rows stay stacked from step to step: a member leaves
    the batch after its last sample or on a breakdown (keeping its
    samples so far).  A member counts a step whenever its clock moved,
    so a step that ends in a breakdown counts and a step refused before
    it moved the clock does not.  Returns one SimulationResult per
    member."""
    times = sorted(map(float, sample_times))    # Python floats: cheaper
    if not all(math.isfinite(t) and t >= 0.0 for t in times):
        raise ValueError("sample times must be finite and nonnegative")
    landed = [t - LANDING_ULPS * math.ulp(t) for t in times]
    results = [SimulationResult([]) for _ in rows.times]
    members = list(range(len(results)))     # the member in each batch row
    nxt = [0] * len(results)                # each member's next sample time
    outcomes, clocks = [None] * len(members), rows.times
    while True:
        keep = []
        for j, (i, out, clock) in enumerate(zip(members, outcomes, clocks)):
            if rows.times[j] != clock:
                results[i].n_steps += 1
            if out is not None:
                results[i].error = out
                continue
            while nxt[i] < len(times) and rows.times[j] >= landed[nxt[i]]:
                state = state_at(rows.u[:, j], rows.times[j])
                results[i].samples.append(
                    (state, None if record is None else record(i, state)))
                nxt[i] += 1
            if nxt[i] < len(times):
                keep.append(j)
        if len(keep) < len(members):
            if not keep:
                return results
            rows, members = rows.take(keep), [members[j] for j in keep]
        clocks = list(rows.times)
        outcomes = advance(rows, [times[nxt[i]] for i in members])


def simulate_ep(rho0: Field, w0: Field, p: ParamSet,
                sample_times) -> SimulationResult:
    """The one-member simulate_ep_rows."""
    (result,) = simulate_ep_rows(rho0, w0, (p,), sample_times)
    return result


def simulate_ep_rows(rho0: Field, w0: Field, ps, sample_times,
                     records: bool = True) -> list:
    """Sampled trajectories, landing exactly on each sample time, of members
    from the same initial data that differ in epsilon only, stepped
    together by step_ep_rows; each keeps its own dt, clock and next
    sample time.  With records False no diagnostics are computed: each
    sample pairs its state with None.

    The initial rows are transformed once and the first stage's other
    rows inverted once; after that the batch carries its rows from step
    to step, and states are built at sample times only."""
    ps = tuple(ps)
    p = _members(ps).p
    validate_initial_data(rho0, w0, p)
    rows = _rows_of([EPState(rho=rho0, w=w0)] * len(ps), ps)
    grid = p.grid

    def state_at(u, time):
        rho, w = u[:2].copy()
        return EPState(rho=Field(grid, rho, tag="density"), w=Field(grid, w),
                       time=time)

    # step_ep_rows is looked up per call, so the benchmark tracer sees it
    return _integrate(rows, lambda rows, targets: step_ep_rows(rows, targets),
                      state_at,
                      (lambda i, s: record_ep(s, ps[i])) if records else None,
                      sample_times)
