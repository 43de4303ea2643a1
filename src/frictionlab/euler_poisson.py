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
member (built with the batch, `_Batch`, and read-only), symbols that
act together are stacked (the stacked-symbol rule below), and the step
runs in its batch's workspace (the workspace rule below).  The closing
pass takes the min and max of the rows rho, w and grad_inv in two
reductions: min rho and max rho for the guards, and
max |w| = max(max w, -min w) and max |v| for the next step's CFL bound,
so the first stage reduces nothing.

The operand rule: each elementwise op of a step reads operands of one
dtype and one shape, so numpy runs it on its contiguous loop.  A product
on a 2 x 4 x 129 coefficient stack costs about half as much against a
complex array of its own shape as against a real row, a real column, a
shared symbol or a strided view, which numpy broadcasts, casts or copies
through its iterator's buffers on the way.  So each symbol that
multiplies coefficient rows is complex, one row per member, each factor
of the first stage's samples is a real row per member, and each of
`_rk3`'s seven Lawson factors is a contiguous complex array of the
coefficients' shape (the one-member Keller-Segel step passes Python
floats, which numpy reads on its scalar loop).  x + iy times r + 0j is
rx + iry exactly, as it is times the real r, which numpy promotes to
r + 0j: every output bit is that of the real factors.

The workspace rule: a batch steps in a workspace of its own, made with
the batch (`_Batch`, which also holds its symbols, clocks and extrema):
every array a step writes (the carried rows u and coefficients uh, the
inverse inputs and outputs, the forward outputs, the stacked products,
e3 g1, the Lawson factor rows and the extrema) and every view of them
that a step reads.  So each step
runs the same sequence of numpy calls, each with out= into the
workspace, and makes no array or view of its own: 61 calls at
gamma = 2 (9 in the first stage, 14 in each later one, 12 in the RK3
update, 3 to refill the factor rows, 5 in the closing inverse and 4 in
the extrema pass), 67 at any other gamma.  The factors of the rho rows
that do not depend on dt are written once per batch; a step refills the
other ten rows per member.  The step overwrites u and uh in place, so
what outlives it is copied (`state_at`, `_Batch.take`, whose smaller
batch gets a workspace of its own).  Arrays made anew at every step
cost page faults as well as calls: the factor rows of one member at
n = 2048 (229 KiB, above glibc's 128 KiB mmap threshold) went back to
the kernel when freed, and the next step faulted them in again.

The stacked-symbol rule: symbols that multiply the same stage's rows
sit in one array, so that one product forms several terms and one sum
adds each pair: the later stage's bracket^ and vel^ from (rho - M)^ and
w^ (a 2 x 2 x members x (n/2 + 1) stack, one product and one sum per
row, whose operands have one shape), the closing pass's bracket^ (its
first row), the first stage's vel from w and grad_inv, and the
(-ik keep/eps, keep) that the forward transform's output is multiplied
by.  Every symbol is real or imaginary, and numpy's complex product with
one gives the same bits in either operand order (a general complex
product need not: numpy's loop may fuse one of its multiply-adds); a sum
of two terms does too: the stacked arithmetic is that of the separate
products bit for bit.

One driver path: `simulate_ep_rows` steps members that differ in epsilon
only as rows of one batched step (`step_ep_rows`), each toward its own
next sample time with its own dt, picked from the extrema its rows
carry, and clock; `simulate_ep` is the one-member batch.  The driver
keeps the batch's rows and coefficients stacked (`_Batch`, built once
per run) from step to step and builds states only at sample times.
Batched FFT rows, per-row reductions and products with per-row columns
are bit-identical to the one-member arithmetic, so a member's
trajectory does not depend on its batch.  A caller that wants a fixed
dt samples the run at that spacing: below the CFL bound, each sample is
one step.

dv/dtau comes from pushing the continuity flux through the inverse
gradient: on the torus this collapses to -(flux - mean(flux)), in Fourier
space the dealiased flux with its k = 0 mode zeroed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import EPState, Field, ParamSet, validate_initial_data
from .diagnostics import record_states
from .errors import Blowup, RangeBreach, SolverBreakdown
from .spectral import _symbols, irfft, rfft

BLOWUP_THRESHOLD = 1e12
LANDING_ULPS = 4    # a clock this many ulps short of a sample time is on it


def _speeds(batch: _Batch) -> list:
    """Per member, from the (max rho, max |w|, max |v|) its rows carry:
    its maximum advective and sound speeds, for the CFL bound."""
    gamma = batch.p.gamma
    return [(w_max / eps_1a + v_max,
             math.sqrt(gamma * max(rho_max, 0.0) ** (gamma - 1.0)) * eps_sound)
            for (rho_max, w_max, v_max), eps_1a, eps_sound
            in zip(batch.extrema, batch.eps_1a, batch.eps_sound)]


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


def _extrema(batch: _Batch) -> tuple:
    """The one extrema pass over a batch's carried rows (rho, w,
    grad_inv, ...), two reductions into batch.low and batch.high: per
    member min rho, and (max rho, max |w|, max |v|), which the next step's
    CFL bound reads, as Python floats.  max |x| is max(max x, -min x), NaN
    when x holds a NaN, and max |v| is that of grad_inv = -v."""
    np.minimum.reduce(batch.u3, axis=-1, out=batch.low)
    np.maximum.reduce(batch.u3, axis=-1, out=batch.high)
    np.negative(batch.low_wv, out=batch.low_wv)
    np.maximum(batch.high_wv, batch.low_wv, out=batch.high_wv)
    return batch.low_rho.tolist(), list(zip(*batch.high.tolist()))


def _guards(batch: _Batch, times) -> tuple:
    """The closing guard pass over a batch's carried rows: per member None
    or the SolverBreakdown that stops it at its clock in times (a Blowup
    before a RangeBreach), and the extrema the next step's CFL bound
    reads (`_extrema`)."""
    lows, extrema = _extrema(batch)
    p = batch.p
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


class _Batch:
    """A batch of Euler-Poisson members that share every parameter but
    epsilon (ps; the shared ones in p), made once per run and again for
    each smaller batch (`take`).  Per member it holds its clock (times)
    and the extrema its rows carry to the next step's CFL bound (its last
    guard pass's max rho, max |w| and max |v|).  It also holds the stage
    kernel's symbols, one row per member, complex where they multiply
    coefficients and real where they multiply samples (the operand rule
    of the module docstring), stacked where one product applies them
    together, C-contiguous and read-only; and the workspace the batch
    steps in (the workspace rule).  u and uh are the rows (row kinds x
    members x n, rho and w first) and the coefficients of (rho - M, w)
    that the batch carries from step to step.  A step overwrites them in
    place and replaces times and extrema with new lists, so a caller that
    keeps rows past the next step copies them, as `state_at` and `take`
    do.  Rows below are members x (n/2 + 1) coefficients or members x n
    samples, and R is the closing inverse's row count, 4 at gamma = 2 and
    5 otherwise."""

    def __init__(self, ps):
        ps = self.ps = tuple(ps)
        if not ps:
            raise ValueError("a batch needs at least one member")
        p = self.p = ps[0]
        if any(q.replace(epsilon=p.epsilon) != p for q in ps[1:]):
            raise ValueError("batched members may differ in epsilon only")
        self.times, self.extrema = [], []   # set by _rows_of and take
        alpha, gamma, n = p.alpha, p.gamma, p.grid.n
        eps = [q.epsilon for q in ps]
        sym = _symbols(p.grid)
        shape = (len(ps), sym.k.size)
        # gamma = 2: the pressure term is linear in rho
        self.linear_pressure = gamma == 2.0
        # per member -1/eps^2, the linear rate of the w rows (the rho rows'
        # is 0), and eps^(1-alpha) and eps^((alpha-2)/2) for the CFL bound
        self.rates = tuple(-1.0 / e**2 for e in eps)
        self.eps_1a = tuple(e ** (1.0 - alpha) for e in eps)
        self.eps_sound = tuple(e ** (0.5 * (alpha - 2.0)) for e in eps)

        def column(values):
            return np.array(values)[:, None]

        def stacked(*arrays, dtype=complex, width=sym.k.size):
            """The arrays, each broadcast to its own members x width rows
            of dtype, stacked in one read-only array."""
            out = np.empty((len(arrays), len(ps), width), dtype=dtype)
            for row, a in zip(out, arrays):
                row[...] = a
            out.setflags(write=False)
            return out

        eps_col, eps_ma = column(eps), column([e ** (-alpha) for e in eps])
        eps_a = column([e**alpha for e in eps])
        nonzero = np.arange(sym.k.size) > 0     # zeroes the mean, k = 0
        # i/k: on (rho - M)^, the inverse gradient -v; (gamma/eps) ik: on
        # (rho - M)^, (gamma/eps) d(rho)/dx, the pressure term itself when
        # it is linear; eps^-alpha keep, 0 at k = 0: on (rho vel)^, the
        # share -eps^(1-alpha) dv/dtau of the w slope
        self.inv_grad, self.gik_eps, self.flux_w = stacked(
            sym.inv_grad, sym.ik * column([gamma / e for e in eps]),
            eps_ma * (sym.keep * nonzero))
        # (eps^alpha, -eps), 2 x members x n: on the samples (w, grad_inv),
        # the two shares of vel
        self.vel_rows = stacked(eps_a, -eps_col, dtype=float, width=n)
        # 2 x 2 x members x (n/2 + 1): per row, the shares of bracket^ and
        # of vel^, each on (rho - M)^ and on w^:
        #   [[eps^-alpha (0 at k = 0), ik/eps],
        #    [-eps i/k,                eps^alpha]]
        self.symbols = stacked(
            eps_ma * nonzero, sym.ik / eps_col, -eps_col * sym.inv_grad,
            eps_a).reshape((2, 2) + shape)
        self.symbol_rows = tuple(self.symbols)
        # (-ik keep/eps, keep), 2 x members x (n/2 + 1): on
        # ((rho vel)^, -h^), the rho slope and the dealiased -h
        self.post = stacked(sym.neg_ik_keep / eps_col, sym.keep)

        def coefficients(*lead):
            return np.empty(lead + shape, dtype=complex)

        def samples(count):
            return np.empty((count, len(ps), n))

        # the closing inverse, R rows (rho - M, w, grad_inv, bracket[,
        # pressure]): its input's head is the carried coefficients uh,
        # its output the carried rows u
        rows = 4 if self.linear_pressure else 5
        spectra, u = self.spectra, self.u = coefficients(rows), samples(rows)
        self.uh, self.sh = spectra[:2], spectra[0]
        self.grad_inv_h, self.bracket_h = spectra[2], spectra[3]
        self.rho, self.u3 = u[0], u[:3]
        self.rho_bracket, self.w_grad_inv = u[0:4:3], u[1:3]
        # a later stage's inverse, R - 1 rows (rho - M, bracket, vel[,
        # pressure]): its input's head is the stage rows (rho - M, w)^, and
        # its output's rows (rho, bracket) take the forward transform's
        # input x = (rho vel, -h); the first stage forms x and vel there too
        stage = self.stage = coefficients(rows - 1)
        y = self.y = samples(rows - 1)
        self.stage_u, self.stage_sh = stage[:2], stage[0]
        self.stage_bv_rows = (stage[1], stage[2])
        self.x, self.x_rows, self.vel = y[:2], tuple(y[:2]), y[2]
        if not self.linear_pressure:
            self.pressure_h, self.pressure = spectra[4], u[4]
            self.stage_p, self.y_pressure = stage[3], y[3]
            self.power = samples(1)[0]      # rho^(gamma-2) times the pressure
        # per row of the symbol stack (bracket^, vel^), its products with
        # (rho - M, w)^, whose sum is that row: a later stage's two and
        # the closing bracket^'s
        self.terms = (coefficients(2), coefficients(2))
        self.term_rows = tuple(tuple(t) for t in self.terms)
        # the forward transforms' outputs: the first stage's slope g1, read
        # to the step's end, and a later stage's g; the product of a
        # symbol with a slope row; e3 g1
        self.g1, self.g = coefficients(2), coefficients(2)
        self.g1_rows, self.g_rows = tuple(self.g1), tuple(self.g)
        self.flux, self.e3g1 = coefficients(), coefficients(2)
        # the seven Lawson factors (`_lawson`), each a row per row kind and
        # member (the operand rule); those of the rho rows that do not
        # depend on dt (e1 = e2 = e3 = 1, 3 e1 = 3) are written here, and
        # each step copies the other ten per member out of factor_table,
        # members x 10, flat: (c1, c2 e1, c3) of the rho rows, then all
        # seven of the w rows
        factors = coefficients(7, 2)
        factors[:3, 0] = 1.0
        factors[3, 0] = 3.0
        self.factors = tuple(factors)
        table = np.empty((len(ps), 10), dtype=complex)
        self.factor_table, columns = table.reshape(-1), table.T[..., None]
        self.fills = ((factors[4:, 0], columns[:3]),
                      (factors[:, 1], columns[3:]))
        # the extrema pass's reductions of (rho, w, grad_inv)
        self.low, self.high = np.empty((3, len(ps))), np.empty((3, len(ps)))
        self.low_rho, self.low_wv = self.low[0], self.low[1:]
        self.high_wv = self.high[1:]

    def take(self, keep: list) -> "_Batch":
        """The batch of the members at positions keep, in a workspace of
        its own."""
        batch = _Batch(self.ps[j] for j in keep)
        batch.u[...] = self.u[:, keep]
        batch.uh[...] = self.uh[:, keep]
        batch.times = [self.times[j] for j in keep]
        batch.extrema = [self.extrema[j] for j in keep]
        return batch


def _carried_rows(batch: _Batch, start: int = 0) -> np.ndarray:
    """The rows a first stage reads, written into batch.u from one batched
    inverse of batch.spectra, whose head is the coefficients batch.uh of
    (rho - M, w): rho, w, the inverse gradient of rho - M (that is -v), the
    bracket (dw/dx / eps + eps^(-alpha) dv/dx) and, at gamma != 2, the
    pressure row (gamma/eps) d(rho)/dx.  Their coefficients are written
    after uh.  With start 2, u's rows (rho, w) hold their samples already
    (a new batch's), and only the other rows are inverted."""
    np.multiply(batch.symbol_rows[0], batch.uh, out=batch.terms[0])
    np.add(*batch.term_rows[0], out=batch.bracket_h)
    np.multiply(batch.sh, batch.inv_grad, out=batch.grad_inv_h)
    if not batch.linear_pressure:
        np.multiply(batch.sh, batch.gik_eps, out=batch.pressure_h)
    if start:
        irfft(batch.spectra[start:], batch.p.grid.n, out=batch.u[start:])
    else:
        irfft(batch.spectra, batch.p.grid.n, out=batch.u)
        np.add(batch.rho, batch.p.mass_level, out=batch.rho)
    return batch.u


def _rhs(batch: _Batch, first: bool) -> np.ndarray:
    """Slope G^ of the rfft coefficients of the stacked rows (rho - M, w),
    each members x (n/2 + 1), without the stiff friction term, written
    into the batch's workspace: g1 for the first stage, which reads the
    rows the step starts from (batch.u, `_carried_rows`) and batch.uh, g
    for a later one (first false), which reads the stage rows
    batch.stage_u.

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
    vel^ = -eps (i/k) (rho - M)^ + eps^alpha w^ come from one product and
    one sum per row of the 2 x 2 symbol stack, written after the stage's
    (rho - M)^.  One product with vel writes (rho vel, -h), which
    one batched forward transforms.
    rho*vel is eps f for the continuity flux f = rho (w/eps^(1-alpha) + v),
    so the rho slope is (-ik keep/eps) (rho vel)^, and
    dv/dtau = -(f - mean f) enters the w slope as
    eps^(-alpha) keep (rho vel)^ with its k = 0 mode zeroed.

    The pressure term: at gamma = 2 it is (gamma/eps) d(rho)/dx, linear,
    and its transform (gamma/eps) ik (rho - M)^ is added to the forward
    output; otherwise its row is inverted too (or carried), and
    rho^(gamma-2) times it joins -h before the forward transform.  So a
    later stage inverts 3 rows per member, 4 when gamma != 2."""
    x = batch.x
    if first:
        np.multiply(batch.vel_rows, batch.w_grad_inv, out=x)
        np.add(*batch.x_rows, out=batch.vel)
        # rho vel, bracket vel
        np.multiply(batch.rho_bracket, batch.vel, out=x)
        if not batch.linear_pressure:
            power = np.power(batch.rho, batch.p.gamma - 2.0, out=batch.power)
            power *= batch.pressure
        g, sh, (fh, hh) = batch.g1, batch.sh, batch.g1_rows
    else:
        # the bracket's and vel's coefficients from (rho - M, w)^, before
        # the bracket takes w's row
        for symbols, terms in zip(batch.symbol_rows, batch.terms):
            np.multiply(symbols, batch.stage_u, out=terms)
        for terms, out in zip(batch.term_rows, batch.stage_bv_rows):
            np.add(*terms, out=out)
        if not batch.linear_pressure:
            np.multiply(batch.stage_sh, batch.gik_eps, out=batch.stage_p)
        irfft(batch.stage, batch.p.grid.n, out=batch.y)
        rho = batch.x_rows[0]
        rho += batch.p.mass_level
        if not batch.linear_pressure:
            power = np.power(rho, batch.p.gamma - 2.0, out=batch.power)
            power *= batch.y_pressure
        # rho and the bracket are read last: their rows take rho*vel and
        # -h, contiguous for the forward transform (one product per row:
        # numpy would copy rows that a broadcast product writes in place)
        for row in batch.x_rows:
            np.multiply(row, batch.vel, out=row)
        g, sh, (fh, hh) = batch.g, batch.stage_sh, batch.g_rows
    if not batch.linear_pressure:
        np.add(batch.x_rows[1], power, out=batch.x_rows[1])
    rfft(x, out=g)
    flux = batch.flux
    if batch.linear_pressure:
        hh += np.multiply(batch.gik_eps, sh, out=flux)
    np.multiply(batch.flux_w, fh, out=flux)
    g *= batch.post
    np.subtract(flux, hh, out=hh)
    return g


def _lawson(rate: float, d: float) -> tuple:
    """The seven Lawson RK3 factors of a row at linear rate `rate` over a
    step d, as Python floats: the integrating factors e1, e2 and e3 over
    d/3, 2d/3 and d, 3 e1, and the stage weights c1 = d/3, c2 e1 (c2 =
    2d/3) and c3 = d/4.  They come from math.exp (numpy's exp differs from
    it in the last bit on some arguments); rate 0 gives factors of exactly
    1.0, as math.exp(0) would, so its arithmetic is plain RK3."""
    if rate:
        e1 = math.exp(rate * d / 3.0)
        return (e1, math.exp(2.0 * rate * d / 3.0), math.exp(rate * d),
                3.0 * e1, d / 3.0, 2.0 * d / 3.0 * e1, d / 4.0)
    return (1.0, 1.0, 1.0, 3.0, d / 3.0, 2.0 * d / 3.0, d / 4.0)


def _rk3(u_n: np.ndarray, g1: np.ndarray, rhs, factors, u: np.ndarray,
         e3g1: np.ndarray) -> np.ndarray:
    """One Lawson RK3 step (stage times 0, 1/3, 2/3) of du/dtau = lam*u + G(u)
    on stacked rows u_n, from the first stage's slope g1 = G(u_n), written
    over u_n, which it returns.  factors are the step's seven Lawson
    factors (e1, e2, e3, 3 e1, c1, c2 e1, c3) of `_lawson`, each an array
    of u_n's shape with one rate per row kind and member, or, for one row
    kind and member, a Python float, which numpy reads on its scalar loop.
    The rates act pointwise, so the rows may be Fourier coefficients as
    well as samples: the steppers pass coefficients.

    u and e3g1 are buffers of u_n's shape: u takes the later stages' rows,
    of which rhs() returns G(u), and e3g1 the product e3 g1.  rhs may
    overwrite any buffer but u_n, g1 and e3g1: the step reads u only
    before calling it, and each slope it returns before calling it
    again."""
    e1, e2, e3, e1_3, c1, c2e1, c3 = factors
    np.multiply(c1, g1, out=u)
    u += u_n
    u *= e1                 # stage 2: e1 (u_n + c1 g1)
    g = rhs()
    g *= c2e1
    np.multiply(e2, u_n, out=u)
    u += g                  # stage 3: e2 u_n + c2 e1 g2
    g = rhs()
    g *= e1_3
    g += np.multiply(e3, g1, out=e3g1)
    g *= c3
    np.multiply(e3, u_n, out=u_n)
    u_n += g                # e3 u_n + c3 (e3 g1 + 3 e1 g3)
    return u_n


def _transform(states, names, mass_level: float, u: np.ndarray,
               uh: np.ndarray):
    """Write into u the samples of the states' fields `names` (rho and w,
    or sigma), stacked as row kinds x members x n, and into uh their rfft
    with the members' shared mass level M subtracted from the first
    row."""
    u[...] = np.array([[getattr(s, name).values for name in names]
                       for s in states]).transpose(1, 0, 2)
    shifted = u.copy()
    shifted[0] -= mass_level
    rfft(shifted, out=uh)


def _rows_of(states, batch: _Batch) -> _Batch:
    """batch, loaded with the states, member i's in its row i: their
    samples and clocks, with the other rows a first stage reads, from one
    inverse."""
    _transform(states, ("rho", "w"), batch.p.mass_level, batch.u[:2],
               batch.uh)
    _carried_rows(batch, start=2)
    batch.times = [s.time for s in states]
    batch.extrema = _extrema(batch)[1]
    return batch


def step_ep_rows(batch: _Batch, targets) -> list:
    """One Lawson RK3 step of every member's rows (rho, w) toward its own
    time in `targets`, in place; friction acts on the w rows only.  The
    drivers' step.  The members may differ in epsilon only.

    Each member takes dt = min(CFL bound, target - t), the bound
    dt_cfl*h/(advective + sound speed) from the extrema its rows carry.
    Returns per member None or the SolverBreakdown that stopped it; a
    breakdown leaves the other members' steps as they would be alone."""
    p = batch.p
    dt = []
    for (adv, sound), t, target in zip(_speeds(batch), batch.times, targets,
                                       strict=True):
        if not t < target:
            raise ValueError("every member must be behind its target time")
        dt.append(min(_cfl_bound(p, adv + sound), target - t))
    # the factor rows that depend on dt, from ten values per member
    table = []
    for rate, d in zip(batch.rates, dt):
        table += _lawson(0.0, d)[4:]
        table += _lawson(rate, d)
    batch.factor_table[...] = table
    for factor_rows, columns in batch.fills:
        factor_rows[...] = columns
    _rk3(batch.uh, _rhs(batch, True), lambda: _rhs(batch, False),
         batch.factors, batch.stage_u, batch.e3g1)
    _carried_rows(batch)
    times = [t + d for t, d in zip(batch.times, dt)]
    out, batch.extrema = _guards(batch, times)
    batch.times = times
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


def _integrate(batch, advance, state_at, sample_times) -> list:
    """Advance each member of batch (a `_Batch`, or a Keller-Segel run's
    `keller_segel._Work`) toward its next sample time, in sorted order,
    landing on it exactly, and sample member i there as
    state = state_at(u, time), u its rows (the samples first, a view that
    state_at copies what it keeps of), paired with None: a driver attaches
    the records to the finished run (`_with_records`).

    advance(batch, targets) takes one step of every member of batch
    toward its target, each behind its own, in one call, and returns per
    member None or the SolverBreakdown that ends its run.  A member is on
    a sample time when its clock is within LANDING_ULPS ulps of it: the
    step of dt = target - t rounds t + dt to within one ulp of the
    target.  The rows stay stacked from step to step: a member leaves
    the batch after its last sample or on a breakdown (keeping its
    samples so far; `take`).  A member counts a step whenever its clock
    moved, so a step that ends in a breakdown counts and a step refused
    before it moved the clock does not.  Returns one SimulationResult per
    member.  Raises ValueError unless sample_times is a nonempty 1-D
    sequence of finite, nonnegative numbers."""
    try:
        times = np.asarray(sample_times, dtype=float)
    except (TypeError, ValueError):
        times = np.empty(0)
    if times.ndim != 1 or times.size == 0 or \
            not np.all(np.isfinite(times) & (times >= 0.0)):
        raise ValueError("sample times must be a nonempty 1-D sequence of "
                         f"finite, nonnegative numbers, got {sample_times!r}")
    times = sorted(times.tolist())    # Python floats: cheaper
    landed = [t - LANDING_ULPS * math.ulp(t) for t in times]
    results = [SimulationResult([]) for _ in batch.times]
    members = list(range(len(results)))     # the member in each batch row
    nxt = [0] * len(results)                # each member's next sample time
    outcomes, clocks = [None] * len(members), batch.times
    while True:
        keep = []
        for j, (i, out, clock) in enumerate(zip(members, outcomes, clocks)):
            if batch.times[j] != clock:
                results[i].n_steps += 1
            if out is not None:
                results[i].error = out
                continue
            while nxt[i] < len(times) and batch.times[j] >= landed[nxt[i]]:
                state = state_at(batch.u[:, j], batch.times[j])
                results[i].samples.append((state, None))
                nxt[i] += 1
            if nxt[i] < len(times):
                keep.append(j)
        if len(keep) < len(members):
            if not keep:
                return results
            batch, members = batch.take(keep), [members[j] for j in keep]
        clocks = list(batch.times)
        outcomes = advance(batch, [times[nxt[i]] for i in members])


def _with_records(results, ps) -> list:
    """results, each sample's state paired with its diagnostics record
    under its run's ParamSet in ps, from stacked passes over the run's
    samples (`record_states`)."""
    for result, p in zip(results, ps, strict=True):
        states = [state for state, _ in result.samples]
        result.samples = list(zip(states, record_states(states, p)))
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
    together by step_ep_rows; each keeps its own dt, clock and next
    sample time.  With records False no diagnostics are computed: each
    sample pairs its state with None.

    The initial rows are transformed once and the first stage's other
    rows inverted once; after that the batch carries its rows from step
    to step, and states are built at sample times only.  The records are
    attached after the run, each member's from stacked passes over its
    own samples under its own ParamSet (`_with_records`), a member that
    broke down included."""
    batch = _Batch(ps)
    validate_initial_data(rho0, w0, batch.p)
    _rows_of([EPState(rho=rho0, w=w0)] * len(batch.ps), batch)
    grid = batch.p.grid

    def state_at(u, time):
        rho, w = u[:2].copy()
        return EPState(rho=Field(grid, rho, tag="density"), w=Field(grid, w),
                       time=time)

    # step_ep_rows is looked up per call, so the benchmark tracer sees it
    results = _integrate(
        batch, lambda batch, targets: step_ep_rows(batch, targets), state_at,
        sample_times)
    return _with_records(results, batch.ps) if records else results
