import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from frictionlab import euler_poisson, keller_segel, spectral
from frictionlab.core import EPState, Field, Grid, KSState, ParamSet
from frictionlab.diagnostics import fit_exponential_rate, record_states
from frictionlab.errors import Blowup, RangeBreach, VacuumApproach
from frictionlab.euler_poisson import (
    simulate_ep, simulate_ep_rows, step_ep_rows,
)
from frictionlab.keller_segel import simulate_ks, step_ks_to
from frictionlab.spectral import _symbols, deriv, inverse_gradient


# an infinite slope poisons the step on purpose; the inf * 0 of a complex
# product on the way to the guard warns, and only the guard's verdict is
# tested
INF_SLOPES = [pytest.param(bad, marks=pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning"))
    for bad in (math.inf, -math.inf)]


def _state(grid, rho, w):
    return EPState(rho=Field(grid, rho, tag="density"), w=Field(grid, w))


def _rows(states, ps):
    return euler_poisson._rows_of(states, euler_poisson._Batch(ps))


def _speeds(rho, w, v, p):
    """_speeds of one member's samples rho, w and v."""
    batch = euler_poisson._Batch((p,))
    batch.extrema = [(rho.max(), np.abs(w).max(), np.abs(v).max())]
    ((adv, sound),) = euler_poisson._speeds(batch)
    return adv, sound


def _stable_dt(s, p):
    """The CFL bound dt_cfl*h/(advective + sound speed) of state s,
    its velocity from the public inverse_gradient."""
    v = -inverse_gradient(s.rho.values - p.mass_level, p.grid)
    adv, sound = _speeds(s.rho.values, s.w.values, v, p)
    return p.dt_cfl * p.grid.h / (adv + sound)


def test_equilibrium_is_exact_fixed_point(params, torus64):
    rho0 = Field(torus64, np.ones(torus64.n), tag="density")
    result = simulate_ep(rho0, Field(torus64, np.zeros(torus64.n)), params,
                         [0.0, 0.005])
    assert result.ok and result.n_steps == 1
    new = result.samples[-1][0]
    np.testing.assert_array_equal(new.rho.values, rho0.values)
    np.testing.assert_allclose(new.w.values, 0.0, atol=1e-18)


def test_step_conserves_mass(params, torus64):
    rho0 = Field(torus64, 1.0 + 0.3 * np.cos(torus64.x), tag="density")
    w0 = Field(torus64, 0.05 * np.sin(torus64.x))
    result = simulate_ep(rho0, w0, params, [0.0, 0.05])
    assert result.ok and result.n_steps > 1
    mass0 = torus64.integrate(rho0.values)
    mass1 = torus64.integrate(result.samples[-1][0].rho.values)
    assert abs(mass1 - mass0) <= 1e-12 * abs(mass0)


def test_friction_factor_is_exact(params, torus64):
    # at rho = M and uniform w every slope vanishes: the step is the
    # integrating factor alone, w -> e^{-dt/eps^2} w
    rho0 = Field(torus64, np.ones(torus64.n), tag="density")
    w0 = Field(torus64, np.full(torus64.n, 0.05))
    dt = 0.5 * _stable_dt(EPState(rho=rho0, w=w0), params)
    result = simulate_ep(rho0, w0, params, [0.0, dt])
    assert result.ok and result.n_steps == 1
    new = result.samples[-1][0]
    np.testing.assert_array_equal(new.rho.values, rho0.values)
    np.testing.assert_allclose(
        new.w.values, 0.05 * math.exp(-dt / params.epsilon ** 2), rtol=1e-14)


def _rhs_composed(rho, w, p, dealias):
    """The EP right side composed from the public spectral helpers and the
    reference dealias, one FFT round trip per operation."""
    grid = p.grid
    eps, alpha, gamma, M = p.epsilon, p.alpha, p.gamma, p.mass_level
    source = rho - M
    v = -inverse_gradient(source, grid)
    dxv = source - np.mean(source)
    flux = dealias(rho * (w / eps ** (1.0 - alpha) + v), grid)
    dtau_v = -(flux - np.mean(flux))
    u = eps * v + eps**alpha * w
    g_w = (-u * deriv(w, grid) / eps
           - (gamma / eps) * rho ** (gamma - 2.0) * deriv(rho, grid)
           - eps ** (1.0 - alpha) * dtau_v
           - eps ** (-alpha) * u * dxv)
    return -deriv(flux, grid), dealias(g_w, grid), v


def _band_limited_data(grid, seed):
    """Random (rho, w) with modes up to n/4, so products reach the 2/3
    cutoff."""
    rng = np.random.default_rng(seed)
    modes = np.arange(1, grid.n // 4 + 1)
    x = grid.x[:, None]

    def band_limited(scale):
        amp = scale * rng.uniform(-1.0, 1.0, modes.size) / modes
        phase = rng.uniform(0.0, 2.0 * math.pi, modes.size)
        return np.cos(modes * x + phase) @ amp

    rho = 1.0 + band_limited(0.1)
    w = band_limited(0.05)
    assert rho.min() > 0.5
    return rho, w


def _assert_rhs_matches_composition(rho, w, ps, dealias):
    """The fused kernel on a batch (one row of rho and w per member), at
    the first stage and a later one, against _rhs_composed per member;
    returns the first stage's v."""
    batch = euler_poisson._Batch(ps)
    uh = np.fft.rfft(np.array((rho - batch.p.mass_level, w)))
    # the first stage reads the carried rows, whose third is -v, the later
    # ones only the stage's coefficients
    carried = _carried(batch, uh, np.array((rho, w)))
    first, later = _slopes(batch, uh)
    for g in (first, later):
        g_rho, g_w = np.fft.irfft(g, n=batch.p.grid.n)
        for i, p in enumerate(ps):
            ref_rho, ref_w, _ = _rhs_composed(rho[i], w[i], p, dealias)
            for got, ref in ((g_rho[i], ref_rho), (g_w[i], ref_w)):
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    v = -carried[2]
    for i, p in enumerate(ps):
        ref_v = _rhs_composed(rho[i], w[i], p, dealias)[2]
        assert np.max(np.abs(v[i] - ref_v)) <= 1e-12 * np.max(np.abs(ref_v))
    return v


def _carried(batch, uh, samples=None):
    """A copy of the rows _carried_rows writes into the batch's workspace
    from coefficients uh, with samples given the other rows only."""
    batch.uh[...] = uh
    if samples is None:
        return euler_poisson._carried_rows(batch).copy()
    batch.u[:2] = samples
    return euler_poisson._carried_rows(batch, start=2).copy()


def _slopes(batch, uh):
    """Copies of the first stage's slope from the batch's carried rows
    and coefficients uh, and of a later stage's from stage rows uh."""
    batch.uh[...] = uh
    first = euler_poisson._rhs(batch, True).copy()
    batch.stage_u[...] = uh
    return first, euler_poisson._rhs(batch, False).copy()


@pytest.mark.parametrize("n", [64, 256, 2048])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_fused_rhs_matches_composition(n, alpha, dealias):
    # gamma = 2 adds the linear pressure in Fourier space, any other gamma
    # goes through the inverse transform: both against the composition
    grid = Grid.torus(n)
    rho, w = _band_limited_data(grid, n + int(10 * alpha))
    for gamma in (1.5, 2.0):
        p = ParamSet(epsilon=0.1, alpha=alpha, gamma=gamma, mass_level=1.0,
                     rho_lower=0.25, rho_upper=2.0, grid=grid)
        (v,) = _assert_rhs_matches_composition(rho[None], w[None], [p],
                                               dealias)
        ref_v = _rhs_composed(rho, w, p, dealias)[2]
        assert _speeds(rho, w, v, p) == _speeds(rho, w, ref_v, p)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_fused_rhs_on_a_mixed_epsilon_batch(n, alpha, dealias):
    # every row reads its own member's eps-folded symbols, on both
    # pressure paths
    grid = Grid.torus(n)
    rho, w = np.array([_band_limited_data(grid, n + seed) for seed in range(3)]
                      ).transpose(1, 0, 2)
    for gamma in (1.5, 2.0):
        p = ParamSet(epsilon=0.1, alpha=alpha, gamma=gamma, mass_level=1.0,
                     rho_lower=0.25, rho_upper=2.0, grid=grid)
        ps = [p.replace(epsilon=eps) for eps in (0.2, 0.1, 0.05)]
        _assert_rhs_matches_composition(rho, w, ps, dealias)
        m = euler_poisson._Batch(ps)
        assert m.linear_pressure == (gamma == 2.0)
        # every operand of a hot elementwise op has the dtype and shape of
        # the rows it multiplies, so numpy takes its contiguous loop: the
        # symbols on coefficients are complex members x (n/2 + 1), stacked
        # where one product applies them together, the factors on samples
        # real members x n
        k = n // 2 + 1
        layout = {"inv_grad": (np.complex128, (3, k)),
                  "gik_eps": (np.complex128, (3, k)),
                  "flux_w": (np.complex128, (3, k)),
                  "post": (np.complex128, (2, 3, k)),
                  "symbols": (np.complex128, (2, 2, 3, k)),
                  "vel_rows": (np.float64, (2, 3, n))}
        for name, (dtype, shape) in layout.items():
            a = getattr(m, name)
            assert a.dtype == dtype and a.shape == shape, name
            assert a.flags.c_contiguous, name
            # each symbol is real or imaginary, so its product with a
            # coefficient is the same bits in either operand order
            for row in a.reshape(-1, a.shape[-1]):
                assert not row.real.any() or not row.imag.any(), name
        assert m.eps_1a == tuple(q.epsilon ** (1.0 - alpha) for q in ps)
        assert m.eps_sound == tuple(q.epsilon ** (0.5 * (alpha - 2.0))
                                    for q in ps)
        assert m.rates == tuple(-1.0 / q.epsilon**2 for q in ps)
        for name in layout:
            assert not getattr(m, name).flags.writeable, name


def _rk3_columns(u_n, g1, rhs, dt, lam):
    """The Lawson RK3 step as _rk3 composed it with columns: per row kind
    and member the seven factors in Python floats from math.exp, stacked
    as row kinds x members x 1 real columns."""
    def factors(rate, d):
        e1 = math.exp(rate * d / 3.0)
        return (e1, math.exp(2.0 * rate * d / 3.0), math.exp(rate * d),
                d / 3.0, 2.0 * d / 3.0 * e1, d / 4.0, 3.0 * e1)

    e1, e2, e3, c1, c2e1, c3, e1_3 = np.array([
        [factors(rate, d) for (rate,), d in zip(rates, dt)]
        for rates in lam.tolist()]).transpose(2, 0, 1)[..., None]
    u = c1 * g1
    u += u_n
    u *= e1
    g = rhs(u)
    g *= c2e1
    u = e2 * u_n
    u += g
    g = rhs(u)
    g *= e1_3
    g += e3 * g1
    g *= c3
    u = e3 * u_n
    u += g
    return u


def _dt_telling_the_exps_apart(rate, dt):
    """A step near dt at which numpy's exp differs from math.exp on one of
    the arguments rate dt/3, 2 rate dt/3 and rate dt of _rk3's factors,
    or dt where none is found near it."""
    for j in range(1000):
        d = dt * (1.0 + 1e-4 * j)
        args = np.array([rate * d / 3.0, 2.0 * rate * d / 3.0, rate * d])
        if (np.exp(args) != [math.exp(a) for a in args.tolist()]).any():
            return d
    return dt


def test_rk3_matches_its_column_composition_bit_for_bit(params, cosine_rho):
    # factor rows of the coefficients' dtype and width, the rho rows'
    # constant ones written with the workspace and the others by each
    # step, give every bit of the real columns; on a mixed-eps batch each
    # member's dt is one at which numpy's exp would change a factor, so
    # the factors must come from math.exp
    w0 = Field(params.grid, 0.05 * np.sin(params.grid.x))
    ps = [params.replace(epsilon=e) for e in (0.2, 0.1, 0.05)]
    batch = _rows([EPState(rho=cosine_rho, w=w0)] * len(ps), ps)
    uh = batch.uh.copy()
    g1 = euler_poisson._rhs(batch, True).copy()
    dt = [_dt_telling_the_exps_apart(rate, 1e-3) for rate in batch.rates]
    assert any(d != 1e-3 for d in dt)

    def rhs(u):
        batch.stage_u[...] = u
        return euler_poisson._rhs(batch, False).copy()

    lam = np.array([[[0.0]] * len(ps), [[rate] for rate in batch.rates]])
    want = _rk3_columns(uh, g1, rhs, dt, lam)
    # the step's fill of the factor rows that depend on dt
    assert step_ep_rows(batch, [t + d for t, d in zip(batch.times, dt)]) \
        == [None] * len(ps)
    for factor, column in zip(batch.factors, np.array([
            [euler_poisson._lawson(rate, d) for rate, d in zip(rates, dt)]
            for rates in ([0.0] * len(ps), batch.rates)]).transpose(2, 0, 1)):
        assert factor.dtype == complex and factor.shape == uh.shape
        assert np.array_equal(factor, np.broadcast_to(column[..., None],
                                                      uh.shape))
    got = euler_poisson._rk3(uh, g1, lambda: euler_poisson._rhs(batch, False),
                             batch.factors, batch.stage_u, batch.e3g1)
    assert got is uh
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    # the Keller-Segel row: rate 0, one member, Python-float factors
    p = params
    ks = keller_segel._rows_of(KSState(sigma=cosine_rho), p)
    carried, stage = ks.carried, ks.stage
    g1 = keller_segel._flux_rhs(carried).copy()

    def ks_rhs(sh):
        stage.head[...] = sh
        return keller_segel._flux_rhs(keller_segel._inverse(stage)).copy()

    want = _rk3_columns(ks.uh, g1, ks_rhs, [0.01], np.zeros((1, 1, 1)))
    got = euler_poisson._rk3(
        ks.uh, g1,
        lambda: keller_segel._flux_rhs(keller_segel._inverse(stage)),
        euler_poisson._lawson(0.0, 0.01), stage.head, ks.e3g1)
    assert got.tobytes() == want.tobytes()


class _SeparateSymbols:
    """The stage kernel's arithmetic before its symbols were stacked: one
    members x width array per symbol, each product and sum made on its
    own, v negated in the first stage, the slope dealiased row by row, the
    extrema from separate reductions and the CFL bound from each member's
    own powers of eps."""

    def __init__(self, ps):
        p = ps[0]
        self.p, self.ps, self.linear = p, ps, p.gamma == 2.0
        sym = _symbols(p.grid)
        eps = np.array([q.epsilon for q in ps])[:, None]
        eps_a = np.array([q.epsilon ** p.alpha for q in ps])[:, None]
        eps_ma = np.array([q.epsilon ** (-p.alpha) for q in ps])[:, None]
        nonzero = np.arange(sym.k.size) > 0

        def rows(a, dtype=complex, width=sym.k.size):
            out = np.empty((len(ps), width), dtype=dtype)
            out[...] = a
            return out

        self.eps, self.eps_a = rows(eps, float, p.grid.n), \
            rows(eps_a, float, p.grid.n)
        self.inv_grad, self.vel_sh = rows(sym.inv_grad), \
            rows(-eps * sym.inv_grad)
        self.vel_w, self.keep = rows(eps_a), rows(sym.keep)
        self.ik_eps, self.dxv_eps = rows(sym.ik / eps), rows(eps_ma * nonzero)
        self.gik_eps = rows(sym.ik * (p.gamma / eps))
        self.div_eps = rows(sym.neg_ik_keep / eps)
        self.flux_w = rows(eps_ma * (sym.keep * nonzero))

    def inverse_input(self, uh, head):
        sh, wh = uh
        spectra = np.empty((head + (1 if self.linear else 2),) + sh.shape,
                           dtype=complex)
        np.multiply(wh, self.ik_eps, out=spectra[head])
        spectra[head] += sh * self.dxv_eps
        if not self.linear:
            np.multiply(sh, self.gik_eps, out=spectra[head + 1])
        return spectra

    def carried_rows(self, uh):
        spectra = self.inverse_input(uh, 3)
        np.multiply(uh[0], self.inv_grad, out=spectra[2])
        spectra[:2] = uh
        u = np.fft.irfft(spectra, n=self.p.grid.n)
        u[0] += self.p.mass_level
        return u

    def rhs(self, u, uh):
        sh, wh = uh
        if u is not None:
            rho, w, grad_inv, bracket = u[:4]
            pressure = u[4] if not self.linear else None
            v = -grad_inv
            vel = self.eps * v
            vel += self.eps_a * w
            x = np.empty((2,) + rho.shape)
        else:
            spectra = self.inverse_input(uh, 2)
            spectra[0] = sh
            np.multiply(sh, self.vel_sh, out=spectra[1])
            spectra[1] += self.vel_w * wh
            y = np.fft.irfft(spectra, n=self.p.grid.n)
            rho, vel, bracket = y[:3]
            pressure = y[3] if not self.linear else None
            rho += self.p.mass_level
            v = None
            x = y[1:3]
        flux, minus_h = x
        if self.linear:
            np.multiply(vel, bracket, out=minus_h)
        else:
            np.add(vel * bracket, rho ** (self.p.gamma - 2.0) * pressure,
                   out=minus_h)
        np.multiply(rho, vel, out=flux)
        g = np.fft.rfft(x)
        fh, hh = g
        if self.linear:
            hh += self.gik_eps * sh
        w_flux = self.flux_w * fh
        np.multiply(fh, self.div_eps, out=fh)
        np.multiply(hh, self.keep, out=hh)
        np.subtract(w_flux, hh, out=hh)
        return g, v

    def extrema(self, u, v):
        """Per member (max rho, max |w|, max |v|)."""
        return list(zip(u[0].max(axis=-1).tolist(),
                        np.abs(u[1]).max(axis=-1).tolist(),
                        np.abs(v).max(axis=-1).tolist()))

    def dt(self, extrema, times, targets):
        out = []
        for q, (rho_max, w_max, v_max), t, target in zip(
                self.ps, extrema, times, targets):
            eps, alpha, gamma = q.epsilon, q.alpha, q.gamma
            adv = w_max / eps ** (1.0 - alpha) + v_max
            sound = math.sqrt(gamma * max(rho_max, 0.0) ** (gamma - 1.0)) \
                * eps ** (0.5 * (alpha - 2.0))
            speed = adv + sound
            bound = q.dt_cfl * q.grid.h / speed if speed > 0.0 else math.inf
            out.append(min(bound, target - t))
        return out


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("gamma", [2.0, 1.5])
def test_stage_kernel_matches_its_old_composition_bit_for_bit(params,
                                                               cosine_rho,
                                                               gamma):
    # the stacked symbols, the column sums, the one extrema pass and the
    # per-member constants reorder only commuting products and sums, so
    # on a mixed-eps batch, after a few steps, the closing rows, the
    # first stage's and a later stage's slopes, v, the extrema and dt are
    # the old arithmetic's bit for bit
    ps = [params.replace(epsilon=e, gamma=gamma) for e in (0.2, 0.1, 0.05)]
    w0 = Field(params.grid, 0.05 * np.sin(params.grid.x))
    batch = _rows([EPState(rho=cosine_rho, w=w0)] * len(ps), ps)
    for _ in range(3):
        assert step_ep_rows(batch, [1.0] * 3) == [None] * 3
    old = _SeparateSymbols(ps)
    u, uh = batch.u.copy(), batch.uh.copy()
    _same_bits(_carried(batch, uh), old.carried_rows(uh))
    _same_bits(u, old.carried_rows(uh))
    g1, v = old.rhs(u, uh)
    stage = uh + 1e-3 * g1          # a later stage's coefficients
    first = euler_poisson._rhs(batch, True)
    _same_bits(first, g1)
    batch.stage_u[...] = stage
    _same_bits(euler_poisson._rhs(batch, False), old.rhs(None, stage)[0])
    _same_bits(-u[2], v)
    assert batch.extrema == old.extrema(u, v)
    times, targets = [0.5, 0.25, 0.125], [1.0, 1.0, 0.125 + 1e-4]
    got = [min(euler_poisson._cfl_bound(q, adv + sound), target - t)
           for q, (adv, sound), t, target in zip(
               ps, euler_poisson._speeds(batch), times, targets)]
    assert got == old.dt(old.extrema(u, v), times, targets)
    assert got[2] == targets[2] - times[2] < got[0]
    flags, extrema = euler_poisson._guards(batch, times)
    assert flags == [None] * 3 and extrema == batch.extrema


def test_cfl_guard_uses_the_stable_dt_bound(params, torus64):
    # with advective and sound speeds alike, a bound on their maximum
    # instead of their sum would let the step grow by 1.8 or more
    s = _state(torus64, 1.0 + 0.3 * np.cos(torus64.x),
               4.8 * np.sin(torus64.x))
    v = -inverse_gradient(s.rho.values - params.mass_level, torus64)
    adv, sound = _speeds(s.rho.values, s.w.values, v, params)
    assert 0.8 < adv / sound < 1.25
    rows = _rows([s], [params])
    step_ep_rows(rows, [1.0])
    assert rows.times == [params.dt_cfl * torus64.h / (adv + sound)]


def test_stable_dt_is_infinite_at_zero_speed(params, torus64):
    # rho = 0 and w = 0: no advection and no sound, so no CFL bound; the
    # step spans the whole interval (and breaches the range)
    rows = _rows([_state(torus64, np.zeros(torus64.n), np.zeros(torus64.n))],
                 [params])
    (out,) = step_ep_rows(rows, [0.5])
    assert rows.times == [0.5]
    assert isinstance(out, RangeBreach)


def test_stable_dt_scales_with_stiffness(torus64, params):
    # sound speed carries eps^((alpha-2)/2): smaller eps, smaller dt
    s = _state(torus64, 1.0 + 0.3 * np.cos(torus64.x), np.zeros(torus64.n))
    rows = _rows([s, s], [params, params.replace(epsilon=0.025)])
    assert step_ep_rows(rows, [1.0, 1.0]) == [None, None]
    dt_01, dt_0025 = rows.times
    assert dt_0025 < dt_01
    ratio = dt_01 / dt_0025
    assert ratio == pytest.approx(2.0, rel=0.05)  # sqrt(0.1/0.025) = 2


def test_range_breach_detected(torus64, params):
    # rho below rho_lower/2 must trip the a-priori range guard; such data
    # fails validation, so the step is taken on rows built by hand
    rows = _rows([_state(torus64, 1.0 + 0.9 * np.cos(torus64.x),
                         np.zeros(torus64.n))], [params])
    (out,) = step_ep_rows(rows, [1.0])
    assert isinstance(out, RangeBreach)


def test_simulate_equilibrium_trajectory(params, torus64, zero_w):
    rho0 = Field(torus64, np.ones(torus64.n), tag="density")
    result = simulate_ep(rho0, zero_w, params, [0.0, 1.0, 2.0])
    assert result.ok and result.status == "ok"
    assert len(result.samples) == 3
    for state, rec in result.samples:
        np.testing.assert_array_equal(state.rho.values, rho0.values)
        assert rec.sup_dev == 0.0


def test_simulate_rejects_invalid_data(params, torus64, zero_w):
    from frictionlab.errors import MeanDefect
    rho0 = Field(torus64, np.full(torus64.n, 1.01), tag="density")
    with pytest.raises(MeanDefect):
        simulate_ep(rho0, zero_w, params, [0.0, 0.5])


def test_simulate_hits_sample_times(params, cosine_rho, zero_w):
    times = [0.0, 0.31, 0.75, 1.0]
    result = simulate_ep(cosine_rho, zero_w, params, times)
    assert result.ok
    assert [s.time for s, _ in result.samples] == pytest.approx(times)


@pytest.mark.parametrize("solver", ["ep", "ks"])
@pytest.mark.parametrize("times", [
    [0.0, math.nan, -1.0, 0.5],
    [-1e-3, 0.5],
    [0.0, -math.inf],
    # no sample was once a run with status ok, no sample and no step, and
    # a 2-D array a bare TypeError from float()
    [],
    [[0.1, 0.2]],
])
def test_simulate_rejects_bad_sample_times(params, cosine_rho, zero_w,
                                           solver, times):
    with pytest.raises(ValueError, match="sample times"):
        if solver == "ep":
            simulate_ep(cosine_rho, zero_w, params, times)
        else:
            simulate_ks(cosine_rho, params, times)


def test_ep_breakdown_counts_the_step_it_took(monkeypatch, params,
                                             cosine_rho, zero_w):
    # the third step's guard pass stops every member: the step moved the
    # clocks, so each member counts it
    real_guards = euler_poisson._guards
    calls = []

    def guards(batch, times):
        out, extrema = real_guards(batch, times)
        calls.append(None)
        if len(calls) == 3:
            out = [RangeBreach(f"forced at tau = {t:.6g}") for t in times]
        return out, extrema

    monkeypatch.setattr(euler_poisson, "_guards", guards)
    ps = [params.replace(epsilon=e) for e in (0.2, 0.1)]
    for result in simulate_ep_rows(cosine_rho, zero_w, ps, [0.0, 1.0],
                                   records=False):
        assert result.status == "range_breach" and result.n_steps == 3


def test_ks_counts_a_step_only_when_it_moved_the_clock(monkeypatch, params,
                                                       torus64, cosine_rho):
    # data at the vacuum guard is refused before the first step: no step;
    # a step whose closing inverse reaches the guard is taken and counted
    touching = Field(torus64, np.maximum(1.0 + np.cos(torus64.x), 0.0),
                     tag="density")
    result = simulate_ks(touching, params, [0.0, 1.0], records=False)
    assert result.status == "vacuum" and result.n_steps == 0

    real_inverse = keller_segel._inverse
    calls = []

    def inverse(side):
        side = real_inverse(side)
        calls.append(None)
        if len(calls) == 6:         # the closing inverse of step 2
            side.rows[0, :, 5] = 0.0
        return side

    monkeypatch.setattr(keller_segel, "_inverse", inverse)
    result = simulate_ks(cosine_rho, params, [0.0, 1.0], records=False)
    assert result.status == "vacuum" and result.n_steps == 2
    assert "reached the vacuum guard" in str(result.error)


@pytest.mark.parametrize("cls, status", [
    (RangeBreach, "range_breach"),
    (VacuumApproach, "vacuum"),
    (Blowup, "nonfinite"),
])
@pytest.mark.parametrize("solver", ["ep", "ks"])
def test_breakdown_ends_run_with_its_status(monkeypatch, params, cosine_rho,
                                            zero_w, solver, cls, status):
    # the k+1-th step returns a breakdown; samples are one step apart, so
    # the run must keep exactly the samples at tau_0..tau_k
    k = 3
    if solver == "ep":
        module, name = euler_poisson, "step_ep_rows"
        run = lambda times: simulate_ep(cosine_rho, zero_w, params, times)
        outcome = lambda err: [err]       # one outcome per member
    else:
        module, name = keller_segel, "step_ks_to"
        run = lambda times: simulate_ks(cosine_rho, params, times)
        outcome = lambda err: err
    real_step = getattr(module, name)
    taken = []

    def failing_step(rows, target):
        if len(taken) == k:
            return outcome(cls("injected breakdown"))
        taken.append(target)
        return real_step(rows, target)

    monkeypatch.setattr(module, name, failing_step)
    times = [1e-3 * j for j in range(10)]
    result = run(times)
    assert cls.status == status
    assert result.status == status and not result.ok
    assert result.n_steps == k
    assert [s.time for s, _ in result.samples] == pytest.approx(times[:k + 1])
    with pytest.raises(cls) as info:
        result.raise_if_failed()
    assert info.value is result.error


def _reference_run(step, rows, state_at, record, sample_times):
    """The hand-driven loop: step(rows, target), each step of
    dt = min(stable dt, target - t), until the one-member batch rows lands
    on each sample time; a breakdown ends the run with its status, and a
    step counts when it moved the clock."""
    samples, n_steps = [], 0
    for target in sample_times:
        while rows.times[0] < target - 1e-12:
            clock = rows.times[0]
            out = step(rows, target)
            n_steps += rows.times[0] != clock
            if out is not None:
                return samples, n_steps, out.status
        state = state_at(rows.u[:, 0].copy(), rows.times[0])
        samples.append((state, record(state)))
    return samples, n_steps, "ok"


def _assert_same_run(result, reference):
    samples, n_steps, status = reference
    assert result.status == status and result.n_steps == n_steps
    assert len(result.samples) == len(samples)
    for (a, ra), (b, rb) in zip(result.samples, samples):
        assert a.time == b.time and ra == rb
        for name in ("rho", "w", "sigma"):
            if hasattr(a, name):
                assert np.array_equal(getattr(a, name).values,
                                      getattr(b, name).values)


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_simulate_ep_equals_the_stable_dt_loop(n, alpha):
    # the driver's sampling (landing, step count, records) must be the
    # hand loop of step_ep_rows bit for bit, whatever the grid and scaling
    grid = Grid.torus(n)
    p = ParamSet(epsilon=0.1, alpha=alpha, gamma=2.0, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=grid, t_end=0.5)
    rho0 = Field(grid, 1.0 + 0.3 * np.cos(grid.x), tag="density")
    w0 = Field(grid, 0.05 * np.sin(grid.x))
    times = np.linspace(0.0, p.t_end, 11)
    result = simulate_ep(rho0, w0, p, times)
    assert result.ok and result.n_steps > len(times)
    _assert_same_run(result, _reference_run(
        lambda rows, target: step_ep_rows(rows, [target])[0],
        _rows([EPState(rho=rho0, w=w0)], [p]),
        lambda u, time: EPState(rho=Field(grid, u[0], tag="density"),
                                w=Field(grid, u[1]), time=time),
        lambda s: record_states([s], p)[0], times))


@pytest.mark.parametrize("n, amp", [(64, 0.3), (512, 0.3), (64, 1.0)])
def test_simulate_ks_equals_the_stable_dt_loop(n, amp):
    # amp = 1 touches vacuum: both end on the first step, status vacuum
    grid = Grid.torus(n)
    p = ParamSet(epsilon=0.1, alpha=1.0, gamma=2.0, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=grid, t_end=2.0)
    sigma0 = Field(grid, 1.0 + amp * np.cos(grid.x), tag="density")
    times = np.linspace(0.0, p.t_end, 21)
    result = simulate_ks(sigma0, p, times)
    assert result.ok == (amp < 1.0)
    _assert_same_run(result, _reference_run(
        step_ks_to, keller_segel._rows_of(KSState(sigma=sigma0), p),
        lambda u, time: KSState(sigma=Field(grid, u[0], tag="density"),
                                time=time),
        lambda s: record_states([s], p)[0], times))


def test_unsorted_repeated_times_give_the_sorted_hand_loop():
    # the drivers sample the sorted times and a repeated time once per
    # repeat: each member of an EP batch, stepped toward its own next
    # sample time, and a KS run equal the hand loop on the sorted times
    grid = Grid.torus(64)
    p = ParamSet(epsilon=0.1, alpha=1.0, gamma=2.0, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=grid, t_end=0.5)
    rho0 = Field(grid, 1.0 + 0.3 * np.cos(grid.x), tag="density")
    w0 = Field(grid, 0.05 * np.sin(grid.x))
    times = [0.5, 0.0, 0.25, 0.5]
    members = [p.replace(epsilon=e) for e in (0.2, 0.1)]
    batch = simulate_ep_rows(rho0, w0, members, times)
    for result, q in zip(batch, members, strict=True):
        assert result.ok and len(result.samples) == len(times)
        _assert_same_run(result, _reference_run(
            lambda rows, target: step_ep_rows(rows, [target])[0],
            _rows([EPState(rho=rho0, w=w0)], [q]),
            lambda u, time: EPState(rho=Field(grid, u[0], tag="density"),
                                    w=Field(grid, u[1]), time=time),
            lambda s: record_states([s], q)[0], sorted(times)))
    result = simulate_ks(rho0, p, times)
    assert result.ok and len(result.samples) == len(times)
    _assert_same_run(result, _reference_run(
        step_ks_to, keller_segel._rows_of(KSState(sigma=rho0), p),
        lambda u, time: KSState(sigma=Field(grid, u[0], tag="density"),
                                time=time),
        lambda s: record_states([s], p)[0], sorted(times)))


@pytest.mark.parametrize("eps, alpha", [(0.1, 1.0), (0.05, 1.5), (0.2, 0.5)])
def test_step_ep_is_third_order_in_dt(torus64, eps, alpha):
    # self-convergence of the step under dt halving: 16 to 256 steps over
    # T = 8 stable dt of the initial state, one step per sample interval
    p = ParamSet(epsilon=eps, alpha=alpha, gamma=2.0, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=torus64)
    s0 = _state(torus64, 1.0 + 0.3 * np.cos(torus64.x), np.zeros(torus64.n))
    t_end = 8.0 * _stable_dt(s0, p)
    finals = []
    for n_steps in (16, 32, 64, 128, 256):
        result = simulate_ep_rows(s0.rho, s0.w, [p],
                                  np.linspace(0.0, t_end, n_steps + 1),
                                  records=False)[0]
        assert result.ok and result.n_steps == n_steps
        s = result.samples[-1][0]
        finals.append(np.concatenate((s.rho.values, s.w.values)))
    errors = [np.max(np.abs(a - b)) for a, b in zip(finals, finals[1:])]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders[-2:]) >= 2.8, orders


def test_energy_decreases_post_layer(torus64, zero_w):
    from frictionlab.core import ParamSet
    p = ParamSet(epsilon=0.05, alpha=1.0, gamma=2.0, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=torus64, t_end=1.0)
    rho0 = Field(torus64, 1.0 + 0.3 * np.cos(torus64.x), tag="density")
    result = simulate_ep(rho0, zero_w, p, np.linspace(0.0, 1.0, 11))
    e = [rec.e_total for _, rec in result.samples
         if rec.tau >= 0.1 - 1e-12]
    assert all(b <= a * (1.0 + 1e-12) for a, b in zip(e, e[1:]))


def test_initial_layer_kills_ill_prepared_w(torus64):
    from frictionlab.core import ParamSet
    eps = 0.1
    p = ParamSet(epsilon=eps, alpha=1.0, gamma=2.0, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=torus64, t_end=1.0)
    rho0 = Field(torus64, np.ones(torus64.n), tag="density")
    w0 = Field(torus64, 0.01 * np.sin(torus64.x))
    horizon = 5.0 * eps ** (2.0 - p.alpha) * math.log(10.0)
    result = simulate_ep(rho0, w0, p, [0.0, horizon])
    assert result.ok
    w_norm = [float(np.max(np.abs(s.w.values))) for s, _ in result.samples]
    assert w_norm[1] <= w_norm[0] / 10.0


def test_modal_decay_matches_slow_root(torus64):
    # single-mode perturbation decays at the slow dispersion rate
    from frictionlab.core import ParamSet
    from frictionlab.spectrum import DispersionQuery, dispersion_roots
    p = ParamSet(epsilon=0.05, alpha=1.0, gamma=2.0, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=torus64, t_end=1.0)
    rho0 = Field(torus64, 1.0 + 1e-6 * np.cos(torus64.x), tag="density")
    w0 = Field(torus64, np.zeros(torus64.n))
    times = np.linspace(0.0, 1.0, 11)
    result = simulate_ep(rho0, w0, p, times)
    amps = [(s.time, 2.0 * abs(np.fft.rfft(s.rho.values)[1]) / torus64.n)
            for s, _ in result.samples]
    rate, _ = fit_exponential_rate(amps, (0.0, 1.0))
    lam = dispersion_roots(DispersionQuery(
        epsilon=0.05, alpha=1.0, gamma=2.0, M=1.0, k=1.0)).lambda_slow
    assert rate == pytest.approx(-lam.real, rel=0.01)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2e12])
def test_blowup_check_flags_only_its_own_member(params, bad):
    # stacked rows (row kinds x members x n) in a batch's workspace, as
    # the stepper holds them: a bad value in the rho rows or in the w rows
    # flags its member only
    batch = euler_poisson._Batch((params,) * 3)
    alone = euler_poisson._Batch((params,))
    for row in (0, 1):
        batch.u[...] = 1.0
        batch.u[row, 1, 5] = bad
        flags, _ = euler_poisson._guards(batch, [0.1, 0.2, 0.3])
        assert flags[0] is None and flags[2] is None
        assert isinstance(flags[1], Blowup)
        assert "0.2" in str(flags[1])
        alone.u[...] = batch.u[:, 1:2]
        (flag,), _ = euler_poisson._guards(alone, [0.2])
        assert isinstance(flag, Blowup)
    batch.u[1, 1, 5] = 1e12       # the threshold itself is still finite
    assert euler_poisson._guards(batch, [0.1, 0.2, 0.3])[0] == [None] * 3


@pytest.mark.parametrize("bad", [math.nan, *INF_SLOPES, 2e12])
def test_step_raises_blowup(monkeypatch, params, cosine_rho, zero_w, bad):
    # a poisoned slope ends the run in its first step, which it counts
    real_rhs = euler_poisson._rhs

    def poisoned(batch, first):
        return real_rhs(batch, first) + bad

    monkeypatch.setattr(euler_poisson, "_rhs", poisoned)
    result = simulate_ep(cosine_rho, zero_w, params, [0.0, 0.1])
    assert result.n_steps == 1
    with pytest.raises(Blowup):
        result.raise_if_failed()
    monkeypatch.undo()

    # each guard, row by row: the value poisons the rho rows only, or the
    # w rows only, of the rows a step's closing inverse hands its guards,
    # on a one-member and on a three-member batch
    real_carried = euler_poisson._carried_rows
    batches = ([params], [params.replace(epsilon=e) for e in (0.2, 0.1, 0.05)])
    for row in (0, 1):
        def poisoned_rows(batch, start=0):
            u = real_carried(batch, start)
            if not start:
                u[row, :, 5] = bad
            return u

        monkeypatch.setattr(euler_poisson, "_carried_rows", poisoned_rows)
        for ps in batches:
            for result in simulate_ep_rows(cosine_rho, zero_w, ps, [0.0, 0.1],
                                           records=False):
                assert result.status == "nonfinite" and result.n_steps == 1
                assert isinstance(result.error, Blowup)
    monkeypatch.undo()

    # the same for the sigma row of the Keller-Segel step: every third
    # inverse is a step's closing one
    real_inverse = keller_segel._inverse
    calls = []

    def poisoned_inverse(side):
        side = real_inverse(side)
        calls.append(None)
        if len(calls) % 3 == 0:
            side.rows[0, :, 5] = bad
        return side

    monkeypatch.setattr(keller_segel, "_inverse", poisoned_inverse)
    result = simulate_ks(cosine_rho, params, [0.0, 0.1], records=False)
    assert result.status == "nonfinite" and result.n_steps == 1
    assert isinstance(result.error, Blowup)


@pytest.mark.parametrize("value", [5.0, 0.1])
def test_range_breach_reports_the_rho_range(monkeypatch, params, cosine_rho,
                                            zero_w, value):
    # a finite rho sample beyond [rho_lower/2, 2 rho_upper] stops each
    # member with a RangeBreach naming its own [min, max]
    real_carried = euler_poisson._carried_rows
    seen = []

    def poisoned_rows(batch, start=0):
        u = real_carried(batch, start)
        if not start:
            u[0, :, 5] = value
            seen.append((u[0].min(axis=-1), u[0].max(axis=-1)))
        return u

    monkeypatch.setattr(euler_poisson, "_carried_rows", poisoned_rows)
    ps = [params.replace(epsilon=e) for e in (0.2, 0.1, 0.05)]
    results = simulate_ep_rows(cosine_rho, zero_w, ps, [0.0, 0.1],
                               records=False)
    ((low, high),) = seen
    for i, (result, p) in enumerate(zip(results, ps)):
        assert result.status == "range_breach" and result.n_steps == 1
        tau = min(_stable_dt(EPState(rho=cosine_rho, w=zero_w), p), 0.1)
        assert str(result.error) == (
            f"rho range [{low[i]:.6g}, {high[i]:.6g}] left [0.125, 4] "
            f"at tau = {tau:.6g}")


def test_step_ep_rows_takes_the_stable_dt(params, torus64):
    # each member of a batch steps as it would alone, by its own stable dt
    x = torus64.x
    states = [EPState(rho=Field(torus64, 1.0 + a * np.cos(x), tag="density"),
                      w=Field(torus64, b * np.sin(x)), time=t)
              for a, b, t in ((0.3, 0.0, 0.0), (0.2, 0.1, 0.01),
                              (0.1, 0.2, 0.02))]
    ps = [params.replace(epsilon=e) for e in (0.2, 0.1, 0.05)]
    target = 0.021
    rows = _rows(states, ps)
    assert step_ep_rows(rows, [target] * 3) == [None] * 3
    for j, (s, p) in enumerate(zip(states, ps)):
        dt = min(_stable_dt(s, p), target - s.time)
        assert rows.times[j] == s.time + dt
        alone = _rows([s], [p])
        assert step_ep_rows(alone, [target]) == [None]
        assert alone.times == [rows.times[j]]
        assert np.array_equal(rows.u[:, j], alone.u[:, 0])
        assert np.array_equal(rows.uh[:, j], alone.uh[:, 0])
    assert rows.times[2] == target


def test_step_ep_rows_rejects_bad_batches(params, cosine_rho, zero_w):
    s = EPState(rho=cosine_rho, w=zero_w)
    with pytest.raises(ValueError, match="epsilon only"):
        step_ep_rows(_rows([s, s], [params, params.replace(alpha=1.5)]),
                     [0.1, 0.1])
    rows = _rows([s, s], [params, params.replace(epsilon=0.05)])
    with pytest.raises(ValueError, match="behind"):
        step_ep_rows(rows, [0.0, 0.0])
    with pytest.raises(ValueError, match="at least one"):
        simulate_ep_rows(cosine_rho, zero_w, [], [0.0, 0.1])


def test_step_ep_rows_steps_toward_each_members_target(params, cosine_rho,
                                                       zero_w):
    # each member takes dt = min(its stable dt, its own target - t), and
    # each must be behind its own target, one target per member
    s = EPState(rho=cosine_rho, w=zero_w)
    ps = [params.replace(epsilon=e) for e in (0.2, 0.1)]
    dt = [_stable_dt(s, p) for p in ps]
    rows = _rows([s, s], ps)
    assert step_ep_rows(rows, [0.5 * dt[0], 1.0]) == [None, None]
    assert rows.times == [0.5 * dt[0], dt[1]]
    with pytest.raises(ValueError, match="behind"):
        step_ep_rows(rows, [rows.times[0], 1.0])
    with pytest.raises(ValueError):
        step_ep_rows(rows, [1.0])


def test_ok_batch_stays_stacked(monkeypatch, params, cosine_rho, zero_w):
    # a member leaves the batch only after its last sample or on a
    # breakdown: an ok run of three members takes a sub-batch at most twice
    real_take = euler_poisson._Batch.take
    takes = []

    def counted_take(batch, keep):
        takes.append(keep)
        return real_take(batch, keep)

    monkeypatch.setattr(euler_poisson._Batch, "take", counted_take)
    members = [params.replace(epsilon=e) for e in (0.2, 0.1, 0.05)]
    results = simulate_ep_rows(cosine_rho, zero_w, members,
                               np.linspace(0.0, 0.2, 11), records=False)
    assert all(r.ok for r in results)
    assert len(takes) <= 2


def test_member_breakdown_leaves_the_others(monkeypatch, params, cosine_rho,
                                            zero_w):
    # the 0.1 member's 11th step gets a NaN slope: it must end with status
    # nonfinite after 11 steps, the one that broke down counted, keeping
    # the samples taken so far, while the members batched with it stay
    # equal to their own runs
    p = params.replace(t_end=0.2)
    members = [p.replace(epsilon=e) for e in (0.2, 0.1, 0.05)]
    times = np.linspace(0.0, p.t_end, 21)
    solo = [simulate_ep(cosine_rho, zero_w, q, times) for q in members]
    real_rhs = euler_poisson._rhs
    calls = []

    def poisoned(batch, first):
        g = real_rhs(batch, first)
        eps = [q.epsilon for q in batch.ps]
        if 0.1 in eps:
            calls.append(None)
            if len(calls) == 31:       # stage 1 of its 11th step
                g = g.copy()
                g[1, eps.index(0.1), 3] = np.nan
        return g

    monkeypatch.setattr(euler_poisson, "_rhs", poisoned)
    batch = simulate_ep_rows(cosine_rho, zero_w, members, times)
    broken = batch[1]
    assert broken.status == "nonfinite" and isinstance(broken.error, Blowup)
    assert broken.n_steps == 11
    assert 1 < len(broken.samples) < len(times)
    for (a, ra), (b, rb) in zip(broken.samples, solo[1].samples):
        assert a.time == b.time and ra == rb
        assert np.array_equal(a.rho.values, b.rho.values)
    for i in (0, 2):
        assert batch[i].status == "ok" and batch[i].n_steps == solo[i].n_steps
        for (a, ra), (b, rb) in zip(batch[i].samples, solo[i].samples,
                                    strict=True):
            assert a.time == b.time and ra == rb
            assert np.array_equal(a.rho.values, b.rho.values)
            assert np.array_equal(a.w.values, b.w.values)


@pytest.fixture
def fft_work(monkeypatch):
    """Counts of spectral.rfft/irfft calls and of the rows they transform,
    under every name a package module holds them by (the package makes
    no other transform)."""
    counts = {"calls": 0, "rows": 0}

    def counted(transform):
        def wrapper(a, *args, **kwargs):
            counts["calls"] += 1
            counts["rows"] += math.prod(np.shape(a)[:-1])
            return transform(a, *args, **kwargs)
        return wrapper

    wrappers = {id(f): counted(f) for f in (spectral.rfft, spectral.irfft)}
    for name, module in list(sys.modules.items()):
        if name == "frictionlab" or name.startswith("frictionlab."):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    monkeypatch.setattr(module, attr, wrappers[id(obj)])
    return counts


@pytest.mark.parametrize("gamma, rows_per_step", [(2.0, 16), (1.5, 19)])
def test_ep_run_fft_work(monkeypatch, fft_work, gamma, rows_per_step):
    # per run one forward transform of each member's (rho0 - M, w0) and
    # one inverse of the rows its first stage reads besides them; then
    # per batched step 6 calls: stage 1 forward-transforms (rho vel, -h),
    # a later stage inverts (rho - M, vel, bracket) and forward-transforms
    # (rho vel, -h), and the closing inverse gives (rho, w, -v, bracket)
    # for the guards, the samples and the next first stage; gamma != 2
    # adds the pressure row to each inverse.  Per member step:
    # 2 + 2*(3+2) + 4 = 16 rows
    grid = Grid.torus(64)
    p = ParamSet(epsilon=0.1, alpha=1.0, gamma=gamma, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=grid, t_end=0.1)
    rho0 = Field(grid, 1.0 + 0.3 * np.cos(grid.x), tag="density")
    w0 = Field(grid, 0.05 * np.sin(grid.x))
    real_step = euler_poisson.step_ep_rows
    batch_sizes = []

    def counted_step(rows, targets):
        batch_sizes.append(len(rows.times))
        return real_step(rows, targets)

    monkeypatch.setattr(euler_poisson, "step_ep_rows", counted_step)
    results = simulate_ep_rows(rho0, w0, [p.replace(epsilon=e)
                                          for e in (0.2, 0.1)],
                               np.linspace(0.0, p.t_end, 6), records=False)
    assert all(r.ok for r in results)
    member_steps = sum(r.n_steps for r in results)
    assert sum(batch_sizes) == member_steps > len(batch_sizes) > 0
    assert fft_work["calls"] == 6 * len(batch_sizes) + 2
    carried = 2 if gamma == 2.0 else 3      # -v, bracket[, pressure]
    assert fft_work["rows"] == rows_per_step * member_steps + 2 * (2 + carried)


def test_ks_run_fft_work(fft_work, params, cosine_rho):
    # per run one forward transform of sigma0 - M and one inverse of its
    # inverse gradient row, then per step 6 calls on
    # 1 + 2*(2+1) + 2 = 9 rows
    result = simulate_ks(cosine_rho, params, np.linspace(0.0, 0.5, 6),
                         records=False)
    assert result.ok and result.n_steps > 0
    assert fft_work["calls"] == 6 * result.n_steps + 2
    assert fft_work["rows"] == 9 * result.n_steps + 2


@pytest.mark.parametrize("gamma", [1.5, 2.0])
def test_carried_rows_equal_recomputed_rows(params, cosine_rho, gamma):
    # after a few steps the rows a step carries to the next first stage
    # are a fresh inverse of its coefficients bit for bit, the carried
    # extrema are its samples', and a later stage's slope from the same
    # coefficients (vel formed in Fourier space) matches the first
    # stage's on a mixed-epsilon batch
    ps = [params.replace(epsilon=e, gamma=gamma) for e in (0.2, 0.1, 0.05)]
    w0 = Field(params.grid, 0.05 * np.sin(params.grid.x))
    batch = _rows([EPState(rho=cosine_rho, w=w0)] * 3, ps)
    for _ in range(4):
        assert step_ep_rows(batch, [1.0] * 3) == [None] * 3
    u, uh = batch.u.copy(), batch.uh.copy()
    assert u.shape == (4 if gamma == 2.0 else 5, 3, params.grid.n)
    assert np.array_equal(_carried(batch, uh, u[:2]), u)
    samples = np.fft.irfft(uh, n=params.grid.n)
    samples[0] += params.mass_level
    assert np.array_equal(samples, u[:2])
    assert batch.extrema == list(zip(u[0].max(axis=-1).tolist(),
                                     np.abs(u[1]).max(axis=-1).tolist(),
                                     np.abs(u[2]).max(axis=-1).tolist()))
    first, later = _slopes(batch, uh)
    for got, want in zip(later, first):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    # the Keller-Segel step carries (sigma, v), min sigma and max |v|
    p = params
    ks = keller_segel._rows_of(KSState(sigma=cosine_rho), p)
    for _ in range(4):
        assert step_ks_to(ks, 1.0) is None
    stage = ks.stage
    stage.head[...] = ks.uh
    assert np.array_equal(keller_segel._inverse(stage).rows, ks.u)
    assert ks.extrema == [(ks.u[0].min(), np.abs(ks.u[1]).max())]


@pytest.mark.parametrize("solver, gamma", [("ep", 2.0), ("ep", 1.5),
                                           ("ks", 2.0)])
def test_a_rebuilt_sample_steps_on_like_the_run(solver, gamma):
    # a run restarted from a sample transforms the sample's fields afresh,
    # where the run went on from its carried coefficients; that moves the
    # trajectory by roundoff only
    grid = Grid.torus(64)
    p = ParamSet(epsilon=0.1, alpha=1.0, gamma=gamma, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=grid,
                 t_end=0.5 if solver == "ep" else 2.0)
    rho0 = Field(grid, 1.0 + 0.3 * np.cos(grid.x), tag="density")
    times = [0.0, 0.5 * p.t_end, p.t_end]
    if solver == "ep":
        run = simulate_ep(rho0, Field(grid, 0.05 * np.sin(grid.x)), p, times)
        names = ("rho", "w")
        restart = lambda s, t: simulate_ep(s.rho, s.w, p, [0.0, t])
    else:
        run = simulate_ks(rho0, p, times)
        names = ("sigma",)
        restart = lambda s, t: simulate_ks(s.sigma, p, [0.0, t])
    assert run.ok
    (mid, _), (end, _) = run.samples[1:]
    rest = restart(mid, end.time - mid.time)
    assert rest.ok and rest.n_steps >= 10
    last = rest.samples[-1][0]
    for name in names:
        got, want = getattr(last, name).values, getattr(end, name).values
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("solver", ["ep", "ks"])
def test_samples_land_on_tiny_sample_times(solver):
    # a clock is on a sample time when it is within a few ulps of it; an
    # absolute tolerance of 1e-12 once took the samples of a 1e-11 horizon
    # three at a time, at 7 distinct times, the last at 9e-12
    grid = Grid.torus(64)
    p = ParamSet(epsilon=0.1, alpha=1.0, gamma=2.0, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=grid)
    rho0 = Field(grid, 1.0 + 0.3 * np.cos(grid.x), tag="density")
    times = np.linspace(0.0, 1e-11, 21).tolist()
    if solver == "ep":
        run = simulate_ep(rho0, Field(grid, np.zeros(grid.n)), p, times)
    else:
        run = simulate_ks(rho0, p, times)
    assert run.ok and run.n_steps == 20
    got = [s.time for s, _ in run.samples]
    assert len(set(got)) == len(got) == 21
    for tau, want in zip(got, times):
        assert abs(tau - want) <= euler_poisson.LANDING_ULPS * math.ulp(want)


# one EP run at n = 2048 with a sample every 16 steps or so, printing the
# minor page faults of each step (getrusage, RUSAGE_THREAD where it exists)
_STEP_FAULTS = """
import resource
import numpy as np
from frictionlab import euler_poisson
from frictionlab.core import Field, Grid, ParamSet
who = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)
grid = Grid.torus(2048)
p = ParamSet(epsilon=0.05, alpha=1.0, gamma=2.0, mass_level=1.0,
             rho_lower=0.25, rho_upper=2.0, grid=grid)
real_step, faults = euler_poisson.step_ep_rows, []
def counted(rows, targets):
    before = resource.getrusage(who).ru_minflt
    out = real_step(rows, targets)
    faults.append(resource.getrusage(who).ru_minflt - before)
    return out
euler_poisson.step_ep_rows = counted
run = euler_poisson.simulate_ep(
    Field(grid, 1.0 + 0.3 * np.cos(grid.x), tag="density"),
    Field(grid, np.zeros(grid.n)), p, np.linspace(0.0, 0.05, 21))
assert run.ok and run.n_steps == len(faults)
print(*faults)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor page faults are read from Linux getrusage")
def test_steady_ep_steps_take_no_page_faults():
    # the Lawson factor rows of a one-member batch at n = 2048 fill 229 KiB;
    # made anew at every step, glibc gave them back to the kernel on free
    # and the next step faulted them in again, about 90 minor faults a
    # step in this run, where the batch's own buffers are filled in place.
    # Whether memory goes back to the kernel depends on the allocator's
    # thresholds, which move with what the process has freed before, so
    # the run goes in a fresh interpreter, as a CLI run does
    src = str(Path(euler_poisson.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", _STEP_FAULTS], env=env,
                          capture_output=True, text=True, check=True)
    faults = [int(f) for f in done.stdout.split()]
    assert len(faults) >= 250
    steady = faults[50:250]     # after a warm-up of 50 steps
    assert sum(steady) < len(steady), steady


def _buffers(batch):
    """The arrays and views of an Euler-Poisson batch's workspace that its
    steps write."""
    return [a for a in vars(batch).values()
            if isinstance(a, np.ndarray) and a.flags.writeable]


def test_factor_buffer_reuse_keeps_batches_bit_for_bit(monkeypatch):
    # 4 members at n = 512: every step of a batch runs in the workspace
    # made with it (a factor stack of 230 KiB among its buffers), and its
    # rows u and coefficients uh keep their buffers from step to step; the
    # members leave one by one (take), each smaller batch stepping in a
    # workspace that shares no memory with the old ones, and every
    # member's trajectory stays that of its solo run, bit for bit
    grid = Grid.torus(512)
    p = ParamSet(epsilon=0.1, alpha=1.0, gamma=2.0, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=grid)
    ps = [p.replace(epsilon=e) for e in (0.2, 0.1, 0.05, 0.025)]
    rho0 = Field(grid, 1.0 + 0.3 * np.cos(grid.x), tag="density")
    w0 = Field(grid, 0.05 * np.sin(grid.x))
    times = [0.0, 0.01, 0.02]
    solo = [simulate_ep(rho0, w0, q, times) for q in ps]
    real_step = euler_poisson.step_ep_rows
    batches = []        # (batch, its buffers' addresses), by first step

    def checked(batch, targets):
        u, uh = batch.u, batch.uh
        out = real_step(batch, targets)
        assert batch.u is u and batch.uh is uh
        factors = batch.factors
        assert len(factors) == 7
        assert all(f.shape == uh.shape and f.flags.c_contiguous
                   for f in factors)
        buffers = _buffers(batch)
        assert any(b is u for b in buffers) and any(b is uh for b in buffers)
        addresses = [b.__array_interface__["data"][0] for b in buffers]
        known = [a for b, a in batches if b is batch]
        if known:
            assert known[0] == addresses
        else:
            assert not any(np.shares_memory(a, b)
                           for old, _ in batches for a in _buffers(old)
                           for b in buffers)
            batches.append((batch, addresses))
        return out

    monkeypatch.setattr(euler_poisson, "step_ep_rows", checked)
    batch = simulate_ep_rows(rho0, w0, ps, times)
    assert [r.uh.shape[1] for r, _ in batches] == [4, 3, 2, 1]
    for got, want in zip(batch, solo):
        assert got.ok and want.ok and got.n_steps == want.n_steps
        for (g, _), (w, _) in zip(got.samples, want.samples, strict=True):
            assert g.time == w.time
            assert g.rho.values.tobytes() == w.rho.values.tobytes()
            assert g.w.values.tobytes() == w.w.values.tobytes()


@pytest.mark.parametrize("gamma", [1.5, 2.0])
@pytest.mark.parametrize("members, n", [(4, 256), (1, 2048)])
def test_steady_ep_step_makes_no_arrays(gamma, members, n):
    # a steady step writes only into its batch's workspace: it allocates
    # less than half a coefficient row of the batch (8 KiB and 16 KiB
    # here), where the arrays it made (factor rows, stage buffer, inverse
    # and forward outputs, flux and velocity temporaries, the carried copy
    # of uh) peaked at about 12 rows (100 KiB and 200 KiB); the batch's
    # rows keep their buffers.  numpy's iterator buffers, whose size
    # depends on its version, are held to 16 elements while the step runs
    grid = Grid.torus(n)
    p = ParamSet(epsilon=0.1, alpha=1.0, gamma=gamma, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=grid)
    ps = [p.replace(epsilon=e) for e in (0.2, 0.1, 0.05, 0.025)[:members]]
    state = _state(grid, 1.0 + 0.3 * np.cos(grid.x),
                   0.05 * np.sin(grid.x))
    rows = _rows([state] * members, ps)
    targets = [1.0] * members
    for _ in range(3):          # warm-up
        assert step_ep_rows(rows, targets) == [None] * members
    u, uh = rows.u, rows.uh
    bufsize = np.setbufsize(16)
    tracemalloc.start()
    try:
        assert step_ep_rows(rows, targets) == [None] * members
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        np.setbufsize(bufsize)
    row_bytes = members * (n // 2 + 1) * 16
    assert peak < row_bytes / 2, (peak, row_bytes)
    assert rows.u is u and rows.uh is uh
