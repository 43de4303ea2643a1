import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from frictionlab import euler_poisson
from frictionlab.core import EPState, Field, Grid, KSState
from frictionlab.diagnostics import (
    DERIV_CAP, STACK_POSITIONS, fit_exponential_rate, h2_norm,
    pressure_bracket, record_states,
)
from frictionlab.errors import RangeBreach
from frictionlab.euler_poisson import simulate_ep, simulate_ep_rows
from frictionlab.keller_segel import simulate_ks
from frictionlab.errors import InsufficientSamples, NonPositiveSample, NotTorus
from frictionlab.spectral import deriv


def _state(grid, rho, w):
    return EPState(rho=Field(grid, rho, tag="density"), w=Field(grid, w))


def _record(state, p):
    """The one-state record: record_states of the one-state list."""
    return record_states([state], p)[0]


def test_e0_equilibrium_zero(params, torus64):
    s = _state(torus64, np.ones(torus64.n), np.zeros(torus64.n))
    rec = _record(s, params)
    assert rec.e0 == 0.0
    assert rec.e1 == pytest.approx(0.0, abs=1e-26)
    assert rec.d_total == pytest.approx(0.0, abs=1e-24)


def test_e0_kinetic_term(params, torus64):
    # (eps^alpha / 2) * integral(rho w^2) = (0.1/2) * pi for w = sin
    s = _state(torus64, np.ones(torus64.n), np.sin(torus64.x))
    assert _record(s, params).e0 == pytest.approx(0.05 * math.pi, rel=1e-12)


def test_e0_pressure_bracket_gamma2(params, torus64):
    # gamma = 2 collapses the bracket to (rho - M)^2
    s = _state(torus64, 1.0 + 0.5 * np.cos(torus64.x), np.zeros(torus64.n))
    assert _record(s, params).e0 == pytest.approx(0.25 * math.pi, rel=1e-12)


def test_e1_small_amplitude_quadratic(params, torus64):
    a = 1e-3
    s = _state(torus64, 1.0 + a * np.cos(torus64.x), np.zeros(torus64.n))
    # each of d^1, d^2 contributes (gamma/2) a^2 pi with unit weights
    e1 = _record(s, params).e1
    assert e1 == pytest.approx(2.0 * math.pi * a * a, rel=1e-2)
    s2 = _state(torus64, 1.0 + 2 * a * np.cos(torus64.x),
                np.zeros(torus64.n))
    assert _record(s2, params).e1 / e1 == pytest.approx(4.0, rel=1e-2)


def test_dissipation_friction_scaling(params, torus64):
    # the w-part of d0 carries the stiff weight eps^(alpha-2) = 1/eps
    s = _state(torus64, np.ones(torus64.n), np.sin(torus64.x))
    d_01 = _record(s, params).d_total
    d_005 = _record(s, params.replace(epsilon=0.05)).d_total
    assert d_005 / d_01 == pytest.approx(2.0, rel=1e-12)


def test_norms_closed_forms(params, torus64):
    # rho = M + sin x: the deviation's L2 norm and sup, and the L4 norm
    # of the gradient cos x
    rho = params.mass_level + np.sin(torus64.x)
    rec = _record(_state(torus64, rho, np.zeros(torus64.n)), params)
    assert rec.l2_dev == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert rec.sup_dev <= 1.0
    assert rec.sup_dev == pytest.approx(1.0, abs=5e-3)
    assert rec.grad_l4 == pytest.approx((3 * math.pi / 4) ** 0.25, rel=1e-12)


def test_norms_h2_of_second_mode(torus64):
    f = Field(torus64, np.sin(2 * torus64.x))
    # squared-sum convention: ||f||_H2^2 = sum_j ||d^j f||_L2^2, j = 0..2
    assert h2_norm(f) == pytest.approx(math.sqrt(21 * math.pi), rel=1e-12)


def test_norms_zero_field(params, torus64):
    assert h2_norm(Field(torus64, np.zeros(torus64.n))) == 0.0
    rho = np.full(torus64.n, params.mass_level)
    rec = _record(_state(torus64, rho, np.zeros(torus64.n)), params)
    assert rec.l2_dev == rec.sup_dev == rec.grad_l4 == 0.0


def test_norms_reject_line_field():
    line = Grid.line(-1.0, 1.0, 32)
    with pytest.raises(NotTorus):
        h2_norm(Field(line, np.cos(line.x)))


def test_fit_exact_exponential():
    taus = np.arange(0.0, 3.01, 0.5)
    rate, r2 = fit_exponential_rate([(t, math.exp(-2.0 * t)) for t in taus],
                                    (0.0, 3.0))
    assert rate == pytest.approx(2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_scale_invariance():
    taus = np.arange(0.0, 3.01, 0.5)
    rate, _ = fit_exponential_rate([(t, 3.0 * math.exp(-0.7 * t))
                                    for t in taus], (0.0, 3.0))
    assert rate == pytest.approx(0.7, abs=1e-12)


def test_fit_perturbed_series():
    taus = np.linspace(0.0, 3.0, 31)
    series = [(t, math.exp(-t) * (1.0 + 0.01 * math.sin(5 * t)))
              for t in taus]
    rate, _ = fit_exponential_rate(series, (0.0, 3.0))
    assert rate == pytest.approx(1.0, abs=0.02)


def test_fit_requires_five_samples():
    with pytest.raises(InsufficientSamples):
        fit_exponential_rate([(0.0, 1.0), (1.0, 0.5)], (0.0, 1.0))


def test_fit_requires_two_distinct_times():
    # five samples at one tau leave the slope undetermined
    with pytest.raises(InsufficientSamples, match="2 distinct times"):
        fit_exponential_rate([(1.0, 0.5)] * 5, (0.0, 2.0))


def test_fit_rejects_nonpositive():
    series = [(t, 1.0 - 0.3 * t) for t in np.linspace(0.0, 4.0, 9)]
    with pytest.raises(NonPositiveSample):
        fit_exponential_rate(series, (0.0, 4.0))


def test_record_totals_consistent(params, torus64):
    s = _state(torus64, 1.0 + 0.2 * np.cos(torus64.x),
               0.1 * np.sin(torus64.x))
    rec = _record(s, params)
    assert rec.e_total == pytest.approx(rec.e0 + rec.e1, rel=1e-14)
    assert rec.d_total == pytest.approx(rec.d0 + rec.d1, rel=1e-14)
    assert rec.rho_min == pytest.approx(0.8)
    assert rec.rho_max == pytest.approx(1.2)
    row = rec.csv_row(mass0=rec.mass)
    assert len(row) == len(rec.CSV_COLUMNS)
    assert row[7] == 0.0  # mass defect against itself


def _band_limited(grid, rng, modes):
    """Random real trigonometric polynomial of degree `modes`, sup <= 1."""
    coef = rng.normal(size=modes) + 1j * rng.normal(size=modes)
    vals = sum((c * np.exp(1j * (k + 1) * grid.x)).real
               for k, c in enumerate(coef))
    return vals / np.max(np.abs(vals))


@pytest.mark.parametrize("n", [64, 256])
@pytest.mark.parametrize("seed", [0, 1])
def test_record_matches_one_field_reference(params, n, seed):
    # reference: one spectral derivative per field and per order, summed in
    # the same order; batched transforms give the same rows bit for bit
    grid = Grid.torus(n)
    p = params.replace(grid=grid, epsilon=0.07, alpha=1.3, gamma=1.4)
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.4 * _band_limited(grid, rng, n // 4)
    w = 0.3 * _band_limited(grid, rng, n // 4)
    s = _state(grid, rho, w)
    e1 = d1 = 0.0
    for j in range(1, DERIV_CAP + 1):
        dw, dr = deriv(w, grid, j), deriv(rho, grid, j)
        e1 += 0.5 * p.epsilon**p.alpha * grid.integrate(rho * dw * dw)
        e1 += 0.5 * p.gamma * grid.integrate(rho ** (p.gamma - 2.0) * dr * dr)
        d1 += p.epsilon ** (p.alpha - 2.0) * grid.integrate(rho * dw * dw)
        d1 += p.gamma * grid.integrate(rho ** (p.gamma - 1.0) * dr * dr)
    e0 = (0.5 * p.epsilon**p.alpha * grid.integrate(rho * w * w)
          + grid.integrate(pressure_bracket(rho, p.gamma, p.mass_level))
          / (p.gamma - 1.0))
    offset = rho - p.mass_level
    d0 = (p.epsilon ** (p.alpha - 2.0) * grid.integrate(w * w)
          + grid.integrate(offset * offset))
    g = deriv(rho, grid, 1)
    expected = {
        "e0": e0, "e1": e1, "d0": d0, "d1": d1, "e_total": e0 + e1,
        "d_total": d0 + d1,
        "sup_dev": float(np.max(np.abs(offset))),
        "l2_dev": math.sqrt(grid.integrate(offset * offset)),
        "grad_l4": grid.integrate(np.square(np.square(g))) ** 0.25,
    }
    rec = _record(s, p)
    for name, value in expected.items():
        assert getattr(rec, name) == value, name


@pytest.mark.parametrize("n, gamma", [(64, 2.0), (128, 1.5), (512, 3.0)])
def test_ks_record_is_the_ep_record_with_zero_w(params, n, gamma):
    # the skipped w terms only ever added 0.0: every field is equal
    grid = Grid.torus(n)
    p = params.replace(grid=grid, gamma=gamma)
    x = grid.x
    sigma = 1.0 + 0.3 * np.cos(x) + 0.05 * np.sin(3.0 * x)
    s = KSState(sigma=Field(grid, sigma, tag="density"), time=0.7)
    rec = _record(s, p)
    ref = _record(EPState(rho=s.sigma, w=Field(grid, np.zeros(n)),
                            time=0.7), p)
    for f in dataclasses.fields(rec):
        assert getattr(rec, f.name) == getattr(ref, f.name), f.name


@pytest.mark.parametrize("n, seed", [(64, 0), (512, 1)])
def test_gradient_l4_matches_an_exact_sum(params, n, seed):
    # (h sum g^4)^(1/4) with the sum taken by math.fsum; an EP record, a
    # KS record and the fourth root of grid.integrate of g^4 (as two
    # squares) agree bit for bit
    grid = Grid.torus(n)
    p = params.replace(grid=grid)
    rng = np.random.default_rng(seed)
    rho = 1.0 + 0.4 * _band_limited(grid, rng, n // 4)
    w = 0.3 * _band_limited(grid, rng, n // 4)
    g = deriv(rho, grid, 1)
    assert g.min() < 0.0 < g.max()
    expected = (grid.h * math.fsum(float(v) ** 4 for v in g)) ** 0.25
    sigma = Field(grid, rho, tag="density")
    got = (_record(KSState(sigma=sigma), p).grad_l4,
           _record(_state(grid, rho, w), p).grad_l4,
           grid.integrate(np.square(np.square(g))) ** 0.25)
    assert got[0] == pytest.approx(expected, rel=1e-14)
    assert got[0] == got[1] == got[2]


# a run's records come from stacked passes over its samples: each must be
# the one-state record of its sample, whatever its chunk

def _cosine(grid, amp=0.3):
    return Field(grid, 1.0 + amp * np.cos(grid.x), tag="density")


def test_ks_run_records_are_one_state_records(params):
    # 201 samples at n = 512: 25 chunks of 8 states and a partial one
    grid = Grid.torus(512)
    p = params.replace(grid=grid, t_end=2.0)
    per_chunk = STACK_POSITIONS // (DERIV_CAP * grid.n)
    assert per_chunk == 8 and 201 % per_chunk != 0
    result = simulate_ks(_cosine(grid), p, np.linspace(0.0, p.t_end, 201))
    assert result.ok and len(result.samples) == 201
    for state, rec in result.samples:
        assert rec == _record(state, p)


@pytest.mark.parametrize("gamma", [2.0, 1.4])
def test_ep_run_records_are_one_state_records(params, gamma):
    # n = 2048: one EP state per chunk
    grid = Grid.torus(2048)
    p = params.replace(grid=grid, gamma=gamma, t_end=0.02)
    assert STACK_POSITIONS // (2 * DERIV_CAP * grid.n) == 1
    w0 = Field(grid, 0.05 * np.sin(grid.x))
    result = simulate_ep(_cosine(grid), w0, p, np.linspace(0.0, p.t_end, 21))
    assert result.ok and len(result.samples) == 21
    for state, rec in result.samples:
        assert rec == _record(state, p)


def test_batch_records_are_each_members_one_state_records(params):
    # 4 members at n = 64, 41 samples each: 2 chunks of up to 32 states,
    # each member's under its own ParamSet
    grid = params.grid
    ps = [params.replace(epsilon=e, alpha=1.5, gamma=1.5)
          for e in (0.2, 0.1, 0.05, 0.025)]
    w0 = Field(grid, 0.05 * np.sin(grid.x))
    results = simulate_ep_rows(_cosine(grid), w0, ps,
                               np.linspace(0.0, 0.5, 41))
    for result, q in zip(results, ps, strict=True):
        assert result.ok and len(result.samples) == 41
        for state, rec in result.samples:
            assert rec == _record(state, q)


def test_a_broken_run_keeps_a_record_per_sample(monkeypatch, params):
    # the fourth step's guard pass stops the run: its samples so far each
    # get their record; a KS run that starts at the vacuum guard keeps its
    # initial sample and record
    real_guards = euler_poisson._guards
    calls = []

    def guards(batch, times):
        out, extrema = real_guards(batch, times)
        calls.append(None)
        if len(calls) == 4:
            out = [RangeBreach(f"forced at tau = {t:.6g}") for t in times]
        return out, extrema

    monkeypatch.setattr(euler_poisson, "_guards", guards)
    grid = params.grid
    result = simulate_ep(_cosine(grid), Field(grid, np.zeros(grid.n)),
                         params, np.linspace(0.0, 0.01, 11))
    assert result.status == "range_breach" and result.n_steps == 4
    assert len(result.samples) == 4
    for state, rec in result.samples:
        assert rec == _record(state, params)
    result = simulate_ks(_cosine(grid, amp=1.0), params, [0.0, 0.1])
    assert result.status == "vacuum" and len(result.samples) == 1
    ((state, rec),) = result.samples
    assert rec == _record(state, params)


def test_recording_a_run_takes_less_than_its_stack(params):
    # 201 KS states at n = 512 are recorded chunk by chunk: the pass never
    # holds the 201 x 512 stack of their rows, let alone its derivatives
    grid = Grid.torus(512)
    p = params.replace(grid=grid)
    states = [KSState(sigma=_cosine(grid, amp=0.3 * math.exp(-0.01 * i)),
                      time=0.01 * i) for i in range(201)]
    record_states(states[:1], p)     # the grid's cached symbols and weights
    tracemalloc.start()
    try:
        records = record_states(states, p)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(records) == 201
    assert peak < 201 * grid.n * 8, peak
