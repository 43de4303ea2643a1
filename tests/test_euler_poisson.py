import math

import numpy as np
import pytest

from frictionlab import euler_poisson, keller_segel
from frictionlab.core import EPState, Field, Grid, KSState, ParamSet
from frictionlab.diagnostics import fit_exponential_rate, record_ep, record_ks
from frictionlab.errors import (
    Blowup, CflViolation, RangeBreach, SolverBreakdown, VacuumApproach,
)
from frictionlab.euler_poisson import (
    reconstruct_u, simulate_ep, simulate_ep_rows, stable_dt, step_ep,
    step_ep_rows,
)
from frictionlab.keller_segel import simulate_ks, stable_dt_ks, step_ks
from frictionlab.spectral import dealias, deriv, inverse_gradient


# an infinite slope poisons the step on purpose; the inf * 0 of a complex
# product on the way to the guard warns, and only the guard's verdict is
# tested
INF_SLOPES = [pytest.param(bad, marks=pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning"))
    for bad in (math.inf, -math.inf)]


def _state(grid, rho, w):
    return EPState(rho=Field(grid, rho, tag="density"), w=Field(grid, w))


def test_reconstruct_u_examples(params, torus64):
    x = torus64.x
    s = _state(torus64, np.ones(torus64.n), np.zeros(torus64.n))
    np.testing.assert_allclose(reconstruct_u(s, params).values, 0.0,
                               atol=1e-14)
    s = _state(torus64, 1.0 + np.cos(x), np.zeros(torus64.n))
    np.testing.assert_allclose(reconstruct_u(s, params).values,
                               0.1 * np.sin(x), atol=1e-12)
    s = _state(torus64, np.ones(torus64.n), np.sin(x))
    np.testing.assert_allclose(reconstruct_u(s, params).values,
                               0.1 * np.sin(x), atol=1e-12)


def test_equilibrium_is_exact_fixed_point(params, torus64):
    s = _state(torus64, np.ones(torus64.n), np.zeros(torus64.n))
    new, report = step_ep(s, params, 0.005)
    np.testing.assert_array_equal(new.rho.values, s.rho.values)
    np.testing.assert_allclose(new.w.values, 0.0, atol=1e-18)
    assert report.mass_defect == 0.0


def test_step_conserves_mass(params, torus64):
    s = _state(torus64, 1.0 + 0.3 * np.cos(torus64.x),
               0.05 * np.sin(torus64.x))
    dt = 0.5 * stable_dt(s, params)
    new, report = step_ep(s, params, dt)
    mass0 = torus64.integrate(s.rho.values)
    mass1 = torus64.integrate(new.rho.values)
    assert abs(mass1 - mass0) <= 1e-12 * abs(mass0)
    assert abs(report.mass_defect) <= 1e-12 * abs(mass0)


def test_step_report_friction_factor(params, torus64):
    s = _state(torus64, 1.0 + 0.1 * np.cos(torus64.x), np.zeros(torus64.n))
    dt = 0.5 * stable_dt(s, params)
    _, report = step_ep(s, params, dt)
    assert report.friction_factor == pytest.approx(
        math.exp(-dt / params.epsilon ** 2), rel=1e-14)
    assert report.dt_used == dt


def _rhs_composed(rho, w, p):
    """The EP right side composed from the public spectral helpers, one
    FFT round trip per operation."""
    grid = p.grid
    eps, alpha, gamma, M = p.epsilon, p.alpha, p.gamma, p.mass_level
    source = rho - M
    grad_inv, removed = inverse_gradient(source, grid)
    v = -grad_inv
    dxv = source - removed
    flux = dealias(rho * (w / eps ** (1.0 - alpha) + v), grid)
    dtau_v = -(flux - np.mean(flux))
    u = eps * v + eps**alpha * w
    g_w = (-u * deriv(w, grid) / eps
           - (gamma / eps) * rho ** (gamma - 2.0) * deriv(rho, grid)
           - eps ** (1.0 - alpha) * dtau_v
           - eps ** (-alpha) * u * dxv)
    return -deriv(flux, grid), dealias(g_w, grid), v


@pytest.mark.parametrize("n", [64, 256, 2048])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_fused_rhs_matches_composition(n, alpha):
    grid = Grid.torus(n)
    p = ParamSet(epsilon=0.1, alpha=alpha, gamma=1.5, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=grid)
    rng = np.random.default_rng(n + int(10 * alpha))
    modes = np.arange(1, n // 4 + 1)   # products reach the 2/3 cutoff
    x = grid.x[:, None]

    def band_limited(scale):
        amp = scale * rng.uniform(-1.0, 1.0, modes.size) / modes
        phase = rng.uniform(0.0, 2.0 * math.pi, modes.size)
        return np.cos(modes * x + phase) @ amp

    rho = 1.0 + band_limited(0.1)
    w = band_limited(0.05)
    assert rho.min() > 0.5
    u = np.array(((rho,), (w,)))
    uh = np.fft.rfft(np.array(((rho - p.mass_level,), (w,))))
    m = euler_poisson._members((p,))
    ref_rho, ref_w, ref_v = _rhs_composed(rho, w, p)
    # the first stage hands in the samples, the later ones only uh
    for g, v in (euler_poisson._rhs(u, uh, m),
                 euler_poisson._rhs(None, uh, m)):
        (g_rho,), (g_w,) = np.fft.irfft(g, n=n)
        for got, ref in ((g_rho, ref_rho), (g_w, ref_w)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    g, v = euler_poisson._rhs(u, uh, m)
    speeds = euler_poisson._speeds(rho[None], w[None], v, (p,))
    assert speeds == euler_poisson._speeds(rho[None], w[None], ref_v[None],
                                           (p,))


def test_cfl_guard(params, torus64):
    s = _state(torus64, 1.0 + 0.3 * np.cos(torus64.x), np.zeros(torus64.n))
    with pytest.raises(CflViolation):
        step_ep(s, params, 100.0 * stable_dt(s, params))


def test_cfl_guard_uses_the_stable_dt_bound(params, torus64):
    # with advective and sound speeds alike, a bound on their maximum
    # instead of their sum would let a step of 1.2 * stable_dt through
    s = _state(torus64, 1.0 + 0.3 * np.cos(torus64.x),
               4.8 * np.sin(torus64.x))
    v = -inverse_gradient(s.rho.values - params.mass_level, torus64)[0]
    ((adv, sound),) = euler_poisson._speeds(
        s.rho.values[None], s.w.values[None], v[None], (params,))
    assert 0.8 < adv / sound < 1.25
    dt = stable_dt(s, params)
    _, report = step_ep(s, params, dt)
    assert report.max_cfl_speed == adv + sound
    with pytest.raises(CflViolation):
        step_ep(s, params, 1.2 * dt)


def test_stable_dt_scales_with_stiffness(torus64, params):
    # sound speed carries eps^((alpha-2)/2): smaller eps, smaller dt
    s = _state(torus64, 1.0 + 0.3 * np.cos(torus64.x), np.zeros(torus64.n))
    dt_01 = stable_dt(s, params)
    dt_0025 = stable_dt(s, params.replace(epsilon=0.025))
    assert dt_0025 < dt_01
    ratio = dt_01 / dt_0025
    assert ratio == pytest.approx(2.0, rel=0.05)  # sqrt(0.1/0.025) = 2


def test_range_breach_detected(torus64, params):
    # rho below rho_lower/2 must trip the a-priori range guard
    s = _state(torus64, 1.0 + 0.9 * np.cos(torus64.x), np.zeros(torus64.n))
    with pytest.raises(RangeBreach):
        step_ep(s, params, 0.25 * stable_dt(s, params))


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
])
def test_simulate_rejects_bad_sample_times(params, cosine_rho, zero_w,
                                           solver, times):
    with pytest.raises(ValueError, match="sample times"):
        if solver == "ep":
            simulate_ep(cosine_rho, zero_w, params, times)
        else:
            simulate_ks(cosine_rho, params, times)


@pytest.mark.parametrize("cls, status", [
    (CflViolation, "cfl"),
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

    def failing_step(state, p, target):
        if len(taken) == k:
            return outcome(cls("injected breakdown"))
        taken.append(target)
        return real_step(state, p, target)

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


def _reference_run(step, next_dt, record, state, sample_times):
    """The hand-driven loop: dt = min(next_dt(state), target - t), then the
    fixed-dt step; a raised breakdown ends the run with its status."""
    samples, n_steps = [], 0
    for target in sample_times:
        while state.time < target - 1e-12:
            try:
                state, _ = step(state, min(next_dt(state),
                                           target - state.time))
            except SolverBreakdown as err:
                return samples, n_steps, err.status
            n_steps += 1
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
    # the driver's step picks dt from its own first stage; that must be
    # the stable_dt loop bit for bit, whatever the grid and scaling
    grid = Grid.torus(n)
    p = ParamSet(epsilon=0.1, alpha=alpha, gamma=2.0, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=grid, t_end=0.5)
    rho0 = Field(grid, 1.0 + 0.3 * np.cos(grid.x), tag="density")
    w0 = Field(grid, 0.05 * np.sin(grid.x))
    times = np.linspace(0.0, p.t_end, 11)
    result = simulate_ep(rho0, w0, p, times)
    assert result.ok and result.n_steps > len(times)
    _assert_same_run(result, _reference_run(
        lambda s, dt: step_ep(s, p, dt), lambda s: stable_dt(s, p),
        lambda s: record_ep(s, p),
        EPState(rho=rho0, w=w0), times))


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
        lambda s, dt: step_ks(s, p, dt), lambda s: stable_dt_ks(s, p),
        lambda s: record_ks(s, p), KSState(sigma=sigma0), times))


@pytest.mark.parametrize("eps, alpha", [(0.1, 1.0), (0.05, 1.5), (0.2, 0.5)])
def test_step_ep_is_third_order_in_dt(torus64, eps, alpha):
    # self-convergence of the fixed-dt step under dt halving: 16 to 256
    # steps over T = 8 stable_dt of the initial state
    p = ParamSet(epsilon=eps, alpha=alpha, gamma=2.0, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=torus64)
    s0 = _state(torus64, 1.0 + 0.3 * np.cos(torus64.x), np.zeros(torus64.n))
    t_end = 8.0 * stable_dt(s0, p)
    finals = []
    for n_steps in (16, 32, 64, 128, 256):
        s = s0
        for _ in range(n_steps):
            s, _ = step_ep(s, p, t_end / n_steps)
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
def test_blowup_check_flags_only_its_own_member(bad):
    # stacked rows (row kinds x members x n), as the stepper holds them
    u = np.ones((2, 3, 16))
    u[1, 1, 5] = bad
    flags = euler_poisson._check_blowup([0.1, 0.2, 0.3], u)
    assert flags[0] is None and flags[2] is None
    assert isinstance(flags[1], Blowup)
    assert "0.2" in str(flags[1])
    (flag,) = euler_poisson._check_blowup([0.2], u[:, 1:2])
    assert isinstance(flag, Blowup)
    u[1, 1, 5] = 1e12            # the threshold itself is still finite
    assert euler_poisson._check_blowup([0.1, 0.2, 0.3], u) == [None] * 3


@pytest.mark.parametrize("bad", [math.nan, *INF_SLOPES, 2e12])
def test_step_raises_blowup(monkeypatch, params, cosine_rho, zero_w, bad):
    real_rhs = euler_poisson._rhs

    def poisoned(u, uh, m):
        g, v = real_rhs(u, uh, m)
        return g + bad, v

    monkeypatch.setattr(euler_poisson, "_rhs", poisoned)
    s = EPState(rho=cosine_rho, w=zero_w)
    with pytest.raises(Blowup):
        step_ep(s, params, 0.5 * stable_dt(s, params))


def test_step_ep_rows_takes_the_stable_dt(params, torus64):
    x = torus64.x
    states = [EPState(rho=Field(torus64, 1.0 + a * np.cos(x), tag="density"),
                      w=Field(torus64, b * np.sin(x)), time=t)
              for a, b, t in ((0.3, 0.0, 0.0), (0.2, 0.1, 0.01),
                              (0.1, 0.2, 0.02))]
    ps = [params.replace(epsilon=e) for e in (0.2, 0.1, 0.05)]
    target = 0.021
    out = step_ep_rows(states, ps, target)
    for s, p, (new, report) in zip(states, ps, out):
        dt = min(stable_dt(s, p), target - s.time)
        assert report.dt_used == dt and new.time == s.time + dt
        alone, alone_report = step_ep(s, p, dt)
        assert np.array_equal(new.rho.values, alone.rho.values)
        assert np.array_equal(new.w.values, alone.w.values)
        assert report == alone_report
    assert out[2][0].time == target


def test_step_ep_rows_rejects_bad_batches(params, cosine_rho, zero_w):
    s = EPState(rho=cosine_rho, w=zero_w)
    with pytest.raises(ValueError, match="epsilon only"):
        step_ep_rows([s, s], [params, params.replace(alpha=1.5)], 0.1)
    with pytest.raises(ValueError, match="behind"):
        step_ep_rows([s, s], [params, params.replace(epsilon=0.05)], 0.0)
    with pytest.raises(ValueError, match="at least one"):
        simulate_ep_rows(cosine_rho, zero_w, [], [0.0, 0.1])


def test_member_breakdown_leaves_the_others(monkeypatch, params, cosine_rho,
                                            zero_w):
    # the 0.1 member's 11th step gets a NaN slope: it must end with status
    # nonfinite after 10 steps, keeping the samples taken so far, while
    # the members batched with it stay equal to their own runs
    p = params.replace(t_end=0.2)
    members = [p.replace(epsilon=e) for e in (0.2, 0.1, 0.05)]
    times = np.linspace(0.0, p.t_end, 21)
    solo = [simulate_ep(cosine_rho, zero_w, q, times) for q in members]
    real_rhs = euler_poisson._rhs
    calls = []

    def poisoned(u, uh, m):
        g, v = real_rhs(u, uh, m)
        eps = m.eps[:, 0].tolist()
        if 0.1 in eps:
            calls.append(None)
            if len(calls) == 31:       # stage 1 of its 11th step
                g = g.copy()
                g[1, eps.index(0.1), 3] = np.nan
        return g, v

    monkeypatch.setattr(euler_poisson, "_rhs", poisoned)
    batch = simulate_ep_rows(cosine_rho, zero_w, members, times)
    broken = batch[1]
    assert broken.status == "nonfinite" and isinstance(broken.error, Blowup)
    assert broken.n_steps == 10
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
