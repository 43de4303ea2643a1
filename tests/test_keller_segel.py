import math

import numpy as np
import pytest

from frictionlab import keller_segel
from frictionlab.characteristics import reconstruct_eulerian
from frictionlab.core import Field, Grid, KSState, ParamSet
from frictionlab.diagnostics import fit_exponential_rate
from frictionlab.errors import Blowup, MeanDefect, VacuumApproach
from frictionlab.keller_segel import simulate_ks, step_ks_to
from frictionlab.profiles import cosine_profile
from frictionlab.spectral import deriv, inverse_gradient


# an infinite slope poisons the step on purpose; the inf * 0 of a complex
# product on the way to the guard warns, and only the guard's verdict is
# tested
INF_SLOPES = [pytest.param(bad, marks=pytest.mark.filterwarnings(
    "ignore:invalid value encountered:RuntimeWarning"))
    for bad in (math.inf, -math.inf)]


def _state(grid, sigma):
    return KSState(sigma=Field(grid, sigma, tag="density"))


def _rows(s, p):
    return keller_segel._rows_of(s, p)


def test_equilibrium_is_exact_fixed_point(params, torus64):
    sigma0 = Field(torus64, np.ones(torus64.n), tag="density")
    result = simulate_ks(sigma0, params, [0.0, 0.05])
    assert result.ok and result.n_steps == 1
    np.testing.assert_array_equal(result.samples[-1][0].sigma.values,
                                  sigma0.values)


def test_step_conserves_mass(params, torus64):
    sigma0 = Field(torus64, 1.0 + 0.3 * np.cos(torus64.x), tag="density")
    result = simulate_ks(sigma0, params, [0.0, 0.5])
    assert result.ok and result.n_steps > 1
    mass0 = torus64.integrate(sigma0.values)
    mass1 = torus64.integrate(result.samples[-1][0].sigma.values)
    assert abs(mass1 - mass0) <= 1e-12 * abs(mass0)


def test_vacuum_guard_on_entry(params, torus64):
    # touching data is refused before the step: the rows stay where they were
    rows = _rows(_state(torus64, np.maximum(1.0 + np.cos(torus64.x), 0.0)),
                 params)
    before = rows.u.copy()
    out = step_ks_to(rows, 1e-3)
    assert isinstance(out, VacuumApproach)
    assert "characteristic solver" in str(out)
    assert rows.times == [0.0] and np.array_equal(rows.u, before)


@pytest.mark.parametrize("n", [64, 512, 2048])
def test_fused_flux_rhs_matches_composition(n, dealias):
    grid = Grid.torus(n)
    p = ParamSet(epsilon=0.1, alpha=1.0, gamma=2.0, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=grid)
    rng = np.random.default_rng(n)
    modes = np.arange(1, n // 4 + 1)   # the flux reaches the 2/3 cutoff
    amp = 0.1 * rng.uniform(-1.0, 1.0, modes.size) / modes
    phase = rng.uniform(0.0, 2.0 * math.pi, modes.size)
    sigma = 1.0 + np.cos(modes * grid.x[:, None] + phase) @ amp
    assert sigma.min() > 0.5
    v = -inverse_gradient(sigma - p.mass_level, grid)
    ref = -deriv(dealias(sigma * v, grid), grid)
    sh = np.fft.rfft(sigma - p.mass_level)[None, None]
    # the first stage reads the carried rows (sigma, v), a later one the
    # rows inverted from the stage's coefficients sh
    work = _rows(_state(grid, sigma), p)
    work.stage.head[...] = sh
    for side in (work.carried, keller_segel._inverse(work.stage)):
        u = side.rows
        assert np.max(np.abs(u[1, 0] - v)) <= 1e-12 * np.max(np.abs(v))
        slope = np.fft.irfft(keller_segel._flux_rhs(side), n=n)[0, 0]
        assert np.max(np.abs(slope - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("amp, target", [(0.5, 1.0), (0.3, 1.0),
                                         (0.5, 0.013), (0.0, 1.0)])
def test_step_ks_to_takes_the_stable_dt(params, torus64, amp, target):
    # at n = 64 the CFL bound is 0.079 for amp 0.5 and 0.13 for amp 0.3,
    # above the 0.1/M cap; target 0.013 is nearer than either, and the
    # flat state has no CFL bound at all
    s = KSState(sigma=Field(torus64, 1.0 + amp * np.cos(torus64.x),
                            tag="density"), time=0.01)
    rows = _rows(s, params)
    assert step_ks_to(rows, target) is None
    v = inverse_gradient(s.sigma.values - params.mass_level, torus64)
    v_max = float(np.max(np.abs(v)))
    bound = params.dt_cfl * torus64.h / v_max if v_max > 0.0 else math.inf
    dt = min(bound, 0.1, target - s.time)
    assert rows.times == [s.time + dt]


def test_step_ks_to_returns_its_breakdown(params, torus64):
    def rows(sigma):
        return _rows(_state(torus64, sigma), params)

    touching = rows(np.maximum(1.0 + np.cos(torus64.x), 0.0))
    assert isinstance(step_ks_to(touching, 0.5), VacuumApproach)
    with pytest.raises(ValueError, match="behind"):
        step_ks_to(rows(np.ones(torus64.n)), 0.0)


@pytest.mark.parametrize("bad", [math.nan, *INF_SLOPES])
def test_nonfinite_slope_ends_run_nonfinite(monkeypatch, params, torus64,
                                            bad):
    # the step's states skip the Field scans, so its own guard must stop
    # a non-finite density: the 4th step gets a poisoned slope, and the
    # run counts it
    real_rhs = keller_segel._flux_rhs
    calls = []

    def poisoned(side):
        g = real_rhs(side)
        calls.append(None)
        return g + bad if len(calls) == 10 else g

    monkeypatch.setattr(keller_segel, "_flux_rhs", poisoned)
    sigma0 = Field(torus64, 1.0 + 0.3 * np.cos(torus64.x), tag="density")
    result = simulate_ks(sigma0, params, np.linspace(0.0, 1.0, 21))
    assert result.status == "nonfinite" and isinstance(result.error, Blowup)
    assert result.n_steps == 4
    assert all(np.all(np.isfinite(s.sigma.values)) for s, _ in result.samples)


def test_stable_dt_capped_for_flat_state(params, torus64):
    # velocity vanishes at equilibrium; the cap 0.1/M keeps dt finite
    p = params.replace(mass_level=2.0, rho_upper=4.0)
    rows = _rows(_state(torus64, np.full(torus64.n, 2.0)), p)
    assert step_ks_to(rows, 1.0) is None
    assert rows.times == [0.05]


def test_simulate_rejects_mass_defect(params, torus64):
    sigma0 = Field(torus64, np.full(torus64.n, 1.2), tag="density")
    with pytest.raises(MeanDefect):
        simulate_ks(sigma0, params, [0.0, 1.0])


@pytest.mark.parametrize("grid", [Grid.torus(64, length=4 * math.pi),
                                  Grid.torus(128)], ids=["length", "n"])
def test_simulate_rejects_sigma0_off_the_parameter_grid(params, grid):
    sigma0 = Field(grid, 1.0 + 0.3 * np.cos(grid.x), tag="density")
    with pytest.raises(ValueError, match="parameter grid"):
        simulate_ks(sigma0, params, [0.0, 1.0])


def test_modal_decay_rate_is_mass_level(params, torus64):
    # linearized system: each Fourier mode of sigma - M decays like e^{-M tau}
    sigma0 = Field(torus64, 1.0 + 1e-6 * np.cos(torus64.x), tag="density")
    times = np.linspace(0.0, 1.0, 11)
    result = simulate_ks(sigma0, params, times)
    assert result.ok
    amps = [(s.time, 2.0 * abs(np.fft.rfft(s.sigma.values)[1]) / torus64.n)
            for s, _ in result.samples]
    rate, r2 = fit_exponential_rate(amps, (0.0, 1.0))
    assert rate == pytest.approx(params.mass_level, rel=0.01)
    assert r2 > 0.9999


def test_modal_decay_rate_scales_with_m(torus64):
    from frictionlab.core import ParamSet
    p = ParamSet(epsilon=0.1, alpha=1.0, gamma=2.0, mass_level=2.0,
                 rho_lower=0.5, rho_upper=4.0, grid=torus64, t_end=1.0)
    sigma0 = Field(torus64, 2.0 + 1e-6 * np.cos(torus64.x), tag="density")
    result = simulate_ks(sigma0, p, np.linspace(0.0, 1.0, 11))
    assert result.ok
    amps = [(s.time, 2.0 * abs(np.fft.rfft(s.sigma.values)[1]) / torus64.n)
            for s, _ in result.samples]
    rate, _ = fit_exponential_rate(amps, (0.0, 1.0))
    assert rate == pytest.approx(2.0, rel=0.01)


def test_sup_deviation_contracts(params, torus64):
    sigma0 = Field(torus64, 1.0 + 0.3 * np.cos(torus64.x), tag="density")
    result = simulate_ks(sigma0, params, np.linspace(0.0, 2.0, 9))
    assert result.ok
    sup = [rec.sup_dev for _, rec in result.samples]
    assert all(b < a for a, b in zip(sup, sup[1:]))
    # pointwise bound: |sigma - M| <= e^{-min(sigma0, M) tau} |sigma0 - M|
    final_state, final_rec = result.samples[-1]
    bound = np.exp(-0.7 * final_state.time) * 0.3
    assert final_rec.sup_dev <= bound * 1.05


def test_simulate_reports_vacuum_status(params, torus64):
    # touching data passes the mass check but trips the vacuum guard on
    # the first step; the tau = 0 sample must survive in the result
    sigma0 = Field(torus64, 1.0 + np.cos(torus64.x), tag="density")
    result = simulate_ks(sigma0, params, [0.0, 0.5])
    assert not result.ok
    assert result.status == "vacuum"
    assert isinstance(result.error, VacuumApproach)
    assert len(result.samples) == 1
    with pytest.raises(VacuumApproach):
        result.raise_if_failed()


def test_step_ks_is_third_order_in_dt(params, torus64):
    # self-convergence of the step under dt halving: 8 to 128 steps over
    # T = 0.5, one step per sample interval
    sigma0 = Field(torus64, 1.0 + 0.3 * np.cos(torus64.x), tag="density")
    finals = []
    for n_steps in (8, 16, 32, 64, 128):
        result = simulate_ks(sigma0, params, np.linspace(0.0, 0.5, n_steps + 1),
                             records=False)
        assert result.ok and result.n_steps == n_steps
        finals.append(result.samples[-1][0].sigma.values)
    errors = [np.max(np.abs(a - b)) for a, b in zip(finals, finals[1:])]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders[-2:]) >= 2.8, orders


def _exact_gap(amp, dt_cfl, n=512, tau=1.0):
    """Max gap at tau between simulate_ks from the cosine profile and the
    profile's closed-form torus solution (characteristics)."""
    grid = Grid.torus(n)
    p = ParamSet(epsilon=0.1, alpha=1.0, gamma=2.0, mass_level=1.0,
                 rho_lower=0.25, rho_upper=2.0, grid=grid, dt_cfl=dt_cfl,
                 t_end=tau)
    prof = cosine_profile(1.0, amp)
    result = simulate_ks(Field(grid, prof.sigma0(grid.x), tag="density"), p,
                         [0.0, tau], records=False)
    assert result.ok
    exact = reconstruct_eulerian([tau], prof, grid)[0].sigma.values
    return float(np.max(np.abs(result.samples[-1][0].sigma.values - exact)))


def test_simulate_ks_matches_the_exact_torus_solution():
    # at tau = 1, amp 0.3, n = 512: 2.65e-7 measured at the default CFL
    assert _exact_gap(0.3, 0.4) <= 5e-7


@pytest.mark.parametrize("amp", [0.3, 0.6])
def test_simulate_ks_converges_to_the_exact_solution_at_third_order(amp):
    # each dt halving divides the gap by 7.8-8.0 (order ~3)
    gaps = [_exact_gap(amp, dt_cfl) for dt_cfl in (0.4, 0.2, 0.1)]
    ratios = [a / b for a, b in zip(gaps, gaps[1:])]
    assert min(ratios) >= 7.0, (gaps, ratios)
