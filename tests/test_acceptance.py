"""End-to-end acceptance checks.

One test per numbered criterion; each prints a single pass/fail line with
the measured figure so a `pytest -s` transcript doubles as a report card.
All tolerances are hard-coded here on purpose -- loosening them is a
library regression, not a test maintenance chore.
"""
import math

import numpy as np
import pytest

from frictionlab.characteristics import (
    edge_derivative_along, reconstruct_eulerian, semi_lagrangian_oracle,
    trajectory_rows, vacuum_interval,
)
from frictionlab.core import Field, Grid, KSState, ParamSet
from frictionlab.diagnostics import fit_exponential_rate
from frictionlab.euler_poisson import simulate_ep
from frictionlab.experiments import (
    FD_NODES, ExperimentSpec, measured_vacuum_length, run_decay_fit,
    run_epsilon_sweep, run_single_ep, run_single_ks, run_spectrum_table,
    run_vacuum_collapse,
)
from frictionlab.profiles import InitialProfile, profile_line, vacuum_ramp_profile
from frictionlab.spectrum import DispersionQuery, dispersion_roots

TORUS = 2.0 * math.pi


def _verdict(idx: int, label: str, ok: bool, detail: str):
    line = f"criterion {idx:02d} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def _params(epsilon=0.1, alpha=1.0, n=64, M=1.0, t_end=1.0,
            rho_lower=0.25, rho_upper=2.0):
    return ParamSet(epsilon=epsilon, alpha=alpha, gamma=2.0, mass_level=M,
                    rho_lower=rho_lower, rho_upper=rho_upper,
                    grid=Grid.torus(n), t_end=t_end)


def test_criterion_01_vacuum_interval_law():
    taus = (0.0, 0.5, 1.0, 2.0, 3.0, 5.0)
    worst_rel, worst_cells = 0.0, 0.0
    for M in (0.5, 1.0, 2.0):
        prof = vacuum_ramp_profile(M)
        (a0, b0) = prof.vacuum_set[0]
        grid = Grid.line(prof.domain[0], prof.domain[1], 4096)
        for tau in taus:
            rep = vacuum_interval([tau], prof)[0]
            exact = (b0 - a0) * math.exp(-M * tau)
            worst_rel = max(worst_rel,
                            abs(rep.length - exact) / (b0 - a0))
            measured = measured_vacuum_length(
                reconstruct_eulerian([tau], prof, grid)[0], M)
            worst_cells = max(worst_cells,
                              abs(measured - exact) / grid.h)
    ok = worst_rel <= 1e-12 and worst_cells <= 1.0
    _verdict(1, "vacuum interval law", ok,
             f"max rel gap {worst_rel:.2e}, max reconstruction gap "
             f"{worst_cells:.2f} cells at N=4096")


def test_criterion_02_edge_derivative_blowup():
    M = 1.0
    taus_law = (0.0, 0.5, 1.0, 2.0, 3.0, 5.0)
    taus_fd = (0.0, 1.0, 2.0, 3.0)
    worst_law, worst_fd = 0.0, 0.0
    for touch in (1, 2, 3):
        prof = vacuum_ramp_profile(M, touch=touch)
        d0 = edge_derivative_along(touch, 0.0, prof)
        for tau in taus_law:
            growth = edge_derivative_along(touch, tau, prof) / d0
            predicted = math.exp((touch + 1) * M * tau)
            worst_law = max(worst_law,
                            abs(growth - predicted) / predicted)
        # the vacuum table's windowed finite difference
        spec = ExperimentSpec(kind="vacuum-collapse", params=_params(M=M),
                              profile="vacuum-ramp",
                              profile_args={"touch": touch})
        rows = run_vacuum_collapse(spec, taus=taus_fd).rows
        assert [row.tau for row in rows] == list(taus_fd)
        for row in rows:
            exact = edge_derivative_along(touch, row.tau, prof)
            gap = abs(row.fd_estimate - exact) / abs(exact)
            assert row.fd_rel_gap == gap
            worst_fd = max(worst_fd, gap)
    ok = worst_law <= 1e-12 and worst_fd <= 0.05 and FD_NODES == 2048
    _verdict(2, "edge derivative blow-up", ok,
             f"law rel gap {worst_law:.2e}, finite-difference gap "
             f"{worst_fd:.2e} for tau <= 3 at N=2048")


def _const_profile(s0: float, M: float) -> InitialProfile:
    return InitialProfile(
        M=M,
        sigma0=lambda x: np.full_like(np.asarray(x, dtype=float), s0),
        cumulative=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        vacuum_set=((0.0, 1.0),) if s0 == 0.0 else (),
        domain=(0.0, 1.0),
        label="constant")


def _rk4_logistic(y0: float, M: float, tau: float) -> float:
    # deliberately independent of the package: plain fixed-step RK4
    if tau == 0.0:
        return y0
    n = max(2000, int(2000.0 * tau))
    h = tau / n
    y = y0

    def f(s):
        return -s * (s - M)

    for _ in range(n):
        k1 = f(y)
        k2 = f(y + 0.5 * h * k1)
        k3 = f(y + 0.5 * h * k2)
        k4 = f(y + h * k3)
        y += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def test_criterion_03_logistic_oracle():
    M = 1.0
    taus = (0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 7.5, 10.0)
    worst = 0.0
    bounds_ok = True
    for s0 in (0.0, 0.1, 0.5, M, 2.0 * M):
        prof = _const_profile(s0, M)
        floor = min(s0, M)
        # the sigma column of one row per tau at label 0.5
        rows = trajectory_rows(np.array([0.5]), taus, prof)
        for tau, (_, _, _, value, _, _) in zip(taus, rows):
            worst = max(worst, abs(value - _rk4_logistic(s0, M, tau)))
            if value < floor - 1e-12:
                bounds_ok = False
            if abs(value - M) > math.exp(-floor * tau) * abs(s0 - M) + 1e-12:
                bounds_ok = False
    ok = worst <= 1e-10 and bounds_ok
    _verdict(3, "logistic oracle", ok,
             f"max |closed form - RK4| {worst:.2e}, "
             f"bounds {'hold' if bounds_ok else 'VIOLATED'}")


def test_criterion_04_dispersion_relation(quadratic_residual):
    anchor = DispersionQuery(epsilon=0.1, alpha=1.0, gamma=2.0, M=1.0, k=1.0)
    pair = dispersion_roots(anchor)
    anchor_ok = (abs(pair.lambda_slow.real - (-1.21475)) <= 1e-4
                 and abs(pair.lambda_fast.real - (-98.7853)) <= 1e-2
                 and pair.lambda_slow.imag == 0.0)

    worst_res = 0.0
    stable = True
    for eps in np.geomspace(0.01, 0.5, 20):
        for k in (0.0, 0.5, 1.0, 2.0, 4.0, 5.5, 8.0, 16.0, 32.0, 64.0):
            q = DispersionQuery(epsilon=float(eps), alpha=1.0, gamma=2.0,
                                M=1.0, k=float(k))
            p = dispersion_roots(q)
            worst_res = max(worst_res, quadratic_residual(q, p.lambda_slow),
                            quadratic_residual(q, p.lambda_fast))
            stable = stable and p.lambda_slow.real < 0.0 \
                and p.lambda_fast.real < 0.0
    ok = anchor_ok and worst_res <= 1e-12 and stable
    _verdict(4, "dispersion relation", ok,
             f"anchor roots {pair.lambda_slow.real:.6f}/"
             f"{pair.lambda_fast.real:.4f}, max residual {worst_res:.2e} "
             f"on 200 points, all Re < 0: {stable}")


def test_criterion_05_linear_regime_consistency():
    p = _params(epsilon=0.05, n=128)
    worst = 0.0
    for k in (1, 2):
        rho0 = Field(p.grid, 1.0 + 1e-6 * np.cos(k * p.grid.x),
                     tag="density")
        w0 = Field(p.grid, np.zeros(p.grid.n))
        result = simulate_ep(rho0, w0, p, np.linspace(0.0, 1.0, 11))
        assert result.ok
        amps = [(s.time, 2.0 * abs(np.fft.rfft(s.rho.values)[k]) / p.grid.n)
                for s, _ in result.samples]
        rate, _ = fit_exponential_rate(amps, (0.0, 1.0))
        lam = dispersion_roots(DispersionQuery(
            epsilon=0.05, alpha=1.0, gamma=2.0, M=1.0, k=float(k)))
        worst = max(worst, abs(rate + lam.lambda_slow.real)
                    / abs(lam.lambda_slow.real))
    ok = worst <= 0.01
    _verdict(5, "linear-regime consistency", ok,
             f"max modal-rate gap {worst:.2%} at eps=0.05, k in (1, 2)")


def test_criterion_06_oracle_eulerian_agreement():
    p = _params(n=256)
    grid = p.grid
    state = KSState(sigma=Field(grid, 1.0 + 0.3 * np.cos(grid.x),
                                tag="density"))
    # 34 samples (17 marker steps), each within the CFL bound of the run
    oracle = semi_lagrangian_oracle(state, p, 1.0, n_steps=34)
    coarse = semi_lagrangian_oracle(state, p, 1.0, n_steps=40)
    fine = semi_lagrangian_oracle(state, p, 1.0, n_steps=80)
    ratio = coarse.max_gap / fine.max_gap
    ok = oracle.max_gap <= 1e-6 and ratio >= 1.8
    _verdict(6, "oracle vs eulerian", ok,
             f"pointwise gap {oracle.max_gap:.2e} at N=256 tau=1, "
             f"dt-halving ratio {ratio:.1f}")


def test_criterion_07_conservation_and_bounds():
    p = _params(epsilon=0.05, n=64, t_end=5.0)
    rho0 = Field(p.grid, 1.0 + 0.3 * np.cos(p.grid.x), tag="density")
    w0 = Field(p.grid, np.zeros(p.grid.n))
    result = simulate_ep(rho0, w0, p, np.linspace(0.0, 5.0, 26))
    assert result.ok and result.n_steps <= 10_000
    mass0 = p.grid.integrate(rho0.values)
    defect = max(abs(p.grid.integrate(s.rho.values) - mass0)
                 for s, _ in result.samples)
    lo = min(rec.rho_min for _, rec in result.samples)
    hi = max(rec.rho_max for _, rec in result.samples)
    window = (0.75 * p.rho_lower, 1.5 * p.rho_upper)
    ok = defect <= 1e-10 * p.grid.length and window[0] <= lo \
        and hi <= window[1]
    _verdict(7, "conservation and bounds", ok,
             f"mass defect {defect:.2e} over {result.n_steps} steps, "
             f"rho in [{lo:.3f}, {hi:.3f}] vs window "
             f"[{window[0]:.4g}, {window[1]:.4g}]")


def test_criterion_08_large_friction_convergence():
    p = _params(alpha=1.5, n=128, t_end=1.0)
    spec = ExperimentSpec(kind="epsilon-sweep", params=p,
                          epsilon_list=(0.2, 0.1, 0.05, 0.025))
    result = run_epsilon_sweep(spec)
    errs = [r.sup_l2_error for r in result.rows]
    statuses = [r.status for r in result.rows]
    ratio = errs[-1] / errs[0]
    ok = statuses == ["ok"] * 4 and result.monotone_decreasing \
        and ratio <= 0.10
    _verdict(8, "large-friction convergence", ok,
             f"sup-L2 errors {', '.join(f'{e:.2e}' for e in errs)}; "
             f"final/first = {ratio:.3f}")


def test_criterion_09_exponential_decay():
    p = _params(epsilon=0.1, n=64, t_end=5.0)
    spec = ExperimentSpec(kind="decay-fit", params=p)
    result = run_decay_fit(spec)
    fits = {fit.series: fit for fit in result.rows}
    assert list(fits) == ["e_total", "sup_dev", "grad_l4", "ks_sup_dev"]
    rates_ok = all(f.status == "ok" and f.rate > 0.0
                   and f.r_squared >= 0.99 for f in fits.values())
    floor = 0.9 * min(0.7, p.mass_level)   # sigma0 = 1 + 0.3 cos
    ks_ok = fits["ks_sup_dev"].rate >= floor
    ok = rates_ok and ks_ok and result.verdict_ok
    detail = ", ".join(f"{n}={f.rate:.3f} (r2={f.r_squared:.4f})"
                       for n, f in fits.items())
    _verdict(9, "exponential decay", ok, detail)


def test_criterion_10_determinism(tmp_path):
    files = {}
    for run in ("a", "b"):
        out = tmp_path / run
        p = _params(n=64, t_end=0.5)
        run_single_ep(ExperimentSpec(kind="single-run", params=p,
                                     output_dir=out), n_samples=11)
        run_single_ks(ExperimentSpec(kind="single-run", params=p,
                                     output_dir=out), n_samples=11)
        run_decay_fit(ExperimentSpec(kind="decay-fit", params=p,
                                     output_dir=out), n_samples=11)
        run_spectrum_table(ExperimentSpec(kind="spectrum-table", params=p,
                                          epsilon_list=(0.2, 0.1),
                                          output_dir=out))
        run_vacuum_collapse(
            ExperimentSpec(kind="vacuum-collapse", params=p,
                           profile="vacuum-ramp", output_dir=out),
            taus=[0.0, 1.0], n_grid=512)
        run_epsilon_sweep(ExperimentSpec(kind="epsilon-sweep", params=p,
                                         epsilon_list=(0.2, 0.1),
                                         output_dir=out))
        files[run] = {f.name: f.read_bytes()
                      for f in sorted(out.glob("*.csv"))}
    names = sorted(files["a"])
    ok = names == sorted(files["b"]) and len(names) == 6 and all(
        files["a"][n] == files["b"][n] for n in names)
    _verdict(10, "determinism", ok,
             f"{len(names)} CSV kinds byte-identical across repeated runs")
