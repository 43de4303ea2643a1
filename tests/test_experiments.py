import math
import threading
from dataclasses import astuple, fields

import numpy as np
import pytest

import frictionlab.experiments as experiments
from frictionlab import characteristics, profiles
from frictionlab.characteristics import (
    edge_derivative_along, reconstruct_eulerian, vacuum_interval,
)
from frictionlab.core import Field, Grid, KSState, ParamSet
from frictionlab.diagnostics import DiagnosticsRecord
from frictionlab.euler_poisson import simulate_ep, simulate_ep_rows
from frictionlab.keller_segel import simulate_ks
from frictionlab.profiles import profile_field, profile_line
from frictionlab.experiments import (
    DEFAULT_WAVENUMBERS, ExperimentSpec, SweepRow, _edge_derivatives_fd,
    measured_vacuum_length, run_decay_fit, run_epsilon_sweep, run_single_ep,
    run_single_ks, run_spectrum_table, run_vacuum_collapse,
)


@pytest.fixture
def spec_factory(params):
    def make(kind, **kw):
        kw.setdefault("params", params)
        return ExperimentSpec(kind=kind, **kw)
    return make


class TestExperimentSpec:
    def test_rejects_unknown_kind(self, params):
        with pytest.raises(ValueError, match="kind"):
            ExperimentSpec(kind="grand-tour", params=params)

    def test_rejects_unknown_profile(self, params):
        with pytest.raises(KeyError, match="profile"):
            ExperimentSpec(kind="single-run", params=params,
                           profile="sawtooth")

    def test_rejects_epsilon_out_of_range(self, params):
        with pytest.raises(ValueError, match="lie in"):
            ExperimentSpec(kind="epsilon-sweep", params=params,
                           epsilon_list=(0.2, 1.0))

    def test_rejects_non_decreasing_list(self, params):
        with pytest.raises(ValueError, match="decreasing"):
            ExperimentSpec(kind="epsilon-sweep", params=params,
                           epsilon_list=(0.05, 0.1))

    def test_epsilons_fall_back_to_params(self, params):
        spec = ExperimentSpec(kind="single-run", params=params)
        assert spec.epsilons == (params.epsilon,)
        spec = ExperimentSpec(kind="epsilon-sweep", params=params,
                              epsilon_list=(0.2, 0.1))
        assert spec.epsilons == (0.2, 0.1)

    def test_output_dir_becomes_path(self, params, tmp_path):
        spec = ExperimentSpec(kind="single-run", params=params,
                              output_dir=str(tmp_path))
        assert spec.output_dir == tmp_path


class TestSingleRuns:
    def test_ep_run_writes_csv(self, spec_factory, tmp_path):
        spec = spec_factory("single-run", output_dir=tmp_path)
        result, path = run_single_ep(spec, n_samples=5)
        assert result.ok
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(DiagnosticsRecord.CSV_COLUMNS)
        assert len(lines) == 1 + 5

    def test_ks_run_accepts_override(self, spec_factory, params, tmp_path):
        grid = params.grid
        sigma0 = Field(grid, 1.0 + 0.1 * np.sin(grid.x), tag="density")
        spec = spec_factory("single-run", output_dir=tmp_path)
        result, path = run_single_ks(spec, sigma0=sigma0, n_samples=3)
        assert result.ok
        assert (tmp_path / "ks_run.csv").exists()
        assert result.samples[0][1].sup_dev == pytest.approx(0.1, rel=1e-2)

    def test_no_output_dir_no_file(self, spec_factory):
        result, path = run_single_ks(spec_factory("single-run"), n_samples=3)
        assert result.ok and path is None


class TestEpsilonSweep:
    def test_errors_shrink_with_epsilon(self, params, tmp_path):
        spec = ExperimentSpec(kind="epsilon-sweep", params=params,
                              epsilon_list=(0.2, 0.1, 0.05),
                              output_dir=tmp_path)
        result = run_epsilon_sweep(spec)
        assert [r.status for r in result.rows] == ["ok"] * 3
        errs = [r.sup_l2_error for r in result.rows]
        assert errs[0] > errs[1] > errs[2] > 0.0
        assert result.monotone_decreasing and result.verdict_ok
        assert result.csv_path == tmp_path / "sweep.csv"
        header = result.csv_path.read_text().splitlines()[0]
        assert header == ",".join(f.name for f in fields(SweepRow))

    def test_sweep_is_deterministic(self, params, tmp_path):
        # repeated runs must give the same output bytes
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            run_epsilon_sweep(ExperimentSpec(
                kind="epsilon-sweep", params=params.replace(t_end=0.5),
                epsilon_list=(0.2, 0.1), output_dir=out))
        assert (out_a / "sweep.csv").read_bytes() == \
            (out_b / "sweep.csv").read_bytes()

    def test_members_run_on_calling_thread(self, params, monkeypatch):
        threads = []
        member = experiments._sweep_member

        def recording_member(*args):
            threads.append(threading.get_ident())
            return member(*args)

        monkeypatch.setattr(experiments, "_sweep_member", recording_member)
        result = run_epsilon_sweep(ExperimentSpec(
            kind="epsilon-sweep", params=params.replace(t_end=0.2),
            epsilon_list=(0.2, 0.1, 0.05)))
        assert [r.epsilon for r in result.rows] == [0.2, 0.1, 0.05]
        assert threads == [threading.get_ident()] * 3

    @pytest.mark.parametrize("n", [64, 256])
    @pytest.mark.parametrize("alpha", [1.0, 1.5])
    @pytest.mark.parametrize("epsilons", [(0.1,), (0.2, 0.05),
                                          (0.2, 0.1, 0.05, 0.025)])
    def test_rows_match_separate_runs(self, n, alpha, epsilons):
        # the batched sweep against the serial recipe: one simulate_ep run
        # per member, each turned into its row against the same reference
        p = ParamSet(epsilon=0.1, alpha=alpha, gamma=2.0, mass_level=1.0,
                     rho_lower=0.25, rho_upper=2.0, grid=Grid.torus(n),
                     t_end=0.1)
        spec = ExperimentSpec(kind="epsilon-sweep", params=p,
                              epsilon_list=epsilons)
        rho0 = profile_field("cosine", p.grid, p.mass_level)
        w0 = Field(p.grid, np.zeros(n))
        times = np.linspace(0.0, p.t_end, 21)
        members = [p.replace(epsilon=e) for e in epsilons]
        solo = [simulate_ep(rho0, w0, q, times) for q in members]
        batch = simulate_ep_rows(rho0, w0, members, times)
        for a, b in zip(batch, solo, strict=True):
            assert a.status == b.status == "ok"
            assert a.n_steps == b.n_steps
            for (sa, ra), (sb, rb) in zip(a.samples, b.samples, strict=True):
                assert sa.time == sb.time and ra == rb
                assert np.array_equal(sa.rho.values, sb.rho.values)
                assert np.array_equal(sa.w.values, sb.w.values)

        reference = simulate_ks(rho0, p.replace(dt_cfl=0.5 * p.dt_cfl), times)
        sigma = [state.sigma.values for state, _ in reference.samples]
        rows = tuple(experiments._sweep_member(r, q, sigma)
                     for r, q in zip(solo, members))
        assert run_epsilon_sweep(spec).rows == rows


class TestVacuumCollapse:
    def test_verdicts_and_laws(self, params, tmp_path):
        spec = ExperimentSpec(kind="vacuum-collapse", params=params,
                              profile="vacuum-ramp", output_dir=tmp_path)
        result = run_vacuum_collapse(spec, taus=[0.0, 0.5, 1.0],
                                     n_grid=1024)
        assert result.verdict_ok, result.verdicts
        first = result.rows[0]
        assert first.length == pytest.approx(1.0, abs=1e-13)
        for row in result.rows:
            assert row.length == pytest.approx(math.exp(-row.tau),
                                               rel=1e-12)
            assert row.growth_factor == pytest.approx(row.factor_predicted,
                                                      rel=1e-12)
        # both edges converge to a0 + F(a0)/M = -1/6 for the default ramp
        assert result.limit_point == pytest.approx(-1.0 / 6.0, abs=1e-12)
        assert (tmp_path / "vacuum.csv").exists()

    def test_touch_order_read_from_the_profile(self, params):
        spec = ExperimentSpec(kind="vacuum-collapse", params=params,
                              profile="vacuum-ramp",
                              profile_args={"touch": 2})
        result = run_vacuum_collapse(spec, taus=[0.0, 1.0], n_grid=256)
        # order 2 at the edge: d^2 sigma0 = 3! / width^2 grows as e^{3 M tau}
        assert result.rows[0].deriv_along == pytest.approx(24.0, rel=1e-12)
        assert result.rows[-1].factor_predicted == math.exp(3.0)
        assert result.verdict_ok, result.verdicts

    def test_verdicts_hold_at_infinite_tau(self, params):
        # at tau = inf the growth factor and its prediction are both inf
        spec = ExperimentSpec(kind="vacuum-collapse", params=params,
                              profile="vacuum-ramp")
        result = run_vacuum_collapse(spec, taus=[0.0, math.inf], n_grid=256)
        last = result.rows[-1]
        assert last.growth_factor == last.factor_predicted == math.inf
        assert all(result.verdicts.values()), result.verdicts

    def test_verdicts_hold_past_the_float_range(self, params):
        # e^{2 M tau} overflows at tau = 400: the table's growth factor,
        # its prediction and the derivative are inf, as at tau = inf,
        # where math.exp raised OverflowError
        spec = ExperimentSpec(kind="vacuum-collapse", params=params,
                              profile="vacuum-ramp")
        result = run_vacuum_collapse(spec, taus=[0.0, 400.0], n_grid=256)
        last = result.rows[-1]
        assert last.deriv_along == math.inf
        assert last.growth_factor == last.factor_predicted == math.inf
        assert last.length == 0.0
        assert all(result.verdicts.values()), result.verdicts

    @pytest.mark.parametrize("taus", [[], [-1.0, 0.5], [0.0, math.nan]])
    def test_rejects_bad_taus_before_any_work(self, params, tmp_path,
                                              monkeypatch, taus):
        spec = ExperimentSpec(kind="vacuum-collapse", params=params,
                              profile="vacuum-ramp", output_dir=tmp_path)

        def no_work(*args, **kwargs):
            raise AssertionError("work started before taus were checked")

        monkeypatch.setattr(experiments, "profile_line", no_work)
        with pytest.raises(ValueError, match="taus"):
            run_vacuum_collapse(spec, taus=taus)
        assert not (tmp_path / "vacuum.csv").exists()

    def test_fd_skipped_past_horizon(self, params):
        spec = ExperimentSpec(kind="vacuum-collapse", params=params,
                              profile="vacuum-ramp")
        result = run_vacuum_collapse(spec, taus=[0.0, 4.0], n_grid=512)
        assert math.isfinite(result.rows[0].fd_estimate)
        assert math.isnan(result.rows[1].fd_estimate)
        assert math.isnan(result.rows[1].fd_rel_gap)

    @pytest.mark.parametrize("touch", [1, 2])
    @pytest.mark.parametrize("width", [0.45, 0.5, 0.55])
    def test_rows_equal_the_per_tau_path(self, params, width, touch):
        # the stacked inversions give every row what one reconstruction
        # and one edge finite difference per tau give, bit for bit
        args = {"width": width, "touch": touch}
        spec = ExperimentSpec(kind="vacuum-collapse", params=params,
                              profile="vacuum-ramp", profile_args=args)
        result = run_vacuum_collapse(spec)
        prof = profile_line("vacuum-ramp", 1.0, **args)
        grid = Grid.line(prof.domain[0], prof.domain[1], 2048)
        d0 = edge_derivative_along(touch, 0.0, prof)
        assert len(result.rows) == 11
        for row in result.rows:
            tau = row.tau
            rep = vacuum_interval([tau], prof)[0]
            d = edge_derivative_along(touch, tau, prof)
            fd = (_edge_derivatives_fd(prof, [tau], [rep.b], touch)[0]
                  if tau <= experiments.FD_TAU_MAX else math.nan)
            expected = experiments.VacuumRow(
                tau=tau, a=rep.a, b=rep.b, length=rep.length,
                length_measured=measured_vacuum_length(
                    reconstruct_eulerian([tau], prof, grid)[0], 1.0),
                deriv_along=d, growth_factor=d / d0,
                factor_predicted=math.exp((touch + 1) * tau),
                fd_estimate=fd, fd_rel_gap=abs(fd - d) / abs(d))
            assert np.array_equal(astuple(row), astuple(expected),
                                  equal_nan=True), tau

    @pytest.mark.parametrize("width", [0.45, 0.5, 0.55])
    def test_rows_do_not_depend_on_the_bump_power_form(self, params, width,
                                                       monkeypatch):
        # the edge stencils and the vacuum edges lie outside the bump
        # supports, where u is clipped to -1 or 1 and the products equal
        # the powers; inside them only labels where sigma is near M move
        spec = ExperimentSpec(kind="vacuum-collapse", params=params,
                              profile="vacuum-ramp",
                              profile_args={"width": width})
        products = run_vacuum_collapse(spec).rows

        def powers(x, c, r, h):
            u = np.clip((np.asarray(x, dtype=float) - c) / r, -1.0, 1.0)
            prim = u - 2.0 * u**3 / 3.0 + u**5 / 5.0
            return h * r * (prim + 8.0 / 15.0)

        monkeypatch.setattr(profiles, "_quartic_bump_cum", powers)
        rows = run_vacuum_collapse(spec).rows
        assert len(rows) == len(products) == 11
        for row, ref in zip(rows, products):
            assert np.array_equal(astuple(row), astuple(ref),
                                  equal_nan=True), row.tau

    def test_default_collapse_work(self, params, monkeypatch):
        # 4 bisection passes (3 stacks of at most 4 full-grid rows and one
        # of the 7 edge stencils) where one pass per row took 18, 385 eta
        # calls and 334 261 positions
        spec = ExperimentSpec(kind="vacuum-collapse", params=params,
                              profile="vacuum-ramp")
        passes, calls, positions = [], [], []
        invert = characteristics.invert_trajectory_map
        eta = characteristics._eta

        def counting_invert(y, *args):
            passes.append(np.shape(y))
            return invert(y, *args)

        def counting_eta(x, *args):
            calls.append(1)
            positions.append(np.size(x))
            return eta(x, *args)

        monkeypatch.setattr(characteristics, "invert_trajectory_map",
                            counting_invert)
        monkeypatch.setattr(characteristics, "_eta", counting_eta)
        run_vacuum_collapse(spec)
        assert passes == [(4, 2048), (4, 2048), (3, 2048), (7, 2)]
        assert len(calls) <= 166
        assert sum(positions) <= 334_261

    def test_windowed_fd_tracks_closed_form(self, params):
        spec = ExperimentSpec(kind="vacuum-collapse", params=params,
                              profile="vacuum-ramp")
        prof = profile_line("vacuum-ramp", 1.0)
        rows = run_vacuum_collapse(spec, taus=[0.0, 1.0, 2.0],
                                   n_grid=256).rows
        for row in rows:
            exact = edge_derivative_along(1, row.tau, prof)
            assert row.fd_estimate == pytest.approx(exact, rel=5e-3)
            assert row.fd_rel_gap == abs(row.fd_estimate - exact) / exact

    @pytest.mark.parametrize("tau", [3.5, 12.0, 13.0, 18.0, math.inf])
    def test_fd_rejects_tau_past_the_bound(self, params, tau):
        # past FD_TAU_MAX the window was too thin for its grid: tau = 12
        # read 40% low, 13 negative, 14-17 zero, and 18 raised a grid
        # error; the table leaves the estimate out there
        spec = ExperimentSpec(kind="vacuum-collapse", params=params,
                              profile="vacuum-ramp")
        result = run_vacuum_collapse(spec, taus=[tau], n_grid=256)
        (row,) = result.rows
        assert math.isnan(row.fd_estimate) and math.isnan(row.fd_rel_gap)
        assert result.verdicts["fd_agreement"]


class TestMeasuredVacuumLength:
    def test_zero_block(self):
        grid = Grid.line(0.0, 1.0, 101)
        sigma = np.ones(101)
        sigma[40:61] = 0.0
        state = KSState(sigma=Field(grid, sigma, tag="density"))
        expected = grid.x[60] - grid.x[40] + grid.h
        assert measured_vacuum_length(state, 1.0) == pytest.approx(expected)

    def test_no_vacuum_gives_zero(self):
        grid = Grid.line(0.0, 1.0, 64)
        state = KSState(sigma=Field(grid, np.ones(64), tag="density"))
        assert measured_vacuum_length(state, 1.0) == 0.0


class TestDecayFit:
    def test_cosine_rates(self, params, tmp_path):
        spec = ExperimentSpec(kind="decay-fit", params=params,
                              output_dir=tmp_path)
        result = run_decay_fit(spec, n_samples=21)
        assert result.verdict_ok, result.verdicts
        fits = {fit.series: fit for fit in result.rows}
        assert list(fits) == ["e_total", "sup_dev", "grad_l4", "ks_sup_dev"]
        for fit in fits.values():
            assert fit.status == "ok"
            assert fit.rate > 0.0
        # sigma0 = 1 + 0.3 cos: floor is 0.9 * min(0.7, 1)
        assert fits["ks_sup_dev"].rate >= 0.9 * 0.7
        assert (tmp_path / "decay.csv").exists()

    def test_equilibrium_is_zero_signal(self, params):
        spec = ExperimentSpec(kind="decay-fit", params=params,
                              profile="equilibrium")
        result = run_decay_fit(spec, n_samples=11)
        assert result.verdict_ok
        for fit in result.rows:
            assert fit.status == "zero-signal"
            assert fit.rate == 0.0 and fit.r_squared == 1.0

    def test_nonpositive_t_end_raises(self, params):
        spec = ExperimentSpec(kind="decay-fit",
                              params=params.replace(t_end=0.0))
        with pytest.raises(ValueError, match="t_end"):
            run_decay_fit(spec, n_samples=11)


class TestSpectrumTable:
    def test_table_shape_and_stability(self, params, tmp_path):
        spec = ExperimentSpec(kind="spectrum-table", params=params,
                              epsilon_list=(0.2, 0.1), output_dir=tmp_path)
        result = run_spectrum_table(spec)
        assert len(result.rows) == 2 * len(DEFAULT_WAVENUMBERS)
        assert result.verdicts["all_stable"] and result.verdict_ok
        for row in result.rows:
            assert row[5] < 0.0          # re(lambda_slow)
            assert bool(row[10])
        lines = (tmp_path / "spectrum.csv").read_text().splitlines()
        assert len(lines) == 1 + len(result.rows)

    def test_custom_wavenumbers(self, params):
        spec = ExperimentSpec(kind="spectrum-table", params=params,
                              wavenumbers=(1.0, 2.0))
        result = run_spectrum_table(spec)
        assert len(result.rows) == 2
        assert [row[4] for row in result.rows] == [1.0, 2.0]
