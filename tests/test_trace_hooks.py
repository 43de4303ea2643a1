"""The benchmark's tracer (perfbench/tracing.py) finds the solver layers
by name: public module functions plus experiments._sweep_member.  These
tests run it on tiny operations and check that the spans the per-layer
metrics are computed from still appear."""
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from frictionlab import diagnostics, euler_poisson, keller_segel
from frictionlab.characteristics import semi_lagrangian_oracle
from frictionlab.core import Field, Grid, KSState, ParamSet
from frictionlab.experiments import ExperimentSpec, run_epsilon_sweep
from frictionlab.keller_segel import simulate_ks

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def p64():
    return ParamSet(epsilon=0.1, alpha=1.0, gamma=2.0, mass_level=1.0,
                    rho_lower=0.25, rho_upper=2.0, grid=Grid.torus(64),
                    t_end=0.2)


def test_sweep_spans(tracing, p64):
    spec = ExperimentSpec(kind="epsilon-sweep", params=p64,
                          epsilon_list=(0.2, 0.1))
    tracer = tracing.Tracer()
    result = tracer.run(lambda: run_epsilon_sweep(spec))
    assert result.verdict_ok
    calls = Counter(s.name for s in tracer.spans)
    assert calls["experiments.sweep_member"] == 2
    assert calls["euler_poisson.simulate_ep_rows"] == 1
    assert calls["keller_segel.step_ks_to"] > 0
    # the members advance together, each toward its own next sample time:
    # one batched step serves every member still running, so the sweep
    # takes as many steps as its slowest member alone
    rho0 = Field(p64.grid, 1.0 + 0.3 * np.cos(p64.grid.x), tag="density")
    w0 = Field(p64.grid, np.zeros(p64.grid.n))
    times = np.linspace(0.0, p64.t_end, 21)
    solo = [euler_poisson.simulate_ep(rho0, w0, p64.replace(epsilon=e),
                                      times).n_steps
            for e in spec.epsilons]
    assert calls["euler_poisson.step_ep_rows"] == max(solo)
    # the table needs the sampled states only: no diagnostics records
    # (record_states is the one record call)
    assert calls["diagnostics.record_states"] == 0


def test_oracle_trig_interp_spans(tracing, p64):
    # 4 velocity reads per marker step, 2 Eulerian steps per marker step,
    # and one final read of the density: 2 * n_steps + 1 interpolations,
    # each a trig_eval on one set of tables, of the coefficients of every
    # velocity sample (one batched call) and of the last density; the
    # samples are spaced below the CFL bound, one step each
    state = KSState(sigma=Field(p64.grid, 1.0 + 0.3 * np.cos(p64.grid.x),
                                tag="density"))
    tracer = tracing.Tracer()
    tracer.run(lambda: semi_lagrangian_oracle(state, p64, 0.2, n_steps=8))
    calls = Counter(s.name for s in tracer.spans)
    assert calls["spectral.trig_eval"] == 17
    assert calls["spectral.trig_coefficients"] == 2
    assert calls["spectral.trig_tables"] == 1
    assert calls["spectral.trig_interp"] == 0
    assert calls["keller_segel.simulate_ks"] == 1
    assert calls["keller_segel.step_ks_to"] == 8


def test_step_states_skip_field_rescans(tracing, p64):
    # the drivers' steps work on stacked rows and build no state: Fields
    # are made at sample times only
    rho0 = Field(p64.grid, 1.0 + 0.3 * np.cos(p64.grid.x), tag="density")
    w0 = Field(p64.grid, np.zeros(p64.grid.n))
    times = [0.0, 0.1, 0.2]
    for step, run in (
            ("euler_poisson.step_ep_rows",
             lambda: euler_poisson.simulate_ep(rho0, w0, p64, times)),
            ("keller_segel.step_ks_to",
             lambda: simulate_ks(rho0, p64, times))):
        tracer = tracing.Tracer()
        assert tracer.run(run).n_steps > 0
        assert sum(s.name == step for s in tracer.spans) > 0
        assert not any(s.name == "core.field" and tracing._under(s, step)
                       for s in tracer.spans)


def test_ep_step_spans_match_step_count(tracing, p64):
    rho0 = Field(p64.grid, 1.0 + 0.3 * np.cos(p64.grid.x), tag="density")
    w0 = Field(p64.grid, np.zeros(p64.grid.n))
    tracer = tracing.Tracer()
    result = tracer.run(lambda: euler_poisson.simulate_ep(
        rho0, w0, p64, [0.0, 0.1, 0.2]))
    assert result.ok and result.n_steps > 0
    calls = Counter(s.name for s in tracer.spans)
    assert calls["euler_poisson.simulate_ep"] == 1
    assert calls["euler_poisson.simulate_ep_rows"] == 1
    assert calls["euler_poisson.step_ep_rows"] == result.n_steps
    # the tracer keys its step metrics on euler_poisson.step_ep, a name
    # the package no longer has, so they read 0 until it counts
    # step_ep_rows spans instead
    metrics, detail = tracing.layer_metrics(tracer)
    assert detail["ep_steps_by_epsilon"] == {}
    assert metrics["spectral.fft.per_ep_step"][0] == 0.0


def test_ks_step_spans_match_step_count(tracing, p64):
    sigma0 = Field(p64.grid, 1.0 + 0.3 * np.cos(p64.grid.x), tag="density")
    tracer = tracing.Tracer()
    result = tracer.run(lambda: simulate_ks(sigma0, p64, [0.0, 0.1, 0.2]))
    assert result.ok and result.n_steps > 0
    calls = Counter(s.name for s in tracer.spans)
    assert calls["keller_segel.step_ks_to"] == result.n_steps


def _ffts_under(spans, name, outside=None):
    """spectral.rfft/irfft spans (every transform of the package goes
    through them) with an ancestor span called `name`, however deep, and
    none called `outside`."""
    def ancestors(span):
        names = set()
        while span is not None:
            names.add(span.name)
            span = span.parent
        return names
    return sum(name in a and outside not in a
               for a in (ancestors(s) for s in spans
                         if s.name in ("spectral.rfft", "spectral.irfft")))


def test_ep_step_fft_budget(tracing, p64):
    # every rfft/irfft made inside a step_ep_rows, however deep, counts
    # against that step: the step runs on the coefficients the last one
    # left and the rows its closing inverse made, so one forward call in
    # the first stage, two in each later one and one closing inverse:
    # 1 + 2 + 2 + 1
    rho0 = Field(p64.grid, 1.0 + 0.3 * np.cos(p64.grid.x), tag="density")
    w0 = Field(p64.grid, np.zeros(p64.grid.n))
    tracer = tracing.Tracer()
    tracer.run(lambda: euler_poisson.simulate_ep(
        rho0, w0, p64, [0.0, 0.1, 0.2]))
    steps = sum(s.name == "euler_poisson.step_ep_rows" for s in tracer.spans)
    assert steps > 0
    ffts = _ffts_under(tracer.spans, "euler_poisson.step_ep_rows")
    assert ffts <= 18 * steps, ffts / steps
    assert ffts <= 6 * steps, ffts / steps


@pytest.mark.parametrize("epsilons", [(0.2,), (0.2, 0.1),
                                      (0.2, 0.1, 0.05, 0.025)])
def test_ep_rows_fft_budget(tracing, p64, epsilons):
    # a batched step transforms all its members' rows together: the same
    # 6 calls as one member, whatever the member count
    spec = ExperimentSpec(kind="epsilon-sweep", params=p64,
                          epsilon_list=epsilons)
    tracer = tracing.Tracer()
    tracer.run(lambda: run_epsilon_sweep(spec))
    steps = sum(s.name == "euler_poisson.step_ep_rows" for s in tracer.spans)
    assert steps > 0
    ffts = _ffts_under(tracer.spans, "euler_poisson.step_ep_rows")
    assert ffts <= 18 * steps, ffts / steps
    assert ffts <= 6 * steps, ffts / steps


def test_ks_step_fft_budget(tracing, p64):
    # the EP step's shape on the density row: 1 + 2 + 2 + 1 calls
    sigma0 = Field(p64.grid, 1.0 + 0.3 * np.cos(p64.grid.x), tag="density")
    tracer = tracing.Tracer()
    tracer.run(lambda: simulate_ks(sigma0, p64, [0.0, 0.1, 0.2]))
    steps = sum(s.name == "keller_segel.step_ks_to" for s in tracer.spans)
    assert steps > 0
    ffts = _ffts_under(tracer.spans, "keller_segel.step_ks_to")
    assert ffts <= 12 * steps, ffts / steps
    assert ffts <= 6 * steps, ffts / steps


def test_ep_run_fft_budget(tracing, p64):
    # a whole driver run, records aside, costs its steps' FFTs, one
    # forward transform of the initial data and one inverse of the other
    # rows its first stage reads: no separate CFL pass before each step
    rho0 = Field(p64.grid, 1.0 + 0.3 * np.cos(p64.grid.x), tag="density")
    w0 = Field(p64.grid, np.zeros(p64.grid.n))
    tracer = tracing.Tracer()
    result = tracer.run(lambda: euler_poisson.simulate_ep(
        rho0, w0, p64, [0.0, 0.1, 0.2]))
    assert result.ok and result.n_steps > 0
    ffts = _ffts_under(tracer.spans, "euler_poisson.simulate_ep",
                       outside="diagnostics.record_states")
    assert 0 < ffts <= 18 * result.n_steps, ffts / result.n_steps
    assert ffts <= 6 * result.n_steps + 2, ffts / result.n_steps


def test_ks_run_fft_budget(tracing, p64):
    sigma0 = Field(p64.grid, 1.0 + 0.3 * np.cos(p64.grid.x), tag="density")
    tracer = tracing.Tracer()
    result = tracer.run(lambda: keller_segel.simulate_ks(
        sigma0, p64, [0.0, 0.1, 0.2]))
    assert result.ok and result.n_steps > 0
    ffts = _ffts_under(tracer.spans, "keller_segel.simulate_ks",
                       outside="diagnostics.record_states")
    assert 0 < ffts <= 12 * result.n_steps, ffts / result.n_steps
    assert ffts <= 6 * result.n_steps + 2, ffts / result.n_steps


def test_record_fft_budget(tracing, p64):
    # a run's records come from one stacked pass over its samples, in
    # chunks of at most STACK_POSITIONS // (fields x DERIV_CAP x n) states:
    # per chunk one rfft of the rows (rho, w), or of rho alone for KS
    # states, and one batched irfft of every derivative order up to
    # DERIV_CAP, shared by the energy, the dissipation and the gradient
    # norm of every record in it
    sigma0 = Field(p64.grid, 1.0 + 0.3 * np.cos(p64.grid.x), tag="density")
    w0 = Field(p64.grid, np.zeros(p64.grid.n))
    times = np.linspace(0.0, p64.t_end, 41)
    tracer = tracing.Tracer()
    for fields, run in [
            (1, lambda: simulate_ks(sigma0, p64, times)),
            (2, lambda: euler_poisson.simulate_ep(sigma0, w0, p64, times))]:
        result = tracer.run(run)
        assert len(result.samples) == len(times)
        assert sum(s.name == "diagnostics.record_states"
                   for s in tracer.spans) == 1
        per_chunk = diagnostics.STACK_POSITIONS // (
            fields * diagnostics.DERIV_CAP * p64.grid.n)
        chunks = -(-len(times) // per_chunk)
        ffts = _ffts_under(tracer.spans, "diagnostics.record_states")
        assert ffts == 2 * chunks, (fields, ffts, chunks)


def test_norms_fft_budget(tracing, p64):
    # the first and second derivatives come from one rfft and one batched
    # irfft
    f = Field(p64.grid, np.cos(p64.grid.x) + 0.2 * np.sin(3.0 * p64.grid.x))
    tracer = tracing.Tracer()
    tracer.run(lambda: diagnostics.h2_norm(f))
    assert sum(s.name == "diagnostics.h2_norm" for s in tracer.spans) == 1
    assert _ffts_under(tracer.spans, "diagnostics.h2_norm") == 2
