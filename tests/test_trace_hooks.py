"""The benchmark's tracer (perfbench/tracing.py) finds the solver layers
by name: public module functions plus experiments._sweep_member.  These
tests run it on tiny operations and check that the spans the per-layer
metrics are computed from still appear."""
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from frictionlab import euler_poisson, keller_segel
from frictionlab.core import Field, Grid, ParamSet
from frictionlab.diagnostics import DERIV_CAP
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
    assert calls["keller_segel.step_ks"] == 0
    assert calls["keller_segel.stable_dt_ks"] == 0
    # the members advance together: one batched step serves both while
    # both are behind, and no one-member step or stable_dt call is made
    rho0 = Field(p64.grid, 1.0 + 0.3 * np.cos(p64.grid.x), tag="density")
    w0 = Field(p64.grid, np.zeros(p64.grid.n))
    times = np.linspace(0.0, p64.t_end, 21)
    solo = [euler_poisson.simulate_ep(rho0, w0, p64.replace(epsilon=e),
                                      times).n_steps
            for e in spec.epsilons]
    assert max(solo) <= calls["euler_poisson.step_ep_rows"] < sum(solo)
    assert calls["euler_poisson.step_ep"] == 0
    assert calls["euler_poisson.stable_dt"] == 0


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
    # the step picks its own dt: no fixed-dt step and no stable_dt call
    assert calls["euler_poisson.step_ep"] == 0
    assert calls["euler_poisson.stable_dt"] == 0
    # the tracer keys its step metrics on step_ep, so on a driver run
    # they read 0 until it counts step_ep_rows spans instead
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
    assert calls["keller_segel.step_ks"] == 0
    assert calls["keller_segel.stable_dt_ks"] == 0


def _ffts_under(spans, name, outside=None):
    """rfft/irfft spans with an ancestor span called `name`, however deep,
    and none called `outside`."""
    def ancestors(span):
        names = set()
        while span is not None:
            names.add(span.name)
            span = span.parent
        return names
    return sum(name in a and outside not in a
               for a in (ancestors(s) for s in spans
                         if s.name == "spectral.fft"))


def test_ep_step_fft_budget(tracing, p64):
    # every rfft/irfft made inside a step_ep_rows, however deep, counts
    # against that step: three stages of the fused right side at six
    # calls each
    rho0 = Field(p64.grid, 1.0 + 0.3 * np.cos(p64.grid.x), tag="density")
    w0 = Field(p64.grid, np.zeros(p64.grid.n))
    tracer = tracing.Tracer()
    tracer.run(lambda: euler_poisson.simulate_ep(
        rho0, w0, p64, [0.0, 0.1, 0.2]))
    steps = sum(s.name == "euler_poisson.step_ep_rows" for s in tracer.spans)
    assert steps > 0
    ffts = _ffts_under(tracer.spans, "euler_poisson.step_ep_rows")
    assert ffts <= 18 * steps, ffts / steps


@pytest.mark.parametrize("epsilons", [(0.2,), (0.2, 0.1),
                                      (0.2, 0.1, 0.05, 0.025)])
def test_ep_rows_fft_budget(tracing, p64, epsilons):
    # a batched step transforms all its members' rows together: the same
    # 18 calls as one member, whatever the member count
    spec = ExperimentSpec(kind="epsilon-sweep", params=p64,
                          epsilon_list=epsilons)
    tracer = tracing.Tracer()
    tracer.run(lambda: run_epsilon_sweep(spec))
    steps = sum(s.name == "euler_poisson.step_ep_rows" for s in tracer.spans)
    assert steps > 0
    ffts = _ffts_under(tracer.spans, "euler_poisson.step_ep_rows")
    assert ffts <= 18 * steps, ffts / steps


def test_ks_step_fft_budget(tracing, p64):
    # three stages of the fused flux right side at four calls each
    sigma0 = Field(p64.grid, 1.0 + 0.3 * np.cos(p64.grid.x), tag="density")
    tracer = tracing.Tracer()
    tracer.run(lambda: simulate_ks(sigma0, p64, [0.0, 0.1, 0.2]))
    steps = sum(s.name == "keller_segel.step_ks_to" for s in tracer.spans)
    assert steps > 0
    ffts = _ffts_under(tracer.spans, "keller_segel.step_ks_to")
    assert ffts <= 12 * steps, ffts / steps


def test_ep_run_fft_budget(tracing, p64):
    # a whole driver run, records aside, costs its steps' FFTs and no
    # more: no separate stable_dt pass before each step
    rho0 = Field(p64.grid, 1.0 + 0.3 * np.cos(p64.grid.x), tag="density")
    w0 = Field(p64.grid, np.zeros(p64.grid.n))
    tracer = tracing.Tracer()
    result = tracer.run(lambda: euler_poisson.simulate_ep(
        rho0, w0, p64, [0.0, 0.1, 0.2]))
    assert result.ok and result.n_steps > 0
    ffts = _ffts_under(tracer.spans, "euler_poisson.simulate_ep",
                       outside="diagnostics.record_ep")
    assert 0 < ffts <= 18 * result.n_steps, ffts / result.n_steps


def test_ks_run_fft_budget(tracing, p64):
    sigma0 = Field(p64.grid, 1.0 + 0.3 * np.cos(p64.grid.x), tag="density")
    tracer = tracing.Tracer()
    result = tracer.run(lambda: keller_segel.simulate_ks(
        sigma0, p64, [0.0, 0.1, 0.2]))
    assert result.ok and result.n_steps > 0
    ffts = _ffts_under(tracer.spans, "keller_segel.simulate_ks",
                       outside="diagnostics.record_ks")
    assert 0 < ffts <= 12 * result.n_steps, ffts / result.n_steps


def test_record_fft_budget(tracing, p64):
    # one batched rfft/irfft of (rho, w) per derivative order, shared by
    # the energy, the dissipation and the gradient norm of a record
    sigma0 = Field(p64.grid, 1.0 + 0.3 * np.cos(p64.grid.x), tag="density")
    tracer = tracing.Tracer()
    tracer.run(lambda: simulate_ks(sigma0, p64, [0.0, 0.1, 0.2]))
    records = sum(s.name == "diagnostics.record_ks" for s in tracer.spans)
    assert records == 3
    ffts = _ffts_under(tracer.spans, "diagnostics.record_ks")
    assert ffts <= 2 * DERIV_CAP * records, ffts / records
