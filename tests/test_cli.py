import math

import numpy as np
import pytest
from click.testing import CliRunner

from frictionlab import keller_segel
from frictionlab.cli import main
from frictionlab.experiments import SweepResult, SweepRow


@pytest.fixture
def runner():
    return CliRunner()


def outputs(result) -> str:
    try:
        err = result.stderr
    except (ValueError, AttributeError):
        err = ""
    return result.output + err


def test_help_lists_subcommands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for name in ("simulate-ep", "simulate-ks", "characteristics",
                 "spectrum", "sweep", "vacuum", "decay"):
        assert name in result.output


def test_simulate_ep_happy_path(runner, tmp_path):
    result = runner.invoke(main, [
        "simulate-ep", "--grid", "64", "--t-end", "0.5",
        "--out", str(tmp_path)])
    assert result.exit_code == 0, outputs(result)
    assert "status=ok" in result.output
    assert (tmp_path / "ep_run.csv").exists()


def test_simulate_ks_with_config(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid_n = 64\nt_end = 0.5\nprofile = cosine\n"
                   "profile_amp = 0.2\n")
    result = runner.invoke(main, [
        "simulate-ks", "--config", str(cfg), "--out", str(tmp_path)])
    assert result.exit_code == 0, outputs(result)
    assert "status=ok" in result.output
    assert (tmp_path / "ks_run.csv").exists()


def test_eps_flag_overrides_single_run(runner):
    result = runner.invoke(main, [
        "simulate-ep", "--grid", "64", "--t-end", "0.2", "--eps", "0.2"])
    assert result.exit_code == 0, outputs(result)


def test_invalid_epsilon_exits_2(runner):
    result = runner.invoke(main, [
        "simulate-ep", "--grid", "64", "--eps", "1.5"])
    assert result.exit_code == 2
    assert "epsilon" in outputs(result)


def test_non_decreasing_sweep_list_exits_2(runner):
    result = runner.invoke(main, ["sweep", "--eps", "0.05,0.1"])
    assert result.exit_code == 2
    assert "decreasing" in outputs(result)


def test_missing_config_exits_2(runner, tmp_path):
    result = runner.invoke(main, [
        "simulate-ep", "--config", str(tmp_path / "nope.cfg")])
    assert result.exit_code == 2


def test_vacuum_touching_data_exits_3(runner, tmp_path):
    # tabulated sigma0 = 1 + cos(x) hits zero: the limit solver refuses
    x = 2.0 * math.pi * np.arange(64) / 64.0
    rows = "\n".join(f"{xi:.17g},{1.0 + math.cos(xi):.17g}" for xi in x)
    data = tmp_path / "init.csv"
    data.write_text("x,sigma\n" + rows + "\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"grid_n = 64\nt_end = 0.5\ninitial_data = {data}\n")
    result = runner.invoke(main, ["simulate-ks", "--config", str(cfg)])
    assert result.exit_code == 3, outputs(result)
    assert "status=vacuum" in result.output


def test_sweep_happy_path(runner, tmp_path):
    result = runner.invoke(main, [
        "sweep", "--eps", "0.2,0.1", "--grid", "64", "--t-end", "0.5",
        "--out", str(tmp_path)])
    assert result.exit_code == 0, outputs(result)
    assert (tmp_path / "sweep.csv").exists()
    assert result.output.count("[ok]") == 2


def test_non_monotone_sweep_exits_4(runner, monkeypatch):
    rows = (SweepRow(0.2, 1.0, 1.0, 1.0, "ok"),
            SweepRow(0.1, 2.0, 2.0, 2.0, "ok"))
    fake = SweepResult(rows=rows, monotone_decreasing=False, csv_path=None)
    monkeypatch.setattr("frictionlab.cli.run_epsilon_sweep",
                        lambda spec: fake)
    result = runner.invoke(main, ["sweep", "--eps", "0.2,0.1"])
    assert result.exit_code == 4
    assert "decreasing" in outputs(result)


def test_failed_sweep_member_exits_3(runner, monkeypatch):
    rows = (SweepRow(0.2, 1.0, 1.0, 1.0, "ok"),
            SweepRow(0.1, math.nan, math.nan, math.nan, "cfl"))
    fake = SweepResult(rows=rows, monotone_decreasing=True, csv_path=None)
    monkeypatch.setattr("frictionlab.cli.run_epsilon_sweep",
                        lambda spec: fake)
    result = runner.invoke(main, ["sweep", "--eps", "0.2,0.1"])
    assert result.exit_code == 3


def test_sweep_reference_blowup_exits_3(runner, monkeypatch):
    # a NaN flux derivative makes the shared KS reference blow up: that is
    # a solver failure, not a validation failure
    flux_rhs = keller_segel._flux_rhs
    monkeypatch.setattr(
        keller_segel, "_flux_rhs",
        lambda sigma, sh, p: (np.full_like(sh, np.nan),
                              flux_rhs(sigma, sh, p)[1]))
    result = runner.invoke(main, [
        "sweep", "--eps", "0.2,0.1", "--grid", "64", "--t-end", "0.5"])
    assert result.exit_code == 3, outputs(result)
    assert "solver failure" in outputs(result)
    assert "blew up" in outputs(result)


def test_characteristics_writes_trajectories(runner, tmp_path):
    result = runner.invoke(main, [
        "characteristics", "--t-end", "2.0", "--labels", "9",
        "--out", str(tmp_path)])
    assert result.exit_code == 0, outputs(result)
    assert "vacuum at tau=2" in result.output
    lines = (tmp_path / "trajectories.csv").read_text().splitlines()
    assert lines[0] == "label,tau,position,sigma,jacobian,velocity"
    assert len(lines) == 1 + 9 * 11


def test_characteristics_nan_t_end_exits_2(runner):
    result = runner.invoke(main, [
        "characteristics", "--t-end", "nan", "--labels", "3"])
    assert result.exit_code == 2, outputs(result)
    assert "tau=nan" not in result.output


@pytest.mark.parametrize("labels", ["0", "-3"])
def test_characteristics_nonpositive_labels_exit_2(runner, tmp_path, labels):
    result = runner.invoke(main, [
        "characteristics", "--labels", labels, "--out", str(tmp_path)])
    assert result.exit_code == 2, outputs(result)
    assert "--labels" in outputs(result)
    assert not (tmp_path / "trajectories.csv").exists()


def test_spectrum_table_output(runner, tmp_path):
    result = runner.invoke(main, [
        "spectrum", "--eps", "0.2,0.1", "--out", str(tmp_path)])
    assert result.exit_code == 0, outputs(result)
    assert (tmp_path / "spectrum.csv").exists()
    # 2 epsilon values x 5 default wavenumbers, plus the 'wrote' line
    assert len(result.output.splitlines()) == 11


def test_decay_equilibrium_zero_signal(runner):
    result = runner.invoke(main, [
        "decay", "--profile", "equilibrium", "--grid", "64",
        "--t-end", "1.0"])
    assert result.exit_code == 0, outputs(result)
    assert "zero-signal" in result.output
    assert "FAIL" not in result.output


def test_vacuum_command_verdicts(runner, tmp_path):
    result = runner.invoke(main, ["vacuum", "--out", str(tmp_path)])
    assert result.exit_code == 0, outputs(result)
    assert "FAIL" not in result.output
    assert "limit point:" in result.output
    assert (tmp_path / "vacuum.csv").exists()


@pytest.mark.parametrize("profile", ["bump", "equilibrium"])
def test_vacuum_without_vacuum_interval_exits_2(runner, profile):
    # the profile has no vacuum interval: a typed NoVacuum, not a traceback
    result = runner.invoke(main, ["vacuum", "--profile", profile])
    assert result.exit_code == 2, outputs(result)
    assert "has no vacuum interval" in outputs(result)
    assert result.exc_info is None or result.exc_info[0] is SystemExit
