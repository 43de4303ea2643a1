import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from click.testing import CliRunner

from frictionlab import euler_poisson, keller_segel
from frictionlab.cli import main
from frictionlab.errors import FrictionLabError, RangeBreach
from frictionlab.experiments import RateFit, SweepRow, TableResult


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


def test_non_finite_initial_data_row_exits_2(runner, tmp_path):
    # a NaN x is named with its line, not sorted last into a mass defect
    x = 2.0 * math.pi * np.arange(64) / 64.0
    rows = [f"{xi:.17g},{1.0 + 0.3 * math.cos(xi):.17g}" for xi in x]
    rows[5] = "nan,1.0"
    data = tmp_path / "init.csv"
    data.write_text("x,sigma\n" + "\n".join(rows) + "\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"grid_n = 64\nt_end = 0.5\ninitial_data = {data}\n")
    result = runner.invoke(main, ["simulate-ks", "--config", str(cfg)])
    assert result.exit_code == 2, outputs(result)
    assert "init.csv:7: x and value must be finite" in outputs(result)


@pytest.mark.parametrize("make", [lambda path: None, lambda path: path.mkdir()],
                         ids=["missing", "directory"])
def test_unreadable_initial_data_exits_2(runner, tmp_path, make):
    # a missing file or a directory raised FileNotFoundError or
    # IsADirectoryError through to a traceback and exit 1
    data = tmp_path / "init.csv"
    make(data)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"grid_n = 64\nt_end = 0.5\ninitial_data = {data}\n")
    result = runner.invoke(main, ["simulate-ks", "--config", str(cfg)])
    assert result.exit_code == 2, outputs(result)
    assert str(data) in outputs(result)
    assert result.exc_info is None or result.exc_info[0] is SystemExit


@pytest.mark.parametrize("line, name", [
    ("grid_length = inf", "length"), ("grid_left = inf", "left"),
    ("grid_left = nan", "left")])
def test_non_finite_grid_exits_2(runner, tmp_path, line, name):
    # named as a grid input, not found later as a non-finite density
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"grid_n = 64\nt_end = 0.1\n{line}\n")
    result = runner.invoke(main, ["simulate-ks", "--config", str(cfg)])
    assert result.exit_code == 2, outputs(result)
    assert f"grid {name} must be finite" in outputs(result)
    assert "non-finite samples" not in outputs(result)


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
    fake = TableResult(rows=rows, verdicts={"monotone_decreasing": False})
    monkeypatch.setattr("frictionlab.cli.run_epsilon_sweep",
                        lambda spec: fake)
    result = runner.invoke(main, ["sweep", "--eps", "0.2,0.1"])
    assert result.exit_code == 4
    assert "decreasing" in outputs(result)


def test_failed_sweep_member_exits_3(runner, monkeypatch):
    rows = (SweepRow(0.2, 1.0, 1.0, 1.0, "ok"),
            SweepRow(0.1, math.nan, math.nan, math.nan, "range_breach"))
    fake = TableResult(rows=rows, verdicts={"monotone_decreasing": True},
                       failures=("range_breach",))
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
        lambda side: np.full_like(flux_rhs(side), np.nan))
    result = runner.invoke(main, [
        "sweep", "--eps", "0.2,0.1", "--grid", "64", "--t-end", "0.5"])
    assert result.exit_code == 3, outputs(result)
    assert "solver failure" in outputs(result)
    assert "blew up" in outputs(result)


def fake_table(rows=(), verdicts=None, failures=(), **extra):
    """A table command's result as the CLI reads it: verdict_ok is false
    on a failure or a false verdict."""
    verdicts = verdicts or {}
    return SimpleNamespace(
        rows=rows, verdicts=verdicts, failures=failures, csv_path=None,
        verdict_ok=not failures and all(verdicts.values()), **extra)


def test_failed_vacuum_check_exits_4(runner, monkeypatch):
    fake = fake_table(verdicts={"length_law": True, "fd_agreement": False},
                      limit_point=0.5)
    monkeypatch.setattr("frictionlab.cli.run_vacuum_collapse",
                        lambda spec: fake)
    result = runner.invoke(main, ["vacuum"])
    assert result.exit_code == 4, outputs(result)
    assert "  fd_agreement: FAIL" in result.stdout
    assert result.stderr == "verdict failure in vacuum-collapse checks\n"


DECAY_VERDICTS = ("rates_positive", "no_failures", "ks_rate_floor")


def test_failed_decay_fit_exits_3(runner, monkeypatch):
    # a fit of a run that broke down is a solver failure, ahead of the
    # false no_failures verdict
    fits = (RateFit("e_total", 0.5, 0.99, "ok", 0.1),
            RateFit("sup_dev", math.nan, math.nan, "range_breach", 0.1))
    fake = fake_table(rows=fits, fits=fits, failures=("range_breach",),
                      verdicts=dict.fromkeys(DECAY_VERDICTS, True)
                      | {"no_failures": False})
    monkeypatch.setattr("frictionlab.cli.run_decay_fit", lambda spec: fake)
    result = runner.invoke(main, ["decay"])
    assert result.exit_code == 3, outputs(result)
    assert "sup_dev: rate=nan r2=nan [range_breach]" in result.stdout
    assert result.stderr == "solver failure during decay runs\n"


def test_false_decay_verdict_exits_4(runner, monkeypatch):
    fits = (RateFit("e_total", -0.5, 0.99, "ok", 0.1),)
    fake = fake_table(rows=fits, fits=fits,
                      verdicts=dict.fromkeys(DECAY_VERDICTS, True)
                      | {"rates_positive": False})
    monkeypatch.setattr("frictionlab.cli.run_decay_fit", lambda spec: fake)
    result = runner.invoke(main, ["decay"])
    assert result.exit_code == 4, outputs(result)
    assert "  rates_positive: FAIL" in result.stdout
    assert result.stderr == "verdict failure in decay-rate checks\n"


def test_unstable_spectrum_exits_4(runner, monkeypatch):
    row = (0.1, 1.0, 2.0, 1.0, 1.0, 0.5, 0.0, -99.0, 0.0, 0.01, False)
    fake = fake_table(rows=(row,), verdicts={"all_stable": False})
    monkeypatch.setattr("frictionlab.cli.run_spectrum_table",
                        lambda spec: fake)
    result = runner.invoke(main, ["spectrum"])
    assert result.exit_code == 4, outputs(result)
    assert result.stdout == "0.1  1  2  1  1  0.5  0  -99  0  0.01  false\n"
    assert result.stderr == "verdict failure: unstable mode in the table\n"


def test_ep_breakdown_exits_3(runner, monkeypatch):
    # every step leaves the density band: the run stops at its first step,
    # which it counts, reports the breakdown's status and exits 3 with
    # nothing on stderr
    guards = euler_poisson._guards

    def breach(batch, times):
        _, extrema = guards(batch, times)
        return [RangeBreach(f"forced at tau = {t:.6g}") for t in times], \
            extrema

    monkeypatch.setattr(euler_poisson, "_guards", breach)
    result = runner.invoke(main, ["simulate-ep", "--grid", "64",
                                  "--t-end", "0.5"])
    assert result.exit_code == 3, outputs(result)
    assert result.stdout.startswith(
        "simulate-ep: status=range_breach steps=1 samples=1\n")
    assert result.stderr == ""


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


def test_characteristics_negative_bump_exits_2(runner, tmp_path):
    # amp = -1.5 puts sigma0 = -0.5 at the centre label: the run once
    # exited 0 with a negative density and crossed trajectories
    cfg = tmp_path / "c.cfg"
    cfg.write_text("profile = bump\nprofile_amp = -1.5\n")
    result = runner.invoke(main, ["characteristics", "--config", str(cfg),
                                  "--out", str(tmp_path)])
    assert result.exit_code == 2, outputs(result)
    assert "bump amplitude" in outputs(result)
    assert not (tmp_path / "trajectories.csv").exists()


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


def test_config_touch_order_builds_its_ramp(runner, tmp_path):
    # the config reader gives `profile_touch = 2` as the int 2, which the
    # ramp takes as touch order 2: its vacuum length grows as e^{3 M tau}
    cfg = tmp_path / "run.cfg"
    cfg.write_text("profile_touch = 2\n")
    result = runner.invoke(main, ["vacuum", "--config", str(cfg),
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0, outputs(result)
    lines = (tmp_path / "vacuum.csv").read_text().splitlines()
    row = dict(zip(lines[0].split(","), lines[2].split(",")))
    assert float(row["tau"]) == 0.5
    assert float(row["factor_predicted"]) == pytest.approx(math.exp(1.5))


@pytest.mark.parametrize("profile", ["bump", "equilibrium", "cosine"])
def test_vacuum_without_vacuum_interval_exits_2(runner, profile):
    # the profile has no vacuum interval: a typed NoVacuum, not a traceback
    result = runner.invoke(main, ["vacuum", "--profile", profile])
    assert result.exit_code == 2, outputs(result)
    assert "has no vacuum interval" in outputs(result)
    assert result.exc_info is None or result.exc_info[0] is SystemExit


@pytest.mark.parametrize("command", ["vacuum", "characteristics"])
def test_config_profile_beats_the_command_default(runner, tmp_path, command):
    # vacuum-ramp is the default only when neither --profile nor the
    # config names a profile
    cfg = tmp_path / "run.cfg"
    cfg.write_text("profile = bump\n")
    result = runner.invoke(main, [command, "--config", str(cfg), "--out",
                                  str(tmp_path)])
    if command == "vacuum":
        assert result.exit_code == 2, outputs(result)
        assert "has no vacuum interval" in outputs(result)
    else:
        assert result.exit_code == 0, outputs(result)
        assert "vacuum at" not in result.output


def test_characteristics_tabulates_the_cosine(runner, tmp_path):
    result = runner.invoke(main, [
        "characteristics", "--profile", "cosine", "--labels", "5",
        "--out", str(tmp_path)])
    assert result.exit_code == 0, outputs(result)
    assert "vacuum at" not in result.output
    lines = (tmp_path / "trajectories.csv").read_text().splitlines()
    assert len(lines) == 1 + 5 * 11


@pytest.mark.parametrize("command, line, message", [
    ("vacuum", "profile_widht = 0.7", "argument 'widht'"),
    ("simulate-ks", "profile_k = 1.5", "wavenumber k must be"),
    ("simulate-ep", "profile_radius = 1.0", "argument 'radius'"),
    ("vacuum", "profile_touch = 1.5", "touch order must be"),
    ("characteristics", "profile_f0 = nan", "argument 'f0' must be finite"),
    ("characteristics", "profile_f0 = inf", "argument 'f0' must be finite"),
    ("simulate-ks", "profile = bump\nprofile_radius = nan",
     "argument 'radius' must be finite"),
    ("simulate-ks", "profile = bump\nprofile_center = nan",
     "argument 'center' must be finite"),
    ("simulate-ks", "profile = bump\nprofile_radius = inf",
     "argument 'radius' must be finite"),
    ("simulate-ks", "profile = bump\nprofile_radius = 0",
     "bump radius must be > 0, got 0"),
    ("vacuum", "profile_width = 1e-160\nprofile_touch = 2",
     "ramp width 1e-160 at touch order 2 overflows the edge jet"),
    ("characteristics", "profile_width = 1e-160\nprofile_touch = 2",
     "ramp width 1e-160 at touch order 2 overflows the edge jet"),
    ("vacuum", "profile_width = 1e-310\nprofile_touch = 1",
     "ramp width 1e-310 at touch order 1 overflows the edge jet"),
    ("characteristics", "profile_width = 1e-310",
     "ramp width 1e-310 at touch order 1 overflows the edge jet")])
def test_bad_profile_argument_exits_2(runner, tmp_path, command, line,
                                      message):
    # a misspelt key, a non-integer wavenumber, a non-finite number or a
    # zero radius (which divided by zero) is refused, not ignored, run as
    # NaN or run as the equilibrium; a ramp width so small that its edge
    # jet overflows once ended in an OverflowError traceback (exit 1) or
    # an infinite jet (exit 4)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"grid_n = 64\nt_end = 0.1\n{line}\n")
    result = runner.invoke(main, [command, "--config", str(cfg)])
    assert result.exit_code == 2, outputs(result)
    assert message in outputs(result)


@pytest.mark.parametrize("command, line, message", [
    ("simulate-ep", "dt_cfl = true",
     "config key 'dt_cfl' must be a real number, got True"),
    ("vacuum", "profile_width = true",
     "argument 'width' must be a real number, got True"),
    ("simulate-ks", "t_end = 1,2",
     "config key 't_end' must be a real number, got (1, 2)"),
    ("simulate-ks", "profile_amp = abc",
     "argument 'amp' must be a real number, got 'abc'"),
    ("simulate-ks", "profile_amp =",
     "argument 'amp' must be a real number, got ''"),
    ("sweep", "epsilon_list = true",
     "config key 'epsilon_list' must be a list of real numbers, got True"),
    ("spectrum", "wavenumbers = 1, two",
     "config key 'wavenumbers' must be a list of real numbers, got 'two'"),
    ("simulate-ks", "initial_data = 1.5",
     "config key 'initial_data' must be a file name, got 1.5"),
    ("simulate-ks", "initial_data = 7",
     "config key 'initial_data' must be a file name, got 7"),
    ("simulate-ks", "initial_data = true",
     "config key 'initial_data' must be a file name, got True"),
    ("simulate-ks", "initial_data = 0",
     "config key 'initial_data' must be a file name, got 0")],
    ids=["bool-dt_cfl", "bool-width", "tuple-t_end", "string-amp",
         "empty-amp", "bool-epsilon_list", "word-wavenumbers",
         "float-initial_data", "int-initial_data", "bool-initial_data",
         "zero-initial_data"])
def test_config_value_of_the_wrong_type_exits_2(runner, tmp_path, command,
                                                line, message):
    # a bool was run as 1.0 (dt_cfl = true took 113 steps, like 1.0), a
    # tuple or a string ended in a TypeError traceback, and a list key
    # failed on float('True') or float('two') without naming the key;
    # initial_data = 1.5 ended in a TypeError traceback, 7 and true were
    # opened as file descriptors 7 and 1, and 0 read the standard input.
    # A key is given once: the t_end case replaces the file's t_end
    cfg = tmp_path / "run.cfg"
    head = "grid_n = 64\n" + ("" if line.startswith("t_end") else
                              "t_end = 0.1\n")
    cfg.write_text(f"{head}{line}\n")
    result = runner.invoke(main, [command, "--config", str(cfg)])
    assert result.exit_code == 2, outputs(result)
    assert message in outputs(result)
    assert result.exc_info is None or result.exc_info[0] is SystemExit


@pytest.mark.parametrize("command", ["simulate-ks", "sweep"])
def test_non_integer_grid_n_exits_2(runner, tmp_path, command):
    # a fractional cell count is refused, not truncated to 64
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid_n = 64.5\nt_end = 0.1\n")
    result = runner.invoke(main, [command, "--config", str(cfg)])
    assert result.exit_code == 2, outputs(result)
    assert "grid size n must be an integer, got 64.5" in outputs(result)


@pytest.mark.parametrize("lines, unknown", [
    ("grid_nn = 64\nt_edn = 0.1", "grid_nn, t_edn"),
    ("grid_kind = line\ngrid_right = 3.0", "grid_kind, grid_right")])
@pytest.mark.parametrize("command", ["simulate-ks", "spectrum"])
def test_unknown_config_key_exits_2(runner, tmp_path, command, lines,
                                    unknown):
    # a misspelt or retired key is refused, not run on the defaults
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"grid_n = 64\n{lines}\n")
    result = runner.invoke(main, [command, "--config", str(cfg)])
    assert result.exit_code == 2, outputs(result)
    assert f"unknown config keys: {unknown}" in outputs(result)


def test_vacuum_profile_on_the_torus_names_its_mass(runner):
    result = runner.invoke(main, ["simulate-ks", "--profile", "vacuum-ramp",
                                  "--grid", "64"])
    assert result.exit_code == 2, outputs(result)
    assert "integrates to 0.1667" in outputs(result)


@pytest.mark.parametrize("command", ["simulate-ks", "simulate-ep"])
def test_bump_runs_on_the_torus(runner, command):
    # the bump's sampled mean defect is removed, so the solvers take it
    result = runner.invoke(main, [command, "--profile", "bump", "--grid",
                                  "64", "--t-end", "0.5"])
    assert result.exit_code == 0, outputs(result)
    assert "status=ok" in result.output


# the flags each command offers besides --config, --out and --help
FLAGS = {
    "simulate-ep": {"--profile", "--eps", "--grid", "--t-end"},
    "simulate-ks": {"--profile", "--grid", "--t-end"},
    "characteristics": {"--profile", "--t-end", "--labels"},
    "spectrum": {"--eps"},
    "sweep": {"--profile", "--eps", "--grid", "--t-end"},
    "vacuum": {"--profile"},
    "decay": {"--profile", "--eps", "--grid", "--t-end"},
}


@pytest.mark.parametrize("command", sorted(FLAGS))
def test_help_lists_the_flags_the_run_reads(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0, outputs(result)
    listed = re.findall(r"^\s+(--[\w-]+)", result.output, re.MULTILINE)
    assert sorted(listed) == sorted(
        FLAGS[command] | {"--config", "--out", "--help"})


@pytest.mark.parametrize("command, flag, value", [
    ("vacuum", "--grid", "256"), ("vacuum", "--t-end", "2"),
    ("vacuum", "--eps", "0.05"), ("spectrum", "--grid", "256"),
    ("spectrum", "--t-end", "2"), ("spectrum", "--profile", "bump"),
    ("characteristics", "--grid", "256"),
    ("characteristics", "--eps", "0.05"), ("simulate-ks", "--eps", "0.05")])
def test_flag_the_run_ignores_exits_2(runner, command, flag, value):
    result = runner.invoke(main, [command, flag, value])
    assert result.exit_code == 2, outputs(result)
    assert "No such option" in outputs(result)


def test_single_run_eps_takes_one_value(runner):
    result = runner.invoke(main, ["simulate-ep", "--eps", "0.05,0.01"])
    assert result.exit_code == 2, outputs(result)


@pytest.mark.parametrize("args, line, epsilon", [
    ([], "", 0.1), (["--eps", "0.05"], "", 0.05),
    ([], "epsilon = 0.05", 0.05), ([], "epsilon_list = 0.05", 0.1)])
def test_single_run_epsilon_comes_from_epsilon(runner, tmp_path,
                                               monkeypatch, args, line,
                                               epsilon):
    # a single run's epsilon is the flag's or the config's `epsilon`; the
    # config's epsilon_list sets the sweep's and the spectrum's alone
    seen = []

    def stop(spec, rho0):
        seen.append(spec.params.epsilon)
        raise FrictionLabError("stopped before the run")

    monkeypatch.setattr("frictionlab.cli.run_single_ep", stop)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    result = runner.invoke(main, ["simulate-ep", "--config", str(cfg), *args])
    assert result.exit_code == 3, outputs(result)
    assert seen == [epsilon]


def test_decay_eps_flag_equals_config_epsilon(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("epsilon = 0.05\n")
    base = ["decay", "--grid", "64", "--t-end", "2"]
    runs = {}
    for name, extra in (("flag", ["--eps", "0.05"]),
                        ("config", ["--config", str(cfg)]), ("neither", [])):
        out = tmp_path / name
        result = runner.invoke(main, base + extra + ["--out", str(out)])
        assert result.exit_code == 0, outputs(result)
        runs[name] = (result.output.replace(str(out), "OUT"),
                      (out / "decay.csv").read_bytes())
    assert runs["flag"] == runs["config"]
    assert runs["flag"][0] != runs["neither"][0]
    assert runs["flag"][1] != runs["neither"][1]


@pytest.mark.parametrize("line, epsilons", [
    ("", ("0.2", "0.1", "0.05", "0.025")),
    ("epsilon_list =", ("0.2", "0.1", "0.05", "0.025")),
    ("epsilon_list = 0.3, 0.15", ("0.3", "0.15"))])
def test_sweep_default_epsilon_list(runner, tmp_path, line, epsilons):
    # without --eps the sweep runs the config's list, or the default four
    # members when the config has none or an empty one
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    result = runner.invoke(main, ["sweep", "--config", str(cfg), "--grid",
                                  "64", "--t-end", "0.1"])
    assert result.exit_code == 0, outputs(result)
    assert tuple(re.findall(r"^eps=(\S+)", result.output,
                            re.MULTILINE)) == epsilons


@pytest.mark.parametrize("value", ["1,nan", "inf"])
def test_non_finite_wavenumber_exits_2(runner, tmp_path, value):
    # refused as input, not tabulated as an unstable NaN mode (exit 4)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"wavenumbers = {value}\n")
    result = runner.invoke(main, ["spectrum", "--config", str(cfg)])
    assert result.exit_code == 2, outputs(result)
    assert "wavenumber must be finite" in outputs(result)


def test_a_zero_wavenumber_alone_is_tabulated(runner, tmp_path):
    # a single 0 read as an empty list once ran the five default
    # wavenumbers
    cfg = tmp_path / "run.cfg"
    cfg.write_text("wavenumbers = 0\n")
    result = runner.invoke(main, ["spectrum", "--config", str(cfg),
                                  "--eps", "0.1"])
    assert result.exit_code == 0, outputs(result)
    assert [line.split()[4] for line in result.output.splitlines()] == ["0"]


def test_decay_zero_t_end_exits_2(runner):
    # named before any fit, not a LAPACK failure on a one-time window
    result = runner.invoke(main, ["decay", "--t-end", "0", "--grid", "16"])
    assert result.exit_code == 2, outputs(result)
    assert "t_end" in outputs(result)
    assert "DLASCL" not in outputs(result)


@pytest.mark.parametrize("command, line, message", [
    *[pytest.param(command, "grid_n = 100", "power of two", id=command)
      for command in ("spectrum", "characteristics", "vacuum")],
    *[pytest.param(command, "initial_data = missing.csv", "missing.csv",
                   id=f"{command}-missing-initial_data")
      for command in ("spectrum", "characteristics", "vacuum", "sweep")]])
def test_config_file_is_validated_whole(runner, tmp_path, command, line,
                                        message):
    # every key of a config file is checked, whichever command reads it:
    # a file that passes one command passes them all (a missing initial
    # data file exited 2 from simulate-* only)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{line}\n")
    result = runner.invoke(main, [command, "--config", str(cfg)])
    assert result.exit_code == 2, outputs(result)
    assert message in outputs(result)


def test_repeated_config_key_exits_2(runner, tmp_path):
    # the last value once won: epsilon = 0.1 then 0.05 ran at 0.05
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid_n = 64\nt_end = 0.1\nepsilon = 0.1\n"
                   "epsilon = 0.05\n")
    result = runner.invoke(main, ["simulate-ep", "--config", str(cfg)])
    assert result.exit_code == 2, outputs(result)
    assert f"{cfg}:4: key 'epsilon' given twice" in outputs(result)
