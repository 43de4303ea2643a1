"""Command-line entry point.

Exit codes: 0 success, 2 invalid configuration or initial data,
3 solver breakdown, 4 a verdict check failed (CI-friendly).  _guard maps
a package error onto 2 or 3 and a bad value or unreadable file onto 2,
a simulate-* run exits 3 unless ok, and a table command ends in
_finish: 3 on a failure, then 4 on a false verdict.
"""
from __future__ import annotations

import sys
from pathlib import Path

import click
import numpy as np

from .core import Field
from .characteristics import trajectory_rows, vacuum_interval
from .errors import FrictionLabError, ValidationError
from .experiments import (
    ExperimentSpec, run_decay_fit, run_epsilon_sweep, run_single_ep,
    run_single_ks, run_spectrum_table, run_vacuum_collapse,
)
from .io import (
    build_params, format_number, profile_args_from, read_config,
    read_initial_csv, write_csv,
)
from .profiles import profile_line

EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_VERDICT = 4


# the options but --labels, each named for the config key it sets; --eps
# sets one epsilon, or the list on the commands that run several
OPTIONS = {
    "config": click.option("--config", type=click.Path(
        exists=True, dir_okay=False), help="Flat key=value configuration file."),
    "out": click.option("--out", type=click.Path(file_okay=False),
                        help="Directory for CSV output."),
    "profile": click.option(
        "--profile", help="Named initial profile (overrides the config)."),
    "epsilon": click.option("--eps", "epsilon", type=float,
                            help="Epsilon of the run."),
    "epsilon_list": click.option("--eps", "epsilon_list", help=(
        "Comma-separated epsilon list, strictly decreasing.")),
    "grid_n": click.option("--grid", "grid_n", type=int,
                           help="Number of grid cells."),
    "t_end": click.option("--t-end", "t_end", type=float, help="Final time."),
}
LIST_KEYS = ("epsilon_list", "wavenumbers")


def options(*names):
    """--config, --out and the named OPTIONS, listed by --help in that
    order: stacked decorators apply last to first."""
    def apply(fn):
        for name in reversed(("config", "out") + names):
            fn = OPTIONS[name](fn)
        return fn
    return apply


def _real_list(key, value) -> tuple:
    """A list key's value as a tuple of floats: a comma list (a flag, or
    a config value such as ''), a tuple or one config value; None and
    empty items give none.  Raises ValueError naming the key for a bool
    or an item that is not a real number."""
    if value is None:
        items = ()
    elif isinstance(value, str):
        items = value.split(",")
    elif isinstance(value, tuple):
        items = value
    else:
        items = (value,)
    problem = f"config key {key!r} must be a list of real numbers, got "
    reals = []
    for item in items:
        if item == "":
            continue
        if isinstance(item, bool):
            raise ValueError(problem + repr(item))
        try:
            reals.append(float(item))
        except ValueError:
            raise ValueError(problem + repr(item)) from None
    return tuple(reals)


def _build_spec(kind, config, out, defaults=(), **flags):
    """The command's spec and config: a flag overrides the config, which
    overrides the command's defaults (config keys and values).  A list key
    is read by _real_list; an empty list keeps its default."""
    cfg = dict(defaults)
    config_items = (read_config(config) if config else {}).items()
    for key, value in [*config_items, *flags.items()]:
        if key in LIST_KEYS:
            value = _real_list(key, value) or None
        if value is not None:
            cfg[key] = value
    name, args = profile_args_from(cfg)
    spec = ExperimentSpec(
        kind=kind, params=build_params(cfg), profile=name, profile_args=args,
        output_dir=Path(out) if out else None,
        **{key: cfg[key] for key in LIST_KEYS if key in cfg})
    return spec, cfg


def _fail(code: int, message: str):
    click.echo(message, err=True)
    sys.exit(code)


def _guard(fn, *args, **kwargs):
    """Run a handler, mapping package errors onto exit codes."""
    try:
        return fn(*args, **kwargs)
    except ValidationError as err:
        _fail(EXIT_VALIDATION, f"validation failure: {err}")
    except FrictionLabError as err:
        _fail(EXIT_SOLVER, f"solver failure: {err}")
    except (ValueError, KeyError) as err:
        _fail(EXIT_VALIDATION, f"invalid configuration: {err}")
    except OSError as err:
        _fail(EXIT_VALIDATION, f"file error: {err}")


@click.group()
def main():
    """Numerical laboratory for the damped Euler-Poisson system and its
    Keller-Segel limit."""


def _report_run(result, path, label):
    click.echo(f"{label}: status={result.status} steps={result.n_steps} "
               f"samples={len(result.samples)}")
    if result.samples:
        _, rec = result.samples[-1]
        click.echo(f"  tau={format_number(rec.tau)} "
                   f"sup_dev={format_number(rec.sup_dev)} "
                   f"e_total={format_number(rec.e_total)}")
    if path is not None:
        click.echo(f"  wrote {path}")
    if not result.ok:
        sys.exit(EXIT_SOLVER)


def _finish(result, solver_msg, verdict_msg):
    """A table command's tail: the CSV it wrote, then exit 3 if a run or
    fit in it broke down, or 4 if a verdict is false.  A table that runs
    no solver passes None for solver_msg."""
    if result.csv_path:
        click.echo(f"wrote {result.csv_path}")
    if result.failures:
        _fail(EXIT_SOLVER, solver_msg)
    if not result.verdict_ok:
        _fail(EXIT_VERDICT, verdict_msg)


def _initial_override(cfg, spec):
    """Field from a two-column (x, value) CSV named in the config, if any."""
    if "initial_data" not in cfg:
        return None
    values = read_initial_csv(cfg["initial_data"], spec.params.grid)
    return Field(spec.params.grid, values, tag="density")


@main.command("simulate-ep")
@options("profile", "epsilon", "grid_n", "t_end")
def simulate_ep_cmd(config, out, **flags):
    """Integrate the perturbation-form pressure system on the torus."""
    spec, cfg = _guard(_build_spec, "single-run", config, out, **flags)
    rho0 = _guard(_initial_override, cfg, spec)
    result, path = _guard(run_single_ep, spec, rho0=rho0)
    _report_run(result, path, "simulate-ep")


@main.command("simulate-ks")
@options("profile", "grid_n", "t_end")
def simulate_ks_cmd(config, out, **flags):
    """Integrate the limit aggregation equation on the torus."""
    spec, cfg = _guard(_build_spec, "single-run", config, out, **flags)
    sigma0 = _guard(_initial_override, cfg, spec)
    result, path = _guard(run_single_ks, spec, sigma0=sigma0)
    _report_run(result, path, "simulate-ks")


@main.command("characteristics")
@options("profile", "t_end")
@click.option("--labels", type=click.IntRange(min=1), default=33,
              help="Number of Lagrangian labels to track.")
def characteristics_cmd(config, out, labels, **flags):
    """Tabulate exact characteristic trajectories for a line profile."""
    spec, _ = _guard(_build_spec, "single-run", config, out,
                     {"t_end": 5.0, "profile": "vacuum-ramp"}, **flags)

    def go():
        prof = profile_line(spec.profile, spec.params.mass_level,
                            **spec.profile_args)
        lab = np.linspace(prof.domain[0], prof.domain[1], labels)
        taus = np.linspace(0.0, spec.params.t_end, 11)
        rows = trajectory_rows(lab, taus, prof)
        path = None
        if spec.output_dir is not None:
            path = write_csv(
                spec.output_dir / "trajectories.csv",
                ("label", "tau", "position", "sigma", "jacobian", "velocity"),
                rows)
        if prof.vacuum_set:
            (rep,) = vacuum_interval([spec.params.t_end], prof)
            click.echo(f"vacuum at tau={format_number(spec.params.t_end)}: "
                       f"[{format_number(rep.a)}, {format_number(rep.b)}] "
                       f"length={format_number(rep.length)} "
                       f"limit_point={format_number(rep.limit_point)}")
        click.echo(f"characteristics: {len(rows)} rows"
                   + (f", wrote {path}" if path else ""))
        return path

    _guard(go)


@main.command("spectrum")
@options("epsilon_list")
def spectrum_cmd(config, out, **flags):
    """Dispersion roots and amplitude ratios over an (epsilon, k) grid."""
    spec, _ = _guard(_build_spec, "spectrum-table", config, out, **flags)
    result = _guard(run_spectrum_table, spec)
    for row in result.rows:
        click.echo("  ".join(format_number(c) for c in row))
    _finish(result, None, "verdict failure: unstable mode in the table")


@main.command("sweep")
@options("profile", "epsilon_list", "grid_n", "t_end")
def sweep_cmd(config, out, **flags):
    """Convergence of the damped system to its limit as epsilon shrinks."""
    spec, _ = _guard(_build_spec, "epsilon-sweep", config, out,
                     {"epsilon_list": (0.2, 0.1, 0.05, 0.025)}, **flags)
    result = _guard(run_epsilon_sweep, spec)
    for row in result.rows:
        click.echo(f"eps={format_number(row.epsilon)}  "
                   f"sup_l2={format_number(row.sup_l2_error)}  "
                   f"h2_final={format_number(row.h2_error_final)}  "
                   f"sup_w={format_number(row.sup_w_l2)}  [{row.status}]")
    _finish(result, "solver failure in at least one sweep member",
            "verdict failure: errors not strictly decreasing")


@main.command("vacuum")
@options("profile")
def vacuum_cmd(config, out, **flags):
    """Vacuum-interval collapse and edge-derivative growth laws."""
    spec, _ = _guard(_build_spec, "vacuum-collapse", config, out,
                     {"profile": "vacuum-ramp"}, **flags)
    result = _guard(run_vacuum_collapse, spec)
    for row in result.rows:
        click.echo(f"tau={format_number(row.tau)}  "
                   f"length={format_number(row.length)}  "
                   f"measured={format_number(row.length_measured)}  "
                   f"growth={format_number(row.growth_factor)}")
    click.echo(f"limit point: {format_number(result.limit_point)}")
    for name, ok in result.verdicts.items():
        click.echo(f"  {name}: {'pass' if ok else 'FAIL'}")
    _finish(result, None, "verdict failure in vacuum-collapse checks")


@main.command("decay")
@options("profile", "epsilon", "grid_n", "t_end")
def decay_cmd(config, out, **flags):
    """Post-layer exponential decay-rate fits."""
    spec, _ = _guard(_build_spec, "decay-fit", config, out, {"t_end": 5.0},
                     **flags)
    result = _guard(run_decay_fit, spec)
    for f in result.rows:
        click.echo(f"{f.series}: rate={format_number(f.rate)} "
                   f"r2={format_number(f.r_squared)} [{f.status}]")
    for name, ok in result.verdicts.items():
        click.echo(f"  {name}: {'pass' if ok else 'FAIL'}")
    _finish(result, "solver failure during decay runs",
            "verdict failure in decay-rate checks")


if __name__ == "__main__":
    main()
