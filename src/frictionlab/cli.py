"""Command-line entry point.

Exit codes: 0 success, 2 invalid configuration or initial data,
3 solver breakdown, 4 a verdict check failed (CI-friendly).
"""
from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import click
import numpy as np

from .core import Field
from .characteristics import TrajectoryBundle, vacuum_interval
from .errors import FrictionLabError, SolverBreakdown, ValidationError
from .experiments import (
    DEFAULT_WAVENUMBERS, ExperimentSpec, run_decay_fit, run_epsilon_sweep,
    run_single_ep, run_single_ks, run_spectrum_table, run_vacuum_collapse,
)
from .io import (
    build_params, format_number, profile_args_from, read_config,
    read_initial_csv, write_csv,
)
from .profiles import profile_line

EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_VERDICT = 4


def common_options(fn):
    # applied last to first, as stacked decorators are: --help keeps this order
    for option in reversed((
        click.option("--config", type=click.Path(exists=True, dir_okay=False),
                     default=None, help="Flat key=value configuration file."),
        click.option("--out", type=click.Path(file_okay=False), default=None,
                     help="Directory for CSV output."),
        click.option("--profile", default=None,
                     help="Named initial profile (overrides the config)."),
        click.option("--eps", default=None,
                     help="Comma-separated epsilon list, strictly decreasing."),
        click.option("--grid", type=int, default=None,
                     help="Number of grid cells."),
        click.option("--t-end", type=float, default=None, help="Final time."))):
        fn = option(fn)
    return fn


def _build_spec(kind, config, out, profile, eps, grid, t_end,
                t_default=None):
    cfg = read_config(config) if config else {}
    if grid is not None:
        cfg["grid_n"] = grid
    if t_end is not None:
        cfg["t_end"] = t_end
    elif t_default is not None and "t_end" not in cfg:
        cfg["t_end"] = t_default
    params = build_params(cfg)

    name, args = profile_args_from(cfg)
    if profile is not None:
        name = profile

    if eps is not None:
        eps_list = tuple(float(tok) for tok in str(eps).split(",") if tok)
    else:
        raw = cfg.get("epsilon_list", ())
        eps_list = raw if isinstance(raw, tuple) else ((raw,) if raw else ())
        eps_list = tuple(float(e) for e in eps_list)
    if kind == "single-run" and eps_list:
        params = params.replace(epsilon=eps_list[0])

    wn = cfg.get("wavenumbers", DEFAULT_WAVENUMBERS)
    if not isinstance(wn, tuple):
        wn = (wn,)
    spec = ExperimentSpec(
        kind=kind, params=params, epsilon_list=eps_list,
        profile=name, profile_args=args,
        output_dir=Path(out) if out else None,
        wavenumbers=tuple(float(k) for k in wn))
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
    except (SolverBreakdown, FrictionLabError) as err:
        _fail(EXIT_SOLVER, f"solver failure: {err}")
    except (ValueError, KeyError) as err:
        _fail(EXIT_VALIDATION, f"invalid configuration: {err}")


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
    if result.status != "ok":
        sys.exit(EXIT_SOLVER)


def _initial_override(cfg, spec):
    """Field from a two-column (x, value) CSV named in the config, if any."""
    if "initial_data" not in cfg:
        return None
    values = read_initial_csv(cfg["initial_data"], spec.params.grid)
    return Field(spec.params.grid, values, tag="density")


@main.command("simulate-ep")
@common_options
def simulate_ep_cmd(config, out, profile, eps, grid, t_end):
    """Integrate the perturbation-form pressure system on the torus."""
    spec, cfg = _guard(_build_spec, "single-run", config, out, profile,
                       eps, grid, t_end)
    rho0 = _guard(_initial_override, cfg, spec)
    result, path = _guard(run_single_ep, spec, rho0=rho0)
    _report_run(result, path, "simulate-ep")


@main.command("simulate-ks")
@common_options
def simulate_ks_cmd(config, out, profile, eps, grid, t_end):
    """Integrate the limit aggregation equation on the torus."""
    spec, cfg = _guard(_build_spec, "single-run", config, out, profile,
                       eps, grid, t_end)
    sigma0 = _guard(_initial_override, cfg, spec)
    result, path = _guard(run_single_ks, spec, sigma0=sigma0)
    _report_run(result, path, "simulate-ks")


@main.command("characteristics")
@common_options
@click.option("--labels", type=click.IntRange(min=1), default=33,
              help="Number of Lagrangian labels to track.")
def characteristics_cmd(config, out, profile, eps, grid, t_end, labels):
    """Tabulate exact characteristic trajectories for a line profile."""
    spec, _ = _guard(_build_spec, "single-run", config, out, profile or
                     "vacuum-ramp", eps, grid, t_end, t_default=5.0)

    def go():
        M = spec.params.mass_level
        prof = profile_line(spec.profile, M, **spec.profile_args)
        lab = np.linspace(prof.domain[0], prof.domain[1], labels)
        bundle = TrajectoryBundle(lab, prof, M)
        taus = np.linspace(0.0, spec.params.t_end, 11)
        rows = bundle.csv_rows(taus)
        path = None
        if spec.output_dir is not None:
            path = write_csv(
                spec.output_dir / "trajectories.csv",
                ("label", "tau", "position", "sigma", "jacobian", "velocity"),
                rows)
        if prof.vacuum_set:
            rep = vacuum_interval(spec.params.t_end, prof, M)
            click.echo(f"vacuum at tau={format_number(spec.params.t_end)}: "
                       f"[{format_number(rep.a)}, {format_number(rep.b)}] "
                       f"length={format_number(rep.length)} "
                       f"limit_point={format_number(rep.limit_point)}")
        click.echo(f"characteristics: {len(rows)} rows"
                   + (f", wrote {path}" if path else ""))
        return path

    _guard(go)


@main.command("spectrum")
@common_options
def spectrum_cmd(config, out, profile, eps, grid, t_end):
    """Dispersion roots and amplitude ratios over an (epsilon, k) grid."""
    spec, _ = _guard(_build_spec, "spectrum-table", config, out, profile,
                     eps, grid, t_end)
    result = _guard(run_spectrum_table, spec)
    for row in result.rows:
        click.echo("  ".join(format_number(c) for c in row))
    if result.csv_path:
        click.echo(f"wrote {result.csv_path}")
    if not result.verdict_ok:
        _fail(EXIT_VERDICT, "verdict failure: unstable mode in the table")


@main.command("sweep")
@common_options
def sweep_cmd(config, out, profile, eps, grid, t_end):
    """Convergence of the damped system to its limit as epsilon shrinks."""
    spec, _ = _guard(_build_spec, "epsilon-sweep", config, out, profile,
                     eps, grid, t_end)
    if not spec.epsilon_list:
        spec = dataclasses.replace(spec, epsilon_list=(0.2, 0.1, 0.05, 0.025))
    result = _guard(run_epsilon_sweep, spec)
    for row in result.rows:
        click.echo(f"eps={format_number(row.epsilon)}  "
                   f"sup_l2={format_number(row.sup_l2_error)}  "
                   f"h2_final={format_number(row.h2_error_final)}  "
                   f"sup_w={format_number(row.sup_w_l2)}  [{row.status}]")
    if result.csv_path:
        click.echo(f"wrote {result.csv_path}")
    if any(r.status != "ok" for r in result.rows):
        _fail(EXIT_SOLVER, "solver failure in at least one sweep member")
    if not result.monotone_decreasing:
        _fail(EXIT_VERDICT, "verdict failure: errors not strictly decreasing")


@main.command("vacuum")
@common_options
def vacuum_cmd(config, out, profile, eps, grid, t_end):
    """Vacuum-interval collapse and edge-derivative growth laws."""
    spec, _ = _guard(_build_spec, "vacuum-collapse", config, out,
                     profile or "vacuum-ramp", eps, grid, t_end)
    result = _guard(run_vacuum_collapse, spec)
    for row in result.rows:
        click.echo(f"tau={format_number(row.tau)}  "
                   f"length={format_number(row.length)}  "
                   f"measured={format_number(row.length_measured)}  "
                   f"growth={format_number(row.growth_factor)}")
    click.echo(f"limit point: {format_number(result.limit_point)}")
    for name, ok in result.verdicts.items():
        click.echo(f"  {name}: {'pass' if ok else 'FAIL'}")
    if result.csv_path:
        click.echo(f"wrote {result.csv_path}")
    if not result.verdict_ok:
        _fail(EXIT_VERDICT, "verdict failure in vacuum-collapse checks")


@main.command("decay")
@common_options
def decay_cmd(config, out, profile, eps, grid, t_end):
    """Post-layer exponential decay-rate fits."""
    spec, _ = _guard(_build_spec, "decay-fit", config, out, profile,
                     eps, grid, t_end, t_default=5.0)
    result = _guard(run_decay_fit, spec)
    for f in result.fits:
        click.echo(f"{f.series}: rate={format_number(f.rate)} "
                   f"r2={format_number(f.r_squared)} [{f.status}]")
    for name, ok in result.verdicts.items():
        click.echo(f"  {name}: {'pass' if ok else 'FAIL'}")
    if result.csv_path:
        click.echo(f"wrote {result.csv_path}")
    if any(f.status not in ("ok", "zero-signal") for f in result.fits):
        _fail(EXIT_SOLVER, "solver failure during decay runs")
    if not result.verdict_ok:
        _fail(EXIT_VERDICT, "verdict failure in decay-rate checks")


if __name__ == "__main__":
    main()
