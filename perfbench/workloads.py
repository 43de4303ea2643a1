"""The benchmark's workloads: seeded inputs, one operation each, and the
correctness gate every operation passes through.

An operation is one full call of the entry points a CLI verdict command
uses, with CSV output on. The program receives only the generated inputs
(a spec, or an initial field); the seed never reaches it.
"""
from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.random import default_rng

# the package runs from the source tree; it is not installed
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import frictionlab as fl  # noqa: E402
from frictionlab import characteristics, experiments  # noqa: E402
from frictionlab.io import build_params  # noqa: E402

NOMINAL_SEED = 0     # every drawn parameter sits at its nominal value
HELD_OUT_SEED = 1    # not used while the benchmark was tuned

# name -> (nominal, low, high); seed 0 takes the nominal values, any other
# seed draws each parameter uniformly from [low, high] in this order.
PARAMETER_RANGES = {
    "eps_sweep": {"amp": (0.3, 0.295, 0.305)},
    "ep_fine": {"phase1": (0.0, 0.0, 2.0 * math.pi),
                "phase2": (0.0, 0.0, 2.0 * math.pi),
                "phase3": (0.0, 0.0, 2.0 * math.pi)},
    "limit_oracles": {"amp": (0.3, 0.295, 0.305),
                      "width": (0.5, 0.45, 0.55)},
}
WORKLOADS = tuple(PARAMETER_RANGES)

SWEEP_EPSILONS = (0.2, 0.1, 0.05, 0.025)
EP_FINE_AMPLITUDES = (0.3, 0.02, 0.01)   # cosine modes k = 1, 2, 3
# Fixed marker steps for the oracle (its automatic count is 68 at amp 0.3
# and 70 at amp 0.305): the work per operation is then the same for every
# seed, and the gap varies smoothly with amp instead of jumping with the
# rounded step count. dt = 1/72 stays inside the KS CFL bound over the range.
ORACLE_STEPS = 72

# Reference tables may move by reordered floating-point arithmetic (fused
# kernels, batched transforms) but by nothing larger: a value passes when
# |got - want| <= REF_RTOL * |want| + REF_ATOL. REF_ATOL is for columns that
# are pure roundoff, such as mass_defect (~1e-15), whose reordered sums can
# move by many ulps of the total mass over thousands of steps.
REF_RTOL = 1e-8
REF_ATOL = 1e-12

# Physics limits on ref_err that hold for every seed in the ranges above:
# the smallest-epsilon sweep gap is O(eps) (0.010 at eps = 0.025), the
# ep_fine gap to its Keller-Segel limit is O(eps) (about 0.02 at
# eps = 0.05), and the oracle gap must meet acceptance criterion 06.
REF_ERR_LIMITS = {"eps_sweep": 0.02, "ep_fine": 0.05, "limit_oracles": 1e-6}

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def draw_inputs(workload: str, seed: int) -> dict:
    """The free parameters of the workload's initial data for a seed."""
    ranges = PARAMETER_RANGES[workload]
    if seed == NOMINAL_SEED:
        return {name: nominal for name, (nominal, _, _) in ranges.items()}
    rng = default_rng(seed)
    return {name: float(rng.uniform(lo, hi))
            for name, (_, lo, hi) in ranges.items()}


@dataclass
class Outcome:
    """What one operation produced, as the gate needs it."""

    statuses: list
    verdicts: dict
    csv_paths: list
    ref_err: float
    extra_tables: dict = field(default_factory=dict)

    def csv_bytes(self) -> dict:
        return {Path(p).name: Path(p).read_bytes() for p in self.csv_paths}

    def table(self, csv_bytes: dict) -> dict:
        """Every CSV parsed back to numbers, plus the non-CSV results."""
        tables = {name: _parse_csv(data) for name, data in csv_bytes.items()}
        tables.update(self.extra_tables)
        tables["ref_err"] = [[self.ref_err]]
        return tables


def _cell(text: str):
    try:
        value = float(text)
    except ValueError:
        return text
    return value if math.isfinite(value) else text


def _parse_csv(data: bytes) -> list:
    rows = list(csv.reader(io.StringIO(data.decode())))
    return [rows[0]] + [[_cell(c) for c in row] for row in rows[1:]]


def _sup_l2_gap(grid, rho_samples, sigma_samples) -> float:
    """sup over samples of ||rho - sigma||_L2, the sweep's error measure."""
    return max(math.sqrt(grid.integrate((r - s) ** 2))
               for r, s in zip(rho_samples, sigma_samples))


# --------------------------------------------------------------------------
# workload builders: inputs -> (operate, assess)
#
# operate() is the timed operation and returns the program's raw results;
# assess(raw) runs untimed and untraced and turns them into an Outcome.
# Entry points are looked up on their modules at call time so that a
# traced operation goes through the tracer's wrappers.

def _build_eps_sweep(inputs: dict, out_dir: Path):
    spec = experiments.ExperimentSpec(
        kind="epsilon-sweep", params=build_params({"grid_n": 256, "t_end": 2.0}),
        epsilon_list=SWEEP_EPSILONS, profile="cosine",
        profile_args={"amp": inputs["amp"]}, output_dir=out_dir)

    def operate():
        return experiments.run_epsilon_sweep(spec)

    def assess(result) -> Outcome:
        return Outcome(
            statuses=[row.status for row in result.rows],
            verdicts={"monotone_decreasing": result.monotone_decreasing},
            csv_paths=[result.csv_path],
            ref_err=result.rows[-1].sup_l2_error)
    return operate, assess


def _build_ep_fine(inputs: dict, out_dir: Path):
    p = build_params({"grid_n": 2048, "t_end": 0.5, "epsilon": 0.05})
    x = p.grid.x
    values = p.mass_level + sum(
        a * np.cos(k * x + inputs[f"phase{k}"])
        for k, a in enumerate(EP_FINE_AMPLITUDES, start=1))
    rho0 = fl.Field(p.grid, values, tag="density")
    spec = experiments.ExperimentSpec(kind="single-run", params=p,
                                      output_dir=out_dir)
    limit = []   # Keller-Segel samples from rho0, computed on first use

    def operate():
        return experiments.run_single_ep(spec, rho0=rho0)

    def assess(raw) -> Outcome:
        result, path = raw
        outcome = Outcome(statuses=[result.status], verdicts={},
                          csv_paths=[path], ref_err=math.nan)
        if result.ok:
            if not limit:
                times = np.linspace(0.0, p.t_end, 21)
                ks = fl.simulate_ks(rho0, p.replace(dt_cfl=0.5 * p.dt_cfl),
                                    times)
                ks.raise_if_failed()
                limit.extend(state.sigma.values for state, _ in ks.samples)
            outcome.ref_err = _sup_l2_gap(
                p.grid, [s.rho.values for s, _ in result.samples], limit)
        return outcome
    return operate, assess


def _build_limit_oracles(inputs: dict, out_dir: Path):
    ks_params = build_params({"grid_n": 512, "t_end": 2.0})
    profile_args = {"amp": inputs["amp"]}
    ks_spec = experiments.ExperimentSpec(
        kind="single-run", params=ks_params, profile="cosine",
        profile_args=profile_args, output_dir=out_dir)
    oracle_start = fl.KSState(sigma=fl.profile_field(
        "cosine", ks_params.grid, ks_params.mass_level, **profile_args))
    vacuum_spec = experiments.ExperimentSpec(
        kind="vacuum-collapse", params=build_params({}),
        profile="vacuum-ramp", profile_args={"width": inputs["width"]},
        output_dir=out_dir)

    def operate():
        ks, ks_path = experiments.run_single_ks(ks_spec, n_samples=201)
        oracle = characteristics.semi_lagrangian_oracle(
            oracle_start, ks_params, 1.0, n_steps=ORACLE_STEPS)
        vacuum = experiments.run_vacuum_collapse(vacuum_spec)
        return ks, ks_path, oracle, vacuum

    def assess(raw) -> Outcome:
        ks, ks_path, oracle, vacuum = raw
        return Outcome(
            statuses=[ks.status],
            verdicts=dict(vacuum.verdicts),
            csv_paths=[ks_path, vacuum.csv_path],
            ref_err=oracle.max_gap,
            extra_tables={"oracle_gaps": [[float(g)] for g in oracle.gaps[::16]]})
    return operate, assess


BUILDERS = {"eps_sweep": _build_eps_sweep, "ep_fine": _build_ep_fine,
            "limit_oracles": _build_limit_oracles}


def build(workload: str, seed: int, out_dir: Path):
    """Set-up: the seed's inputs, the timed operation that consumes them,
    and the untimed assessment of its results."""
    inputs = draw_inputs(workload, seed)
    operate, assess = BUILDERS[workload](inputs, Path(out_dir))
    return inputs, operate, assess


# --------------------------------------------------------------------------
# correctness gate

def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-seed{seed}.json"


def load_reference(workload: str, seed: int):
    path = reference_path(workload, seed)
    if not path.is_file():
        return None
    return json.loads(path.read_text())["tables"]


def _close(got, want) -> bool:
    if isinstance(want, str) or isinstance(got, str):
        return got == want
    return abs(got - want) <= REF_RTOL * abs(want) + REF_ATOL


def table_mismatches(got: dict, want: dict) -> list:
    """Human-readable differences between a result table and its reference."""
    problems = []
    if sorted(got) != sorted(want):
        return [f"tables {sorted(got)} differ from reference {sorted(want)}"]
    for name in sorted(want):
        g_rows, w_rows = got[name], want[name]
        if len(g_rows) != len(w_rows) or any(
                len(g) != len(w) for g, w in zip(g_rows, w_rows)):
            problems.append(f"{name}: shape differs from the reference")
            continue
        for i, (g_row, w_row) in enumerate(zip(g_rows, w_rows)):
            for j, (g, w) in enumerate(zip(g_row, w_row)):
                if not _close(g, w):
                    problems.append(f"{name}[{i}][{j}] = {g!r}, reference {w!r}")
    return problems


def check(workload: str, outcome: Outcome, csv_bytes: dict,
          first_csv_bytes: dict | None, reference: dict | None) -> list:
    """Reasons this operation failed; empty when it passed.

    An operation fails when a status is not ok, a verdict is false, a CSV
    differs byte-wise from the same operation's first run in this
    process, ref_err is not finite or exceeds its physics limit, or (for
    a seed with stored reference tables) a table value leaves the
    reference by more than the stated tolerance.
    """
    problems = [f"status {s!r}" for s in outcome.statuses if s != "ok"]
    problems += [f"verdict {k} is false" for k, ok in outcome.verdicts.items()
                 if not ok]
    if first_csv_bytes is not None:
        problems += [f"{name} differs from the first run's bytes"
                     for name in sorted(first_csv_bytes)
                     if csv_bytes.get(name) != first_csv_bytes[name]]
    limit = REF_ERR_LIMITS[workload]
    if not (math.isfinite(outcome.ref_err) and 0.0 < outcome.ref_err <= limit):
        problems.append(f"ref_err {outcome.ref_err!r} outside (0, {limit}]")
    if reference is not None:
        problems += table_mismatches(outcome.table(csv_bytes), reference)
    return problems
