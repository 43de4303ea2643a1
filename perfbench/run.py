"""frictionlab benchmark: one workload, closed loop, one operation at a time.

    python3 perfbench/run.py --workload eps_sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30      # every workload, untraced

Run from the repository root; the package is imported from src/. With
--trace 0 the last stdout line carries the end-to-end metrics, with
--trace 1 the per-layer metrics of traced operations (alternated with
untraced ones, which give trace.overhead_ratio). Every operation goes
through the correctness gate in workloads.check. The full result, with
an environment stamp, is written to
.perfbench_out/<workload>-seed<seed>-trace<trace>.json.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from importlib import metadata
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("eps_sweep", "ep_fine", "limit_oracles")
SETUP_PAIRS = 9

# times are normalised to a reference machine speed (wall_s by speed.py,
# setup_s by a yardstick interpreter); the raw times are printed and
# recorded beside them
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
                    "ref_err": "1"}

NOTES = {
    "machine_settings": "No machine setting was changed for this run: no CPU "
                        "pinning, no frequency governor change, no cache "
                        "dropping.",
    "spread": "The machine may be shared and has few cores, so run-to-run "
              "spread is real: on a 2-core box, ep_fine ranged 3.3-4.8 s "
              "over 6 back-to-back runs. Compare medians over repeated runs.",
}


def _git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": metadata.version("click"),
        "seed": seed,
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        **NOTES,
    }


def _median(values):
    return statistics.median(values) if values else math.nan


# --------------------------------------------------------------------------
# set-up time: a fresh interpreter imports frictionlab and builds the inputs
#
# Raw set-up times of identical runs moved by up to 1.8x on a shared 2-core
# box, and a kernel timed inside the set-up child sees too little of it (an
# interpreter that has only just started). So each set-up probe is paired
# with a yardstick started right before it: a fresh interpreter that only
# imports numpy, the same kind of work (spawn, disk, unmarshal, dlopen) and
# no frictionlab code. setup_s is the median of probe / yardstick, scaled by
# the yardstick's time on a quiet moment of that box.

YARDSTICK = ("import sys, time; began = float(sys.argv[1]); import numpy; "
             "print(time.monotonic() - began)")
REFERENCE_YARDSTICK_S = 0.09


def setup_probe(workload: str, seed: int, started: float) -> None:
    """Child side: build the workload, report seconds since `started`
    (time.monotonic is one clock for every process on the machine)."""
    import workloads
    workloads.build(workload, seed, OUT_DIR / "probe")
    print(time.monotonic() - started)


def _spawn_seconds(args: list) -> float:
    """Seconds from spawning `python args <now>` to what it prints."""
    started = time.monotonic()
    done = subprocess.run([sys.executable, *args, repr(started)],
                          capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.splitlines()[-1])


def measure_setup(workload: str, seed: int) -> list:
    """SETUP_PAIRS yardstick/probe pairs after one that warms the file
    cache: [{"raw_s": ..., "yardstick_s": ..., "s": ...}, ...]"""
    probe = [str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"]
    pairs = []
    for _ in range(SETUP_PAIRS + 1):
        yardstick = _spawn_seconds(["-c", YARDSTICK])
        raw = _spawn_seconds(probe)
        pairs.append({"raw_s": raw, "yardstick_s": yardstick,
                      "s": raw / yardstick * REFERENCE_YARDSTICK_S})
    return pairs[1:]


# --------------------------------------------------------------------------
# the closed loop

class Loop:
    """Runs operations one at a time and passes each through the gate."""

    def __init__(self, workload, seed, operate, assess):
        import workloads
        self.workloads = workloads
        self.workload, self.operate, self.assess = workload, operate, assess
        self.reference = workloads.load_reference(workload, seed)
        self.first_csv = None
        self.ops = []

    def once(self, runner=None) -> dict:
        """One operation under the speed probe; returns its record."""
        probe = speed.SpeedProbe()
        with probe:
            started, cpu_started = time.perf_counter(), time.process_time()
            raw = runner(self.operate) if runner else self.operate()
            wall = time.perf_counter() - started
            cpu = time.process_time() - cpu_started
        outcome = self.assess(raw)
        csv_bytes = outcome.csv_bytes()
        problems = self.workloads.check(self.workload, outcome, csv_bytes,
                                        self.first_csv, self.reference)
        if self.first_csv is None:
            self.first_csv = csv_bytes
        self.ops.append({"wall_s": probe.normalise(wall), "wall_raw_s": wall,
                         "cpu_s": cpu, "probe_samples": len(probe.samples),
                         "traced": runner is not None,
                         "ref_err": outcome.ref_err, "problems": problems})
        return self.ops[-1]

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op["problems"])


def _column(ops, key):
    return [op[key] for op in ops]


def run_untraced(loop: Loop, seconds: float) -> dict:
    began = time.perf_counter()
    while True:
        loop.once()
        next_op = _median(_column(loop.ops, "wall_raw_s"))
        if time.perf_counter() - began + next_op > seconds:
            break
    ref_errs = [e for e in _column(loop.ops, "ref_err") if math.isfinite(e)]
    return {
        "wall_s": _median(_column(loop.ops, "wall_s")),
        "wall_raw_s": _median(_column(loop.ops, "wall_raw_s")),
        "wall_raw_to_norm": _median([op["wall_raw_s"] / op["wall_s"]
                                     for op in loop.ops]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ref_err": _median(ref_errs),
    }


def run_traced(loop: Loop, seconds: float, spans_path: Path):
    import tracing
    tracer = tracing.Tracer()
    began = time.perf_counter()
    plain, traced, per_op, details = [], [], [], []
    while True:
        plain.append(loop.once())
        traced.append(loop.once(tracer.run))
        metrics, detail = tracing.layer_metrics(tracer)
        per_op.append(metrics)
        details.append(detail)
        if len(traced) == 1:
            tracer.write_spans(spans_path)
        tracer.spans.clear()
        pair = (_median(_column(plain, "wall_raw_s"))
                + _median(_column(traced, "wall_raw_s")))
        if time.perf_counter() - began + pair > seconds:
            break
    # median_low: a value one traced operation actually produced
    merged = {name: (statistics.median_low([m[name][0] for m in per_op]), unit)
              for name, (_, unit) in per_op[0].items()}
    merged["trace.overhead_ratio"] = (
        _median(_column(traced, "wall_s")) / _median(_column(plain, "wall_s")),
        "ratio")
    return merged, details[0]


# --------------------------------------------------------------------------

def result_path(workload: str, seed: int, trace: int) -> Path:
    return OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json"


def run_workload(args) -> int:
    import workloads
    out_path = result_path(args.workload, args.seed, args.trace)
    work_dir = OUT_DIR / "work" / args.workload
    # set-up is an end-to-end metric: measured with tracing off only
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    inputs, operate, assess = workloads.build(args.workload, args.seed, work_dir)
    loop = Loop(args.workload, args.seed, operate, assess)

    detail = {}
    shown = {}   # printed and recorded beside the result's metrics
    if args.trace:
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.csv.gz"
        OUT_DIR.mkdir(exist_ok=True)
        metrics, detail = run_traced(loop, args.seconds, spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        values = run_untraced(loop, args.seconds)
        values["setup_s"] = _median([p["s"] for p in setup])
        metrics = {name: (values[name], unit)
                   for name, unit in END_TO_END_UNITS.items()}
        shown["setup_raw_s"] = (_median([p["raw_s"] for p in setup]), "s")
        shown["wall_raw_s"] = (values["wall_raw_s"], "s")
        shown["wall_raw_to_norm"] = (values["wall_raw_to_norm"], "ratio")

    attempted, failed = len(loop.ops), loop.failed
    shown["fail_ratio"] = (failed / attempted, "ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "environment": environment(args.seed),
        "inputs": inputs,
        "parameter_ranges": {"nominal_seed": workloads.NOMINAL_SEED,
                             "held_out_seed": workloads.HELD_OUT_SEED,
                             "nominal_low_high": workloads.PARAMETER_RANGES[
                                 args.workload]},
        "reference_checked": loop.reference is not None,
        "reference_tolerance": {"rtol": workloads.REF_RTOL,
                                "atol": workloads.REF_ATOL},
        **{name: value for name, (value, _) in shown.items()},
        "setup_probes_s": setup, "ops": loop.ops, "detail": detail,
        "result": result,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={attempted} failed={failed}")
    for op in loop.ops:
        for problem in op["problems"][:5]:
            print(f"  FAILED: {problem}")
    for name, (value, unit) in {**metrics, **shown}.items():
        print(f"  {name:<48} {value:.6g} {unit}")
    for eps, steps in detail.get("ep_steps_by_epsilon", {}).items():
        print(f"  ep steps at eps={eps}: {steps}")
    print(f"  result file: {out_path}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then a summary table of the
    end-to-end metrics with raw wall_s and fail_ratio beside them."""
    columns = [(name, unit) for name, unit in END_TO_END_UNITS.items()]
    columns += [("setup_raw_s", "s"), ("wall_raw_s", "s"),
                ("wall_raw_to_norm", "ratio"), ("fail_ratio", "ratio")]
    rows, ok = [], True
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             workload, "--seed", str(args.seed), "--seconds",
             str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=900)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        record = json.loads(result_path(workload, args.seed, 0).read_text())
        ok = ok and record["result"]["correct"]
        metrics = record["result"]["metrics"]
        rows.append((workload, [metrics[n]["value"] if n in metrics else record[n]
                                for n, _ in columns]))
    print(f"\n{'workload':<14}" + "".join(
        f"{f'{name} [{unit}]':>20}" for name, unit in columns))
    for workload, cells in rows:
        print(f"{workload:<14}" + "".join(f"{c:>20.6g}" for c in cells))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "frictionlab" / "__init__.py").is_file():
        print(f"perfbench: no frictionlab package under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.setup_probe is not None:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
