"""Write the stored reference tables the correctness gate compares against.

    python3 perfbench/make_reference.py

Runs one operation of every workload for the nominal and the held-out
seed and stores its result tables under perfbench/reference/. Run it only
at a commit whose outputs are trusted; a change that alters results on
purpose refreshes these files in a benchmark change of its own.
"""
from __future__ import annotations

import json
import sys
import tempfile

import run
import workloads


def main() -> int:
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        for seed in (workloads.NOMINAL_SEED, workloads.HELD_OUT_SEED):
            with tempfile.TemporaryDirectory(dir=run.ROOT) as out_dir:
                inputs, operate, assess = workloads.build(workload, seed,
                                                          out_dir)
                outcome = assess(operate())
                csv_bytes = outcome.csv_bytes()
                problems = workloads.check(workload, outcome, csv_bytes,
                                           None, None)
                if problems:
                    print(f"{workload} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                record = {"workload": workload, "seed": seed, "inputs": inputs,
                          "git_sha": run._git_sha(),
                          "tables": outcome.table(csv_bytes)}
            path = workloads.reference_path(workload, seed)
            path.write_text(json.dumps(record, indent=1) + "\n")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
