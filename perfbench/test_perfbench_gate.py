"""The benchmark's correctness gate counts a broken output as a failure.

One real limit_oracles operation (nominal seed, stored reference) is run
once; each test then breaks one part of its output and checks the gate.
"""
from __future__ import annotations

import dataclasses
import math

import pytest

import run
import workloads

WORKLOAD = "limit_oracles"
SEED = workloads.NOMINAL_SEED


@pytest.fixture(scope="module")
def good(tmp_path_factory):
    _, operate, assess = workloads.build(WORKLOAD, SEED,
                                         tmp_path_factory.mktemp("perfbench"))
    outcome = assess(operate())
    return outcome, outcome.csv_bytes()


def _check(outcome, csv_bytes, first):
    return workloads.check(WORKLOAD, outcome, csv_bytes, first,
                           workloads.load_reference(WORKLOAD, SEED))


def test_reference_is_stored_for_both_seeds():
    for workload in workloads.WORKLOADS:
        for seed in (workloads.NOMINAL_SEED, workloads.HELD_OUT_SEED):
            assert workloads.load_reference(workload, seed) is not None


def test_good_output_passes(good):
    outcome, csv_bytes = good
    assert _check(outcome, csv_bytes, csv_bytes) == []


def test_last_bit_change_is_within_tolerance(good):
    outcome, csv_bytes = good
    nudged = dataclasses.replace(outcome, ref_err=outcome.ref_err * (1 + 1e-12))
    assert _check(nudged, csv_bytes, csv_bytes) == []


def test_changed_csv_byte_fails(good):
    outcome, csv_bytes = good
    broken = dict(csv_bytes)
    data = bytearray(broken["ks_run.csv"])
    row = data.index(b"\r\n") + 2          # first digit of the first data row
    data[row] = ord("9") if data[row] != ord("9") else ord("8")
    broken["ks_run.csv"] = bytes(data)
    problems = _check(outcome, broken, csv_bytes)
    assert any("differs from the first run" in p for p in problems)
    assert any(p.startswith("ks_run.csv[") for p in problems)


def test_value_off_reference_fails(good):
    outcome, csv_bytes = good
    off = dataclasses.replace(outcome, ref_err=outcome.ref_err * (1 + 1e-3))
    assert any(p.startswith("ref_err[") for p in _check(off, csv_bytes, csv_bytes))


@pytest.mark.parametrize("change", [
    {"statuses": ["cfl"]},
    {"verdicts": {"length_law": False}},
    {"ref_err": math.nan},
])
def test_bad_status_verdict_or_ref_err_fails(good, change):
    outcome, csv_bytes = good
    assert _check(dataclasses.replace(outcome, **change), csv_bytes, csv_bytes)


def test_loop_counts_a_broken_operation(good):
    outcome, _ = good
    calls = []

    def sometimes_broken():     # replays the good outcome; its CSVs are on disk
        calls.append(1)
        if len(calls) == 2:
            return dataclasses.replace(outcome, statuses=["nonfinite"])
        return outcome

    loop = run.Loop(WORKLOAD, SEED, sometimes_broken, lambda raw: raw)
    loop.once()
    loop.once()
    assert len(loop.ops) == 2 and loop.failed == 1
    assert loop.ops[1]["problems"] == ["status 'nonfinite'"]
