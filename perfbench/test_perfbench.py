"""Tests of the benchmark itself, at smoke-test size.

Run from the repository root:

    python -m pytest perfbench
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from pathevac import evac  # noqa: E402
from pathevac.model import Schedule  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section: str) -> set[str]:
    return {m["name"] for m in SPEC[section]}


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke(name, trace):
    record = bench.run(name, seed=3, seconds=0, trace=trace, small=True)
    result = record["result"]
    assert result["correct"], record["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == _names(
        "per_layer" if trace else "end_to_end")
    if not trace:
        assert 1 <= result["metrics"]["gap_max"]["value"] <= 2


def test_broken_solver_raises_failed_share(monkeypatch):
    real = evac.solve_report

    def drops_a_move(inst):
        report = real(inst)
        return dataclasses.replace(report, schedule=Schedule(
            moves=report.schedule.moves[1:]))

    monkeypatch.setattr(evac, "solve_report", drops_a_move)
    record = bench.run("dense", seed=3, seconds=0, trace=False, small=True)
    assert record["failed_share"] > 0
    assert not record["result"]["correct"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_outputs(name):
    def observed():
        plain = bench.run(name, seed=7, seconds=0, trace=False, small=True)
        traced = bench.run(name, seed=7, seconds=0, trace=True, small=True)
        metrics = plain["result"]["metrics"]
        counts = {k: v["value"] for k, v in traced["result"]["metrics"].items()
                  if v["unit"] == "count"}
        return (plain["digest"], traced["digest"], counts,
                metrics["gap_max"]["value"], metrics["opt_ratio_max"]["value"])

    first = observed()
    assert first == observed()
    assert first[0] == first[1]     # tracing does not change any output


def test_corruptions_always_break_the_schedule():
    w = workloads.tiny(workloads.WORKLOADS["long-edge"])
    for case in workloads.make_pool(w, 11):
        pc = case.paths[0]
        report = evac.solve_report(pc.inst)
        for s in range(30):
            bad = workloads.corrupt(report.schedule, pc.inst,
                                    random.Random(s))
            assert evac.validate_schedule(pc.inst, bad)


def test_cli_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == _names("end_to_end")


def test_cli_fails_without_the_sources():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "dense",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
