import csv
import io
import json
import sys

import pytest

from pathevac import (Schedule, instances, parse_instance, parse_packing,
                      parse_packing_instance, parse_schedule,
                      schedule_objective, serialize_instance,
                      serialize_packing_instance, serialize_schedule,
                      simulate, validate_schedule)
from pathevac.cli import main


@pytest.fixture
def fig1b_files(tmp_path, fixtures):
    fx = fixtures["fig1b"]
    inst = tmp_path / "inst.json"
    inst.write_text(serialize_instance(fx.instance), encoding="utf-8")
    sched = tmp_path / "sched.json"
    sched.write_text(serialize_schedule(fx.schedule), encoding="utf-8")
    return fx, inst, sched


@pytest.fixture
def abd_file(tmp_path, abd):
    path = tmp_path / "pack.json"
    path.write_text(serialize_packing_instance(abd), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# solve / validate

def test_solve_writes_feasible_schedule(fig1b_files, tmp_path, capsys):
    fx, inst, _ = fig1b_files
    out = tmp_path / "out.json"
    assert main(["solve", "--instance", str(inst),
                 "--output", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "objective 54"
    assert lines[1] == ("left: 4 groups in 4 bins, packing objective 38, "
                        "delay cost 16")
    assert lines[2] == "right: empty"
    sched = parse_schedule(out.read_text(encoding="utf-8"))
    assert validate_schedule(fx.instance, sched) == []


def test_solve_trace_flag(fig1b_files, capsys):
    _, inst, _ = fig1b_files
    assert main(["solve", "--instance", str(inst), "--trace"]) == 0
    out = capsys.readouterr().out
    assert "--- left greedy trace" in out
    assert "place" in out


def test_solve_nonuniform_exits_2(tmp_path, fixtures, capsys):
    path = tmp_path / "a.json"
    path.write_text(serialize_instance(fixtures["fig1a"].instance),
                    encoding="utf-8")
    assert main(["solve", "--instance", str(path)]) == 2
    assert "uniform" in capsys.readouterr().err


def test_validate_ok_with_trace(fig1b_files, capsys):
    _, inst, sched = fig1b_files
    assert main(["validate", "--instance", str(inst),
                 "--schedule", str(sched), "--trace"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "ok objective 52"
    assert "node 3" in out


def test_validate_reports_violations(fig1b_files, tmp_path, capsys):
    _, inst, _ = fig1b_files
    bad = tmp_path / "bad.json"
    bad.write_text(serialize_schedule(
        Schedule.from_map({(1, 1): ["G21"]})), encoding="utf-8")
    assert main(["validate", "--instance", str(inst),
                 "--schedule", str(bad)]) == 1
    out = capsys.readouterr().out
    assert any(line.startswith("presence:") for line in out.splitlines())
    assert any(line.startswith("completion:") for line in out.splitlines())


def test_validate_empty_schedule_incomplete(fig1b_files, tmp_path, capsys):
    _, inst, _ = fig1b_files
    empty = tmp_path / "empty.json"
    empty.write_text(serialize_schedule(Schedule(moves=())), encoding="utf-8")
    assert main(["validate", "--instance", str(inst),
                 "--schedule", str(empty)]) == 1
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 4


# ---------------------------------------------------------------------------
# oracle / lowerbound

def test_oracle_instance(fig1b_files, fixtures, capsys):
    fx, inst, _ = fig1b_files
    assert main(["oracle", "--instance", str(inst)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["opt"] == 52
    witness = parse_schedule(json.dumps(doc["witness"]))
    trace = simulate(fx.instance, witness)
    assert schedule_objective(trace, fx.instance) == 52


def test_oracle_packing(abd_file, abd, capsys):
    assert main(["oracle", "--packing", str(abd_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["opt"] == 24
    packing, objective = parse_packing(json.dumps(doc["witness"]))
    assert objective == 24
    assert packing.bins == (("A", "D"), ("B",))


def test_oracle_fractional(abd_file, capsys):
    assert main(["oracle", "--packing", str(abd_file),
                 "--fractional"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"opt": "21", "witness": None}


def test_oracle_budget_exit_3(tmp_path, capsys):
    items = [{"id": f"i{k}", "size": 1, "weight": 1, "ready": 1}
             for k in range(16)]
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"capacity": 2, "items": items}),
                    encoding="utf-8")
    assert main(["oracle", "--packing", str(path)]) == 3
    assert "budget" in capsys.readouterr().err


def test_lowerbound_instance(fig1b_files, capsys):
    _, inst, _ = fig1b_files
    assert main(["lowerbound", "--instance", str(inst)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "fractional_lb": "97/2", "reduced_tau": False}
    # every ready time here is its own pair index, so the reduction is a
    # fixed point and the bound does not move
    assert main(["lowerbound", "--instance", str(inst),
                 "--reduced-tau"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "fractional_lb": "97/2", "reduced_tau": True}


def test_lowerbound_packing(abd_file, capsys):
    assert main(["lowerbound", "--packing", str(abd_file)]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "fractional_lb": "21", "reduced_tau": False}
    assert main(["lowerbound", "--packing", str(abd_file),
                 "--reduced-tau"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "fractional_lb": "21", "reduced_tau": True}


# ---------------------------------------------------------------------------
# gen

def test_gen_deterministic(capsys):
    assert main(["gen", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first
    inst = parse_instance(first)
    assert inst.nodes == 4


def test_gen_partition(capsys):
    assert main(["gen", "--partition", "2,2,3,3"]) == 0
    inst = parse_instance(capsys.readouterr().out)
    assert (inst.nodes, inst.facility, inst.capacity) == (2, 2, 5)
    assert main(["gen", "--partition", "1,2"]) == 1
    assert "odd" in capsys.readouterr().err


def test_gen_packing(capsys):
    assert main(["gen", "--seed", "7", "--packing"]) == 0
    pinst = parse_packing_instance(capsys.readouterr().out)
    assert pinst.capacity == 6
    assert [it.id for it in pinst.items[:2]] == ["I1", "I2"]
    # explicit knobs route through to the library generator
    assert main(["gen", "--seed", "7", "--packing", "--capacity", "10"]) == 0
    pinst = parse_packing_instance(capsys.readouterr().out)
    assert pinst == instances.gen_random_packing(7)


def test_gen_requires_seed(capsys):
    assert main(["gen"]) == 1
    assert "--seed is required" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bench

def _bench_rows(output: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(output)))


def test_bench_packing_csv(capsys):
    assert main(["bench", "--problem", "packing", "--count", "5",
                 "--seed-start", "3", "--with-oracle",
                 "--items", "5", "--capacity", "8"]) == 0
    rows = _bench_rows(capsys.readouterr().out)
    assert len(rows) == 6
    assert [r["seed"] for r in rows[:5]] == ["3", "4", "5", "6", "7"]
    for r in rows[:5]:
        assert float(r["ratio_vs_opt"]) <= 2.0
        assert float(r["ratio_vs_lb"]) >= 1.0
    assert rows[5]["seed"] == "max"
    assert float(rows[5]["ratio_vs_opt"]) == max(
        float(r["ratio_vs_opt"]) for r in rows[:5])


def test_bench_evac_csv(capsys):
    assert main(["bench", "--problem", "evac", "--count", "3",
                 "--groups", "3", "--capacity", "4"]) == 0
    rows = _bench_rows(capsys.readouterr().out)
    assert len(rows) == 4
    assert all(r["opt"] == "" for r in rows)


def test_bench_evac_lb_matches_lowerbound(tmp_path, capsys):
    shape = ["--nodes", "5", "--groups", "6", "--capacity", "5",
             "--max-distance", "3"]
    assert main(["bench", "--problem", "evac", "--count", "4",
                 "--seed-start", "20", *shape]) == 0
    rows = _bench_rows(capsys.readouterr().out)[:4]
    for row in rows:
        inst = tmp_path / f"inst{row['seed']}.json"
        assert main(["gen", "--seed", row["seed"], *shape,
                     "--output", str(inst)]) == 0
        assert main(["lowerbound", "--instance", str(inst)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["fractional_lb"] == row["fractional_lb"]


# ---------------------------------------------------------------------------
# examples and IO plumbing

def test_examples_listing(capsys):
    assert main(["examples"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("fig1a:")
    assert "fig1b:" in out


def test_examples_emit(fixtures, capsys):
    assert main(["examples", "--name", "fig1b", "--what", "instance"]) == 0
    inst = parse_instance(capsys.readouterr().out)
    assert inst == fixtures["fig1b"].instance
    assert main(["examples", "--name", "fig1b", "--what", "schedule"]) == 0
    sched = parse_schedule(capsys.readouterr().out)
    assert sched == fixtures["fig1b"].schedule
    assert main(["examples", "--name", "fig1b"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["objective"] == 52


def test_examples_unknown_name(capsys):
    assert main(["examples", "--name", "nope"]) == 1
    assert "unknown name" in capsys.readouterr().err


def test_malformed_instance_exit_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"nodes": 2, "facility": 9, "capacity": 0,
                                "edges": [], "groups": []}),
                    encoding="utf-8")
    assert main(["solve", "--instance", str(path)]) == 1
    err = capsys.readouterr().err
    assert "facility" in err and "capacity" in err


def test_missing_file_exit_1(tmp_path, capsys):
    assert main(["solve", "--instance", str(tmp_path / "nope.json")]) == 1
    assert capsys.readouterr().err


def test_stdin_dash(fig1b_files, monkeypatch, capsys):
    fx, _, _ = fig1b_files
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO(serialize_instance(fx.instance)))
    assert main(["solve", "--instance", "-"]) == 0
    assert capsys.readouterr().out.startswith("objective 54")
