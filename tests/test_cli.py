import csv
import errno
import hashlib
import io
import json
import os
import sys

import pytest

from pathevac import (GenParams, Schedule, gen_random, instances,
                      parse_instance,
                      parse_packing_instance, parse_schedule,
                      schedule_objective, serialize_instance,
                      serialize_packing_instance, serialize_schedule,
                      simulate, solve_report, validate_schedule)
from pathevac import cli, model
from pathevac.cli import main
from checkers import parse_packing


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
    # to stdout, the schedule follows the report
    assert main(["solve", "--instance", str(inst), "--output", "-"]) == 0
    assert capsys.readouterr().out == \
        "\n".join(lines) + "\n" + out.read_text(encoding="utf-8")


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


def test_validate_reads_the_moves_in_any_order(tmp_path, capsys):
    # the reader is the one place that puts moves in order: a document
    # listing them backwards validates to the same bytes as the ordered one
    inst = gen_random(7, GenParams(nodes=6, groups=8, capacity=4,
                                   max_distance=3, facility=3))
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(serialize_instance(inst), encoding="utf-8")
    moves = json.loads(
        serialize_schedule(solve_report(inst).schedule))["moves"]
    # a move no group starts from, shifted one epoch early onto a free key,
    # draws groups that are not there yet
    origin = {g.id: g.node for g in inst.groups}
    keys = {(m["time"], m["node"]) for m in moves}
    late = next(m for m in moves if m["time"] > 1
                and (m["time"] - 1, m["node"]) not in keys
                and all(origin[gid] != m["node"] for gid in m["groups"]))
    shifted = sorted([dict(m, time=m["time"] - 1) if m is late else m
                      for m in moves], key=lambda m: (m["time"], m["node"]))

    def validate(doc_moves):
        path = tmp_path / "sched.json"
        path.write_text(json.dumps({"moves": doc_moves}), encoding="utf-8")
        code = main(["validate", "--instance", str(inst_path),
                     "--schedule", str(path), "--trace"])
        return code, *capsys.readouterr()

    ordered = validate(moves)
    assert ordered[0] == 0
    assert validate(moves[::-1]) == ordered
    broken = validate(shifted)
    assert broken[0] == 1 and "presence:" in broken[1]
    assert validate(shifted[::-1]) == broken


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
    assert packing.bins == {1: ("A", "D"), 2: ("B",)}


def test_oracle_fractional(abd_file, capsys):
    assert main(["oracle", "--packing", str(abd_file),
                 "--fractional"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"opt": "21", "witness": None}


def test_oracle_fractional_rejects_instance(fig1b_files, capsys):
    # the evacuation oracle has no fractional mode
    _, inst, _ = fig1b_files
    assert main(["oracle", "--instance", str(inst), "--fractional"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "oracle: --fractional needs --packing\n"


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


def test_lowerbound_nonuniform_exits_2(tmp_path, fixtures, capsys):
    # the reduction assumes one capacity: on fig1a it would print 32, above
    # the objective 28 of the fixture's own feasible schedule
    path = tmp_path / "a.json"
    path.write_text(serialize_instance(fixtures["fig1a"].instance),
                    encoding="utf-8")
    for flags in ([], ["--reduced-tau"]):
        assert main(["lowerbound", "--instance", str(path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "uniform" in captured.err


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


def test_gen_partition_rejects_a_non_integer(capsys):
    assert main(["gen", "--partition", "1,x"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "partition: invalid literal for int() with base 10: 'x'"]


def test_gen_packing(capsys):
    assert main(["gen", "--seed", "7", "--packing"]) == 0
    pinst = parse_packing_instance(capsys.readouterr().out)
    assert pinst.capacity == 6
    assert [it.id for it in pinst.items[:2]] == ["I1", "I2"]
    # explicit knobs route through to the library generator
    assert main(["gen", "--seed", "7", "--packing", "--capacity", "10"]) == 0
    pinst = parse_packing_instance(capsys.readouterr().out)
    assert pinst == instances.gen_random_packing(7)


@pytest.mark.parametrize("flags, message", [
    (["--max-size", "0"], "max_size must be >= 1, got 0"),
    (["--max-size", "-2"], "max_size must be >= 1, got -2"),
    (["--max-distance", "0"], "max_distance must be >= 1, got 0"),
    (["--max-weight", "0"], "max_weight must be >= 1, got 0"),
    (["--groups", "-1"], "groups must be >= 0, got -1"),
    (["--nodes", "0"], "nodes must be >= 1, got 0"),
    (["--capacity", "0"], "capacity must be >= 1, got 0"),
    (["--packing", "--items", "-1"], "items must be >= 0, got -1"),
    (["--packing", "--max-ready", "0"], "max_ready must be >= 1, got 0"),
    (["--packing", "--max-size", "0"], "max_size must be >= 1, got 0"),
])
def test_gen_names_the_out_of_range_flag(flags, message, capsys):
    assert main(["gen", "--seed", "7", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == message


@pytest.mark.parametrize("argv, message", [
    (["bench", "--count", "-3"], "count must be >= 0, got -3"),
    (["gen", "--partition", "2,2", "--packing"],
     "gen: --packing does not apply to --partition"),
], ids=["bench-count", "gen-partition-packing"])
def test_a_flag_that_would_be_ignored_is_rejected(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


def test_bench_count_zero_writes_only_the_header_and_max_row(capsys):
    assert main(["bench", "--count", "0"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "seed,m,greedy,fractional_lb,opt,ratio_vs_opt,ratio_vs_lb,"
        "wall_time_s", "max,,,,,,,0"]


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


def test_bench_marks_an_over_budget_oracle(capsys):
    assert main(["bench", "--count", "1", "--items", "16",
                 "--with-oracle"]) == 0
    row = _bench_rows(capsys.readouterr().out)[0]
    assert row["opt"] == "budget_exceeded" and row["ratio_vs_opt"] == ""


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


def test_edge_ends_not_ints_exit_1(tmp_path, capsys):
    # JSON true and 2.0 compare equal to 1 and 2 but are no node numbers
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({
        "nodes": 2, "facility": 2, "capacity": 1,
        "edges": [{"from": True, "to": 2.0, "distance": 1}],
        "groups": [{"id": "A", "node": 1, "size": 1, "weight": 1}]}),
        encoding="utf-8")
    assert main(["solve", "--instance", str(path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "edges[0]: must join nodes 1 and 2 in order, got True->2.0"]


@pytest.mark.parametrize("text", ["[" * 100000 + "]" * 100000,
                                  '{"nodes": ' + "7" * 5000 + "}"],
                         ids=["deep", "long-int"])
@pytest.mark.parametrize("flag", ["--instance", "--schedule", "--packing"])
def test_undecodable_json_exit_1(fig1b_files, tmp_path, capsys, flag, text):
    _, inst, sched = fig1b_files
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    argv = {"--instance": ["solve", "--instance", str(bad)],
            "--schedule": ["validate", "--instance", str(inst),
                           "--schedule", str(bad)],
            "--packing": ["lowerbound", "--packing", str(bad)]}[flag]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("json: ")


@pytest.mark.parametrize("argv, doc, entry", [
    (["solve", "--instance"],
     {"nodes": 2, "facility": 2, "capacity": 3,
      "edges": [{"from": 1, "to": 2, "distance": 1}],
      "groups": [{"id": "\ud800", "node": 1, "size": 1, "weight": 1}]},
     "groups"),
    (["oracle", "--packing"],
     {"capacity": 3,
      "items": [{"id": "\ud800", "size": 1, "weight": 1, "ready": 1}]},
     "items"),
], ids=["solve", "oracle"])
def test_id_utf8_cannot_encode_exit_1(tmp_path, capsys, argv, doc, entry):
    # json.dumps escapes the lone surrogate, and the reader decodes it back
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    target = tmp_path / "out.json"
    assert main([*argv, str(path), "--output", str(target)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and not target.exists()
    assert err.splitlines() == [
        f"{entry}[0].id: expected UTF-8 text, got '\\ud800'"]


def test_missing_file_exit_1(tmp_path, capsys):
    assert main(["solve", "--instance", str(tmp_path / "nope.json")]) == 1
    assert capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--instance", "--schedule", "--output"])
def test_directory_path_exit_1(fig1b_files, tmp_path, capsys, flag):
    _, inst, _ = fig1b_files
    argv = {"--instance": ["solve", "--instance", str(tmp_path)],
            "--schedule": ["validate", "--instance", str(inst),
                           "--schedule", str(tmp_path)],
            "--output": ["solve", "--instance", str(inst),
                         "--output", str(tmp_path)]}[flag]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    err = err.splitlines()
    assert len(err) == 1 and str(tmp_path) in err[0]
    if flag == "--output":
        # no report on stdout for a schedule that was never written
        assert out == ""


def test_output_missing_parent_exit_1(fig1b_files, tmp_path, capsys):
    _, inst, _ = fig1b_files
    target = tmp_path / "nope" / "sched.json"
    assert main(["solve", "--instance", str(inst),
                 "--output", str(target)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and str(target) in err
    assert not target.parent.exists()


# the schedule `solve --output` writes for `gen --seed 7 --nodes 100
# --groups 600 --capacity 10 --max-size 10 --max-weight 20 --max-distance 3
# --facility 50`: 10,728 moves, more than two of the writer's chunks; CI
# pins the same digest
_SPRAWL_SCHEDULE_SHA256 = \
    "6dc16ad1812d015fba9029ccacfe5961bd7aee531c65090aba7e36c402b6bae9"


@pytest.fixture(scope="module")
def sprawl_file(tmp_path_factory):
    inst = gen_random(7, GenParams(nodes=100, groups=600, capacity=10,
                                   max_size=10, max_weight=20,
                                   max_distance=3, facility=50))
    path = tmp_path_factory.mktemp("sprawl") / "inst.json"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    return path


class _RecordingFile:
    """A text file that keeps the text of each write and raises OSError at
    write number `fail_at` (never when 0)."""

    def __init__(self, fh, fail_at=0):
        self.fh = fh
        self.fail_at = fail_at
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        if len(self.writes) == self.fail_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def _record_writes(monkeypatch, fail_at=0):
    """Wrap each file `cli` opens for writing in a `_RecordingFile`; returns
    the list of them."""
    files = []

    def recording_open(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        if "w" not in mode:
            return fh
        files.append(_RecordingFile(fh, fail_at))
        return files[-1]

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    return files


def _assert_streamed(writes, text):
    """The writes are `text` in chunks of at most `_CHUNK` moves, three or
    more of them."""
    assert "".join(writes) == text
    assert len(writes) >= 3
    assert max(w.count('"time": ') for w in writes) <= model._CHUNK


def test_solve_output_streams(sprawl_file, tmp_path, monkeypatch, capsys):
    def whole_text(sched):
        raise AssertionError("solve --output built the whole text")

    monkeypatch.setattr(cli, "serialize_schedule", whole_text)
    files = _record_writes(monkeypatch)
    target = tmp_path / "sched.json"
    assert main(["solve", "--instance", str(sprawl_file),
                 "--output", str(target)]) == 0
    report = capsys.readouterr().out
    text = target.read_text(encoding="utf-8")
    assert hashlib.sha256(text.encode()).hexdigest() == \
        _SPRAWL_SCHEDULE_SHA256
    _assert_streamed(files[0].writes, text)
    # to stdout, the same chunks follow the report's three lines
    stdout = _RecordingFile(io.StringIO())
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["solve", "--instance", str(sprawl_file),
                 "--output", "-"]) == 0
    assert stdout.fh.getvalue() == report + text
    first = next(k for k, w in enumerate(stdout.writes)
                 if w.startswith('{\n  "moves"'))
    _assert_streamed(stdout.writes[first:], text)


def test_output_failing_mid_stream_exit_1(sprawl_file, tmp_path,
                                          monkeypatch, capsys):
    # the first chunk is written, the second raises
    files = _record_writes(monkeypatch, fail_at=2)
    assert main(["solve", "--instance", str(sprawl_file),
                 "--output", str(tmp_path / "sched.json")]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [str(OSError(errno.ENOSPC,
                                            os.strerror(errno.ENOSPC)))]
    assert len(files[0].writes) == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a /dev/full device")
def test_output_to_a_full_device_exit_1(sprawl_file, capsys):
    assert main(["solve", "--instance", str(sprawl_file),
                 "--output", "/dev/full"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1


def test_stdin_dash(fig1b_files, monkeypatch, capsys):
    fx, _, _ = fig1b_files
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO(serialize_instance(fx.instance)))
    assert main(["solve", "--instance", "-"]) == 0
    assert capsys.readouterr().out.startswith("objective 54")
