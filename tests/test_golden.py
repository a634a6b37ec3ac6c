"""Golden CLI outputs: the sha256 of stdout, stderr, exit code and written
file of every pinned command must not move.

The inputs are built with the CLI itself (`examples`, `gen`), so a case
names its command line and nothing else. A digest that moves means some
output changed by a byte; compare against the previous commit's output to
see which.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pathevac.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# instance name -> the CLI arguments that write it
INSTANCES = {
    "fig1b": ["examples", "--name", "fig1b", "--what", "instance"],
    **{f"gen{seed}": ["gen", "--seed", str(seed), "--nodes", "9",
                      "--groups", "30", "--max-distance", "4"]
       for seed in (3, 17, 42)},
    # edges up to 1000 epochs long: 17 groups in 419 bins on the right
    "long-edge": ["gen", "--seed", "5", "--nodes", "4", "--groups", "20",
                  "--max-distance", "1000", "--facility", "1"],
}

PACKINGS = {f"pack{seed}": ["gen", "--packing", "--seed", str(seed),
                            "--items", "9", "--max-ready", "12"]
            for seed in range(1, 7)}

# instance name -> the CLI arguments that write it, for `oracle --instance`:
# fig1b, and twelve groups at one node next to the facility
ORACLE_INSTANCES = {
    "fig1b": INSTANCES["fig1b"],
    "gen4-twelve": ["gen", "--seed", "4", "--nodes", "2", "--groups", "12",
                    "--capacity", "20", "--facility", "2"],
}

# instance name -> sha256 of the stdout of `oracle --instance`, the bytes
# CI's standard-library step hashes: the optimum and its witness schedule
ORACLE_STDOUT = {
    "fig1b":
        "851e0249c07af4a25520c1b280106737b5d5d1846f3a8ba8c7ed4f5c06c7f72b",
    "gen4-twelve":
        "57c85cc957abbf321685cf689e5d5e74e547aea9ad42cdb787075f8596678f33",
}

# rejected instance documents: every violation kind of a group entry in
# one, and route capacity violations (checked only once every entry is
# valid) in the other, so the message order is pinned end to end
REJECTED = {
    "damaged-groups": {
        "nodes": 3, "facility": 3, "capacity": 4,
        "edges": [{"from": 1, "to": 2, "distance": 1},
                  {"from": 2, "to": 3, "distance": 2}],
        "groups": [
            {"id": "A", "node": 1, "size": 2, "weight": 1},
            [],
            {"id": "", "node": 1, "size": 1, "weight": 1},
            {"id": 7, "node": 1, "size": 1, "weight": 1},
            {"node": 1, "size": 1, "weight": 1},
            {"id": "A", "node": 2, "size": 1, "weight": 1},
            {"id": "B", "node": True, "size": 1, "weight": 1},
            {"id": "C", "node": 4, "size": 1.0, "weight": 0},
            {"id": "D", "size": -1, "weight": True},
            {"id": "E", "node": 0, "size": 10 ** 20, "weight": "1"}]},
    "too-big-groups": {
        "nodes": 4, "facility": 2, "capacity": 5,
        "edges": [{"from": 1, "to": 2, "distance": 1, "capacity": 3},
                  {"from": 2, "to": 3, "distance": 2},
                  {"from": 3, "to": 4, "distance": 1, "capacity": 2}],
        "groups": [{"id": "L", "node": 1, "size": 4, "weight": 1},
                   {"id": "R", "node": 4, "size": 5, "weight": 2},
                   {"id": "F", "node": 2, "size": 5, "weight": 1},
                   {"id": "S", "node": 3, "size": 4, "weight": 1},
                   {"id": "T", "node": 4, "size": 6, "weight": 1}]},
}

# "<case> <command>" -> sha256; recorded while packings were dense tuples,
# and unchanged by the sparse packing
GOLDEN = {
    "fig1b solve":
        "2b11a98bf6468658f9070ed0e8fff4bb54f24875539c61268e3bbc86ae82c77f",
    "fig1b validate":
        "72431aa16a443c77da059c31a1be89f36de0430f1a6d486b7e462698368f2bf2",
    "fig1b lowerbound":
        "7271dcf4e7e7c487d7bc9671e20f59bb8eb1fdd11d50d287ab6196216e2d841b",
    "gen17 solve":
        "1c2239187913b2f3490f59c8961aa9a39fe860988366d4e5e6688fcdc9e1a45c",
    "gen17 validate":
        "305e86cc56c6e12c5dedebb50cf028f19f9a40c560a00f98b30742048e36926a",
    "gen17 lowerbound":
        "ca067b7d5afb402c862f7eaa196c069dd119dfba7fd39f262a1eed8edf60b20c",
    "gen3 solve":
        "72e631b396f5d2dfda290997157e7a4f2acfc9c67c42ca19ca14176242de79ba",
    "gen3 validate":
        "b4f750c31f5cdb17edeaad5f5af4b006038daffdb97a8f04b28fc2f4ce89cb97",
    "gen3 lowerbound":
        "0ae16af747f5f054af81e31eb186660d82304a8c816aef6c9af892a26570137b",
    "gen42 solve":
        "9dab77e329ffaf098e55817f5c4e45cb7624e55c0e4b6081aa831a35ca69c69c",
    "gen42 validate":
        "57ce4856f06ec0884b5726ea256f19a0fdfb7e66c1355a3480e006b3e2107dae",
    "gen42 lowerbound":
        "92164330411e5a84350fc49a5d78187dd8270b96737bffe44f0ce85fc20abc17",
    "long-edge solve":
        "aa011db0ea17a7e5a6c829d163529a1b542396b5841185a62be5b6702aa77042",
    "long-edge validate":
        "f67d9b67f9a4bfa0d2a206cc88e6fd83ae0bead13cb328cd3092ddd5a46c6533",
    "long-edge lowerbound":
        "914b4fbb343451a987f16cd3e68f1fc8e5876c6c7b50e6a7b0daf37a117c18c7",
    "pack1 oracle":
        "e2f4f71a2cb61fbdb50c52aaa230f3e569221c6cbaf94961458971b20a9468b2",
    "pack1 lowerbound":
        "326ac36d38727bc276cdfa58c5d9b710f744eefc2b18584ceb0cdf9f017cc474",
    "pack2 oracle":
        "41e101e8dbd3c63a154358495e34c510fc1965afe30d5e5b208ca05bd8e7a678",
    "pack2 lowerbound":
        "0406a9e64913c5294a8b17bc738a9fa04de1c4a66e403984f7ad896484489c6b",
    "pack3 oracle":
        "005d8e2b87c6f9074ddb9e2505038e369a08d719532d648e70bfb75edc2402d3",
    "pack3 lowerbound":
        "362c43695cfca0691421aa8dc4feeea28ad0cf9b1ca6823e8ea092563cd286a6",
    "pack4 oracle":
        "9ccbd10cae256887675189f31b9a96516c64c1bfd1e02c06a0d6b24794e5527e",
    "pack4 lowerbound":
        "cebbd27d0299cb3ee4089bd833d4fd7e2474a7e4369d42a7da3be1024e473c96",
    "pack5 oracle":
        "f0790791995d1619a03f215352fbf2b34487c0af28da0c2aee0348d508784a0c",
    "pack5 lowerbound":
        "5373fe72aa472adc7c4dae02d7b9dd1b4de01cf31c1b5caec675da4333eea533",
    "pack6 oracle":
        "deacdc1719f81b401a0a9fdbad11811613fc1a39aba8b7d1b77c6ce66aa2b3ec",
    "pack6 lowerbound":
        "3083829d8cdd2e16910b63c4f90215994e5ef4a3aed437d265b208e9f5fe6407",
    # the same under the per-field reader that the single-guard one replaced
    "damaged-groups solve":
        "51fbc439d8fc77222af057b002c8bb4880ffc3188755c93fa6c44a037d6f3669",
    "damaged-groups lowerbound":
        "51fbc439d8fc77222af057b002c8bb4880ffc3188755c93fa6c44a037d6f3669",
    "too-big-groups solve":
        "901be840a04d4bd85d74d4d45b7affd0896aac33034315ab3c8f9c88042fd12f",
    "too-big-groups lowerbound":
        "901be840a04d4bd85d74d4d45b7affd0896aac33034315ab3c8f9c88042fd12f",
    # recorded under the walk with per-node occupancy and a landing heap
    "damaged-moves validate":
        "a12d6466640591914c0d916115fa220247a4f6a1c2aa0f6384e343111fbc932f",
}

# a schedule for fig1b that the reader accepts, with its moves out of
# order and every violation kind the walk reports on such a document: a
# node off the path, an unknown group, a departure that finds its group
# elsewhere, a move at the facility, an overfull departure and a group that
# never arrives (the reader itself rejects a move before epoch 1, a
# repeated key and a group named twice in one move)
DAMAGED_SCHEDULE = {"moves": [
    {"time": 5, "node": 2, "groups": ["G12", "G22"]},
    {"time": 1, "node": 9, "groups": ["G21"]},
    {"time": 4, "node": 1, "groups": ["G12"]},
    {"time": 3, "node": 3, "groups": ["G21"]},
    {"time": 2, "node": 2, "groups": ["ghost", "G21"]},
    {"time": 3, "node": 1, "groups": ["G22"]},
]}


def _run(capsys, argv, written=None) -> tuple[str, str]:
    """Run one command; return its stdout and the digest of everything it
    produced: exit code, stdout, stderr and the written file, if any."""
    code = main(argv)
    out, err = capsys.readouterr()
    text = written.read_text(encoding="utf-8") if written else None
    blob = json.dumps([code, out, err, text], ensure_ascii=False)
    return out, hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _write_input(tmp_path, capsys, name, argv):
    path = tmp_path / f"{name}.json"
    assert main([*argv, "--output", str(path)]) == 0
    capsys.readouterr()
    return path


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_instance_commands(name, tmp_path, capsys):
    inst = str(_write_input(tmp_path, capsys, name, INSTANCES[name]))
    sched = tmp_path / "schedule.json"
    out, digest = _run(capsys, ["solve", "--instance", inst, "--trace",
                                "--output", str(sched)], sched)
    if name == "long-edge":
        assert "right: 17 groups in 419 bins" in out
    got = {"solve": digest,
           "validate": _run(capsys, ["validate", "--instance", inst,
                                     "--schedule", str(sched),
                                     "--trace"])[1],
           "lowerbound": _run(capsys, ["lowerbound", "--instance", inst,
                                       "--reduced-tau"])[1]}
    assert got == {cmd: GOLDEN[f"{name} {cmd}"] for cmd in got}


@pytest.mark.parametrize("name", sorted(PACKINGS))
def test_packing_commands(name, tmp_path, capsys):
    pinst = str(_write_input(tmp_path, capsys, name, PACKINGS[name]))
    got = {"oracle": _run(capsys, ["oracle", "--packing", pinst])[1],
           "lowerbound": _run(capsys, ["lowerbound", "--packing", pinst])[1]}
    assert got == {cmd: GOLDEN[f"{name} {cmd}"] for cmd in got}


@pytest.mark.parametrize("name", sorted(ORACLE_INSTANCES))
def test_oracle_instance_stdout(name, tmp_path, capsys):
    inst = str(_write_input(tmp_path, capsys, name, ORACLE_INSTANCES[name]))
    assert main(["oracle", "--instance", inst]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() \
        == ORACLE_STDOUT[name]


def test_some_witness_has_empty_bins(tmp_path, capsys):
    empty = 0
    for name, argv in PACKINGS.items():
        pinst = str(_write_input(tmp_path, capsys, name, argv))
        assert main(["oracle", "--packing", pinst]) == 0
        bins = json.loads(capsys.readouterr().out)["witness"]["bins"]
        empty += sum(not b for b in bins)
    assert empty


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_rejected_instance_commands(name, tmp_path, capsys):
    inst = tmp_path / f"{name}.json"
    inst.write_text(json.dumps(REJECTED[name]), encoding="utf-8")
    got = {"solve": _run(capsys, ["solve", "--instance", str(inst)])[1],
           "lowerbound": _run(capsys, ["lowerbound", "--instance",
                                       str(inst)])[1]}
    assert got == {cmd: GOLDEN[f"{name} {cmd}"] for cmd in got}


def test_damaged_schedule_validate(tmp_path, capsys):
    inst = str(_write_input(tmp_path, capsys, "fig1b", INSTANCES["fig1b"]))
    sched = tmp_path / "damaged-moves.json"
    sched.write_text(json.dumps(DAMAGED_SCHEDULE), encoding="utf-8")
    argv = ["validate", "--instance", inst, "--schedule", str(sched),
            "--trace"]
    assert main(argv) == 1
    capsys.readouterr()
    out, digest = _run(capsys, argv)
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "unknown", "unknown", "presence", "direction", "capacity",
        "completion"]
    assert digest == GOLDEN["damaged-moves validate"]


# workload -> digest of the benchmark's checked outputs at seed 7
BENCH_DIGESTS = {
    "dense": "aed7127ae6ade292",
    "sprawl": "7e2d3fef80f7622e",
    "long-edge": "1b8bf11a56b50277",
    "oracle": "2f0c3bbc53386f36",
}


@pytest.mark.parametrize("name", sorted(BENCH_DIGESTS))
def test_benchmark_digests(name, monkeypatch):
    """One pass of each benchmark workload over its seed-7 pool; `run`
    returns the record and writes no file."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    record = run.run(name, seed=7, seconds=0, trace=False)
    assert (record["digest"], record["result"]["failed"]) \
        == (BENCH_DIGESTS[name], 0)
