import time

import pytest
from hypothesis import given, settings, strategies as st

from pathevac import (GenParams, Group, Move, NonUniformCapacityError,
                      Packing, PathInstance, Schedule, SimulationInfeasible,
                      assemble_schedule, fractional_lower_bound, gen_random,
                      reduce_side, schedule_objective, simulate, solve,
                      solve_report, validate_schedule)
from pathevac.evac import _walk
from ref_walk import ref_walk


# ---------------------------------------------------------------------------
# side reduction

def test_reduce_side_left(fixtures):
    inst = fixtures["fig1b"].instance
    pack_inst, red = reduce_side(inst, "left")
    assert red.delay_cost == 16
    ready = {it.id: it.ready for it in pack_inst.items}
    assert ready == {"G11": 2, "G12": 2, "G21": 1, "G22": 1}
    sizes = {it.id: it.size for it in pack_inst.items}
    assert sizes == {"G11": 2, "G12": 2, "G21": 3, "G22": 3}


def test_reduce_side_empty(fixtures):
    inst = fixtures["fig1b"].instance
    pack_inst, red = reduce_side(inst, "right")
    assert pack_inst.items == ()
    assert red.delay_cost == 0


def test_reduce_side_rejects_bad_side(fixtures):
    with pytest.raises(ValueError, match="side"):
        reduce_side(fixtures["fig1b"].instance, "up")


# ---------------------------------------------------------------------------
# assembly

@pytest.mark.parametrize("seed", range(8))
def test_fractional_lower_bound_brackets_greedy(seed):
    inst = gen_random(seed, GenParams(nodes=6, groups=7, max_distance=3))
    plain = fractional_lower_bound(inst)
    reduced = fractional_lower_bound(inst, reduced_tau=True)
    _, objective = solve(inst)
    assert reduced <= plain <= objective <= 2 * reduced


def test_assemble_walks_routes_back(fixtures):
    inst = fixtures["fig1b"].instance
    packing = Packing(bins=(("G21",), ("G22",), ("G11",), ("G12",)))
    sched = assemble_schedule(inst, packing, None)
    assert sched.as_map() == {
        (1, 2): ("G21",),
        (2, 1): ("G11",),
        (2, 2): ("G22",),
        (3, 1): ("G12",),
        (3, 2): ("G11",),
        (4, 2): ("G12",),
    }


def test_assemble_rejects_bin_before_ready(fixtures):
    inst = fixtures["fig1b"].instance
    # G11 sits one hop from the bottleneck; bin 1 would mean departing at 0
    packing = Packing(bins=(("G11",),))
    with pytest.raises(ValueError, match="cannot reach the bottleneck"):
        assemble_schedule(inst, packing, None)


def test_assemble_rejects_unknown_group(fixtures):
    inst = fixtures["fig1b"].instance
    with pytest.raises(ValueError, match="unknown group"):
        assemble_schedule(inst, Packing(bins=(("ghost",),)), None)


# ---------------------------------------------------------------------------
# end-to-end solver

def test_solve_report_frozen(fixtures):
    inst = fixtures["fig1b"].instance
    report = solve_report(inst)
    assert report.left_packing.bins == (("G21",), ("G22",), ("G11",), ("G12",))
    assert report.right_instance.items == ()
    assert report.objective == 54
    assert report.side_objective("left") == 54
    assert report.side_objective("right") == 0
    assert validate_schedule(inst, report.schedule) == []


def test_solve_rejects_per_edge_capacities(fixtures):
    with pytest.raises(NonUniformCapacityError):
        solve(fixtures["fig1a"].instance)


def test_solve_all_at_facility():
    inst = PathInstance(nodes=1, facility=1, capacity=2, distances=(),
                        groups=(Group(id="g", node=1, size=1, weight=4),))
    sched, objective = solve(inst)
    assert sched.moves == ()
    assert objective == 0


def test_solve_rejects_group_larger_than_capacity():
    # parse_instance rejects this; an instance built in code reaches the
    # greedy, which must not close bins forever
    inst = PathInstance(nodes=2, facility=2, capacity=2, distances=(1,),
                        groups=(Group(id="g", node=1, size=3, weight=1),))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="item 'g' of size 3 exceeds the "
                                         "bin capacity 2"):
        solve(inst)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# simulation

def test_simulate_reference_schedule(fixtures):
    fx = fixtures["fig1b"]
    trace = simulate(fx.instance, fx.schedule)
    assert trace.arrival_time == dict(fx.arrival_times)
    assert schedule_objective(trace, fx.instance) == 52
    occ0 = {v: set(ids) for v, ids in trace.occupancy[0].items()}
    assert occ0 == {1: {"G11", "G12"}, 2: {"G21", "G22"}}
    # crossing the long edge takes two epochs: G21 leaves at 1, lands at 2
    assert trace.arrival_time["G21"] == 2


def test_simulate_presence_violation(fixtures):
    inst = fixtures["fig1b"].instance
    sched = Schedule.from_map({(1, 1): ["G21"]})
    with pytest.raises(SimulationInfeasible, match="presence"):
        simulate(inst, sched)


def test_simulate_capacity_violation(fixtures):
    inst = fixtures["fig1b"].instance
    sched = Schedule.from_map({(1, 2): ["G21", "G22"]})
    with pytest.raises(SimulationInfeasible, match="capacity"):
        simulate(inst, sched)


def test_simulate_direction_violation(fixtures):
    inst = fixtures["fig1b"].instance
    sched = Schedule.from_map({(1, 3): ["G21"]})
    with pytest.raises(SimulationInfeasible, match="direction"):
        simulate(inst, sched)


def test_simulate_unknown_node_and_group(fixtures):
    inst = fixtures["fig1b"].instance
    bad = Schedule.from_map({(1, 9): ["G21"]})
    with pytest.raises(SimulationInfeasible, match="unknown: node 9"):
        simulate(inst, bad)
    ghost = Schedule.from_map({(1, 1): ["ghost"]})
    with pytest.raises(SimulationInfeasible, match="unknown: group"):
        simulate(inst, ghost)


def test_validate_schedule_reports_completion(fixtures):
    inst = fixtures["fig1b"].instance
    violations = validate_schedule(inst, Schedule(moves=()))
    assert len(violations) == 4
    assert all(v.startswith("completion:") for v in violations)


def test_objective_requires_arrival(fixtures):
    inst = fixtures["fig1b"].instance
    trace = simulate(inst, Schedule(moves=()))
    with pytest.raises(ValueError, match="never arrives"):
        schedule_objective(trace, inst)


def test_render_table(fixtures):
    fx = fixtures["fig1b"]
    table = simulate(fx.instance, fx.schedule).render_table()
    assert table == """\
time  node 1  node 2  node 3
   0  G11,G12  G21,G22  -
   1  G12  G22,G11  -
   2  -  G22,G12  G21
   3  -  G22  G21,G11
   4  -  -  G21,G11,G12
   5  -  -  G21,G11,G12,G22"""


def test_render_table_fills_epochs_without_events():
    # G2 waits at node 4 through epoch 1 and G1, G3 sit at the facility
    # throughout; epochs 1, 3, 6, 7 and 10-12 have no departure or landing
    inst = gen_random(26, GenParams(nodes=4, groups=3, capacity=10,
                                    max_size=10, max_distance=6, facility=1))
    sched, _ = solve(inst)
    trace = simulate(inst, sched)
    assert sorted(trace.occupancy) == [0, 2, 4, 5, 8, 9, 13]
    assert trace.render_table() == """\
time  node 1  node 2  node 3  node 4
   0  G1,G3  -  -  G2
   1  G1,G3  -  -  G2
   2  G1,G3  -  -  -
   3  G1,G3  -  -  -
   4  G1,G3  -  G2  -
   5  G1,G3  -  -  -
   6  G1,G3  -  -  -
   7  G1,G3  -  -  -
   8  G1,G3  G2  -  -
   9  G1,G3  -  -  -
  10  G1,G3  -  -  -
  11  G1,G3  -  -  -
  12  G1,G3  -  -  -
  13  G1,G3,G2  -  -  -"""


def test_occupancy_at_holds_the_latest_snapshot(fixtures):
    inst = fixtures["fig1b"].instance
    trace = simulate(inst, Schedule(moves=(Move(5, 2, ("G21",)),)))
    assert sorted(trace.occupancy) == [0, 5, 6]
    assert trace.occupancy_at(-1) == {}
    assert trace.occupancy_at(4) == trace.occupancy[0]
    assert trace.occupancy_at(5) == {1: ("G11", "G12"), 2: ("G22",)}
    assert trace.occupancy_at(99) == {1: ("G11", "G12"), 2: ("G22",),
                                      3: ("G21",)}


def test_duplicate_group_in_one_move(fixtures):
    inst = fixtures["fig1b"].instance
    sched = Schedule(moves=(Move(1, 2, ("G21", "G21")),))
    trace, violations = _walk(inst, sched)
    assert violations == [
        "duplicate: group 'G21' twice in move at time 1, node 2"]
    assert trace.arrival_time == {"G21": 2}


def test_two_moves_at_one_time_and_node(fixtures):
    inst = fixtures["fig1b"].instance
    sched = Schedule(moves=(Move(1, 2, ("G21",)), Move(1, 2, ("G22",))))
    trace, violations = _walk(inst, sched)
    assert violations == ["duplicate: two moves at time 1, node 2"]
    assert trace.arrival_time == {"G21": 2}


def test_move_before_epoch_1(fixtures):
    inst = fixtures["fig1b"].instance
    sched = Schedule(moves=(Move(0, 2, ("G21",)), Move(-3, 1, ("G11",))))
    trace, violations = _walk(inst, sched)
    assert violations == ["time: move at time 0, node 2 before epoch 1",
                          "time: move at time -3, node 1 before epoch 1"]
    assert trace.arrival_time == {} and trace.horizon == 0
    assert validate_schedule(inst, sched)[:2] == violations
    with pytest.raises(SimulationInfeasible, match="time: move at time -3"):
        simulate(inst, Schedule(moves=(Move(-3, 2, ("G21",)),)))


# ---------------------------------------------------------------------------
# cost follows the number of moves, not epoch values

def test_validate_one_move_at_epoch_1e9(fixtures):
    inst = fixtures["fig1b"].instance
    sched = Schedule(moves=(Move(10 ** 9, 2, ("G21",)),))
    start = time.perf_counter()
    violations = validate_schedule(inst, sched)
    elapsed = time.perf_counter() - start
    assert violations == [
        f"completion: group {gid!r} never arrives at the facility"
        for gid in ("G11", "G12", "G22")]
    assert elapsed < 1.0


def test_solve_and_validate_bottleneck_distance_1e9():
    d = 10 ** 9
    inst = PathInstance(nodes=3, facility=3, capacity=4, distances=(2, d),
                        groups=(Group(id="a", node=1, size=3, weight=5),
                                Group(id="b", node=2, size=2, weight=1)))
    start = time.perf_counter()
    sched, objective = solve(inst)
    violations = validate_schedule(inst, sched)
    elapsed = time.perf_counter() - start
    assert violations == []
    # b crosses the bottleneck at epoch 1, a at epoch 3 (its ready time)
    assert objective == 1 * d + 5 * (d + 2)
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# properties

_instances = st.builds(
    lambda seed, nodes, groups, cap: gen_random(
        seed, GenParams(nodes=nodes, groups=groups, capacity=cap,
                        max_weight=9, max_distance=3)),
    seed=st.integers(min_value=0, max_value=2 ** 48),
    nodes=st.integers(min_value=1, max_value=6),
    groups=st.integers(min_value=0, max_value=7),
    cap=st.integers(min_value=1, max_value=8))


@settings(max_examples=150, deadline=None)
@given(inst=_instances)
def test_solver_output_feasible_and_decomposes(inst):
    report = solve_report(inst)
    assert validate_schedule(inst, report.schedule) == []
    assert report.objective == (report.side_objective("left")
                                + report.side_objective("right"))


@settings(max_examples=100, deadline=None)
@given(inst=_instances)
def test_occupancy_conservation(inst):
    sched, _ = solve(inst)
    trace = simulate(inst, sched)
    for t, occ in trace.occupancy.items():
        seen: set[str] = set()
        for ids in occ.values():
            for gid in ids:
                assert gid not in seen, f"{gid} at two nodes at epoch {t}"
                seen.add(gid)


@settings(max_examples=100, deadline=None)
@given(inst=_instances, data=st.data())
def test_delaying_a_suffix_stays_feasible(inst, data):
    sched, objective = solve(inst)
    if not sched.moves:
        return
    k = data.draw(st.integers(min_value=1, max_value=sched.horizon),
                  label="suffix start")
    shifted_map = {(t + 1 if t >= k else t, v): groups
                   for (t, v), groups in sched.as_map().items()}
    assert len(shifted_map) == len(sched.moves)
    shifted = Schedule.from_map(shifted_map)
    assert validate_schedule(inst, shifted) == []
    later = schedule_objective(simulate(inst, shifted), inst)
    assert later >= objective


# ---------------------------------------------------------------------------
# event-driven walk against the epoch-by-epoch reference

_CORRUPTIONS = ("drop", "shift", "merge", "late", "node", "group", "facility")


def _add(moves: dict, key: tuple[int, int], ids) -> None:
    here = moves.setdefault(key, [])
    here.extend(gid for gid in ids if gid not in here)


def _corrupt(inst: PathInstance, sched: Schedule, data) -> Schedule:
    """One to three corruptions of a solved schedule, never producing a
    duplicate (time, node) or a group named twice in one move."""
    moves = {k: list(ids) for k, ids in sched.as_map().items()}
    ids = [g.id for g in inst.groups] or ["ghost"]
    size = {g.id: g.size for g in inst.groups}
    draw = data.draw
    kinds = st.lists(st.sampled_from(_CORRUPTIONS), min_size=1, max_size=3)
    for kind in draw(kinds, label="corruptions"):
        keys = sorted(moves)
        if kind == "drop" and keys:
            del moves[draw(st.sampled_from(keys))]
        elif kind == "shift" and any(t > 1 for t, _v in keys):
            t, v = draw(st.sampled_from([k for k in keys if k[0] > 1]))
            _add(moves, (t - 1, v), moves.pop((t, v)))
        elif kind == "merge":
            # fold a later move into an earlier one from the same node
            # where the two together exceed the capacity
            pairs = [(k, j) for k in keys for j in keys
                     if k[1] == j[1] and k[0] < j[0]
                     and sum(size.get(g, 0) for g in moves[k] + moves[j])
                     > inst.capacity]
            if pairs:
                k, j = draw(st.sampled_from(pairs))
                _add(moves, k, moves.pop(j))
        elif kind == "late" and keys:
            t, v = draw(st.sampled_from(keys))
            late = t + draw(st.integers(min_value=1, max_value=1000))
            _add(moves, (late, v), moves.pop((t, v)))
        elif kind == "node":
            v = draw(st.sampled_from((0, inst.nodes + 1)))
            t = draw(st.integers(min_value=1, max_value=50))
            _add(moves, (t, v), [draw(st.sampled_from(ids))])
        elif kind == "group":
            key = draw(st.sampled_from(keys)) if keys else (1, 1)
            _add(moves, key, ["ghost"])
        elif kind == "facility":
            t = draw(st.integers(min_value=1, max_value=50))
            _add(moves, (t, inst.facility), [draw(st.sampled_from(ids))])
    return Schedule.from_map(moves)


_any_distance_instances = st.builds(
    lambda seed, nodes, groups, cap, dist: gen_random(
        seed, GenParams(nodes=nodes, groups=groups, capacity=cap,
                        max_weight=9, max_distance=dist)),
    seed=st.integers(min_value=0, max_value=2 ** 48),
    nodes=st.integers(min_value=2, max_value=6),
    groups=st.integers(min_value=1, max_value=7),
    cap=st.integers(min_value=1, max_value=8),
    dist=st.sampled_from((1, 3, 1000)))


@settings(max_examples=300, deadline=None)
@given(inst=_any_distance_instances, data=st.data())
def test_walk_matches_epoch_by_epoch_reference(inst, data):
    sched, _ = solve(inst)
    sched = _corrupt(inst, sched, data)
    trace, violations = _walk(inst, sched)
    ref_trace, ref_violations = ref_walk(inst, sched)
    assert violations == ref_violations
    assert trace.arrival_time == ref_trace.arrival_time
    assert trace.horizon == ref_trace.horizon
    assert set(trace.occupancy) <= set(ref_trace.occupancy)
    for t in range(ref_trace.horizon + 1):
        assert trace.occupancy_at(t) == ref_trace.occupancy[t]
