import dataclasses
import gc
import json
import time
from operator import attrgetter

import pytest
from hypothesis import Phase, given, settings, strategies as st

from checkers import pair_overflow_violations, validate_packing
from pathevac import (GenParams, Group, Move, NonUniformCapacityError,
                      Packing, PathInstance, Schedule, SimulationInfeasible,
                      assemble_schedule, fractional_lower_bound, gen_random,
                      parse_instance, parse_schedule, reduce_side,
                      render_table, schedule_objective, serialize_instance,
                      serialize_schedule, simulate, solve_report,
                      validate_schedule)
from pathevac.evac import _walk, check_schedule
from ref_items import path_instance
from ref_row_walk import ref_row_walk
from ref_walk import ref_walk, render


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
    objective = solve_report(inst).objective
    assert reduced <= plain <= objective <= 2 * reduced


def test_assemble_walks_routes_back(fixtures):
    inst = fixtures["fig1b"].instance
    packing = Packing(bins={1: ("G21",), 2: ("G22",), 3: ("G11",),
                            4: ("G12",)})
    sched = assemble_schedule(inst, packing, Packing(bins={}))
    assert [(m.time, m.node, m.groups) for m in sched.moves] == [
        (1, 2, ("G21",)),
        (2, 1, ("G11",)),
        (2, 2, ("G22",)),
        (3, 1, ("G12",)),
        (3, 2, ("G11",)),
        (4, 2, ("G12",)),
    ]


def test_assemble_moves_the_part_of_a_bin_that_has_reached_a_node():
    # right side of a facility at node 1; node 2 is the near node
    inst = path_instance(
        nodes=4, facility=1, capacity=10, distances=(1, 2, 1),
        groups=(Group("A", 4, 2, 1), Group("B", 3, 3, 1),
                Group("C", 4, 1, 1), Group("D", 2, 4, 1)))
    # bin 5 holds origins 3 (B) and 4 (A, C), in no origin order
    packing = Packing(bins={2: ("D",), 5: ("B", "A", "C")})
    sched = assemble_schedule(inst, Packing(bins={}), packing)
    assert [(m.time, m.node, m.groups) for m in sched.moves] == [
        (2, 2, ("D",)),
        (2, 4, ("A", "C")),
        (3, 3, ("B", "A", "C")),
        (5, 2, ("B", "A", "C")),
    ]
    assert validate_schedule(inst, sched) == []


def test_assemble_rejects_bin_before_ready(fixtures):
    inst = fixtures["fig1b"].instance
    # G11 sits one hop from the bottleneck; bin 1 would mean departing at 0
    packing = Packing(bins={1: ("G11",)})
    with pytest.raises(ValueError, match="cannot reach the bottleneck"):
        assemble_schedule(inst, packing, Packing(bins={}))


def test_assemble_rejects_unknown_group(fixtures):
    inst = fixtures["fig1b"].instance
    with pytest.raises(ValueError, match="unknown group"):
        assemble_schedule(inst, Packing(bins={1: ("ghost",)}),
                          Packing(bins={}))


# ---------------------------------------------------------------------------
# end-to-end solver

def test_solve_report_frozen(fixtures):
    inst = fixtures["fig1b"].instance
    report = solve_report(inst)
    assert report.left_packing.bins == {1: ("G21",), 2: ("G22",),
                                        3: ("G11",), 4: ("G12",)}
    assert report.right_instance.items == ()
    assert report.objective == 54
    assert report.side_objective("left") == 54
    assert report.side_objective("right") == 0
    assert validate_schedule(inst, report.schedule) == []


def test_solve_rejects_per_edge_capacities(fixtures):
    with pytest.raises(NonUniformCapacityError):
        solve_report(fixtures["fig1a"].instance)


def test_fractional_lower_bound_rejects_per_edge_capacities(fixtures):
    # the reduction assumes one capacity; on fig1a it would give 32, above
    # the objective 28 of the fixture's own feasible schedule
    with pytest.raises(NonUniformCapacityError, match="uniform"):
        fractional_lower_bound(fixtures["fig1a"].instance)


def test_solve_all_at_facility():
    inst = path_instance(nodes=1, facility=1, capacity=2, distances=(),
                         groups=(Group(id="g", node=1, size=1, weight=4),))
    report = solve_report(inst)
    sched, objective = report.schedule, report.objective
    assert sched.moves == ()
    assert objective == 0


def test_solve_rejects_group_larger_than_capacity():
    # parse_instance rejects this; an instance built in code reaches the
    # greedy, which must not close bins forever
    inst = path_instance(nodes=2, facility=2, capacity=2, distances=(1,),
                         groups=(Group(id="g", node=1, size=3, weight=1),))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="item 'g' of size 3 exceeds the "
                                         "bin capacity 2"):
        solve_report(inst)
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# simulation

def test_simulate_reference_schedule(fixtures):
    fx = fixtures["fig1b"]
    trace = simulate(fx.instance, fx.schedule)
    assert trace.arrival_time == dict(fx.arrival_times)
    assert schedule_objective(trace, fx.instance) == 52
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
    trace, checked = check_schedule(inst, Schedule(moves=()))
    assert checked == violations
    assert trace.arrival_time == {} and trace.horizon == 0


def test_objective_requires_arrival(fixtures):
    inst = fixtures["fig1b"].instance
    trace = simulate(inst, Schedule(moves=()))
    with pytest.raises(ValueError, match="never arrives") as err:
        schedule_objective(trace, inst)
    # the first group in instance order that never arrives is named
    assert str(err.value) == (f"group {inst.ids[0]!r} never arrives at "
                              "the facility")


def test_render_table(fixtures):
    fx = fixtures["fig1b"]
    table = render_table(fx.instance, fx.schedule)
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
    sched = solve_report(inst).schedule
    assert render_table(inst, sched) == """\
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


def test_render_table_holds_rows_between_events(fixtures):
    # one move at epoch 5: rows 0-4 repeat the start state, G21 leaves
    # node 2 in row 5 and lands on node 3 in row 6
    inst = fixtures["fig1b"].instance
    sched = Schedule(moves=(Move(5, 2, ("G21",)),))
    assert render_table(inst, sched) == """\
time  node 1  node 2  node 3
   0  G11,G12  G21,G22  -
   1  G11,G12  G21,G22  -
   2  G11,G12  G21,G22  -
   3  G11,G12  G21,G22  -
   4  G11,G12  G21,G22  -
   5  G11,G12  G22  -
   6  G11,G12  G22  G21"""


def test_duplicate_group_in_one_move(fixtures):
    inst = fixtures["fig1b"].instance
    sched = Schedule(moves=(Move(1, 2, ("G21", "G21")),))
    trace, violations = _walk(inst, sched)
    assert violations == [
        "duplicate: group 'G21' twice in move at time 1, node 2"]
    assert trace.arrival_time == {"G21": 2}


# ---------------------------------------------------------------------------
# moves naming one group, which take the walk's short branch off the
# facility, each against the walk they replaced

def _same_as_row_walk(inst: PathInstance, sched: Schedule):
    """The walk's trace, violations and departure log, required equal to
    those of `ref_row_walk`."""
    deps: list = []
    trace, violations = _walk(inst, sched, deps.append)
    ref_deps: list = []
    ref_trace, ref_violations = ref_row_walk(inst, sched, ref_deps.append)
    assert violations == ref_violations
    assert trace.arrival_time == ref_trace.arrival_time
    assert trace.horizon == ref_trace.horizon
    assert deps == ref_deps
    return trace, violations, deps


def test_one_group_unknown_id(fixtures):
    inst = fixtures["fig1b"].instance
    sched = Schedule(moves=(Move(1, 1, ("ghost",)), Move(2, 2, ("G21",))))
    trace, violations, deps = _same_as_row_walk(inst, sched)
    assert violations == ["unknown: group 'ghost' in move at time 1, node 1"]
    assert trace.arrival_time == {"G21": 3} and trace.horizon == 3


def test_one_group_not_at_the_node(fixtures):
    inst = fixtures["fig1b"].instance
    sched = Schedule(moves=(Move(1, 1, ("G21",)),))
    trace, violations, deps = _same_as_row_walk(inst, sched)
    assert violations == ["presence: group 'G21' not at node 1 at time 1"]
    assert deps == [] and trace.arrival_time == {} and trace.horizon == 1


def test_one_group_in_transit_on_a_long_edge():
    # g lands on node 2 at epoch 3 and may leave it from epoch 4 on
    inst = path_instance(nodes=3, facility=3, capacity=3, distances=(3, 1),
                         groups=(Group(id="g", node=1, size=1, weight=1),))
    sched = Schedule(moves=(Move(1, 1, ("g",)), Move(3, 2, ("g",)),
                            Move(4, 2, ("g",))))
    trace, violations, deps = _same_as_row_walk(inst, sched)
    assert violations == ["presence: group 'g' not at node 2 at time 3"]
    assert deps == [(1, 1, ("g",), 3, 2), (4, 2, ("g",), 4, 3)]
    assert trace.arrival_time == {"g": 4} and trace.horizon == 4


def test_one_group_at_the_facility(fixtures):
    inst = fixtures["fig1b"].instance
    sched = Schedule(moves=(Move(1, 3, ("G21",)),))
    trace, violations, deps = _same_as_row_walk(inst, sched)
    assert violations == ["direction: move at the facility node 3 at time 1"]
    assert deps == [] and trace.horizon == 1


def test_one_group_off_the_path(fixtures):
    inst = fixtures["fig1b"].instance
    sched = Schedule(moves=(Move(1, 0, ("G21",)), Move(1, 4, ("G21",))))
    trace, violations, deps = _same_as_row_walk(inst, sched)
    assert violations == ["unknown: node 0 outside the path (move at time 1)",
                          "unknown: node 4 outside the path (move at time 1)"]
    assert deps == [] and trace.horizon == 0


def test_one_group_before_epoch_1(fixtures):
    inst = fixtures["fig1b"].instance
    sched = Schedule(moves=(Move(0, 2, ("G21",)), Move(1, 2, ("G21",))))
    trace, violations, deps = _same_as_row_walk(inst, sched)
    assert violations == ["time: move at time 0, node 2 before epoch 1"]
    assert trace.arrival_time == {"G21": 2}


def test_one_group_wider_than_an_overridden_edge():
    # `parse_instance` rejects a group larger than an edge on its route, so
    # the instance is built in code: edge {2,3} carries 2, g has size 3
    inst = path_instance(nodes=3, facility=3, capacity=4, distances=(1, 1),
                         groups=(Group(id="g", node=1, size=3, weight=1),),
                         edge_capacities=(4, 2))
    sched = Schedule(moves=(Move(1, 1, ("g",)), Move(2, 2, ("g",))))
    trace, violations, deps = _same_as_row_walk(inst, sched)
    assert violations == ["capacity: departure from node 2 at time 2 "
                          "carries size 3 > capacity 2"]
    assert trace.arrival_time == {"g": 2}


def test_one_group_departure_and_landing_sink_entries(fixtures):
    # G11 crosses the distance-1 edge, then lands on the facility one epoch
    # after leaving node 2 over the distance-2 edge; each entry carries the
    # row's own ids tuple
    inst = fixtures["fig1b"].instance
    sched = Schedule(moves=(Move(1, 1, ("G11",)), Move(2, 2, ("G11",))))
    trace, violations, deps = _same_as_row_walk(inst, sched)
    assert deps == [(1, 1, ("G11",), 1, 2), (2, 2, ("G11",), 3, 3)]
    assert all(dep[2] is ids for dep, (_t, _v, ids) in zip(deps, sched.rows))
    assert trace.arrival_time == {"G11": 3} and trace.horizon == 3
    assert violations == []


def test_two_moves_at_one_time_and_node():
    # a Schedule holds one move per (time, node), so no walk meets two
    with pytest.raises(ValueError, match="move at time 1, node 2 follows "
                                         "the move at time 1, node 2"):
        Schedule(moves=(Move(1, 2, ("G21",)), Move(1, 2, ("G22",))))


def _lines(table: str) -> list[str]:
    """A table as its rows: on a mismatch pytest names the first row that
    differs at once, where its diff of two long-edge tables as strings ran
    for minutes."""
    return table.splitlines()


def test_departure_log_matches_row_walk_reference(fixtures):
    # edges up to 1000 epochs long, so landings trail their departures
    long_edge = gen_random(5, GenParams(nodes=4, groups=20, capacity=10,
                                        max_size=10, max_distance=1000,
                                        facility=1))
    fx = fixtures["fig1b"]
    for inst, sched in ((fx.instance, fx.schedule),
                        (long_edge, solve_report(long_edge).schedule)):
        _same_as_row_walk(inst, sched)
        assert _lines(render_table(inst, sched)) \
            == _lines(render(ref_walk(inst, sched)[0]))


def test_out_of_order_violations_keep_their_order(fixtures):
    # the checks of a move on its own (off the path, before epoch 1, an
    # unknown or doubled id) are reported first, then presence, direction
    # and capacity, each in (time, node) order
    inst = fixtures["fig1b"].instance
    sched = Schedule(moves=(
        Move(0, 1, ("G12",)),
        Move(1, 1, ("G11",)),
        Move(1, 2, ("G21", "ghost", "G21")),
        Move(1, 9, ("G21",)),
        Move(2, 2, ("G11",)),
        Move(3, 1, ("G22",)),
        Move(3, 3, ("G21",)),
        Move(4, 1, ("G12",)),
        Move(5, 2, ("G12", "G22")),
    ))
    trace, violations, _deps = _same_as_row_walk(inst, sched)
    assert violations == [
        "time: move at time 0, node 1 before epoch 1",
        "unknown: group 'ghost' in move at time 1, node 2",
        "duplicate: group 'G21' twice in move at time 1, node 2",
        "unknown: node 9 outside the path (move at time 1)",
        "presence: group 'G22' not at node 1 at time 3",
        "direction: move at the facility node 3 at time 3",
        "capacity: departure from node 2 at time 5 carries size 5 > "
        "capacity 3",
    ]
    assert trace.arrival_time == {"G21": 2, "G11": 3, "G12": 6, "G22": 6}
    assert trace.horizon == 6


def test_move_before_epoch_1(fixtures):
    inst = fixtures["fig1b"].instance
    sched = Schedule(moves=(Move(-3, 1, ("G11",)), Move(0, 2, ("G21",))))
    trace, violations = _walk(inst, sched)
    assert violations == ["time: move at time -3, node 1 before epoch 1",
                          "time: move at time 0, node 2 before epoch 1"]
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
    inst = path_instance(nodes=3, facility=3, capacity=4, distances=(2, d),
                         groups=(Group(id="a", node=1, size=3, weight=5),
                                 Group(id="b", node=2, size=2, weight=1)))
    start = time.perf_counter()
    report = solve_report(inst)
    sched, objective = report.schedule, report.objective
    violations = validate_schedule(inst, sched)
    elapsed = time.perf_counter() - start
    assert violations == []
    # b crosses the bottleneck at epoch 1, a at epoch 3 (its ready time)
    assert objective == 1 * d + 5 * (d + 2)
    assert elapsed < 1.0


def test_solve_validate_certify_non_bottleneck_distance_1e9():
    # a reaches the bottleneck at epoch d + 1, so its bin index is d + 1;
    # only the two occupied bins are stored
    d = 10 ** 9
    inst = path_instance(nodes=3, facility=3, capacity=4, distances=(d, 1),
                         groups=(Group(id="a", node=1, size=3, weight=5),
                                 Group(id="b", node=2, size=2, weight=1)))
    start = time.perf_counter()
    report = solve_report(inst)
    violations = validate_schedule(inst, report.schedule)
    bound = fractional_lower_bound(inst, True)
    assert time.perf_counter() - start < 1.0
    assert violations == []
    assert report.left_packing.bins == {1: ("b",), d + 1: ("a",)}
    assert report.objective == 1 * 1 + 5 * (d + 1)
    # a's ready time d + 1 reduces to pair index d // 2 + 1
    assert bound == 1 * 1 + 5 * (d // 2 + 1)
    assert bound <= report.objective <= 2 * bound


def _sprawl_instance() -> PathInstance:
    """The seed-7 `sprawl` shape: 600 groups on 100 nodes, 10,728 moves."""
    return gen_random(7, GenParams(nodes=100, groups=600, capacity=10,
                                   max_size=10, max_weight=20,
                                   max_distance=3, facility=50))


def test_walks_keep_nothing_per_move():
    # with the collector off, the two walks leave only what they return,
    # where a departure log left a tuple per departure
    inst = _sprawl_instance()
    sched = solve_report(inst).schedule
    assert len(sched.rows) == 10728
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        kept = (check_schedule(inst, sched), simulate(inst, sched))
        left = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert kept[0][1] == []
    assert left < len(inst.groups)


def test_schedules_keep_no_tracked_object_per_move():
    # a collector pass stops tracking a row of ints and a tuple of strs once
    # it finds the tuple untracked, where a slotted `Move` stays tracked: a
    # schedule read or assembled keeps fewer tracked objects than it has
    # moves (the rows made since the last automatic pass may need a second
    # pass, so a few hundred can stay tracked)
    inst = _sprawl_instance()
    report = solve_report(inst)
    text = serialize_schedule(report.schedule)
    for build in (lambda: parse_schedule(text),
                  lambda: assemble_schedule(inst, report.left_packing,
                                            report.right_packing)):
        gc.collect()
        before = len(gc.get_objects())
        sched = build()
        gc.collect()
        kept = len(gc.get_objects()) - before
        assert len(sched.rows) == 10728
        assert kept < len(sched.rows)


def test_solve_and_validate_build_no_move(monkeypatch):
    # `solve --output` and `validate`, the file in order and reversed, so
    # the reader's decoder and its per-entry pass both run
    built = []
    init = Move.__init__
    monkeypatch.setattr(Move, "__init__",
                        lambda self, *args: built.append(args) or
                        init(self, *args))
    text = serialize_instance(_sprawl_instance())
    inst = parse_instance(text)
    report = solve_report(inst)
    schedule = serialize_schedule(report.schedule)
    doc = json.loads(schedule)
    doc["moves"].reverse()
    for written in (schedule, json.dumps(doc)):
        sched = parse_schedule(written)
        assert check_schedule(inst, sched)[1] == []
        assert schedule_objective(simulate(inst, sched), inst) \
            == report.objective
    assert built == []
    # the `Move` view still builds one per move when it is read
    assert len(report.schedule.moves) == len(built) == 10728


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
    trace, violations = check_schedule(inst, report.schedule)
    assert violations == []
    assert schedule_objective(trace, inst) == report.objective \
        == report.side_objective("left") + report.side_objective("right")


@settings(max_examples=100, deadline=None)
@given(inst=_instances)
def test_occupancy_conservation(inst):
    sched = solve_report(inst).schedule
    rows = render_table(inst, sched).splitlines()[1:]
    for row in rows:
        t, *cells = row.split()
        ids = [gid for cell in cells if cell != "-"
               for gid in cell.split(",")]
        assert len(ids) == len(set(ids)), f"a group at two nodes at epoch {t}"


@settings(max_examples=100, deadline=None)
@given(inst=_instances, data=st.data())
def test_delaying_a_suffix_stays_feasible(inst, data):
    report = solve_report(inst)
    sched, objective = report.schedule, report.objective
    if not sched.moves:
        return
    last = max(m.time for m in sched.moves)
    k = data.draw(st.integers(min_value=1, max_value=last),
                  label="suffix start")
    shifted_map = {(m.time + 1 if m.time >= k else m.time, m.node): m.groups
                   for m in sched.moves}
    assert len(shifted_map) == len(sched.moves)
    shifted = Schedule.from_map(shifted_map)
    assert validate_schedule(inst, shifted) == []
    later = schedule_objective(simulate(inst, shifted), inst)
    assert later >= objective


# ---------------------------------------------------------------------------
# scale: solve_report prices without walking, so the walk here is the check

_SCALE_SHAPES = {
    "dense": GenParams(nodes=5, groups=10_000, capacity=60, max_size=6,
                       max_weight=20, facility=3),
    "facility-at-1": GenParams(nodes=5, groups=10_000, capacity=10,
                               max_weight=20, max_distance=3, facility=1),
    # seed 11 draws facility 4: groups on both sides and at the facility
    "drawn-facility": GenParams(nodes=6, groups=10_000, capacity=6,
                                max_weight=20, max_distance=3),
}


@pytest.mark.parametrize("shape", sorted(_SCALE_SHAPES))
def test_solve_at_ten_thousand_groups(shape):
    inst = gen_random(11, _SCALE_SHAPES[shape])
    report = solve_report(inst)
    trace, violations = check_schedule(inst, report.schedule)
    assert violations == []
    assert schedule_objective(trace, inst) == report.objective
    for packing, pinst in ((report.left_packing, report.left_instance),
                           (report.right_packing, report.right_instance)):
        assert pair_overflow_violations(packing, pinst) == []
        assert validate_packing(packing, pinst) == []
    lb = fractional_lower_bound(inst, True)
    assert lb <= report.objective <= 2 * lb
    if shape == "drawn-facility":
        assert 1 < inst.facility < inst.nodes
        assert any(g.node == inst.facility for g in inst.groups)


# ---------------------------------------------------------------------------
# the walk against its two references, on solved schedules corrupted and
# damaged in code: the epoch-by-epoch walk, and its predecessor, which
# worked out every move's hop and ran the per-id loop on every move

_CORRUPTIONS = ("drop", "shift", "merge", "late", "node", "group", "facility")


def _add(moves: dict, key: tuple[int, int], ids) -> None:
    here = moves.setdefault(key, [])
    here.extend(gid for gid in ids if gid not in here)


def _corrupt(inst: PathInstance, sched: Schedule, data) -> Schedule:
    """One to three corruptions of a solved schedule, never producing a
    duplicate (time, node) or a group named twice in one move."""
    moves = {(m.time, m.node): list(m.groups) for m in sched.moves}
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


_DAMAGE = ("key", "twice", "early", "off", "ghost", "facility", "empty")


def _damage(inst: PathInstance, sched: Schedule, data) -> Schedule:
    """Zero to four kinds of damage that `Schedule.from_map` never gives (a
    group named twice in one move, a move before epoch 1, off the path,
    naming no group) or that `_corrupt` gives only in one-id moves, the
    moves then put in (time, node) order. A repeated (time, node), the
    `key` damage, must make `Schedule` raise; the first move of the key
    is kept."""
    moves = list(sched.moves)
    ids = [g.id for g in inst.groups]
    draw = data.draw
    some_id = st.sampled_from(ids + ["ghost"])
    epoch = st.integers(min_value=1, max_value=60)
    for kind in draw(st.lists(st.sampled_from(_DAMAGE), max_size=4),
                     label="damage"):
        if kind == "key" and moves:
            m = draw(st.sampled_from(moves))
            moves.append(Move(m.time, m.node, (draw(some_id),)))
        elif kind == "twice" and moves:
            k = draw(st.integers(min_value=0, max_value=len(moves) - 1))
            m = moves[k]
            gid = draw(st.sampled_from(m.groups or ("ghost",)))
            moves[k] = Move(m.time, m.node, (*m.groups, gid))
        elif kind == "early":
            moves.append(Move(draw(st.integers(min_value=-3, max_value=0)),
                              draw(st.integers(min_value=1,
                                               max_value=inst.nodes)),
                              (draw(some_id),)))
        elif kind == "off":
            v = draw(st.sampled_from((-1, 0, inst.nodes + 1)))
            moves.append(Move(draw(epoch), v, (draw(some_id),)))
        elif kind == "ghost":
            ghosts = draw(st.lists(st.sampled_from(("ghost", "spook")),
                                   min_size=1, max_size=2))
            moves.append(Move(draw(epoch), draw(st.integers(
                min_value=1, max_value=inst.nodes)),
                (*draw(st.lists(some_id, max_size=2)), *ghosts)))
        elif kind == "facility":
            moves.append(Move(draw(epoch), inst.facility,
                              tuple(draw(st.lists(some_id, min_size=1,
                                                  max_size=3)))))
        elif kind == "empty":
            moves.append(Move(draw(epoch), draw(st.integers(
                min_value=1, max_value=inst.nodes)), ()))
    moves.sort(key=attrgetter("time", "node"))
    first: dict[tuple[int, int], Move] = {}
    for m in moves:
        first.setdefault((m.time, m.node), m)
    if len(first) < len(moves):
        with pytest.raises(ValueError, match="must strictly ascend"):
            Schedule(moves=tuple(moves))
    return Schedule(moves=tuple(first.values()))


def _walkable(sched: Schedule) -> Schedule:
    """The schedule without its moves before epoch 1 and with the repeated
    ids of each move dropped, which `ref_walk` mishandles. The walk skips
    the first and ignores the second, and neither sets the horizon."""
    return Schedule.from_rows([(t, v, tuple(dict.fromkeys(ids)))
                               for t, v, ids in sched.rows if t >= 1])


_any_distance_instances = st.builds(
    lambda seed, nodes, groups, cap, dist: gen_random(
        seed, GenParams(nodes=nodes, groups=groups, capacity=cap,
                        max_weight=9, max_distance=dist)),
    seed=st.integers(min_value=0, max_value=2 ** 48),
    nodes=st.integers(min_value=2, max_value=6),
    groups=st.integers(min_value=1, max_value=7),
    cap=st.integers(min_value=1, max_value=8),
    dist=st.sampled_from((1, 3, 1000)))


def _with_edge_capacities(inst: PathInstance, data) -> PathInstance:
    """The instance with per-edge capacities drawn around its uniform one:
    the solver needs the uniform capacity, the walk checks each edge's."""
    caps = data.draw(st.lists(
        st.integers(min_value=1, max_value=inst.capacity + 2),
        min_size=inst.nodes - 1, max_size=inst.nodes - 1),
        label="edge capacities")
    return dataclasses.replace(inst, edge_capacities=tuple(caps))


# Shrinking reruns both walks on every candidate, and `ref_walk` steps
# through every epoch of the distance-1000 instances: a failure took minutes
# to report with shrinking on. The unshrunk counterexample is printed all
# the same.
_NO_SHRINK = tuple(p for p in Phase if p is not Phase.shrink)


@settings(max_examples=300, deadline=None, phases=_NO_SHRINK)
@given(inst=_any_distance_instances, data=st.data())
def test_walk_matches_epoch_by_epoch_reference(inst, data):
    sched = solve_report(inst).schedule
    sched = _damage(inst, _corrupt(inst, sched, data), data)
    inst = _with_edge_capacities(inst, data)
    walkable = _walkable(sched)
    trace, violations = _walk(inst, walkable)
    ref_trace, ref_violations = ref_walk(inst, walkable)
    assert violations == ref_violations
    assert trace.arrival_time == ref_trace.arrival_time
    assert trace.horizon == ref_trace.horizon
    assert _lines(render_table(inst, sched)) == _lines(render(ref_trace))


@settings(max_examples=300, deadline=None)
@given(inst=_any_distance_instances, data=st.data())
def test_walk_matches_row_walk_reference(inst, data):
    sched = solve_report(inst).schedule
    sched = _damage(inst, _corrupt(inst, sched, data), data)
    inst = _with_edge_capacities(inst, data)
    _same_as_row_walk(inst, sched)
