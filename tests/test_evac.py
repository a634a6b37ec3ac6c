import pytest
from hypothesis import given, settings, strategies as st

from pathevac import (GenParams, Group, NonUniformCapacityError, Packing,
                      PathInstance, Schedule, SimulationInfeasible,
                      assemble_schedule, fractional_lower_bound, gen_random,
                      reduce_side, schedule_objective, simulate, solve,
                      solve_report, validate_schedule)


# ---------------------------------------------------------------------------
# side reduction

def test_reduce_side_left(fixtures):
    inst = fixtures["fig1b"].instance
    pack_inst, red = reduce_side(inst, "left")
    assert red.near_node == 2
    assert red.bottleneck_edge == 2
    assert red.bottleneck_distance == 2
    assert red.prefix == {"G11": 1, "G12": 1, "G21": 0, "G22": 0}
    assert red.weight_sum == 16
    assert red.delay_cost == 16
    ready = {it.id: it.ready for it in pack_inst.items}
    assert ready == {"G11": 2, "G12": 2, "G21": 1, "G22": 1}
    sizes = {it.id: it.size for it in pack_inst.items}
    assert sizes == {"G11": 2, "G12": 2, "G21": 3, "G22": 3}


def test_reduce_side_empty(fixtures):
    inst = fixtures["fig1b"].instance
    pack_inst, red = reduce_side(inst, "right")
    assert pack_inst.items == ()
    assert red.is_empty
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
    assert report.right_reduction.is_empty
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
    assert trace.arrivals[(2, 3)] == ("G21",)


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
    lines = table.splitlines()
    assert lines[0].startswith("time")
    assert "node 1" in lines[0] and "node 3" in lines[0]
    assert any("-" in line for line in lines[1:])


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
