import gc
import time

import pytest
from hypothesis import given, settings, strategies as st

import ref_items
from checkers import (paired_view, pair_overflow_violations, replay_trace,
                      validate_packing)
from pathevac import (GenParams, PackingInstance, PackingItem,
                      eligibility_threshold, fractional_objective, gen_random,
                      gen_random_packing, PackParams, packing_objective,
                      reduced_ready_times, solve_fractional_greedy,
                      solve_greedy, solve_report)
from pathevac.model import Packing
from pathevac.packing import GreedyStep
from ref_items import packing_instance


def test_eligibility_threshold_is_odd_alignment():
    # odd ready times stay, even ones shift up by one
    assert [eligibility_threshold(r) for r in range(1, 9)] \
        == [1, 3, 3, 5, 5, 7, 7, 9]
    with pytest.raises(ValueError):
        eligibility_threshold(0)


def test_greedy_frozen_ratio_case(abd):
    packing, trace = solve_greedy(abd)
    assert packing.bins == {1: ("A",), 2: ("B", "D")}
    assert packing_objective(packing, abd) == 26
    assert validate_packing(packing, abd) == []
    # the close of bin 1 shows up in the trace
    rendered = trace.render()
    assert "close" in rendered and "place A" in rendered


def test_greedy_frozen_ready_jump(ready_pair):
    packing, trace = solve_greedy(ready_pair)
    assert packing.bins == {1: ("G2",), 3: ("G1",)}
    assert packing_objective(packing, ready_pair) == 10
    assert any(s.action == "jump" for s in trace.steps)


def test_greedy_empty_instance():
    inst = packing_instance(3, ())
    packing, trace = solve_greedy(inst)
    assert packing.bins == {} and trace.steps == ()
    assert packing_objective(packing, inst) == 0


def test_greedy_rejects_item_larger_than_capacity():
    # such an item fits no bin: placing it would close bins forever
    inst = packing_instance(2, (
        PackingItem(id="a", size=1, weight=1, ready=1),
        PackingItem(id="b", size=3, weight=1, ready=1)))
    start = time.perf_counter()
    with pytest.raises(ValueError, match="item 'b' of size 3 exceeds the "
                                         "bin capacity 2"):
        solve_greedy(inst)
    assert time.perf_counter() - start < 1.0


def test_greedy_rejects_a_ready_time_below_one():
    # a code-built instance skips the reader's checks; the greedy names
    # the best-ranked bad ready time, here b's (ratio 3) before c's
    inst = PackingInstance(3, ("a", "b", "c"), (1, 1, 1), (1, 3, 2),
                           (2, 0, -1))
    with pytest.raises(ValueError, match=r"^ready time must be >= 1, got 0$"):
        solve_greedy(inst)


def test_greedy_ratio_tie_breaks_by_instance_order():
    inst = packing_instance(2, (
        PackingItem(id="x", size=1, weight=1, ready=1),
        PackingItem(id="y", size=1, weight=1, ready=1),
        PackingItem(id="z", size=2, weight=2, ready=1),
    ))
    packing, _ = solve_greedy(inst)
    # all ratios equal: x then y fill bin 1, z follows
    assert packing.bins == {1: ("x", "y"), 2: ("z",)}


def test_trace_replay_reproduces_packing(abd, ready_pair):
    for inst in (abd, ready_pair):
        packing, trace = solve_greedy(inst)
        assert replay_trace(trace.steps, inst) == packing


@pytest.mark.parametrize("damage, message", [
    (lambda steps: (steps[0]._replace(item="zz"), *steps[1:]),
     "trace places unknown item 'zz'"),
    (lambda steps: (steps[0], *steps), "trace places 'A' twice"),
    (lambda steps: (steps[0]._replace(action="bogus"), *steps[1:]),
     "unknown trace action 'bogus'"),
    (lambda steps: steps[:1], "trace does not place every item"),
], ids=["unknown", "twice", "action", "unplaced"])
def test_trace_replay_rejects_a_damaged_trace(abd, damage, message):
    steps = solve_greedy(abd)[1].steps
    assert steps[0].item == "A"
    with pytest.raises(ValueError) as err:
        replay_trace(damage(steps), abd)
    assert str(err.value) == message


def _steps_alive() -> int:
    return sum(type(o) is GreedyStep for o in gc.get_objects())


def test_a_solve_records_no_step_until_its_trace_is_read():
    inst = gen_random(5, GenParams(nodes=12, groups=60, capacity=10,
                                   max_size=10, max_distance=3))
    gc.collect()
    before = _steps_alive()
    report = solve_report(inst)
    assert _steps_alive() == before
    for pinst, trace in ((report.left_instance, report.left_trace),
                         (report.right_instance, report.right_trace)):
        assert pinst.ids and trace.instance is pinst
        steps = trace.steps
        # the scan sees the steps it holds, and only those
        assert _steps_alive() == before + len(steps) > before
        # each read runs the greedy again, to the reference's steps
        assert trace.steps == steps == ref_items.solve_greedy(pinst)[1]
        del steps


def test_validate_packing_names_violations(abd):
    bad = Packing(bins={1: ("A", "B"), 2: ("A",), 3: ("Z",)})
    violations = validate_packing(bad, abd)
    text = "; ".join(violations)
    assert "capacity" in text        # A+B = 11 > 10
    assert "duplicate" in text       # A twice
    assert "unknown" in text         # Z
    assert "missing" in text         # D unassigned


def test_validate_packing_ready_time():
    inst = packing_instance(4, (
        PackingItem(id="G1", size=3, weight=3, ready=2),))
    violations = validate_packing(Packing(bins={1: ("G1",)}), inst)
    assert violations and "ready time" in violations[0]


def test_paired_view_frozen(abd):
    packing, _ = solve_greedy(abd)
    rows, paired = paired_view(packing, abd)
    assert len(rows) == 1
    assert rows[0].items == ("A", "B", "D")
    assert rows[0].size == 15 and rows[0].weight == 18
    assert paired == 18


def test_pair_overflow_flags_a_violating_packing(abd):
    # A alone in bin 1 and D in bin 2 total 9 <= 10
    bad = Packing(bins={1: ("A",), 2: ("D",), 3: ("B",)})
    assert pair_overflow_violations(bad, abd)


_pack_instances = st.builds(
    lambda seed, items, cap, ready: gen_random_packing(
        seed, PackParams(items=items, capacity=cap, max_ready=ready)),
    seed=st.integers(min_value=0, max_value=2 ** 48),
    items=st.integers(min_value=0, max_value=12),
    cap=st.integers(min_value=1, max_value=20),
    ready=st.integers(min_value=1, max_value=6))


@settings(max_examples=200, deadline=None)
@given(inst=_pack_instances)
def test_greedy_output_invariants(inst):
    packing, trace = solve_greedy(inst)
    # feasible, complete, deterministic, replayable
    assert validate_packing(packing, inst) == []
    assert solve_greedy(inst)[0] == packing
    assert replay_trace(trace.steps, inst) == packing
    # only occupied bins are stored, in ascending index order
    assert list(packing.bins) == sorted(packing.bins)
    assert all(packing.bins.values())
    # every item sits at or after its odd-aligned threshold
    bin_of = {i: j for j, bin_ in packing.bins.items() for i in bin_}
    for it in inst.items:
        assert bin_of[it.id] >= eligibility_threshold(it.ready) >= it.ready
    # consecutive pairs with a used even bin overflow the capacity
    assert pair_overflow_violations(packing, inst) == []


@settings(max_examples=100, deadline=None)
@given(inst=_pack_instances)
def test_paired_objective_brackets_greedy(inst):
    packing, _ = solve_greedy(inst)
    _rows, paired = paired_view(packing, inst)
    objective = packing_objective(packing, inst)
    assert paired <= objective <= 2 * paired or not inst.items


def test_greedy_and_bound_scale_to_20000_items():
    # the list-scanning greedy of tests/ref_greedy.py took 10.4 s here on
    # a 2-vCPU VM
    inst = gen_random_packing(2024, PackParams(
        items=20000, capacity=60, max_size=6, max_ready=2000))
    start = time.perf_counter()
    packing, _trace = solve_greedy(inst)
    greedy_s = time.perf_counter() - start
    start = time.perf_counter()
    reduced = reduced_ready_times(inst)
    lb = fractional_objective(solve_fractional_greedy(reduced), reduced)
    bound_s = time.perf_counter() - start
    assert greedy_s < 2.0 and bound_s < 2.0
    greedy = packing_objective(packing, inst)
    assert lb <= greedy <= 2 * lb
    assert pair_overflow_violations(packing, inst) == []
