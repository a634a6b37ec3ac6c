"""The pipeline leaves no reference cycles behind.

With the cyclic collector off, each run below must leave `gc.collect()`
nothing to free: everything it made is freed by reference counting alone.
That is the premise on which `cli.main` could run with the collector off
(ROADMAP item 7). The CLI's argument parser still makes cycles (a bare
`argparse.ArgumentParser()` already does), so it is not run here. A solve
also reads both sides' greedy steps and renders them, which runs the
greedy again with a recorder. The schedule reader runs on its fast path (validate) and through its fallback:
a reversed file, which it accepts, and a truncated one, which it rejects.
"""

import gc
import json

import pytest

from pathevac import (GenParams, InstanceError, PackParams, PathInstance,
                      exact_dwsf_opt, exact_fractional_opt_mcf,
                      fractional_lower_bound,
                      gen_random, gen_random_packing, parse_instance,
                      parse_schedule, render_table, serialize_instance,
                      serialize_schedule, solve_greedy, solve_report)
from pathevac.evac import check_schedule
from pathevac.oracles import OracleBudgetExceeded

_INST = gen_random(5, GenParams(nodes=12, groups=60, capacity=10,
                                max_size=10, max_distance=3))
_TEXT = serialize_instance(_INST)
_SCHEDULE = serialize_schedule(solve_report(_INST).schedule)
_REVERSED = json.dumps({"moves": json.loads(_SCHEDULE)["moves"][::-1]})
# the two budgets of the exact evacuation oracle, both run by its one
# state search: five groups on four nodes, and twelve groups on one node
# next to the facility
_SEARCH = gen_random(3, GenParams(nodes=4, groups=5, capacity=6,
                                  max_distance=2))
_SINGLE_ORIGIN = gen_random(4, GenParams(nodes=2, groups=12, capacity=20,
                                         facility=2))
# ready times up to 30 make the greedy jump
_PACKING = gen_random_packing(3, PackParams(items=40, max_ready=30))


def _solve():
    report = solve_report(parse_instance(_TEXT))
    serialize_schedule(report.schedule)
    for trace in (report.left_trace, report.right_trace):
        assert trace.steps
        trace.render()


def _validate():
    sched = parse_schedule(_SCHEDULE)
    trace, violations = check_schedule(_INST, sched)
    assert violations == []
    assert trace.horizon > 0
    # a header and one row per epoch, 0 to the horizon
    assert render_table(_INST, sched).count("\n") == trace.horizon + 1


def _bounds():
    fractional_lower_bound(_INST)
    fractional_lower_bound(_INST, reduced_tau=True)


def _trace():
    _, trace = solve_greedy(_PACKING)
    assert any(s.action == "jump" for s in trace.steps)
    trace.render()


def _rejected():
    try:
        parse_instance('{"nodes": 0, "edges": [], "groups": "x"}')
    except InstanceError:
        return
    raise AssertionError("the document was accepted")


def _reversed():
    assert parse_schedule(_REVERSED) == parse_schedule(_SCHEDULE)


def _truncated():
    try:
        parse_schedule('{"moves": [')
    except InstanceError:
        return
    raise AssertionError("the document was accepted")


def _flow():
    exact_fractional_opt_mcf(gen_random_packing(3, PackParams(items=8)))


def _search():
    exact_dwsf_opt(_SEARCH)


def _single_origin():
    exact_dwsf_opt(_SINGLE_ORIGIN)


def _assert_no_cycles(run):
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("run", [_solve, _validate, _bounds, _trace,
                                 _rejected, _reversed, _truncated, _flow,
                                 _search, _single_origin],
                         ids=["solve", "validate", "bounds", "trace",
                              "rejected", "reversed", "truncated", "flow",
                              "search", "single-origin"])
def test_leaves_no_cycles(run):
    _assert_no_cycles(run)


def test_an_oracle_over_budget_leaves_no_cycles(monkeypatch):
    # the state search raises its budget error from deep in its recursion;
    # an edge lookup that raises the same error on its fourth call, two
    # states down, stands in for a search too large to run here (the
    # search looks up seven edges on this instance)
    lookups = []
    capacity = PathInstance.edge_capacity

    def over_budget(inst, k):
        lookups.append(k)
        if len(lookups) > 3:
            raise OracleBudgetExceeded("state space over budget")
        return capacity(inst, k)

    monkeypatch.setattr(PathInstance, "edge_capacity", over_budget)

    def run():
        try:
            exact_dwsf_opt(_SEARCH)
        except OracleBudgetExceeded:
            return
        raise AssertionError("the search stayed within the budget")

    _assert_no_cycles(run)
