"""The pipeline leaves no reference cycles behind.

With the cyclic collector off, each run below must leave `gc.collect()`
nothing to free: everything it made is freed by reference counting alone.
That is the premise on which `cli.main` could run with the collector off
(ROADMAP item 7). The CLI's argument parser and `exact_dwsf_opt`'s
recursive closures still make cycles, so they are not run here.
"""

import gc

import pytest

from pathevac import (GenParams, InstanceError, PackParams,
                      exact_fractional_opt_mcf, fractional_lower_bound,
                      gen_random, gen_random_packing, parse_instance,
                      parse_schedule, serialize_instance, serialize_schedule,
                      solve_greedy, solve_report)
from pathevac.evac import check_schedule

_INST = gen_random(5, GenParams(nodes=12, groups=60, capacity=10,
                                max_size=10, max_distance=3))
_TEXT = serialize_instance(_INST)
_SCHEDULE = serialize_schedule(solve_report(_INST).schedule)
# ready times up to 30 make the greedy jump
_PACKING = gen_random_packing(3, PackParams(items=40, max_ready=30))


def _solve():
    serialize_schedule(solve_report(parse_instance(_TEXT)).schedule)


def _validate():
    trace, violations = check_schedule(_INST, parse_schedule(_SCHEDULE))
    assert violations == []
    trace.render_table()


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


def _flow():
    exact_fractional_opt_mcf(gen_random_packing(3, PackParams(items=8)))


@pytest.mark.parametrize("run", [_solve, _validate, _bounds, _trace,
                                 _rejected, _flow],
                         ids=["solve", "validate", "bounds", "trace",
                              "rejected", "flow"])
def test_leaves_no_cycles(run):
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
