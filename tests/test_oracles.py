import ast
import dataclasses
import inspect
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ref_state_search
from brute import brute_packing_opt
from checkers import validate_packing
from pathevac import (GenParams, Group, OracleBudgetExceeded, PackParams,
                      PackingInstance, PackingItem,
                      exact_dwsf_opt, exact_fractional_opt_mcf,
                      exact_packing_opt, fractional_bound,
                      fractional_objective, gen_from_partition, gen_random,
                      gen_random_packing, horizon_bound, packing_objective,
                      schedule_objective, simulate, solve_fractional_greedy,
                      solve_greedy, solve_report, validate_schedule)
from pathevac import oracles
from ref_items import packing_instance, path_instance


def test_oracles_import_nothing_from_the_solvers():
    # the oracles certify the greedy solvers, so they share no code with
    # them: within the package, they read the data model and the exact DP
    tree = ast.parse(inspect.getsource(oracles))
    local = {alias.name if node.module is None else node.module
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names}
    assert local == {"kernels", "model"}


# ---------------------------------------------------------------------------
# packing oracle

def test_horizon_bound(abd, ready_pair):
    assert horizon_bound(packing_instance(3, ())) == 0
    assert horizon_bound(abd) == 4
    assert horizon_bound(ready_pair) == 4


def test_packing_opt_frozen(abd):
    value, witness = exact_packing_opt(abd)
    assert value == 24
    assert witness.bins == {1: ("A", "D"), 2: ("B",)}
    assert validate_packing(witness, abd) == []
    assert packing_objective(witness, abd) == 24


def test_packing_opt_singleton_bins():
    # no two of 3, 3, 2 share a bin of 4; heaviest-first is forced
    inst = packing_instance(4, (
        PackingItem(id="a", size=3, weight=3, ready=1),
        PackingItem(id="b", size=3, weight=3, ready=1),
        PackingItem(id="c", size=2, weight=2, ready=1)))
    value, witness = exact_packing_opt(inst)
    assert value == 15
    assert all(len(b) == 1 for b in witness.bins.values())


def test_packing_opt_empty():
    value, witness = exact_packing_opt(packing_instance(1, ()))
    assert (value, witness.bins) == (0, {})


def test_packing_opt_budgets():
    wide = packing_instance(2, tuple(
        PackingItem(id=f"i{k}", size=1, weight=1, ready=1)
        for k in range(16)))
    with pytest.raises(OracleBudgetExceeded, match="15-item"):
        exact_packing_opt(wide)
    # horizon_bound = 65 + 1 bins
    late = packing_instance(1, (
        PackingItem(id="late", size=1, weight=1, ready=65),))
    with pytest.raises(OracleBudgetExceeded, match="horizon 66 exceeds the "
                                                   "64-bin"):
        exact_packing_opt(late)


_micro = st.builds(
    lambda seed, items, cap: gen_random_packing(
        seed, PackParams(items=items, capacity=cap, max_ready=3)),
    seed=st.integers(min_value=0, max_value=2 ** 48),
    items=st.integers(min_value=1, max_value=4),
    cap=st.integers(min_value=1, max_value=6))


@settings(max_examples=120, deadline=None)
@given(inst=_micro)
def test_packing_opt_matches_brute_force(inst):
    value, witness = exact_packing_opt(inst)
    assert validate_packing(witness, inst) == []
    assert packing_objective(witness, inst) == value
    assert brute_packing_opt(inst, horizon_bound(inst)) == value


# ---------------------------------------------------------------------------
# evacuation oracle

def test_dwsf_opt_frozen(fixtures):
    inst = fixtures["fig1b"].instance
    value, witness = exact_dwsf_opt(inst)
    assert value == 52
    assert validate_schedule(inst, witness) == []
    assert schedule_objective(simulate(inst, witness), inst) == 52


def test_dwsf_opt_right_side_long_edge():
    inst = path_instance(nodes=2, facility=1, capacity=2, distances=(3,),
                         groups=(Group(id="g1", node=2, size=1, weight=2),
                                 Group(id="g2", node=2, size=2, weight=1)))
    value, witness = exact_dwsf_opt(inst)
    assert value == 10
    assert [(m.time, m.node, m.groups) for m in witness.moves] == [
        (1, 2, ("g1",)), (2, 2, ("g2",))]


def test_dwsf_opt_all_at_facility():
    inst = path_instance(nodes=2, facility=1, capacity=1, distances=(1,),
                         groups=(Group(id="g", node=1, size=1, weight=9),))
    value, witness = exact_dwsf_opt(inst)
    assert value == 0
    assert witness.moves == ()


def test_dwsf_opt_budgets():
    crowd = path_instance(nodes=2, facility=2, capacity=1, distances=(1,),
                          groups=tuple(Group(id=f"g{k}", node=1, size=1,
                                             weight=1) for k in range(13)))
    with pytest.raises(OracleBudgetExceeded, match="single-origin"):
        exact_dwsf_opt(crowd)
    spread = path_instance(nodes=3, facility=3, capacity=1, distances=(1, 1),
                           groups=tuple(Group(id=f"g{k}", node=1 + k % 2,
                                              size=1, weight=1)
                                        for k in range(6)))
    with pytest.raises(OracleBudgetExceeded, match="5-group"):
        exact_dwsf_opt(spread)
    far = path_instance(nodes=4, facility=4, capacity=1, distances=(5, 5, 5),
                        groups=(Group(id="g", node=1, size=1, weight=1),))
    with pytest.raises(OracleBudgetExceeded, match="12-epoch"):
        exact_dwsf_opt(far)


def _assert_exact(inst, ref_value):
    value, witness = exact_dwsf_opt(inst)
    assert value == ref_value
    assert validate_schedule(inst, witness) == []
    assert schedule_objective(simulate(inst, witness), inst) == value


def test_state_search_matches_the_reference_searches():
    # the one search against the two it replaced: the unpruned state search
    # on several nodes, the single-origin mask search on one
    rng = random.Random(25)
    two_sided = drawn = 0
    for seed in range(400):
        nodes = rng.randint(2, 4)
        # groups on both sides need a facility inside the path
        facility = rng.randint(2, nodes - 1) if nodes > 2 and seed % 4 < 2 \
            else None
        inst = gen_random(seed, GenParams(
            nodes=nodes, groups=rng.randint(1, 5),
            capacity=rng.randint(2, 6), max_weight=9,
            max_distance=rng.randint(1, 3), facility=facility))
        if seed % 2:
            largest = max(g.size for g in inst.groups)
            inst = dataclasses.replace(inst, edge_capacities=tuple(
                rng.randint(largest, largest + 3) for _ in inst.distances))
        off = [g for g in inst.groups if g.node != inst.facility]
        two_sided += len({g.node < inst.facility for g in off}) == 2
        drawn += not inst.is_uniform
        _assert_exact(inst, ref_state_search._state_search(inst, off)[0])
    assert two_sided > 80 and drawn > 150
    for seed in range(120):
        nodes = rng.randint(2, 3)
        facility = rng.choice((1, nodes)) if nodes == 2 else 2
        origin = rng.choice([v for v in (facility - 1, facility + 1)
                             if 1 <= v <= nodes])
        capacity = rng.randint(2, 9)
        inst = path_instance(
            nodes=nodes, facility=facility, capacity=capacity,
            distances=tuple(rng.randint(1, 3) for _ in range(nodes - 1)),
            groups=tuple(Group(id=f"g{k}", node=origin,
                               size=rng.randint(1, capacity),
                               weight=rng.randint(1, 9))
                         for k in range(1 + seed % 12)))
        _assert_exact(inst, ref_state_search._single_origin_opt(
            inst, list(inst.groups))[0])


@pytest.mark.parametrize("inst", [
    # one origin next to the facility; g1 never fits its edge
    path_instance(nodes=2, facility=2, capacity=2, distances=(1,),
                  groups=(Group(id="g1", node=1, size=3, weight=1),
                          Group(id="g2", node=1, size=1, weight=1))),
    # g1 crosses edge 1 and then never fits edge 2
    path_instance(nodes=3, facility=3, capacity=3, distances=(1, 2),
                  edge_capacities=(3, 1),
                  groups=(Group(id="g1", node=1, size=2, weight=1),
                          Group(id="g2", node=2, size=1, weight=1))),
], ids=["single-origin", "state-search"])
def test_dwsf_opt_rejects_a_group_larger_than_its_edge(inst):
    with pytest.raises(ValueError, match="no feasible departure from a "
                                         "blocked state"):
        exact_dwsf_opt(inst)


_evac_micro = st.builds(
    lambda seed, nodes, groups, cap: gen_random(
        seed, GenParams(nodes=nodes, groups=groups, capacity=cap,
                        max_weight=9, max_distance=2)),
    seed=st.integers(min_value=0, max_value=2 ** 48),
    nodes=st.integers(min_value=2, max_value=4),
    groups=st.integers(min_value=1, max_value=4),
    cap=st.integers(min_value=2, max_value=6))


@settings(max_examples=80, deadline=None)
@given(inst=_evac_micro)
def test_dwsf_opt_bounds_the_solver(inst):
    opt, witness = exact_dwsf_opt(inst)
    assert schedule_objective(simulate(inst, witness), inst) == opt
    greedy_objective = solve_report(inst).objective
    assert opt <= greedy_objective <= 2 * opt


# ---------------------------------------------------------------------------
# the factor 2 is tight for the greedy

# Item `a` (size 1, weight 1) and item `b` (size C, weight C), both ready at
# bin 2. The ratios tie, so `a` goes first, and the odd-index rule makes
# both eligible only at bin 3: the greedy puts `a` in bin 3 and `b` in
# bin 4, at 4C + 3, where OPT puts `b` in bin 2 and `a` in bin 3, at
# 2C + 3. The ratio tends to 2 as C grows.

@pytest.mark.parametrize("cap", [10, 100])
def test_greedy_factor_2_is_tight_on_packing(cap):
    inst = packing_instance(cap, (
        PackingItem("a", 1, 1, 2), PackingItem("b", cap, cap, 2)))
    packing, _ = solve_greedy(inst)
    assert packing.bins == {3: ("a",), 4: ("b",)}
    assert packing_objective(packing, inst) == 4 * cap + 3
    opt, _ = exact_packing_opt(inst)
    assert opt == fractional_bound(inst) == 2 * cap + 3


@pytest.mark.parametrize("d", [1, 3])
def test_greedy_factor_2_is_tight_on_a_path(d):
    # both groups at node 1, one epoch from the bottleneck's near node 2;
    # the bottleneck edge of length d adds 11 (d - 1) to both objectives
    inst = path_instance(nodes=3, facility=3, capacity=10, distances=(1, d),
                         groups=(Group(id="a", node=1, size=1, weight=1),
                                 Group(id="b", node=1, size=10, weight=10)))
    assert solve_report(inst).objective == 43 + 11 * (d - 1)
    assert exact_dwsf_opt(inst)[0] == 23 + 11 * (d - 1)


# ---------------------------------------------------------------------------
# partition instances through the evacuation oracle

def test_partition_optimum_spots():
    balanced = gen_from_partition((2, 2, 3, 3))
    value, _ = exact_dwsf_opt(balanced)
    assert value == 3 * balanced.capacity == 15
    lopsided = gen_from_partition((3, 3, 2))
    value, _ = exact_dwsf_opt(lopsided)
    assert value == 15 > 3 * lopsided.capacity
    tiny = gen_from_partition((1, 1))
    value, _ = exact_dwsf_opt(tiny)
    assert value == 3 == 3 * tiny.capacity


# ---------------------------------------------------------------------------
# fractional oracle

def test_fractional_mcf_frozen(abd):
    assert exact_fractional_opt_mcf(abd) == Fraction(21)
    greedy = fractional_objective(solve_fractional_greedy(abd), abd)
    assert greedy == 21


def test_fractional_mcf_empty():
    value = exact_fractional_opt_mcf(PackingInstance(4, (), (), (), ()))
    assert type(value) is Fraction and value == 0


def test_fractional_mcf_budgets():
    # one item, 500_000 + 1 bins
    late = packing_instance(1, (
        PackingItem(id="late", size=1, weight=1, ready=500_000),))
    with pytest.raises(OracleBudgetExceeded, match="1 items x 500001 bins "
                                                   "exceeds the flow-network"):
        exact_fractional_opt_mcf(late)


def test_fractional_mcf_skips_bins_below_every_ready_time():
    # 500_000 bins fit the budget; only the two from ready 499_999 are built
    late = packing_instance(1, (
        PackingItem(id="late", size=1, weight=1, ready=499_999),))
    start = time.perf_counter()
    assert exact_fractional_opt_mcf(late) == 499_999
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("seed, opt", [
    (0, Fraction(974)), (1, Fraction(2437, 3)), (2, Fraction(961)),
    (3, Fraction(585))])
def test_fractional_mcf_seeded_values(seed, opt):
    # values of the network built over every bin from 1; seeds 0, 2 and 3
    # have no item ready at bin 1
    inst = gen_random_packing(seed, PackParams(
        items=8, capacity=7, max_size=6, max_weight=9, max_ready=40))
    assert exact_fractional_opt_mcf(inst) == opt
    assert fractional_objective(solve_fractional_greedy(inst), inst) == opt
