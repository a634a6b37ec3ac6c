from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from brute import brute_packing_opt
from pathevac import (GenParams, Group, OracleBudgetExceeded, PackParams,
                      PackingInstance, PackingItem, PathInstance,
                      exact_dwsf_opt, exact_fractional_opt_mcf,
                      exact_packing_opt, fractional_objective,
                      gen_from_partition, gen_random, gen_random_packing,
                      horizon_bound, packing_objective, schedule_objective,
                      simulate, solve, solve_fractional_greedy,
                      validate_packing, validate_schedule)
from pathevac import oracles


# ---------------------------------------------------------------------------
# packing oracle

def test_horizon_bound(abd, ready_pair):
    assert horizon_bound(PackingInstance(capacity=3, items=())) == 0
    assert horizon_bound(abd) == 4
    assert horizon_bound(ready_pair) == 4


def test_packing_opt_frozen(abd):
    value, witness = exact_packing_opt(abd)
    assert value == 24
    assert witness.bins == (("A", "D"), ("B",))
    assert validate_packing(witness, abd) == []
    assert packing_objective(witness, abd) == 24


def test_packing_opt_singleton_bins():
    # no two of 3, 3, 2 share a bin of 4; heaviest-first is forced
    inst = PackingInstance(capacity=4, items=(
        PackingItem(id="a", size=3, weight=3, ready=1),
        PackingItem(id="b", size=3, weight=3, ready=1),
        PackingItem(id="c", size=2, weight=2, ready=1)))
    value, witness = exact_packing_opt(inst)
    assert value == 15
    assert all(len(b) <= 1 for b in witness.bins)


def test_packing_opt_empty():
    value, witness = exact_packing_opt(PackingInstance(capacity=1, items=()))
    assert (value, witness.bins) == (0, ())


def test_packing_opt_budgets():
    wide = PackingInstance(capacity=2, items=tuple(
        PackingItem(id=f"i{k}", size=1, weight=1, ready=1)
        for k in range(16)))
    with pytest.raises(OracleBudgetExceeded, match="15-item"):
        exact_packing_opt(wide)
    # horizon_bound = 65 + 1 bins
    late = PackingInstance(capacity=1, items=(
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
    inst = PathInstance(nodes=2, facility=1, capacity=2, distances=(3,),
                        groups=(Group(id="g1", node=2, size=1, weight=2),
                                Group(id="g2", node=2, size=2, weight=1)))
    value, witness = exact_dwsf_opt(inst)
    assert value == 10
    assert witness.as_map() == {(1, 2): ("g1",), (2, 2): ("g2",)}


def test_dwsf_opt_all_at_facility():
    inst = PathInstance(nodes=2, facility=1, capacity=1, distances=(1,),
                        groups=(Group(id="g", node=1, size=1, weight=9),))
    value, witness = exact_dwsf_opt(inst)
    assert value == 0
    assert witness.moves == ()


def test_dwsf_opt_budgets():
    crowd = PathInstance(nodes=2, facility=2, capacity=1, distances=(1,),
                         groups=tuple(Group(id=f"g{k}", node=1, size=1,
                                            weight=1) for k in range(13)))
    with pytest.raises(OracleBudgetExceeded, match="single-origin"):
        exact_dwsf_opt(crowd)
    spread = PathInstance(nodes=3, facility=3, capacity=1, distances=(1, 1),
                          groups=tuple(Group(id=f"g{k}", node=1 + k % 2,
                                             size=1, weight=1)
                                       for k in range(6)))
    with pytest.raises(OracleBudgetExceeded, match="5-group"):
        exact_dwsf_opt(spread)
    far = PathInstance(nodes=4, facility=4, capacity=1, distances=(5, 5, 5),
                       groups=(Group(id="g", node=1, size=1, weight=1),))
    with pytest.raises(OracleBudgetExceeded, match="12-epoch"):
        exact_dwsf_opt(far)


def test_single_origin_agrees_with_state_search():
    for seed in range(40):
        inst = gen_random(seed, GenParams(
            nodes=2, groups=(seed % 4) + 1, capacity=(seed % 4) + 2,
            max_weight=9, max_distance=2, facility=2,
            allow_at_facility=False))
        off = [g for g in inst.groups if g.node != inst.facility]
        fast_value, fast_witness = exact_dwsf_opt(inst)
        slow_value, _ = oracles._state_search(inst, off)
        assert fast_value == slow_value
        assert validate_schedule(inst, fast_witness) == []


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
    _, greedy_objective = solve(inst)
    assert opt <= greedy_objective <= 2 * opt


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


def test_fractional_mcf_budgets():
    # one item, 500_000 + 1 bins
    late = PackingInstance(capacity=1, items=(
        PackingItem(id="late", size=1, weight=1, ready=500_000),))
    with pytest.raises(OracleBudgetExceeded, match="1 items x 500001 bins "
                                                   "exceeds the flow-network"):
        exact_fractional_opt_mcf(late)
