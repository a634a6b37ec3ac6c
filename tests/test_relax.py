from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from pathevac import (FractionalPacking, PackingInstance, PackingItem,
                      PackParams, exact_fractional_opt_mcf, exact_packing_opt,
                      fractional_bound, fractional_objective,
                      gen_random_packing, packing_objective,
                      reduced_ready_times, solve_fractional_greedy,
                      solve_greedy, validate_fractional)


def test_reduced_ready_times_use_pair_index():
    inst = PackingInstance(capacity=3, items=tuple(
        PackingItem(id=f"i{r}", size=1, weight=1, ready=r)
        for r in range(1, 6)))
    reduced = reduced_ready_times(inst)
    assert [it.ready for it in reduced.items] == [1, 2, 2, 3, 3]


def test_pair_index_reduction_is_the_right_one():
    # all three items become eligible at bin 5 (pair 3); with ready times
    # merely halved (pair 2) the doubled fractional bound would fall below
    # the greedy value, so it could not certify the factor 2
    inst = PackingInstance(capacity=4, items=(
        PackingItem(id="I1", size=3, weight=6, ready=4),
        PackingItem(id="I2", size=1, weight=8, ready=4),
        PackingItem(id="I3", size=3, weight=3, ready=4)))
    packing, _ = solve_greedy(inst)
    greedy = packing_objective(packing, inst)
    assert greedy == 88
    reduced = reduced_ready_times(inst)
    assert {it.ready for it in reduced.items} == {3}
    frac = fractional_objective(solve_fractional_greedy(reduced), reduced)
    assert greedy <= 2 * frac
    halved = PackingInstance(capacity=4, items=tuple(
        PackingItem(id=it.id, size=it.size, weight=it.weight,
                    ready=(it.ready + 1) // 2) for it in inst.items))
    loose = fractional_objective(solve_fractional_greedy(halved), halved)
    assert greedy > 2 * loose


def test_fractional_greedy_frozen(abd):
    fp = solve_fractional_greedy(abd)
    assert validate_fractional(fp, abd) == []
    assert fractional_objective(fp, abd) == 21
    entries = fp.as_map()
    # bin 1 carries all of A and five sixths of B
    assert entries[("A", 1)] == 1
    assert entries[("B", 1)] == Fraction(5, 6)
    assert entries[("B", 2)] == Fraction(1, 6)
    assert entries[("D", 2)] == 1


def test_fractional_respects_ready_times(ready_pair):
    fp = solve_fractional_greedy(ready_pair)
    assert validate_fractional(fp, ready_pair) == []
    assert all(j >= 2 for (i, j, f) in fp.entries if i == "G1")
    # G1 goes wholly into bin 2: cheaper than the greedy's odd alignment
    assert fractional_objective(fp, ready_pair) == Fraction(7)


def test_fractional_objective_rejects_infeasible(abd):
    short = FractionalPacking(entries=(("A", 1, Fraction(1, 2)),))
    with pytest.raises(ValueError, match="conservation"):
        fractional_objective(short, abd)
    overfull = FractionalPacking(entries=(
        ("A", 1, Fraction(1)), ("B", 1, Fraction(1)),
        ("D", 2, Fraction(1))))
    with pytest.raises(ValueError, match="capacity"):
        fractional_objective(overfull, abd)
    early = FractionalPacking(entries=(("A", 1, Fraction(2)),))
    with pytest.raises(ValueError, match="fraction"):
        fractional_objective(early, abd)


def test_validate_fractional_ready_time():
    inst = PackingInstance(capacity=4, items=(
        PackingItem(id="G1", size=2, weight=1, ready=3),))
    fp = FractionalPacking(entries=(("G1", 1, Fraction(1)),))
    violations = validate_fractional(fp, inst)
    assert violations and "ready time" in violations[0]


def test_fractional_bound(abd):
    assert fractional_bound(abd) == 21
    assert fractional_bound(abd, reduced_tau=True) == 21
    # ready 3 lies in pair 2, so the reduced bound prices bin 2
    late = PackingInstance(capacity=1, items=(
        PackingItem(id="x", size=1, weight=5, ready=3),))
    assert fractional_bound(late) == 15
    assert fractional_bound(late, reduced_tau=True) == 10


_pack_instances = st.builds(
    lambda seed, items, cap, ready: gen_random_packing(
        seed, PackParams(items=items, capacity=cap, max_ready=ready)),
    seed=st.integers(min_value=0, max_value=2 ** 48),
    items=st.integers(min_value=1, max_value=9),
    cap=st.integers(min_value=1, max_value=15),
    ready=st.integers(min_value=1, max_value=6))


@settings(max_examples=120, deadline=None)
@given(inst=_pack_instances)
def test_relaxation_chain(inst):
    reduced = reduced_ready_times(inst)
    frac_full = fractional_objective(solve_fractional_greedy(inst), inst)
    frac_half = fractional_objective(solve_fractional_greedy(reduced), reduced)
    opt, _ = exact_packing_opt(inst)
    greedy, _trace = solve_greedy(inst)
    greedy_value = packing_objective(greedy, inst)
    assert frac_half <= frac_full <= opt <= greedy_value
    assert greedy_value <= 2 * frac_half


@settings(max_examples=80, deadline=None)
@given(inst=_pack_instances)
def test_fractional_greedy_matches_flow_optimum(inst):
    for variant in (inst, reduced_ready_times(inst)):
        value = fractional_objective(
            solve_fractional_greedy(variant), variant)
        assert value == exact_fractional_opt_mcf(variant)
