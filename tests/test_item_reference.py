"""Differential tests: the column packing layer against the item-based one.

`ref_items` keeps the reduction, the ranking, the greedy, its trace
renderer, the packing objective, the pour and the fractional checks as
they were while a `PackingInstance` held one frozen `PackingItem` per
item. Over `packing_instances()` and over the sides of small paths in the
five path shapes of the benchmark workloads, both forms must give equal
packing instances and delay costs, equal packings, equal steps (each
still a `GreedyStep`), identical rendered traces, identical pour entries
and bound `Fraction`s, and, on hand-built bad fractional packings, the
same violations word for word.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ref_items
from pathevac import (FractionalPacking, GenParams, PackingInstance,
                      PackingItem, fractional_objective, gen_random,
                      packing_objective, reduce_side, reduced_ready_times,
                      solve_fractional_greedy, solve_greedy,
                      validate_fractional)
from pathevac.packing import GreedyStep, ratio_ranking
from test_greedy_reference import _with_examples, packing_instances


def _same_greedy(inst: PackingInstance) -> None:
    ranked = [inst.ids[k] for k in ratio_ranking(inst.weights, inst.sizes)]
    assert ranked == [it.id for it in ref_items.ratio_order(inst.items)]
    packing, trace = solve_greedy(inst)
    ref_packing, ref_trace = ref_items.solve_greedy(inst)
    assert packing == ref_packing
    assert list(packing.bins) == list(ref_packing.bins)
    assert trace.instance == ref_trace.instance
    assert trace.steps == ref_trace.steps
    assert all(type(step) is GreedyStep for step in trace.steps)
    assert trace.render() == ref_items.render(ref_trace) \
        == ref_items.render(trace)
    assert packing_objective(packing, inst) \
        == ref_items.packing_objective(packing, inst)


def _same_pours(inst: PackingInstance) -> Fraction:
    """The pour, its checks and its bound on `inst` and on its reduced-τ
    form; returns the reduced-τ bound."""
    for variant in (inst, reduced_ready_times(inst)):
        fp = solve_fractional_greedy(variant)
        assert fp == ref_items.solve_fractional_greedy(variant)
        assert validate_fractional(fp, variant) == [] \
            == ref_items.validate_fractional(fp, variant)
        value = fractional_objective(fp, variant)
        ref_value = ref_items.fractional_objective(fp, variant)
        assert type(value) is type(ref_value) is Fraction
        assert value == ref_value
    return value


@settings(max_examples=300, deadline=None)
@given(inst=packing_instances())
@_with_examples
def test_packing_layer_matches_item_reference(inst):
    _same_greedy(inst)
    _same_pours(inst)


# the five path shapes of the benchmark workloads (`dense`, `sprawl`,
# `long-edge` and the two of `oracle`), at small sizes
_SHAPES = (
    GenParams(nodes=5, groups=40, capacity=60, max_size=6, max_weight=20,
              max_distance=2, facility=3),
    GenParams(nodes=12, groups=30, capacity=10, max_size=10, max_weight=20,
              max_distance=3, facility=6),
    GenParams(nodes=4, groups=20, capacity=10, max_size=10,
              max_distance=1000, facility=1),
    GenParams(nodes=4, groups=5, capacity=6, max_distance=2),
    GenParams(nodes=2, groups=12, capacity=20, facility=2),
)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
       shape=st.sampled_from(_SHAPES))
def test_path_sides_match_item_reference(seed, shape):
    path = gen_random(seed, shape)
    for side in ("left", "right"):
        pinst, red = reduce_side(path, side)
        ref_pinst, ref_red = ref_items.reduce_side(path, side)
        assert pinst == ref_pinst and red == ref_red
        assert pinst.items == ref_pinst.items
        _same_greedy(pinst)
        if pinst.ids:
            _same_pours(pinst)


def _verdict(validate, objective, fp, inst):
    violations = validate(fp, inst)
    try:
        return violations, objective(fp, inst)
    except ValueError as exc:
        return violations, str(exc)


_ABC = ref_items.packing_instance(4, (
    PackingItem("a", 3, 5, 1), PackingItem("b", 2, 1, 3),
    PackingItem("c", 4, 2, 2)))


@pytest.mark.parametrize("entries, first", [
    ((("a", 1, 3), ("x", 2, 2), ("b", 3, 2), ("c", 2, 4)),
     "unknown item: 'x'"),
    ((("a", 1, 3), ("b", 3, 0), ("b", 3, 2), ("c", 2, 4)),
     "fraction: item 'b' carries 0 outside (0, 1]"),
    ((("a", 1, 3), ("b", 3, 3), ("c", 2, 4)),
     "fraction: item 'b' carries 3/2 outside (0, 1]"),
    ((("a", 1, 3), ("b", 2, 2), ("c", 2, 4)),
     "ready time: item 'b' has mass in bin 2 before ready time 3"),
    ((("a", 1, 3), ("b", 3, 1), ("c", 2, 4)),
     "conservation: item 'b' assigns total fraction 1/2, expected 1"),
    ((("a", 1, Fraction(3, 2)), ("a", 3, Fraction(3, 2)), ("b", 3, 2),
      ("c", 3, 4)),
     "capacity: bin 3 holds size 15/2 > 4"),
    ((("a", 2, 3), ("b", 3, 2), ("c", 2, 4)),
     "capacity: bin 2 holds size 7 > 4"),
], ids=["unknown", "nonpositive", "above-size", "early", "conservation",
        "split-capacity", "capacity"])
def test_bad_fractional_packings_match_item_reference(entries, first):
    fp = FractionalPacking(entries=entries)
    verdict = _verdict(validate_fractional, fractional_objective, fp, _ABC)
    assert verdict == _verdict(ref_items.validate_fractional,
                               ref_items.fractional_objective, fp, _ABC)
    assert verdict[0][0] == first
    assert verdict[1] == f"infeasible fractional packing: {first}"


_DAMAGE = ("unknown", "nonpositive", "above_size", "early", "drop", "merge")


@settings(max_examples=300, deadline=None)
@given(inst=packing_instances(), data=st.data())
def test_damaged_pours_match_item_reference(inst, data):
    entries = list(solve_fractional_greedy(inst).entries)
    size = dict(zip(inst.ids, inst.sizes))
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        if not entries:
            break
        k = data.draw(st.integers(min_value=0, max_value=len(entries) - 1))
        item_id, j, mass = entries[k]
        kind = data.draw(st.sampled_from(_DAMAGE))
        if kind == "unknown":
            entries[k] = ("nope", j, mass)
        elif kind == "nonpositive":
            entries[k] = (item_id, j, data.draw(st.sampled_from((0, -mass))))
        elif kind == "above_size":
            entries[k] = (item_id, j, size.get(item_id, 0) + 1)
        elif kind == "early":
            entries[k] = (item_id, j - data.draw(st.integers(1, 3)), mass)
        elif kind == "drop":
            del entries[k]
        else:
            # every entry of one item moved into this bin: over capacity
            # where the bin already holds other mass
            entries = [(i, j if i == item_id else jj, m)
                       for i, jj, m in entries]
    fp = FractionalPacking(entries=tuple(entries))
    assert _verdict(validate_fractional, fractional_objective, fp, inst) \
        == _verdict(ref_items.validate_fractional,
                    ref_items.fractional_objective, fp, inst)


def test_packing_objective_unknown_id_matches_item_reference():
    packing, _ = solve_greedy(_ABC)
    bad = replace(packing, bins={**packing.bins, 9: ("b", "zz")})
    for objective in (packing_objective, ref_items.packing_objective):
        with pytest.raises(ValueError, match="unknown item 'zz' in bin 9"):
            objective(bad, _ABC)
