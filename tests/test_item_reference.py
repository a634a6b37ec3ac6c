"""Differential tests: the column packing layer against the item-based one.

`ref_items` keeps the reduction, the ranking, the greedy, its trace
renderer, the packing objective, the pour and the fractional checks as
they were while a `PackingInstance` held one frozen `PackingItem` per
item. Over `packing_instances()` and over the sides of small paths in the
five path shapes of the benchmark workloads, both forms must give equal
packing instances and delay costs, equal packings, equal steps (each
still a `GreedyStep`), identical rendered traces, identical pour entries
and bound `Fraction`s, and, on hand-built bad fractional packings, the
same violations word for word. The float/`Fraction` key of
`ratio_ranking` must rank as the reference's gcd and cross-products do,
around its 2^51 guard and on ints past 2^53, and the greedy and the
pours must agree on instances built from such columns.
"""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import ref_items
from checkers import validate_fractional
from pathevac import (FractionalPacking, GenParams, PackingInstance,
                      PackingItem, fractional_objective, gen_random,
                      packing_objective, reduce_side, reduced_ready_times,
                      solve_fractional_greedy, solve_greedy)
from pathevac.packing import GreedyStep, ratio_ranking
from test_greedy_reference import _verdict, _with_examples, packing_instances


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


# the float key's guard on max(weights) * max(sizes)
_GUARD = 2 ** 51


@st.composite
def ratio_columns(draw):
    """Weight and size columns for `ratio_ranking`, in one of three modes.

    `small`: ints up to 20 and 12, from none to a dozen items. `guard`:
    bounds whose product is just below, or at or just above, 2^51, 2^52
    or 2^53, with one item at both bounds, and neighbouring ratios
    m - 1/s and m - 1/(s - 1), whose relative gap 1/(w1*s2) is the
    smallest the bounds admit; past 2^51 such floats can collide. `big`:
    ints past 2^53 and near 10^20, a few apart, so that distinct ratios
    can share a float. Every mode plants scaled copies k*w / k*s of drawn
    ratios, and the rows come in any order.
    """
    mode = draw(st.sampled_from(("small", "guard", "big")))
    rows = []
    if mode == "small":
        w_max, s_max = 20, 12
        n = draw(st.integers(min_value=0, max_value=12))
        for _ in range(n):
            rows.append((draw(st.integers(1, w_max)),
                         draw(st.integers(1, s_max))))
    elif mode == "guard":
        s_max = draw(st.one_of(st.integers(2, 2 ** 24),
                               st.integers(1, 24).map(lambda k: 2 ** k)))
        top = draw(st.sampled_from((_GUARD, 2 * _GUARD, 4 * _GUARD)))
        w_max = (top - 1) // s_max + draw(st.sampled_from((0, 1)))
        rows.append((w_max, s_max))
        for _ in range(draw(st.integers(0, 4))):
            s1 = draw(st.one_of(st.just(s_max), st.integers(2, s_max)))
            m_max = (w_max + 1) // s1
            m = draw(st.one_of(st.just(m_max), st.integers(1, m_max)))
            if m * (s1 - 1) >= 2:
                rows += [(s1 * m - 1, s1), (m * (s1 - 1) - 1, s1 - 1)]
        for _ in range(draw(st.integers(0, 4))):
            rows.append((draw(st.integers(1, w_max)),
                         draw(st.integers(1, s_max))))
    else:
        w_max = s_max = None
        bases = st.sampled_from((2 ** 53, 2 ** 64, 10 ** 20))
        near = st.tuples(bases, st.integers(-3, 3)).map(sum)
        for _ in range(draw(st.integers(1, 8))):
            rows.append((draw(near),
                         draw(st.one_of(st.integers(1, 4), near))))
    for w, s in list(rows):
        k_max = 9 if w_max is None else min(w_max // w, s_max // s, 9)
        if k_max >= 2 and draw(st.booleans()):
            k = draw(st.integers(2, k_max))
            rows.append((k * w, k * s))
    rows = draw(st.permutations(rows))
    return tuple(w for w, _ in rows), tuple(s for _, s in rows)


# m = 2^11 and s = 2^20, the largest bounds of the guard mode's ratio pair
_NEIGHBOURS = ((2 ** 11 * (2 ** 20 - 1) - 1, 2 ** 31 - 1),
               (2 ** 20 - 1, 2 ** 20))
# neighbours m - 1/s, m - 1/(s - 1) at m = 38, s = 15207665: the product of
# the bounds is below 2^53, and the two ratios share a float
_SHARED_FLOAT = ((577891231, 577891269), (15207664, 15207665))


@settings(max_examples=500, deadline=None)
@given(columns=ratio_columns())
@example(columns=((), ()))
@example(columns=((7,), (3,)))
@example(columns=((2, 1, 3, 4), (4, 2, 6, 8)))
@example(columns=_NEIGHBOURS)
@example(columns=_SHARED_FLOAT)
@example(columns=((2 ** 53, 2 ** 53 + 1), (1, 1)))
@example(columns=((2 ** 53 + 1, 2 ** 53), (1, 1)))
@example(columns=((10 ** 20, 10 ** 20 + 1, 2 * 10 ** 20 + 2), (3, 3, 6)))
def test_ratio_ranking_matches_reference(columns):
    weights, sizes = columns
    assert ratio_ranking(weights, sizes) \
        == ref_items.ratio_ranking(weights, sizes)


def test_ratio_ranking_keys():
    # below the guard the nearest ratios still get distinct floats
    (w2, w1), (s2, s1) = _NEIGHBOURS
    assert max(w1, w2) * max(s1, s2) < _GUARD
    assert w1 / s1 > w2 / s2
    assert ratio_ranking(*_NEIGHBOURS) == [1, 0]
    # but a guard at 2^53 would not do: these two ratios share a float
    (w2, w1), (s2, s1) = _SHARED_FLOAT
    assert max(w1, w2) * max(s1, s2) < 2 ** 53
    assert w1 * s2 > w2 * s1 and w1 / s1 == w2 / s2
    assert ratio_ranking(*_SHARED_FLOAT) == [1, 0]
    # past it, 2^53 + 1 and 2^53 round to one float, and the Fraction key
    # still ranks the larger first
    assert float(2 ** 53 + 1) == float(2 ** 53)
    assert ratio_ranking((2 ** 53, 2 ** 53 + 1), (1, 1)) == [1, 0]


@settings(max_examples=150, deadline=None)
@given(columns=ratio_columns(), data=st.data())
def test_big_ratio_instances_match_item_reference(columns, data):
    weights, sizes = columns
    cap = max(sizes, default=1) * data.draw(st.integers(1, 3))
    ready = tuple(data.draw(st.integers(1, 4)) for _ in weights)
    inst = PackingInstance(cap, tuple(f"i{k}" for k in range(len(sizes))),
                           sizes, weights, ready)
    _same_greedy(inst)
    _same_pours(inst)


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


def test_every_violation_kind_at_once_matches_item_reference():
    # masses out of range, an unknown id and an early bin among the
    # entries, in entry order, where an early mass out of range is named
    # once, for its range; then conservation in instance order and
    # capacity in bin order, as one pass over the entries finds them
    fp = FractionalPacking(entries=(
        ("b", 3, 2), ("c", 3, 4), ("a", 1, 5), ("x", 2, 1), ("b", 2, 1),
        ("c", 1, 0)))
    violations = [
        "fraction: item 'a' carries 5/3 outside (0, 1]",
        "unknown item: 'x'",
        "ready time: item 'b' has mass in bin 2 before ready time 3",
        "fraction: item 'c' carries 0 outside (0, 1]",
        "conservation: item 'a' assigns total fraction 0, expected 1",
        "conservation: item 'b' assigns total fraction 3/2, expected 1",
        "capacity: bin 3 holds size 6 > 4",
    ]
    error = f"infeasible fractional packing: {violations[0]}"
    assert _verdict(validate_fractional, fractional_objective, fp, _ABC) \
        == _verdict(ref_items.validate_fractional,
                    ref_items.fractional_objective, fp, _ABC) \
        == (violations, error)


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
