"""Differential tests: the O(n log n) greedies against the list scans.

`ref_greedy` keeps the greedy packer, the fractional greedy, the
fractional validation and the pricing as they were before the heap
rewrite, while an entry carried a fraction and not a mass. The versions
must agree packing for packing (the reference's dense bins with the empty
ones dropped), trace step for trace step (the new steps keep bin, action
and item; the rendered text is compared whole), entry for entry (mass =
fraction × size) and violation for violation. Packings damaged as
fractions are also checked against `ref_items`, the mass-entry checks
that the column ones replaced, and the ready-time reduction against
`ref_items.reduced_ready_times`, which rebuilt every item.
"""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

import ref_greedy
import ref_items
from checkers import validate_fractional
from pathevac import (FractionalPacking, PackingItem, fractional_objective,
                      reduced_ready_times, solve_fractional_greedy,
                      solve_greedy)
from ref_items import packing_instance

# reduced ratios; scaled copies such as 1/2, 2/4, 3/6 tie only after reduction
_BASE_RATIOS = ((1, 2), (1, 1), (2, 3), (3, 1))


def _items(*rows):
    return tuple(PackingItem(id=f"i{k}", size=s, weight=w, ready=r)
                 for k, (s, w, r) in enumerate(rows))


# named shapes the strategy below also draws, pinned as explicit examples
_TIES_AFTER_REDUCTION = packing_instance(6, _items(
    (6, 3, 1), (2, 1, 1), (4, 2, 2), (1, 1, 1), (3, 3, 1), (4, 2, 1)))
_ALL_EQUAL = packing_instance(5, _items(
    (2, 4, 3), (1, 2, 1), (3, 6, 1), (2, 4, 2), (1, 2, 4)))
_SPARSE_READY = packing_instance(4, _items(
    (3, 5, 81), (2, 1, 1), (4, 9, 42), (1, 7, 81), (2, 2, 43)))
_SIZE_IS_CAPACITY = packing_instance(3, _items(
    (3, 2, 1), (3, 5, 1), (1, 1, 2), (3, 5, 3), (2, 4, 1)))
_EXAMPLES = (_TIES_AFTER_REDUCTION, _ALL_EQUAL, _SPARSE_READY,
             _SIZE_IS_CAPACITY, packing_instance(1, ()))


@st.composite
def packing_instances(draw):
    """Small instances rich in the greedy's corner cases.

    Ratios are free, or drawn from scaled copies of a few reduced ratios
    (ties equal only after reduction), or all one reduced ratio. Ready
    times are packed or spread far apart, so the index must jump. Sizes
    equal to the capacity are drawn often.
    """
    cap = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=0, max_value=14))
    mode = draw(st.sampled_from(("free", "ties", "equal")))
    spread = draw(st.sampled_from((1, 4, 40)))
    bases = [r for r in _BASE_RATIOS if r[1] <= cap]
    equal = draw(st.sampled_from(bases))
    rows = []
    for _ in range(n):
        if mode == "free":
            size = draw(st.one_of(st.just(cap),
                                  st.integers(min_value=1, max_value=cap)))
            weight = draw(st.integers(min_value=1, max_value=20))
        else:
            a, b = equal if mode == "equal" else draw(st.sampled_from(bases))
            m = draw(st.integers(min_value=1, max_value=cap // b))
            size, weight = b * m, a * m
        ready = draw(st.integers(min_value=0, max_value=3)) * spread \
            + draw(st.integers(min_value=1, max_value=2))
        rows.append((size, weight, ready))
    return packing_instance(cap, _items(*rows))


def _with_examples(test):
    for inst in _EXAMPLES:
        test = example(inst=inst)(test)
    return test


@settings(max_examples=300, deadline=None)
@given(inst=packing_instances())
@_with_examples
def test_greedy_matches_reference(inst):
    packing, trace = solve_greedy(inst)
    ref_packing, ref_trace = ref_greedy.solve_greedy(inst)
    assert packing.bins == {j: bin_ for j, bin_ in
                            enumerate(ref_packing.bins, start=1) if bin_}
    assert max(packing.bins, default=0) == len(ref_packing.bins)
    assert trace.steps == tuple((s.bin, s.action, s.item)
                                for s in ref_trace.steps)
    assert trace.render() == ref_trace.render()
    # the renderer reads a jump's target from the next step, a place
    for k, step in enumerate(trace.steps):
        if step.action == "jump":
            after = trace.steps[k + 1]
            assert after.action == "place" and after.bin > step.bin


@settings(max_examples=300, deadline=None)
@given(inst=packing_instances())
@_with_examples
def test_fractional_greedy_matches_reference(inst):
    for variant in (inst, reduced_ready_times(inst)):
        fp = solve_fractional_greedy(variant)
        size = {it.id: it.size for it in variant.items}
        for item_id, _j, mass in fp.entries:
            assert type(mass) is int and 0 < mass <= size[item_id]
        assert validate_fractional(fp, variant) == []
        value = fractional_objective(fp, variant)
        assert type(value) is Fraction
        ref_fp = ref_greedy.solve_fractional_greedy(variant)
        assert fp == ref_greedy.to_masses(ref_fp, variant)
        assert value == ref_greedy.fractional_objective(ref_fp, variant)


# ready times 0 to 6: only 1 and 2 are their own pair index; 0 maps to 1
_READY_0_TO_6 = packing_instance(4, _items(
    *((1 + r % 3, 1 + r, r) for r in range(7))))


@settings(max_examples=300, deadline=None)
@given(inst=packing_instances())
@_with_examples
@example(inst=_READY_0_TO_6)
def test_reduced_ready_times_matches_reference(inst):
    out = reduced_ready_times(inst)
    assert out == ref_items.reduced_ready_times(inst)
    # only the ready times change: the other columns are shared, not copied
    assert out.ids is inst.ids
    assert out.sizes is inst.sizes
    assert out.weights is inst.weights


def _verdict(validate, objective, fp, inst):
    """The violations of `fp` and the objective's value or raised text."""
    violations = validate(fp, inst)
    try:
        return violations, objective(fp, inst)
    except ValueError as exc:
        return violations, str(exc)


def _same_verdict(fp, ref_fp, inst):
    """`fp` (masses) and `ref_fp` (its fractions) get the same verdict from
    the new functions, from `ref_greedy` (fractions) and from `ref_items`
    (masses); returns the violations."""
    verdict = _verdict(validate_fractional, fractional_objective, fp, inst)
    assert verdict == _verdict(ref_greedy.validate_fractional,
                               ref_greedy.fractional_objective, ref_fp, inst)
    assert verdict == _verdict(ref_items.validate_fractional,
                               ref_items.fractional_objective, fp, inst)
    return verdict[0]


_DAMAGE = ("shift", "scale", "drop", "nonpositive", "above_one", "unknown")


def _damage(entries, kind, k, data):
    item_id, j, frac = entries[k]
    if kind == "shift":
        entries[k] = (item_id, j + data.draw(st.sampled_from((-2, -1, 1, 2))),
                      frac)
    elif kind == "scale":
        entries[k] = (item_id, j, frac * data.draw(st.fractions(
            min_value=Fraction(1, 6), max_value=6, max_denominator=6)))
    elif kind == "drop":
        del entries[k]
    elif kind == "nonpositive":
        entries[k] = (item_id, j, data.draw(st.sampled_from(
            (Fraction(0), -frac, Fraction(-1)))))
    elif kind == "above_one":
        entries[k] = (item_id, j, data.draw(st.sampled_from(
            (frac + 1, Fraction(7, 6), Fraction(2)))))
    else:
        entries[k] = ("nope", j, frac)


@settings(max_examples=300, deadline=None)
@given(inst=packing_instances(), reduced=st.booleans(), data=st.data())
def test_validation_of_damaged_packings_matches_reference(inst, reduced,
                                                          data):
    # damaged as fractions, then handed over as masses
    target = reduced_ready_times(inst) if reduced else inst
    entries = list(ref_greedy.solve_fractional_greedy(target).entries)
    for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
        if not entries:
            break
        _damage(entries, data.draw(st.sampled_from(_DAMAGE)),
                data.draw(st.integers(min_value=0,
                                      max_value=len(entries) - 1)), data)
    ref_fp = FractionalPacking(entries=tuple(entries))
    _same_verdict(ref_greedy.to_masses(ref_fp, target), ref_fp, target)


def test_split_masses_match_reference():
    # a size-3 item split 3/2 + 3/2 over two bins: the masses are
    # `Fraction`s, and so is a load
    item = PackingItem(id="x", size=3, weight=5, ready=1)
    half = Fraction(3, 2)
    fp = FractionalPacking(entries=(("x", 1, half), ("x", 2, half)))
    ref_fp = FractionalPacking(entries=(("x", 1, Fraction(1, 2)),
                                        ("x", 2, Fraction(1, 2))))
    roomy = packing_instance(3, (item,))
    assert _same_verdict(fp, ref_fp, roomy) == []
    assert fractional_objective(fp, roomy) == Fraction(15, 2)
    tight = packing_instance(1, (item,))
    assert _same_verdict(fp, ref_fp, tight) == [
        "capacity: bin 1 holds size 3/2 > 1",
        "capacity: bin 2 holds size 3/2 > 1"]
