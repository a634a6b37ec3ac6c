"""The fraction-entry relaxation, kept as a test-only reference.

These are `solve_fractional_greedy`, `validate_fractional` and
`fractional_objective` of `pathevac.relax` as they were while an entry
carried the fraction of its item's size and not the mass. The pour is the
O(n log n) heap greedy; validation turns each fraction back into a mass
(an int while it is whole, a `Fraction` otherwise), and pricing sums per
fraction denominator. They are deliberately left as they were, so the
differential tests can compare the mass entries with them entry for
entry (mass = fraction × size) and violation for violation.

`reduced_ready_times` is the reduction as it was while it rebuilt every
item, even one whose ready time is already its pair index; the
differential test requires the same instance from the one that shares
the id, size and weight columns and maps only the ready times.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush

from pathevac.model import FractionalPacking, PackingInstance, PackingItem
from ref_items import packing_instance, ratio_order

_ONE = Fraction(1)


def reduced_ready_times(inst: PackingInstance) -> PackingInstance:
    """Same items with each ready time reduced to its pair index."""
    return packing_instance(
        inst.capacity,
        [PackingItem(it.id, it.size, it.weight, it.ready // 2 + 1)
         for it in inst.items])


def solve_fractional_greedy(inst: PackingInstance) -> FractionalPacking:
    """Pour mass in weight/size order, earliest bin first, in O(n log n).

    Each bin is filled to capacity (or until no ready mass is left) from the
    ready items of the highest remaining ratio; ties break toward the
    earlier item in instance order (`ref_items.ratio_order`, the greedy's
    rule). This greedy is optimal for the relaxation: if two bins carry mass
    against the ratio order, both items were ready at the earlier bin (the
    greedy never defers ready mass), so swapping equal mass between them
    keeps feasibility and does not increase cost.

    Sizes and the capacity are integers, so every poured mass is one too:
    items enter a heap of ratio ranks when the bin index reaches their ready
    time, the index jumps to the next ready time when the heap is empty, and
    a `Fraction` is built only for each emitted entry.
    """
    # positions in `ranked` stand for items: the smallest is the best
    ranked = ratio_order(inst.items)
    n = len(ranked)
    ready = [it.ready for it in ranked]
    by_ready = sorted(range(n), key=ready.__getitem__)
    remaining = [it.size for it in ranked]
    p = 0
    heap: list[int] = []
    entries: list[tuple[str, int, Fraction]] = []
    j = 1
    while p < n or heap:
        while p < n and ready[by_ready[p]] <= j:
            heappush(heap, by_ready[p])
            p += 1
        if not heap:
            j = ready[by_ready[p]]
            continue
        space = inst.capacity
        while space and heap:
            k = heap[0]
            it = ranked[k]
            take = min(remaining[k], space)
            entries.append((it.id, j, _ONE if take == it.size
                            else Fraction(take, it.size)))
            remaining[k] -= take
            space -= take
            if not remaining[k]:
                heappop(heap)
        j += 1
    return FractionalPacking(entries=tuple(entries))


def validate_fractional(fp: FractionalPacking, inst: PackingInstance) -> list[str]:
    """All constraint violations of a fractional packing; empty means feasible.

    Per-item and per-bin masses (fraction times size) add up as ints while
    they are whole and fall back to `Fraction` otherwise.
    """
    by_id = {it.id: it for it in inst.items}
    violations: list[str] = []
    assigned: dict[str, int | Fraction] = {it.id: 0 for it in inst.items}
    loads: dict[int, int | Fraction] = {}
    for item_id, j, frac in fp.entries:
        it = by_id.get(item_id)
        if it is None:
            violations.append(f"unknown item: {item_id!r}")
            continue
        num, den = frac.as_integer_ratio()
        if num <= 0 or num > den:
            violations.append(f"fraction: item {item_id!r} carries {frac} "
                              "outside (0, 1]")
            continue
        if j < it.ready:
            violations.append(f"ready time: item {item_id!r} has mass in bin "
                              f"{j} before ready time {it.ready}")
        mass = num * it.size
        mass = mass // den if mass % den == 0 else Fraction(mass, den)
        assigned[item_id] += mass
        loads[j] = loads.get(j, 0) + mass
    for item_id, mass in assigned.items():
        size = by_id[item_id].size
        if mass != size:
            violations.append(f"conservation: item {item_id!r} assigns total "
                              f"fraction {Fraction(mass) / size}, expected 1")
    for j, load in sorted(loads.items()):
        if load > inst.capacity:
            violations.append(f"capacity: bin {j} holds size {load} > "
                              f"{inst.capacity}")
    return violations


def fractional_objective(fp: FractionalPacking, inst: PackingInstance) -> Fraction:
    """Exact objective of a feasible fractional packing.

    Rejects infeasible input, naming the violated constraint. The sum
    j * weight * fraction is kept as one integer numerator per fraction
    denominator, so only the few distinct denominators meet as `Fraction`s.
    """
    violations = validate_fractional(fp, inst)
    if violations:
        raise ValueError(f"infeasible fractional packing: {violations[0]}")
    weight = {it.id: it.weight for it in inst.items}
    by_den: dict[int, int] = {}
    for i, j, frac in fp.entries:
        num, den = frac.as_integer_ratio()
        by_den[den] = by_den.get(den, 0) + j * weight[i] * num
    return sum((Fraction(num, den) for den, num in by_den.items()),
               start=Fraction(0))


def to_masses(fp: FractionalPacking, inst: PackingInstance) -> FractionalPacking:
    """The same packing with each fraction replaced by its mass (fraction ×
    size): an int where it is whole, as the pour gives it, and a `Fraction`
    otherwise. An entry for an unknown id keeps its fraction."""
    size = {it.id: it.size for it in inst.items}
    entries = []
    for item_id, j, frac in fp.entries:
        mass = frac * size.get(item_id, 1)
        entries.append((item_id, j, mass.numerator if mass.denominator == 1
                        else mass))
    return FractionalPacking(entries=tuple(entries))
