"""Fractional relaxation: divisible items, exact rational arithmetic.

Dropping indivisibility gives a lower bound on the integral packing optimum.
Reducing every ready time to its pair index relaxes further; the chain

    fractional(reduced tau) <= fractional(tau) <= integral optimum

is what the factor-2 guarantee of the greedy is proved against: merging the
greedy's bins (2j-1, 2j) into pair j keeps the solution feasible for the
reduced instance, and doubling pair indices recovers bin indices.

The fractional greedy ranks items by the integral greedy's rule (exact
reduced weight/size ratio, then instance order) and runs in O(n log n) in
the number of items. Masses are integers wherever they are exact; a
`Fraction` appears only in an entry's fraction and in the objective.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush

from .model import FractionalPacking, PackingInstance, PackingItem
from .packing import ratio_order

_ONE = Fraction(1)


def reduced_ready_times(inst: PackingInstance) -> PackingInstance:
    """Same items with each ready time reduced to its pair index.

    An item with ready time tau first becomes eligible at the smallest odd
    bin >= tau, which lies in pair floor(tau/2) + 1. Plain halving (rounding
    up) would map an even tau one pair earlier, and against that looser
    relaxation the doubled fractional bound is not a valid certificate of
    the greedy (the even-tau counterexample is pinned in the tests).
    """
    return PackingInstance(
        capacity=inst.capacity,
        items=tuple(PackingItem(id=it.id, size=it.size, weight=it.weight,
                                ready=it.ready // 2 + 1)
                    for it in inst.items),
    )


def solve_fractional_greedy(inst: PackingInstance) -> FractionalPacking:
    """Pour mass in weight/size order, earliest bin first, in O(n log n).

    Each bin is filled to capacity (or until no ready mass is left) from the
    ready items of the highest remaining ratio; ties break toward the
    earlier item in instance order (`packing.ratio_order`, the greedy's
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
    by_id = inst.item_by_id()
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


def fractional_bound(inst: PackingInstance,
                     reduced_tau: bool = False) -> Fraction:
    """Fractional optimum of a packing instance: a lower bound on its
    integral optimum.

    With `reduced_tau` the ready times are first reduced to their pair
    index (`reduced_ready_times`), which gives the weaker bound the
    factor-2 certificate is stated against.
    """
    target = reduced_ready_times(inst) if reduced_tau else inst
    return fractional_objective(solve_fractional_greedy(target), target)
