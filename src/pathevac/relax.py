"""Fractional relaxation: divisible items, exact rational arithmetic.

Dropping indivisibility gives a lower bound on the integral packing optimum.
Reducing every ready time to its pair index relaxes further; the chain

    fractional(reduced tau) <= fractional(tau) <= integral optimum

is what the factor-2 guarantee of the greedy is proved against: merging the
greedy's bins (2j-1, 2j) into pair j keeps the solution feasible for the
reduced instance, and doubling pair indices recovers bin indices.

The fractional greedy ranks items by the integral greedy's rule (exact
weight/size ratio, as a float key below 2^51 and a `Fraction` above, then
instance order) and runs in O(n log n) in the number of items. An entry
carries the mass poured into its bin, an integer, so the objective's one
pass over the entries checks them and sums them in integers, and a
`Fraction` appears only in its result, once per call.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heappop, heappush
from math import lcm

from .model import FractionalPacking, PackingInstance
from .packing import ratio_ranking


def reduced_ready_times(inst: PackingInstance) -> PackingInstance:
    """Same items with each ready time reduced to its pair index.

    An item with ready time tau first becomes eligible at the smallest odd
    bin >= tau, which lies in pair floor(tau/2) + 1. Plain halving (rounding
    up) would map an even tau one pair earlier, and against that looser
    relaxation the doubled fractional bound is not a valid certificate of
    the greedy (the even-tau counterexample is pinned in the tests).

    The reduced instance shares the `ids`, `sizes` and `weights` columns
    and maps the `ready` column alone; no `PackingItem` is built.
    """
    return PackingInstance(inst.capacity, inst.ids, inst.sizes, inst.weights,
                           tuple([r // 2 + 1 for r in inst.ready]))


def solve_fractional_greedy(inst: PackingInstance) -> FractionalPacking:
    """Pour mass in weight/size order, earliest bin first, in O(n log n).

    Each bin is filled to capacity (or until no ready mass is left) from the
    ready items of the highest remaining ratio; ties break toward the
    earlier item in instance order (`packing.ratio_ranking`, the greedy's
    rule). This greedy is optimal for the relaxation: if two bins carry mass
    against the ratio order, both items were ready at the earlier bin (the
    greedy never defers ready mass), so swapping equal mass between them
    keeps feasibility and does not increase cost.

    The pour reads the instance's columns. Sizes and the capacity are
    integers, so every poured mass is one too, and each entry carries it
    as it is: items enter a heap of ratio ranks when the bin index reaches
    their ready time, and the index jumps to the next ready time when the
    heap is empty.
    """
    ids = inst.ids
    sizes = inst.sizes
    ready = inst.ready
    # ranks stand for items: the smallest is the best
    order = ratio_ranking(inst.weights, sizes)
    n = len(order)
    r_ids = [ids[i] for i in order]
    r_ready = [ready[i] for i in order]
    remaining = [sizes[i] for i in order]
    by_ready = sorted(range(n), key=r_ready.__getitem__)
    cap = inst.capacity
    p = 0
    heap: list[int] = []
    entries: list[tuple[str, int, int]] = []
    pour = entries.append
    j = 1
    while p < n or heap:
        while p < n and r_ready[by_ready[p]] <= j:
            heappush(heap, by_ready[p])
            p += 1
        if not heap:
            j = r_ready[by_ready[p]]
            continue
        space = cap
        while space and heap:
            k = heap[0]
            left = remaining[k]
            if left <= space:
                pour((r_ids[k], j, left))
                space -= left
                heappop(heap)
            else:
                pour((r_ids[k], j, space))
                remaining[k] = left - space
                space = 0
        j += 1
    return FractionalPacking(entries=tuple(entries))


def _checked(fp: FractionalPacking, inst: PackingInstance) \
        -> tuple[list[str], dict[int, int | Fraction]]:
    """All constraint violations of a fractional packing, empty when it is
    feasible, and its objective's numerators by item size.

    One pass over the entries finds each item's size, weight and ready
    time in the instance's columns through one id -> position dict.
    Per-item and per-bin masses add up as they come: ints from the pour,
    `Fraction`s only where a hand-built packing splits a mass. An entry
    that names a known item with a mass in (0, size] adds
    j * weight * mass to its size's numerator, so the numerators are the
    objective's only where the list is empty. Messages show a mass as its
    fraction of the item's size.
    """
    at = inst.positions()
    ids = inst.ids
    sizes = inst.sizes
    weights = inst.weights
    ready = inst.ready
    violations: list[str] = []
    assigned: list[int | Fraction] = [0] * len(ids)
    loads: dict[int, int | Fraction] = {}
    by_size: dict[int, int | Fraction] = {}
    for item_id, j, mass in fp.entries:
        k = at.get(item_id)
        if k is None:
            violations.append(f"unknown item: {item_id!r}")
            continue
        size = sizes[k]
        if mass <= 0 or mass > size:
            violations.append(f"fraction: item {item_id!r} carries "
                              f"{Fraction(mass, size)} outside (0, 1]")
            continue
        if j < ready[k]:
            violations.append(f"ready time: item {item_id!r} has mass in bin "
                              f"{j} before ready time {ready[k]}")
        assigned[k] += mass
        loads[j] = loads.get(j, 0) + mass
        by_size[size] = by_size.get(size, 0) + j * weights[k] * mass
    for item_id, mass, size in zip(ids, assigned, sizes):
        if mass != size:
            violations.append(f"conservation: item {item_id!r} assigns total "
                              f"fraction {Fraction(mass, size)}, expected 1")
    for j, load in sorted(loads.items()):
        if load > inst.capacity:
            violations.append(f"capacity: bin {j} holds size {load} > "
                              f"{inst.capacity}")
    return violations, by_size


def fractional_objective(fp: FractionalPacking, inst: PackingInstance) -> Fraction:
    """Exact objective of a feasible fractional packing.

    Rejects infeasible input, naming the first violation `_checked`
    finds. An entry costs j * weight * mass / size, so the check's pass
    keeps the sum as one numerator per item size, and the numerators
    meet over the lcm of the distinct sizes: one `Fraction` is built,
    where a sum of one `Fraction` per size builds and adds several.
    """
    violations, by_size = _checked(fp, inst)
    if violations:
        raise ValueError(f"infeasible fractional packing: {violations[0]}")
    den = lcm(*by_size)
    return Fraction(sum([num * (den // size) for size, num in by_size.items()]),
                    den)


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
