"""The `PackingItem`-based packing layer, kept as a test-only reference.

These are `reduce_side`, `ratio_order`, `solve_greedy`,
`GreedyTrace.render` (here `render`), `packing_objective`,
`reduced_ready_times`, `solve_fractional_greedy`, `validate_fractional`
and `fractional_objective` as they were while a `PackingInstance` held a
tuple of frozen `PackingItem`s: the reductions build one item per group
or item, and every solver and check reads the items by attribute, through
an id -> item dict where it looks one up. Each reads `inst.items` once, and
that view builds the items. They are deliberately left as they were, so
the differential tests can compare the column forms of `pathevac.evac`,
`pathevac.packing` and `pathevac.relax` with them instance for instance,
packing for packing, step for step, line for line, entry for entry and
violation for violation. `solve_greedy` returns the steps it recorded
next to the packing, and `render` reads an instance and steps, since a
`GreedyTrace` holds only its instance and records its steps when they are
read. `ratio_ranking` is the gcd and cross-product ranking that
`ratio_order` reads, kept as the reference for the float and `Fraction`
keys of `packing.ratio_ranking`. `packing_instance`
builds an instance from `PackingItem`s, as the item-form constructor
did, and `path_instance` a path instance from `Group`s, as its
group-form constructor did; the tests build their hand-made instances
through them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from heapq import heappop, heappush
from math import gcd
from typing import Iterable, Sequence

from pathevac.evac import NonUniformCapacityError, SideReduction, _positions
from pathevac.model import (FractionalPacking, Group, Packing,
                            PackingInstance, PackingItem, PathInstance)
from pathevac.packing import GreedyStep, eligibility_threshold


def packing_instance(capacity: int,
                     items: Iterable[PackingItem]) -> PackingInstance:
    """The instance holding `items`, in order, as its four columns."""
    items = tuple(items)
    return PackingInstance(capacity, tuple([it.id for it in items]),
                           tuple([it.size for it in items]),
                           tuple([it.weight for it in items]),
                           tuple([it.ready for it in items]))


def path_instance(nodes: int, facility: int, capacity: int,
                  distances: tuple[int, ...], groups: Iterable[Group],
                  edge_capacities: tuple[int, ...] | None = None) \
        -> PathInstance:
    """The path instance holding `groups`, in order, as its four group
    columns."""
    groups = tuple(groups)
    return PathInstance(nodes, facility, capacity, distances,
                        tuple([g.id for g in groups]),
                        tuple([g.node for g in groups]),
                        tuple([g.size for g in groups]),
                        tuple([g.weight for g in groups]), edge_capacities)


def reduce_side(inst: PathInstance, side: str) \
        -> tuple[PackingInstance, SideReduction]:
    """Turn one side of the facility into a ready-time packing instance."""
    if not inst.is_uniform:
        raise NonUniformCapacityError(
            "solver requires a uniform edge capacity; "
            "this instance declares per-edge overrides")
    a = inst.facility
    if side == "left":
        groups = [g for g in inst.groups if g.node < a]
        near = a - 1
        edge = a - 1
    elif side == "right":
        groups = [g for g in inst.groups if g.node > a]
        near = a + 1
        edge = a
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if not groups:
        return (packing_instance(inst.capacity, ()),
                SideReduction(delay_cost=0))
    pos = _positions(inst)
    at_near = pos[near]
    items = tuple([PackingItem(g.id, g.size, g.weight,
                               abs(pos[g.node] - at_near) + 1)
                   for g in groups])
    weight_sum = sum(g.weight for g in groups)
    return (packing_instance(inst.capacity, items),
            SideReduction(delay_cost=(inst.distance(edge) - 1) * weight_sum))


def ratio_ranking(weights: Sequence[int], sizes: Sequence[int]) -> list[int]:
    """`packing.ratio_ranking` as it was before its float/`Fraction` key:
    the item positions by weight/size ratio, largest first, ties in
    instance order.

    Each (weight, size) is reduced by its gcd, so 1/2, 2/4 and 3/6 are one
    ratio. Only the distinct ratios are compared, by integer cross-products;
    the stable sort of the positions by ratio rank keeps instance order
    within a tie.
    """
    keys = []
    for w, s in zip(weights, sizes):
        g = gcd(w, s)
        keys.append((w // g, s // g))
    # a before b when a's ratio is larger: w_a * s_b > w_b * s_a
    distinct = sorted(set(keys), key=cmp_to_key(
        lambda a, b: b[0] * a[1] - a[0] * b[1]))
    rank = {k: r for r, k in enumerate(distinct)}
    ranks = [rank[k] for k in keys]
    return sorted(range(len(ranks)), key=ranks.__getitem__)


def ratio_order(items: Sequence[PackingItem]) -> list[PackingItem]:
    """The items by weight/size ratio, largest first, ties in instance
    order, as `ratio_ranking` ranks them."""
    return [items[i] for i in ratio_ranking([it.weight for it in items],
                                            [it.size for it in items])]


def solve_greedy(inst: PackingInstance) \
        -> tuple[Packing, tuple[GreedyStep, ...]]:
    """Deterministic greedy packing in O(n log n) for n items, and its
    steps, each built by the NamedTuple's own constructor as the greedy
    makes it."""
    cap = inst.capacity
    items = inst.items
    for it in items:
        if it.size > cap:
            raise ValueError(f"item {it.id!r} of size {it.size} exceeds "
                             f"the bin capacity {cap}")
    # positions in `ranked` stand for items: the smallest is the best
    ranked = ratio_order(items)
    n = len(ranked)
    thresholds = [eligibility_threshold(it.ready) for it in ranked]
    by_threshold = sorted(range(n), key=thresholds.__getitem__)
    p = 0
    heap: list[int] = []
    bins: dict[int, list[str]] = {}
    steps: list[GreedyStep] = []
    j = 1
    load = 0
    while p < n or heap:
        while p < n and thresholds[by_threshold[p]] <= j:
            heappush(heap, by_threshold[p])
            p += 1
        if not heap:
            steps.append(GreedyStep(j, "jump", None))
            j = thresholds[by_threshold[p]]
            load = 0
            continue
        it = ranked[heap[0]]
        if load + it.size > cap:
            steps.append(GreedyStep(j, "close", it.id))
            j += 1
            load = 0
            continue
        steps.append(GreedyStep(j, "place", it.id))
        heappop(heap)
        bins.setdefault(j, []).append(it.id)
        load += it.size
    packing = Packing(bins={b: tuple(ids) for b, ids in bins.items()})
    return packing, tuple(steps)


def render(inst: PackingInstance, steps: Sequence[GreedyStep]) -> str:
    """`GreedyTrace.render`: one decision per line, the weights and sizes
    read from the instance's items."""
    by_id = {it.id: it for it in inst.items}
    cap = inst.capacity
    lines = []
    load = 0
    for k, (j, action, item_id) in enumerate(steps):
        if action == "jump":
            detail = ("no eligible items, jump to bin "
                      f"{steps[k + 1].bin}")
            load = 0
        elif action == "close":
            size = by_id[item_id].size
            detail = f"close ({item_id} does not fit: {load}+{size}>{cap})"
            load = 0
        else:
            it = by_id[item_id]
            load += it.size
            detail = (f"place {item_id} (ratio {it.weight}/{it.size}, "
                      f"load {load}/{cap})")
        lines.append(f"bin {j}: {action} {detail}")
    return "\n".join(lines)


def packing_objective(packing: Packing, inst: PackingInstance) -> int:
    """Sum of weight * bin index over all packed items."""
    by_id = {it.id: it for it in inst.items}
    total = 0
    for j, bin_ in packing.bins.items():
        for item_id in bin_:
            if item_id not in by_id:
                raise ValueError(f"unknown item {item_id!r} in bin {j}")
        for item_id in bin_:
            total += by_id[item_id].weight * j
    return total


def reduced_ready_times(inst: PackingInstance) -> PackingInstance:
    """Same items with each ready time reduced to its pair index, every
    item rebuilt, even one whose ready time is already its pair index."""
    return packing_instance(
        inst.capacity,
        [PackingItem(it.id, it.size, it.weight, it.ready // 2 + 1)
         for it in inst.items])


def solve_fractional_greedy(inst: PackingInstance) -> FractionalPacking:
    """Pour mass in weight/size order, earliest bin first, in O(n log n)."""
    # positions in `ranked` stand for items: the smallest is the best
    ranked = ratio_order(inst.items)
    n = len(ranked)
    ready = [it.ready for it in ranked]
    by_ready = sorted(range(n), key=ready.__getitem__)
    remaining = [it.size for it in ranked]
    p = 0
    heap: list[int] = []
    entries: list[tuple[str, int, int]] = []
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
            take = remaining[k] if remaining[k] < space else space
            entries.append((it.id, j, take))
            remaining[k] -= take
            space -= take
            if not remaining[k]:
                heappop(heap)
        j += 1
    return FractionalPacking(entries=tuple(entries))


def validate_fractional(fp: FractionalPacking, inst: PackingInstance) -> list[str]:
    """All constraint violations of a fractional packing; empty means feasible.

    Per-item and per-bin masses add up as they come: ints from the pour,
    `Fraction`s only where a hand-built packing splits a mass. Messages
    show a mass as its fraction of the item's size.
    """
    items = inst.items
    by_id = {it.id: it for it in items}
    violations: list[str] = []
    assigned: dict[str, int | Fraction] = {it.id: 0 for it in items}
    loads: dict[int, int | Fraction] = {}
    for item_id, j, mass in fp.entries:
        it = by_id.get(item_id)
        if it is None:
            violations.append(f"unknown item: {item_id!r}")
            continue
        if mass <= 0 or mass > it.size:
            violations.append(f"fraction: item {item_id!r} carries "
                              f"{Fraction(mass, it.size)} outside (0, 1]")
            continue
        if j < it.ready:
            violations.append(f"ready time: item {item_id!r} has mass in bin "
                              f"{j} before ready time {it.ready}")
        assigned[item_id] += mass
        loads[j] = loads.get(j, 0) + mass
    for item_id, mass in assigned.items():
        size = by_id[item_id].size
        if mass != size:
            violations.append(f"conservation: item {item_id!r} assigns total "
                              f"fraction {Fraction(mass, size)}, expected 1")
    for j, load in sorted(loads.items()):
        if load > inst.capacity:
            violations.append(f"capacity: bin {j} holds size {load} > "
                              f"{inst.capacity}")
    return violations


def fractional_objective(fp: FractionalPacking, inst: PackingInstance) -> Fraction:
    """Exact objective of a feasible fractional packing, one numerator per
    item size; rejects infeasible input, naming the violated constraint."""
    violations = validate_fractional(fp, inst)
    if violations:
        raise ValueError(f"infeasible fractional packing: {violations[0]}")
    by_id = {it.id: it for it in inst.items}
    by_size: dict[int, int | Fraction] = {}
    for i, j, mass in fp.entries:
        it = by_id[i]
        by_size[it.size] = by_size.get(it.size, 0) + j * it.weight * mass
    return sum((Fraction(num, size) for size, num in by_size.items()),
               start=Fraction(0))
