"""Greedy solver for min weighted-completion bin packing with ready times.

Items have sizes, weights, and ready times (earliest usable bin). Bins are
indexed 1, 2, ... and each holds total size at most the capacity; an item
packed into bin j incurs cost weight * j. The greedy packs bins in order,
always placing the eligible item with the largest weight/size ratio, and
closes the current bin the first time that item does not fit. Ratios are
compared exactly after reducing each weight/size by its gcd; equal ratios
go in instance order. Ranking once and keeping the eligible items in a
heap makes the greedy O(n log n) in the number of items.

Eligibility is deliberately coarser than the ready times: an item with ready
time r becomes eligible at the smallest odd bin index >= r. Aligning every
entry to odd indices is what makes consecutive bin pairs overflow the
capacity (see pair_overflow_violations) and yields the factor-2 guarantee
against the fractional relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from heapq import heappop, heappush
from math import gcd
from typing import NamedTuple, Sequence

from .model import Packing, PackingInstance, PackingItem


def eligibility_threshold(ready: int) -> int:
    """Smallest odd bin index >= ready. ready must be a positive integer."""
    if ready < 1:
        raise ValueError(f"ready time must be >= 1, got {ready}")
    return (ready // 2) * 2 + 1


class GreedyStep(NamedTuple):
    """One decision of the greedy: place an item, close a bin, or jump.

    A step is the decision alone, so recording it costs one 3-tuple.
    """

    bin: int
    action: str          # "place" | "close" | "jump"
    item: str | None     # placed item, or the item that failed to fit


@dataclass(frozen=True)
class GreedyTrace:
    """The greedy's decisions on `instance`, in the order it made them."""

    instance: PackingInstance
    steps: tuple[GreedyStep, ...]

    def render(self) -> str:
        """Line-oriented dump, one decision per line.

        Weights, sizes and the capacity come from the instance. A bin's
        load is the running sum of sizes placed since the last close or
        jump, and a jump goes to the next step's bin, where it places.
        """
        by_id = self.instance.item_by_id()
        cap = self.instance.capacity
        lines = []
        load = 0
        for k, (j, action, item_id) in enumerate(self.steps):
            if action == "jump":
                detail = ("no eligible items, jump to bin "
                          f"{self.steps[k + 1].bin}")
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


def ratio_order(items: Sequence[PackingItem]) -> list[PackingItem]:
    """The items by weight/size ratio, largest first, ties in instance order.

    Each (weight, size) is reduced by its gcd, so 1/2, 2/4 and 3/6 are one
    ratio. Only the distinct ratios are compared, by integer cross-products;
    the stable sort of the indices by ratio rank keeps instance order within
    a tie.
    """
    keys = []
    for it in items:
        g = gcd(it.weight, it.size)
        keys.append((it.weight // g, it.size // g))
    # a before b when a's ratio is larger: w_a * s_b > w_b * s_a
    distinct = sorted(set(keys), key=cmp_to_key(
        lambda a, b: b[0] * a[1] - a[0] * b[1]))
    rank = {k: r for r, k in enumerate(distinct)}
    ranks = [rank[k] for k in keys]
    return [items[i] for i in sorted(range(len(items)),
                                     key=ranks.__getitem__)]


def solve_greedy(inst: PackingInstance) -> tuple[Packing, GreedyTrace]:
    """Deterministic greedy packing in O(n log n) for n items.

    Items are ranked once by `ratio_order`: largest weight/size ratio first,
    exact ratio ties toward the earlier item in instance order. A pointer
    over the items sorted by eligibility threshold admits them into a heap
    of ranks as the bin index reaches their threshold, and the heap's top is
    the item to place, so the heap holds exactly the eligible items. When it
    is empty the index jumps straight to the threshold at the pointer, the
    smallest among the rest. Replaying the returned trace reproduces the
    packing. An item larger than the capacity fits no bin and raises
    ValueError.
    """
    cap = inst.capacity
    for it in inst.items:
        if it.size > cap:
            raise ValueError(f"item {it.id!r} of size {it.size} exceeds "
                             f"the bin capacity {cap}")
    # positions in `ranked` stand for items: the smallest is the best
    ranked = ratio_order(inst.items)
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
    return packing, GreedyTrace(inst, tuple(steps))


def _require_known(by_id: dict[str, PackingItem], ids: Sequence[str],
                   j: int) -> None:
    """Raise ValueError naming the first id of bin j the instance lacks."""
    for item_id in ids:
        if item_id not in by_id:
            raise ValueError(f"unknown item {item_id!r} in bin {j}")


def packing_objective(packing: Packing, inst: PackingInstance) -> int:
    """Sum of weight * bin index over all packed items."""
    by_id = inst.item_by_id()
    total = 0
    for j, bin_ in packing.bins.items():
        _require_known(by_id, bin_, j)
        for item_id in bin_:
            total += by_id[item_id].weight * j
    return total


def pair_overflow_violations(packing: Packing, inst: PackingInstance) -> list[str]:
    """Check that every pair with a non-empty even bin overflows the capacity.

    Greedy outputs satisfy this by construction: entry is aligned to odd
    bins, so an item can only land in bin 2j after some item failed to fit
    in bin 2j-1, and that item is packed no later than bin 2j.
    """
    by_id = inst.item_by_id()
    violations: list[str] = []
    for j, even in packing.bins.items():
        if j % 2 or not even:
            continue
        odd = packing.bins.get(j - 1, ())
        _require_known(by_id, odd, j - 1)
        _require_known(by_id, even, j)
        size = sum(by_id[i].size for i in odd) + sum(by_id[i].size for i in even)
        if size <= inst.capacity:
            violations.append(f"pair {j // 2}: bins {j - 1},{j} hold size "
                              f"{size} <= capacity {inst.capacity}")
    return violations
