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

    Holds raw numbers only; `detail` and `render()` format them on request,
    so recording a decision costs one tuple.
    """

    bin: int
    action: str          # "place" | "close" | "jump"
    item: str | None     # placed item, or the item that failed to fit
    eligible: int        # eligible-item count when the decision was made
    load: int            # bin load after a place, before a close
    target: int          # bin a jump goes to
    weight: int          # weight and size of `item`
    size: int
    capacity: int

    @property
    def detail(self) -> str:
        if self.action == "jump":
            return f"no eligible items, jump to bin {self.target}"
        if self.action == "close":
            return (f"close ({self.item} does not fit: "
                    f"{self.load}+{self.size}>{self.capacity})")
        return (f"place {self.item} (ratio {self.weight}/{self.size}, "
                f"load {self.load}/{self.capacity})")

    def render(self) -> str:
        return f"bin {self.bin}: {self.action} {self.detail}"


@dataclass(frozen=True)
class GreedyTrace:
    steps: tuple[GreedyStep, ...]

    def render(self) -> str:
        """Line-oriented dump, one decision per line."""
        return "\n".join(s.render() for s in self.steps)


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
            target = thresholds[by_threshold[p]]
            steps.append(GreedyStep(j, "jump", None, 0, 0, target, 0, 0, cap))
            j = target
            load = 0
            continue
        it = ranked[heap[0]]
        if load + it.size > cap:
            steps.append(GreedyStep(j, "close", it.id, len(heap), load, 0,
                                    it.weight, it.size, cap))
            j += 1
            load = 0
            continue
        steps.append(GreedyStep(j, "place", it.id, len(heap), load + it.size,
                                0, it.weight, it.size, cap))
        heappop(heap)
        bins.setdefault(j, []).append(it.id)
        load += it.size
    last_bin = j if n else 0     # the last decision is a place
    packing = Packing(bins=tuple(
        tuple(bins.get(b, ())) for b in range(1, last_bin + 1)))
    return packing, GreedyTrace(steps=tuple(steps))


def replay_trace(trace: GreedyTrace, inst: PackingInstance) -> Packing:
    """Re-execute a trace. The result must equal the original packing."""
    by_id = inst.item_by_id()
    bins: dict[int, list[str]] = {}
    placed: set[str] = set()
    last_bin = 0
    for step in trace.steps:
        if step.action == "place":
            if step.item is None or step.item not in by_id:
                raise ValueError(f"trace places unknown item {step.item!r}")
            if step.item in placed:
                raise ValueError(f"trace places {step.item!r} twice")
            placed.add(step.item)
            bins.setdefault(step.bin, []).append(step.item)
            last_bin = max(last_bin, step.bin)
        elif step.action not in ("close", "jump"):
            raise ValueError(f"unknown trace action {step.action!r}")
    if placed != set(by_id):
        raise ValueError("trace does not place every item")
    return Packing(bins=tuple(
        tuple(bins.get(b, ())) for b in range(1, last_bin + 1)))


def packing_objective(packing: Packing, inst: PackingInstance) -> int:
    """Sum of weight * bin index over all packed items."""
    by_id = inst.item_by_id()
    total = 0
    for j, bin_ in enumerate(packing.bins, start=1):
        for item_id in bin_:
            if item_id not in by_id:
                raise ValueError(f"unknown item {item_id!r} in bin {j}")
            total += by_id[item_id].weight * j
    return total


def validate_packing(packing: Packing, inst: PackingInstance) -> list[str]:
    """All constraint violations of a packing; empty means feasible."""
    by_id = inst.item_by_id()
    violations: list[str] = []
    seen: dict[str, int] = {}
    for j, bin_ in enumerate(packing.bins, start=1):
        load = 0
        for item_id in bin_:
            it = by_id.get(item_id)
            if it is None:
                violations.append(f"unknown item: bin {j} references {item_id!r}")
                continue
            if item_id in seen:
                violations.append(f"duplicate: item {item_id!r} appears in "
                                  f"bins {seen[item_id]} and {j}")
                continue
            seen[item_id] = j
            load += it.size
            if j < it.ready:
                violations.append(f"ready time: item {item_id!r} in bin {j} "
                                  f"before ready time {it.ready}")
        if load > inst.capacity:
            violations.append(f"capacity: bin {j} holds size {load} > "
                              f"{inst.capacity}")
    for it in inst.items:
        if it.id not in seen:
            violations.append(f"missing: item {it.id!r} unassigned")
    return violations


@dataclass(frozen=True)
class PairRow:
    """Bins 2j-1 and 2j merged; the basis of the factor-2 argument."""

    index: int                 # pair index j
    items: tuple[str, ...]     # contents of both bins, first bin first
    size: int
    weight: int


def paired_view(packing: Packing, inst: PackingInstance) \
        -> tuple[tuple[PairRow, ...], int]:
    """Merge consecutive bin pairs and price pair j at j per unit weight.

    The returned paired objective is a lower bound certificate target: the
    fractional optimum under halved ready times is at least this value, and
    the greedy objective is at most twice it.
    """
    by_id = inst.item_by_id()
    rows: list[PairRow] = []
    total = 0
    npairs = (len(packing.bins) + 1) // 2
    for p in range(1, npairs + 1):
        ids: list[str] = []
        for j in (2 * p - 1, 2 * p):
            if j <= len(packing.bins):
                ids.extend(packing.bins[j - 1])
        size = sum(by_id[i].size for i in ids)
        weight = sum(by_id[i].weight for i in ids)
        rows.append(PairRow(index=p, items=tuple(ids), size=size, weight=weight))
        total += p * weight
    return tuple(rows), total


def pair_overflow_violations(packing: Packing, inst: PackingInstance) -> list[str]:
    """Check that every pair with a non-empty even bin overflows the capacity.

    Greedy outputs satisfy this by construction: entry is aligned to odd
    bins, so an item can only land in bin 2j after some item failed to fit
    in bin 2j-1, and that item is packed no later than bin 2j.
    """
    by_id = inst.item_by_id()
    violations: list[str] = []
    npairs = (len(packing.bins) + 1) // 2
    for p in range(1, npairs + 1):
        even = packing.bins[2 * p - 1] if 2 * p <= len(packing.bins) else ()
        if not even:
            continue
        odd = packing.bins[2 * p - 2]
        size = sum(by_id[i].size for i in odd) + sum(by_id[i].size for i in even)
        if size <= inst.capacity:
            violations.append(f"pair {p}: bins {2 * p - 1},{2 * p} hold size "
                              f"{size} <= capacity {inst.capacity}")
    return violations
