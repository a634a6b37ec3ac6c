"""Greedy solver for min weighted-completion bin packing with ready times.

Items have sizes, weights, and ready times (earliest usable bin). Bins are
indexed 1, 2, ... and each holds total size at most the capacity; an item
packed into bin j incurs cost weight * j. The greedy packs bins in order,
always placing the eligible item with the largest weight/size ratio, and
closes the current bin the first time that item does not fit. One sort
on float keys ranks the ratios exactly while max weight * max size is
below 2^51; above it, only the runs of equal floats are sorted again on
`Fraction` keys. Ties go in instance order. A heap of the eligible items
makes the greedy O(n log n), and it records its decisions only for a
trace that is read. Everything here reads a `PackingInstance` as its
columns (ids, sizes, weights, ready times), through an id -> entry dict
where it looks an item up; the objective prices a packing in one pass
over its bins.

Eligibility is deliberately coarser than the ready times: an item with ready
time r becomes eligible at the smallest odd bin index >= r. Aligning every
entry to odd indices is what makes consecutive bin pairs overflow the
capacity (the tests check it with `pair_overflow_violations` in
`tests/checkers.py`) and yields the factor-2 guarantee against the
fractional relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from heapq import heappop, heappush
from itertools import groupby
from operator import truediv
from typing import Callable, NamedTuple, Sequence

from .model import Packing, PackingInstance


def eligibility_threshold(ready: int) -> int:
    """Smallest odd bin index >= ready. ready must be a positive integer."""
    if ready < 1:
        raise ValueError(f"ready time must be >= 1, got {ready}")
    return (ready // 2) * 2 + 1


class GreedyStep(NamedTuple):
    """One decision of the greedy: place an item, close a bin, or jump.

    A step is the decision alone, so recording it costs one 3-tuple; the
    greedy builds it with `tuple.__new__`, at about half the cost of the
    NamedTuple's own `__new__`.
    """

    bin: int
    action: str          # "place" | "close" | "jump"
    item: str | None     # placed item, or the item that failed to fit


@dataclass(frozen=True)
class GreedyTrace:
    """The greedy's decisions on `instance`, in the order it made them.

    `solve_greedy` records no decision. Each read of `steps` runs the
    greedy again with a recorder and returns what it recorded, so a solve
    that prints no trace pays nothing for one.
    """

    instance: PackingInstance

    @property
    def steps(self) -> tuple[GreedyStep, ...]:
        steps: list[GreedyStep] = []
        _greedy(self.instance, steps.append)
        return tuple(steps)

    def render(self) -> str:
        """Line-oriented dump, one decision per line.

        Weights, sizes and the capacity come from the instance's columns.
        A bin's load is the running sum of sizes placed since the last
        close or jump, and a jump goes to the next step's bin, where it
        places.
        """
        inst = self.instance
        at = inst.positions()
        sizes = inst.sizes
        weights = inst.weights
        cap = inst.capacity
        steps = self.steps
        lines = []
        load = 0
        for k, (j, action, item_id) in enumerate(steps):
            if action == "jump":
                detail = ("no eligible items, jump to bin "
                          f"{steps[k + 1].bin}")
                load = 0
            elif action == "close":
                size = sizes[at[item_id]]
                detail = f"close ({item_id} does not fit: {load}+{size}>{cap})"
                load = 0
            else:
                i = at[item_id]
                size = sizes[i]
                load += size
                detail = (f"place {item_id} (ratio {weights[i]}/{size}, "
                          f"load {load}/{cap})")
            lines.append(f"bin {j}: {action} {detail}")
        return "\n".join(lines)


def ratio_ranking(weights: Sequence[int], sizes: Sequence[int]) -> list[int]:
    """The item positions by weight/size ratio, largest first, ties in
    instance order; weights and sizes are ints >= 1.

    One stable sort on the float w / s; `reverse=True` keeps equal keys
    in instance order. While max(weights) * max(sizes) < 2^51 that key is
    exact: int/int division rounds correctly, so equal ratios (1/2, 2/4,
    3/6) get one float; distinct ratios w1/s1 > w2/s2 differ by a
    relative gap >= 1/(w1*s2) > 2^-51, while two reals that round to one
    float differ by at most one ulp, 2^-52 of it, so their floats differ
    and, rounding being monotone, keep their order. Past the guard,
    monotone rounding still orders distinct floats exactly, so only each
    run of equal floats is sorted again, stably, by the exact `Fraction`
    w / s. A ratio past the float range makes every key a `Fraction`.
    """
    exact = not weights or max(weights) * max(sizes) < 2 ** 51
    try:
        key = list(map(truediv, weights, sizes))
    except OverflowError:
        key = list(map(Fraction, weights, sizes))
        exact = True
    order = sorted(range(len(key)), key=key.__getitem__, reverse=True)
    if exact:
        return order
    ranked: list[int] = []
    for _, run in groupby(order, key.__getitem__):
        run = list(run)
        if len(run) > 1:
            run.sort(key=lambda i: Fraction(weights[i], sizes[i]),
                     reverse=True)
        ranked += run
    return ranked


# a step as `GreedyStep(bin, action, item)` builds it, without the
# Python-level `__new__` of the NamedTuple
_step = tuple.__new__


def solve_greedy(inst: PackingInstance) -> tuple[Packing, GreedyTrace]:
    """Deterministic greedy packing in O(n log n) for n items.

    The greedy reads the instance's columns and builds no `PackingItem`.
    Items are ranked once by `ratio_ranking` over the weight and size
    columns: largest weight/size ratio first, exact ratio ties toward the
    earlier item in instance order. A pointer over the items sorted by
    eligibility threshold admits them into a heap of ranks as the bin
    index reaches their threshold, and the heap's top is the item to
    place, so the heap holds exactly the eligible items. When it is empty
    the index jumps straight to the threshold at the pointer, the smallest
    among the rest. The trace records nothing here: reading its steps
    runs the greedy again, and replaying them reproduces the packing.
    An item larger than the capacity fits no bin and raises ValueError.
    """
    return _greedy(inst, None), GreedyTrace(inst)


def _greedy(inst: PackingInstance,
            record: Callable[[GreedyStep], object] | None) -> Packing:
    """The greedy of `solve_greedy`; `record`, when given, gets each
    decision as a `GreedyStep`, in order."""
    cap = inst.capacity
    ids = inst.ids
    sizes = inst.sizes
    ready = inst.ready
    if sizes and max(sizes) > cap:
        k = next(k for k, s in enumerate(sizes) if s > cap)
        raise ValueError(f"item {ids[k]!r} of size {sizes[k]} exceeds "
                         f"the bin capacity {cap}")
    # ranks stand for items: the smallest is the best
    order = ratio_ranking(inst.weights, sizes)
    n = len(order)
    if ready and min(ready) < 1:
        for i in order:     # raises on the best-ranked bad ready time
            eligibility_threshold(ready[i])
    r_ids = [ids[i] for i in order]
    r_sizes = [sizes[i] for i in order]
    # `eligibility_threshold` of each ready time, all >= 1 here
    thresholds = [ready[i] | 1 for i in order]
    by_threshold = sorted(range(n), key=thresholds.__getitem__)
    p = 0
    heap: list[int] = []
    bins: dict[int, list[str]] = {}
    j = 1
    load = 0
    while p < n or heap:
        while p < n and thresholds[by_threshold[p]] <= j:
            heappush(heap, by_threshold[p])
            p += 1
        if not heap:
            if record is not None:
                record(_step(GreedyStep, (j, "jump", None)))
            j = thresholds[by_threshold[p]]
            load = 0
            continue
        r = heap[0]
        iid = r_ids[r]
        size = r_sizes[r]
        if load + size > cap:
            if record is not None:
                record(_step(GreedyStep, (j, "close", iid)))
            j += 1
            load = 0
            continue
        if record is not None:
            record(_step(GreedyStep, (j, "place", iid)))
        heappop(heap)
        bin_ = bins.get(j)
        if bin_ is None:
            bins[j] = [iid]
        else:
            bin_.append(iid)
        load += size
    return Packing(bins={b: tuple(bin_) for b, bin_ in bins.items()})


def packing_objective(packing: Packing, inst: PackingInstance) -> int:
    """Sum of weight * bin index over all packed items, in one pass; the
    first id the instance lacks, in bin order, raises ValueError."""
    weight = dict(zip(inst.ids, inst.weights)).get
    total = 0
    for j, bin_ in packing.bins.items():
        for item_id in bin_:
            w = weight(item_id)
            if w is None:
                raise ValueError(f"unknown item {item_id!r} in bin {j}")
            total += w * j
    return total
