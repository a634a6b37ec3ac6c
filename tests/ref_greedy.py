"""The list-scanning greedies, kept as test-only references.

These are `solve_greedy`, `solve_fractional_greedy`, `validate_fractional`
and `fractional_objective` as they were before the O(n log n) rewrite in
`pathevac.packing` and `pathevac.relax`, together with the eagerly
formatted trace classes the greedy filled. They rescan the eligible items
on every decision (O(n^2)) and keep every mass as a `Fraction`. The greedy
returns its dense bin tuple, empty bins included, as a `RefPacking`, and
an entry of the pour carries the fraction of its item's size, which
`to_masses` turns into the mass an entry carries today. They are
deliberately left as they were, so the differential tests can compare the
rewrites with them packing for packing, trace step for trace step, entry
for entry and violation for violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from pathevac.model import FractionalPacking, PackingInstance
from pathevac.packing import eligibility_threshold


class RefPacking(NamedTuple):
    """Items assigned to 1-based bins; bins[j-1] lists bin j's item ids."""

    bins: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class GreedyStep:
    """One decision of the greedy: place an item, close a bin, or jump."""

    bin: int
    action: str          # "place" | "close" | "jump"
    item: str | None     # placed item, or the item that failed to fit
    eligible: int        # eligible-item count when the decision was made
    detail: str

    def render(self) -> str:
        return f"bin {self.bin}: {self.action} {self.detail}"


@dataclass(frozen=True)
class GreedyTrace:
    steps: tuple[GreedyStep, ...]

    def render(self) -> str:
        """Line-oriented dump, one decision per line."""
        return "\n".join(s.render() for s in self.steps)


def solve_greedy(inst: PackingInstance) -> tuple[RefPacking, GreedyTrace]:
    """Deterministic greedy packing.

    Ratio ties break toward the earlier item in instance order; comparisons
    are exact integer cross-products. When no unpacked item is eligible for
    the current bin the index jumps straight to the smallest threshold among
    the rest. Replaying the returned trace reproduces the packing.
    """
    items = inst.items
    thresholds = [eligibility_threshold(it.ready) for it in items]
    remaining = list(range(len(items)))
    bins: dict[int, list[str]] = {}
    steps: list[GreedyStep] = []
    j = 1
    load = 0
    last_bin = 0
    while remaining:
        eligible = [i for i in remaining if thresholds[i] <= j]
        if not eligible:
            target = min(thresholds[i] for i in remaining)
            steps.append(GreedyStep(
                bin=j, action="jump", item=None, eligible=0,
                detail=f"no eligible items, jump to bin {target}"))
            j = target
            load = 0
            continue
        best = eligible[0]
        for i in eligible[1:]:
            # w_i / s_i > w_best / s_best, exactly
            if items[i].weight * items[best].size > \
                    items[best].weight * items[i].size:
                best = i
        it = items[best]
        if load + it.size > inst.capacity:
            steps.append(GreedyStep(
                bin=j, action="close", item=it.id, eligible=len(eligible),
                detail=f"close ({it.id} does not fit: "
                       f"{load}+{it.size}>{inst.capacity})"))
            j += 1
            load = 0
            continue
        bins.setdefault(j, []).append(it.id)
        load += it.size
        last_bin = max(last_bin, j)
        remaining.remove(best)
        steps.append(GreedyStep(
            bin=j, action="place", item=it.id, eligible=len(eligible),
            detail=f"place {it.id} (ratio {it.weight}/{it.size}, "
                   f"load {load}/{inst.capacity})"))
    packing = RefPacking(bins=tuple(
        tuple(bins.get(b, ())) for b in range(1, last_bin + 1)))
    return packing, GreedyTrace(steps=tuple(steps))


def solve_fractional_greedy(inst: PackingInstance) -> FractionalPacking:
    """Pour mass in weight/size order, earliest bin first.

    Each bin is filled to capacity (or until no ready mass is left) from the
    ready items of the highest remaining ratio; ties break toward the earlier
    item in instance order. This greedy is optimal for the relaxation: if two
    bins carry mass against the ratio order, both items were ready at the
    earlier bin (the greedy never defers ready mass), so swapping equal mass
    between them keeps feasibility and does not increase cost.
    """
    items = inst.items
    order = sorted(range(len(items)),
                   key=lambda i: (Fraction(-items[i].weight, items[i].size), i))
    remaining: dict[int, Fraction] = {
        i: Fraction(items[i].size) for i in range(len(items))}
    left = len(items)
    entries: list[tuple[str, int, Fraction]] = []
    j = 1
    while left:
        ready = [i for i in order if remaining[i] > 0 and items[i].ready <= j]
        if not ready:
            j = min(items[i].ready for i, r in remaining.items() if r > 0)
            continue
        space = Fraction(inst.capacity)
        for i in ready:
            if space == 0:
                break
            take = min(remaining[i], space)
            entries.append((items[i].id, j, take / items[i].size))
            remaining[i] -= take
            space -= take
            if remaining[i] == 0:
                left -= 1
        j += 1
    return FractionalPacking(entries=tuple(entries))


def validate_fractional(fp: FractionalPacking, inst: PackingInstance) -> list[str]:
    """All constraint violations of a fractional packing; empty means feasible."""
    by_id = {it.id: it for it in inst.items}
    violations: list[str] = []
    assigned: dict[str, Fraction] = {it.id: Fraction(0) for it in inst.items}
    loads: dict[int, Fraction] = {}
    for item_id, j, frac in fp.entries:
        it = by_id.get(item_id)
        if it is None:
            violations.append(f"unknown item: {item_id!r}")
            continue
        if frac <= 0 or frac > 1:
            violations.append(f"fraction: item {item_id!r} carries {frac} "
                              "outside (0, 1]")
            continue
        if j < it.ready:
            violations.append(f"ready time: item {item_id!r} has mass in bin "
                              f"{j} before ready time {it.ready}")
        assigned[item_id] += frac
        loads[j] = loads.get(j, Fraction(0)) + frac * it.size
    for item_id, total in assigned.items():
        if total != 1:
            violations.append(f"conservation: item {item_id!r} assigns total "
                              f"fraction {total}, expected 1")
    for j, load in sorted(loads.items()):
        if load > inst.capacity:
            violations.append(f"capacity: bin {j} holds size {load} > "
                              f"{inst.capacity}")
    return violations


def fractional_objective(fp: FractionalPacking, inst: PackingInstance) -> Fraction:
    """Exact objective of a feasible fractional packing.

    Rejects infeasible input, naming the violated constraint.
    """
    violations = validate_fractional(fp, inst)
    if violations:
        raise ValueError(f"infeasible fractional packing: {violations[0]}")
    by_id = {it.id: it for it in inst.items}
    return sum((Fraction(j) * by_id[i].weight * frac
                for i, j, frac in fp.entries), start=Fraction(0))


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
