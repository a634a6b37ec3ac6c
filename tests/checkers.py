"""Packing checkers that no command runs, kept for the tests: feasibility
(`validate_packing`), the paired objective of the factor-2 argument
(`paired_view`), the pair overflow that argument rests on
(`pair_overflow_violations`), a greedy trace's steps re-executed to their
packing (`replay_trace`), the feasibility of a fractional packing
(`validate_fractional`), and the reader of the packing file that
`oracle --packing` writes as its witness (`parse_packing`).
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Sequence
from dataclasses import dataclass

from pathevac.model import (FractionalPacking, InstanceError, Packing,
                            PackingInstance)
from pathevac.packing import GreedyStep
from pathevac.relax import _checked
from ref_field_checks import _is_mapping, _loads


def _require_known(known: Container[str], ids: Sequence[str],
                   j: int) -> None:
    """Raise ValueError naming the first id of bin j the instance lacks."""
    for item_id in ids:
        if item_id not in known:
            raise ValueError(f"unknown item {item_id!r} in bin {j}")


def replay_trace(steps: Iterable[GreedyStep],
                 inst: PackingInstance) -> Packing:
    """Re-execute a greedy trace's steps. The result must equal the
    original packing."""
    by_id = {it.id: it for it in inst.items}
    bins: dict[int, list[str]] = {}
    placed: set[str] = set()
    for step in steps:
        if step.action == "place":
            if step.item is None or step.item not in by_id:
                raise ValueError(f"trace places unknown item {step.item!r}")
            if step.item in placed:
                raise ValueError(f"trace places {step.item!r} twice")
            placed.add(step.item)
            bins.setdefault(step.bin, []).append(step.item)
        elif step.action not in ("close", "jump"):
            raise ValueError(f"unknown trace action {step.action!r}")
    if placed != set(by_id):
        raise ValueError("trace does not place every item")
    return Packing(bins={b: tuple(bins[b]) for b in sorted(bins)})


def validate_packing(packing: Packing, inst: PackingInstance) -> list[str]:
    """All constraint violations of a packing; empty means feasible."""
    by_id = {it.id: it for it in inst.items}
    violations: list[str] = []
    seen: dict[str, int] = {}
    for j, bin_ in packing.bins.items():
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

    One row per non-empty pair, in pair order. The returned paired
    objective is a lower bound certificate target: the fractional optimum
    under halved ready times is at least this value, and the greedy
    objective is at most twice it.
    """
    by_id = {it.id: it for it in inst.items}
    pairs: dict[int, list[str]] = {}
    for j, bin_ in packing.bins.items():
        _require_known(by_id, bin_, j)
        pairs.setdefault((j + 1) // 2, []).extend(bin_)
    rows: list[PairRow] = []
    total = 0
    for p, ids in pairs.items():
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
    size_of = dict(zip(inst.ids, inst.sizes))
    violations: list[str] = []
    for j, even in packing.bins.items():
        if j % 2 or not even:
            continue
        odd = packing.bins.get(j - 1, ())
        _require_known(size_of, odd, j - 1)
        _require_known(size_of, even, j)
        size = sum(size_of[i] for i in odd) + sum(size_of[i] for i in even)
        if size <= inst.capacity:
            violations.append(f"pair {j // 2}: bins {j - 1},{j} hold size "
                              f"{size} <= capacity {inst.capacity}")
    return violations


def validate_fractional(fp: FractionalPacking,
                        inst: PackingInstance) -> list[str]:
    """All constraint violations of a fractional packing, in the order
    `fractional_objective` finds them; empty means feasible."""
    return _checked(fp, inst)[0]


def parse_packing(text: str) -> tuple[Packing, int | None]:
    """Read a dense bin list; the empty bins are dropped."""
    data = _loads(text)
    errors: list[str] = []
    if not _is_mapping(data):
        raise InstanceError(["document: expected a JSON object"])
    raw = data.get("bins")
    bins: dict[int, tuple[str, ...]] = {}
    if not isinstance(raw, list):
        errors.append("bins: expected a list of lists")
    else:
        for j, b in enumerate(raw, start=1):
            if not isinstance(b, list) or \
                    not all(isinstance(x, str) and x for x in b):
                errors.append(f"bins[{j - 1}]: expected a list of item ids")
                continue
            if b:
                bins[j] = tuple(b)
    objective = data.get("objective")
    if objective is not None and (not isinstance(objective, int)
                                  or isinstance(objective, bool)):
        errors.append(f"objective: expected an integer, got {objective!r}")
    if errors:
        raise InstanceError(errors)
    return Packing(bins=bins), objective
