"""The dense packing helpers, kept as test-only references.

These are `packing_objective`, `pair_overflow_violations` and
`assemble_schedule` as they were while a packing was a dense tuple of
bins, bins[j-1] holding bin j's items, empty bins included. They walk
every bin index up to the last one. They are deliberately left as they
were, so the differential tests can compare the sparse versions in
`pathevac.packing`, `pathevac.evac` and `checkers` with them value for
value, violation for violation and move for move.
`assemble_schedule` also keeps the assembly that collected every route
step in a (time, node) map, as `pathevac.evac` did before it built each
move from its bin.
"""

from __future__ import annotations

from pathevac.evac import _positions
from pathevac.model import PackingInstance, PathInstance, Schedule
from ref_greedy import RefPacking as Packing


def packing_objective(packing: Packing, inst: PackingInstance) -> int:
    """Sum of weight * bin index over all packed items."""
    by_id = {it.id: it for it in inst.items}
    total = 0
    for j, bin_ in enumerate(packing.bins, start=1):
        for item_id in bin_:
            if item_id not in by_id:
                raise ValueError(f"unknown item {item_id!r} in bin {j}")
            total += by_id[item_id].weight * j
    return total


def pair_overflow_violations(packing: Packing, inst: PackingInstance) -> list[str]:
    """Check that every pair with a non-empty even bin overflows the capacity.

    Greedy outputs satisfy this by construction: entry is aligned to odd
    bins, so an item can only land in bin 2j after some item failed to fit
    in bin 2j-1, and that item is packed no later than bin 2j.
    """
    by_id = {it.id: it for it in inst.items}
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


def assemble_schedule(inst: PathInstance, left: Packing | None,
                      right: Packing | None) -> Schedule:
    """Expand per-side packings into a full move list.

    An item in bin T' crosses the bottleneck at epoch T', so it departs
    node v on its route at T' minus the distance from v to the near node.
    A bin index below the item's ready time would mean a departure before
    epoch 1 and is rejected.
    """
    a = inst.facility
    by_id = {g.id: g for g in inst.groups}
    pos = _positions(inst)
    moves: dict[tuple[int, int], list[str]] = {}
    for side, packing in (("left", left), ("right", right)):
        if packing is None:
            continue
        near = a - 1 if side == "left" else a + 1
        for t_cross, bin_ in enumerate(packing.bins, start=1):
            for gid in bin_:
                g = by_id.get(gid)
                if g is None:
                    raise ValueError(f"packing references unknown group {gid!r}")
                route = range(g.node, near + 1) if side == "left" \
                    else range(g.node, near - 1, -1)
                for v in route:
                    t = t_cross - abs(pos[v] - pos[near])
                    if t < 1:
                        raise ValueError(
                            f"group {gid!r} in bin {t_cross} cannot reach the "
                            f"bottleneck in time (ready-time violation)")
                    moves.setdefault((t, v), []).append(gid)
    return Schedule.from_map(moves)
