"""The sort-based schedule assembly, kept as a test-only reference.

This is `pathevac.evac.assemble_schedule` as it was while it collected a
(time, node, ids) tuple per move, sorted them and then built the `Move`s.
It is deliberately left as it was, so the differential tests can require
the same `Schedule`, or the same error, from the two assemblies.
"""

from __future__ import annotations

from itertools import starmap

from pathevac.evac import _positions
from pathevac.model import Move, Packing, PathInstance, Schedule


def assemble_schedule(inst: PathInstance, left: Packing,
                      right: Packing) -> Schedule:
    """Expand per-side packings into a full move list.

    An item in bin T' crosses the bottleneck at epoch T', so it departs
    node v on its route at T' minus the distance from v to the near node,
    with no waiting. On one side, a (time, node) key therefore belongs to
    one bin, and the move there is the part of that bin that has reached
    the node: its items whose route starts at that node or farther out,
    in bin order. Each bin's route is walked once, from its farthest
    origin to the near node, and the ids change only where another origin
    joins. An id whose group has no route on the side (it sits at the
    facility or on the other side) never moves. A bin index below an
    item's ready time would mean a departure before epoch 1 and is
    rejected.
    """
    a = inst.facility
    node_of = {g.id: g.node for g in inst.groups}
    pos = _positions(inst)
    # (time, node, ids) of every move
    moves: list[tuple[int, int, tuple[str, ...]]] = []
    append = moves.append
    for packing, step in ((left, 1), (right, -1)):
        # routes run toward the facility and end at the near node, which
        # lies off the path when the side has no node
        near = a - step
        side = range(1, a) if step == 1 else range(a + 1, inst.nodes + 1)
        # distance from each node of the side to the near node
        lag = {v: abs(pos[v] - pos[near]) for v in side}
        for t_cross, bin_ in packing.bins.items():
            starts = []     # the origin of each item, in bin order
            for gid in bin_:
                o = node_of.get(gid)
                if o is None:
                    raise ValueError(f"packing references unknown group {gid!r}")
                if o in lag and lag[o] >= t_cross:
                    raise ValueError(
                        f"group {gid!r} in bin {t_cross} cannot reach the "
                        f"bottleneck in time (ready-time violation)")
                starts.append(o)
            origins = set(starts)
            if len(origins) == 1:
                # one origin: every move takes the whole bin, and an origin
                # off the side gives an empty route
                far, = origins
                for v in range(far, a, step):
                    append((t_cross - lag[v], v, bin_))
                continue
            # the origins on the side, farthest first
            joins = sorted([o for o in origins if o in lag],
                           reverse=step == -1)
            whole = len(joins) == len(origins)     # no id is foreign
            for o, end in zip(joins, [*joins[1:], a]):
                if whole and end == a:
                    ids = bin_
                else:
                    # the items whose origin is o or farther out
                    ids = tuple([gid for gid, s in zip(bin_, starts)
                                 if (o - s) * step >= 0])
                for v in range(o, end, step):
                    append((t_cross - lag[v], v, ids))
    # the keys are distinct, so the sort never compares ids
    moves.sort()
    return Schedule(moves=tuple(starmap(Move, moves)))
