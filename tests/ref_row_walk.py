"""The one-pass schedule walk over (time, node, ids) rows, kept as a
test-only reference.

This is `pathevac.evac._walk` as it was before each node's hop was kept
on first use and a move naming one group took its own short branch: every
move redid its edge, landing and next-node arithmetic from per-walk
distance and capacity tuples, and ran the general per-id loop. It is
deliberately left as it was, so the differential tests can require the
same violations, arrivals, horizon and departure log from the walk that
replaced it.
"""

from __future__ import annotations

from collections.abc import Callable

from pathevac.evac import SimulationTrace, _Departure
from pathevac.model import PathInstance, Schedule


def ref_row_walk(inst: PathInstance, sched: Schedule,
                 log: Callable[[_Departure], object] | None = None) \
        -> tuple[SimulationTrace, list[str]]:
    """Shared engine: run the schedule, collecting violations as they occur.

    One pass over the schedule's (time, node, ids) rows, which it holds in
    (time, node) order; the walk builds no `Move`. Each group carries the
    node it is at or headed to and the first epoch it may leave: a group
    that departs at t over an edge of length d lands at t + d - 1 and may
    leave again from t + d on, so a distance-1 hop lands in its own epoch
    and cannot leave before the next one.
    Presence, capacity, direction, arrivals and the horizon all follow from
    that state, at a couple of dict operations per named group; the cost
    follows the number of moves, never the epoch values.

    Groups named in a bad move simply do not move, so one violation never
    cascades into spurious ones downstream. The checks of a move on its
    own (off the path, before epoch 1, an unknown or doubled id) are
    reported first, then presence, direction and capacity, each part in
    the order of the moves.

    `log`, when given, is fed each departure as (epoch, node, ids,
    landing epoch, landing node), in (time, node) order. Without it the
    walk keeps nothing per move: what it holds when it ends is the
    per-group state, the arrivals and the violations.
    """
    a = inst.facility
    nodes = inst.nodes
    # state: group id -> (the node it is at or headed to, the first epoch
    # it may leave); one loop fills it, `size_of` and the facility arrivals
    size_of, state, arrival_time = {}, {}, {}
    for gid, v, size in zip(inst.ids, inst.origins, inst.sizes):
        size_of[gid] = size
        state[gid] = (v, 0)
        if v == a:
            arrival_time[gid] = 0
    early: list[str] = []   # the checks of a move on its own
    violations: list[str] = []
    report = violations.append
    # edge k joins nodes k and k + 1; index 0 is unused
    dist = (0, *inst.distances)
    caps = (0, *(inst.edge_capacities or (inst.capacity,) * (nodes - 1)))
    named_t = 0             # the epoch of the last move naming a group
    top = 0                 # the latest landing epoch
    for t, v, ids in sched.rows:
        if v < 1 or v > nodes:
            early.append(f"unknown: node {v} outside the path "
                         f"(move at time {t})")
            continue
        if t < 1:
            early.append(f"time: move at time {t}, node {v} before epoch 1")
            continue
        if len(ids) > 1 and len(set(ids)) != len(ids):
            kept: dict[str, None] = {}
            for gid in ids:
                if gid not in size_of:
                    early.append(f"unknown: group {gid!r} in move at "
                                 f"time {t}, node {v}")
                elif gid in kept:
                    early.append(f"duplicate: group {gid!r} twice in "
                                 f"move at time {t}, node {v}")
                else:
                    kept[gid] = None
            ids = tuple(kept)
        if v == a:
            named = False
            for gid in ids:
                if gid in size_of:
                    named = True
                else:
                    early.append(f"unknown: group {gid!r} in move at "
                                 f"time {t}, node {v}")
            if named:
                named_t = t
                report(f"direction: move at the facility node {a} at time {t}")
            continue
        edge = v if v < a else v - 1
        land = t + dist[edge] - 1
        u = v + 1 if v < a else v - 1
        there = (u, land + 1)
        size = 0
        stay = ()   # the named ids that do not leave
        for gid in ids:
            s = state.get(gid)
            if s is None:
                early.append(f"unknown: group {gid!r} in move at time "
                             f"{t}, node {v}")
                stay += (gid,)
                continue
            named_t = t
            if s[0] == v and s[1] <= t:
                state[gid] = there
                size += size_of[gid]
            else:
                report(f"presence: group {gid!r} not at node {v} at time {t}")
                stay += (gid,)
        if len(stay) == len(ids):   # nothing leaves, or the move is empty
            continue
        if stay:
            # the ids are distinct here
            ids = [gid for gid in ids if gid not in stay]
        if size > caps[edge]:
            report(f"capacity: departure from node {v} at time {t} "
                   f"carries size {size} > capacity {caps[edge]}")
        if log is not None:
            log((t, v, ids, land, u))
        if land > top:
            top = land
        if u == a:
            # a group at the facility never departs, so it lands there at
            # most once
            for gid in ids:
                arrival_time[gid] = land

    trace = SimulationTrace(arrival_time=arrival_time,
                            horizon=max(named_t, top))
    return trace, early + violations
