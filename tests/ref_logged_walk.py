"""The one-pass schedule walk that always logged its departures, kept as a
test-only reference.

This is `pathevac.evac._walk` as it was while every walk appended one
(epoch, node, ids, landing epoch, landing node) tuple per departure, read
or not. It is deliberately left as it was, so the differential tests can
require the same violations, arrivals, horizon and departure log from the
walk that logs only when a sink is passed.

Only the packaging of its result differs from that walk: the reference
returns its log in a `RefLoggedTrace`, where `SimulationTrace` now keeps
only the arrivals and the horizon, and `render_table` walks the schedule
again with a sink to collect the log.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from pathevac.model import PathInstance, Schedule


@dataclass(frozen=True)
class RefLoggedTrace:
    """What the reference walk records: its departure log, as it built it."""

    instance: PathInstance
    departures: list[tuple[int, int, Sequence[str], int, int]]
    arrival_time: dict[str, int]                      # facility arrivals only
    horizon: int


def ref_logged_walk(inst: PathInstance, sched: Schedule) \
        -> tuple[RefLoggedTrace, list[str]]:
    """Shared engine: run the schedule, collecting violations as they occur.

    One pass over the moves, which a `Schedule` holds in (time, node)
    order. Each group carries the node it is at or headed to and the first
    epoch it may leave: a group that departs at t over an edge of length d
    lands at t + d - 1 and may leave again from t + d on, so a distance-1
    hop lands in its own epoch and cannot leave before the next one.
    Presence, capacity, direction, arrivals and the horizon all follow from
    that state, at a couple of dict operations per named group; the cost
    follows the number of moves, never the epoch values.

    Groups named in a bad move simply do not move, so one violation never
    cascades into spurious ones downstream. The checks of a move on its
    own (off the path, before epoch 1, an unknown or doubled id) are
    reported first, then presence, direction and capacity, each part in
    the order of the moves.
    """
    a = inst.facility
    nodes = inst.nodes
    size_of = {g.id: g.size for g in inst.groups}
    # group id -> (the node it is at or headed to, the first epoch it may
    # leave)
    state = {g.id: (g.node, 0) for g in inst.groups}
    early: list[str] = []   # the checks of a move on its own
    violations: list[str] = []
    report = violations.append
    arrival_time = {g.id: 0 for g in inst.groups if g.node == a}
    # edge k joins nodes k and k + 1; index 0 is unused
    dist = (0, *inst.distances)
    caps = (0, *(inst.edge_capacities or (inst.capacity,) * (nodes - 1)))
    departures: list[tuple[int, int, Sequence[str], int, int]] = []
    log = departures.append
    named_t = 0             # the epoch of the last move naming a group
    top = 0                 # the latest landing epoch
    for m in sched.moves:
        t = m.time
        v = m.node
        ids = m.groups
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
        log((t, v, ids, land, u))
        if land > top:
            top = land
        if u == a:
            # a group at the facility never departs, so it lands there at
            # most once
            for gid in ids:
                arrival_time[gid] = land

    trace = RefLoggedTrace(instance=inst, departures=departures,
                           arrival_time=arrival_time,
                           horizon=max(named_t, top))
    return trace, early + violations
