"""The event-driven schedule walk before its per-move tightening, kept as a
test-only reference.

This is `pathevac.evac._walk` as it was when every move first went through
a `kept` dict, every key through a `seen` set and `sorted`, and every
departure through a `present` list. It is deliberately left as it was, so
the differential tests can compare the two walks violation for violation,
on any schedule built in code: unordered moves, repeated (time, node)
keys, groups named twice, moves before epoch 1 or off the path, unknown
groups and moves at the facility.

Only the packaging of its result differs from that walk: the reference
returns its event log in a `RefEventTrace`, which carries the renderer that
swept that log before the occupancy table (`pathevac.evac.render_table`)
swept the departure log instead, so the table differential compares the
two renderers.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from pathevac.evac import _start
from pathevac.model import PathInstance, Schedule


@dataclass(frozen=True)
class RefEventTrace:
    """What the reference walk records: its event log, as it built it."""

    instance: PathInstance
    events: list[tuple[int, int, list[str], bool]]
    arrival_time: dict[str, int]
    horizon: int

    def render_table(self) -> str:
        """Per-epoch occupancy table, one line per epoch.

        One forward sweep of the event log from the instance's start state:
        the columns are the nodes occupied at the start or landed on later,
        and each row is printed after its epoch's events are applied.
        """
        at = _start(self.instance)
        events = self.events
        nodes = sorted({v for v, ids in at.items() if ids}
                       | {v for _t, v, _ids, landed in events if landed})
        lines = ["time  " + "  ".join(f"node {v}" for v in nodes)]
        i = 0
        for t in range(self.horizon + 1):
            while i < len(events) and events[i][0] == t:
                _t, v, ids, landed = events[i]
                i += 1
                if landed:
                    at[v].update(dict.fromkeys(ids))
                else:
                    for gid in ids:
                        del at[v][gid]
            cells = [",".join(at[v]) if at[v] else "-" for v in nodes]
            lines.append(f"{t:>4}  " + "  ".join(cells))
        return "\n".join(lines)


def ref_event_walk(inst: PathInstance, sched: Schedule) \
        -> tuple[RefEventTrace, list[str]]:
    """Shared engine: run the schedule, collecting violations as they occur.

    Groups named in a bad move simply do not move, so one violation never
    cascades into spurious ones downstream. The walk jumps from one event
    epoch to the next (moves sorted once, landing epochs in a heap), so its
    cost follows the number of moves, never the epoch values. Within an
    epoch, departures go first in node order, then landings in departure
    order, so a distance-1 hop lands in its own epoch and cannot leave again
    before the next one.
    """
    a = inst.facility
    size_of = {g.id: g.size for g in inst.groups}
    violations: list[str] = []
    moves: dict[tuple[int, int], tuple[str, ...]] = {}
    seen: set[tuple[int, int]] = set()
    for m in sched.moves:
        if m.node < 1 or m.node > inst.nodes:
            violations.append(f"unknown: node {m.node} outside the path "
                              f"(move at time {m.time})")
            continue
        if m.time < 1:
            violations.append(f"time: move at time {m.time}, node {m.node} "
                              "before epoch 1")
            continue
        key = (m.time, m.node)
        if key in seen:
            violations.append(f"duplicate: two moves at time {m.time}, "
                              f"node {m.node}")
            continue
        seen.add(key)
        kept: dict[str, None] = {}
        for gid in m.groups:
            if gid not in size_of:
                violations.append(f"unknown: group {gid!r} in move at time "
                                  f"{m.time}, node {m.node}")
            elif gid in kept:
                violations.append(f"duplicate: group {gid!r} twice in move "
                                  f"at time {m.time}, node {m.node}")
            else:
                kept[gid] = None
        if kept:
            moves[key] = tuple(kept)

    # insertion-ordered: instance order first, then landing order
    at = _start(inst)
    arrival_time = {g.id: 0 for g in inst.groups if g.node == a}
    # edge k joins nodes k and k + 1; index 0 is unused
    dist = (0, *inst.distances)
    caps = (0, *(inst.edge_capacities or (inst.capacity,) * (inst.nodes - 1)))
    events: list[tuple[int, int, list[str], bool]] = []

    departures = sorted(moves.items())
    n = len(departures)
    horizon = departures[-1][0][0] if departures else 0
    # land epoch -> [(node, ids)] in departure order, and a heap of its keys
    pending: dict[int, list[tuple[int, list[str]]]] = {}
    land_epochs: list[int] = []
    i = 0
    while i < n or land_epochs:
        t = departures[i][0][0] if i < n else land_epochs[0]
        if land_epochs and land_epochs[0] < t:
            t = land_epochs[0]
        while i < n:
            (t_dep, v), ids = departures[i]
            if t_dep != t:
                break
            i += 1
            if v == a:
                violations.append(f"direction: move at the facility node {a} "
                                  f"at time {t}")
                continue
            here = at[v]
            present = []
            size = 0
            for gid in ids:
                if gid in here:
                    del here[gid]
                    present.append(gid)
                    size += size_of[gid]
                else:
                    violations.append(f"presence: group {gid!r} not at node "
                                      f"{v} at time {t}")
            if not present:
                continue
            edge = v if v < a else v - 1
            if size > caps[edge]:
                violations.append(f"capacity: departure from node {v} at time "
                                  f"{t} carries size {size} > capacity "
                                  f"{caps[edge]}")
            events.append((t, v, present, False))
            land = t + dist[edge] - 1
            batch = pending.get(land)
            if batch is None:
                pending[land] = batch = []
                heapq.heappush(land_epochs, land)
            batch.append((v + 1 if v < a else v - 1, present))
        if land_epochs and land_epochs[0] == t:
            heapq.heappop(land_epochs)
            for u, ids in pending.pop(t):
                at[u].update(dict.fromkeys(ids))
                events.append((t, u, ids, True))
                if u == a:
                    for gid in ids:
                        arrival_time.setdefault(gid, t)
        horizon = max(horizon, t)

    trace = RefEventTrace(instance=inst, events=events,
                          arrival_time=arrival_time, horizon=horizon)
    return trace, violations
