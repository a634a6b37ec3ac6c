"""The epoch-by-epoch schedule walk, kept as a test-only reference.

This is the simulator as it was before the event-driven rewrite in
`pathevac.evac._walk`: it steps through every epoch up to the horizon,
rescans all moves on each one and snapshots every node every epoch. It is
deliberately left as it was, so the differential tests can compare the
two walks violation for violation. A move that names a group twice, or two
moves at one (time, node), break it (a crash or a silently dropped move),
and it silently skips a move before epoch 1 (its horizon can even go
negative), so those inputs are never fed to it.
"""

from __future__ import annotations

from typing import NamedTuple

from pathevac import PathInstance, Schedule


class RefTrace(NamedTuple):
    """What the reference walk records: a snapshot at every epoch."""

    occupancy: dict[int, dict[int, tuple[str, ...]]]  # t -> node -> ids
    arrival_time: dict[str, int]
    horizon: int


def ref_walk(inst: PathInstance, sched: Schedule) \
        -> tuple[RefTrace, list[str]]:
    """Shared engine: run the schedule, collecting violations as they occur.

    Groups named in a bad move simply do not move, so one violation never
    cascades into spurious ones downstream.
    """
    a = inst.facility
    by_id = {g.id: g for g in inst.groups}
    violations: list[str] = []
    moves: dict[tuple[int, int], tuple[str, ...]] = {}
    for m in sched.moves:
        if m.node < 1 or m.node > inst.nodes:
            violations.append(f"unknown: node {m.node} outside the path "
                              f"(move at time {m.time})")
            continue
        bad = [gid for gid in m.groups if gid not in by_id]
        for gid in bad:
            violations.append(f"unknown: group {gid!r} in move at time "
                              f"{m.time}, node {m.node}")
        kept = tuple(gid for gid in m.groups if gid in by_id)
        if kept:
            moves[(m.time, m.node)] = kept

    at: dict[int, list[str]] = {v: [] for v in range(1, inst.nodes + 1)}
    for g in inst.groups:
        at[g.node].append(g.id)
    arrival_time = {g.id: 0 for g in inst.groups if g.node == a}
    pending: dict[int, list[tuple[int, str]]] = {}  # land epoch -> (node, id)
    horizon = max((t for (t, _v) in moves), default=0)
    occupancy = {0: {v: tuple(ids) for v, ids in at.items() if ids}}
    arrivals: dict[tuple[int, int], tuple[str, ...]] = {}

    t = 1
    while t <= horizon or any(e >= t for e in pending):
        for (mt, v) in sorted(k for k in moves if k[0] == t):
            ids = moves[(mt, v)]
            if v == a:
                violations.append(f"direction: move at the facility node {a} "
                                  f"at time {t}")
                continue
            present = []
            for gid in ids:
                if gid in at[v]:
                    present.append(gid)
                else:
                    violations.append(f"presence: group {gid!r} not at node "
                                      f"{v} at time {t}")
            if not present:
                continue
            edge = v if v < a else v - 1
            cap = inst.edge_capacity(edge)
            size = sum(by_id[gid].size for gid in present)
            if size > cap:
                violations.append(f"capacity: departure from node {v} at time "
                                  f"{t} carries size {size} > capacity {cap}")
            d = inst.distance(edge)
            u = v + 1 if v < a else v - 1
            for gid in present:
                at[v].remove(gid)
            pending.setdefault(t + d - 1, []).append((u, present))
        if t in pending:
            landed = pending.pop(t)
            for (u, ids) in landed:
                at[u].extend(ids)
                key = (t, u)
                arrivals[key] = arrivals.get(key, ()) + tuple(ids)
                if u == a:
                    for gid in ids:
                        arrival_time.setdefault(gid, t)
        occupancy[t] = {v: tuple(ids) for v, ids in at.items() if ids}
        horizon = max(horizon, t)
        t += 1

    trace = RefTrace(occupancy=occupancy,
                     arrival_time=arrival_time, horizon=horizon)
    return trace, violations


def render(trace: RefTrace) -> str:
    """The occupancy table of a reference trace, read from its snapshot at
    every epoch: the table as rendered before the event-log sweep."""
    nodes = sorted({v for occ in trace.occupancy.values() for v in occ})
    lines = ["time  " + "  ".join(f"node {v}" for v in nodes)]
    for t in range(trace.horizon + 1):
        occ = trace.occupancy[t]
        cells = []
        for v in nodes:
            ids = occ.get(v, ())
            cells.append(",".join(ids) if ids else "-")
        lines.append(f"{t:>4}  " + "  ".join(cells))
    return "\n".join(lines)
