"""The `Move`-based schedule, kept as a test-only reference.

These are `pathevac.model.Schedule`, the schedule reader with its object
hook, the schedule writer, and `pathevac.evac.assemble_schedule` and
`_walk`, as they were while a `Schedule` held one `Move` per move and
every one of them built or read a `Move` per move. They are deliberately
left as they were, so the differential tests can require equal schedules,
the same bytes, and the same walk results and violations from the code
that keeps (time, node, ids) rows. Each function reads only `moves` of the
schedule it is given, so it runs on a `pathevac.model.Schedule` as well,
through its `Move` view. The one change since is that `_walk` builds the
`SimulationTrace` of today, which keeps only the arrivals and the horizon.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import Any

from pathevac.evac import (SimulationTrace, _Departure, _positions,
                           _raise_first_fault)
from pathevac.model import (InstanceError, Move, Packing, PathInstance,
                            _array, _document, _require_int)


@dataclass(frozen=True)
class Schedule:
    """A full evacuation plan as a move list, in canonical order.

    The (time, node) keys of the moves strictly ascend: one move per key at
    most, by epoch and by node within an epoch. The constructor checks that
    in one pass and raises ValueError naming the first two keys out of
    order, so the simulator's walk and `serialize_schedule` take the moves
    as given; `from_map` builds one from moves in any order.
    """

    moves: tuple[Move, ...]

    def __post_init__(self) -> None:
        last_t = last_v = -math.inf
        for m in self.moves:
            t = m.time
            v = m.node
            if t > last_t or t == last_t and v > last_v:
                last_t = t
                last_v = v
            else:
                raise ValueError(
                    f"schedule: move at time {t}, node {v} follows the "
                    f"move at time {last_t}, node {last_v}; the (time, "
                    "node) keys must strictly ascend")

    @staticmethod
    def from_map(moves: Mapping[tuple[int, int], Iterable[str]]) -> "Schedule":
        """Build from a {(time, node): group ids} map, dropping empty moves.
        It orders the moves of a schedule file that `parse_schedule`
        checks entry by entry."""
        out = []
        for (t, v) in sorted(moves):
            ids = tuple(moves[(t, v)])
            if ids:
                out.append(Move(t, v, ids))
        return Schedule(moves=tuple(out))


# ---------------------------------------------------------------------------
# the reader

def _move_hook(obj: dict) -> Move | dict:
    """The schedule decoder's object hook: a `Move` for an object that
    passes every field test `_checked_moves` applies to a move entry (time
    and node integers >= 1, groups a non-empty list of distinct, non-empty
    strings), the object itself otherwise."""
    t = obj.get("time")
    v = obj.get("node")
    ids = obj.get("groups")
    # one id needs neither the scan nor the set
    if type(t) is int and t >= 1 and type(v) is int and v >= 1 \
            and type(ids) is list and ids and (
                type(ids[0]) is str and ids[0] if len(ids) == 1 else
                all(type(x) is str for x in ids) and "" not in ids
                and len(set(ids)) == len(ids)):
        return Move(t, v, tuple(ids))
    return obj


# json.loads with an object_hook builds a new decoder on every call, which
# costs about a sixth of reading a schedule of a handful of moves
_move_decoder = json.JSONDecoder(object_hook=_move_hook)


def parse_schedule(text: str) -> Schedule:
    """Read a schedule document; raises InstanceError naming every bad
    move entry and every repeated (time, node).

    The decoder turns each well-formed move object into a `Move` as it
    reads it (`_move_hook`). When every `moves` entry came back as one,
    the `Schedule` constructor is the one check of their order. Any other
    text is read again by `_document` (so `json.loads` words every `json:`
    message, a byte-order mark's too) and checked by `_checked_moves`.
    """
    try:
        data = _move_decoder.decode(text)
    except (ValueError, RecursionError):
        data = None
    raw = data.get("moves") if type(data) is dict else None
    if type(raw) is list and all(type(m) is Move for m in raw):
        try:
            return Schedule(moves=tuple(raw))
        except ValueError:
            pass
    return _checked_moves(_document(text).get("moves"))


def _checked_moves(raw: Any) -> Schedule:
    """The moves of a decoded `moves` value, checked one entry at a time,
    one type-exact test per field; raises InstanceError naming every bad
    entry and every repeated (time, node). A move with a bad time or node
    is not checked for repeated ids or keys. `Schedule.from_map` puts the
    moves in order.
    """
    if type(raw) is not list:
        raise InstanceError(["moves: expected a list"])
    errors: list[str] = []
    moves: dict[tuple[int, int], list[str]] = {}
    for idx, m in enumerate(raw):
        if type(m) is not dict:
            errors.append(f"moves[{idx}]: expected an object")
            continue
        t = m.get("time")
        v = m.get("node")
        ids = m.get("groups")
        ok = _require_int(errors, t, f"moves[{idx}].time")
        ok &= _require_int(errors, v, f"moves[{idx}].node")
        if type(ids) is not list or not ids or \
                not all(type(x) is str and x for x in ids):
            errors.append(f"moves[{idx}].groups: expected a non-empty "
                          "list of group ids")
            continue
        if not ok:
            continue
        if len(set(ids)) != len(ids):
            errors.append(f"moves[{idx}].groups: duplicate group in one move")
            continue
        if (t, v) in moves:
            errors.append(f"moves[{idx}]: duplicate entry "
                          f"for time {t}, node {v}")
            continue
        moves[(t, v)] = ids
    if errors:
        raise InstanceError(errors)
    return Schedule.from_map(moves)


# ---------------------------------------------------------------------------
# the writer

# one move of a schedule file, filled by `%` with its time, its node and its
# rendered group list; `%s` renders an int as an f-string does
_MOVE = ('    {\n      "time": %s,\n      "node": %s,\n'
         '      "groups": %s\n    }')


def serialize_schedule(sched: Schedule) -> str:
    """The canonical schedule text, the same bytes as `_dumps` of
    {"moves": [{"time", "node", "groups"}, ...]}, written directly because
    `json.dumps` with an indent runs the pure-Python encoder. The moves are
    written in the order given, the (time, node) order a `Schedule` keeps.

    The text is one template, `_MOVE` once per move, filled by one `%`
    from a flat list of each move's time, node and group list. Each
    distinct group list is rendered once, and every later move that
    carries it reuses the text: `assemble_schedule` gives every move along
    a bin's route the same tuple.
    """
    moves = sched.moves
    rendered: dict[tuple[str, ...], str] = {}
    fields: list[int | str] = []
    append = fields.append
    for m in moves:
        ids = m.groups
        groups = rendered.get(ids)
        if groups is None:
            groups = rendered[ids] = ("[\n        " + ",\n        ".join(
                map(encode_basestring, ids)) + "\n      ]") if ids else "[]"
        append(m.time)
        append(m.node)
        append(groups)
    return ('{\n  "moves": ' + _array([_MOVE] * len(moves)) + "\n}\n") \
        % tuple(fields)


# ---------------------------------------------------------------------------
# the assembly and the walk

def assemble_schedule(inst: PathInstance, left: Packing,
                      right: Packing) -> Schedule:
    """Expand per-side packings into a full move list, in (time, node)
    order as it is built.

    An item in bin T' crosses the bottleneck at epoch T', so it departs
    node v on its route at T' minus lag(v), the distance from v to the
    near node, with no waiting. On one side, a (time, node) key therefore
    belongs to one bin, and the move there is the part of that bin that
    has reached the node: its items whose route starts at that node or
    farther out, in bin order. Each bin's route is walked once, from its
    farthest origin to the near node, and the ids change only where
    another origin joins. An id whose group has no route on the side (it
    sits at the facility or on the other side) never moves. A bin index
    below an item's ready time would mean a departure before epoch 1 and
    is rejected; of several bad ids, the first in packing order, left
    side first, is reported.

    lag strictly grows away from the near node, so at one epoch the left
    side's later bins reach nodes nearer node 1, and so do the right
    side's earlier bins. Walking the left bins latest first, then the
    right bins earliest first, appends each epoch's moves to that epoch's
    list in ascending node order, and joining the lists over the sorted
    distinct epochs gives the schedule without sorting the moves. The cost
    is one `Move` per move, plus a sort of the bin indices and one of the
    epochs that occur; nothing costs per epoch value.
    """
    a = inst.facility
    node_of = {g.id: g.node for g in inst.groups}
    pos = _positions(inst)
    # epoch -> its moves, by node
    at: dict[int, list[Move]] = {}
    for packing, step in ((left, 1), (right, -1)):
        bins = packing.bins
        if not bins:
            continue
        # routes run toward the facility and end at the near node, which
        # lies off the path when the side has no node
        near = a - step
        side = range(1, a) if step == 1 else range(a + 1, inst.nodes + 1)
        # distance from each node of the side to the near node
        lag = {v: abs(pos[v] - pos[near]) for v in side}
        # left bins latest first, right bins earliest first: each epoch's
        # moves arrive in node order
        for t_cross in sorted(bins, reverse=step == 1):
            bin_ = bins[t_cross]
            starts = []     # the origin of each item, in bin order
            for gid in bin_:
                o = node_of.get(gid)
                if o is None or o in lag and lag[o] >= t_cross:
                    _raise_first_fault(packing, node_of, lag)
                starts.append(o)
            origins = set(starts)
            if len(origins) == 1:
                # one origin: every move takes the whole bin, and an origin
                # off the side gives an empty route
                far, = origins
                for v in range(far, a, step):
                    t = t_cross - lag[v]
                    at.setdefault(t, []).append(Move(t, v, bin_))
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
                    t = t_cross - lag[v]
                    at.setdefault(t, []).append(Move(t, v, ids))
    moves: list[Move] = []
    for t in sorted(at):
        moves += at[t]
    return Schedule(moves=tuple(moves))


def _walk(inst: PathInstance, sched: Schedule,
          log: Callable[[_Departure], object] | None = None) \
        -> tuple[SimulationTrace, list[str]]:
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

    `log`, when given, is fed each departure as (epoch, node, ids,
    landing epoch, landing node), in (time, node) order. Without it the
    walk keeps nothing per move: what it holds when it ends is the
    per-group state, the arrivals and the violations.
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
