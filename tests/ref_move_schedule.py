"""The `Move`-based schedule, kept as a test-only reference.

These are `pathevac.model.Schedule`, the schedule reader with its object
hook, the schedule writer and `pathevac.evac.assemble_schedule`, as they
were while a `Schedule` held one `Move` per move and every one of them
built or read a `Move` per move. They are deliberately left as they were,
so the differential tests can require equal schedules, or the same error,
and the same bytes from the code that keeps (time, node, ids) rows. Each
function reads only `moves` of the schedule it is given, so it runs on a
`pathevac.model.Schedule` as well, through its `Move` view. The
assembly keeps its own copy of `pathevac.evac._raise_first_fault`, which
is unchanged since, so that a fault there does not reach both sides of
the differential.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from json.encoder import encode_basestring
from typing import Any

from pathevac.evac import _positions
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
# the assembly

def _raise_first_fault(packing: Packing, node_of: dict[str, int],
                       lag: dict[int, int]) -> None:
    """Raise the error of a side's first bad id in packing order: an
    unknown group, or a group whose bin is earlier than its ready time."""
    for t_cross, bin_ in packing.bins.items():
        for gid in bin_:
            o = node_of.get(gid)
            if o is None:
                raise ValueError(f"packing references unknown group {gid!r}")
            if o in lag and lag[o] >= t_cross:
                raise ValueError(
                    f"group {gid!r} in bin {t_cross} cannot reach the "
                    f"bottleneck in time (ready-time violation)")


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

