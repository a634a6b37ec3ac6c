"""Core data model: path instances, packings, schedules, JSON round-trips.

All times are integer epochs. Departures happen at epochs t >= 1 and draw
from the previous epoch's occupancy; a group that departs node v at epoch t
over an edge of distance d joins the far node's occupancy at epoch t + d - 1
and may depart again from epoch t + d. A group's arrival time is the first
epoch it occupies the facility node (0 for groups that start there).
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import starmap
from json.encoder import encode_basestring
from typing import Any


class InstanceError(ValueError):
    """An input document violates the model invariants.

    Carries every violation found, not just the first one.
    """

    def __init__(self, violations: Iterable[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True, slots=True)
class Group:
    """An indivisible evacuee group sitting at a node of the path."""

    id: str
    node: int    # origin node, 1-based
    size: int    # head count; moves as one block against edge capacity
    weight: int  # cost multiplier on the arrival epoch


@dataclass(frozen=True, slots=True)
class PathInstance:
    """A path network on nodes 1..n with a facility and uniform capacity;
    group k is entry k of the `ids`, `origins`, `sizes` and `weights`
    columns, kept as given, and only the `groups` view builds a `Group`.

    distances[k-1] is the travel time of edge {k, k+1}. edge_capacities,
    when present, are per-edge overrides honoured by validation and
    simulation only; the solvers require the uniform capacity. Overrides
    that all equal `capacity` are stored as None, so an instance has one
    form whichever way its edges spell the uniform capacity.
    """

    nodes: int
    facility: int
    capacity: int
    distances: tuple[int, ...]
    ids: tuple[str, ...]
    origins: tuple[int, ...]    # each group's node, 1-based
    sizes: tuple[int, ...]
    weights: tuple[int, ...]
    edge_capacities: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        caps = self.edge_capacities
        if caps is not None and all(c == self.capacity for c in caps):
            object.__setattr__(self, "edge_capacities", None)

    @property
    def groups(self) -> tuple[Group, ...]:
        """The columns as `Group`s, built anew on each read."""
        return tuple(map(Group, self.ids, self.origins, self.sizes,
                         self.weights))

    def distance(self, k: int) -> int:
        """Travel time of edge {k, k+1}."""
        return self.distances[k - 1]

    def edge_capacity(self, k: int) -> int:
        """Effective capacity of edge {k, k+1}."""
        if self.edge_capacities is not None:
            return self.edge_capacities[k - 1]
        return self.capacity

    @property
    def is_uniform(self) -> bool:
        return self.edge_capacities is None


# `PackingItem`'s `__init__` is written by hand: it fills each slot through
# the slot's member descriptor, bound once after the class, where the
# generated one calls `object.__setattr__` per field. The benchmark's timed
# certify reads the `PackingInstance.items` view once per side, and the
# view of an 802-item side took 333 against 555 µs that way (best of 7 x
# 200, CPython 3.11.7, 2 vCPUs). The rest is the dataclass's own.

@dataclass(frozen=True, slots=True, init=False)
class PackingItem:
    """One item to be packed into a sequence of capacitated bins."""

    id: str
    size: int
    weight: int
    ready: int  # earliest bin index the item may occupy, >= 1

    def __init__(self, id: str, size: int, weight: int, ready: int) -> None:
        _item_id(self, id)
        _item_size(self, size)
        _item_weight(self, weight)
        _item_ready(self, ready)


_item_id = PackingItem.id.__set__
_item_size = PackingItem.size.__set__
_item_weight = PackingItem.weight.__set__
_item_ready = PackingItem.ready.__set__


@dataclass(frozen=True, slots=True)
class PackingInstance:
    """Items to pack into bins of one capacity, held as four parallel
    columns: entry k of `ids`, `sizes`, `weights` and `ready` is item k.

    The columns are tuples of one length, the ids distinct; the
    constructor keeps them as given. `reduce_side` builds one per side,
    and the solvers, the pours and the checks of `pathevac.packing` and
    `pathevac.relax` index the columns. `items` builds the `PackingItem`s
    on each read, so only that view builds one.
    """

    capacity: int
    ids: tuple[str, ...]
    sizes: tuple[int, ...]
    weights: tuple[int, ...]
    ready: tuple[int, ...]  # earliest bin, >= 1

    @property
    def items(self) -> tuple[PackingItem, ...]:
        """The columns as `PackingItem`s, built anew on each read."""
        return tuple(map(PackingItem, self.ids, self.sizes, self.weights,
                         self.ready))

    def positions(self) -> dict[str, int]:
        """Item id -> the item's position in the columns."""
        return dict(zip(self.ids, range(len(self.ids))))


@dataclass(frozen=True)
class Packing:
    """Items assigned to 1-based bins.

    bins maps the index of every occupied bin, in ascending order, to its
    item ids; empty bins are not stored, so the last bin is max(bins).
    """

    bins: dict[int, tuple[str, ...]]


@dataclass(frozen=True, slots=True)
class Move:
    """All departures from one node at one epoch, toward the facility."""

    time: int
    node: int
    groups: tuple[str, ...]


# one move as a `Schedule` stores it: (time, node, group ids)
Row = tuple[int, int, tuple[str, ...]]


@dataclass(frozen=True, init=False)
class Schedule:
    """A full evacuation plan, one (time, node, group ids) row per move, in
    canonical order.

    The (time, node) keys of the rows strictly ascend: one move per key at
    most, by epoch and by node within an epoch. Every constructor checks
    that in one pass and raises ValueError naming the first two keys out
    of order, so the simulator's walk and `serialize_schedule` take the
    rows as given. `from_rows` builds one from rows, `Schedule(moves=...)`
    from `Move`s, and `from_map` from moves in any order. The cyclic
    collector stops tracking a row of ints and a tuple of strs at a pass
    that finds the tuple untracked, where it tracks a slotted `Move` for
    life; `moves` builds the `Move`s on each read.
    """

    # not an `__init__` parameter, so `dataclasses.replace(s, moves=...)`
    # goes through the constructor and its order check
    rows: tuple[Row, ...] = field(init=False)

    def __init__(self, moves: Iterable[Move]) -> None:
        self._store([(m.time, m.node, m.groups) for m in moves])

    @property
    def moves(self) -> tuple[Move, ...]:
        """The rows as `Move`s, built anew on each read."""
        return tuple(starmap(Move, self.rows))

    @classmethod
    def from_rows(cls, rows: Iterable[Row]) -> "Schedule":
        """Build from (time, node, group ids) rows in (time, node) order."""
        sched = cls.__new__(cls)
        sched._store(rows)
        return sched

    @staticmethod
    def from_map(moves: Mapping[tuple[int, int], Iterable[str]]) -> "Schedule":
        """Build from a {(time, node): group ids} map, dropping empty moves.
        It orders the moves of a schedule file that `parse_schedule`
        checks entry by entry."""
        rows = []
        for (t, v) in sorted(moves):
            ids = tuple(moves[(t, v)])
            if ids:
                rows.append((t, v, ids))
        return Schedule.from_rows(rows)

    def _store(self, rows: Iterable[Row]) -> None:
        """Keep the rows of a new schedule once their (time, node) keys are
        checked to strictly ascend: every constructor's one order check."""
        rows = tuple(rows)
        last_t = last_v = -math.inf
        for t, v, _ in rows:
            if t > last_t or t == last_t and v > last_v:
                last_t = t
                last_v = v
            else:
                raise ValueError(
                    f"schedule: move at time {t}, node {v} follows the "
                    f"move at time {last_t}, node {last_v}; the (time, "
                    "node) keys must strictly ascend")
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class FractionalPacking:
    """Divisible assignment: (item id, bin, mass), the mass being the part
    of the item's size in that bin; an int from the pour, or a `Fraction`
    where a hand-built packing splits a size unevenly."""

    entries: tuple[tuple[str, int, int | Fraction], ...]


# ---------------------------------------------------------------------------
# reading: JSON text in, typed values out
#
# A decoded JSON document holds exact `dict`, `list`, `str` and `int`
# values (besides floats, `true`/`false` and `null`), so each reader tests
# every field by exact type: JSON `true` is no `int` here, nor `2.0` a 2.

def _document(text: str) -> dict:
    """Decode a document that must be a JSON object."""
    # besides JSONDecodeError (a ValueError), the decoder raises a bare
    # ValueError on an integer past the int digit limit and RecursionError
    # on deeply nested arrays or objects
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InstanceError([f"json: {exc}"]) from exc
    if type(data) is not dict:
        raise InstanceError(["document: expected a JSON object"])
    return data


def _require_int(errors: list[str], obj: Any, label: str) -> bool:
    if type(obj) is not int or obj < 1:
        errors.append(f"{label}: expected an integer >= 1, got {obj!r}")
        return False
    return True


def _new_id(errors: list[str], seen: set[str], kind: str, idx: int,
            ident: Any) -> bool:
    """Check the id of entry `idx` of the `kind` list: a non-empty string
    that UTF-8 can encode (a JSON "\\ud800" escape decodes to a lone
    surrogate; an ASCII id needs one test) and not seen before."""
    if type(ident) is not str or not ident:
        errors.append(f"{kind}[{idx}].id: expected a non-empty string")
        return False
    if not ident.isascii():
        try:
            ident.encode("utf-8")
        except UnicodeEncodeError:
            errors.append(f"{kind}[{idx}].id: expected UTF-8 text, "
                          f"got {ident!r}")
            return False
    if ident in seen:
        errors.append(f"{kind}: duplicate id {ident!r}")
        return False
    seen.add(ident)
    return True


def parse_instance(text: str) -> PathInstance:
    """Read an instance document and build the typed instance.

    Raises InstanceError naming every violated invariant. A one-node path
    (no edges, all groups at the facility) is valid and trivially solved.

    Each group entry is checked in one pass, one type-exact test per
    field, and a field that fails its test appends its violation there.
    The route capacity check costs one comparison per group unless a
    group is larger than the narrowest edge.
    """
    data = _document(text)
    errors: list[str] = []
    n_ok = _require_int(errors, data.get("nodes"), "nodes")
    n = data.get("nodes") if n_ok else 1

    if _require_int(errors, data.get("facility"), "facility") \
            and n_ok and data["facility"] > n:
        errors.append(f"facility: {data['facility']} out of range 1..{n}")
    _require_int(errors, data.get("capacity"), "capacity")

    distances: list[int] = []
    overrides: list[int | None] = []
    edges = data.get("edges")
    if type(edges) is not list:
        errors.append("edges: expected a list")
    elif n_ok and len(edges) != n - 1:
        errors.append(f"edges: expected {n - 1} edges covering the path, "
                      f"got {len(edges)}")
    else:
        for k, e in enumerate(edges, start=1):
            if type(e) is not dict:
                errors.append(f"edges[{k - 1}]: expected an object")
                continue
            src, dst = e.get("from"), e.get("to")
            if type(src) is not int or src != k \
                    or type(dst) is not int or dst != k + 1:
                errors.append(f"edges[{k - 1}]: must join nodes {k} and {k + 1} "
                              f"in order, got {src!r}->{dst!r}")
            if _require_int(errors, e.get("distance"),
                            f"edges[{k - 1}].distance"):
                distances.append(e["distance"])
            if "capacity" in e:
                if _require_int(errors, e["capacity"],
                                f"edges[{k - 1}].capacity"):
                    overrides.append(e["capacity"])
            else:
                overrides.append(None)

    ids, origins, sizes, weights = [], [], [], []   # the group columns
    raw_groups = data.get("groups")
    if type(raw_groups) is not list:
        errors.append("groups: expected a list")
        raw_groups = []
    seen: set[str] = set()
    # an invalid `nodes` bounds no group node
    node_max = n if n_ok else math.inf
    for idx, g in enumerate(raw_groups):
        if type(g) is not dict:
            errors.append(f"groups[{idx}]: expected an object")
            continue
        gid = g.get("id")
        if not _new_id(errors, seen, "groups", idx, gid):
            continue
        v = g.get("node")
        size = g.get("size")
        w = g.get("weight")
        ok = True
        if type(v) is not int or v < 1:
            ok = _require_int(errors, v, f"groups[{idx}].node")
        if ok and v > node_max:
            errors.append(f"groups[{idx}].node: {v} out of range "
                          f"1..{node_max}")
            ok = False
        if type(size) is not int or size < 1:
            ok &= _require_int(errors, size, f"groups[{idx}].size")
        if type(w) is not int or w < 1:
            ok &= _require_int(errors, w, f"groups[{idx}].weight")
        if ok:
            ids.append(gid)
            origins.append(v)
            sizes.append(size)
            weights.append(w)

    if errors:
        raise InstanceError(errors)

    cap = data["capacity"]
    fac = data["facility"]
    caps = tuple(o if o is not None else cap for o in overrides)
    inst = PathInstance(n, fac, cap, tuple(distances), tuple(ids),
                        tuple(origins), tuple(sizes), tuple(weights), caps)

    # every group must fit through each edge on its way to the facility; a
    # group no larger than the narrowest edge, or one at the facility,
    # crosses no edge it does not fit
    narrowest = min(caps, default=cap)
    for gid, v, size in zip(ids, origins, sizes):
        if size <= narrowest or v == fac:
            continue
        lo, hi = sorted((v, fac))
        for k in range(lo, hi):
            if size > inst.edge_capacity(k):
                errors.append(f"group {gid!r}: size {size} exceeds capacity "
                              f"{inst.edge_capacity(k)} on edge {{{k},{k + 1}}}")
    if errors:
        raise InstanceError(errors)
    return inst


def parse_packing_instance(text: str) -> PackingInstance:
    """Read a packing-instance document, checked as `parse_instance`
    checks its groups."""
    data = _document(text)
    errors: list[str] = []
    cap_ok = _require_int(errors, data.get("capacity"), "capacity")
    ids: list[str] = []
    sizes: list[int] = []
    weights: list[int] = []
    ready: list[int] = []
    raw = data.get("items")
    if type(raw) is not list:
        errors.append("items: expected a list")
        raw = []
    seen: set[str] = set()
    for idx, it in enumerate(raw):
        if type(it) is not dict:
            errors.append(f"items[{idx}]: expected an object")
            continue
        iid = it.get("id")
        if not _new_id(errors, seen, "items", idx, iid):
            continue
        ok = _require_int(errors, it.get("size"), f"items[{idx}].size")
        ok &= _require_int(errors, it.get("weight"), f"items[{idx}].weight")
        ok &= _require_int(errors, it.get("ready"), f"items[{idx}].ready")
        if ok and cap_ok and it["size"] > data["capacity"]:
            errors.append(f"items[{idx}]: size {it['size']} exceeds "
                          f"capacity {data['capacity']}")
            ok = False
        if ok:
            ids.append(iid)
            sizes.append(it["size"])
            weights.append(it["weight"])
            ready.append(it["ready"])
    if errors:
        raise InstanceError(errors)
    return PackingInstance(data["capacity"], tuple(ids), tuple(sizes),
                           tuple(weights), tuple(ready))


def _move_hook(obj: dict) -> Row | dict:
    """The schedule decoder's object hook: the (time, node, group ids) row
    of an object that passes every field test `_checked_moves` applies to
    a move entry (time and node integers >= 1, groups a non-empty list of
    distinct, non-empty strings), the object itself otherwise."""
    t = obj.get("time")
    v = obj.get("node")
    ids = obj.get("groups")
    # one id needs neither the scan nor the set
    if type(t) is int and t >= 1 and type(v) is int and v >= 1 \
            and type(ids) is list and ids and (
                type(ids[0]) is str and ids[0] if len(ids) == 1 else
                all(type(x) is str for x in ids) and "" not in ids
                and len(set(ids)) == len(ids)):
        return (t, v, tuple(ids))
    return obj


# json.loads with an object_hook builds a new decoder on every call, which
# costs about a sixth of reading a schedule of a handful of moves
_move_decoder = json.JSONDecoder(object_hook=_move_hook)


def parse_schedule(text: str) -> Schedule:
    """Read a schedule document; raises InstanceError naming every bad
    move entry and every repeated (time, node).

    The decoder turns each well-formed move object into its row as it
    reads it (`_move_hook`); nothing else in a JSON document decodes to a
    tuple. When every `moves` entry came back as one, `Schedule.from_rows`
    is the one check of their order. Any other text is read again by
    `_document` (so `json.loads` words every `json:` message, a byte-order
    mark's too) and checked by `_checked_moves`.
    """
    try:
        data = _move_decoder.decode(text)
    except (ValueError, RecursionError):
        data = None
    raw = data.get("moves") if type(data) is dict else None
    if type(raw) is list and all(type(m) is tuple for m in raw):
        try:
            return Schedule.from_rows(raw)
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
# writing (canonical: fixed key order, 2-space indent, newline at EOF)

def _dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _array(entries: list[str]) -> str:
    """A list of rendered entries as `_dumps` writes it at depth 1."""
    if not entries:
        return "[]"
    return "[\n" + ",\n".join(entries) + "\n  ]"


def serialize_instance(inst: PathInstance) -> str:
    """The canonical instance text, the same bytes as `_dumps` of
    {"nodes", "facility", "capacity", "edges", "groups"}, written directly
    for the reason `serialize_schedule` is. An edge capacity equal to the
    uniform one is omitted."""
    cap = inst.capacity
    caps = inst.edge_capacities
    edges = []
    for k in range(1, inst.nodes):
        head = (f'    {{\n      "from": {k},\n      "to": {k + 1},\n'
                f'      "distance": {inst.distances[k - 1]}')
        if caps is not None and caps[k - 1] != cap:
            edges.append(f'{head},\n      "capacity": {caps[k - 1]}\n    }}')
        else:
            edges.append(head + "\n    }")
    groups = [f'    {{\n      "id": {encode_basestring(gid)},\n'
              f'      "node": {v},\n      "size": {size},\n'
              f'      "weight": {w}\n    }}' for gid, v, size, w
              in zip(inst.ids, inst.origins, inst.sizes, inst.weights)]
    return (f'{{\n  "nodes": {inst.nodes},\n  "facility": {inst.facility},\n'
            f'  "capacity": {cap},\n  "edges": {_array(edges)},\n'
            f'  "groups": {_array(groups)}\n}}\n')


def serialize_packing_instance(inst: PackingInstance) -> str:
    """The canonical packing-instance text: `_dumps` of {"capacity",
    "items": [{"id", "size", "weight", "ready"}, ...]}. Only `gen
    --packing` writes it, so the plain encoder is fast enough."""
    return _dumps({"capacity": inst.capacity, "items": [
        {"id": iid, "size": size, "weight": weight, "ready": ready}
        for iid, size, weight, ready in zip(
            inst.ids, inst.sizes, inst.weights, inst.ready)]})


# one move of a schedule file, filled by `%` with its time, its node and its
# rendered group list; `%s` renders an int as an f-string does
_MOVE = ('    {\n      "time": %s,\n      "node": %s,\n'
         '      "groups": %s\n    }')


def serialize_schedule(sched: Schedule) -> str:
    """The canonical schedule text, the same bytes as `_dumps` of
    {"moves": [{"time", "node", "groups"}, ...]}, written directly because
    `json.dumps` with an indent runs the pure-Python encoder. The rows are
    written in the order given, the (time, node) order a `Schedule` keeps.

    The text is one template, `_MOVE` once per row, filled by one `%`
    from a flat list of each row's time, node and group list. Each
    distinct group list is rendered once, and every later row that
    carries it reuses the text: `assemble_schedule` gives every row along
    a bin's route the same tuple.
    """
    rows = sched.rows
    rendered: dict[tuple[str, ...], str] = {}
    fields: list[int | str] = []
    append = fields.append
    for t, v, ids in rows:
        groups = rendered.get(ids)
        if groups is None:
            groups = rendered[ids] = ("[\n        " + ",\n        ".join(
                map(encode_basestring, ids)) + "\n      ]") if ids else "[]"
        append(t)
        append(v)
        append(groups)
    return ('{\n  "moves": ' + _array([_MOVE] * len(rows)) + "\n}\n") \
        % tuple(fields)
