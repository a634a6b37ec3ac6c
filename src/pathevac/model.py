"""Core data model: path instances, packings, schedules, JSON round-trips.

All times are integer epochs. Departures happen at epochs t >= 1 and draw
from the previous epoch's occupancy; a group that departs node v at epoch t
over an edge of distance d joins the far node's occupancy at epoch t + d - 1
and may depart again from epoch t + d. A group's arrival time is the first
epoch it occupies the facility node (0 for groups that start there).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterable, Mapping


class InstanceError(ValueError):
    """An input document violates the model invariants.

    Carries every violation found, not just the first one.
    """

    def __init__(self, violations: Iterable[str]):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Group:
    """An indivisible evacuee group sitting at a node of the path."""

    id: str
    node: int    # origin node, 1-based
    size: int    # head count; moves as one block against edge capacity
    weight: int  # cost multiplier on the arrival epoch


@dataclass(frozen=True)
class PathInstance:
    """A path network on nodes 1..n with a facility and uniform capacity.

    distances[k-1] is the travel time of edge {k, k+1}. edge_capacities,
    when present, are per-edge overrides honoured by validation and
    simulation only; the solvers require the uniform capacity.
    """

    nodes: int
    facility: int
    capacity: int
    distances: tuple[int, ...]
    groups: tuple[Group, ...]
    edge_capacities: tuple[int, ...] | None = None

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
        return self.edge_capacities is None or all(
            c == self.capacity for c in self.edge_capacities
        )

    def path_distance(self, i: int, j: int) -> int:
        """Sum of edge distances between nodes i and j."""
        lo, hi = (i, j) if i <= j else (j, i)
        return sum(self.distances[lo - 1:hi - 1])

    def group_by_id(self) -> dict[str, Group]:
        return {g.id: g for g in self.groups}


@dataclass(frozen=True)
class PackingItem:
    """One item to be packed into a sequence of capacitated bins."""

    id: str
    size: int
    weight: int
    ready: int  # earliest bin index the item may occupy, >= 1


@dataclass(frozen=True)
class PackingInstance:
    capacity: int
    items: tuple[PackingItem, ...]

    def item_by_id(self) -> dict[str, PackingItem]:
        return {it.id: it for it in self.items}

    @property
    def total_size(self) -> int:
        return sum(it.size for it in self.items)


@dataclass(frozen=True)
class Packing:
    """Items assigned to 1-based bins; bins[j-1] lists bin j's item ids."""

    bins: tuple[tuple[str, ...], ...]

    def bin_of(self) -> dict[str, int]:
        """Map item id -> bin index. Duplicates keep the last bin seen."""
        out: dict[str, int] = {}
        for j, bin_ in enumerate(self.bins, start=1):
            for item_id in bin_:
                out[item_id] = j
        return out


@dataclass(frozen=True)
class Move:
    """All departures from one node at one epoch, toward the facility."""

    time: int
    node: int
    groups: tuple[str, ...]


@dataclass(frozen=True)
class Schedule:
    """A full evacuation plan as a canonically ordered move list."""

    moves: tuple[Move, ...]

    @staticmethod
    def from_map(moves: Mapping[tuple[int, int], Iterable[str]]) -> "Schedule":
        """Build from a {(time, node): group ids} map, dropping empty moves."""
        out = []
        for (t, v) in sorted(moves):
            ids = tuple(moves[(t, v)])
            if ids:
                out.append(Move(time=t, node=v, groups=ids))
        return Schedule(moves=tuple(out))

    def as_map(self) -> dict[tuple[int, int], tuple[str, ...]]:
        return {(m.time, m.node): m.groups for m in self.moves}

    @property
    def horizon(self) -> int:
        """Latest departure epoch; 0 for the empty schedule."""
        return max((m.time for m in self.moves), default=0)


@dataclass(frozen=True)
class FractionalPacking:
    """Divisible assignment: (item id, bin, fraction of the item's size)."""

    entries: tuple[tuple[str, int, Fraction], ...]

    def as_map(self) -> dict[tuple[str, int], Fraction]:
        return {(i, j): f for (i, j, f) in self.entries}


# ---------------------------------------------------------------------------
# validation

def _require_int(errors: list[str], obj: Any, label: str, minimum: int) -> bool:
    # bool is an int subclass; JSON true/false must not pass as 1/0
    if not isinstance(obj, int) or isinstance(obj, bool) or obj < minimum:
        errors.append(f"{label}: expected an integer >= {minimum}, got {obj!r}")
        return False
    return True


def validate_instance(data: Any) -> PathInstance:
    """Check a decoded instance document and build the typed instance.

    Raises InstanceError naming every violated invariant. A one-node path
    (no edges, all groups at the facility) is valid and trivially solved.
    """
    errors: list[str] = []
    if not isinstance(data, Mapping):
        raise InstanceError(["document: expected a JSON object"])

    n_ok = _require_int(errors, data.get("nodes"), "nodes", 1)
    n = data.get("nodes") if n_ok else 1

    fac_ok = _require_int(errors, data.get("facility"), "facility", 1)
    if fac_ok and n_ok and data["facility"] > n:
        errors.append(f"facility: {data['facility']} out of range 1..{n}")
        fac_ok = False

    cap_ok = _require_int(errors, data.get("capacity"), "capacity", 1)

    distances: list[int] = []
    overrides: list[int | None] = []
    edges = data.get("edges")
    if not isinstance(edges, list):
        errors.append("edges: expected a list")
    elif n_ok and len(edges) != n - 1:
        errors.append(f"edges: expected {n - 1} edges covering the path, "
                      f"got {len(edges)}")
    else:
        for k, e in enumerate(edges, start=1):
            if not isinstance(e, Mapping):
                errors.append(f"edges[{k - 1}]: expected an object")
                continue
            if e.get("from") != k or e.get("to") != k + 1:
                errors.append(f"edges[{k - 1}]: must join nodes {k} and {k + 1} "
                              f"in order, got {e.get('from')!r}->{e.get('to')!r}")
            if _require_int(errors, e.get("distance"),
                            f"edges[{k - 1}].distance", 1):
                distances.append(e["distance"])
            if "capacity" in e:
                if _require_int(errors, e["capacity"],
                                f"edges[{k - 1}].capacity", 1):
                    overrides.append(e["capacity"])
            else:
                overrides.append(None)

    groups: list[Group] = []
    raw_groups = data.get("groups")
    if not isinstance(raw_groups, list):
        errors.append("groups: expected a list")
        raw_groups = []
    seen: set[str] = set()
    for idx, g in enumerate(raw_groups):
        if not isinstance(g, Mapping):
            errors.append(f"groups[{idx}]: expected an object")
            continue
        gid = g.get("id")
        if not isinstance(gid, str) or not gid:
            errors.append(f"groups[{idx}].id: expected a non-empty string")
            continue
        if gid in seen:
            errors.append(f"groups: duplicate id {gid!r}")
            continue
        seen.add(gid)
        ok = _require_int(errors, g.get("node"), f"groups[{idx}].node", 1)
        if ok and n_ok and g["node"] > n:
            errors.append(f"groups[{idx}].node: {g['node']} out of range 1..{n}")
            ok = False
        ok &= _require_int(errors, g.get("size"), f"groups[{idx}].size", 1)
        ok &= _require_int(errors, g.get("weight"), f"groups[{idx}].weight", 1)
        if ok:
            groups.append(Group(id=gid, node=g["node"],
                                size=g["size"], weight=g["weight"]))

    if errors:
        raise InstanceError(errors)

    cap = data["capacity"]
    caps = tuple(o if o is not None else cap for o in overrides)
    inst = PathInstance(
        nodes=n,
        facility=data["facility"],
        capacity=cap,
        distances=tuple(distances),
        groups=tuple(groups),
        edge_capacities=caps if any(o is not None for o in overrides) else None,
    )

    # every group must fit through each edge on its way to the facility
    for g in inst.groups:
        lo, hi = sorted((g.node, inst.facility))
        for k in range(lo, hi):
            if g.size > inst.edge_capacity(k):
                errors.append(f"group {g.id!r}: size {g.size} exceeds capacity "
                              f"{inst.edge_capacity(k)} on edge {{{k},{k + 1}}}")
    if errors:
        raise InstanceError(errors)
    return inst


def validate_packing_instance(data: Any) -> PackingInstance:
    """Check a decoded packing-instance document."""
    errors: list[str] = []
    if not isinstance(data, Mapping):
        raise InstanceError(["document: expected a JSON object"])
    cap_ok = _require_int(errors, data.get("capacity"), "capacity", 1)
    items: list[PackingItem] = []
    raw = data.get("items")
    if not isinstance(raw, list):
        errors.append("items: expected a list")
        raw = []
    seen: set[str] = set()
    for idx, it in enumerate(raw):
        if not isinstance(it, Mapping):
            errors.append(f"items[{idx}]: expected an object")
            continue
        iid = it.get("id")
        if not isinstance(iid, str) or not iid:
            errors.append(f"items[{idx}].id: expected a non-empty string")
            continue
        if iid in seen:
            errors.append(f"items: duplicate id {iid!r}")
            continue
        seen.add(iid)
        ok = _require_int(errors, it.get("size"), f"items[{idx}].size", 1)
        ok &= _require_int(errors, it.get("weight"), f"items[{idx}].weight", 1)
        ok &= _require_int(errors, it.get("ready"), f"items[{idx}].ready", 1)
        if ok and cap_ok and it["size"] > data["capacity"]:
            errors.append(f"items[{idx}]: size {it['size']} exceeds "
                          f"capacity {data['capacity']}")
            ok = False
        if ok:
            items.append(PackingItem(id=iid, size=it["size"],
                                     weight=it["weight"], ready=it["ready"]))
    if errors:
        raise InstanceError(errors)
    return PackingInstance(capacity=data["capacity"], items=tuple(items))


# ---------------------------------------------------------------------------
# JSON round-trips (canonical: fixed key order, 2-space indent, newline at EOF)

def _dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError([f"json: {exc}"]) from exc


def serialize_instance(inst: PathInstance) -> str:
    edges = []
    for k in range(1, inst.nodes):
        e: dict[str, Any] = {"from": k, "to": k + 1, "distance": inst.distance(k)}
        if inst.edge_capacities is not None \
                and inst.edge_capacities[k - 1] != inst.capacity:
            e["capacity"] = inst.edge_capacities[k - 1]
        edges.append(e)
    return _dumps({
        "nodes": inst.nodes,
        "facility": inst.facility,
        "capacity": inst.capacity,
        "edges": edges,
        "groups": [{"id": g.id, "node": g.node, "size": g.size,
                    "weight": g.weight} for g in inst.groups],
    })


def parse_instance(text: str) -> PathInstance:
    return validate_instance(_loads(text))


def serialize_packing_instance(inst: PackingInstance) -> str:
    return _dumps({
        "capacity": inst.capacity,
        "items": [{"id": it.id, "size": it.size, "weight": it.weight,
                   "ready": it.ready} for it in inst.items],
    })


def parse_packing_instance(text: str) -> PackingInstance:
    return validate_packing_instance(_loads(text))


def serialize_packing(packing: Packing, objective: int) -> str:
    return _dumps({
        "bins": [list(bin_) for bin_ in packing.bins],
        "objective": objective,
    })


def parse_packing(text: str) -> tuple[Packing, int | None]:
    data = _loads(text)
    errors: list[str] = []
    if not isinstance(data, Mapping):
        raise InstanceError(["document: expected a JSON object"])
    raw = data.get("bins")
    bins: list[tuple[str, ...]] = []
    if not isinstance(raw, list):
        errors.append("bins: expected a list of lists")
    else:
        for j, b in enumerate(raw, start=1):
            if not isinstance(b, list) or \
                    not all(isinstance(x, str) and x for x in b):
                errors.append(f"bins[{j - 1}]: expected a list of item ids")
                continue
            bins.append(tuple(b))
    objective = data.get("objective")
    if objective is not None and (not isinstance(objective, int)
                                  or isinstance(objective, bool)):
        errors.append(f"objective: expected an integer, got {objective!r}")
    if errors:
        raise InstanceError(errors)
    return Packing(bins=tuple(bins)), objective


def serialize_schedule(sched: Schedule) -> str:
    moves = sorted(sched.moves, key=lambda m: (m.time, m.node))
    return _dumps({
        "moves": [{"time": m.time, "node": m.node, "groups": list(m.groups)}
                  for m in moves],
    })


def parse_schedule(text: str) -> Schedule:
    data = _loads(text)
    errors: list[str] = []
    if not isinstance(data, Mapping):
        raise InstanceError(["document: expected a JSON object"])
    raw = data.get("moves")
    if not isinstance(raw, list):
        raise InstanceError(["moves: expected a list"])
    moves: list[Move] = []
    seen: set[tuple[int, int]] = set()
    for idx, m in enumerate(raw):
        if not isinstance(m, Mapping):
            errors.append(f"moves[{idx}]: expected an object")
            continue
        ok = _require_int(errors, m.get("time"), f"moves[{idx}].time", 1)
        ok &= _require_int(errors, m.get("node"), f"moves[{idx}].node", 1)
        ids = m.get("groups")
        if not isinstance(ids, list) or not ids or \
                not all(isinstance(x, str) and x for x in ids):
            errors.append(f"moves[{idx}].groups: expected a non-empty "
                          "list of group ids")
            ok = False
        if not ok:
            continue
        if len(set(ids)) != len(ids):
            errors.append(f"moves[{idx}].groups: duplicate group in one move")
            continue
        key = (m["time"], m["node"])
        if key in seen:
            errors.append(f"moves[{idx}]: duplicate entry for time {key[0]}, "
                          f"node {key[1]}")
            continue
        seen.add(key)
        moves.append(Move(time=m["time"], node=m["node"], groups=tuple(ids)))
    if errors:
        raise InstanceError(errors)
    moves.sort(key=lambda m: (m.time, m.node))
    return Schedule(moves=tuple(moves))


def fraction_str(f: Fraction) -> str:
    """Exact decimal-free rendering, e.g. '21' or '5/2'."""
    return str(f)
