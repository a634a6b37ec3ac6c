"""The instance reader before its single-guard loop, kept as a test-only
reference.

This is `pathevac.model.validate_instance`, the checks `parse_instance`
makes on the decoded document, as it was when every group went through
three `_require_int` calls and a keyword-built `Group`, and every group
walked every edge on its route to the facility in the capacity check. It
is deliberately left as it was (its edge `from`/`to` check also still lets
`true` and `2.0` pass as 1 and 2), so the differential tests can require
the same `PathInstance`, or the same `InstanceError.violations`, from it
and `parse_instance` on any JSON document whose edge endpoints are exact
ints.
"""

from __future__ import annotations

from typing import Any

from pathevac.model import Group, InstanceError, PathInstance
from ref_field_checks import _is_mapping, _require_int
from ref_items import path_instance


def ref_validate_instance(data: Any) -> PathInstance:
    """Check a decoded instance document and build the typed instance.

    Raises InstanceError naming every violated invariant. A one-node path
    (no edges, all groups at the facility) is valid and trivially solved.
    """
    errors: list[str] = []
    if not _is_mapping(data):
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
            if not _is_mapping(e):
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
        if not _is_mapping(g):
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
    inst = path_instance(
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
