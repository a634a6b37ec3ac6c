"""The schedule reader before its single-guard loop, kept as a test-only
reference.

This is `pathevac.model.parse_schedule` as it was when every move went
through two `_require_int` calls, a `seen` set of keys and a keyword-built
`Move`, and every schedule through a sort. It is deliberately left as it
was, so the differential tests can require the same `Schedule`, or the
same `InstanceError.violations`, from the two readers on any document.
"""

from __future__ import annotations

from pathevac.model import InstanceError, Move, Schedule
from ref_field_checks import _is_mapping, _loads, _require_int


def ref_parse_schedule(text: str) -> Schedule:
    data = _loads(text)
    errors: list[str] = []
    if not _is_mapping(data):
        raise InstanceError(["document: expected a JSON object"])
    raw = data.get("moves")
    if not isinstance(raw, list):
        raise InstanceError(["moves: expected a list"])
    moves: list[Move] = []
    seen: set[tuple[int, int]] = set()
    for idx, m in enumerate(raw):
        if not _is_mapping(m):
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
