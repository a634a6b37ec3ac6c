"""Two earlier schedule writers, kept as test-only references.

`ref_serialize_schedule` is `pathevac.model.serialize_schedule` as it was
when every move re-encoded its group ids and every schedule went through a
sort. `ref_serialize_schedule_per_move` is the writer that replaced it,
as it was while it formatted each move with its own f-string and joined
the texts, before one `%` filled a template of the whole file. Both are
deliberately left as they were, so the differential tests can require the
same text from every writer on any schedule.
"""

from __future__ import annotations

from json.encoder import encode_basestring
from operator import attrgetter

from pathevac.model import Schedule, _array


def ref_serialize_schedule(sched: Schedule) -> str:
    """The canonical schedule text, the same bytes as `_dumps` of
    {"moves": [{"time", "node", "groups"}, ...]}, written directly because
    `json.dumps` with an indent runs the pure-Python encoder."""
    moves = sorted(sched.moves, key=attrgetter("time", "node"))
    if not moves:
        return '{\n  "moves": []\n}\n'
    parts = []
    for m in moves:
        if m.groups:
            ids = ",\n        ".join(map(encode_basestring, m.groups))
            groups = f"[\n        {ids}\n      ]"
        else:
            groups = "[]"
        parts.append(f'    {{\n      "time": {m.time},\n'
                     f'      "node": {m.node},\n'
                     f'      "groups": {groups}\n    }}')
    return '{\n  "moves": [\n' + ",\n".join(parts) + "\n  ]\n}\n"


def ref_serialize_schedule_per_move(sched: Schedule) -> str:
    """The canonical schedule text, the same bytes as `_dumps` of
    {"moves": [{"time", "node", "groups"}, ...]}, written directly because
    `json.dumps` with an indent runs the pure-Python encoder. The moves are
    written in the order given, the (time, node) order a `Schedule` keeps.

    Each distinct group list is rendered once, and every later move that
    carries it reuses the text: `assemble_schedule` gives every move along
    a bin's route the same tuple.
    """
    rendered: dict[tuple[str, ...], str] = {}
    texts: list[str] = []
    append = texts.append
    for m in sched.moves:
        ids = m.groups
        groups = rendered.get(ids)
        if groups is None:
            groups = rendered[ids] = ("[\n        " + ",\n        ".join(
                map(encode_basestring, ids)) + "\n      ]") if ids else "[]"
        append(f'    {{\n      "time": {m.time},\n      "node": {m.node},\n'
               f'      "groups": {groups}\n    }}')
    return '{\n  "moves": ' + _array(texts) + "\n}\n"
