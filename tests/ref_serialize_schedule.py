"""The schedule writer before it rendered each group list once, kept as a
test-only reference.

This is `pathevac.model.serialize_schedule` as it was when every move
re-encoded its group ids and every schedule went through a sort. It is
deliberately left as it was, so the differential tests can require the
same text from the two writers on any schedule.
"""

from __future__ import annotations

from json.encoder import encode_basestring
from operator import attrgetter

from pathevac.model import Schedule


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
