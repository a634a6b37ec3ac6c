"""The packing writers before they were written directly, kept as test-only
references.

These are `pathevac.model.serialize_packing_instance` and
`serialize_packing` as they were when they built the document and handed
it to `json.dumps(indent=2)`. They are deliberately left as they were, so
the tests can require the same text from the two forms of each writer.
"""

from __future__ import annotations

import json
from typing import Any

from pathevac.model import Packing, PackingInstance


def _dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def ref_serialize_packing_instance(inst: PackingInstance) -> str:
    return _dumps({
        "capacity": inst.capacity,
        "items": [{"id": it.id, "size": it.size, "weight": it.weight,
                   "ready": it.ready} for it in inst.items],
    })


def ref_serialize_packing(packing: Packing, objective: int) -> str:
    last = max(packing.bins, default=0)
    return _dumps({
        "bins": [list(packing.bins.get(j, ())) for j in range(1, last + 1)],
        "objective": objective,
    })
