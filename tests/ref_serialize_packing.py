"""The packing writers before they were written directly, kept as test-only
code.

`ref_serialize_packing_instance` is `pathevac.model.serialize_packing_instance`
as it was when it built the document and handed it to
`json.dumps(indent=2)`; it is deliberately left as it was, so the tests can
require the same text from the two forms of the writer.
`ref_serialize_packing` writes the packing document (bins 1 to the last
one, empty bins included) that only the `oracle --packing` witness holds
in the package; the round-trip tests of `checkers.parse_packing` write
their input with it.
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
