"""The instance writer before it was written directly, kept as a test-only
reference.

This is `pathevac.model.serialize_instance` as it was when it built the
document and handed it to `json.dumps(indent=2)`. It is deliberately left
as it was, so the tests can require the same text from the two writers on
any instance.
"""

from __future__ import annotations

import json
from typing import Any

from pathevac.model import PathInstance


def ref_serialize_instance(inst: PathInstance) -> str:
    edges = []
    for k in range(1, inst.nodes):
        e: dict[str, Any] = {"from": k, "to": k + 1, "distance": inst.distance(k)}
        if inst.edge_capacities is not None \
                and inst.edge_capacities[k - 1] != inst.capacity:
            e["capacity"] = inst.edge_capacities[k - 1]
        edges.append(e)
    return json.dumps({
        "nodes": inst.nodes,
        "facility": inst.facility,
        "capacity": inst.capacity,
        "edges": edges,
        "groups": [{"id": g.id, "node": g.node, "size": g.size,
                    "weight": g.weight} for g in inst.groups],
    }, indent=2, ensure_ascii=False) + "\n"
