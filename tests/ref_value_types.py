"""The value types before their `__init__` was written by hand, kept as a
test-only reference.

These are `pathevac.model.Group` and `PackingItem` as they were when the
dataclass generated their `__init__`, which sets each field with
`object.__setattr__`. They are deliberately left as they were, so the
tests can require the same fields, equality, hash, repr and
`dataclasses.replace` result from the two forms of each type. `Move`
uses the generated `__init__` again, so it has one form.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Group:
    """An indivisible evacuee group sitting at a node of the path."""

    id: str
    node: int    # origin node, 1-based
    size: int    # head count; moves as one block against edge capacity
    weight: int  # cost multiplier on the arrival epoch


@dataclass(frozen=True, slots=True)
class PackingItem:
    """One item to be packed into a sequence of capacitated bins."""

    id: str
    size: int
    weight: int
    ready: int  # earliest bin index the item may occupy, >= 1

