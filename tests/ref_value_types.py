"""The value type before its `__init__` was written by hand, kept as a
test-only reference.

This is `pathevac.model.PackingItem` as it was when the dataclass
generated its `__init__`, which sets each field with `object.__setattr__`.
It is deliberately left as it was, so the tests can require the same
fields, equality, hash, repr and `dataclasses.replace` result from the two
forms of the type. `Group` and `Move` use the generated `__init__` again,
so each has one form.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class PackingItem:
    """One item to be packed into a sequence of capacitated bins."""

    id: str
    size: int
    weight: int
    ready: int  # earliest bin index the item may occupy, >= 1
