"""The readers' field checks before every reader took JSON text only,
kept as test-only copies for `ref_validate_instance`, `ref_parse_schedule`
and `checkers.parse_packing`, so those stay as they were.

`_is_mapping` accepts any `Mapping` and `_require_int` any `int` subclass
but `bool`; on decoded JSON, where every object is a `dict` and every
integer an exact `int`, both judge as the readers' type-exact tests do.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Any

from pathevac.model import InstanceError


def _is_mapping(obj: Any) -> bool:
    # a decoded JSON object is a plain dict; the abstract check is slow
    return type(obj) is dict or isinstance(obj, Mapping)


def _require_int(errors: list[str], obj: Any, label: str, minimum: int) -> bool:
    # bool is an int subclass; JSON true/false must not pass as 1/0
    if not isinstance(obj, int) or isinstance(obj, bool) or obj < minimum:
        errors.append(f"{label}: expected an integer >= {minimum}, got {obj!r}")
        return False
    return True


def _loads(text: str) -> Any:
    # besides JSONDecodeError (a ValueError), the decoder raises a bare
    # ValueError on an integer past the int digit limit and RecursionError
    # on deeply nested arrays or objects
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InstanceError([f"json: {exc}"]) from exc
