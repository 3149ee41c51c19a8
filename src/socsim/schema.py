"""One rule for every config field: its type is its annotation, its range
the ``range`` in its field metadata, and ``check`` parses it by both. A
``bool`` is only true or false, an ``int`` a whole number and a ``float``
any number, stored as a float; neither number is a bool. A list becomes a
tuple or a frozenset, a JSON object's keys ints, and a string a ``Path``.
A range holds for each number of a value but a dict's keys, which take the
field's ``keys`` range."""

from __future__ import annotations

import dataclasses
import math
import types
from functools import lru_cache
from numbers import Integral, Real
from pathlib import Path
from typing import Any, Literal, NewType, Optional, Union, get_args, get_origin, get_type_hints


class SchemaError(ValueError):
    """A trace or config file does not match its documented schema."""

    def __init__(self, message: str, line: Optional[int] = None, path: Optional[Path] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message if path is None else f"{path}: {message}")


# a range is (test, what a value must do to pass it)
POSITIVE = (lambda v: 0 < v < math.inf, "be positive and finite")
NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "be non-negative and finite")
FINITE = (math.isfinite, "be finite")
UNIT = (lambda v: 0 <= v <= 1, "lie in [0, 1]")
OPEN_UNIT = (lambda v: 0 < v < 1, "lie in (0, 1)")
HALF_OPEN_UNIT = (lambda v: 0 <= v < 1, "lie in [0, 1)")
UNIT_ABOVE_ZERO = (lambda v: 0 < v <= 1, "lie in (0, 1]")
# the ids a trace's int64 column holds
AGENT_ID = (lambda v: 0 <= v < 1 << 63, "be an agent id in [0, 2**63)")
AgentId = NewType("AgentId", int)  # an int in AGENT_ID


def ranged(within: tuple, default: Any = dataclasses.MISSING, keys=None, **kwargs) -> Any:
    """A dataclass field whose numbers lie ``within``, a dict's keys in ``keys``."""
    return dataclasses.field(default=default, metadata={"range": within, "keys": keys}, **kwargs)


def check(config) -> None:
    """Parse each field of the dataclass ``config`` in place by its
    annotation and range; the first that fails raises ``SchemaError``."""
    for f, hint in _fields(type(config)):
        ranges = f.metadata.get("range"), f.metadata.get("keys")
        object.__setattr__(config, f.name, _parse(getattr(config, f.name), hint, f.name, *ranges))


def build(cls, raw, key: str):
    """``cls`` from the JSON object ``raw`` found at the dotted ``key``,
    which prefixes the name of a field that fails."""
    if not isinstance(raw, dict):
        raise SchemaError(f"{key} must be an object, got {raw!r}")
    try:
        return cls(**raw)
    except SchemaError as exc:
        raise SchemaError(f"{key}.{exc}") from None


@lru_cache(maxsize=None)
def _fields(cls) -> tuple:
    hints = get_type_hints(cls)
    return tuple((f, hints[f.name]) for f in dataclasses.fields(cls))


def _parse(value, hint, key: str, within=None, keys=None):
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, types.UnionType) and type(None) in args:
        return None if value is None else _parse(value, args[0], key, within)
    if origin is Literal:
        if value in args:
            return value
        raise SchemaError(f"{key} must be one of {', '.join(map(repr, args))}, got {value!r}")
    if origin in (tuple, frozenset):
        if not isinstance(value, (list, tuple, origin)):
            raise SchemaError(f"{key} must be a list, got {value!r}")
        if origin is frozenset or args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise SchemaError(f"{key} must have {len(args)} items, got {value!r}")
        return origin(_parse(v, a, key, within) for v, a in zip(value, args))
    if origin is dict:
        if not isinstance(value, dict):
            raise SchemaError(f"{key} must be an object, got {value!r}")
        parsed = {}
        for k, v in value.items():
            k = int(k) if isinstance(k, str) and k.removeprefix("-").isdecimal() else k
            parsed[_parse(k, args[0], key, keys)] = _parse(v, args[1], key, within)
        return parsed
    if hint is bool:
        if isinstance(value, bool):
            return value
        raise SchemaError(f"{key} must be true or false, got {value!r}")
    if hint in (int, float, AgentId):
        kind = "a number" if hint is float else "a whole number"
        whole = isinstance(value, Integral) or isinstance(value, float) and value.is_integer()
        if isinstance(value, bool) or not (isinstance(value, Real) if hint is float else whole):
            raise SchemaError(f"{key} must be {kind}, got {value!r}")
        value = float(value) if hint is float else int(value)
        for test, text in filter(None, (within, AGENT_ID if hint is AgentId else None)):
            if not test(value):
                raise SchemaError(f"{key} must {text}, got {value!r}")
        return value
    if hint is Path and isinstance(value, str):
        return Path(value)
    if isinstance(value, hint):
        return value
    raise SchemaError(f"{key} must be a {getattr(hint, '__name__', hint)}, got {value!r}")
