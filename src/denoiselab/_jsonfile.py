"""Checked reads of the lab's JSON files: errors name the file, the line or the field.

One checker, :func:`typed`, reads what a field takes off its type hint.  Its
number rule holds for every number: a JSON integer must fit in int64 and a
JSON float must be finite, so NaN, ±Infinity, 2**63 and 10**400 are refused.
"""

from __future__ import annotations

import json
import math
import types
import typing
from pathlib import Path

_CONTAINERS = {dict: "an object", list: "a list", tuple: "a list"}


def fits_int64(value: int) -> bool:
    return -2**63 <= value < 2**63


def typed(where: str, value, hint):
    """``value`` as a field of type ``hint`` takes it; ValueError naming ``where`` otherwise.

    ``hint`` is a type hint, or a dict naming the fields of an object.  A JSON
    list becomes a tuple where the field is one, and a bare ``dict`` leaves its
    items to the reader.  A bool is not an int; an int may stand for a float.
    """
    if isinstance(hint, dict):  # an object holding each named field
        value = typed(where, value, dict)
        for key, field in hint.items():
            name = f"{where}.{key}" if where else key
            if key not in value:
                raise ValueError(f"missing field {name!r}")
            value[key] = typed(name, value[key], field)
        return value
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        if value is None and type(None) in args:
            return None
        (hint,) = (a for a in args if a is not type(None))
        return typed(where, value, hint)
    kind = origin or hint
    if kind in _CONTAINERS:
        if type(value) is not (dict if kind is dict else list):
            raise ValueError(f"{where}: expected {_CONTAINERS[kind]}, got {type(value).__name__}")
        if kind is dict:
            return {k: typed(f"{where}.{k}", v, args[1])
                    for k, v in value.items()} if args else value
        if kind is list and args[0] in (int, float):  # the whole list first; items word errors
            kinds = set(map(type, value))
            if kinds == {int} and fits_int64(min(value)) and fits_int64(max(value)) or (
                    args[0] is float and kinds == {float} and all(map(math.isfinite, value))):
                return value
        if kind is tuple and Ellipsis not in args and len(value) != len(args):
            raise ValueError(f"{where}: expected {len(args)} items, got {len(value)}")
        items = [typed(f"{where}[{k}]", v, args[0] if Ellipsis in args or kind is list
                       else args[k]) for k, v in enumerate(value)]
        return tuple(items) if kind is tuple else items
    if type(value) is not hint and not (type(value) is int and hint is float):
        raise ValueError(f"{where}: expected {hint.__name__}, got {type(value).__name__}")
    if type(value) is int and not fits_int64(value):
        raise ValueError(f"{where}: expected an int64 integer, got {value}")
    if type(value) is float and not math.isfinite(value):
        raise ValueError(f"{where}: expected a finite number, got {value}")
    return value


def checked_object(text: str, fields: dict) -> dict:
    """The JSON object in ``text``, holding every field of ``fields`` (name: type hint)
    as :func:`typed` takes it."""
    doc = json.loads(text)
    if type(doc) is not dict:
        raise ValueError("expected a JSON object")
    return typed("", doc, fields)


def load_file(path: str | Path, from_json):
    """``from_json`` of the text of ``path``; a ValueError is raised again naming the
    file, and the line where the text is not JSON."""
    try:
        return from_json(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
