"""Checked reads of the lab's JSON files: errors name the file, the line or the field."""

from __future__ import annotations

import json
from pathlib import Path


def is_int(value) -> bool:
    return type(value) is int  # a JSON integer: not a float, not a bool


def is_number(value) -> bool:
    return type(value) in (int, float)


def list_of(holds):
    return lambda value: type(value) is list and all(map(holds, value))


def checked_object(text: str, fields: dict) -> dict:
    """The JSON object in ``text``, with every field of ``fields`` (name: (what
    it must be, its test)) present and passing its test."""
    doc = json.loads(text)
    if type(doc) is not dict:
        raise ValueError("expected a JSON object")
    for key, (kind, holds) in fields.items():
        if key not in doc:
            raise ValueError(f"missing field {key!r}")
        if not holds(doc[key]):
            raise ValueError(f"field {key!r} must be {kind}")
    return doc


def load_file(path: str | Path, from_json):
    """``from_json`` of the text of ``path``; a ValueError, or an OverflowError
    from a number too large for its array, is raised again as a ValueError
    naming the file, and the line where the text is not JSON."""
    try:
        return from_json(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from None
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None
