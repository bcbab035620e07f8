"""Config file loading and checking.

Experiment configs are plain nested dataclasses; the JSON form mirrors the
dataclass structure section by section, and a key it omits keeps the default
experiment's value.  Unknown keys (a seed among them: ``--seed`` sets it)
and a ``confusion.head_mass`` beside a single candidate are rejected so typos
and ignored settings fail loudly.  ``dataclasses.asdict`` of a config feeds
the manifest's config hash, where JSON writes each tuple as a list.
"""

from __future__ import annotations

import dataclasses
import json
import typing
from pathlib import Path

from ._jsonfile import load_file, typed
from .pipeline import ExperimentConfig

_SECTIONS = ("world", "confusion", "corrector", "filter")


def _typed_fields(cls, doc: dict, prefix: str = "") -> dict:
    hints = typing.get_type_hints(cls)
    return {k: typed(f"{prefix}{k}", v, hints[k]) for k, v in doc.items()}


def _build_section(default, doc, name: str):
    """The section ``default`` with the values ``doc`` sets."""
    typed(name, doc, dict)
    cls = type(default)
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(doc) - names
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    values = _typed_fields(cls, doc, f"{name}.")
    try:
        section = dataclasses.replace(default, **values)
    except ValueError as exc:  # a rule of the section's own fields
        raise ValueError(f"{name}: {exc}") from None
    if name == "confusion" and "head_mass" in doc and section.candidates == 1:
        raise ValueError("confusion.head_mass: unused with 1 candidate")  # no long tail to shape
    return section


def experiment_config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ValueError(f"expected an object, got {type(doc).__name__}")
    doc = dict(doc)
    defaults = ExperimentConfig()
    kwargs = {}
    for section in _SECTIONS:
        if section in doc:
            kwargs[section] = _build_section(getattr(defaults, section), doc.pop(section),
                                             section)
    top_names = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(doc) - top_names
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return ExperimentConfig(**kwargs, **_typed_fields(ExperimentConfig, doc))


def load_experiment_config(path: str | Path | None) -> ExperimentConfig:
    """The config in a JSON file (defaults when ``path`` is None).

    Bad JSON, a section that is not an object, a list field that is not a
    list, a value of the wrong type or out of range, an unknown key and a
    ``head_mass`` that one candidate leaves unused raise ``ValueError`` naming
    the file, and the line or the field.
    """
    if path is None:
        return ExperimentConfig()
    return load_file(path, lambda text: experiment_config_from_dict(json.loads(text)))
