"""Fuzz the files the CLI reads: one odd JSON value in one leaf of one file.

A :class:`Workspace` holds a tiny config, the corpus directory ``gen-corpus``
writes from it and the model ``train`` fits there.  A case (:func:`fault`)
replaces one leaf of one of those files (a scalar, or an empty list or object)
with one value of :data:`VALUES`, runs the command that reads the file through
click's runner, and puts the file back.  The config is read by ``gen-corpus``;
``world.json``, ``confusion.json``, the ``meta`` object of ``manifest.json``
(its ``meta_sha256`` updated to match), one line of ``corpus.jsonl`` (the
manifest's file digest updated to match) and ``model.json`` by ``score
--oracle``.  The command must exit 0, or exit 1
printing the one line ``Error: <path>...`` that names the changed file;
anything else is a fault.

Run as a script, it sweeps every leaf of every file against every value,
prints each group of faults (by exception type and where it was raised, or
by the unexpected output) with its first case, and exits 1 if there is any::

    PYTHONPATH=src python tests/fuzz_files.py

In a list only the first and last items are swept, and in an object keyed
by integers (world ``transitions``, model ``counts``) only the first and last
entries: the others are alike.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import re
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path

from click.testing import CliRunner

from denoiselab.cli import main as cli_main
from denoiselab.config import experiment_config_from_dict
from denoiselab.harness import config_hash, sha256_file

VALUES = (None, True, False, 0, 1, -1, 0.5, 2**31, 2**62, 2**63, -2**63 - 1, 10**400,
          float("nan"), float("inf"), float("-inf"), "", "x", [], [0], {}, {"a": 0})
TARGETS = ("config", "world.json", "confusion.json", "manifest.json", "corpus.jsonl",
           "model.json")
_INT_KEY = re.compile(r"-?\d+(,-?\d+)*")


def config_doc() -> dict:
    """Every key of a tiny experiment's config."""
    return json.loads(json.dumps(dataclasses.asdict(experiment_config_from_dict({
        "world": {"vocab_size": 8, "support": 3, "weight_low": 0.05, "weight_high": 1.0},
        "confusion": {"candidates": 2, "head_mass": 0.8, "context_affinity": 0.6},
        "dr_sentences": 60, "do_sentences": 20, "eval_sentences": 20,
        "length_range": [4, 7], "volume_sizes": [50, 100]}))))


def leaves(node, path: tuple = ()):
    """Paths to the leaves of a JSON document, sampled as the module docstring says."""
    if isinstance(node, dict) and node:
        keys = list(node)
        if len(keys) > 2 and all(map(_INT_KEY.fullmatch, keys)):
            keys = [keys[0], keys[-1]]
        for key in keys:
            yield from leaves(node[key], (*path, key))
    elif isinstance(node, list) and node:
        for k in sorted({0, len(node) - 1}):
            yield from leaves(node[k], (*path, k))
    else:
        yield path


def replaced(doc, path: tuple, value):
    """A copy of ``doc`` with ``value`` at ``path``."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def _run(args: list[str]):
    return CliRunner().invoke(cli_main, args)


class Workspace:
    """A tiny config, corpus directory and model, and the swept leaves of each file."""

    def __init__(self, root: Path):
        self.out = str(root / "out")
        config, corpus, model = root / "config.json", root / "corpus", root / "model"
        config.write_text(json.dumps(config_doc()))
        for args in (["gen-corpus", "--out-dir", str(corpus)],
                     ["train", "--corpus-dir", str(corpus), "--out-dir", str(model)]):
            result = _run([*args, "--config", str(config)])
            assert result.exit_code == 0, result.output
        self.manifest = corpus / "manifest.json"
        self.paths = {"config": config, "model.json": model / "model.json",
                      **{name: corpus / name for name in TARGETS[1:5]}}
        self.texts = {name: path.read_text() for name, path in self.paths.items()}
        self.docs = {name: json.loads(text) for name, text in self.texts.items()
                     if name != "corpus.jsonl"}
        lines = self.texts["corpus.jsonl"].splitlines(keepends=True)
        self.line = next(k for k, line in enumerate(lines) if json.loads(line)["edits"])
        self.docs["corpus.jsonl"] = json.loads(lines[self.line])
        self.leaves = {name: list(leaves(doc)) for name, doc in self.docs.items()}
        self.leaves["manifest.json"] = list(leaves(self.docs["manifest.json"]["meta"],
                                                   ("meta",)))
        self.commands = {name: ["score", "--oracle", "--config", str(config), "--model",
                                str(model / "model.json"), "--corpus-dir", str(corpus)]
                         for name in TARGETS}
        self.commands["config"] = ["gen-corpus", "--config", str(config)]

    def write(self, target: str, path: tuple, value) -> None:
        """Put ``value`` at ``path`` of ``target``; the manifest's digests follow."""
        doc = replaced(self.docs[target], path, value)
        if target == "manifest.json":
            doc["meta_sha256"] = config_hash(doc["meta"])
        text = json.dumps(doc)
        if target == "corpus.jsonl":
            lines = self.texts[target].splitlines(keepends=True)
            lines[self.line] = text + "\n"
            text = "".join(lines)
        self.paths[target].write_text(text)
        if target in ("world.json", "confusion.json", "corpus.jsonl"):
            manifest = copy.deepcopy(self.docs["manifest.json"])
            manifest["files"][target] = sha256_file(self.paths[target])
            self.manifest.write_text(json.dumps(manifest))

    def restore(self) -> None:
        for name, path in self.paths.items():
            path.write_text(self.texts[name])


def fault(ws: Workspace, target: str, path: tuple, value) -> tuple[str, str] | None:
    """None when the command reading ``target`` with ``value`` at ``path`` succeeds or
    names the file in one error line; else the fault's group and its detail."""
    try:
        ws.write(target, path, value)
        result = _run([*ws.commands[target], "--out-dir", ws.out])
    finally:
        ws.restore()
    named = f"Error: {ws.paths[target]}"
    if result.exit_code == 0 or (result.exit_code == 1 and result.output.startswith(named)
                                 and result.output.count("\n") == 1):
        return None
    if isinstance(result.exception, SystemExit):
        return f"exit {result.exit_code}: {result.output.strip()[:120]}", result.output
    exc = result.exception
    where = traceback.extract_tb(exc.__traceback__)[-1]
    detail = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    return f"{type(exc).__name__} at {Path(where.filename).name}:{where.lineno}", detail


def sweep(ws: Workspace) -> tuple[int, dict[str, list]]:
    """Every case; the number run and the faults by group."""
    groups, n = defaultdict(list), 0
    for target in TARGETS:
        for path in ws.leaves[target]:
            for value in VALUES:
                n += 1
                found = fault(ws, target, path, value)
                if found:
                    groups[found[0]].append((target, path, value, found[1]))
    return n, groups


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        n, groups = sweep(Workspace(Path(tmp)))
    for group, cases in sorted(groups.items()):
        target, path, value, detail = cases[0]
        print(f"== {len(cases)} cases: {group}\nfirst: {target} {list(path)} = {value!r:.40}")
        print(detail.rstrip())
    faults = sum(map(len, groups.values()))
    print(f"{n} cases, {faults} faults in {len(groups)} groups")
    return 1 if groups else 0


if __name__ == "__main__":
    sys.exit(main())
