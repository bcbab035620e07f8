"""Sentence-level evaluation metrics, per-category filter rates, and reports.

Correction metrics follow the sentence-level convention: a true positive is
an erroneous sentence the model changed and restored exactly; precision runs
over sentences the model changed at all, recall over sentences containing at
least one planted error.  The false positive rate is the share of evaluated
sentences in which some initially-correct token got modified, among
sentences containing at least one initially-correct token.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._jsonfile import checked_object, load_file
from .augment import CATEGORIES, PairCorpus, SampleCategory
from .calibration import CalibrationReport, write_reliability_csv
from .corrector import _argmax_keep_ties


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float
    fpr: float


def sentence_metrics(corpus: PairCorpus, out: np.ndarray) -> Metrics:
    """Metrics of the flat decode ``out`` of ``corpus`` (as ``predict_matrix`` returns
    it), reduced per sentence with one bincount per flag."""
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    owner = np.repeat(np.arange(len(corpus)), corpus.lengths)
    clean, corr = corpus.clean, corpus.corrupted

    def any_in_sentence(flags: np.ndarray) -> np.ndarray:
        return np.bincount(owner[flags], minlength=len(corpus)) > 0

    has_error = any_in_sentence(clean != corr)
    changed = any_in_sentence(out != corr)
    exact = ~any_in_sentence(out != clean)
    tp = int(np.sum(has_error & changed & exact))

    n_modified = int(changed.sum())
    n_err = int(has_error.sum())
    precision = 100.0 * tp / n_modified if n_modified > 0 else 0.0
    recall = 100.0 * tp / n_err if n_err > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0

    correct_pos = clean == corr
    broke_correct = any_in_sentence(correct_pos & (out != corr))
    has_correct = any_in_sentence(correct_pos)
    denom = int(has_correct.sum())
    fpr = 100.0 * int(np.sum(broke_correct & has_correct)) / denom if denom > 0 else 0.0
    return Metrics(precision, recall, f1, fpr)


def evaluate(model, corpus: PairCorpus) -> Metrics:
    """Sentence-level correction metrics of a model over a pair corpus.

    ``model`` is any scorer with a batched ``predict_at``; every position is
    decoded to its argmax, ties keeping the written token.
    """
    rows = model.predict_at(corpus, np.arange(corpus.n_chars))
    return sentence_metrics(corpus, _argmax_keep_ties(rows, corpus.corrupted))


@dataclass(frozen=True)
class CategoryRate:
    reverted: int
    total: int

    @property
    def ratio(self) -> float:
        return self.reverted / self.total if self.total > 0 else 0.0


def category_filter_rates(before: PairCorpus, after: PairCorpus) -> dict[SampleCategory, CategoryRate]:
    """Per-category share of edits a filtering pass reverted.

    ``before`` must carry category annotations; ``after`` is the filtered
    corpus aligned record-by-record (same clean sides).
    """
    if len(before) != len(after):
        raise ValueError("corpora have different record counts")
    if before.category is None:
        raise ValueError("before-corpus lacks category annotations")
    if not (before.clean is after.clean or (np.array_equal(before.offsets, after.offsets)
                                            and np.array_equal(before.clean, after.clean))):
        raise ValueError("corpora are not aligned on their clean sides")
    surviving = np.zeros(after.n_chars, dtype=bool)
    surviving[after.flat_pos] = True
    totals = np.bincount(before.category, minlength=len(CATEGORIES)).tolist()
    reverted = np.bincount(before.category[~surviving[before.flat_pos]],
                           minlength=len(CATEGORIES)).tolist()
    return {c: CategoryRate(reverted[k], totals[k]) for k, c in enumerate(CATEGORIES)}


METRICS_HEADER = ["variant", "p", "size", "P", "R", "F1", "FPR", "ECE", "seed"]


@dataclass(frozen=True)
class MetricsRow:
    variant: str
    p: float
    size: int
    metrics: Metrics
    ece: float
    seed: int

    def as_csv(self) -> list[str]:
        m = self.metrics
        return [self.variant, f"{self.p:.6g}", str(self.size),
                f"{m.precision:.4f}", f"{m.recall:.4f}", f"{m.f1:.4f}",
                f"{m.fpr:.4f}", f"{self.ece:.6f}", str(self.seed)]


def write_metrics_csv(rows: list[MetricsRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(METRICS_HEADER)
        for row in rows:
            writer.writerow(row.as_csv())


def sha256_file(path: str | Path) -> str:
    h, buf = hashlib.sha256(), memoryview(bytearray(2**20))  # 1 MiB at a time, not the file
    with open(path, "rb") as fh:
        while n := fh.readinto(buf):
            h.update(buf[:n])
    return h.hexdigest()


def config_hash(config_doc: dict) -> str:
    canonical = json.dumps(config_doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_manifest(out_dir: str | Path, config_doc: dict, seed: int,
                   files: dict[str, str | Path], meta: dict | None = None) -> Path:
    """Write ``manifest.json``: config hash, seed, versions, a digest per file, and
    ``meta`` (when given) with its digest ``meta_sha256``."""
    manifest = {
        "config_hash": config_hash(config_doc),
        "seed": seed,
        "versions": {"denoiselab": __version__, "numpy": np.__version__},
        "files": {name: sha256_file(p) for name, p in sorted(files.items())},
    }
    if meta:
        manifest["meta"], manifest["meta_sha256"] = meta, config_hash(meta)
    path = Path(out_dir) / "manifest.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def emit_report(out_dir: str | Path, *, metrics_rows: list[MetricsRow],
                reliability: CalibrationReport | None = None,
                config_doc: dict, seed: int,
                extra_files: dict[str, str | Path] | None = None) -> dict[str, Path]:
    """Write metrics.csv, optional reliability.csv, and a hashing manifest.

    Outputs are byte-identical across reruns with the same inputs: no
    timestamps, sorted keys, fixed float formatting.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, Path] = {}

    metrics_path = out / "metrics.csv"
    write_metrics_csv(metrics_rows, metrics_path)
    written["metrics.csv"] = metrics_path

    if reliability is not None:
        rel_path = out / "reliability.csv"
        write_reliability_csv(reliability, rel_path)
        written["reliability.csv"] = rel_path

    for name, src in (extra_files or {}).items():
        written[name] = Path(src)

    written["manifest.json"] = write_manifest(out, config_doc, seed, written)
    return written


def read_manifest(out_dir: str | Path, meta: dict | None = None) -> dict:
    """A run directory's ``manifest.json``, with a digest per plain file name in ``files``
    and, when ``meta`` names fields (see :func:`typed`), a ``meta`` object holding them;
    ValueError naming the file otherwise, or when a ``meta`` differs from its digest."""
    path = Path(out_dir) / "manifest.json"
    if not path.is_file():
        raise ValueError(f"{out_dir}: no manifest.json")
    fields = {"files": dict[str, str], **({"meta": meta, "meta_sha256": str} if meta else {})}

    def checked(text: str) -> dict:
        doc = checked_object(text, fields)
        for name in doc["files"]:
            if name in ("", ".", "..") or "/" in name or "\0" in name:
                raise ValueError(f"'files' must map plain file names to digests, got {name!r}")
        if "meta" in doc and doc.get("meta_sha256") != config_hash(doc["meta"]):
            raise ValueError("'meta' differs from its digest 'meta_sha256'")
        return doc
    return load_file(path, checked)


def verify_manifest(out_dir: str | Path) -> tuple[bool, dict[str, bool]]:
    """Recompute file hashes recorded in a run directory's manifest; its ``meta`` digest is
    checked on the read (see :func:`read_manifest`)."""
    out = Path(out_dir)
    checks = {}
    for name, digest in read_manifest(out)["files"].items():
        path = out / name
        checks[name] = path.is_file() and sha256_file(path) == digest
    return all(checks.values()), checks
