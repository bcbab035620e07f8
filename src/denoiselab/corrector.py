"""Trainable non-autoregressive corrector backed by smoothed count tables.

The model estimates the probability of each clean token given a small
window of the corrupted sentence, by counting (window signature -> clean
token) pairs over an aligned pair corpus and smoothing with a symmetric
pseudo-count.  A window of (-1, 0, 1) conditions on the observed token and
its neighbors; a center-free window such as (-1, 1) yields the masked
variant used to query what fits a context regardless of what is written
there.

Counts add: the model trained on a concatenation of corpora counts the sum
of the count tables of the models trained on each.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._jsonfile import checked_object, fits_int64, load_file, typed
from .augment import PairCorpus, corpus_digest

DEFAULT_WINDOW = (-1, 0, 1)
MASKED_WINDOW = (-1, 1)

# Dense signature tables; (V+1)**len(window) * V entries must stay desk-sized.
_TABLE_BUDGET = 5 * 10**7
# Positions per block of count rows: its int64 gather and float rows are one block's.
_ROW_BLOCK = 4096


@dataclass(frozen=True)
class CorrectorConfig:  # the one check of a corrector's settings
    window: tuple[int, ...] = DEFAULT_WINDOW
    alpha: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.alpha <= sys.float_info.max:  # exact for an int beyond float range
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if len(self.window) == 0:
            raise ValueError("window needs at least one offset")
        typed("window", list(self.window), list[int])  # offsets a model file can hold


@dataclass(eq=False)
class CorrectorModel:
    """A count table and its settings; the marginals and size are read off ``counts``."""

    vocab_size: int
    window: tuple[int, ...]
    alpha: float
    counts: np.ndarray           # ((V + 1) ** len(window), V) int64
    trained_on: str              # human-readable corpus descriptor
    corpus_hash: str             # content digest of the training corpus
    center_counts: np.ndarray | None = field(init=False)  # (V, V) when the window has 0
    target_counts: np.ndarray = field(init=False)         # (V,) marginal over clean tokens
    trained_chars: int = field(init=False)                # one count per trained position

    def __post_init__(self):
        V = self.vocab_size
        self.center_counts = None
        if 0 in self.window:  # sum the rows over every offset but the center's digit
            digits = self.counts.reshape(-1, V + 1, (V + 1) ** self.window.index(0), V)
            self.center_counts = digits.sum(axis=(0, 2))[:V]
        self.target_counts = self.counts.sum(axis=0)
        self.trained_chars = int(self.counts.sum())

    def predict_at(self, corpus: PairCorpus, at) -> np.ndarray:
        return predict_at(self, corpus, at)


def _signature_table_shape(vocab_size: int, window: tuple[int, ...], where: str = "window") -> int:
    n_sigs = (vocab_size + 1) ** len(window)
    if n_sigs * vocab_size > _TABLE_BUDGET:
        raise ValueError(f"{where}: {len(window)} offsets over {vocab_size} tokens are too large "
                         f"for a dense count table ({n_sigs * vocab_size} > {_TABLE_BUDGET})")
    return n_sigs


def _signatures(tokens: np.ndarray, offsets: np.ndarray, vocab_size: int,
                window: tuple[int, ...], at: np.ndarray | None = None) -> np.ndarray:
    """Signature ids at flat positions ``at`` (every position when None) of the
    sentences ``tokens[offsets[k]:offsets[k + 1]]``.

    Digit ``i`` in base ``vocab_size + 1`` is the token at offset ``window[i]``
    from the position, or ``vocab_size`` where that offset leaves the sentence.
    Every position reads one shifted copy of ``tokens`` per offset, with each
    sentence's first or last ``|off|`` slots set to ``vocab_size``; positions
    ``at`` gather at ``at + off`` and test it against their own sentence's
    bounds, which a search on ``offsets`` finds.
    """
    if at is None:
        starts, ends = offsets[:-1], offsets[1:]
    else:
        at = np.asarray(at, dtype=np.int64)
        k = np.searchsorted(offsets, at, side="right") - 1
        starts, ends = offsets[k], offsets[k + 1]
    sig = np.zeros(len(tokens) if at is None else len(at), dtype=np.int64)
    reach = int((ends - starts).max(initial=0))  # past it, every read is vocab_size
    for off in reversed(window):  # Horner's rule, in place: window[0] is the lowest digit
        off = max(-reach, min(off, reach))
        if at is None:
            read = np.roll(tokens, -off) if off else tokens  # tokens[g + off], wrapping
            for j in range(abs(off)):  # the j-th slot from each sentence's far edge
                edge = ends - 1 - j if off > 0 else starts + j
                read[edge[(edge >= starts) & (edge < ends)]] = vocab_size
        else:
            pos = at + off
            read = tokens.take(pos, mode="clip")
            read[(pos < starts) if off < 0 else (pos >= ends)] = vocab_size
        sig *= vocab_size + 1
        sig += read
    return sig


def train(corpus: PairCorpus, window: tuple[int, ...] = DEFAULT_WINDOW,
          alpha: float = 0.1) -> CorrectorModel:
    """Count (signature -> clean token) pairs over every position of the corpus."""
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    settings = CorrectorConfig(tuple(window), alpha)
    V = corpus.vocab_size
    n_sigs = _signature_table_shape(V, settings.window)

    digest = corpus_digest(corpus)  # before the signature arrays exist, to keep the peak low
    sig = _signatures(corpus.corrupted, corpus.offsets, V, settings.window)
    sig *= V  # (signature, clean token) pair ids, in place
    sig += corpus.clean
    counts = np.bincount(sig, minlength=n_sigs * V)
    counts = counts.reshape(n_sigs, V).astype(np.int64)
    descriptor = f"{len(corpus)}r:{corpus.n_chars}c"
    return CorrectorModel(V, settings.window, float(settings.alpha), counts, descriptor, digest)


def _smoothed(model: CorrectorModel, sig: np.ndarray, written: np.ndarray) -> np.ndarray:
    """Smoothed probability rows of signature ids ``sig`` at positions holding ``written``.

    Unseen signature -> center marginal (when the window has a center) -> global target
    marginal; smoothing turns an all-zero row into uniform.  Every step is per row.
    """
    rows = model.counts[sig].astype(np.float64)
    totals = rows.sum(axis=1)
    missing = totals == 0.0
    if np.any(missing):
        rows[missing] = (model.target_counts if model.center_counts is None
                         else model.center_counts[written[missing]])
        totals = rows.sum(axis=1)
    rows += model.alpha  # (rows + alpha) / (totals + alpha V), in place
    rows /= (totals + model.alpha * model.vocab_size)[:, None]
    return rows


def _model_signatures(model: CorrectorModel, corpus: PairCorpus, at=None) -> np.ndarray:
    """:func:`_signatures` of ``corpus`` under the model's window.  The corpus must be over
    the model's vocabulary: its tokens then lie in ``[0, V)``, and a wider one would alias
    signature ids."""
    V = model.vocab_size
    if corpus.vocab_size != V:
        raise ValueError(f"corpus vocab_size {corpus.vocab_size} differs from the model's {V}")
    return _signatures(corpus.corrupted, corpus.offsets, V, model.window, at)


def _rows(model: CorrectorModel, corpus: PairCorpus, at: np.ndarray) -> np.ndarray:
    """Smoothed probability rows at flat positions ``at`` of ``corpus``."""
    sig = _model_signatures(model, corpus, at)
    written, rows = corpus.corrupted[at], np.empty((len(sig), model.vocab_size))
    for lo in range(0, len(sig), _ROW_BLOCK):  # only one block's int64 gather at a time
        block = slice(lo, lo + _ROW_BLOCK)
        rows[block] = _smoothed(model, sig[block], written[block])
    return rows


def predict_at(model: CorrectorModel, corpus: PairCorpus, at) -> np.ndarray:
    """Probability rows at flat token positions ``at``, indexes into ``corpus.corrupted``."""
    return _rows(model, corpus, corpus.positions(at))


def predict_matrix(model: CorrectorModel, corpus: PairCorpus) -> tuple[np.ndarray, ...]:
    """(decoded, confidence, kept) of every position, each (corpus.n_chars,) in flat token
    order: row g's argmax, ties keeping the written token ``corpus.corrupted[g]``, and the
    decoded and the written token's probabilities.  Rows are the ones ``predict_at`` gives,
    reduced a block at a time, so no (n_chars, V) array is built."""
    sig, written = _model_signatures(model, corpus), corpus.corrupted
    decoded, (confidence, kept) = np.empty(len(sig), np.int64), np.empty((2, len(sig)))
    for lo in range(0, len(sig), _ROW_BLOCK):
        block = slice(lo, lo + _ROW_BLOCK)
        rows = _smoothed(model, sig[block], written[block])
        decoded[block] = _argmax_keep_ties(rows, written[block])
        r = np.arange(len(rows))
        confidence[block], kept[block] = rows[r, decoded[block]], rows[r, written[block]]
    return decoded, confidence, kept


def _argmax_keep_ties(probs: np.ndarray, inputs: np.ndarray) -> np.ndarray:
    """Row argmax, breaking ties toward the input token, then the lowest id."""
    out = np.argmax(probs, axis=1)
    row_max = probs[np.arange(len(probs)), out]
    keep = probs[np.arange(len(probs)), inputs] == row_max
    out[keep] = inputs[keep]
    return out


def model_to_json(model: CorrectorModel) -> str:
    nonzero = np.flatnonzero(model.counts.sum(axis=1))
    doc = {
        "vocab_size": model.vocab_size,
        "window": list(model.window),
        "alpha": model.alpha,
        "corpus_hash": model.corpus_hash,
        "trained_chars": model.trained_chars,
        "trained_on": model.trained_on,
        "counts": {str(int(s)): model.counts[s].tolist() for s in nonzero},
    }
    return json.dumps(doc, sort_keys=True)


_MODEL_FIELDS = {"vocab_size": int, "window": list[int], "alpha": float, "corpus_hash": str,
                 "trained_chars": int, "trained_on": str, "counts": dict}  # rows: below


def model_from_json(text: str) -> CorrectorModel:
    doc = checked_object(text, _MODEL_FIELDS)
    V = doc["vocab_size"]
    if V < 1:
        raise ValueError(f"field 'vocab_size' must be at least 1, got {V}")
    settings = CorrectorConfig(tuple(doc["window"]), doc["alpha"])
    n_sigs = _signature_table_shape(V, settings.window)
    counts = np.zeros((n_sigs, V), dtype=np.int64)
    total = 0  # a Python int, so the table's sum is checked before int64 can wrap
    for key, row in doc["counts"].items():
        if type(row) is not list or not set(map(type, row)) <= {int}:
            raise ValueError(f"counts[{key!r}]: row must be a list of integers")
        try:
            sig = int(key)
        except ValueError:
            raise ValueError(f"counts[{key!r}]: signature id is not an integer") from None
        if str(sig) != key:  # one spelling per signature
            raise ValueError(f"counts[{key!r}]: signature id is not written as '{sig}'")
        if not 0 <= sig < n_sigs:
            raise ValueError(f"counts[{key!r}]: signature id outside [0, {n_sigs})")
        if len(row) != V:
            raise ValueError(f"counts[{key!r}]: row has {len(row)} counts, expected {V}")
        if min(row) < 0:
            raise ValueError(f"counts[{key!r}]: negative count")
        if not fits_int64(max(row)):
            raise ValueError(f"counts[{key!r}]: count outside int64")
        total += sum(row)
        if total >= 2**63:
            raise ValueError(f"counts[{key!r}]: the counts' total passes int64")
        counts[sig] = row
    model = CorrectorModel(V, settings.window, float(settings.alpha), counts,
                           doc["trained_on"], doc["corpus_hash"])
    if model.trained_chars != doc["trained_chars"]:
        raise ValueError(f"field 'trained_chars' must be {model.trained_chars}, the counts' sum")
    return model


def save_model(model: CorrectorModel, path: str | Path) -> None:
    Path(path).write_text(model_to_json(model))


def load_model(path: str | Path) -> CorrectorModel:
    return load_file(path, model_from_json)
