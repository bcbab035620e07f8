"""Corruption channels and corpus generation.

Two replacement channels over a shared per-token candidate structure:

* ``uniform``: every candidate of a token is equally likely, the
  random-replacement style of augmentation;
* ``long_tailed``: candidate weights follow a Zipf law whose exponent is
  calibrated so the top candidate carries a configured share of the
  replacement mass, the shape recognizer-generated error data shows.

Each planted replacement can be labeled with its ground-truth sample
category, decided exactly from the hard zeros of the world and the table:

* ``true``: the context plus candidate structure admits only the original;
* ``noisy``: the replacement itself is contextually valid (a false error);
* ``multi_answer``: a genuine error with more than one valid restoration.
"""

from __future__ import annotations

import enum
import gc
import hashlib
import json
import operator
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._jsonfile import checked_object, fits_int64, load_file
from ._rng import derive_rng
from .world import WorldModel, categorical_sampler, conditional, sample_corpus_tokens


class SampleCategory(str, enum.Enum):
    TRUE = "true"
    NOISY = "noisy"
    MULTI_ANSWER = "multi_answer"


CATEGORIES = tuple(SampleCategory)  # a category code indexes this tuple
_CODES = {c.value: k for k, c in enumerate(CATEGORIES)}  # a SampleCategory finds its value too
# The category rule: a code (an index of CATEGORIES) per [single candidate][candidate set
# holds the replacement].  A single candidate makes a true sample, a set holding the
# replacement itself a noisy one, any other set a multi-answer one.
CATEGORY_TABLE = ((2, 1), (0, 0))


def candidate_category_codes(candidates: np.ndarray, replacements) -> np.ndarray:
    """Category code of each edit from its row of candidate flags, read off the table.

    A candidate is a source that fits the context and can explain the replacement.
    """
    single = candidates.sum(axis=1) == 1
    noisy = candidates[np.arange(len(candidates)), replacements]
    # [single][noisy] as a row-major index; int8 arithmetic keeps the index arrays small
    return np.array(CATEGORY_TABLE, np.int8).ravel()[2 * single.view(np.int8) + noisy]


@dataclass(frozen=True)
class ConfusionConfig:
    """Parameters for :func:`build_confusion`.

    ``context_affinity`` is the probability that a token's first candidate is
    chosen to fit one of the token's own contexts (a stand-in for homophones,
    which tend to be plausible where their source is plausible).  Affine
    candidates are what make contextually-valid replacements reasonably
    common while accidental second restorations stay rare.  ``head_mass`` shapes
    only the long-tailed table.
    """

    candidates: int = 3
    head_mass: float = 0.587
    context_affinity: float = 0.35

    def __post_init__(self):  # the rules that read these fields alone; _fits_world has the rest
        if self.candidates < 1:
            raise ValueError(f"candidates must be at least 1, got {self.candidates}")
        if self.candidates > 1:  # one config builds both channels
            _check_head_mass(self.candidates, self.head_mass)
        if not 0.0 <= self.context_affinity <= 1.0:
            raise ValueError(f"context_affinity must be in [0, 1], got {self.context_affinity}")


def _fits_world(config: ConfusionConfig, vocab_size: int, order: int, where: str = "") -> None:
    """The confusion rules that read the world; ``where`` prefixes the field names."""
    if config.candidates >= vocab_size:
        raise ValueError(f"{where}candidates must be below the world's vocab_size {vocab_size}, "
                         f"got {config.candidates}")
    if config.context_affinity > 0 and order != 1:
        raise ValueError(f"{where}context_affinity must be 0 in an order-{order} world "
                         f"(affine candidates need order 1), got {config.context_affinity}")


@dataclass(frozen=True)
class ConfusionTable:
    vocab_size: int
    mode: str
    candidates: np.ndarray       # (V, c) token ids, row token excluded
    weights: np.ndarray          # (V, c) sampling weights, each row sums to 1
    zipf_exponent: float | None = None

    def __post_init__(self):
        shape = self.candidates.shape
        if len(shape) != 2 or shape[0] != self.vocab_size or self.weights.shape != shape:
            raise ValueError("candidate/weight shapes disagree")
        V, c = shape
        for v in range(V):
            row = self.candidates[v]
            if len(set(row.tolist())) != c or np.any(row == v):
                raise ValueError(f"candidate row {v} repeats tokens or contains itself")
            if np.any(row < 0) or np.any(row >= V):
                raise ValueError(f"candidate row {v} has out-of-range tokens")
            if not ((self.weights[v] >= 0.0) & (self.weights[v] <= 1.0)).all():  # NaN fails
                raise ValueError(f"weight row {v} has entries outside [0, 1]")
            if not abs(float(self.weights[v].sum()) - 1.0) <= 1e-12:
                raise ValueError(f"weight row {v} does not sum to 1")
        matrix = np.zeros((V, V))
        for v in range(V):
            matrix[v, self.candidates[v]] = self.weights[v]
        object.__setattr__(self, "_matrix", matrix)

    @property
    def matrix(self) -> np.ndarray:
        """(V, V) replacement-weight matrix; row = source, column = output."""
        return self._matrix

    def channel_vector(self, observed, rate: float) -> np.ndarray:
        """The channel law of ``observed`` at each source v: keep with ``1 - rate``, else
        draw a candidate by its weight; a row per token of an array."""
        if not (0.0 <= rate < 1.0):
            raise ValueError("rate must be in [0, 1)")
        vec = rate * self._matrix.T[observed]
        vec[(observed,) if vec.ndim == 1 else (np.arange(len(vec)), observed)] = 1.0 - rate
        return vec


def _check_head_mass(n_candidates: int, head_mass: float) -> None:  # allocates nothing
    if n_candidates < 2:
        raise ValueError("head mass is only meaningful for >= 2 candidates")
    if not (1.0 / n_candidates < head_mass < 1.0):
        raise ValueError(f"head_mass must lie in (1/{n_candidates}, 1), got {head_mass}")


def zipf_exponent_for_head_mass(n_candidates: int, head_mass: float) -> float:
    """Exponent e such that rank-weighted k**-e puts ``head_mass`` on rank 1."""
    _check_head_mass(n_candidates, head_mass)
    ranks = np.arange(1, n_candidates + 1, dtype=float)

    def head(e: float) -> float:
        w = ranks ** -e
        return float(w[0] / w.sum())

    lo, hi = 0.0, 64.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if head(mid) < head_mass:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _zipf_weights(n_candidates: int, exponent: float) -> np.ndarray:
    w = np.arange(1, n_candidates + 1, dtype=float) ** -exponent
    return w / w.sum()


def _affine_candidate(matrix: np.ndarray, support: np.ndarray, token: int,
                      rng: np.random.Generator) -> int | None:
    # A token sharing context mass with ``token``: weight every (left, right)
    # context by how often ``token`` sits in it, score other tokens by the
    # covered mass, and draw proportionally to the score.  Drawing instead of
    # taking the argmax keeps a few high-coverage tokens from becoming the
    # confusion target of half the vocabulary.  ``matrix`` is an order-1
    # world's transition matrix and ``support`` its float ``matrix > 0``.
    left_cover = matrix[:, token] @ support       # per v: sum_l T[l, token] * [T[l, v] > 0]
    right_cover = support @ matrix[token]         # per v: sum_r T[x, r] * [T[v, r] > 0]
    score = left_cover * right_cover
    score[token] = 0.0
    total = float(score.sum())
    if total == 0.0:
        return None
    return int(rng.choice(len(score), p=score / total))


def build_confusion(world: WorldModel, config: ConfusionConfig,
                    seed: int) -> tuple[ConfusionTable, ConfusionTable]:
    """The uniform and long-tailed tables against a world, over one candidate draw."""
    _fits_world(config, world.vocab_size, world.order)
    V, c = world.vocab_size, config.candidates
    rng = derive_rng(seed, "confusion")
    if config.context_affinity > 0:  # an order-1 world (``_fits_world``)
        support = (world.matrix > 0).astype(float)
    candidates = np.zeros((V, c), dtype=np.int64)
    source_load = np.zeros(V)  # how many tokens already confuse into each target
    for v in range(V):
        chosen: list[int] = []
        if rng.random() < config.context_affinity:
            affine = _affine_candidate(world.matrix, support, v, rng)
            if affine is not None:
                chosen.append(affine)
        # Remaining candidates are drawn with a preference for targets that
        # few tokens confuse into yet, so accidental shared restorations stay
        # as rare as they are in natural confusion data.
        # A draw of zero candidates takes nothing from the stream, so skipping
        # it (the affine pick filled the row) leaves every table unchanged.
        if len(chosen) < c:
            pool = np.array([t for t in range(V) if t != v and t not in chosen], dtype=np.int64)
            load_weight = 1.0 / (1.0 + source_load[pool]) ** 2
            probs = load_weight / load_weight.sum()
            extra = rng.choice(pool, size=c - len(chosen), replace=False, p=probs)
            chosen.extend(int(t) for t in extra)
        candidates[v] = chosen
        source_load[chosen] += 1.0

    weights, exponent = np.full((V, c), 1.0 / c), None
    uniform = ConfusionTable(V, "uniform", candidates, weights)
    if c > 1:  # one candidate has no tail to shape
        exponent = zipf_exponent_for_head_mass(c, config.head_mass)
        weights = np.tile(_zipf_weights(c, exponent), (V, 1))
    return uniform, ConfusionTable(V, "long_tailed", candidates, weights, exponent)


def _record_problem(clean, corrupted, edits, categories,
                    vocab_size: int | None = None) -> str | None:
    """How one record breaks the record rule, worded as its error; None if it keeps it.

    The per-record statement of the rule :func:`_first_bad_record` checks over
    a whole corpus at once; it words the error of the first record found.
    Tokens are checked against ``vocab_size`` when one is given.
    """
    big = [v for v in chain(clean, corrupted, *edits) if type(v) is int and not fits_int64(v)]
    if big:
        return f"integer {big[0]} does not fit in 64 bits"
    if vocab_size is not None:
        for name, tokens in (("clean", clean), ("corrupted", corrupted)):
            outside = [t for t in tokens if not 0 <= t < vocab_size]
            if outside:
                return f"{name} token {outside[0]} outside [0, {vocab_size})"
    if len(clean) != len(corrupted):
        return "corruption must preserve sentence length"
    edited = set()
    for i, x, y in edits:
        if (not 0 <= i < len(clean) or clean[i] != x or corrupted[i] != y or x == y
                or i in edited):
            return f"edit {(i, x, y)} inconsistent with sentences"
        edited.add(i)
    for j, (a, b) in enumerate(zip(clean, corrupted)):
        if j not in edited and a != b:
            return f"position {j} differs but is not recorded as an edit"
    if categories is not None and len(categories) != len(edits):
        return "categories must align with edits"
    return None


@dataclass(frozen=True, slots=True)
class CorruptionRecord:
    """One sentence pair; :class:`PairCorpus` builds these from its columns while iterating."""

    clean: tuple[int, ...]
    corrupted: tuple[int, ...]
    edits: tuple[tuple[int, int, int], ...]   # (position, original, replacement)
    categories: tuple[SampleCategory, ...] | None = None

    def __post_init__(self):
        problem = _record_problem(self.clean, self.corrupted, self.edits, self.categories)
        if problem:
            raise ValueError(problem)


# The slots' setters, usable on a frozen dataclass: RecordsView builds records with them.
_SLOT_SETTERS = tuple(CorruptionRecord.__dict__[s].__set__ for s in CorruptionRecord.__slots__)


class _Columns(NamedTuple):
    """The flat arrays of a :class:`PairCorpus` (field docs there)."""

    clean: np.ndarray
    corrupted: np.ndarray
    offsets: np.ndarray
    record: np.ndarray
    pos: np.ndarray
    orig: np.ndarray
    repl: np.ndarray
    category: np.ndarray | None


def _edit_bounds(columns: _Columns, start: int, stop: int) -> list[int]:
    """Where the edits of records ``start`` .. ``stop`` begin, plus the end of the last."""
    return np.searchsorted(columns.record, np.arange(start, stop + 1)).tolist()


def _first_bad_record(columns: _Columns, n_categories: np.ndarray | None,
                      vocab_size: int) -> int | None:
    """Index of the first record breaking the record rule, checked over all records at once.

    Sides of equal length are assumed; ``n_categories`` holds each record's
    category count, or None when the corpus is not annotated.
    """
    c = columns
    lengths = np.diff(c.offsets)
    at = c.offsets[c.record] + c.pos
    ok = (c.pos >= 0) & (c.pos < lengths[c.record]) & (c.orig != c.repl)
    ok[ok] = (c.clean[at[ok]] == c.orig[ok]) & (c.corrupted[at[ok]] == c.repl[ok])
    ok[ok] = np.bincount(at[ok], minlength=len(c.clean))[at[ok]] == 1  # one edit per position
    stray = c.clean != c.corrupted  # then every bad token
    stray[at[ok]] = False  # a kept edit explains its position
    for tokens in (c.clean, c.corrupted):
        stray |= (tokens < 0) | (tokens >= vocab_size)
    bad = np.zeros(len(lengths), dtype=bool)
    bad[c.record[~ok]] = True
    bad[np.searchsorted(c.offsets, np.flatnonzero(stray), side="right") - 1] = True
    if n_categories is not None:
        bad |= n_categories != np.bincount(c.record, minlength=len(lengths))
    first = np.flatnonzero(bad)
    return int(first[0]) if len(first) else None


class _RecordError(ValueError):
    """A record breaking the record rule; ``index`` is its place in the input."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


def _columns_from_lists(cleans: list, corrupteds: list, edits: list,
                        categories: list | None, vocab_size: int) -> _Columns:
    """Columns of records given as per-record sequences, checked as a whole.

    ``categories`` holds one sequence, or None, per record: a sequence on every
    record or on none.  Raises :class:`_RecordError` for the first record that
    breaks the record rule, tokens in ``[0, vocab_size)`` included, or that
    differs from the first record in having categories.
    """
    n = len(cleans)
    lengths = np.fromiter(map(len, cleans), np.int64, n)
    same = lengths == np.fromiter(map(len, corrupteds), np.int64, n)
    labeled = np.fromiter(map(operator.is_not, categories, repeat(None)), bool, n)
    same &= labeled == labeled[:1]
    good = int(np.argmin(same)) if not same.all() else n  # before the first such record
    offsets = np.concatenate(([0], np.cumsum(lengths[:good])))
    n_edits = np.fromiter(map(len, edits[:good]), np.int64, good)
    n_categories = category = None
    if labeled[:1].any():
        n_categories = np.fromiter(map(len, categories[:good]), np.int64, good)
        category = np.fromiter(map(_CODES.__getitem__, chain.from_iterable(categories[:good])),
                               np.int8, int(n_categories.sum()))
    try:
        flat_edits = np.fromiter(chain.from_iterable(chain.from_iterable(edits[:good])),
                                 np.int64, 3 * int(n_edits.sum())).reshape(-1, 3)
        columns = _Columns(
            np.fromiter(chain.from_iterable(cleans[:good]), np.int64, int(offsets[-1])),
            np.fromiter(chain.from_iterable(corrupteds[:good]), np.int64, int(offsets[-1])),
            offsets, np.repeat(np.arange(good), n_edits), *flat_edits.T.copy(), category)
    except OverflowError:  # an integer beyond int64: the per-record rule finds the first error
        bad = next(k for k in range(good) if _record_problem(
            cleans[k], corrupteds[k], edits[k], categories[k], vocab_size))
    else:
        bad = _first_bad_record(columns, n_categories, vocab_size)
        if bad is None and good < n:
            bad = good
    if bad is not None:
        raise _RecordError(bad, _record_problem(cleans[bad], corrupteds[bad], edits[bad],
                                                categories[bad], vocab_size)
                           or (f"record {bad} has categories, but record 0 has none"
                               if labeled[bad] else
                               f"record {bad} has no categories, but record 0 has them"))
    return columns


@dataclass(frozen=True, eq=False)  # a corpus equals only itself; compare the columns instead
class PairCorpus:
    """An aligned pair corpus stored as flat columns.

    Record k's sentences are ``clean[offsets[k]:offsets[k + 1]]`` and the same
    slice of ``corrupted`` (int64 token arrays).  Edits are the rows of the
    edit columns, grouped by record in record order: ``record`` (the owning
    record), ``pos`` (the position in its sentence), ``orig``, ``repl`` and
    ``category`` (int8 codes indexing :data:`CATEGORIES`, or None when the
    corpus is not annotated: a corpus carries categories on every record or
    on none).  The columns are read-only and may be shared between corpora.
    ``rate`` and ``mode`` are the corpus's channel rate and corruption mode.

    ``records`` may be given as an iterable of :class:`CorruptionRecord`, all
    checked at once.  It reads back as a :class:`RecordsView`, which only
    iterates, building records as it goes and keeping none, so loops over a
    large corpus belong on the columns.
    """

    records: Iterable[CorruptionRecord]
    vocab_size: int
    rate: float
    mode: str
    clean: np.ndarray = field(init=False, repr=False)
    corrupted: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    record: np.ndarray = field(init=False, repr=False)
    pos: np.ndarray = field(init=False, repr=False)
    orig: np.ndarray = field(init=False, repr=False)
    repl: np.ndarray = field(init=False, repr=False)
    category: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        if isinstance(self.records, RecordsView):
            columns = self.records.columns
        else:
            records = tuple(self.records)
            columns = _columns_from_lists(
                [rec.clean for rec in records], [rec.corrupted for rec in records],
                [rec.edits for rec in records], [rec.categories for rec in records],
                self.vocab_size)
        for name, array in zip(_Columns._fields, columns):
            if array is not None:
                array.flags.writeable = False
            object.__setattr__(self, name, array)
        object.__setattr__(self, "records", RecordsView(columns))

    @classmethod
    def _from_columns(cls, columns: _Columns, vocab_size: int, rate: float,
                      mode: str) -> PairCorpus:
        return cls(RecordsView(columns), vocab_size, rate, mode)

    @property
    def columns(self) -> _Columns:
        return self.records.columns

    def __len__(self) -> int:
        return len(self.offsets) - 1

    @property
    def n_chars(self) -> int:
        return int(self.offsets[-1])

    @property
    def n_edits(self) -> int:
        return len(self.pos)

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def flat_pos(self) -> np.ndarray:
        """Index of each edit's token in the flat token arrays."""
        return self.offsets[self.record] + self.pos

    def positions(self, at) -> np.ndarray:
        """Flat token positions ``at`` (indexes into ``corrupted``) as a 1-D int64 array;
        any other shape or dtype (a bool mask, say), or a position outside [0, n_chars),
        raises."""
        at = np.asarray(at)
        if at.ndim != 1 or (at.dtype.kind not in "iu" and at.size):  # [] reads as float
            raise ValueError("positions must be a 1-D array of integer flat indexes, "
                             f"got {at.dtype} of shape {at.shape}")
        at = at.astype(np.int64, copy=False)
        bad = at[(at < 0) | (at >= self.n_chars)]
        if len(bad):
            raise ValueError(f"position {bad[0]} out of range [0, {self.n_chars})")
        return at

    def keep_edits(self, keep: np.ndarray, **columns: np.ndarray) -> PairCorpus:
        """This corpus with only the edits flagged in ``keep``, and the per-token or
        per-record ``columns`` given; the caller keeps them consistent."""
        c = self.columns
        edits = {name: getattr(c, name)[keep] for name in ("record", "pos", "orig", "repl")}
        category = None if c.category is None else c.category[keep]
        return PairCorpus._from_columns(c._replace(**edits, category=category, **columns),
                                        self.vocab_size, self.rate, self.mode)


class RecordsView:
    """The records of a :class:`PairCorpus`, built from its columns while iterating.

    Nothing is cached: each pass builds new :class:`CorruptionRecord` objects,
    a chunk at a time, so the memory is only held while the caller holds them.
    """

    _CHUNK = 4096  # records built at a time while iterating

    def __init__(self, columns: _Columns):
        self.columns = columns

    def __len__(self) -> int:
        return len(self.columns.offsets) - 1

    def __iter__(self):
        for start in range(0, len(self), self._CHUNK):
            yield from self._build(start, min(start + self._CHUNK, len(self)))

    def _build(self, start: int, stop: int) -> list[CorruptionRecord]:
        c = self.columns
        offsets = c.offsets[start:stop + 1].tolist()
        base, end = offsets[0], offsets[-1]
        clean, corrupted = tuple(c.clean[base:end].tolist()), tuple(c.corrupted[base:end].tolist())
        bounds = _edit_bounds(c, start, stop)
        e0, e1 = bounds[0], bounds[-1]
        edits = tuple(zip(c.pos[e0:e1].tolist(), c.orig[e0:e1].tolist(), c.repl[e0:e1].tolist()))
        names = None if c.category is None else tuple(
            map(CATEGORIES.__getitem__, c.category[e0:e1].tolist()))
        set_clean, set_corrupted, set_edits, set_categories = _SLOT_SETTERS
        new, out = object.__new__, []
        for a, b, ea, eb in zip(offsets, offsets[1:], bounds, bounds[1:]):
            a, b, ea, eb = a - base, b - base, ea - e0, eb - e0
            record = new(CorruptionRecord)
            set_clean(record, clean[a:b])
            set_corrupted(record, corrupted[a:b])
            set_edits(record, edits[ea:eb])
            set_categories(record, None if names is None else names[ea:eb])
            out.append(record)
        return out


def _draw_replacements(table: ConfusionTable, sources: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    idx = categorical_sampler(table.weights)(sources, rng.random(len(sources)))
    return table.candidates[sources, idx]


# Prior-row floats of one batched conditional in annotation and restoration_distribution:
# a default d_o's edits (about 30,000 of 20 floats) are one block, and no call holds them all.
_ROW_FLOATS = 800_000


def _category_codes(world: WorldModel, table: ConfusionTable, flat: np.ndarray,
                    starts: np.ndarray, owner: np.ndarray, pos: np.ndarray, x: np.ndarray,
                    y: np.ndarray) -> np.ndarray:
    """Category code of each edit from its candidates in its clean context: the tokens
    that both fit the context (nonzero prior) and can produce the replacement under the
    channel (the replacement itself, or any token holding it in its candidate set).

    One batched conditional per block of edits; a block pads only its own sentences.
    """
    V = world.vocab_size
    codes = np.empty(len(pos), dtype=np.int8)
    step = max(1, _ROW_FLOATS // V)
    for lo in range(0, len(pos), step):
        edits = slice(lo, lo + step)
        first, last = int(owner[lo]), int(owner[edits][-1]) + 1
        sentences = _padded(flat[starts[first]:starts[last]],
                            starts[first:last + 1] - starts[first], V)
        fits = conditional(world, sentences, pos[edits], owner[edits] - first) > 0.0
        flags = table.matrix.T[y[edits]] > 0.0
        rows = np.arange(len(flags))
        flags[rows, y[edits]] = True  # keeping the token always emits it
        flags &= fits
        if not np.all(flags[rows, x[edits]]):
            raise ValueError("edit inconsistent with world/table: "
                             "original cannot produce the replacement here")
        codes[edits] = candidate_category_codes(flags, y[edits])
        del sentences, fits, flags  # so the next block is not built beside this one
    return codes


TOKEN_BUDGET = 2**24  # sentences x longest length; 2**20 x (8 to 16) peaked at 1.05 GB


def check_token_budget(n_sentences: int, max_length: int, where: str) -> None:
    if n_sentences * max_length > TOKEN_BUDGET:
        raise ValueError(f"{where}: {n_sentences} sentences of up to {max_length} tokens "
                         f"pass the budget of {TOKEN_BUDGET} tokens per corpus")


def generate_corpus(world: WorldModel, table: ConfusionTable, n_sentences: int,
                    length_range: tuple[int, int], rate: float, mode: str = "iid",
                    seed: int = 0, clean_fraction: float = 0.0, annotate: bool = False,
                    stream: str = "corpus") -> PairCorpus:
    """Sample clean sentences and push them through the channel.

    ``rate``, the per-token replacement probability of ``iid`` mode, must lie
    in [0, 1].  ``clean_fraction`` leaves that share of sentences pristine
    (single_edit mode only), which evaluation corpora need so false-positive
    behavior is observable.  ``annotate`` stores the exact category of every
    edit, computed against the clean context at planting time.
    """
    if n_sentences < 1:
        raise ValueError("empty corpus: n_sentences must be >= 1")
    lo, hi = length_range
    if not (1 <= lo <= hi):
        raise ValueError("invalid length range")
    check_token_budget(n_sentences, hi, "n_sentences")
    if not (0.0 <= rate <= 1.0):
        raise ValueError("rate must be in [0, 1]")
    if clean_fraction and mode != "single_edit":
        raise ValueError("clean_fraction is only supported in single_edit mode")
    if not (0.0 <= clean_fraction < 1.0):
        raise ValueError("clean_fraction must be in [0, 1)")

    rng = derive_rng(seed, stream)
    lengths = rng.integers(lo, hi + 1, size=n_sentences)
    flat = np.concatenate(sample_corpus_tokens(world, lengths, rng), dtype=np.int64)
    starts = np.concatenate(([0], np.cumsum(lengths)))
    if mode == "iid":
        hit = np.flatnonzero(rng.random(len(flat)) < rate)
        y = _draw_replacements(table, flat[hit], rng)
        owner = np.searchsorted(starts, hit, side="right") - 1
    elif mode == "single_edit":
        keep_clean = rng.random(n_sentences) < clean_fraction
        hit = starts[:-1] + rng.integers(0, lengths)
        y = _draw_replacements(table, flat[hit], rng)  # drawn for every sentence
        owner = np.flatnonzero(~keep_clean)
        hit, y = hit[owner], y[owner]
    else:
        raise ValueError(f"unknown corpus mode {mode!r}")
    pos, x = hit - starts[owner], flat[hit]

    category = _category_codes(world, table, flat, starts, owner, pos, x, y) if annotate else None
    corrupted = flat.copy()
    corrupted[hit] = y
    return PairCorpus._from_columns(
        _Columns(flat, corrupted, starts, owner, pos, x, y, category),
        world.vocab_size, rate, mode)


def replace_categories(record: CorruptionRecord,
                       categories: tuple[SampleCategory, ...] | None) -> CorruptionRecord:
    return CorruptionRecord(record.clean, record.corrupted, record.edits, categories)


def concat_corpora(first: PairCorpus, second: PairCorpus) -> PairCorpus:
    """Records of ``second`` after those of ``first``; annotated only when both are."""
    if first.vocab_size != second.vocab_size:
        raise ValueError("corpora built over different vocabularies")
    if first.mode != second.mode:
        raise ValueError("corpora built in different modes")
    if first.rate != second.rate:
        raise ValueError("corpora built at different channel rates")
    a = first.columns
    b = second.columns._replace(offsets=second.offsets[1:] + first.n_chars,
                                record=second.record + len(first))
    category = (None if a.category is None or b.category is None
                else np.concatenate((a.category, b.category)))
    columns = _Columns(*(np.concatenate(pair) for pair in zip(a[:-1], b[:-1])), category)
    return PairCorpus._from_columns(columns, first.vocab_size, first.rate, first.mode)


def corpus_arrays(corpus: PairCorpus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Padded (clean, corrupted, lengths) matrices: the layout of the batched exact kernel.

    Rows are padded with ``vocab_size`` beyond each sentence's length, as
    :func:`~denoiselab.world.conditional` reads them; every other pass works on
    the flat columns.  The matrices are new on every call, so callers may
    write into them.
    """
    return (_padded(corpus.clean, corpus.offsets, corpus.vocab_size),
            _padded(corpus.corrupted, corpus.offsets, corpus.vocab_size),
            corpus.lengths)


def _padded(flat: np.ndarray, offsets: np.ndarray, pad: int) -> np.ndarray:
    """Sentences of a flat token array as the rows of a matrix padded with
    ``pad`` past each end."""
    lengths = np.diff(offsets)
    width = int(lengths.max(initial=0))
    out = np.full((len(lengths), width), pad, dtype=np.int64)
    out[np.arange(width) < lengths[:, None]] = flat
    return out


def _joined_groups(texts: list[str], index: np.ndarray, bounds: np.ndarray) -> list[str]:
    """For each group k, ``", ".join`` of ``texts[index[j]]`` over its items j in
    ``bounds[k]:bounds[k + 1]``, cut out of one join over all items."""
    joined = ", ".join(map(texts.__getitem__, index.tolist()))
    starts = np.zeros(len(index) + 1, dtype=np.int64)  # where each item begins in ``joined``
    np.cumsum(np.fromiter(map(len, texts), np.int64, len(texts))[index] + 2, out=starts[1:])
    lo = starts[bounds[:-1]]
    hi = np.maximum(starts[bounds[1:]] - 2, lo)  # an empty group cuts an empty string
    return [joined[a:b] for a, b in zip(lo.tolist(), hi.tolist())]


def _token_groups(tokens: np.ndarray, offsets: np.ndarray) -> list[str]:
    """Each sentence's tokens as comma-joined decimals; each distinct id is formatted once."""
    ids, index = np.unique(tokens, return_inverse=True)
    return _joined_groups(list(map(str, ids.tolist())), index, offsets)


_QUOTED = [json.dumps(c.value) for c in CATEGORIES]


def corpus_to_jsonl(corpus: PairCorpus, path: str | Path) -> None:
    """One JSON object per record: clean, corrupted, edits and, if it has them, categories.

    Each line is the record's ``json.dumps`` text, and each column is
    formatted in one pass.
    """
    c = corpus.columns
    bounds = np.asarray(_edit_bounds(c, 0, len(corpus)))
    clean, corrupted = _token_groups(c.clean, c.offsets), _token_groups(c.corrupted, c.offsets)
    edits = _joined_groups(list(map("[{}, {}, {}]".format, c.pos.tolist(), c.orig.tolist(),
                                    c.repl.tolist())), np.arange(corpus.n_edits), bounds)
    names = None if c.category is None else _joined_groups(_QUOTED, c.category, bounds)
    lines = []
    for k in range(len(corpus)):
        line = f'{{"clean": [{clean[k]}], "corrupted": [{corrupted[k]}], "edits": [{edits[k]}]'
        lines.append(line + "}\n" if names is None else f'{line}, "categories": [{names[k]}]}}\n')
    Path(path).write_text("".join(lines))


_RECORD_FIELDS = ("clean", "corrupted", "edits")


def _first_not(kind: type, values) -> str:
    """JSON text of the first of ``values`` whose type is not ``kind``."""
    return json.dumps(next(v for v in values if type(v) is not kind))


def _record_fields(docs: list) -> tuple[list, list, list, list]:
    """The clean, corrupted, edits and categories (None where absent) of parsed JSONL
    lines, one list per field, checked at C speed.

    Tokens and edit fields are JSON integers (``int``, not ``bool``), each edit
    is three of them, and ``categories``, if present, lists category values.
    The ValueError raised words the first offending value found, so on one
    line it is that line's error.
    """
    if not set(map(type, docs)) <= {dict}:
        raise ValueError("expected a JSON object")
    for name in _RECORD_FIELDS:
        if not all(map(operator.contains, docs, repeat(name))):
            raise ValueError(f"missing field {name!r}")
    fields = {name: [doc[name] for doc in docs] for name in _RECORD_FIELDS}
    fields["categories"] = [doc["categories"] for doc in docs if "categories" in doc]
    for name, values in fields.items():
        if not set(map(type, values)) <= {list}:
            raise ValueError(f"{name} must be a list, got {_first_not(list, values)}")
    for name in ("clean", "corrupted"):
        if not set(map(type, chain.from_iterable(fields[name]))) <= {int}:
            bad = _first_not(int, chain.from_iterable(fields[name]))
            raise ValueError(f"{name} token {bad} is not an integer")
    entries = list(chain.from_iterable(fields["edits"]))
    if not (set(map(type, entries)) <= {list} and set(map(len, entries)) <= {3}
            and set(map(type, chain.from_iterable(entries))) <= {int}):
        bad = next(e for e in entries
                   if type(e) is not list or len(e) != 3 or set(map(type, e)) != {int})
        raise ValueError(f"edit {json.dumps(bad)} is not three integers")
    names = list(chain.from_iterable(fields["categories"]))
    if not (set(map(type, names)) <= {str} and set(names) <= _CODES.keys()):
        bad = next(v for v in names if type(v) is not str or v not in _CODES)
        raise ValueError(f"{bad!r} is not a valid SampleCategory")
    return (*(fields[name] for name in _RECORD_FIELDS),
            [doc.get("categories") for doc in docs])


def _parsed_columns(lines: list[str],
                    vocab_size: int) -> tuple[_Columns, tuple[int, str] | None]:
    """Columns of the records on JSONL ``lines`` up to the first line that is not a
    record's fields (:func:`_record_fields`), and that line's index and error (None
    when every line is); :class:`_RecordError` names the first of those records
    that breaks the record rule.

    The lines are parsed as one JSON array; only when that parse or a check on
    it fails are they parsed one by one, to find and word the first error.
    """
    fields = failure = None
    try:
        docs = json.loads("[" + ",".join(lines) + "]")
        # One brace of each kind per line, with one object per line, puts each
        # object on its own line: none can end on a later line than it starts.
        if (len(docs) == len(lines) and set(map(str.count, lines, repeat("{"))) == {1}
                and set(map(str.count, lines, repeat("}"))) == {1}):
            fields = _record_fields(docs)
    except ValueError:
        pass
    if fields is None:
        docs = []
        for k, line in enumerate(lines):
            try:
                doc = json.loads(line)
                _record_fields([doc])
            except ValueError as exc:
                failure = (k, str(exc))
                break
            docs.append(doc)
        fields = _record_fields(docs)
    return _columns_from_lists(*fields, vocab_size), failure


def corpus_from_jsonl(path: str | Path, vocab_size: int, rate: float,
                      mode: str = "iid") -> PairCorpus:
    """Read :func:`corpus_to_jsonl` output; every error names ``path:line``.

    The lines before the first malformed one are checked together, so the
    error reported is the one on the earliest line.
    """
    with open(path) as fh:
        numbered = [(n, line) for n, line in enumerate(fh, 1) if line.strip()]
    # The parse builds about four containers per line and no reference cycles, so
    # a cyclic collection during it would only walk them: the collector pauses
    # until they are freed.
    collecting = gc.isenabled()
    gc.disable()
    try:
        columns, failure = _parsed_columns([line for _, line in numbered], vocab_size)
    except _RecordError as exc:
        raise ValueError(f"{path}:{numbered[exc.index][0]}: {exc}") from None
    finally:
        if collecting:
            gc.enable()
    if failure is not None:
        raise ValueError(f"{path}:{numbered[failure[0]][0]}: {failure[1]}")
    if not numbered:
        raise ValueError(f"no records in {path}")
    return PairCorpus._from_columns(columns, vocab_size, rate, mode)


def corpus_digest(corpus: PairCorpus) -> str:
    """Content hash over the stored columns; cheap and exact.

    The bytes are the int64 (vocab_size, n_records), the record lengths, the
    flat clean tokens, then the flat corrupted tokens; the lengths fix where
    each record's tokens start.  Each column is hashed in place, without a copy.
    """
    h = hashlib.sha256()
    h.update(np.array([corpus.vocab_size, len(corpus)], dtype=np.int64))
    for column in (corpus.lengths, corpus.clean, corpus.corrupted):
        h.update(np.ascontiguousarray(column, dtype=np.int64))
    return h.hexdigest()


def confusion_to_json(table: ConfusionTable) -> str:
    doc = {
        "vocab_size": table.vocab_size,
        "mode": table.mode,
        "zipf_exponent": table.zipf_exponent,
        "candidates": table.candidates.tolist(),
        "weights": table.weights.tolist(),
    }
    return json.dumps(doc, sort_keys=True)


_CONFUSION_FIELDS = {"vocab_size": int, "mode": str, "zipf_exponent": float | None,
                     "candidates": list[list[int]], "weights": list[list[float]]}


def confusion_from_json(text: str) -> ConfusionTable:
    doc = checked_object(text, _CONFUSION_FIELDS)
    return ConfusionTable(
        vocab_size=doc["vocab_size"],
        mode=doc["mode"],
        candidates=np.asarray(doc["candidates"], dtype=np.int64),
        weights=np.asarray(doc["weights"], dtype=float),
        zipf_exponent=doc["zipf_exponent"],
    )


def save_confusion(table: ConfusionTable, path: str | Path) -> None:
    Path(path).write_text(confusion_to_json(table))


def load_confusion(path: str | Path) -> ConfusionTable:
    return load_file(path, confusion_from_json)
