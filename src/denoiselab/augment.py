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
import hashlib
import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from itertools import chain

from ._rng import derive_rng
from .world import WorldModel, conditional, sample_corpus_tokens


class UnsupportedRecordError(ValueError):
    """Categorization was asked for a record it is not defined on."""


class SampleCategory(str, enum.Enum):
    TRUE = "true"
    NOISY = "noisy"
    MULTI_ANSWER = "multi_answer"


@dataclass(frozen=True)
class CategoryResult:
    category: SampleCategory
    candidates: tuple[int, ...]


def candidate_categories(candidates: np.ndarray, replacements) -> list[SampleCategory]:
    """Category of each edit from its row of candidate flags.

    A candidate is a source that fits the context and can explain the
    replacement.  A single candidate makes a true sample, a set holding the
    replacement itself a noisy one, any other set a multi-answer one.
    """
    single = (candidates.sum(axis=1) == 1).tolist()
    noisy = candidates[np.arange(len(candidates)), replacements].tolist()
    return [SampleCategory.TRUE if one else
            SampleCategory.NOISY if has_replacement else SampleCategory.MULTI_ANSWER
            for one, has_replacement in zip(single, noisy)]


@dataclass(frozen=True)
class ConfusionConfig:
    """Parameters for :func:`build_confusion`.

    ``context_affinity`` is the probability that a token's first candidate is
    chosen to fit one of the token's own contexts (a stand-in for homophones,
    which tend to be plausible where their source is plausible).  Affine
    candidates are what make contextually-valid replacements reasonably
    common while accidental second restorations stay rare.

    Candidate sets depend only on ``seed``/``candidates``/``context_affinity``,
    not on ``mode``, so uniform and long-tailed tables built from configs that
    differ only in ``mode`` share the same candidate structure.
    """

    candidates: int = 3
    mode: str = "uniform"  # "uniform" | "long_tailed"
    head_mass: float = 0.587
    context_affinity: float = 0.35
    seed: int = 0


@dataclass(frozen=True)
class ConfusionTable:
    vocab_size: int
    mode: str
    candidates: np.ndarray       # (V, c) token ids, row token excluded
    weights: np.ndarray          # (V, c) sampling weights, each row sums to 1
    zipf_exponent: float | None = None

    def __post_init__(self):
        V, c = self.candidates.shape
        if V != self.vocab_size or self.weights.shape != (V, c):
            raise ValueError("candidate/weight shapes disagree")
        for v in range(V):
            row = self.candidates[v]
            if len(set(row.tolist())) != c or np.any(row == v):
                raise ValueError(f"candidate row {v} repeats tokens or contains itself")
            if np.any(row < 0) or np.any(row >= V):
                raise ValueError(f"candidate row {v} has out-of-range tokens")
            if abs(float(self.weights[v].sum()) - 1.0) > 1e-12:
                raise ValueError(f"weight row {v} does not sum to 1")
        matrix = np.zeros((V, V))
        for v in range(V):
            matrix[v, self.candidates[v]] = self.weights[v]
        object.__setattr__(self, "_matrix", matrix)

    @property
    def matrix(self) -> np.ndarray:
        """(V, V) replacement-weight matrix; row = source, column = output."""
        return self._matrix

    def transition_prob(self, source: int, observed: int, rate: float) -> float:
        """Channel law for one position: keep with 1 - rate, else draw a candidate."""
        if not (0.0 <= rate < 1.0):
            raise ValueError("rate must be in [0, 1)")
        if observed == source:
            return 1.0 - rate
        return rate * float(self._matrix[source, observed])

    def channel_vector(self, observed, rate: float) -> np.ndarray:
        """Channel probabilities of producing ``observed`` (one row per token of an array)."""
        if not (0.0 <= rate < 1.0):
            raise ValueError("rate must be in [0, 1)")
        vec = rate * self._matrix.T[observed]
        vec[np.eye(self.vocab_size, dtype=bool)[observed]] = 1.0 - rate
        return vec


def zipf_exponent_for_head_mass(n_candidates: int, head_mass: float) -> float:
    """Exponent e such that rank-weighted k**-e puts ``head_mass`` on rank 1."""
    if n_candidates < 2:
        raise ValueError("head mass is only meaningful for >= 2 candidates")
    if not (1.0 / n_candidates < head_mass < 1.0):
        raise ValueError(f"head_mass must lie in (1/{n_candidates}, 1)")
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


def _affine_candidate(world: WorldModel, token: int, rng: np.random.Generator) -> int | None:
    # A token sharing context mass with ``token``: weight every (left, right)
    # context by how often ``token`` sits in it, score other tokens by the
    # covered mass, and draw proportionally to the score.  Drawing instead of
    # taking the argmax keeps a few high-coverage tokens from becoming the
    # confusion target of half the vocabulary.  Order-1 worlds only.
    M = world.matrix
    left_cover = M[:, token] @ (M > 0)            # per v: sum_l T[l, token] * [T[l, v] > 0]
    right_cover = (M > 0) @ M[token]              # per v: sum_r T[x, r] * [T[v, r] > 0]
    score = left_cover * right_cover
    score[token] = 0.0
    total = float(score.sum())
    if total == 0.0:
        return None
    return int(rng.choice(world.vocab_size, p=score / total))


def build_confusion(world: WorldModel, config: ConfusionConfig) -> ConfusionTable:
    """Build a per-token candidate table against a world."""
    V, c = world.vocab_size, config.candidates
    if not (1 <= c < V):
        raise ValueError(f"candidate count must be in [1, {V})")
    if config.mode not in ("uniform", "long_tailed"):
        raise ValueError(f"unknown mode {config.mode!r}")
    if config.context_affinity > 0 and world.order != 1:
        raise ValueError("context_affinity requires an order-1 world")

    rng = derive_rng(config.seed, "confusion")
    candidates = np.zeros((V, c), dtype=np.int64)
    source_load = np.zeros(V)  # how many tokens already confuse into each target
    for v in range(V):
        chosen: list[int] = []
        if rng.random() < config.context_affinity:
            affine = _affine_candidate(world, v, rng)
            if affine is not None:
                chosen.append(affine)
        # Remaining candidates are drawn with a preference for targets that
        # few tokens confuse into yet, so accidental shared restorations stay
        # as rare as they are in natural confusion data.
        pool = np.array([t for t in range(V) if t != v and t not in chosen])
        load_weight = 1.0 / (1.0 + source_load[pool]) ** 2
        probs = load_weight / load_weight.sum()
        extra = rng.choice(pool, size=c - len(chosen), replace=False, p=probs)
        chosen.extend(int(t) for t in extra)
        candidates[v] = chosen
        source_load[chosen] += 1.0

    if config.mode == "uniform" or c == 1:
        weights = np.full((V, c), 1.0 / c)
        exponent = None
    else:
        exponent = zipf_exponent_for_head_mass(c, config.head_mass)
        weights = np.tile(_zipf_weights(c, exponent), (V, 1))
    return ConfusionTable(V, config.mode, candidates, weights, exponent)


def confusion_pair(world: WorldModel, config: ConfusionConfig) -> tuple[ConfusionTable, ConfusionTable]:
    """Uniform and long-tailed tables sharing one candidate structure."""
    uniform = build_confusion(world, replace(config, mode="uniform"))
    longtail = build_confusion(world, replace(config, mode="long_tailed"))
    return uniform, longtail


@dataclass(frozen=True)
class CorruptionRecord:
    clean: tuple[int, ...]
    corrupted: tuple[int, ...]
    edits: tuple[tuple[int, int, int], ...]   # (position, original, replacement)
    channel_rate: float
    categories: tuple[SampleCategory, ...] | None = None

    def __post_init__(self):
        if len(self.clean) != len(self.corrupted):
            raise ValueError("corruption must preserve sentence length")
        for i, x, y in self.edits:
            if self.clean[i] != x or self.corrupted[i] != y or x == y:
                raise ValueError(f"edit {(i, x, y)} inconsistent with sentences")
        edited = {i for i, _, _ in self.edits}
        for j, (a, b) in enumerate(zip(self.clean, self.corrupted)):
            if j not in edited and a != b:
                raise ValueError(f"position {j} differs but is not recorded as an edit")
        if self.categories is not None and len(self.categories) != len(self.edits):
            raise ValueError("categories must align with edits")

    @property
    def length(self) -> int:
        return len(self.clean)


@dataclass(frozen=True)
class PairCorpus:
    records: tuple[CorruptionRecord, ...]
    vocab_size: int
    rate: float
    mode: str

    def __len__(self) -> int:
        return len(self.records)

    @property
    def n_chars(self) -> int:
        return sum(r.length for r in self.records)

    @property
    def n_edits(self) -> int:
        return sum(len(r.edits) for r in self.records)

    def iter_edits(self):
        """Yields (record_index, record, edit_index, (position, original, replacement))."""
        for ri, rec in enumerate(self.records):
            for ei, edit in enumerate(rec.edits):
                yield ri, rec, ei, edit


def _draw_replacements(table: ConfusionTable, sources: np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    cum = np.cumsum(table.weights, axis=1)
    u = rng.random(len(sources))
    idx = (cum[sources] <= u[:, None]).sum(axis=1)
    idx = np.minimum(idx, table.weights.shape[1] - 1)
    return table.candidates[sources, idx]


def corrupt(tokens, table: ConfusionTable, rate: float,
            rng: np.random.Generator, mode: str = "iid") -> CorruptionRecord:
    """Apply the channel to one sentence.

    ``iid`` replaces each position independently with probability ``rate``;
    ``single_edit`` forces exactly one replacement at a uniformly chosen
    position (the regime the exact posterior analysis assumes).
    """
    clean = tuple(int(t) for t in tokens)
    L = len(clean)
    if not (0.0 <= rate <= 1.0):
        raise ValueError("rate must be in [0, 1]")
    if mode == "iid":
        mask = rng.random(L) < rate
        positions = np.flatnonzero(mask)
    elif mode == "single_edit":
        positions = np.array([int(rng.integers(L))])
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")

    corrupted = list(clean)
    edits = []
    if len(positions) > 0:
        sources = np.array([clean[i] for i in positions])
        repl = _draw_replacements(table, sources, rng)
        for i, x, y in zip(positions, sources, repl):
            corrupted[int(i)] = int(y)
            edits.append((int(i), int(x), int(y)))
    return CorruptionRecord(clean, tuple(corrupted), tuple(edits), rate)


def _candidate_flags(table: ConfusionTable, prior: np.ndarray, originals,
                     replacements) -> np.ndarray:
    """Candidate flags of each edit, given the prior rows of its context.

    Candidates are the tokens that both fit the context (nonzero prior) and
    can produce the observed replacement under the channel (the replacement
    itself, or any token holding it in its candidate set).
    """
    rows = np.arange(len(prior))
    flags = table.matrix.T[replacements] > 0.0
    flags[rows, replacements] = True  # keeping the token always emits it
    flags &= prior > 0.0
    if not np.all(flags[rows, originals]):
        raise ValueError(
            "edit inconsistent with world/table: original cannot produce the replacement here")
    return flags


def categorize(record: CorruptionRecord, world: WorldModel, table: ConfusionTable,
               edit_index: int = 0) -> CategoryResult:
    """Categorize the edit of a single-edit record.

    Multi-edit records are rejected: with more than one replacement the
    context of an edit is itself corrupted and the exact taxonomy no longer
    applies.
    """
    if len(record.edits) != 1:
        raise UnsupportedRecordError(
            f"categorize needs a single-edit record, got {len(record.edits)} edits")
    if edit_index != 0:
        raise IndexError("single-edit record has only edit_index 0")
    i, x, y = record.edits[0]
    flags = _candidate_flags(table, conditional(world, record.corrupted, i)[None], [x], [y])
    return CategoryResult(candidate_categories(flags, [y])[0],
                          tuple(int(t) for t in np.flatnonzero(flags[0])))


def generate_corpus(world: WorldModel, table: ConfusionTable, n_sentences: int,
                    length_range: tuple[int, int] = (8, 16), rate: float = 0.1,
                    mode: str = "iid", seed: int = 0, clean_fraction: float = 0.0,
                    annotate: bool = False, stream: str = "corpus") -> PairCorpus:
    """Sample clean sentences and push them through the channel.

    ``clean_fraction`` leaves that share of sentences pristine (single_edit
    mode only), which evaluation corpora need so false-positive behavior is
    observable.  ``annotate`` stores the exact category of every edit,
    computed against the clean context at planting time.
    """
    if n_sentences < 1:
        raise ValueError("empty corpus: n_sentences must be >= 1")
    lo, hi = length_range
    if not (1 <= lo <= hi):
        raise ValueError("invalid length range")
    if clean_fraction and mode != "single_edit":
        raise ValueError("clean_fraction is only supported in single_edit mode")
    if not (0.0 <= clean_fraction < 1.0):
        raise ValueError("clean_fraction must be in [0, 1)")

    rng = derive_rng(seed, stream)
    lengths = rng.integers(lo, hi + 1, size=n_sentences)
    sentences = sample_corpus_tokens(world, lengths, rng)

    flat = np.fromiter(chain.from_iterable(sentences), dtype=np.int64,
                       count=int(lengths.sum()))
    starts = np.concatenate(([0], np.cumsum(lengths)))
    if mode == "iid":
        hit = np.flatnonzero(rng.random(len(flat)) < rate)
        y = _draw_replacements(table, flat[hit], rng) if len(hit) else np.empty(0, np.int64)
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

    categories = None
    if annotate:  # one batched conditional over every edit, in its clean context
        prior = conditional(world, _padded(sentences, lengths, world.vocab_size)[owner], pos)
        categories = candidate_categories(_candidate_flags(table, prior, x, y), y)
    edits = list(zip(pos.tolist(), x.tolist(), y.tolist()))
    spans = np.searchsorted(owner, np.arange(n_sentences + 1)).tolist()
    records = []
    for toks, a, b in zip(sentences, spans, spans[1:]):
        corrupted = list(toks)
        for i, _, r in edits[a:b]:
            corrupted[i] = r
        records.append(CorruptionRecord(toks, tuple(corrupted), tuple(edits[a:b]), rate,
                                        None if categories is None else tuple(categories[a:b])))
    return PairCorpus(tuple(records), world.vocab_size, rate, mode)


def replace_categories(record: CorruptionRecord,
                       categories: tuple[SampleCategory, ...] | None) -> CorruptionRecord:
    return CorruptionRecord(record.clean, record.corrupted, record.edits,
                            record.channel_rate, categories)


def concat_corpora(first: PairCorpus, second: PairCorpus) -> PairCorpus:
    if first.vocab_size != second.vocab_size:
        raise ValueError("corpora built over different vocabularies")
    mode = first.mode if first.mode == second.mode else "mixed"
    if first.rate != second.rate:
        raise ValueError("corpora built at different channel rates")
    return PairCorpus(first.records + second.records, first.vocab_size, first.rate, mode)


def corpus_arrays(corpus: PairCorpus) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Padded (clean, corrupted, lengths) matrices for vectorized passes.

    Rows are padded with ``vocab_size`` beyond each sentence's length.
    """
    lengths = np.array([r.length for r in corpus.records], dtype=np.int64)
    return (_padded((r.clean for r in corpus.records), lengths, corpus.vocab_size),
            _padded((r.corrupted for r in corpus.records), lengths, corpus.vocab_size),
            lengths)


def _padded(sentences, lengths: np.ndarray, pad: int) -> np.ndarray:
    """Sentences as the rows of a matrix padded with ``pad`` past each end."""
    out = np.full((len(lengths), int(lengths.max())), pad, dtype=np.int64)
    out[np.arange(out.shape[1]) < lengths[:, None]] = np.fromiter(
        chain.from_iterable(sentences), dtype=np.int64, count=int(lengths.sum()))
    return out


def record_to_dict(record: CorruptionRecord) -> dict:
    doc = {
        "clean": list(record.clean),
        "corrupted": list(record.corrupted),
        "edits": [list(e) for e in record.edits],
    }
    if record.categories is not None:
        doc["categories"] = [c.value for c in record.categories]
    return doc


def record_from_dict(doc: dict, rate: float) -> CorruptionRecord:
    categories = None
    if "categories" in doc:
        categories = tuple(SampleCategory(c) for c in doc["categories"])
    return CorruptionRecord(
        clean=tuple(int(t) for t in doc["clean"]),
        corrupted=tuple(int(t) for t in doc["corrupted"]),
        edits=tuple((int(i), int(x), int(y)) for i, x, y in doc["edits"]),
        channel_rate=rate,
        categories=categories,
    )


def corpus_to_jsonl(corpus: PairCorpus, path: str | Path) -> None:
    with open(path, "w") as fh:
        for rec in corpus.records:
            fh.write(json.dumps(record_to_dict(rec)) + "\n")


def corpus_from_jsonl(path: str | Path, vocab_size: int, rate: float,
                      mode: str = "iid") -> PairCorpus:
    records, line_numbers = [], []
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                records.append(record_from_dict(json.loads(line), rate))
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                missing = "missing field " if isinstance(exc, KeyError) else ""
                raise ValueError(f"{path}:{number}: {missing}{exc}") from None
            line_numbers.append(number)
    if not records:
        raise ValueError(f"no records in {path}")
    ends = np.cumsum([r.length for r in records])
    for field in ("clean", "corrupted"):
        tokens = np.fromiter(chain.from_iterable(getattr(r, field) for r in records),
                             dtype=np.int64, count=int(ends[-1]))
        bad = np.flatnonzero((tokens < 0) | (tokens >= vocab_size))
        if len(bad):
            k = int(np.searchsorted(ends, bad[0], side="right"))
            raise ValueError(f"{path}:{line_numbers[k]}: {field} token {tokens[bad[0]]} "
                             f"outside [0, {vocab_size})")
    return PairCorpus(tuple(records), vocab_size, rate, mode)


def corpus_digest(corpus: PairCorpus) -> str:
    """Content hash over token arrays; cheap and exact."""
    h = hashlib.sha256()
    h.update(np.array([corpus.vocab_size, len(corpus)], dtype=np.int64).tobytes())
    h.update(np.array([r.length for r in corpus.records], dtype=np.int64).tobytes())
    for rec in corpus.records:
        h.update(np.array(rec.clean, dtype=np.int64).tobytes())
        h.update(np.array(rec.corrupted, dtype=np.int64).tobytes())
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


def confusion_from_json(text: str) -> ConfusionTable:
    doc = json.loads(text)
    return ConfusionTable(
        vocab_size=int(doc["vocab_size"]),
        mode=doc["mode"],
        candidates=np.asarray(doc["candidates"], dtype=np.int64),
        weights=np.asarray(doc["weights"], dtype=float),
        zipf_exponent=doc["zipf_exponent"],
    )


def save_confusion(table: ConfusionTable, path: str | Path) -> None:
    Path(path).write_text(confusion_to_json(table))


def load_confusion(path: str | Path) -> ConfusionTable:
    return confusion_from_json(Path(path).read_text())
