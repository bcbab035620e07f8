"""Ground-truth generative language: sparse Markov chains with exact conditionals.

A world is the reference distribution every other component is judged
against.  Transition rows may contain exact zeros; a stored zero is a
structural impossibility rather than a small number, and the candidate-set
logic downstream relies on that distinction.  Probabilities are stored and
compared in linear space.

Every factor of a sentence's probability is one entry of the dense table
``WorldModel.factors``.  Its row is the token's context: the last ``order``
tokens as a base-(V+1) number, with the digit V before the sentence start,
so the all-V row is the initial distribution.  Its column is the token;
column V, the sentence end, holds ones.  The sampler and the exact kernel
read that one table, for every order.

Sentences are sequences of token ids in ``[0, vocab_size)``: tuples, or
int64 array rows where many are sampled at once.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._jsonfile import checked_object, load_file
from ._rng import derive_rng

PROB_TOL = 1e-12
CONTEXT_BUDGET = 10**4
_SLOT_ROW_FLOATS = 2**20  # order-1 slot rows a world keeps; all (V+1)**2 pairs at V = 20
_CONTEXT_KEY = re.compile(r"(0|-?[1-9][0-9]*)(,(0|-?[1-9][0-9]*))*")  # ",".join(map(str, ctx))


class ImpossibleContextError(ValueError):
    """The conditioning context itself has probability zero."""


@dataclass(frozen=True)
class WorldConfig:
    """Parameters for :func:`build_world`.

    Either provide explicit ``rows``/``initial`` or let the generator draw
    sparse rows: ``support`` nonzero entries per row with raw weights uniform
    in ``[weight_low, weight_high]`` before normalization.  A narrow band such
    as (1, 2) keeps all conditional probability ratios within small factors;
    a wide band such as (0.05, 1) produces the long-tailed priors natural
    text has.
    """

    vocab_size: int = 20
    order: int = 1
    support: int = 2
    weight_low: float = 1.0
    weight_high: float = 2.0
    rows: dict[str, list[float]] | None = None
    initial: list[float] | None = None

    def __post_init__(self):  # the rules that read these fields alone
        V, k = self.vocab_size, self.order
        if V < 2:
            raise ValueError(f"vocab_size must be at least 2, got {V}")
        if k < 1:
            raise ValueError(f"order must be at least 1, got {k}")
        if V ** min(k, 14) > CONTEXT_BUDGET:  # an order past 13 exceeds it even at V = 2
            raise ValueError(f"vocab_size**order = {V}**{k} exceeds context budget "
                             f"{CONTEXT_BUDGET}")
        if not 1 <= self.support <= V:
            raise ValueError(f"support must be in [1, {V}], got {self.support}")
        if not 0 < self.weight_low <= self.weight_high < math.inf:
            raise ValueError("weight band must satisfy 0 < weight_low <= weight_high < inf, "
                             f"got [{self.weight_low}, {self.weight_high}]")
        if not V * self.weight_high <= sys.float_info.max:  # bounds a row's raw weight sum
            raise ValueError("vocab_size * weight_high must be finite, "
                             f"got {V} * {self.weight_high}")


@dataclass(frozen=True)
class WorldModel:
    vocab_size: int
    order: int
    seed: int
    initial: np.ndarray
    transitions: dict[tuple[int, ...], np.ndarray]
    factors: np.ndarray = field(init=False, repr=False, compare=False)
    # Order 1: the single conditional's row for each (left, right) pair it read, None if all 0.
    _slot_rows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        V, k = self.vocab_size, self.order  # in range: build_world takes them from a WorldConfig
        _check_prob_vector(self.initial, V, "initial")
        for ctx, row in self.transitions.items():
            if not (1 <= len(ctx) <= k):
                raise ValueError(f"context {ctx} has invalid length for order {k}")
            if min(ctx) < 0 or max(ctx) >= V:
                raise ValueError(f"context {ctx} has a token outside [0, {V})")
            _check_prob_vector(row, V, f"transitions[{ctx}]")
        if len(self.transitions) < (V ** (k + 1) - V) // (V - 1):  # contexts of length 1..k
            missing = next(c for c in _all_contexts(V, k) if c not in self.transitions)
            raise ValueError(f"world has no transition row for context {missing}")
        factors = np.ones(((V + 1) ** k, V + 1))
        factors[-1, :V] = self.initial
        padded = np.array([(V,) * (k - len(ctx)) + ctx for ctx in self.transitions])
        factors[np.ravel_multi_index(padded.T, (V + 1,) * k), :V] = list(self.transitions.values())
        factors.flags.writeable = False
        object.__setattr__(self, "factors", factors)

    @property
    def matrix(self) -> np.ndarray:
        """Dense (V, V) transition matrix, a view of ``factors``; order-1 worlds only."""
        if self.order != 1:
            raise ValueError("dense matrix is only available for order-1 worlds")
        return self.factors[:-1, :-1]


def _check_prob_vector(vec: np.ndarray, size: int, where: str) -> None:
    if vec.shape != (size,):
        raise ValueError(f"{where}: expected length {size}, got {vec.shape}")
    if not ((vec >= 0.0) & (vec <= 1.0)).all():  # NaN fails
        raise ValueError(f"{where}: entries outside [0, 1]")
    total = float(vec.sum())
    if not abs(total - 1.0) <= PROB_TOL:
        raise ValueError(f"{where}: sums to {total}, not 1")


def _draw_row(rng: np.random.Generator, size: int, support: int,
              low: float, high: float) -> np.ndarray:
    idx = rng.choice(size, size=support, replace=False)
    raw = rng.uniform(low, high, size=support)
    row = np.zeros(size)
    row[idx] = raw / raw.sum()
    return row


def _all_contexts(vocab_size: int, order: int):
    # Rows exist for every context length 1..order so the first order-1
    # tokens of a sentence can condition on however much history exists.
    for k in range(1, order + 1):
        grid = np.indices((vocab_size,) * k).reshape(k, -1).T
        for ctx in grid:
            yield tuple(int(t) for t in ctx)


def build_world(config: WorldConfig, seed: int) -> WorldModel:
    """Construct a world, seeded ``seed``, from explicit rows or the sparse-row generator."""
    V, k = config.vocab_size, config.order
    if config.rows is not None:
        transitions = {}
        for key, row in config.rows.items():
            if not _CONTEXT_KEY.fullmatch(str(key)):  # one spelling per context
                raise ValueError(f"transitions[{key!r}]: context is not comma-separated "
                                 "integers as world_to_json writes them")
            transitions[tuple(map(int, str(key).split(",")))] = np.asarray(row, dtype=float)
        if config.initial is None:
            raise ValueError("explicit rows require an explicit initial vector")
        initial = np.asarray(config.initial, dtype=float)
        return WorldModel(V, k, seed, initial, transitions)

    rng = derive_rng(seed, "world")
    if config.initial is not None:
        initial = np.asarray(config.initial, dtype=float)
    else:
        raw = rng.uniform(config.weight_low, config.weight_high, size=V)
        initial = raw / raw.sum()
    transitions = {
        ctx: _draw_row(rng, V, config.support, config.weight_low, config.weight_high)
        for ctx in _all_contexts(V, k)
    }
    return WorldModel(V, k, seed, initial, transitions)


def conditional(world: WorldModel, tokens, position, rows=None):
    """Distribution of the token at ``position`` given the rest of the sentence.

    The value currently stored at ``position`` is ignored; only the
    surrounding context matters.  Entries are exactly zero wherever no
    completion of the context through that token has positive probability.
    Raises :class:`ImpossibleContextError` when the context itself is
    unreachable.  Batched form: an (m, L) ``tokens`` matrix of sentences
    padded with ``vocab_size`` past each one's end, and per query its
    position and its sentence's row (``rows``, both (n,)), give (n, V) rows,
    all zero where the context is impossible.  A row is the product of the
    ``order + 1`` chain factors that read the slot, its own and the next
    ``order`` tokens', each a row of ``world.factors`` with the slot's digit
    running over the vocabulary; any other zero factor of the sentence makes
    the context impossible (each sentence's zero factors are counted once,
    and a query subtracts the slot's own).  The single form is the batch of
    one, except for an order-1 world: there it reads the sentence's factors
    as Python floats and copies the slot's row, which the world keeps per
    (left, right) pair, up to ``_SLOT_ROW_FLOATS`` floats (8 MB) in all.
    """
    V, k, T = world.vocab_size, world.order, world.factors
    single = type(position) is int or np.ndim(position) == 0  # np.ndim(int) is slow
    if single:
        toks = tuple(map(int, tokens))
        if len(toks) < 1:
            raise ValueError("sentence must have length >= 1")
        if min(toks) < 0 or max(toks) >= V:
            raise ValueError("token id out of range for this world")
        if not 0 <= position < len(toks):
            raise ValueError(f"position {position} out of range for length {len(toks)}")
        if k == 1:  # the rule below, on one unpadded sentence
            ext, kept = (V, *toks, V), world._slot_rows
            chain = list(map(T.item, ext, ext[1:]))
            del chain[position:position + 2]  # the two factors that read the slot
            pair = ext[position], ext[position + 2]
            if pair not in kept:
                if (len(kept) + 1) * V > _SLOT_ROW_FLOATS:
                    kept.clear()
                weights = T[pair[0], :V] * T[:V, pair[1]]
                total = weights.sum()
                kept[pair] = weights / total if total > 0.0 else None
            if 0.0 in chain or kept[pair] is None:
                raise ImpossibleContextError(f"context of position {position} has probability zero")
            return kept[pair].copy()
        tokens, position, rows = np.array([toks]), np.array([position]), np.zeros(1, np.int64)
    else:
        tokens, position = np.asarray(tokens, dtype=np.int64), np.asarray(position, dtype=np.int64)
        rows = np.asarray(rows, dtype=np.int64)
        if tokens.ndim != 2 or position.ndim != 1 or rows.shape != position.shape:
            raise ValueError("batched conditional needs an (m, L) token matrix, "
                             "and n positions with n rows")
        real = tokens < V
        if (tokens < 0).any() or (tokens > V).any() or (real[:, 1:] > real[:, :-1]).any():
            raise ValueError("token id out of range for this world")  # or padding mid-sentence
        if ((rows < 0) | (rows >= len(tokens))).any():
            raise ValueError(f"row out of range for {len(tokens)} sentences")
        lengths = real.sum(axis=1)[rows]
        bad = (position < 0) | (position >= lengths)
        if bad.any():
            i = bad.argmax()
            raise ValueError(f"position {position[i]} out of range for length {lengths[i]}")

    # Factor j of a sentence is T[ids[:, j], succ[:, j]]: the context before token j
    # and token j, with k starts before each sentence and k ends after it.
    width = tokens.shape[1]
    ext = np.full((len(tokens), width + 2 * k), V)
    ext[:, k:-k] = tokens
    ids, succ = ext[:, :width + k], ext[:, k:]
    for d in range(1, k):
        ids = ids * (V + 1) + ext[:, d:d + width + k]
    zeros = np.count_nonzero(T[ids, succ] == 0.0, axis=1)  # per sentence
    slot = rows[:, None], position[:, None] + np.arange(k + 1)  # the slot's factors
    zeros = zeros[rows] - np.count_nonzero(T[ids[slot], succ[slot]] == 0.0, axis=1)
    weights = T[ids[rows, position], :V]
    for e in range(1, k + 1):  # in the context of token position + e the slot is digit e - 1
        step = (V + 1) ** (e - 1)
        cid = ids[rows, position + e]
        digits = T.reshape(-1, V + 1, step, V + 1)  # [higher digits, slot digit, lower, token]
        weights *= digits[cid // ((V + 1) * step), :V, cid % step, succ[rows, position + e]]
    weights[zeros > 0] = 0.0
    total = weights.sum(axis=1, keepdims=True)
    weights /= np.where(total > 0.0, total, 1.0)
    if single and total[0, 0] == 0.0:
        raise ImpossibleContextError(f"context of position {position[0]} has probability zero")
    return weights[0] if single else weights


def categorical_sampler(probs: np.ndarray):
    """``draw(rows, u)``: per i, the first column of row ``rows[i]`` whose cumulative sum
    exceeds ``u[i]``, at most the row's last nonzero column, so a stored zero is never
    drawn.  Only nonzero columns are compared (each row needs one): their sums are stored
    rank-major, ``+inf`` from a row's last rank on, one 1-D compare per rank drawn."""
    zero = probs == 0.0
    cols = np.argsort(zero, axis=1, kind="stable")  # each row's nonzero columns first, in order
    width = probs.shape[1] - zero.sum(axis=1)
    # Each sum is the full row's at that column, bit for bit: adding 0.0 is exact.
    cum = np.cumsum(np.take_along_axis(probs, cols, axis=1), axis=1)
    cum[np.arange(probs.shape[1]) >= width[:, None] - 1] = np.inf  # the count stops there
    bands = np.ascontiguousarray(cum.T)

    def draw(rows, u):
        k = np.zeros(len(rows), dtype=np.int64)
        for band in bands[:width[rows].max(initial=1) - 1]:  # the widest requested row
            k += band[rows] <= u
        return cols[rows, k]
    return draw


def sample_corpus_tokens(world: WorldModel, lengths: np.ndarray,
                         rng: np.random.Generator) -> list:
    """Sentences of the given lengths: int64 row views of one matrix, drawn a column at a
    time (one ``rng.random(n)`` each) from the ``world.factors`` rows of the context ids,
    each token's last ``order`` tokens; for an order-1 world the id is the last token."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size == 0:
        return []
    if np.any(lengths < 1):
        raise ValueError("lengths must be >= 1")
    n, rows = len(lengths), len(world.factors)
    draw = categorical_sampler(world.factors[:, :-1])
    shifted = np.arange(rows) * (world.vocab_size + 1) % rows  # the oldest digit dropped
    toks = np.zeros((n, int(lengths.max())), dtype=np.int64)
    cid = np.full(n, rows - 1)  # the all-start context
    for j in range(toks.shape[1]):
        toks[:, j] = tok = draw(cid, rng.random(n))
        cid = shifted[cid] + tok
    return [row[:L] for row, L in zip(toks, lengths.tolist())]


def world_to_json(world: WorldModel) -> str:
    doc = {
        "vocab_size": world.vocab_size,
        "order": world.order,
        "seed": world.seed,
        "initial": [float(x) for x in world.initial],
        "transitions": {
            ",".join(str(t) for t in ctx): [float(x) for x in row]
            for ctx, row in sorted(world.transitions.items())
        },
    }
    return json.dumps(doc, sort_keys=True)


_WORLD_FIELDS = {"vocab_size": int, "order": int, "seed": int, "initial": list[float],
                 "transitions": dict[str, list[float]]}


def world_from_json(text: str) -> WorldModel:
    doc = checked_object(text, _WORLD_FIELDS)
    return build_world(WorldConfig(doc["vocab_size"], doc["order"], rows=doc["transitions"],
                                   initial=doc["initial"]), doc["seed"])


def save_world(world: WorldModel, path: str | Path) -> None:
    Path(path).write_text(world_to_json(world))


def load_world(path: str | Path) -> WorldModel:
    return load_file(path, world_from_json)
