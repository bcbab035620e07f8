"""Ground-truth generative language: sparse Markov chains with exact conditionals.

A world is the reference distribution every other component is judged
against.  Transition rows may contain exact zeros; a stored zero is a
structural impossibility rather than a small number, and the candidate-set
logic downstream relies on that distinction.  Probabilities are stored and
compared in linear space.

Sentences are sequences of token ids in ``[0, vocab_size)``: tuples, or
int64 array rows where many are sampled at once.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._jsonfile import checked_object, is_int, is_number, list_of, load_file
from ._rng import derive_rng

PROB_TOL = 1e-12
ENUMERATION_BUDGET = 10**6
CONTEXT_BUDGET = 10**4

# Switch sentence_prob to summed logs beyond this length; short products are
# exact enough in linear space and keep oracle equality tests tight.
_LOG_SPACE_LENGTH = 64


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
    seed: int = 0
    support: int = 2
    weight_low: float = 1.0
    weight_high: float = 2.0
    rows: dict[str, list[float]] | None = None
    initial: list[float] | None = None


@dataclass(frozen=True)
class WorldModel:
    vocab_size: int
    order: int
    seed: int
    initial: np.ndarray
    transitions: dict[tuple[int, ...], np.ndarray]
    _matrix: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.vocab_size < 2:
            raise ValueError("vocab_size must be >= 2")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        _check_prob_vector(self.initial, self.vocab_size, "initial")
        for ctx, row in self.transitions.items():
            if not (1 <= len(ctx) <= self.order):
                raise ValueError(f"context {ctx} has invalid length for order {self.order}")
            _check_prob_vector(row, self.vocab_size, f"transitions[{ctx}]")
        if self.order == 1:
            matrix = np.stack([self.row((v,)) for v in range(self.vocab_size)])
            object.__setattr__(self, "_matrix", matrix)

    @property
    def matrix(self) -> np.ndarray:
        """Dense (V, V) transition matrix; order-1 worlds only."""
        if self._matrix is None:
            raise ValueError("dense matrix is only available for order-1 worlds")
        return self._matrix

    @functools.cached_property
    def chain_table(self) -> np.ndarray:
        """Order-1 factors; index V is the sentence start (row) or end (column), V+1 a wildcard."""
        V = self.vocab_size
        table = np.ones((V + 2, V + 2))
        table[:V, :V] = self.matrix
        table[V, :V] = self.initial
        return table

    def row(self, context: tuple[int, ...]) -> np.ndarray:
        ctx = context[-self.order:] if len(context) > self.order else context
        try:
            return self.transitions[tuple(ctx)]
        except KeyError:
            raise ValueError(f"world has no transition row for context {tuple(ctx)}") from None


def _check_prob_vector(vec: np.ndarray, size: int, where: str) -> None:
    if vec.shape != (size,):
        raise ValueError(f"{where}: expected length {size}, got {vec.shape}")
    if np.any(vec < 0.0) or np.any(vec > 1.0):
        raise ValueError(f"{where}: entries outside [0, 1]")
    total = float(vec.sum())
    if abs(total - 1.0) > PROB_TOL:
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


def build_world(config: WorldConfig) -> WorldModel:
    """Construct a world from explicit rows or the sparse-row generator."""
    V, k = config.vocab_size, config.order
    if V ** k > CONTEXT_BUDGET:
        raise ValueError(f"vocab_size**order = {V**k} exceeds context budget {CONTEXT_BUDGET}")

    if config.rows is not None:
        transitions = {}
        for key, row in config.rows.items():
            ctx = tuple(int(t) for t in str(key).split(",") if t != "")
            transitions[ctx] = np.asarray(row, dtype=float)
        if config.initial is None:
            raise ValueError("explicit rows require an explicit initial vector")
        initial = np.asarray(config.initial, dtype=float)
        return WorldModel(V, k, config.seed, initial, transitions)

    if not (1 <= config.support <= V):
        raise ValueError(f"support must be in [1, {V}]")
    if not (0 < config.weight_low <= config.weight_high):
        raise ValueError("weight band must satisfy 0 < low <= high")

    rng = derive_rng(config.seed, "world")
    if config.initial is not None:
        initial = np.asarray(config.initial, dtype=float)
    else:
        raw = rng.uniform(config.weight_low, config.weight_high, size=V)
        initial = raw / raw.sum()
    transitions = {
        ctx: _draw_row(rng, V, config.support, config.weight_low, config.weight_high)
        for ctx in _all_contexts(V, k)
    }
    return WorldModel(V, k, config.seed, initial, transitions)


def validate_tokens(world: WorldModel, tokens) -> tuple[int, ...]:
    toks = tuple(map(int, tokens))
    if len(toks) < 1:
        raise ValueError("sentence must have length >= 1")
    if min(toks) < 0 or max(toks) >= world.vocab_size:
        raise ValueError("token id out of range for this world")
    return toks


def _factor(world: WorldModel, tokens: tuple[int, ...], j: int) -> float:
    if j == 0:
        return float(world.initial[tokens[0]])
    ctx = tokens[max(0, j - world.order):j]
    return float(world.row(ctx)[tokens[j]])


def sentence_prob(world: WorldModel, tokens) -> float:
    """Exact probability of a full sentence under the chain."""
    toks = validate_tokens(world, tokens)
    in_logs = len(toks) > _LOG_SPACE_LENGTH
    acc = 0.0 if in_logs else 1.0
    for j in range(len(toks)):
        f = _factor(world, toks, j)
        if f == 0.0:
            return 0.0
        acc = acc + math.log(f) if in_logs else acc * f
    return math.exp(acc) if in_logs else acc


def conditional(world: WorldModel, tokens, position):
    """Distribution of the token at ``position`` given the rest of the sentence.

    The value currently stored at ``position`` is ignored; only the
    surrounding context matters.  Entries are exactly zero wherever no
    completion of the context through that token has positive probability.
    Raises :class:`ImpossibleContextError` when the context itself is
    unreachable.  Batched form: an (n, L) ``tokens`` matrix padded with
    ``vocab_size`` past each sentence's end and (n,) positions give (n, V)
    rows, all zero where the context is impossible.  For an order-1 world
    the single form is a direct lookup on the chain table, with the same
    values bit for bit as the batched row; otherwise it is the batch of one.
    """
    V = world.vocab_size
    single = np.ndim(position) == 0
    if single:
        toks = validate_tokens(world, tokens)
        if not 0 <= position < len(toks):
            raise ValueError(f"position {position} out of range for length {len(toks)}")
        if world.order == 1:  # the order-1 rule below, on one unpadded sentence
            T, ext = world.chain_table, np.array([V, *toks, V])
            ext[position + 1] = V + 1
            weights = T[ext[position], :V] * T[:V, ext[position + 2]]
            total = weights.sum() if T[ext[:-1], ext[1:]].all() else 0.0
            if total == 0.0:
                raise ImpossibleContextError(f"context of position {position} has probability zero")
            return weights / total
        tokens, position, lengths = np.array([toks]), np.array([position]), [len(toks)]
    else:
        tokens, position = np.asarray(tokens, dtype=np.int64), np.asarray(position, dtype=np.int64)
        if tokens.ndim != 2 or position.shape != (len(tokens),):
            raise ValueError("batched conditional needs an (n, L) token matrix and n positions")
        real = tokens < V
        if (tokens < 0).any() or (tokens > V).any() or (real[:, 1:] > real[:, :-1]).any():
            raise ValueError("token id out of range for this world")  # or padding mid-sentence
        lengths = real.sum(axis=1)
        bad = (position < 0) | (position >= lengths)
        if bad.any():
            k = bad.argmax()
            raise ValueError(f"position {position[k]} out of range for length {lengths[k]}")

    if world.order == 1:
        # T[left, v] * T[v, right] on the chain table; the context is impossible
        # when a chain factor other than the two touching the slot is zero.
        T, rows = world.chain_table, np.arange(len(tokens))
        ext = np.full((len(tokens), tokens.shape[1] + 2), V)  # start and end around each row
        ext[:, 1:-1] = tokens
        weights = T[ext[rows, position], :V]
        weights *= T[:V, ext[rows, position + 2]].T
        ext[rows, position + 1] = V + 1  # the slot becomes the wildcard
        weights[(T[ext[:, :-1], ext[:, 1:]] == 0.0).any(axis=1)] = 0.0
    else:
        weights = np.zeros((len(tokens), V))
        for row, sentence, p, L in zip(weights, tokens.tolist(), position.tolist(), lengths):
            toks = tuple(sentence[:L])
            affected = range(p, min(p + world.order, L - 1) + 1)
            if any(_factor(world, toks, j) == 0.0 for j in range(L) if j not in affected):
                continue  # impossible context: the row stays zero
            for v in range(V):
                probe = toks[:p] + (v,) + toks[p + 1:]
                row[v] = math.prod(_factor(world, probe, j) for j in affected)
    total = weights.sum(axis=1, keepdims=True)
    weights /= np.where(total > 0.0, total, 1.0)
    if single and total[0, 0] == 0.0:
        raise ImpossibleContextError(f"context of position {position[0]} has probability zero")
    return weights[0] if single else weights


def sample_sentence(world: WorldModel, length: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Draw one sentence of the given length from the chain."""
    if length < 1:
        raise ValueError("length must be >= 1")
    toks: list[int] = []
    toks.append(_categorical(rng, world.initial))
    for j in range(1, length):
        row = world.row(tuple(toks[max(0, j - world.order):j]))
        toks.append(_categorical(rng, row))
    return tuple(toks)


def _categorical(rng: np.random.Generator, pvec: np.ndarray) -> int:
    # Draw over the compressed support so hard zeros can never be selected.
    nz = np.flatnonzero(pvec)
    cum = np.cumsum(pvec[nz])
    u = rng.random() * cum[-1]
    idx = int(np.searchsorted(cum, u, side="right"))
    return int(nz[min(idx, len(nz) - 1)])


def sample_corpus_tokens(world: WorldModel, lengths: np.ndarray,
                         rng: np.random.Generator) -> list:
    """Vectorized multi-sentence sampling (one shared stream, fixed draw order).

    Order-1 worlds return int64 row views of one sampled matrix, order 2 and
    higher a tuple per sentence.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.size == 0:
        return []
    if np.any(lengths < 1):
        raise ValueError("lengths must be >= 1")
    n, lmax = len(lengths), int(lengths.max())

    if world.order > 1:
        return [sample_sentence(world, int(L), rng) for L in lengths]

    V = world.vocab_size
    cum0 = np.cumsum(world.initial)
    last0 = int(np.flatnonzero(world.initial)[-1])
    tcum = np.cumsum(world.matrix, axis=1)
    lastnz = np.array([np.flatnonzero(world.matrix[v])[-1] for v in range(V)])

    toks = np.zeros((n, lmax), dtype=np.int64)
    u = rng.random(n)
    toks[:, 0] = np.minimum(np.searchsorted(cum0, u, side="right"), last0)
    for j in range(1, lmax):
        prev = toks[:, j - 1]
        u = rng.random(n)
        idx = (tcum[prev] <= u[:, None]).sum(axis=1)
        toks[:, j] = np.minimum(idx, lastnz[prev])
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


_WORLD_FIELDS = {
    "vocab_size": ("an integer", is_int),
    "order": ("an integer", is_int),
    "seed": ("an integer", is_int),
    "initial": ("a list of numbers", list_of(is_number)),
    "transitions": ("an object of number lists",
                    lambda v: type(v) is dict and all(map(list_of(is_number), v.values()))),
}


def world_from_json(text: str) -> WorldModel:
    doc = checked_object(text, _WORLD_FIELDS)
    return build_world(WorldConfig(doc["vocab_size"], doc["order"], doc["seed"],
                                   rows=doc["transitions"], initial=doc["initial"]))


def save_world(world: WorldModel, path: str | Path) -> None:
    Path(path).write_text(world_to_json(world))


def load_world(path: str | Path) -> WorldModel:
    return load_file(path, world_from_json)
