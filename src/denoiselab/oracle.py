"""Exact Bayesian restoration confidence for single-edit records.

For an observed sentence with one replaced token, the probability that the
original sentence is the true one factorizes over the edit position:

    numerator   = channel(original -> observed) * prior(original | context)
    denominator = sum over sources v of channel(v -> observed) * prior(v | context)

where ``channel`` is the per-position keep/replace law of the corruption
channel and ``prior`` is the world's exact conditional.  Every quantity here
is computed from hard zeros, so candidate sets, sample categories, and the
case bounds are exact rather than thresholded.  ``tests/enumeration.py`` recomputes
the posterior by enumerating every clean sentence, sharing no code with this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .augment import (CATEGORIES, CATEGORY_TABLE, ConfusionTable, CorruptionRecord,
                      PairCorpus, SampleCategory, _padded, _ROW_FLOATS)
from .world import WorldModel, conditional


@dataclass(frozen=True)
class PosteriorReport:
    """Exact restoration confidence for one edit, with its decomposition.

    ``sigma`` is the summed odds contribution of candidates other than the
    original and the observed replacement; the posterior always equals
    ``1 / (1 + replacement_term + sigma)``.  ``bound`` is the closed-form
    ceiling implied by the record's own prior ratio (None for true samples,
    whose posterior is exactly 1).
    """

    posterior: float
    candidates: tuple[int, ...]
    category: SampleCategory
    sigma: float
    bound: float | None
    bound_params: tuple[float, float | None] | None
    priors: dict[int, float] = field(default_factory=dict)


def _single_edit(record: CorruptionRecord, edit_index: int) -> tuple[int, int, int]:
    if len(record.edits) != 1:
        raise ValueError("posterior is defined for single-edit records only")
    if edit_index != 0:
        raise IndexError("single-edit record has only edit_index 0")
    return record.edits[0]


def restoration_distribution(world: WorldModel, table: ConfusionTable, corpus: PairCorpus,
                             at, rate: float) -> np.ndarray:
    """Posterior over the source token at each flat position ``at`` of ``corpus``, taking
    the rest of its corrupted sentence as the context exactly as given; a row is all zero
    where the context is impossible or no source emits the observed token."""
    at = corpus.positions(at)
    V = world.vocab_size
    if corpus.vocab_size != V:
        raise ValueError(f"corpus vocab_size {corpus.vocab_size} differs from the world's {V}")
    ri = np.searchsorted(corpus.offsets, at, side="right") - 1
    padded = _padded(corpus.corrupted, corpus.offsets, V)
    step = max(1, _ROW_FLOATS // V)  # the kernel's temporaries are one block's
    out = np.empty((len(at), V)) if len(at) > step else None
    for lo in range(0, max(len(at), 1), step):  # an empty ``at`` gets the kernel's (0, V)
        block = slice(lo, lo + step)
        terms = conditional(world, padded, at[block] - corpus.offsets[ri[block]], ri[block])
        terms *= table.channel_vector(corpus.corrupted[at[block]], rate)
        total = terms.sum(axis=1, keepdims=True)
        if out is None:  # one block: the kernel's own array is the output
            out = terms
        np.divide(terms, np.where(total > 0.0, total, 1.0), out=out[block])
        del terms  # before the next block's kernel call
    return out


def posterior(world: WorldModel, table: ConfusionTable, record: CorruptionRecord,
              edit_index: int, rate: float) -> PosteriorReport:
    """Exact restoration confidence of a single-edit record's edit at channel rate ``rate``."""
    i, x, y = _single_edit(record, edit_index)
    prior = conditional(world, record.corrupted, i)
    chan = table.channel_vector(y, rate)
    terms = chan * prior
    members = tuple(terms.nonzero()[0].tolist())
    prior, chan = prior.item, chan.item  # a few entries as Python floats, not all V
    px, cx = prior(x), chan(x)
    if cx == 0.0 or px == 0.0:
        raise ValueError("record inconsistent with world/table: original cannot emit the edit")

    post = terms.item(x) / float(terms.sum())
    category = CATEGORIES[CATEGORY_TABLE[len(members) == 1][y in members]]

    sigma = 0.0
    for v in members:
        if v == x or v == y:
            continue
        sigma += (prior(v) / px) * (chan(v) / cx)

    bound_params = None
    if category == SampleCategory.NOISY:
        bound_params = (prior(y) / px, None)
    elif category == SampleCategory.MULTI_ANSWER:
        top = max((v for v in members if v != x), key=terms.item)
        bound_params = (prior(top) / px, chan(top) / cx)
    bound = None if bound_params is None else bounds(*bound_params, category, rate)

    priors = {v: prior(v) for v in members}
    return PosteriorReport(post, members, category, sigma, bound, bound_params, priors)


def bounds(a: float, b: float | None, category: SampleCategory, rate: float) -> float:
    """Posterior ceilings at channel rate ``rate``; :func:`posterior`'s ``bound``.

    Noisy samples: keep/replace odds are at least ``(1 - rate) / rate`` (9 at
    rate 0.1), so the posterior cannot exceed ``1 / (1 + a (1 - rate) / rate)``
    once priors of competing candidates are within a factor ``1/a``.
    Multi-answer samples: ``1 / (1 + a*b)`` where ``b`` lower-bounds the
    candidates' channel-weight ratio.
    """
    if a <= 0.0:
        raise ValueError("a must be positive")
    if category == SampleCategory.NOISY:
        return 1.0 / (1.0 + a * (1.0 - rate) / rate)
    if category == SampleCategory.MULTI_ANSWER:
        if b is None or b <= 0.0:
            raise ValueError("multi-answer bound needs positive b")
        return 1.0 / (1.0 + a * b)
    raise ValueError("true samples have posterior exactly 1; no bound applies")


@dataclass(frozen=True)
class OracleScorer:
    """Drop-in scorer exposing the exact posterior through ``predict_at``.

    Interchangeable with a trained corrector wherever restore confidences
    at flat token positions are consumed (corpus filtering, evaluation).
    """

    world: WorldModel
    table: ConfusionTable
    rate: float

    def predict_at(self, corpus: PairCorpus, at) -> np.ndarray:
        """Exact restore rows at flat positions ``at``, uniform where a row is all zero."""
        rows = restoration_distribution(self.world, self.table, corpus, at, self.rate)
        rows[~rows.any(axis=1)] = 1.0 / self.world.vocab_size
        return rows
