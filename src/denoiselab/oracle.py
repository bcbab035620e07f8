"""Exact Bayesian restoration confidence for single-edit records.

For an observed sentence with one replaced token, the probability that the
original sentence is the true one factorizes over the edit position:

    numerator   = channel(original -> observed) * prior(original | context)
    denominator = sum over sources v of channel(v -> observed) * prior(v | context)

where ``channel`` is the per-position keep/replace law of the corruption
channel and ``prior`` is the world's exact conditional.  Every quantity here
is computed from hard zeros, so candidate sets, sample categories, and the
case bounds are exact rather than thresholded.

``brute_force_posterior`` recomputes the same quantity by enumerating every
possible clean sentence and applying Bayes directly; it shares no code path
with :func:`posterior` beyond raw world lookups and serves as the
independent oracle for it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .augment import (CATEGORIES, CATEGORY_TABLE, ConfusionTable, CorruptionRecord,
                      PairCorpus, SampleCategory, _padded)
from .world import ENUMERATION_BUDGET, WorldModel, conditional


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
    terms = conditional(world, _padded(corpus.corrupted, corpus.offsets, V),
                        at - corpus.offsets[ri], ri)
    terms *= table.channel_vector(corpus.corrupted[at], rate)
    total = terms.sum(axis=1, keepdims=True)
    terms /= np.where(total > 0.0, total, 1.0)
    return terms


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


def brute_force_posterior(world: WorldModel, table: ConfusionTable,
                          record: CorruptionRecord, edit_index: int, rate: float) -> float:
    """Posterior mass of the true clean sentence by full enumeration.

    Every candidate clean sentence is weighted by its chain probability times
    the channel likelihood of the observed sentence: positions other than the
    edit pass through unchanged, the edit position follows the keep/replace
    law.  Deliberately exhaustive; budget-guarded.
    """
    i, _, y = _single_edit(record, edit_index)
    observed = record.corrupted
    L, V = record.length, world.vocab_size
    if V ** L > ENUMERATION_BUDGET:
        raise ValueError(f"enumeration of {V}**{L} sentences exceeds budget")

    total = 0.0
    true_mass = 0.0
    for cand in itertools.product(range(V), repeat=L):
        if any(cand[j] != observed[j] for j in range(L) if j != i):
            continue
        prob = float(world.initial[cand[0]])
        for j in range(1, L):
            if prob == 0.0:
                break
            prob *= float(world.transitions[cand[max(0, j - world.order):j]][cand[j]])
        if prob == 0.0:
            continue
        weight = prob * table.transition_prob(cand[i], y, rate)
        total += weight
        if cand == record.clean:
            true_mass = weight
    if total == 0.0:
        raise ValueError("observed sentence unreachable under the channel")
    return true_mass / total


def bounds(a: float, b: float | None, category: SampleCategory, rate: float = 0.1) -> float:
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
class GroupOrdering:
    qualified: bool
    passed: bool
    violations: tuple[str, ...]
    flags: tuple[str, ...]


@dataclass(frozen=True)
class OrderingReport:
    groups: tuple[GroupOrdering, ...]

    @property
    def all_passed(self) -> bool:
        return all(g.passed for g in self.groups if g.qualified)

    @property
    def n_qualified(self) -> int:
        return sum(1 for g in self.groups if g.qualified)


def verify_ordering(groups: list[list[PosteriorReport]], ratio_bound: float = 10.0,
                    reference_a: float = 0.1) -> OrderingReport:
    """Check the strict confidence ordering noisy < multi-answer < true = 1.

    A group qualifies when all candidate priors across its reports lie within
    ``ratio_bound`` of each other (the comparability condition).  Noisy
    posteriors exceeding the uniform-channel ceiling at ``reference_a`` are
    flagged but not failed; they indicate a long-tailed channel at work.
    """
    results = []
    noisy_ceiling = bounds(reference_a, None, SampleCategory.NOISY)
    for group in groups:
        all_priors = [p for rep in group for p in rep.priors.values()]
        qualified = bool(all_priors) and max(all_priors) <= ratio_bound * min(all_priors)

        violations: list[str] = []
        flags: list[str] = []
        trues = [r.posterior for r in group if r.category == SampleCategory.TRUE]
        noisys = [r.posterior for r in group if r.category == SampleCategory.NOISY]
        multis = [r.posterior for r in group if r.category == SampleCategory.MULTI_ANSWER]
        if qualified:
            for p in trues:
                if p != 1.0:
                    violations.append(f"true sample posterior {p} != 1")
            for p in noisys + multis:
                if not (0.0 < p < 1.0):
                    violations.append(f"non-true posterior {p} outside (0, 1)")
            if noisys and multis and max(noisys) >= min(multis):
                violations.append(
                    f"max noisy {max(noisys):.6g} >= min multi-answer {min(multis):.6g}")
            for p in noisys:
                if p > noisy_ceiling:
                    flags.append(
                        f"noisy posterior {p:.6g} exceeds uniform-channel ceiling "
                        f"{noisy_ceiling:.6g}")
        results.append(GroupOrdering(qualified, qualified and not violations,
                                     tuple(violations), tuple(flags)))
    return OrderingReport(tuple(results))


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
