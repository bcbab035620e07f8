"""Exhaustive reference computations used as independent test oracles.

Everything here recomputes quantities from raw world and table lookups by
brute force, deliberately sharing no logic with the package's windowed or
vectorized implementations: this module imports nothing from the package
(``test_callers.py`` checks it).
"""

from __future__ import annotations

import itertools

import numpy as np


def chain_prob(world, tokens) -> float:
    """Sentence probability from raw initial/transition lookups."""
    p = float(world.initial[tokens[0]])
    for j in range(1, len(tokens)):
        ctx = tuple(tokens[max(0, j - world.order):j])
        p *= float(world.transitions[ctx][tokens[j]])
    return p


def all_sentences(vocab_size: int, length: int):
    return itertools.product(range(vocab_size), repeat=length)


def slot_distribution(world, tokens, position) -> np.ndarray | None:
    """Conditional of one slot by marginalizing full-sentence probabilities."""
    V = world.vocab_size
    masses = np.zeros(V)
    probe = list(tokens)
    for v in range(V):
        probe[position] = v
        masses[v] = chain_prob(world, tuple(probe))
    total = masses.sum()
    if total == 0.0:
        return None
    return masses / total


def total_mass(world, length: int) -> float:
    """Sum of chain probabilities over every sentence of a given length."""
    return sum(chain_prob(world, s) for s in all_sentences(world.vocab_size, length))


ENUMERATION_BUDGET = 10**6  # sentences brute_force_posterior may enumerate


def channel_prob(table, source, observed, rate) -> float:
    """The channel law at one position, read off the raw candidate table: keep the
    source with ``1 - rate``, else emit one of its candidates by that candidate's weight."""
    if observed == source:
        return 1.0 - rate
    row = table.candidates[source].tolist()
    return rate * float(table.weights[source][row.index(observed)]) if observed in row else 0.0


def brute_force_posterior(world, table, record, edit_index, rate) -> float:
    """Posterior mass of a single-edit record's clean sentence, by full enumeration.

    Every candidate clean sentence is weighted by its chain probability times
    the channel likelihood of the observed sentence: positions other than the
    edit pass through unchanged, the edit position follows the keep/replace
    law.  Deliberately exhaustive; budget-guarded.
    """
    if len(record.edits) != 1 or edit_index != 0:
        raise ValueError("the enumeration judges edit 0 of a single-edit record")
    (i, _, y), = record.edits
    observed, V = record.corrupted, world.vocab_size
    if V ** len(observed) > ENUMERATION_BUDGET:
        raise ValueError(f"enumeration of {V}**{len(observed)} sentences exceeds budget")
    total = true_mass = 0.0
    for cand in all_sentences(V, len(observed)):
        if any(c != o for j, (c, o) in enumerate(zip(cand, observed)) if j != i):
            continue
        weight = chain_prob(world, cand) * channel_prob(table, cand[i], y, rate)
        total += weight
        if cand == record.clean:
            true_mass = weight
    if total == 0.0:
        raise ValueError("observed sentence unreachable under the channel")
    return true_mass / total
