"""Hand-built worlds, tables, and records with known exact posteriors, one-record corpora,
the tests' one way to read a corpus's records, a corrector's rows at every position, and
the default experiment's target corpus."""

from __future__ import annotations

import numpy as np

from denoiselab._rng import derive_rng
from denoiselab.augment import ConfusionTable, CorruptionRecord, PairCorpus, generate_corpus
from denoiselab.corrector import predict_at
from denoiselab.pipeline import ExperimentConfig, build_experiment_world
from denoiselab.world import WorldConfig, build_world


def records_of(corpus) -> tuple:
    """The records of ``corpus``, as a tuple; the tests read records only through here."""
    return tuple(corpus.records)


def one_record(corpus, k):
    """Record ``k`` of ``corpus`` as a corpus of its own, so a scorer sees no other sentence."""
    return PairCorpus(records_of(corpus)[k:k + 1], corpus.vocab_size, corpus.rate, corpus.mode)


def every_row(model, corpus) -> np.ndarray:
    """A corrector's probability rows at every position of ``corpus``, in flat token order."""
    return predict_at(model, corpus, np.arange(corpus.n_chars))


def default_target(seed=0):
    """The default experiment's world, long-tailed table and target corpus ``d_o``
    (unannotated), as ``run_pipeline`` draws them at ``seed``."""
    config = ExperimentConfig()
    world, _, longtail = build_experiment_world(config, seed)
    d_o = generate_corpus(world, longtail, config.do_sentences, config.length_range,
                          config.rate, seed=seed, stream="d-o")
    return world, longtail, d_o


def manual_table(V, candidates, weights, mode="uniform"):
    return ConfusionTable(V, mode, np.asarray(candidates, dtype=np.int64),
                          np.asarray(weights, dtype=float))


def equal_prior_noisy_setup(head_weight=0.5):
    """Context admitting exactly the original and the replacement, equal priors.

    Tokens: 0 = left, 1 = original, 2 = replacement, 3 = right.  With the
    uniform two-candidate table the posterior is 1 / 19 at rate 0.1.
    """
    rows = {
        "0": [0.0, 0.5, 0.5, 0.0],
        "1": [0.0, 0.0, 0.0, 1.0],
        "2": [0.0, 0.0, 0.0, 1.0],
        "3": [1.0, 0.0, 0.0, 0.0],
    }
    world = build_world(WorldConfig(vocab_size=4, order=1, rows=rows,
                                    initial=[1.0, 0.0, 0.0, 0.0]), 0)
    table = manual_table(4, [[3, 1], [2, 0], [1, 3], [0, 1]],
                         [[1 - head_weight, head_weight],
                          [head_weight, 1 - head_weight],
                          [0.5, 0.5], [0.5, 0.5]],
                         mode="uniform" if head_weight == 0.5 else "long_tailed")
    record = CorruptionRecord((0, 1, 3), (0, 2, 3), ((1, 1, 2),))
    return world, table, record


def bound_demo_setup():
    """Noisy record with prior ratio 1/16 and a 0.9-head channel variant.

    Tokens: 0 = left, 1 = original, 2 = replacement, 3 = right.  Under the
    long-tailed table the posterior is 1 / (1 + 10/16) ~ 0.615, above the
    uniform-regime ceiling of 1/1.9; under the uniform table the same record
    scores 1 / (1 + 18/16) ~ 0.47, below it.
    """
    rows = {
        "0": [0.0, 0.8, 0.1, 0.1],
        "1": [0.0, 0.0, 0.5, 0.5],
        "2": [0.0, 0.0, 0.75, 0.25],
        "3": [1.0, 0.0, 0.0, 0.0],
    }
    world = build_world(WorldConfig(vocab_size=4, order=1, rows=rows,
                                    initial=[1.0, 0.0, 0.0, 0.0]), 0)
    record = CorruptionRecord((0, 1, 3), (0, 2, 3), ((1, 1, 2),))
    longtail = manual_table(4, [[3, 1], [2, 0], [1, 3], [0, 1]],
                            [[0.5, 0.5], [0.9, 0.1], [0.5, 0.5], [0.5, 0.5]],
                            mode="long_tailed")
    uniform = manual_table(4, [[3, 1], [2, 0], [1, 3], [0, 1]],
                           np.full((4, 2), 0.5))
    return world, uniform, longtail, record


def ordering_triple(seed):
    """World with one context holding a true, a noisy, and a multi-answer edit.

    Tokens: 0 = left, 1 = right, 2..6 fit the slot, 7 and 8 do not.  Slot
    priors are drawn within a factor of two of each other, so candidate
    priors stay well inside one order of magnitude while the keep/replace
    odds guarantee strict separation of the three confidences.
    """
    rng = derive_rng(seed, "ordering")
    V = 9
    fit = [2, 3, 4, 5, 6]
    weights = rng.uniform(1.0, 2.0, size=len(fit))
    row0 = np.zeros(V)
    row0[fit] = weights / weights.sum()
    rows = {"0": row0.tolist()}
    for v in range(1, V):
        row = np.zeros(V)
        row[1 if v != 1 else 0] = 1.0
        rows[str(v)] = row.tolist()
    initial = np.zeros(V)
    initial[0] = 1.0
    world = build_world(WorldConfig(vocab_size=V, order=1, rows=rows, initial=initial.tolist()), 0)

    # true: 2 -> 7 (only source of 7); noisy: 3 -> 4 (4 fits); multi: 5 -> 8
    # (6 also confuses into 8 and fits, 8 itself does not fit).
    candidates = [[1, 2], [0, 2], [7, 0], [4, 0], [0, 1], [8, 0], [8, 0],
                  [0, 1], [0, 1]]
    table = manual_table(V, candidates, np.full((V, 2), 0.5))
    records = [
        CorruptionRecord((0, 2, 1), (0, 7, 1), ((1, 2, 7),)),
        CorruptionRecord((0, 3, 1), (0, 4, 1), ((1, 3, 4),)),
        CorruptionRecord((0, 5, 1), (0, 8, 1), ((1, 5, 8),)),
    ]
    return world, table, records
