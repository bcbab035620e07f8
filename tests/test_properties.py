"""Property tests: model rows, decodes and edit reverting agree with the corpus paths.

Small random corpora over V <= 5 exercise every window shape, including
center-free windows, one-sided windows that reach past short sentences, and
signatures unseen in training (the fallback chain).  A record scored as a
corpus of its own gives the rows its sentence gets inside the corpus, so no
row reads a neighbouring sentence.  Training counts and evaluation metrics
equal the per-record references, and every scorer refuses a corpus over
another vocabulary.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from denoiselab.augment import (ConfusionConfig, CorruptionRecord, PairCorpus, SampleCategory,
                                build_confusion)
from denoiselab.calibration import calibration_report
from denoiselab.corrector import (_argmax_keep_ties, _signatures, _smoothed, model_from_json,
                                  model_to_json, predict_at, predict_matrix, train)
from denoiselab.harness import evaluate
from denoiselab.oracle import OracleScorer
from denoiselab.pipeline import _scored, filter_corpus, restore_confidences, revert_edits
from denoiselab.world import WorldConfig, build_world

from constructions import every_row, one_record, records_of
from reference import iter_edits

WINDOWS = ((-1, 0, 1), (-1, 1), (0,), (-2, -1, 0, 1, 2), (2,), (-3, 1))


@st.composite
def pair_corpora(draw, vocab_size, max_records=6):
    records, annotate = [], draw(st.booleans())  # categories on every record or on none
    for _ in range(draw(st.integers(1, max_records))):
        clean = draw(st.lists(st.integers(0, vocab_size - 1), min_size=1, max_size=7))
        corrupted = list(clean)
        edits = []
        for i, x in enumerate(clean):
            if draw(st.booleans()):
                y = draw(st.integers(0, vocab_size - 2))
                y += y >= x  # any token but the original
                corrupted[i] = y
                edits.append((i, x, y))
        categories = None
        if annotate:
            categories = tuple(draw(st.sampled_from(list(SampleCategory))) for _ in edits)
        records.append(CorruptionRecord(tuple(clean), tuple(corrupted), tuple(edits), categories))
    return PairCorpus(tuple(records), vocab_size, 0.1, "iid")


@st.composite
def trained_setups(draw):
    V = draw(st.integers(2, 5))
    window = draw(st.sampled_from(WINDOWS))
    alpha = draw(st.sampled_from((0.01, 0.1, 1.0)))
    model = train(draw(pair_corpora(V)), window, alpha)
    return model, draw(pair_corpora(V))


def alone(model, corpus, ri):
    """(probs, decoded) of record ``ri`` scored as a corpus of its own."""
    own = one_record(corpus, ri)
    return every_row(model, own), predict_matrix(model, own)[0]


def assert_revert_invariants(before: PairCorpus, result, expected_kept=None):
    after = result.corpus
    assert result.kept_edits + result.reverted_edits == before.n_edits
    assert after.n_edits == result.kept_edits
    assert len(after) == len(before)
    kept_flags = []
    for rec_b, rec_a in zip(records_of(before), records_of(after)):
        assert rec_a.clean == rec_b.clean
        surviving = set(rec_a.edits)
        assert surviving <= set(rec_b.edits)
        for i, x, y in rec_b.edits:
            kept_flags.append((i, x, y) in surviving)
            if not kept_flags[-1]:
                assert rec_a.corrupted[i] == rec_b.clean[i] == x
        if rec_b.categories is None:
            assert rec_a.categories is None
        else:
            labels = dict(zip(rec_b.edits, rec_b.categories))
            assert rec_a.categories == tuple(labels[e] for e in rec_a.edits)
        if surviving == set(rec_b.edits):
            assert rec_a == rec_b
    if expected_kept is not None:
        assert kept_flags == list(expected_kept)


class TestModelRows:
    @settings(max_examples=60, deadline=None)
    @given(trained_setups())
    def test_predict_and_predict_at_match_predict_matrix(self, setup):
        model, corpus = setup
        rows = every_row(model, corpus)
        decoded, confidence, kept = predict_matrix(model, corpus)
        np.testing.assert_array_equal(decoded, _argmax_keep_ties(rows, corpus.corrupted))
        g = np.arange(corpus.n_chars)
        np.testing.assert_array_equal(confidence, rows[g, decoded])
        np.testing.assert_array_equal(kept, rows[g, corpus.corrupted])
        for ri in range(len(corpus)):
            start, stop = corpus.offsets[ri], corpus.offsets[ri + 1]
            own_rows, own_decoded = alone(model, corpus, ri)
            np.testing.assert_array_equal(own_rows, rows[start:stop])
            np.testing.assert_array_equal(own_decoded, decoded[start:stop])

    @settings(max_examples=60, deadline=None)
    @given(trained_setups(), st.randoms(use_true_random=False))
    def test_predict_at_gathers_any_subset_in_order(self, setup, rnd):
        model, corpus = setup
        rows = every_row(model, corpus)
        at = rnd.choices(range(corpus.n_chars), k=rnd.randint(1, 2 * corpus.n_chars))
        np.testing.assert_array_equal(predict_at(model, corpus, at), rows[at])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 5).flatmap(lambda V: st.tuples(pair_corpora(V), pair_corpora(V))),
           st.sampled_from(WINDOWS), st.sampled_from((0.01, 1.0, 1e12, 1e17)))
    def test_rows_and_columns_are_the_rows_smoothed_one_position_at_a_time(
            self, corpora, window, alpha):
        """The rows read off the signature table, and the decode, confidence and kept mass
        gathered from it, equal ``_smoothed`` called on each position alone.  The model is
        trained on another corpus, so unseen signatures take the fallback.  At alpha 1e12 a
        row is uniform but for its last digits, and at 1e17 counts below 8 round to one value,
        so a row of small counts ties exactly."""
        trained_on, corpus = corpora
        model = train(trained_on, window, alpha)
        sig = _signatures(corpus.corrupted, corpus.offsets, corpus.vocab_size, window)
        want = np.concatenate([_smoothed(model, sig[g:g + 1], corpus.corrupted[g:g + 1])
                               for g in range(corpus.n_chars)])
        np.testing.assert_array_equal(every_row(model, corpus), want)
        decoded, confidence, kept = predict_matrix(model, corpus)
        for g, (row, written) in enumerate(zip(want, corpus.corrupted)):
            assert decoded[g] == (written if row[written] == row.max() else np.argmax(row))
            assert confidence[g] == row.max() and kept[g] == row[written]


class TestSignatures:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 5).flatmap(pair_corpora), st.sampled_from(WINDOWS),
           st.randoms(use_true_random=False))
    def test_positions_at_gather_the_every_position_ids(self, corpus, window, rnd):
        """The whole-corpus ids read at any positions, in any order and with repeats, are
        the digits read one position at a time, and the tokens are left alone."""
        V, tokens, offsets = corpus.vocab_size, corpus.corrupted.copy(), corpus.offsets
        every = _signatures(tokens, offsets, V, window)
        at = [rnd.randrange(corpus.n_chars) for _ in range(rnd.randint(1, 2 * corpus.n_chars))]
        want = []
        for g in at:
            k = int(np.searchsorted(offsets, g, side="right")) - 1
            sentence, i = tokens[offsets[k]:offsets[k + 1]].tolist(), g - offsets[k]
            want.append(sum((sentence[i + off] if 0 <= i + off < len(sentence) else V)
                            * (V + 1) ** digit for digit, off in enumerate(window)))
        np.testing.assert_array_equal(every[at], want)
        np.testing.assert_array_equal(tokens, corpus.corrupted)  # the input is left alone

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 5).flatmap(pair_corpora), st.sampled_from((8, -8, 10**4, -10**4)))
    def test_an_offset_past_every_sentence_reads_padding(self, corpus, offset):
        """Such an offset gives the digit ``vocab_size`` everywhere, also past int64."""
        V, tokens, offsets = corpus.vocab_size, corpus.corrupted, corpus.offsets
        want = _signatures(tokens, offsets, V, (-1, 0)) + V * (V + 1) ** 2
        for far in (offset, 2**63 - 1, -2**70):  # the last one does not fit an int64
            np.testing.assert_array_equal(_signatures(tokens, offsets, V, (-1, 0, far)), want)


class TestScoredOnce:
    @settings(max_examples=60, deadline=None)
    @given(trained_setups())
    def test_scored_equals_evaluate_and_calibration_report(self, setup):
        model, corpus = setup
        metrics = evaluate(model, corpus)
        try:
            calib = calibration_report(predict_matrix(model, corpus), corpus)
        except ValueError as exc:  # the easy-positive cut removed every outcome
            with pytest.raises(ValueError, match=str(exc)):
                _scored(model, corpus)
            return
        assert _scored(model, corpus) == (metrics, calib)


class TestAgainstReference:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 5).flatmap(pair_corpora), st.sampled_from(WINDOWS), st.data())
    def test_train_counts_equal_the_per_record_count(self, corpus, window, data):
        """Training and a JSON round trip give the per-record counts, and so do the
        counts of two halves added up; the marginals and size are read off them."""
        model = train(corpus, window)
        counts, center, target = reference.signature_counts(records_of(corpus),
                                                            corpus.vocab_size, window)
        models = [model, model_from_json(model_to_json(model))]
        cut = data.draw(st.integers(1, len(corpus)), label="cut")
        if cut < len(corpus):
            halves = [PairCorpus(part, corpus.vocab_size, 0.1, "iid")
                      for part in (records_of(corpus)[:cut], records_of(corpus)[cut:])]
            np.testing.assert_array_equal(sum(train(half, window).counts for half in halves),
                                          counts)
        for model in models:
            np.testing.assert_array_equal(model.counts, counts)
            np.testing.assert_array_equal(model.target_counts, target)
            if center is None:
                assert model.center_counts is None
            else:
                np.testing.assert_array_equal(model.center_counts, center)
            assert model.trained_chars == corpus.n_chars

    @settings(max_examples=80, deadline=None)
    @given(trained_setups())
    def test_evaluate_equals_the_per_sentence_metrics(self, setup):
        model, corpus = setup
        outputs = [tuple(alone(model, corpus, ri)[1].tolist()) for ri in range(len(corpus))]
        assert (dataclasses.astuple(evaluate(model, corpus))
                == reference.sentence_metrics(records_of(corpus), outputs))


class TestVocabularyRule:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 5), st.data())
    def test_every_scorer_refuses_a_corpus_over_another_vocabulary(self, V, data):
        W = data.draw(st.integers(2, 6).filter(lambda w: w != V), label="corpus vocab_size")
        model = train(data.draw(pair_corpora(V)), data.draw(st.sampled_from(WINDOWS)))
        corpus = data.draw(pair_corpora(W))
        world = build_world(WorldConfig(vocab_size=V, support=V), 0)
        table = build_confusion(world, ConfusionConfig(candidates=1, context_affinity=0.0), 0)[0]
        at = np.arange(corpus.n_chars)
        for scorer, owner in ((model, "model"), (OracleScorer(world, table, 0.1), "world")):
            message = rf"^corpus vocab_size {W} differs from the {owner}'s {V}$"
            with pytest.raises(ValueError, match=message):
                scorer.predict_at(corpus, at)
            with pytest.raises(ValueError, match=message):
                evaluate(scorer, corpus)
        message = rf"^corpus vocab_size {W} differs from the model's {V}$"
        with pytest.raises(ValueError, match=message):
            predict_at(model, corpus, at)
        with pytest.raises(ValueError, match=message):
            predict_matrix(model, corpus)

    def test_a_wider_corpus_would_alias_signature_ids(self):
        # Over 4 tokens the digits are base 5: token 5 at position 0 of (5, 0, 1) carries
        # into the next digit, 4 + 5 * 5 + 0 = 4 + 5 * 0 + 25 * 1, the id of (start, 0, 1).
        window = (-1, 0, 1)
        wide = _signatures(np.array([5, 0, 1]), np.array([0, 3]), 4, window)[0]
        assert wide == _signatures(np.array([0, 1]), np.array([0, 2]), 4, window)[0]
        model = train(PairCorpus((CorruptionRecord((0, 1), (0, 1), ()),), 4, 0.1, "iid"))
        corpus = PairCorpus((CorruptionRecord((5, 0, 1), (5, 0, 1), ()),), 6, 0.1, "iid")
        with pytest.raises(ValueError, match="^corpus vocab_size 6 differs from the model's 4$"):
            predict_at(model, corpus, [0])


class TestRevertInvariants:
    @settings(max_examples=60, deadline=None)
    @given(trained_setups(), st.sampled_from((1e-6, 0.1, 0.3, 0.5, 0.9, 1 - 1e-6)))
    def test_filter_corpus_reverts_exactly_the_low_confidence_edits(self, setup, threshold):
        model, corpus = setup
        confidences = [float(alone(model, corpus, ri)[0][i, x])
                       for ri, _, _, (i, x, _) in iter_edits(corpus)]
        result = filter_corpus(corpus, restore_confidences(model, corpus), threshold)
        assert_revert_invariants(corpus, result, [c >= threshold for c in confidences])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 4).flatmap(pair_corpora), st.randoms(use_true_random=False))
    def test_revert_edits_follows_any_mask(self, corpus, rnd):
        keep = [rnd.random() < 0.5 for _ in range(corpus.n_edits)]
        assert_revert_invariants(corpus, revert_edits(corpus, keep), keep)

    def test_revert_edits_needs_one_flag_per_edit(self):
        rec = CorruptionRecord((0, 1), (0, 2), ((1, 1, 2),))
        with pytest.raises(ValueError, match="one flag per edit"):
            revert_edits(PairCorpus((rec,), 3, 0.1, "iid"), [True, False])
