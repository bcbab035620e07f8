"""Property tests: the batched exact-posterior kernel against enumeration.

Random worlds with V <= 5 (up to 12 where a row of 8 or more must sum as a
batched row does), order 1 to 3, and sentences of length <= 5 drawn
uniformly over tokens, so many contexts are corrupted beyond what the world
can produce.  ``tests/enumeration.py`` is the independent reference.  The
distance of a trained model to the exact posterior, taken over a corpus at
once, equals its mean over the records scored one at a time.  An order-1
world keeps its single conditional's rows per (left, right) pair: interleaved
worlds, a changed report or row and kept rows each give what a new world
gives, and the kept rows stay within ``_SLOT_ROW_FLOATS`` at a large V.
The block generator ``conditional_blocks`` gives, bit for bit, the rows of one
batched call on the whole corpus, and each of its kernel calls reads only its
block's sentences.
"""

import sys
import tracemalloc
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import denoiselab.world as world_module
from denoiselab._rng import derive_rng
from denoiselab.augment import (ConfusionConfig, CorruptionRecord, PairCorpus, SampleCategory,
                                build_confusion, corpus_arrays, generate_corpus)
from denoiselab.corrector import MASKED_WINDOW, train
from denoiselab.oracle import OracleScorer, posterior, restoration_distribution
from denoiselab.pipeline import tv_to_oracle
from denoiselab.world import (_SLOT_ROW_FLOATS, ImpossibleContextError, WorldConfig, _padded,
                              build_world, conditional, conditional_blocks, sample_corpus_tokens)

from constructions import every_row, one_record, records_of
from enumeration import brute_force_posterior, channel_prob, slot_distribution
from reference import iter_edits


@st.composite
def worlds(draw, orders=(1, 2, 3), sizes=(2, 5), sparse=False):
    """Random worlds; ``sparse`` ones leave a zero in every row."""
    V = draw(st.integers(*sizes))
    return build_world(WorldConfig(vocab_size=V, order=draw(st.sampled_from(orders)),
                                   support=draw(st.integers(1, V - 1 if sparse else V)),
                                   weight_low=0.05, weight_high=1.0),
                       draw(st.integers(0, 10**6)))


@st.composite
def tables(draw, world):
    affine = world.order == 1 and draw(st.booleans())  # affinity needs an order-1 world
    pair = build_confusion(world, ConfusionConfig(
        candidates=draw(st.integers(1, world.vocab_size - 1)), head_mass=0.7,
        context_affinity=0.5 if affine else 0.0), draw(st.integers(0, 100)))
    return pair[draw(st.integers(0, 1))]  # the uniform or the long-tailed table


@st.composite
def places(draw, world):
    """Sentences, one padded row per (sentence, position) place, and the positions."""
    V = world.vocab_size
    sentences = draw(st.lists(st.lists(st.integers(0, V - 1), min_size=1, max_size=5),
                              min_size=1, max_size=6))
    width = max(map(len, sentences)) + draw(st.integers(0, 1))
    chosen = [(s, p) for s in sentences for p in range(len(s)) if draw(st.booleans())]
    chosen = chosen or [(sentences[0], 0)]
    tokens = np.full((len(chosen), width), V, dtype=np.int64)
    for row, (s, _) in zip(tokens, chosen):
        row[:len(s)] = s
    return [tuple(s) for s, _ in chosen], tokens, np.array([p for _, p in chosen])


@st.composite
def kernel_cases(draw):
    world = draw(worlds())
    return (world, draw(tables(world))) + draw(places(world))


def place_corpus(sentences, vocab_size, rate):
    """One unedited record per sentence."""
    return PairCorpus([CorruptionRecord(s, s, ()) for s in sentences], vocab_size, rate,
                      "iid")


def enumerated_restoration(world, table, sentence, position, rate):
    """The restore row by enumeration: each source's slot probability times the channel
    law of the observed token, normalized; all zero where no source explains the slot."""
    prior = slot_distribution(world, sentence, position)
    if prior is None:
        return np.zeros(world.vocab_size)
    y = sentence[position]
    row = prior * [channel_prob(table, v, y, rate) for v in range(world.vocab_size)]
    return row / row.sum() if row.any() else row


class TestBatchedConditional:
    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_rows_match_enumeration_and_zero_exactly_where_it_is_impossible(self, case):
        world, _, sentences, tokens, positions = case
        rows = conditional(world, tokens, positions, np.arange(len(positions)))
        assert rows.shape == (len(sentences), world.vocab_size)
        for row, sentence, p in zip(rows, sentences, positions):
            want = slot_distribution(world, sentence, p)
            if want is None:
                assert not row.any()
                with pytest.raises(ImpossibleContextError):
                    conditional(world, sentence, int(p))
                continue
            np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(row == 0.0, want == 0.0)
            np.testing.assert_array_equal(conditional(world, sentence, int(p)), row)

    @settings(max_examples=150, deadline=None)
    @given(kernel_cases(), st.sampled_from((0.05, 0.1, 0.5)))
    def test_restoration_rows_match_enumeration_times_the_channel(self, case, rate):
        world, table, sentences, _, positions = case
        corpus = place_corpus(sentences, world.vocab_size, rate)
        rows = restoration_distribution(world, table, corpus, corpus.offsets[:-1] + positions,
                                        rate)
        assert rows.shape == (len(sentences), world.vocab_size)
        for row, sentence, p in zip(rows, sentences, positions):
            want = enumerated_restoration(world, table, sentence, p, rate)
            np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(row == 0.0, want == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(worlds(orders=(1,), sizes=(2, 12)))  # rows of 8 or more sum pairwise
    @example(build_world(WorldConfig(vocab_size=2, support=1), 0))
    @example(build_world(WorldConfig(vocab_size=20, support=20, weight_low=0.05,
                                     weight_high=1.0), 0))
    def test_order_1_single_rows_are_the_batched_rows_of_every_neighbour_pair(self, world):
        """Each (left, right) pair, either one a sentence edge, around one slot: the
        slot is then at position 0, L - 1 or inside a sentence of length 1 to 3."""
        V = world.vocab_size
        sentences = [[t for t in (left, 0, right) if t < V]
                     for left in range(V + 1) for right in range(V + 1)]
        positions = np.array([int(left < V) for left in range(V + 1) for _ in range(V + 1)])
        tokens = np.full((len(sentences), 3), V)
        for row, sentence in zip(tokens, sentences):
            row[:len(sentence)] = sentence
        rows = conditional(world, tokens, positions, np.arange(len(positions)))
        for row, sentence, p in zip(rows, sentences, positions):
            if not row.any():
                with pytest.raises(ImpossibleContextError):
                    conditional(world, sentence, int(p))
                continue
            np.testing.assert_array_equal(conditional(world, sentence, int(p)), row)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_a_zero_factor_outside_the_slot_makes_the_context_impossible(self, data):
        world = data.draw(worlds(orders=(1,), sparse=True))
        V, L = world.vocab_size, data.draw(st.integers(4, 6))
        p = data.draw(st.sampled_from((0, L - 1)) | st.integers(0, L - 1))
        # Factor j reads tokens j - 1 and j; the slot's own are factors p and p + 1.
        j = data.draw(st.sampled_from([j for j in range(1, L) if j not in (p, p + 1)]))
        tokens = data.draw(st.lists(st.integers(0, V - 1), min_size=L, max_size=L))
        tokens[j] = data.draw(st.sampled_from(np.flatnonzero(world.matrix[tokens[j - 1]] == 0)
                                              .tolist()))
        padded = np.array([tokens + [V]])
        assert not conditional(world, padded, np.array([p]), np.array([0])).any()
        assert slot_distribution(world, tokens, p) is None
        with pytest.raises(ImpossibleContextError):
            conditional(world, tokens, p)

    def test_malformed_batches_rejected(self):
        world = build_world(WorldConfig(vocab_size=3, support=3), 0)
        cases = [
            (np.array([[0, 1, 3]]), [2], [0], "position 2 out of range for length 2"),
            (np.array([[0, 1, 2], [0, 3, 3]]), [1], [1], "position 1 out of range for length 1"),
            (np.array([[0, 4, 1]]), [0], [0], "token id out of range"),
            (np.array([[0, 3, 1]]), [0], [0], "token id out of range"),  # padding mid-sentence
            (np.array([0, 1]), [0], [0], "matrix"),
            (np.array([[0, 1]]), [0, 1], [0], "matrix"),  # a row per position
            (np.array([[0, 1]]), [0], [1], "row out of range for 1 sentences"),
            (np.array([[0, 1]]), [0], [-1], "row out of range for 1 sentences"),
        ]
        for tokens, positions, rows, message in cases:
            with pytest.raises(ValueError, match=message):
                conditional(world, tokens, np.array(positions), np.array(rows))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_one_sentence_matrix_serves_repeated_rows(self, data):
        """Queries share the matrix's sentences, several to a sentence and in any order."""
        world = data.draw(worlds(orders=(1, 2)))
        V = world.vocab_size
        sentences = data.draw(st.lists(st.lists(st.integers(0, V - 1), min_size=1, max_size=5),
                                       min_size=1, max_size=4))
        tokens = np.full((len(sentences), max(map(len, sentences))), V, dtype=np.int64)
        for row, s in zip(tokens, sentences):
            row[:len(s)] = s
        queries = data.draw(st.lists(st.sampled_from(
            [(k, p) for k, s in enumerate(sentences) for p in range(len(s))]), max_size=12))
        rows = np.array([k for k, _ in queries], dtype=np.int64)
        positions = np.array([p for _, p in queries], dtype=np.int64)
        got = conditional(world, tokens, positions, rows)
        assert got.shape == (len(queries), V)
        for row, (k, p) in zip(got, queries):
            want = slot_distribution(world, sentences[k], p)
            if want is None:
                assert not row.any()
                continue
            np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(row == 0.0, want == 0.0)


class TestConditionalBlocks:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_blocks_are_the_rows_of_one_call_on_the_whole_corpus(self, data):
        """Queries in any order, several to a sentence, a few rows to a block."""
        world = data.draw(worlds(orders=(1, 2)))
        V = world.vocab_size
        sentences = data.draw(st.lists(st.lists(st.integers(0, V - 1), min_size=1, max_size=5),
                                       min_size=1, max_size=6))
        flat = np.array(list(chain(*sentences)), dtype=np.int64)
        offsets = np.cumsum([0] + list(map(len, sentences)))
        queries = data.draw(st.lists(st.sampled_from(
            [(k, p) for k, s in enumerate(sentences) for p in range(len(s))]), max_size=12))
        rows = np.array([k for k, _ in queries], dtype=np.int64)
        position = np.array([p for _, p in queries], dtype=np.int64)
        want = conditional(world, _padded(flat, offsets, V), position, rows)
        step = data.draw(st.integers(1, 4))
        with mock.patch.object(world_module, "_ROW_FLOATS", step * V):
            blocks = list(conditional_blocks(world, flat, offsets, rows, position))
            (empty, no_rows), = conditional_blocks(world, flat, offsets, rows[:0], position[:0])
        assert len(blocks) == max(1, -(-len(queries) // step))
        for block, weights in blocks:
            assert len(weights) <= step
            np.testing.assert_array_equal(weights, want[block])
        np.testing.assert_array_equal(np.concatenate([w for _, w in blocks]), want)
        assert empty == slice(0, step) and no_rows.shape == (0, V)

    def test_each_kernel_call_reads_only_its_blocks_sentences(self, monkeypatch):
        world = build_world(WorldConfig(vocab_size=5, support=3), 0)
        table = build_confusion(world, ConfusionConfig(candidates=2), 0)[0]
        step = 3
        monkeypatch.setattr(world_module, "_ROW_FLOATS", step * world.vocab_size)
        calls = []

        def spy(world, tokens, position, rows=None):
            calls.append((tokens, position, rows))
            return conditional(world, tokens, position, rows)

        for module in [m for n, m in sys.modules.items() if n.startswith("denoiselab")]:
            for name, value in list(vars(module).items()):
                if value is conditional:  # every binding, wherever it was imported
                    monkeypatch.setattr(module, name, spy)

        def assert_block_calls(padded, lengths, rows, positions):
            assert len(calls) == -(-len(rows) // step) > 2
            for lo, (tokens, position, local) in zip(range(0, len(rows), step), calls):
                block = slice(lo, lo + step)
                first, last = rows[block].min(), rows[block].max() + 1
                width = lengths[first:last].max()
                np.testing.assert_array_equal(tokens, padded[first:last, :width])
                np.testing.assert_array_equal(position, positions[block])
                np.testing.assert_array_equal(local, rows[block] - first)
            calls.clear()

        corpus = generate_corpus(world, table, 12, (1, 6), 0.4, seed=3, annotate=True)
        clean, corrupted, lengths = corpus_arrays(corpus)
        assert_block_calls(clean, lengths, corpus.record, corpus.pos)
        at = np.arange(corpus.n_chars)[::-1]  # reversed: a block's rows run downward
        restoration_distribution(world, table, corpus, at, 0.4)
        ri = np.searchsorted(corpus.offsets, at, side="right") - 1
        assert_block_calls(corrupted, lengths, ri, at - corpus.offsets[ri])


class TestOracleScorer:
    @settings(max_examples=100, deadline=None)
    @given(kernel_cases(), st.sampled_from((0.05, 0.1, 0.5)), st.randoms(use_true_random=False))
    def test_any_subset_of_flat_positions_gives_the_restoration_rows_in_order(self, case, rate,
                                                                              rnd):
        world, table, sentences, _, _ = case
        corpus = place_corpus(sentences, world.vocab_size, rate)
        at = rnd.choices(range(corpus.n_chars), k=rnd.randint(0, 2 * corpus.n_chars))
        rows = OracleScorer(world, table, rate).predict_at(corpus, at)
        assert rows.shape == (len(at), world.vocab_size)
        for row, g in zip(rows, at):
            k = int(np.searchsorted(corpus.offsets, g, side="right")) - 1
            want = enumerated_restoration(world, table, sentences[k], g - corpus.offsets[k], rate)
            if not want.any():  # impossible context or unreachable token: uniform
                want = np.full(world.vocab_size, 1.0 / world.vocab_size)
            np.testing.assert_allclose(row, want, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(row == 0.0, want == 0.0)


class TestTvToOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from(((-1, 0, 1), MASKED_WINDOW, (0,))))
    def test_tv_is_the_mean_over_single_edit_records_scored_alone(self, data, window):
        world = data.draw(worlds(orders=(1, 2)))
        table = data.draw(tables(world))
        seed = data.draw(st.integers(0, 1000))
        model = train(generate_corpus(world, table, 20, (1, 6), 0.3, seed=seed), window)
        corpus = generate_corpus(world, table, 10, (1, 5), 0.3, seed=seed, stream="probe")
        distances = []
        for k, rec in enumerate(records_of(corpus)):
            if len(rec.edits) != 1:
                continue
            (i, _, _), = rec.edits
            alone = one_record(corpus, k)
            exact = restoration_distribution(world, table, alone, [i], 0.3)[0]
            row = every_row(model, alone)[i]
            distances.append(0.5 * float(np.abs(exact - row).sum()))
        if not distances:
            with pytest.raises(ValueError, match="no single-edit records"):
                tv_to_oracle(model, world, table, corpus, 0.3)
            return
        assert tv_to_oracle(model, world, table, corpus, 0.3) == np.mean(distances)


class TestAnnotation:
    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.sampled_from(("iid", "single_edit")))
    def test_categories_follow_the_rule_on_enumerated_candidate_sets(self, data, mode):
        world = data.draw(worlds())
        table = data.draw(tables(world))
        corpus = generate_corpus(world, table, 12, (1, 5), 0.4, mode=mode,
                                 seed=data.draw(st.integers(0, 1000)), annotate=True)
        for _, rec, k, (i, _, y) in iter_edits(corpus):
            prior = slot_distribution(world, rec.clean, i)
            candidates = {v for v in range(world.vocab_size)
                          if prior[v] > 0 and (v == y or table.matrix[v, y] > 0)}
            if len(candidates) == 1:
                want = SampleCategory.TRUE
            elif y in candidates:
                want = SampleCategory.NOISY
            else:
                want = SampleCategory.MULTI_ANSWER
            assert rec.categories[k] == want


class TestPosterior:
    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.sampled_from((0.1, 0.4)))
    def test_reports_match_enumeration_the_restoration_row_and_the_annotation(self, data, rate):
        world = data.draw(worlds())
        table = data.draw(tables(world))
        corpus = generate_corpus(world, table, 10, (1, 5), rate, mode="single_edit",
                                 seed=data.draw(st.integers(0, 1000)), annotate=True)
        for k, rec in enumerate(records_of(corpus)):
            if len(rec.edits) != 1:
                continue
            (i, _, _), = rec.edits
            rep = posterior(world, table, rec, 0, rate)
            assert abs(rep.posterior - brute_force_posterior(world, table, rec, 0, rate)) \
                <= 1e-12
            row = restoration_distribution(world, table, corpus, [corpus.offsets[k] + i], rate)[0]
            assert rep.candidates == tuple(np.flatnonzero(row).tolist())
            assert rep.category == rec.categories[0]
            prior = conditional(world, rec.corrupted, i)
            assert rep.priors == {v: prior[v] for v in rep.candidates}


def cold_posterior(world, table, record, rate):
    """The repr of ``posterior``'s report, or of its error, on a world keeping no slot rows."""
    world._slot_rows.clear()
    return kept_posterior(world, table, record, rate)


def kept_posterior(world, table, record, rate):
    try:
        return repr(posterior(world, table, record, 0, rate))
    except ValueError as exc:
        return repr(exc)


class TestKeptSlotRows:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.integers(2, 4), st.sampled_from((1, 2)), st.sampled_from((0.1, 0.4)))
    def test_interleaved_worlds_and_tables_each_get_their_cold_report(self, data, V, order,
                                                                      rate):
        setups = []
        for _ in range(2):  # two worlds of one shape, each with a table of its own
            world = data.draw(worlds(orders=(order,), sizes=(V, V)))
            setups.append((world, data.draw(tables(world))))
        (w0, t0), (w1, t1) = setups
        setups += [(w0, t1), (w1, t0)]
        seed = data.draw(st.integers(0, 1000))
        records = [rec for world, table in setups[:2]
                   for rec in records_of(generate_corpus(world, table, 6, (1, 4), rate,
                                                         mode="single_edit", seed=seed))
                   if rec.edits]
        calls = [(world, table, rec) for rec in records for world, table in setups]
        want = [cold_posterior(*call, rate) for call in calls]
        for _ in range(2):  # the worlds keep their rows, then serve every call from them
            assert [kept_posterior(*call, rate) for call in calls] == want

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_changing_a_reports_priors_does_not_change_the_next(self, data):
        world = data.draw(worlds(orders=(1, 2)))
        table = data.draw(tables(world))
        corpus = generate_corpus(world, table, 6, (1, 4), 0.1, mode="single_edit",
                                 seed=data.draw(st.integers(0, 1000)))
        for rec in records_of(corpus):
            if rec.edits:
                first = posterior(world, table, rec, 0, 0.1)
                want = dict(first.priors)
                first.priors.clear()
                first.priors[-1] = 2.0
                assert posterior(world, table, rec, 0, 0.1).priors == want
                i = rec.edits[0][0]
                row = conditional(world, rec.corrupted, i)
                want = row.copy()
                row *= 0.0
                np.testing.assert_array_equal(conditional(world, rec.corrupted, i), want)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from((0.1, 0.4)))
    def test_a_record_its_world_and_table_cannot_explain_raises_on_every_call(self, data, rate):
        V = data.draw(st.integers(3, 5))
        world = data.draw(worlds(orders=(1, 2), sizes=(V, V)))
        table = build_confusion(world, ConfusionConfig(
            candidates=data.draw(st.integers(1, V - 2)), context_affinity=0.0),
            data.draw(st.integers(0, 100)))[0]
        length = data.draw(st.integers(1, 5))
        rng = derive_rng(data.draw(st.integers(0, 1000)), "m")
        observed = tuple(sample_corpus_tokens(world, [length], rng)[0].tolist())
        i = data.draw(st.integers(0, length - 1))
        y = observed[i]
        mute = [x for x in range(V) if x != y and table.matrix[x, y] == 0.0]
        assume(mute)
        x = data.draw(st.sampled_from(mute))  # a source the channel never turns into y
        clean = observed[:i] + (x,) + observed[i + 1:]
        record = CorruptionRecord(clean, observed, ((i, x, y),))
        for _ in range(3):
            with pytest.raises(ValueError, match="original cannot emit the edit"):
                posterior(world, table, record, 0, rate)

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.sampled_from((0.1, 0.4)))
    def test_reports_from_kept_rows_match_enumeration(self, data, rate):
        world = data.draw(worlds(orders=(1, 2)))
        table = data.draw(tables(world))
        corpus = generate_corpus(world, table, 10, (1, 5), rate, mode="single_edit",
                                 seed=data.draw(st.integers(0, 1000)))
        records = [rec for rec in records_of(corpus) if rec.edits]
        for rec in records:
            posterior(world, table, rec, 0, rate)
        for rec in records:
            warm = posterior(world, table, rec, 0, rate).posterior
            assert abs(warm - brute_force_posterior(world, table, rec, 0, rate)) <= 1e-12

    def test_a_large_world_keeps_rows_of_the_pairs_it_reads_within_its_budget(self):
        V = 1000  # a dense table of every pair's row would take 8 GB
        world = build_world(WorldConfig(vocab_size=V, support=V), 0)
        table = build_confusion(world, ConfusionConfig(candidates=3, context_affinity=0.0), 0)[0]
        records = [rec for rec in records_of(generate_corpus(world, table, 20, (3, 6), 0.1,
                                                             mode="single_edit", seed=0))
                   if rec.edits]
        tracemalloc.start()
        try:
            for rec in records:
                posterior(world, table, rec, 0, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000  # 20 rows of 8 KB each, not V**2 floats
        rows = world._slot_rows
        for left in range(V):  # twice the pairs the budget holds
            for right in (1, 2):
                conditional(world, [left, 0, right], 1)
                assert len(rows) * V <= _SLOT_ROW_FLOATS
