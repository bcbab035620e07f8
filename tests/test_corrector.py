import json
import re
import signal
import tracemalloc

import numpy as np
import pytest

from denoiselab.augment import (ConfusionConfig, CorruptionRecord, PairCorpus,
                                SampleCategory, build_confusion, generate_corpus)
from denoiselab.corrector import (_ROW_BLOCK, MASKED_WINDOW, _argmax_keep_ties, _signatures,
                                  load_model, model_from_json, model_to_json, predict_at,
                                  predict_matrix, save_model, train)
from denoiselab.harness import evaluate
from denoiselab.pipeline import tv_to_oracle
from denoiselab.world import WorldConfig, build_world

from constructions import every_row, one_record, records_of


def identity_corpus(tokens_list, vocab_size):
    records = tuple(CorruptionRecord(t, t, ()) for t in tokens_list)
    return PairCorpus(records, vocab_size, 0.0, "iid")


def training_setup(seed=0, V=8):
    world = build_world(WorldConfig(vocab_size=V, support=3), seed)
    table = build_confusion(world, ConfusionConfig(candidates=2, context_affinity=0.0), seed)[0]
    return world, table


class TestTrain:
    def test_single_identity_pair_concentrates_on_observed(self):
        corpus = identity_corpus([(0, 1, 2, 3)], vocab_size=4)
        model = train(corpus, alpha=0.01)
        probs = predict_at(model, corpus, [1])[0]
        assert np.argmax(probs) == 1
        assert probs[1] > 0.95

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            train(PairCorpus((), 4, 0.1, "iid"))

    def test_merge_equals_joint_training(self):
        """The counts, and so the marginals, of two shards add up to the whole corpus's."""
        world, table = training_setup()
        full = generate_corpus(world, table, 50, (4, 8), 0.1, seed=3)
        left = train(PairCorpus(records_of(full)[:25], 8, 0.1, "iid"))
        right = train(PairCorpus(records_of(full)[25:], 8, 0.1, "iid"))
        joint = train(full)
        for part in ("counts", "center_counts", "target_counts"):
            np.testing.assert_array_equal(getattr(left, part) + getattr(right, part),
                                          getattr(joint, part))


class TestPredict:
    def test_rows_are_distributions(self):
        world, table = training_setup(3)
        corpus = generate_corpus(world, table, 80, (4, 8), 0.1, seed=1)
        model = train(corpus)
        rows = every_row(model, corpus)
        assert rows.shape == (corpus.n_chars, 8)
        assert np.abs(rows.sum(axis=1) - 1.0).max() < 1e-12
        assert np.all(rows > 0.0)

    def test_rows_are_the_smoothed_counts_and_leave_the_table_alone(self):
        world, table = training_setup(3)
        corpus = generate_corpus(world, table, 40, (4, 8), 0.1, seed=1)
        model = train(corpus, alpha=0.3)
        counts = model.counts.copy()
        V, base = model.vocab_size, model.vocab_size + 1
        rows = predict_at(model, corpus, np.arange(corpus.n_chars))
        k = 0
        for ri, rec in enumerate(records_of(corpus)):  # every signature was seen: no fallback
            padded = (V,) + rec.corrupted + (V,)
            alone = every_row(model, one_record(corpus, ri))  # no neighbour to read
            for i in range(len(rec.clean)):
                sig = padded[i] + base * padded[i + 1] + base ** 2 * padded[i + 2]
                want = (counts[sig] + 0.3) / (counts[sig].sum() + 0.3 * V)
                np.testing.assert_array_equal(rows[k], want)
                np.testing.assert_array_equal(alone[i], want)
                k += 1
        np.testing.assert_array_equal(model.counts, counts)

    def test_huge_alpha_approaches_uniform(self):
        corpus = identity_corpus([(0, 1, 2, 3)], vocab_size=4)
        model = train(corpus, alpha=1e9)
        probs = predict_at(model, corpus, [2])[0]
        np.testing.assert_allclose(probs, 0.25, atol=1e-8)

    def test_signature_with_single_target_argmaxes_it(self):
        rec = CorruptionRecord((0, 1, 2), (0, 3, 2), ((1, 1, 3),))
        corpus = PairCorpus((rec,), 4, 0.1, "iid")
        model = train(corpus)
        assert np.argmax(predict_at(model, corpus, [1])[0]) == 1  # corrupted (0, 3, 2)

    def test_unseen_signature_falls_back_to_center_marginal(self):
        corpus = identity_corpus([(0, 1, 2), (3, 1, 0)], vocab_size=4)
        model = train(corpus, alpha=0.01)
        # context never seen, center token 1 seen twice with target 1
        probs = predict_at(model, identity_corpus([(2, 1, 3)], vocab_size=4), [1])[0]
        assert np.argmax(probs) == 1

    def test_masked_window_ignores_center(self):
        corpus = identity_corpus([(0, 1, 2), (0, 3, 2)], vocab_size=4)
        model = train(corpus, window=MASKED_WINDOW)
        middles = predict_at(model, corpus, [1, 4])  # the 1 of (0, 1, 2) and the 3 of (0, 3, 2)
        np.testing.assert_array_equal(middles[0], middles[1])

    @pytest.mark.parametrize("place", [(0, 5), (0, -1), (4, 9), ((0, 0), (1, 1)), ((2,),)])
    def test_places_outside_a_sentence_rejected(self, place):
        # Places are flat positions into the corpus's 5 tokens: one outside [0, 5) is
        # outside every sentence, and (record, position) pairs are not positions.
        corpus = identity_corpus([(0, 1, 2), (3, 1)], vocab_size=4)
        model = train(corpus)
        with pytest.raises(ValueError, match="out of range" if np.ndim(place) == 1 else "1-D"):
            predict_at(model, corpus, place)

    def test_positions_must_be_integers(self):
        corpus = identity_corpus([(0, 1, 2), (3, 1)], vocab_size=4)
        model = train(corpus)
        for at in ([0.5, 1.0], np.ones(5, dtype=bool)):  # a float array or a mask is not positions
            with pytest.raises(ValueError, match="integer flat indexes"):
                predict_at(model, corpus, at)
        assert predict_at(model, corpus, []).shape == (0, 4)
        np.testing.assert_array_equal(predict_at(model, corpus, np.array([4], np.uint8)),
                                      predict_at(model, corpus, [4]))

    @pytest.mark.parametrize("tokens", [(5, 0, 1), (0, 4, 1), (20,), (0, 2)])
    def test_tokens_outside_the_vocabulary_rejected(self, tokens):
        # Every path refuses a corpus over another vocabulary, here max(tokens) + 1, whatever
        # it holds. Over 4 tokens (base 5), (5, 0, 1) at position 0 would read the signature
        # id of (start, 0, 1): 4 + 5 * 5 + 0 = 4 + 5 * 0 + 25 * 1.
        model = train(identity_corpus([(0, 1, 2), (3, 1)], vocab_size=4))
        corpus = identity_corpus([tokens], vocab_size=max(tokens) + 1)
        message = rf"^corpus vocab_size {max(tokens) + 1} differs from the model's 4$"
        for score in (lambda: predict_at(model, corpus, [0]), lambda: predict_matrix(model, corpus),
                      lambda: evaluate(model, corpus)):
            with pytest.raises(ValueError, match=message):
                score()
        with pytest.raises(ValueError, match=r"token -1 outside \[0, 4\)"):
            identity_corpus([(-1, 2, 3)], vocab_size=4)  # a corpus holds only its own tokens

    def test_rows_are_gathered_in_blocks_without_a_second_full_copy(self):
        world = build_world(WorldConfig(vocab_size=20, support=3), 0)
        table = build_confusion(world, ConfusionConfig(candidates=3), 0)[0]
        model = train(generate_corpus(world, table, 2_000, (8, 16), 0.1, seed=1))
        corpus = generate_corpus(world, table, 2_000, (8, 16), 0.1, seed=2)
        assert corpus.n_chars > 4 * _ROW_BLOCK
        tracemalloc.start()
        try:
            probs = every_row(model, corpus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * probs.nbytes  # an int64 copy of every row would take twice
        at = np.array([0, _ROW_BLOCK - 1, _ROW_BLOCK, 3 * _ROW_BLOCK + 1, corpus.n_chars - 1])
        np.testing.assert_array_equal(predict_at(model, corpus, at), probs[at])

    def test_matrix_columns_reduce_the_rows_across_block_boundaries(self):
        world = build_world(WorldConfig(vocab_size=20, support=3), 0)
        table = build_confusion(world, ConfusionConfig(candidates=3), 0)[0]
        model = train(generate_corpus(world, table, 300, (8, 16), 0.1, seed=1))
        corpus = generate_corpus(world, table, 1_000, (8, 16), 0.1, seed=2)
        assert corpus.n_chars > 2 * _ROW_BLOCK
        assert _ROW_BLOCK not in corpus.offsets  # the first boundary falls inside a sentence
        rows = every_row(model, corpus)  # the fallback rows of unseen signatures included
        assert np.any(model.counts[_signatures(corpus.corrupted, corpus.offsets, 20,
                                               model.window)].sum(axis=1) == 0)
        decoded, confidence, kept = predict_matrix(model, corpus)
        g = np.arange(corpus.n_chars)
        np.testing.assert_array_equal(decoded, _argmax_keep_ties(rows, corpus.corrupted))
        np.testing.assert_array_equal(confidence, rows[g, decoded])
        np.testing.assert_array_equal(kept, rows[g, corpus.corrupted])


class TestCorrect:
    def test_identity_trained_model_keeps_input(self):
        corpus = identity_corpus([(0, 1, 2, 3), (1, 2, 3, 0)], vocab_size=4)
        model = train(corpus)
        np.testing.assert_array_equal(predict_matrix(model, corpus)[0], corpus.corrupted)

    def test_uniform_model_ties_keep_input(self):
        corpus = identity_corpus([(0, 1, 2, 3)], vocab_size=4)
        model = train(corpus, alpha=1e12)
        probe = identity_corpus([(3, 2, 1, 0)], vocab_size=4)
        assert predict_matrix(model, probe)[0].tolist() == [3, 2, 1, 0]

    def test_planted_unambiguous_error_is_restored(self):
        # Cycle world: v is always followed by v + 1, and every confusion
        # candidate sits two steps away, so each planted edit has a unique
        # valid restoration and a well-trained model recovers the sentence.
        V = 6
        rows = {}
        for v in range(V):
            row = [0.0] * V
            row[(v + 1) % V] = 1.0
            rows[str(v)] = row
        world = build_world(WorldConfig(vocab_size=V, order=1, rows=rows,
                                        initial=[1.0 / V] * V), 0)
        cand = np.array([[(v + 2) % V, (v + 3) % V] for v in range(V)])
        from denoiselab.augment import ConfusionTable
        table = ConfusionTable(V, "uniform", cand, np.full((V, 2), 0.5))
        corpus = generate_corpus(world, table, 4_000, (4, 8), 0.1, seed=2)
        model = train(corpus)
        evalc = generate_corpus(world, table, 600, (6, 10), 0.1,
                                mode="single_edit", seed=9, annotate=True)
        assert all(r.categories[0] == SampleCategory.TRUE for r in records_of(evalc))
        # Edits away from sentence boundaries: with one-sided context the
        # window cannot tell a center corruption from a corrupted neighbor,
        # so boundary slots stay genuinely ambiguous for this model class.
        decoded, starts = predict_matrix(model, evalc)[0].tolist(), evalc.offsets.tolist()
        deep = [k for k, r in enumerate(records_of(evalc))
                if 2 <= r.edits[0][0] <= len(r.clean) - 3]
        assert len(deep) > 150
        hits = sum(tuple(decoded[starts[k]:starts[k + 1]]) == records_of(evalc)[k].clean
                   for k in deep)
        assert hits / len(deep) > 0.95

    def test_restoration_rate_on_random_world(self):
        world = build_world(WorldConfig(vocab_size=6, support=2), 4)
        table = build_confusion(world, ConfusionConfig(candidates=2, context_affinity=0.0), 4)[0]
        corpus = generate_corpus(world, table, 35_000, (4, 8), 0.1, seed=2)
        model = train(corpus)
        evalc = generate_corpus(world, table, 400, (4, 8), 0.1,
                                mode="single_edit", seed=9, annotate=True)
        decoded = predict_matrix(model, evalc)[0]
        edit_ok = total = 0
        for k, rec in enumerate(records_of(evalc)):
            if rec.categories[0] != SampleCategory.TRUE:
                continue
            total += 1
            i, x, _ = rec.edits[0]
            edit_ok += decoded[evalc.offsets[k] + i] == x
        assert total > 100
        assert edit_ok / total > 0.85

    def test_determinism(self):
        world, table = training_setup(5)
        corpus = generate_corpus(world, table, 50, (4, 8), 0.1, seed=0)
        model = train(corpus)
        np.testing.assert_array_equal(predict_matrix(model, corpus)[0],
                                      predict_matrix(model, corpus)[0])


class TestConvergence:
    def test_tv_to_oracle_shrinks_with_training_volume(self):
        # Character-count ladder, median over seeds; the windowed count model
        # estimates the exact restore posterior increasingly well.
        sizes = (1_000, 10_000, 100_000)
        tvs = {s: [] for s in sizes}
        for seed in range(5):
            world = build_world(WorldConfig(vocab_size=10, support=3,
                                            weight_low=0.05, weight_high=1.0), seed)
            table = build_confusion(world, ConfusionConfig(candidates=2,
                                                           context_affinity=0.3), seed)[0]
            probe = generate_corpus(world, table, 250, (6, 10), 0.1,
                                    mode="single_edit", seed=seed + 100)
            for size in sizes:
                n = max(1, size // 8)
                corpus = generate_corpus(world, table, n, (6, 10), 0.1,
                                         seed=seed, stream=f"sz{size}")
                model = train(corpus)
                tvs[size].append(tv_to_oracle(model, world, table, probe, 0.1))
        medians = [float(np.median(tvs[s])) for s in sizes]
        assert medians[0] >= medians[1] >= medians[2]
        assert medians[2] < 0.2

    def test_trained_noisy_confidence_respects_uniform_ceiling(self):
        # Bounded-ratio world: every noisy restore posterior is at most
        # 1 / (1 + 9a); the trained model tracks it up to estimation slack.
        world = build_world(WorldConfig(vocab_size=10, support=3,
                                        weight_low=1.0, weight_high=2.0), 7)
        table = build_confusion(world, ConfusionConfig(candidates=2, context_affinity=0.6), 7)[0]
        corpus = generate_corpus(world, table, 30_000, (6, 10), 0.1, seed=7)
        model = train(corpus)
        evalc = generate_corpus(world, table, 2_000, (6, 10), 0.1,
                                mode="single_edit", seed=8, annotate=True)
        rows = predict_at(model, evalc, evalc.flat_pos)  # one edit per record
        confidences = [float(row[x]) for row, x, rec in zip(rows, evalc.orig, records_of(evalc))
                       if rec.categories[0] == SampleCategory.NOISY]
        assert len(confidences) > 30
        ceiling = 1 / (1 + 9 * 0.1)
        assert float(np.median(confidences)) <= ceiling
        assert float(np.quantile(confidences, 0.95)) <= ceiling + 0.1


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        world, table = training_setup(6)
        corpus = generate_corpus(world, table, 60, (4, 8), 0.1, seed=1)
        model = train(corpus)
        path = tmp_path / "model.json"
        save_model(model, path)
        back = load_model(path)
        np.testing.assert_array_equal(back.counts, model.counts)
        np.testing.assert_array_equal(back.center_counts, model.center_counts)
        np.testing.assert_array_equal(back.target_counts, model.target_counts)
        assert back.window == model.window and back.alpha == model.alpha
        assert back.trained_on == model.trained_on
        assert back.corpus_hash == model.corpus_hash
        np.testing.assert_array_equal(every_row(back, corpus), every_row(model, corpus))
        assert model_to_json(back) == model_to_json(model)

    def test_masked_model_round_trip(self):
        corpus = identity_corpus([(0, 1, 2), (3, 1, 0)], vocab_size=4)
        model = train(corpus, window=MASKED_WINDOW)
        back = model_from_json(model_to_json(model))
        assert back.center_counts is None
        np.testing.assert_array_equal(back.counts, model.counts)

    @pytest.mark.parametrize("key,row,message", [
        ("7", [7], "row has 1 counts, expected 4"),
        ("7", [1, 0, 0], "row has 3 counts, expected 4"),
        ("7", [1, -2, 0, 0], "negative count"),
        ("7", [2**63, 0, 0, 0], "count outside int64"),
        ("7", [2**62, 2**62, 0, 0], "the counts' total passes int64"),
        ("-1", [1, 0, 0, 0], r"signature id outside \[0, 125\)"),
        ("1000000", [1, 0, 0, 0], r"signature id outside \[0, 125\)"),
        ("a", [1, 0, 0, 0], "signature id is not an integer"),
        ("+1", [1, 0, 0, 0], "signature id is not written as '1'"),
        (" 1", [1, 0, 0, 0], "signature id is not written as '1'"),
    ], ids=["length-1-row", "short-row", "negative-count", "count-beyond-int64",
            "total-beyond-int64", "id-below-0", "id-too-large",
            "id-not-integer", "id-plus-sign", "id-leading-space"])
    def test_malformed_counts_rejected(self, tmp_path, key, row, message):
        model = train(identity_corpus([(0, 1, 2), (3, 1, 0)], vocab_size=4))
        doc = json.loads(model_to_json(model))
        doc["counts"][key] = row
        with pytest.raises(ValueError, match=rf"^counts\['{re.escape(key)}'\]: {message}"):
            model_from_json(json.dumps(doc))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError,
                           match=rf"model\.json: counts\['{re.escape(key)}'\]: {message}"):
            load_model(path)

    @pytest.mark.parametrize("fields,message", [
        ({"alpha": 0}, "alpha must be positive and finite, got 0"),
        ({"alpha": -0.5}, "alpha must be positive and finite, got -0.5"),
        ({"alpha": 10**400}, f"alpha: expected an int64 integer, got {10**400}"),
        ({"alpha": float("nan")}, "alpha: expected a finite number, got nan"),
        ({"window": [], "counts": {}}, "window needs at least one offset"),
        ({"trained_chars": 4}, "field 'trained_chars' must be 3, the counts' sum"),
        ({"trained_chars": 2}, "field 'trained_chars' must be 3, the counts' sum"),
        ({"vocab_size": 0}, "field 'vocab_size' must be at least 1, got 0"),
        ({"vocab_size": -2}, "field 'vocab_size' must be at least 1, got -2"),
    ], ids=["alpha-zero", "alpha-negative", "alpha-beyond-float", "alpha-nan", "window-empty",
            "trained-chars-one-over", "trained-chars-one-under", "vocab-size-zero",
            "vocab-size-negative"])
    def test_bad_settings_and_size_rejected(self, tmp_path, fields, message):
        doc = json.loads(model_to_json(train(identity_corpus([(0, 1, 2)], vocab_size=4))))
        assert doc["trained_chars"] == 3
        doc.update(fields)
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            model_from_json(json.dumps(doc))
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"^{re.escape(f'{path}: {message}')}$"):
            load_model(path)

    @pytest.mark.parametrize("key,value,message", [
        ("vocab_size", "4", r"vocab_size: expected int, got str"),
        ("window", [-1, 0.5], r"window\[1\]: expected int, got float"),
        ("window", [-1, 2**63], r"window\[1\]: expected an int64 integer, got 9223372036854775808"),
        ("alpha", "0.1", r"alpha: expected float, got str"),
        ("corpus_hash", 5, r"corpus_hash: expected str, got int"),
        ("trained_chars", 1.5, r"trained_chars: expected int, got float"),
        ("trained_on", None, r"trained_on: expected str, got NoneType"),
        ("counts", 5, r"counts: expected an object, got int"),
        ("counts", {"7": [1, 0.5, 0, 0]}, r"counts\['7'\]: row must be a list of integers"),
    ], ids=["vocab-size-string", "window-float", "window-beyond-int64", "alpha-string",
            "hash-int",
            "trained-chars-float", "trained-on-null", "counts-int", "counts-float-row"])
    def test_wrong_typed_field_rejected(self, key, value, message):
        doc = json.loads(model_to_json(train(identity_corpus([(0, 1, 2)], vocab_size=4))))
        doc[key] = value
        with pytest.raises(ValueError, match=rf"^{message}$"):
            model_from_json(json.dumps(doc))

    def test_offsets_past_every_sentence_score_promptly_and_alike(self):
        world, table = training_setup(6)
        corpus = generate_corpus(world, table, 200, (4, 8), 0.1, seed=2)
        doc = json.loads(model_to_json(train(corpus, (-1, 0, 10**6))))
        want = every_row(model_from_json(json.dumps(doc)), corpus)
        want_scored = predict_matrix(model_from_json(json.dumps(doc)), corpus)

        def too_slow(*_):
            raise TimeoutError("scoring took over 10 s")

        previous = signal.signal(signal.SIGALRM, too_slow)
        signal.alarm(10)  # an edge loop of 2**62 steps would never end
        try:
            for offset in (2**62, 2**63 - 1):
                doc["window"] = [-1, 0, offset]
                model = model_from_json(json.dumps(doc))
                for got, column in zip(predict_matrix(model, corpus), want_scored):
                    np.testing.assert_array_equal(got, column)
                np.testing.assert_array_equal(every_row(model, corpus), want)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        doc["window"] = [-1, 0, -2**70]  # beyond int64: refused at load
        with pytest.raises(ValueError,
                           match=rf"^window\[2\]: expected an int64 integer, got {-2**70}$"):
            model_from_json(json.dumps(doc))
