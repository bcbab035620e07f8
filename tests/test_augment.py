import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoiselab.augment import (CATEGORY_TABLE, TOKEN_BUDGET, ConfusionConfig, ConfusionTable,
                                CorruptionRecord, PairCorpus, SampleCategory, build_confusion,
                                candidate_category_codes, check_token_budget, concat_corpora,
                                confusion_from_json, confusion_to_json,
                                corpus_arrays, corpus_digest, corpus_from_jsonl,
                                corpus_to_jsonl, generate_corpus, load_confusion,
                                save_confusion, zipf_exponent_for_head_mass)
from denoiselab.oracle import posterior
from denoiselab.pipeline import ExperimentConfig, build_experiment_world
from denoiselab.world import WorldConfig, build_world

from constructions import records_of
from enumeration import channel_prob
from reference import iter_edits


def small_world(V=6, support=3, seed=0, **kw):
    return build_world(WorldConfig(vocab_size=V, support=support, **kw), seed)


def manual_table(V, candidates, weights=None, mode="uniform"):
    cand = np.asarray(candidates, dtype=np.int64)
    if weights is None:
        weights = np.full(cand.shape, 1.0 / cand.shape[1])
    return ConfusionTable(V, mode, cand, np.asarray(weights, dtype=float))


class TestBuildConfusion:
    def test_uniform_two_candidates(self):
        w = small_world(V=4, support=2)
        t = build_confusion(w, ConfusionConfig(candidates=2, context_affinity=0.0), 0)[0]
        assert t.candidates.shape == (4, 2)
        np.testing.assert_array_equal(t.weights, 0.5)
        for v in range(4):
            assert v not in t.candidates[v]

    def test_long_tailed_head_mass_calibration(self):
        # Head shares mirroring the documented channel statistics.
        w = small_world(V=12, support=3)
        t = build_confusion(w, ConfusionConfig(candidates=5,
                                               head_mass=0.587, context_affinity=0.0), 0)[1]
        assert t.weights[0, 0] == pytest.approx(0.587, abs=1e-9)
        assert np.all(np.diff(t.weights, axis=1) < 0)

    def test_uniform_seven_candidates_head_share(self):
        w = small_world(V=12, support=3)
        t = build_confusion(w, ConfusionConfig(candidates=7, context_affinity=0.0), 0)[0]
        assert t.weights[0, 0] == pytest.approx(1 / 7, abs=1e-12)

    def test_candidate_count_must_be_below_vocab(self):
        w = small_world(V=4)
        with pytest.raises(ValueError, match="candidates must be below the world's vocab_size 4"):
            build_confusion(w, ConfusionConfig(candidates=4), 0)[0]

    @pytest.mark.parametrize("seed", range(4))
    def test_two_token_vocabulary_with_an_affine_pick(self, seed):
        # The affine pick fills the row, leaving no other candidate to draw.
        w = small_world(V=2, support=2, seed=seed)
        t = build_confusion(w, ConfusionConfig(candidates=1, context_affinity=1.0), seed)[0]
        np.testing.assert_array_equal(t.candidates, [[1], [0]])

    def test_determinism_and_shared_structure_across_modes(self):
        w = small_world(V=8, support=3, seed=2)
        cfg = ConfusionConfig(candidates=3, context_affinity=0.5)
        uniform, longtail = build_confusion(w, cfg, 5)
        assert longtail.candidates is uniform.candidates  # one candidate draw
        assert (uniform.mode, longtail.mode) == ("uniform", "long_tailed")
        again, _ = build_confusion(w, cfg, 5)
        np.testing.assert_array_equal(again.candidates, uniform.candidates)

    def test_one_candidate_gives_two_uniform_weight_tables(self):
        tables = build_confusion(small_world(V=5), ConfusionConfig(candidates=1), 3)
        assert [t.mode for t in tables] == ["uniform", "long_tailed"]
        for t in tables:
            np.testing.assert_array_equal(t.weights, 1.0)
            assert t.zipf_exponent is None

    def test_head_mass_solver_bounds(self):
        with pytest.raises(ValueError):
            zipf_exponent_for_head_mass(4, 0.2)  # below 1/c
        e = zipf_exponent_for_head_mass(3, 0.8)
        w = np.arange(1, 4.0) ** -e
        assert w[0] / w.sum() == pytest.approx(0.8, abs=1e-9)


class TestChannelLaw:
    def test_keep_and_replace_probabilities(self):
        w = small_world(V=5)
        t = build_confusion(w, ConfusionConfig(candidates=2, context_affinity=0.0), 0)[0]
        x = 0
        y = int(t.candidates[x, 0])
        assert channel_prob(t, x, x, 0.1) == pytest.approx(0.9, abs=1e-15)
        assert channel_prob(t, x, y, 0.1) == pytest.approx(0.1 * 0.5, abs=1e-15)
        vec = t.channel_vector(y, 0.1)
        assert vec[y] == pytest.approx(0.9)
        assert vec[x] == pytest.approx(0.05)

    def test_channel_vector_is_the_channel_law_at_every_source(self):
        t = build_confusion(small_world(V=5), ConfusionConfig(candidates=2, head_mass=0.7), 0)[1]
        V = t.vocab_size
        for rate in (0.0, 0.1, 0.5):
            rows = t.channel_vector(np.arange(V), rate)
            for observed in range(V):
                want = [channel_prob(t, source, observed, rate) for source in range(V)]
                assert t.channel_vector(observed, rate).tolist() == want
                assert rows[observed].tolist() == want
        for observed in (0, np.arange(V)):
            with pytest.raises(ValueError, match="rate must be in"):
                t.channel_vector(observed, 1.0)

    def test_weight_rows_sum_to_one(self):
        w = small_world(V=9, support=3, seed=4)
        t = build_confusion(w, ConfusionConfig(candidates=4, head_mass=0.7), 0)[1]
        np.testing.assert_allclose(t.weights.sum(axis=1), 1.0, atol=1e-12)


class TestCorrupt:
    def setup_method(self):
        self.world = small_world(V=6, support=3, seed=1)
        self.table = build_confusion(self.world, ConfusionConfig(candidates=2,
                                                                 context_affinity=0.0), 0)[0]

    def test_zero_rate_is_identity(self):
        corpus = generate_corpus(self.world, self.table, 50, (4, 8), 0.0, seed=0)
        np.testing.assert_array_equal(corpus.corrupted, corpus.clean)
        assert corpus.n_edits == 0

    def test_full_rate_replaces_everything(self):
        world = small_world(V=4, support=3, seed=1)
        t = manual_table(4, [[1], [2], [3], [0]])  # single forced candidate
        corpus = generate_corpus(world, t, 50, (4, 8), 1.0, seed=0)
        np.testing.assert_array_equal(corpus.corrupted, (corpus.clean + 1) % 4)
        assert corpus.n_edits == corpus.n_chars

    def test_single_edit_forces_one_replacement(self):
        corpus = generate_corpus(self.world, self.table, 20, (5, 5), 0.1,
                                 mode="single_edit", seed=0)
        assert np.array_equal(np.bincount(corpus.record, minlength=20), np.ones(20))
        for rec in records_of(corpus):
            i_, x, y = rec.edits[0]
            assert rec.clean[i_] == x and rec.corrupted[i_] == y and x != y

    @pytest.mark.parametrize("rate", [1.5, -0.2])
    def test_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match=r"rate must be in \[0, 1\]"):
            generate_corpus(self.world, self.table, 20, (4, 8), rate, seed=0)

    def test_edit_fraction_matches_rate(self):
        # ~1e5 characters at rate 0.1; fraction within 3 sigma (fixed seed).
        corpus = generate_corpus(self.world, self.table, 8_000, (8, 16), 0.1,
                                 mode="iid", seed=77)
        chars = corpus.n_chars
        frac = corpus.n_edits / chars
        sigma = np.sqrt(0.1 * 0.9 / chars)
        assert abs(frac - 0.1) < 3 * sigma

    def test_replacements_come_from_candidate_sets(self):
        corpus = generate_corpus(self.world, self.table, 300, (4, 8), 0.3,
                                 mode="iid", seed=3)
        for _, rec, _, (i, x, y) in iter_edits(corpus):
            assert y in self.table.candidates[x]


class TestRecordInvariants:
    def test_length_preserved_and_edit_consistency(self):
        with pytest.raises(ValueError, match="length"):
            CorruptionRecord((0, 1), (0,), ())
        with pytest.raises(ValueError, match="inconsistent"):
            CorruptionRecord((0, 1), (0, 2), ((1, 0, 2),))
        with pytest.raises(ValueError, match="not recorded"):
            CorruptionRecord((0, 1), (0, 0), ())
        with pytest.raises(ValueError, match="inconsistent"):  # one edit per position
            CorruptionRecord((0, 1), (0, 2), ((1, 1, 2), (1, 1, 2)))

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_generated_records_validate(self, seed):
        w = small_world(V=5, support=2, seed=seed % 50)
        t = build_confusion(w, ConfusionConfig(candidates=2, context_affinity=0.0), seed % 7)[0]
        corpus = generate_corpus(w, t, 20, (3, 6), 0.2, mode="iid", seed=seed)
        for rec in records_of(corpus):
            assert len(rec.clean) == len(rec.corrupted)


def categorization_world():
    """Explicit world/table with one planted context admitting every case.

    Context (0, slot, 3).  Tokens 1 and 2 both fit the slot; tokens 4 and 5
    do not.  The table makes 1 -> 2 a noisy case (2 fits and keeps itself),
    1 -> 4 a multi-answer case (2 is a second fitting source of 4), and
    2 -> 5 a true case (2 is the only source of 5).
    """
    rows = {
        "0": [0.0, 0.5, 0.3, 0.2, 0.0, 0.0],
        "1": [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        "2": [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        "3": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        "4": [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        "5": [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
    }
    world = build_world(WorldConfig(vocab_size=6, order=1, rows=rows,
                                    initial=[1.0, 0, 0, 0, 0, 0]), 0)
    table = manual_table(6, [[2, 1], [2, 4], [4, 5], [0, 1], [1, 2], [0, 1]])
    return world, table


class TestCategorize:
    def test_true_sample(self):
        # 5 -> 4: only 5 emits 4 here ... but 5 does not fit; build instead on
        # token 2 -> 5: sources of 5 are {2}, and 5 has zero prior in context.
        world, table = categorization_world()
        rec = CorruptionRecord((0, 2, 3), (0, 5, 3), ((1, 2, 5),))
        res = posterior(world, table, rec, 0, 0.1)
        assert res.category == SampleCategory.TRUE
        assert res.candidates == (2,)

    def test_noisy_sample(self):
        world, table = categorization_world()
        rec = CorruptionRecord((0, 1, 3), (0, 2, 3), ((1, 1, 2),))
        res = posterior(world, table, rec, 0, 0.1)
        assert res.category == SampleCategory.NOISY
        assert set(res.candidates) >= {1, 2}

    def test_multi_answer_sample(self):
        world, table = categorization_world()
        rec = CorruptionRecord((0, 1, 3), (0, 4, 3), ((1, 1, 4),))
        res = posterior(world, table, rec, 0, 0.1)
        assert res.category == SampleCategory.MULTI_ANSWER
        assert set(res.candidates) == {1, 2}

    def test_multi_edit_rejected(self):
        world, table = categorization_world()
        rec = CorruptionRecord((0, 1, 3, 0), (0, 2, 3, 5), ((1, 1, 2), (3, 0, 5)))
        with pytest.raises(ValueError, match="single-edit records only"):
            posterior(world, table, rec, 0, 0.1)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_batch_codes_equal_the_scalar_reading_of_the_table(self, data):
        width, n = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 10))
        rows = data.draw(st.lists(st.lists(st.booleans(), min_size=width, max_size=width),
                                  min_size=n, max_size=n))
        rows[data.draw(st.integers(0, n - 1))] = [False] * width  # no candidate at all
        replacements = data.draw(st.lists(st.integers(0, width - 1), min_size=n, max_size=n))
        codes = candidate_category_codes(np.array(rows, dtype=bool), replacements)
        assert codes.dtype == np.int8
        for row, y, code in zip(rows, replacements, codes.tolist()):
            members = [v for v, hit in enumerate(row) if hit]  # as posterior reads its candidates
            assert code == CATEGORY_TABLE[len(members) == 1][y in members]

    def test_partition_is_exhaustive_and_consistent(self):
        w = small_world(V=8, support=3, seed=6)
        t = build_confusion(w, ConfusionConfig(candidates=3, context_affinity=0.4), 2)[0]
        corpus = generate_corpus(w, t, 400, (4, 8), 0.1, mode="single_edit",
                                 seed=9, annotate=True)
        for rec in records_of(corpus):
            res = posterior(w, t, rec, 0, 0.1)
            _, x, y = rec.edits[0]
            assert x in res.candidates
            assert len(res.candidates) >= 1
            if res.category == SampleCategory.TRUE:
                assert res.candidates == (x,)
            elif res.category == SampleCategory.NOISY:
                assert y in res.candidates
            else:
                assert y not in res.candidates and len(res.candidates) > 1
            # planted annotation agrees with the re-run
            assert rec.categories[0] == res.category


class TestGenerateCorpus:
    def test_empty_corpus_rejected(self):
        w, t = categorization_world()
        with pytest.raises(ValueError, match="empty corpus"):
            generate_corpus(w, t, 0, (8, 16), 0.1)

    def test_token_budget_is_checked_before_anything_is_drawn(self):
        # Sentences times the longest length may reach the budget, not pass it.
        w, t = categorization_world()
        for n, hi in ((2**62, 16), (TOKEN_BUDGET // 16 + 1, 16), (1, TOKEN_BUDGET + 1)):
            with pytest.raises(ValueError, match=f"^n_sentences: {n} sentences of up to {hi} "
                               f"tokens pass the budget of {TOKEN_BUDGET} tokens per corpus$"):
                generate_corpus(w, t, n, (1, hi), 0.1)
        check_token_budget(TOKEN_BUDGET // 16, 16, "n_sentences")  # the edge itself passes

    def test_annotation_memory_does_not_grow_with_edits_times_the_sentence_length(self):
        # Each edit once held a padded copy of its sentence: 150 MiB for these 6,046 edits.
        world, _, longtail = build_experiment_world(ExperimentConfig(), 0)
        tracemalloc.start()
        try:
            corpus = generate_corpus(world, longtail, 20, (1000, 1000), 0.3, annotate=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert corpus.n_edits > 5000
        assert peak < 16 * 2**20

    def test_annotation_memory_does_not_grow_with_the_rate(self):
        # Prior rows for all 176,548 edits at once would peak at about 78 MiB here;
        # unannotated, the same corpus peaks at 10 MiB.
        world, _, longtail = build_experiment_world(ExperimentConfig(), 0)
        tracemalloc.start()
        try:
            corpus = generate_corpus(world, longtail, 2**14, (8, 16), 0.9, annotate=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert corpus.n_edits > 170_000
        assert peak < 32 * 2**20

    def test_determinism(self):
        w = small_world(V=6, support=2, seed=0)
        t = build_confusion(w, ConfusionConfig(candidates=2, context_affinity=0.0), 0)[0]
        a = generate_corpus(w, t, 60, (4, 8), 0.1, seed=5)
        b = generate_corpus(w, t, 60, (4, 8), 0.1, seed=5)
        assert records_of(a) == records_of(b)

    def test_zero_rate_iid_corpus_has_no_edits(self):
        # No position is hit, so the replacement draw gets an empty batch.
        w = small_world(V=6, support=2, seed=0)
        t = build_confusion(w, ConfusionConfig(candidates=2, context_affinity=0.0), 0)[0]
        corpus = generate_corpus(w, t, 40, (4, 8), 0.0, mode="iid", seed=2, annotate=True)
        assert corpus.n_edits == 0 and all(rec.edits == () for rec in records_of(corpus))
        np.testing.assert_array_equal(corpus.corrupted, corpus.clean)
        assert corpus.columns.repl.dtype == np.int64 and len(corpus.columns.category) == 0

    def test_clean_fraction(self):
        w = small_world(V=6, support=2, seed=0)
        t = build_confusion(w, ConfusionConfig(candidates=2, context_affinity=0.0), 0)[0]
        corpus = generate_corpus(w, t, 400, (4, 8), 0.1, mode="single_edit",
                                 seed=8, clean_fraction=0.5)
        n_clean = sum(1 for r in records_of(corpus) if not r.edits)
        assert 120 < n_clean < 280
        for rec in records_of(corpus):
            assert len(rec.edits) <= 1

    def test_default_category_mix_matches_qualitative_ratios(self):
        # Contextually valid replacements are a few percent and clearly more
        # common than multi-answer cases, as observed in real channel data.
        cfg = ExperimentConfig()
        noisy, multi = [], []
        for seed in range(6):
            w, _, longtail = build_experiment_world(cfg, seed)
            corpus = generate_corpus(w, longtail, 2_000, cfg.length_range, cfg.rate,
                                     mode="single_edit", seed=seed, annotate=True)
            counts = {c: 0 for c in SampleCategory}
            for rec in records_of(corpus):
                counts[rec.categories[0]] += 1
            total = len(corpus)
            noisy.append(counts[SampleCategory.NOISY] / total)
            multi.append(counts[SampleCategory.MULTI_ANSWER] / total)
        med_noisy = float(np.median(noisy))
        med_multi = float(np.median(multi))
        assert 0.03 < med_noisy < 0.20
        assert 0.005 < med_multi < 0.10
        assert med_noisy > 1.5 * med_multi


class TestCorpusIO:
    def test_jsonl_round_trip(self, tmp_path):
        w = small_world(V=6, support=2, seed=0)
        t = build_confusion(w, ConfusionConfig(candidates=2, context_affinity=0.0), 0)[0]
        corpus = generate_corpus(w, t, 40, (4, 6), 0.15, mode="single_edit",
                                 seed=2, annotate=True)
        path = tmp_path / "c.jsonl"
        corpus_to_jsonl(corpus, path)
        back = corpus_from_jsonl(path, vocab_size=6, rate=0.15, mode="single_edit")
        assert records_of(back) == records_of(corpus)

    def test_jsonl_field_shape(self, tmp_path):
        w, t = categorization_world()
        rec = CorruptionRecord((0, 1, 3), (0, 2, 3), ((1, 1, 2),),
                               (SampleCategory.NOISY,))
        corpus = PairCorpus((rec,), 6, 0.1, "single_edit")
        path = tmp_path / "c.jsonl"
        corpus_to_jsonl(corpus, path)
        doc = json.loads(path.read_text())
        assert doc == {"clean": [0, 1, 3], "corrupted": [0, 2, 3],
                       "edits": [[1, 1, 2]], "categories": ["noisy"]}

    @pytest.mark.parametrize("bad,line,message", [
        ({"clean": [0, 1, 25], "corrupted": [0, 1, 25], "edits": []}, 3,
         r"clean token 25 outside \[0, 4\)"),
        ({"clean": [0, 1, 2], "corrupted": [0, 1, -1], "edits": [[2, 2, -1]]}, 2,
         r"corrupted token -1 outside \[0, 4\)"),
        ({"clean": [0, 1, 2], "corrupted": [0, 1, 3], "edits": [[1, 1, 3]]}, 2,
         r"edit \(1, 1, 3\) inconsistent with sentences"),
        ({"clean": [0, 1, 2], "corrupted": [0, 1, 3], "edits": [[2, 2, 3]],
          "categories": ["bogus"]}, 3, "'bogus' is not a valid SampleCategory"),
        ({"clean": [0, 1, 2], "corrupted": [0, 1, 3], "edits": [[2, 2, 3]],
          "categories": ["true", "noisy"]}, 2, "categories must align with edits"),
        ({"clean": [0, 1, 2], "corrupted": [0, 1, 2]}, 2, "missing field 'edits'"),
        ('{"clean": [0, 1, 2], "corrupted": [0', 3, "Expecting"),
        ({"clean": [0, 2.7, 2], "corrupted": [0, 2.7, 2], "edits": []}, 3,
         r"clean token 2\.7 is not an integer"),
        ({"clean": [0, 2, 2], "corrupted": [0, 3, 2], "edits": [[1.9, 2, 3]]}, 2,
         r"edit \[1\.9, 2, 3\] is not three integers"),
        ({"clean": [0, "2", 2], "corrupted": [0, 2, 2], "edits": []}, 2,
         'clean token "2" is not an integer'),
        ({"clean": [0, 1, 2], "corrupted": [0, True, 2], "edits": []}, 2,
         "corrupted token true is not an integer"),
        ({"clean": [0, 1, 2], "corrupted": [0, 1, 3], "edits": [[2, 2, 3]],
          "categories": None}, 2, "categories must be a list, got null"),
        ({"clean": [0, 10**20, 2], "corrupted": [0, 10**20, 2], "edits": []}, 3,
         "integer 100000000000000000000 does not fit in 64 bits"),
        ({"clean": [0, 1, 2], "corrupted": [0, 1, 3], "edits": [[2, 2, -10**19]]}, 2,
         "integer -10000000000000000000 does not fit in 64 bits"),
    ], ids=["clean-3", "corrupted-2", "inconsistent-edit-2", "unknown-category-3",
            "misaligned-categories-2", "missing-field-2", "bad-json-3", "float-token-3",
            "float-edit-2", "string-token-2", "bool-token-2", "null-categories-2",
            "int64-overflow-token-3", "int64-overflow-edit-2"])
    def test_jsonl_rejects_out_of_range_tokens(self, tmp_path, bad, line, message):
        # Also covers every other malformed line: each error names file:line.
        good = {"clean": [0, 1, 2], "corrupted": [0, 1, 3], "edits": [[2, 2, 3]]}
        lines = [good] + [None] * (line - 2) + [bad]
        path = tmp_path / "c.jsonl"
        path.write_text("".join((d if isinstance(d, str) else json.dumps(d) if d else "")
                                + "\n" for d in lines))
        with pytest.raises(ValueError, match=rf"c\.jsonl:{line}: {message}"):
            corpus_from_jsonl(path, vocab_size=4, rate=0.1)

    def test_jsonl_reports_a_broken_record_before_a_later_integer_beyond_int64(self, tmp_path):
        lines = [{"clean": [0, 1], "corrupted": [0, 2], "edits": []},
                 {"clean": [0, 10**20], "corrupted": [0, 10**20], "edits": []}]
        path = tmp_path / "c.jsonl"
        path.write_text("".join(json.dumps(doc) + "\n" for doc in lines))
        with pytest.raises(ValueError, match=r"c\.jsonl:1: position 1 differs"):
            corpus_from_jsonl(path, vocab_size=4, rate=0.1)
        with pytest.raises(ValueError, match="^integer 18446744073709551616 does not fit in 64"):
            CorruptionRecord((0, 2**64), (0, 2**64), ())

    def test_confusion_round_trip(self):
        w = small_world(V=7, support=3, seed=1)
        t = build_confusion(w, ConfusionConfig(candidates=3, head_mass=0.7), 3)[1]
        back = confusion_from_json(confusion_to_json(t))
        np.testing.assert_array_equal(back.candidates, t.candidates)
        np.testing.assert_array_equal(back.weights, t.weights)

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.clear(), "missing field 'vocab_size'"),
        (lambda doc: doc.update(weights=0.5), "weights: expected a list, got float"),
        (lambda doc: doc["candidates"][0].__setitem__(0, 1.0),
         "candidates[0][0]: expected int, got float"),
        (lambda doc: doc.update(zipf_exponent="1"), "zipf_exponent: expected float, got str"),
        (lambda doc: doc.update(candidates=[], weights=[]), "candidate/weight shapes disagree"),
        (lambda doc: doc["weights"][0].__setitem__(0, float("nan")),
         "weights[0][0]: expected a finite number, got nan"),
        (lambda doc: doc["weights"][1].__setitem__(1, float("-inf")),
         "weights[1][1]: expected a finite number, got -inf"),
        (lambda doc: doc["candidates"][0].__setitem__(0, 2**63),
         "candidates[0][0]: expected an int64 integer, got 9223372036854775808"),
        (lambda doc: doc["weights"][0].__setitem__(0, 10**400),
         f"weights[0][0]: expected an int64 integer, got {10**400}"),
    ], ids=["empty", "weights-number", "candidate-float", "exponent-string", "no-rows",
            "weight-nan", "weight-minus-infinity", "candidate-beyond-int64",
            "weight-beyond-float"])
    def test_load_names_the_file_and_the_field(self, tmp_path, edit, message):
        path = tmp_path / "confusion.json"
        save_confusion(build_confusion(small_world(), ConfusionConfig(candidates=2), 0)[0], path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            load_confusion(path)

    def test_concat_and_digest(self):
        w = small_world(V=6, support=2, seed=0)
        t = build_confusion(w, ConfusionConfig(candidates=2, context_affinity=0.0), 0)[0]
        a = generate_corpus(w, t, 10, (4, 6), 0.1, seed=1)
        b = generate_corpus(w, t, 15, (4, 6), 0.1, seed=2)
        both = concat_corpora(a, b)
        assert len(both) == 25
        assert corpus_digest(a) != corpus_digest(b)
        assert corpus_digest(a) == corpus_digest(generate_corpus(w, t, 10, (4, 6),
                                                                 0.1, seed=1))

    def test_digest_hashes_the_columns_without_a_copy(self):
        # Interleaving each record's clean and corrupted tokens peaked at 18.6 MiB here.
        cfg = ExperimentConfig()
        world, uniform, _ = build_experiment_world(cfg, 0)
        d_r = generate_corpus(world, uniform, cfg.dr_sentences, cfg.length_range, cfg.rate,
                              mode="iid", seed=0, stream="d-r")
        tracemalloc.start()
        try:
            corpus_digest(d_r)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d_r.n_chars > 400_000
        assert peak < 2**20

    def test_concat_refuses_corpora_of_different_modes(self):
        w = small_world(V=6, support=2, seed=0)
        t = build_confusion(w, ConfusionConfig(candidates=2, context_affinity=0.0), 0)[0]
        iid = generate_corpus(w, t, 10, (4, 6), 0.1, seed=1)
        single = generate_corpus(w, t, 10, (4, 6), 0.1, mode="single_edit", seed=2)
        with pytest.raises(ValueError, match="^corpora built in different modes$"):
            concat_corpora(iid, single)
        assert concat_corpora(single, single).mode == "single_edit"

    def test_concat_is_annotated_only_when_both_inputs_are(self):
        w = small_world(V=6, support=2, seed=0)
        t = build_confusion(w, ConfusionConfig(candidates=2, context_affinity=0.0), 0)[0]
        plain = generate_corpus(w, t, 10, (4, 6), 0.3, seed=1)
        annotated = generate_corpus(w, t, 15, (4, 6), 0.3, seed=2, annotate=True)
        for first, second in ((plain, annotated), (annotated, plain)):
            both = concat_corpora(first, second)
            assert both.category is None
            assert all(rec.categories is None for rec in records_of(both))
            assert both.n_edits == plain.n_edits + annotated.n_edits
        both = concat_corpora(annotated, annotated)
        np.testing.assert_array_equal(both.category, np.tile(annotated.category, 2))

    @pytest.mark.parametrize("first", [None, (SampleCategory.NOISY,)], ids=["plain", "annotated"])
    def test_categories_on_some_records_only_are_refused(self, tmp_path, first):
        other = None if first else (SampleCategory.TRUE,)
        records = [CorruptionRecord((0, 1, 3), (0, 2, 3), ((1, 1, 2),), first),
                   CorruptionRecord((0, 1), (0, 1), (), () if first else None),
                   CorruptionRecord((3, 1), (3, 2), ((1, 1, 2),), other)]
        message = ("record 2 has categories, but record 0 has none" if other else
                   "record 2 has no categories, but record 0 has them")
        with pytest.raises(ValueError, match=f"^{message}$"):
            PairCorpus(records, 6, 0.1, "iid")
        path = tmp_path / "c.jsonl"
        lines = [json.dumps({"clean": list(r.clean), "corrupted": list(r.corrupted),
                             "edits": [list(e) for e in r.edits],
                             **({} if r.categories is None else
                                {"categories": [c.value for c in r.categories]})})
                 for r in records]
        path.write_text(f"{lines[0]}\n\n{lines[1]}\n{lines[2]}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:4: {message}$"):
            corpus_from_jsonl(path, vocab_size=6, rate=0.1)
        # A record-rule error on an earlier line is reported first.
        path.write_text(f"{lines[0]}\n\n{lines[1].replace('[0, 1]', '[0, 9]', 1)}\n{lines[2]}\n")
        with pytest.raises(ValueError, match=r"c\.jsonl:3: clean token 9 outside \[0, 6\)$"):
            corpus_from_jsonl(path, vocab_size=6, rate=0.1)

    def test_corpus_arrays_padding(self):
        w = small_world(V=6, support=2, seed=0)
        t = build_confusion(w, ConfusionConfig(candidates=2, context_affinity=0.0), 0)[0]
        corpus = generate_corpus(w, t, 30, (3, 7), 0.2, seed=4)
        clean, corr, lengths = corpus_arrays(corpus)
        for i, rec in enumerate(records_of(corpus)):
            assert tuple(clean[i, :lengths[i]]) == rec.clean
            assert tuple(corr[i, :lengths[i]]) == rec.corrupted
            assert np.all(clean[i, lengths[i]:] == 6)
