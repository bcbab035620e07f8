import dataclasses
import tracemalloc

import numpy as np
import pytest

from denoiselab.augment import (ConfusionConfig, SampleCategory, build_confusion,
                                concat_corpora, generate_corpus)
from denoiselab.corrector import MASKED_WINDOW, CorrectorModel, predict_at, train
from denoiselab.harness import category_filter_rates
from denoiselab.pipeline import (ExperimentConfig, FilterConfig, _scored,
                                 build_experiment_world, filter_corpus,
                                 heuristic_multi, heuristic_noisy, make_eval_corpus,
                                 oracle_filter, restore_confidences,
                                 run_pipeline, threshold_sweep, volume_sweep)
from denoiselab.world import WorldConfig, build_world, conditional

from constructions import default_target, records_of
from reference import iter_edits


def small_setup(seed=0):
    world = build_world(WorldConfig(vocab_size=8, support=3,
                                    weight_low=0.05, weight_high=1.0), seed)
    table = build_confusion(world, ConfusionConfig(candidates=2, context_affinity=0.5), seed)[0]
    corpus = generate_corpus(world, table, 300, (4, 8), 0.1,
                             mode="single_edit", seed=seed, annotate=True)
    model = train(generate_corpus(world, table, 2_000, (4, 8), 0.1, seed=seed + 1))
    return world, table, corpus, model


TINY = ExperimentConfig(
    world=WorldConfig(vocab_size=8, support=3, weight_low=0.05, weight_high=1.0),
    confusion=ConfusionConfig(candidates=2, head_mass=0.8, context_affinity=0.6),
    dr_sentences=800, do_sentences=600, eval_sentences=300,
    length_range=(5, 9),
)


def model_filter(model, corpus, threshold):
    """Filter ``corpus`` on the model's restore confidences, as the pipeline does."""
    return filter_corpus(corpus, restore_confidences(model, corpus), threshold)


class TestFilterCorpus:
    def test_vanishing_threshold_keeps_everything(self):
        world, table, corpus, model = small_setup()
        result = model_filter(model, corpus, 1e-9)
        assert result.reverted_edits == 0
        assert records_of(result.corpus) == records_of(corpus)

    def test_threshold_near_one_reverts_everything(self):
        world, table, corpus, model = small_setup()
        result = model_filter(model, corpus, 1.0 - 1e-12)
        assert result.kept_edits == 0
        for rec in records_of(result.corpus):
            assert rec.corrupted == rec.clean

    def test_partition_and_untouched_positions(self):
        world, table, corpus, model = small_setup(1)
        result = model_filter(model, corpus, 0.3)
        assert result.kept_edits + result.reverted_edits == corpus.n_edits
        for before, after in zip(records_of(corpus), records_of(result.corpus)):
            assert after.clean == before.clean
            surviving = {i for i, _, _ in after.edits}
            for pos in range(len(before.clean)):
                was_edit = pos in {i for i, _, _ in before.edits}
                if not was_edit:
                    assert after.corrupted[pos] == before.corrupted[pos]
                elif pos not in surviving:
                    assert after.corrupted[pos] == before.clean[pos]
                else:
                    assert after.corrupted[pos] == before.corrupted[pos]

    def test_oracle_filter_separates_cases_exactly(self):
        # Bounded prior ratios and a uniform channel: every contextually
        # valid replacement scores at most 1/(1 + 9a) with a >= 1/4, every
        # unique-restoration edit scores exactly 1, and a 0.5 cutoff splits
        # them without error.
        world = build_world(WorldConfig(vocab_size=10, support=3,
                                        weight_low=1.0, weight_high=2.0), 3)
        table = build_confusion(world, ConfusionConfig(candidates=3, context_affinity=0.6), 3)[0]
        corpus = generate_corpus(world, table, 2_000, (6, 10), 0.1,
                                 mode="single_edit", seed=4, annotate=True)
        result = oracle_filter(world, table, corpus, threshold=0.5)
        rates = category_filter_rates(corpus, result.corpus)
        assert rates[SampleCategory.NOISY].total > 50
        assert rates[SampleCategory.NOISY].ratio == 1.0
        assert rates[SampleCategory.TRUE].ratio == 0.0

    def test_invalid_threshold_rejected(self):
        world, table, corpus, model = small_setup()
        confidences = restore_confidences(model, corpus)
        with pytest.raises(ValueError):
            filter_corpus(corpus, confidences, 0.0)
        with pytest.raises(ValueError):
            filter_corpus(corpus, confidences, 1.0)
        with pytest.raises(ValueError, match="one flag per edit"):
            filter_corpus(corpus, confidences[1:], 0.5)

    def test_corpus_without_edits_passes_through(self):
        world, table, corpus, model = small_setup()
        clean = corpus.keep_edits(np.zeros(corpus.n_edits, bool), corrupted=corpus.clean)
        for result in (model_filter(model, clean, 0.5), oracle_filter(world, table, clean, 0.5)):
            assert (result.kept_edits, result.reverted_edits) == (0, 0)
            assert records_of(result.corpus) == records_of(clean)


def handmade_context_model(counts_by_context, vocab_size=4, alpha=0.1):
    """Masked-window model with explicit context counts for exact tests."""
    n_sigs = (vocab_size + 1) ** 2
    counts = np.zeros((n_sigs, vocab_size), dtype=np.int64)
    base = vocab_size + 1
    for (left, right), row in counts_by_context.items():
        counts[left + base * right] = row
    return CorrectorModel(vocab_size, MASKED_WINDOW, alpha, counts, "handmade", "none")


def masked_rows(model, corpus):
    """The context model's row at each edit of the corpus, as the heuristics take them."""
    return predict_at(model, corpus, corpus.flat_pos)


def flagged_places(corpus, flags):
    """(record, position) of each edit whose flag is set."""
    return set(zip(corpus.record[flags].tolist(), corpus.pos[flags].tolist()))


class TestHeuristics:
    def corpus_one_edit(self, clean, corrupted, vocab_size=4):
        from denoiselab.augment import CorruptionRecord, PairCorpus
        edits = tuple((i, a, b) for i, (a, b) in enumerate(zip(clean, corrupted))
                      if a != b)
        rec = CorruptionRecord(tuple(clean), tuple(corrupted), edits)
        return PairCorpus((rec,), vocab_size, 0.1, "single_edit")

    def test_equal_context_masses_are_flagged(self):
        model = handmade_context_model({(0, 3): [0, 50, 50, 0]})
        corpus = self.corpus_one_edit((0, 1, 3), (0, 2, 3))
        assert flagged_places(corpus, heuristic_noisy(corpus, masked_rows(model, corpus))) == {
            (0, 1)}

    def test_unseen_replacement_not_flagged(self):
        model = handmade_context_model({(0, 3): [0, 50, 0, 0]})
        corpus = self.corpus_one_edit((0, 1, 3), (0, 2, 3))
        assert flagged_places(corpus, heuristic_noisy(corpus, masked_rows(model, corpus))) == set()

    @pytest.mark.parametrize("masses", [(10, 50), (50, 10)], ids=["original-less", "original-more"])
    def test_unequal_context_masses_not_flagged_either_way_round(self, masses):
        # Log-scaled scores log(101) and log(501): their ratio, 0.74, is below 0.9.
        model = handmade_context_model({(0, 3): [0, *masses, 0]})
        corpus = self.corpus_one_edit((0, 1, 3), (0, 2, 3))
        assert flagged_places(corpus, heuristic_noisy(corpus, masked_rows(model, corpus))) == set()

    def test_identical_contexts_same_misspelling_flagged_as_multi(self):
        from denoiselab.augment import CorruptionRecord, PairCorpus
        recs = (
            CorruptionRecord((0, 1, 3), (0, 2, 3), ((1, 1, 2),)),
            CorruptionRecord((0, 0, 3), (0, 2, 3), ((1, 0, 2),)),
        )
        corpus = PairCorpus(recs, 4, 0.1, "single_edit")
        assert flagged_places(corpus, heuristic_multi(corpus)) == {(0, 1), (1, 1)}

    def test_dissimilar_contexts_not_flagged(self):
        from denoiselab.augment import CorruptionRecord, PairCorpus
        recs = (
            CorruptionRecord((0, 1, 3), (0, 2, 3), ((1, 1, 2),)),
            CorruptionRecord((3, 0, 0), (3, 2, 0), ((1, 0, 2),)),
        )
        corpus = PairCorpus(recs, 4, 0.1, "single_edit")
        assert flagged_places(corpus, heuristic_multi(corpus)) == set()

    def test_corpus_without_edits_gets_no_flags(self):
        model = handmade_context_model({(0, 3): [0, 30, 30, 0]})
        corpus = self.corpus_one_edit((0, 1, 3), (0, 1, 3))
        masked = masked_rows(model, corpus)
        for flags in (heuristic_noisy(corpus, masked), heuristic_multi(corpus)):
            assert flags.dtype == bool and flags.shape == (0,)

    def test_planted_recovery_beats_self_filter_at_canonical_threshold(self):
        # Masked-context flags recover a solid share of the contextually
        # valid replacements; self-filtering at the canonical 1e-2 threshold
        # barely removes any, matching the reported contrast.
        cfg = ExperimentConfig()
        world, uniform_table, longtail_table = build_experiment_world(cfg, 0)
        d_r = generate_corpus(world, uniform_table, 20_000, cfg.length_range,
                              cfg.rate, "iid", 0, stream="d-r")
        d_o = generate_corpus(world, longtail_table, 4_000, cfg.length_range,
                              cfg.rate, "iid", 0, annotate=True, stream="d-o")
        masked = masked_rows(train(d_r, MASKED_WINDOW), d_o)
        flagged = flagged_places(d_o, heuristic_noisy(d_o, masked))
        truth = {(ri, e[0]) for ri, rec, ei, e in iter_edits(d_o)
                 if rec.categories[ei] == SampleCategory.NOISY}
        all_edits = {(ri, e[0]) for ri, _, _, e in iter_edits(d_o)}
        recall = len(flagged & truth) / len(truth)
        precision = len(flagged & truth) / len(flagged)
        self_model = train(d_o)
        removed = all_edits - {(ri, e[0]) for ri, _, _, e
                               in iter_edits(model_filter(self_model, d_o, 1e-2).corpus)}
        self_recall = len(removed & truth) / len(truth)
        assert precision > 0.5
        assert recall > self_recall

    def test_planted_multi_pairs_recovered(self):
        cfg = ExperimentConfig()
        world, uniform_table, longtail_table = build_experiment_world(cfg, 1)
        d_r = generate_corpus(world, uniform_table, 20_000, cfg.length_range,
                              cfg.rate, "iid", 1, stream="d-r")
        d_o = generate_corpus(world, longtail_table, 4_000, cfg.length_range,
                              cfg.rate, "iid", 1, annotate=True, stream="d-o")
        masked = masked_rows(train(d_r, MASKED_WINDOW), d_o)
        noisy = heuristic_noisy(d_o, masked)
        multi = heuristic_multi(d_o)
        flagged = flagged_places(d_o, multi & ~noisy)
        truth = {(ri, e[0]) for ri, rec, ei, e in iter_edits(d_o)
                 if rec.categories[ei] == SampleCategory.MULTI_ANSWER}
        recall = len(flagged & truth) / len(truth)
        assert recall > 0.5  # precision is reported, not asserted: it is low


class TestEvalCorpus:
    def test_plausible_replacements_become_correct_text(self):
        cfg = TINY
        world, _, longtail = build_experiment_world(cfg, 0)
        evalc = make_eval_corpus(world, longtail, 400, cfg.length_range, cfg.rate,
                                 seed=0, clean_fraction=0.3, plausibility=0.12)
        n_adopted = 0
        for rec in records_of(evalc):
            if not rec.edits:
                assert rec.clean == rec.corrupted
                continue
            i, x, y = rec.edits[0]
            prior = conditional(world, rec.clean, i)
            assert prior[y] < 0.12 * prior[x]
        raw = generate_corpus(world, longtail, 400, cfg.length_range, cfg.rate,
                              mode="single_edit", seed=0, clean_fraction=0.3,
                              annotate=True, stream="eval")
        n_edits_raw = raw.n_edits
        assert evalc.n_edits < n_edits_raw  # some replacements were adopted


class TestRunPipeline:
    def test_none_variant_is_identity(self):
        world, uniform_table, longtail_table = build_experiment_world(TINY, 0)
        cfg = dataclasses.replace(TINY, filter=FilterConfig(filter_source="none"))
        report = run_pipeline(world, uniform_table, longtail_table, cfg, 0)
        assert report.metrics_after == report.metrics_before
        assert report.calibration_after.ece == report.calibration_before.ece
        assert report.reverted_edits == 0

    def test_cross_variant_reports_consistent_counts(self):
        world, uniform_table, longtail_table = build_experiment_world(TINY, 1)
        report = run_pipeline(world, uniform_table, longtail_table, TINY, 1)
        total = report.kept_edits + report.reverted_edits
        assert total == sum(r.total for r in report.category_rates.values())
        assert report.reverted_edits == sum(r.reverted
                                            for r in report.category_rates.values())

    def test_deterministic_given_seed(self):
        world, uniform_table, longtail_table = build_experiment_world(TINY, 2)
        a = run_pipeline(world, uniform_table, longtail_table, TINY, 2)
        b = run_pipeline(world, uniform_table, longtail_table, TINY, 2)
        assert a.metrics_after == b.metrics_after
        assert a.kept_edits == b.kept_edits
        assert a.calibration_after.ece == b.calibration_after.ece

    @pytest.mark.parametrize("variant,streams", [
        ("cross", ["d-r", "d-o", "eval"]), ("heuristic", ["d-r", "d-o", "eval"]),
        ("mixing", ["d-r", "d-o", "eval"]), ("self", ["d-o", "eval"]),
        ("none", ["d-o", "eval"])])
    def test_only_variants_reading_d_r_generate_it(self, monkeypatch, variant, streams):
        import denoiselab.pipeline as pipeline
        generated = []

        def recording(*args, stream="corpus", **kwargs):
            generated.append(stream)
            return generate_corpus(*args, stream=stream, **kwargs)

        monkeypatch.setattr(pipeline, "generate_corpus", recording)
        world, uniform_table, longtail_table = build_experiment_world(TINY, 0)
        cfg = dataclasses.replace(TINY, filter=FilterConfig(filter_source=variant))
        run_pipeline(world, uniform_table, longtail_table, cfg, 0)
        assert generated == streams

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            FilterConfig(filter_source="bogus")


    def test_scoring_a_default_target_holds_no_row_matrix(self):
        # Its (n_chars, V) probability rows alone would take 45.8 MiB.
        _, _, d_o = default_target()
        model = train(d_o)
        tracemalloc.start()
        try:
            _scored(model, d_o)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d_o.n_chars * d_o.vocab_size * 8 > 40 * 2**20
        assert peak < 16 * 2**20


class TestMixing:
    def test_counts_add_exactly(self):
        world, uniform_table, longtail_table = build_experiment_world(TINY, 3)
        d_r = generate_corpus(world, uniform_table, 200, (4, 8), 0.1, seed=1)
        d_o = generate_corpus(world, longtail_table, 150, (4, 8), 0.1, seed=2)
        mixed = train(concat_corpora(d_r, d_o))  # the mixing variant's final model
        lhs = train(d_r).counts + train(d_o).counts
        np.testing.assert_array_equal(mixed.counts, lhs)
        assert len(concat_corpora(d_r, d_o)) == 350


class TestSweeps:
    def test_threshold_sweep_shape_and_validation(self):
        world, uniform_table, longtail_table = build_experiment_world(TINY, 4)
        points = threshold_sweep(world, uniform_table, longtail_table, TINY, seed=4)
        assert [pt.threshold for pt in points] == list(TINY.thresholds)
        # The sweep reads its grid from the config, which refuses a bad one.
        with pytest.raises(ValueError):
            dataclasses.replace(TINY, thresholds=(0.5, 1.5))
        with pytest.raises(ValueError):
            dataclasses.replace(TINY, thresholds=())

    def test_threshold_sweep_points_equal_cross_runs(self):
        # The sweep scores d_o once; each point must still be the cross run at its threshold.
        world, uniform_table, longtail_table = build_experiment_world(TINY, 4)
        points = threshold_sweep(world, uniform_table, longtail_table, TINY, seed=4)
        for pt in points:
            cfg = dataclasses.replace(TINY, filter=FilterConfig(pt.threshold, "cross"))
            report = run_pipeline(world, uniform_table, longtail_table, cfg, 4)
            assert (pt.kept_edits, pt.reverted_edits) == (report.kept_edits,
                                                          report.reverted_edits)
            assert pt.metrics == report.metrics_after
            assert pt.ece == report.calibration_after.ece

    def test_volume_sweep_shape_and_order(self):
        world, uniform_table, longtail_table = build_experiment_world(TINY, 5)
        sizes = (500, 2_000)
        cfg = dataclasses.replace(TINY, volume_sizes=sizes)
        points = volume_sweep(world, uniform_table, longtail_table, cfg, seed=5)
        assert [pt.size_chars for pt in points] == list(sizes)
        assert all(pt.tv_distance >= 0 for pt in points)
        with pytest.raises(ValueError, match="ascending"):
            dataclasses.replace(TINY, volume_sizes=(2_000, 500))

    def test_volume_sweep_deterministic(self):
        world, uniform_table, longtail_table = build_experiment_world(TINY, 6)
        cfg = dataclasses.replace(TINY, volume_sizes=(500, 2_000))
        a = volume_sweep(world, uniform_table, longtail_table, cfg, seed=6)
        b = volume_sweep(world, uniform_table, longtail_table, cfg, seed=6)
        assert a == b
