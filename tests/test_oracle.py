import tracemalloc

import numpy as np
import pytest

from denoiselab.augment import (ConfusionConfig, CorruptionRecord, PairCorpus,
                                SampleCategory, build_confusion, generate_corpus)
from denoiselab.oracle import OracleScorer, bounds, posterior, restoration_distribution
from denoiselab.world import WorldConfig, build_world, conditional

from constructions import (bound_demo_setup, default_target, equal_prior_noisy_setup,
                           manual_table, ordering_triple, records_of)
from enumeration import brute_force_posterior
from ordering import verify_ordering


class TestPosterior:
    def test_true_case_is_exactly_one(self):
        rows = {"0": [0.0, 1.0, 0.0], "1": [0.0, 0.0, 1.0], "2": [1.0, 0.0, 0.0]}
        world = build_world(WorldConfig(vocab_size=3, order=1, rows=rows,
                                        initial=[1.0, 0.0, 0.0]), 0)
        table = manual_table(3, [[2], [2], [0]], np.ones((3, 1)))
        record = CorruptionRecord((0, 1, 2), (0, 2, 2), ((1, 1, 2),))
        rep = posterior(world, table, record, 0, 0.1)
        assert rep.category == SampleCategory.TRUE
        assert rep.posterior == 1.0
        assert rep.bound is None

    def test_equal_prior_noisy_is_one_nineteenth(self):
        world, table, record = equal_prior_noisy_setup()
        rep = posterior(world, table, record, 0, 0.1)
        assert rep.category == SampleCategory.NOISY
        assert rep.candidates == (1, 2)
        assert rep.posterior == pytest.approx(1 / 19, abs=1e-12)
        assert rep.sigma == 0.0
        bf = brute_force_posterior(world, table, record, 0, 0.1)
        assert abs(rep.posterior - bf) < 1e-12

    def test_matches_brute_force_on_random_records(self):
        checked = 0
        for seed in range(40):
            V = 3 + seed % 4
            world = build_world(WorldConfig(vocab_size=V, support=2,
                                            weight_low=0.05, weight_high=1.0), seed)
            uniform, longtail = build_confusion(world, ConfusionConfig(
                candidates=1 + seed % min(3, V - 1),
                context_affinity=0.5 if seed % 2 else 0.0,
                head_mass=0.7), seed)
            table = longtail if seed % 3 == 0 else uniform
            corpus = generate_corpus(world, table, 5, (2, 4), 0.1,
                                     mode="single_edit", seed=seed)
            for rec in records_of(corpus):
                rep = posterior(world, table, rec, 0, 0.1)
                bf = brute_force_posterior(world, table, rec, 0, 0.1)
                assert abs(rep.posterior - bf) <= 1e-9
                checked += 1
        assert checked >= 100

    def test_deterministic_world_brute_force_is_one(self):
        rows = {"0": [0.0, 1.0, 0.0], "1": [0.0, 0.0, 1.0], "2": [1.0, 0.0, 0.0]}
        world = build_world(WorldConfig(vocab_size=3, order=1, rows=rows,
                                        initial=[1.0, 0.0, 0.0]), 0)
        table = manual_table(3, [[2], [0], [1]], np.ones((3, 1)))
        record = CorruptionRecord((0, 1, 2), (0, 0, 2), ((1, 1, 0),))
        assert brute_force_posterior(world, table, record, 0, 0.1) == 1.0

    def test_symmetry_under_uniform_world_and_table(self):
        V = 4
        rows = {str(v): [1.0 / V] * V for v in range(V)}
        world = build_world(WorldConfig(vocab_size=V, order=1, rows=rows,
                                        initial=[1.0 / V] * V), 0)
        table = manual_table(V, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]],
                             np.full((V, 3), 1 / 3))
        corpus = PairCorpus([CorruptionRecord((0, 2, 1), (0, 2, 1), ())], V, 0.1, "iid")
        dist = restoration_distribution(world, table, corpus, [1], 0.1)[0]
        sources = [v for v in range(V) if v != 2]
        np.testing.assert_allclose(dist[sources], dist[sources][0], atol=1e-15)

    def test_inconsistent_record_rejected(self):
        world, table, record = equal_prior_noisy_setup()
        bad = CorruptionRecord((0, 1, 3), (0, 3, 3), ((1, 1, 3),))
        with pytest.raises(ValueError, match="inconsistent"):
            posterior(world, table, bad, 0, 0.1)  # 3 is not in the confusion set of 1


class TestSigmaDecomposition:
    def build_dense(self, seed):
        world = build_world(WorldConfig(vocab_size=6, support=6,
                                        weight_low=0.05, weight_high=1.0), seed)
        table = build_confusion(world, ConfusionConfig(candidates=4,
                                                       context_affinity=0.0), seed)[0]
        return world, table

    def test_decomposition_matches_direct_denominator(self):
        rich = 0
        for seed in range(10):
            world, table = self.build_dense(seed)
            corpus = generate_corpus(world, table, 40, (3, 4), 0.1,
                                     mode="single_edit", seed=seed)
            for rec in records_of(corpus):
                rep = posterior(world, table, rec, 0, 0.1)
                if len(rep.candidates) < 3:
                    continue
                rich += 1
                i, x, y = rec.edits[0]
                prior = conditional(world, rec.corrupted, i)
                chan = table.channel_vector(y, 0.1)
                term_y = (prior[y] * chan[y]) / (prior[x] * chan[x])
                rebuilt = 1.0 / (1.0 + term_y + rep.sigma)
                assert abs(rebuilt - rep.posterior) <= 1e-12
        assert rich >= 50

    def test_sigma_nonnegative(self):
        world, table = self.build_dense(3)
        corpus = generate_corpus(world, table, 30, (3, 4), 0.1,
                                 mode="single_edit", seed=5)
        for rec in records_of(corpus):
            assert posterior(world, table, rec, 0, 0.1).sigma >= 0.0


class TestCaseConfidence:
    """The closed-form two-candidate confidence ``1 / (1 + a * channel ratio)``
    of one case, which :func:`bounds` holds for both non-true categories."""

    def test_hand_ratio(self):
        # Equal priors, channel odds 0.9 / 0.05 = 18: the rate-1/19 noisy ceiling.
        got = bounds(1.0, None, SampleCategory.NOISY, rate=1 / 19)
        assert got == pytest.approx(1 / 19, abs=1e-15)

    def test_large_channel_ratio_limit(self):
        got = bounds(1.0, None, SampleCategory.NOISY, rate=1e-12)
        assert got < 1e-11

    def test_zero_prior_reduces_to_alternative_form(self):
        # With the replacement's prior at zero its term vanishes; confidence
        # is then governed by the remaining alternative, the multi-answer form.
        multi = bounds(0.5, 1.0, SampleCategory.MULTI_ANSWER, 0.1)
        assert multi == pytest.approx(1 / 1.5, abs=1e-15)


class TestBounds:
    def test_noisy_bound_value(self):
        assert bounds(0.1, None, SampleCategory.NOISY, 0.1) == pytest.approx(1 / 1.9, abs=1e-12)
        assert bounds(0.1, None, SampleCategory.NOISY, 0.1) <= 0.53

    def test_multi_bound_value(self):
        got = bounds(0.1, 0.5, SampleCategory.MULTI_ANSWER, 0.1)
        assert got == pytest.approx(1 / 1.05, abs=1e-12)
        assert got <= 0.96

    def test_large_a_limit(self):
        assert bounds(1e9, None, SampleCategory.NOISY, 0.1) < 1e-8

    def test_validation(self):
        with pytest.raises(ValueError):
            bounds(-1.0, None, SampleCategory.NOISY, 0.1)
        with pytest.raises(ValueError):
            bounds(0.1, None, SampleCategory.MULTI_ANSWER, 0.1)
        with pytest.raises(ValueError):
            bounds(0.1, 0.5, SampleCategory.TRUE, 0.1)

    def test_report_bound_holds_on_random_records(self):
        for seed in range(10):
            world = build_world(WorldConfig(vocab_size=6, support=3,
                                            weight_low=0.05, weight_high=1.0), seed)
            table = build_confusion(world, ConfusionConfig(candidates=2,
                                                           context_affinity=0.5), seed)[0]
            corpus = generate_corpus(world, table, 30, (3, 4), 0.1,
                                     mode="single_edit", seed=seed)
            for rec in records_of(corpus):
                rep = posterior(world, table, rec, 0, 0.1)
                if rep.bound is not None:
                    assert rep.posterior <= rep.bound + 1e-9


class TestChannelSensitivity:
    def test_noisy_posterior_increases_with_confusion_weight(self):
        last = 0.0
        for head in (0.2, 0.4, 0.6, 0.8, 0.95):
            world, table, record = equal_prior_noisy_setup(head_weight=head)
            rep = posterior(world, table, record, 0, 0.1)
            assert rep.posterior > last
            last = rep.posterior


class TestOrdering:
    def test_constructed_triples_hold_strictly(self):
        groups = []
        for seed in range(50):
            world, table, records = ordering_triple(seed)
            reports = [posterior(world, table, rec, 0, 0.1) for rec in records]
            cats = [r.category for r in reports]
            assert cats == [SampleCategory.TRUE, SampleCategory.NOISY,
                            SampleCategory.MULTI_ANSWER]
            groups.append(reports)
        result = verify_ordering(groups, ratio_bound=10.0)
        assert result.n_qualified == 50
        assert result.all_passed
        assert all(not g.violations for g in result.groups)

    def test_vacuous_group_passes(self):
        world, table, records = ordering_triple(0)
        rep = posterior(world, table, records[0], 0, 0.1)
        result = verify_ordering([[rep]])
        assert result.groups[0].passed

    def test_unqualified_group_is_skipped(self):
        world, uniform, longtail, record = bound_demo_setup()
        rep = posterior(world, longtail, record, 0, 0.1)
        result = verify_ordering([[rep]], ratio_bound=2.0)
        assert not result.groups[0].qualified
        assert result.n_qualified == 0

    def test_long_tail_overconfidence_is_flagged_not_failed(self):
        world, uniform, longtail, record = bound_demo_setup()
        rep = posterior(world, longtail, record, 0, 0.1)
        assert rep.posterior > bounds(0.1, None, SampleCategory.NOISY, 0.1)
        result = verify_ordering([[rep]], ratio_bound=20.0)
        group = result.groups[0]
        assert group.qualified and group.passed
        assert any("ceiling" in f for f in group.flags)


def single_record_corpus(record, vocab_size):
    return PairCorpus((record,), vocab_size, 0.1, "single_edit")


class TestOracleScorer:
    def test_predict_at_matches_restoration_distribution(self):
        world, table, record = equal_prior_noisy_setup()
        scorer = OracleScorer(world, table, 0.1)
        corpus = single_record_corpus(record, 4)
        np.testing.assert_array_equal(scorer.predict_at(corpus, [1]),
                                      restoration_distribution(world, table, corpus, [1], 0.1))

    def test_unexplainable_context_falls_back_to_uniform(self):
        world, table, record = equal_prior_noisy_setup()
        scorer = OracleScorer(world, table, 0.1)
        impossible = CorruptionRecord((3, 3, 3), (3, 3, 3), ())  # zero-probability context
        got = scorer.predict_at(single_record_corpus(impossible, 4), [1])[0]
        np.testing.assert_allclose(got, 0.25, atol=1e-15)

    @pytest.mark.parametrize("tokens,place,message", [  # place: the flat positions asked for
        ((0, 99, 1), (0, 1), "corpus vocab_size 100 differs from the world's 4"),
        ((0, 1, 4), (0, 0), "corpus vocab_size 5 differs from the world's 4"),  # 4 would pad
        ((0, 1, 3), (0, 7), "position 7 out of range"),
        ((0, 1, 3), (0, -1), "position -1 out of range"),
        ((0, 1, 3), (0, 3), "position 3 out of range"),  # n_chars
        ((0, 1, 3), ((0, 0), (0, 1)), "1-D"),  # (record, position) pairs are not positions
    ])
    def test_bad_tokens_and_positions_raise(self, tokens, place, message):
        world, table, _ = equal_prior_noisy_setup()
        scorer = OracleScorer(world, table, 0.1)
        # A corpus that holds 99 or 4 is over a wider vocabulary than the world's 4 tokens,
        # and is refused whatever it is asked; the position cases use the world's own.
        corpus = single_record_corpus(CorruptionRecord(tokens, tokens, ()),
                                      max(max(tokens) + 1, world.vocab_size))
        with pytest.raises(ValueError, match=message):
            scorer.predict_at(corpus, place)


    def test_rows_at_every_position_hold_one_block_of_kernel_temporaries(self):
        # The whole call's temporaries once took 78 MiB beside these 45.8 MiB of rows.
        world, longtail, d_o = default_target()
        tracemalloc.start()
        try:
            rows = restoration_distribution(world, longtail, d_o, np.arange(d_o.n_chars), 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows.shape == (d_o.n_chars, world.vocab_size)
        assert peak <= rows.nbytes + 32 * 2**20


class TestScalarPosition:
    @pytest.mark.parametrize("order", [1, 2])
    def test_int_numpy_int_and_0d_array_give_the_same_rows(self, order):
        world = build_world(WorldConfig(vocab_size=4, order=order, support=4), 3)
        tokens = (0, 2, 1, 3, 2)
        for position in range(len(tokens)):
            forms = (position, np.int64(position), np.array(position))
            want = conditional(world, tokens, position)
            assert want.shape == (world.vocab_size,)
            for p in forms[1:]:
                np.testing.assert_array_equal(conditional(world, tokens, p), want)
