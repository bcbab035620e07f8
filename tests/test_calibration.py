import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from denoiselab.augment import (ConfusionConfig, CorruptionRecord, PairCorpus, build_confusion,
                                generate_corpus)
from denoiselab.calibration import EASY_CUTOFF, calibration_report, ece, write_reliability_csv
from denoiselab.corrector import predict_matrix, train
from denoiselab.world import WorldConfig, build_world

from constructions import every_row, one_record, records_of


def hand_report(kept_masses):
    """``calibration_report`` of a hand-built (decoded, confidence, kept) triple: one
    sentence of token 0, whose position i keeps ``kept_masses[i]`` on it and decodes
    to it, so each position's confidence is its kept mass."""
    kept = np.array(kept_masses, dtype=float)
    tokens = (0,) * len(kept)
    corpus = PairCorpus([CorruptionRecord(tokens, tokens, ())], 2, 0.0, "iid")
    return calibration_report((np.zeros(len(kept), dtype=np.int64), kept, kept), corpus)


def confidences(report):
    """The confidence of each kept position, when each bin holds at most one."""
    assert all(b.count <= 1 for b in report.bins)
    return [b.mean_confidence for b in report.bins if b.count]


class TestCollectOutcomes:
    def setup_method(self):
        self.world = build_world(WorldConfig(vocab_size=6, support=2), 0)
        self.table = build_confusion(self.world, ConfusionConfig(candidates=2,
                                                                 context_affinity=0.0), 0)[0]
        self.corpus = generate_corpus(self.world, self.table, 50, (4, 8), 0.1, seed=1)
        self.model = train(self.corpus)

    def test_one_outcome_per_character(self):
        report = calibration_report(predict_matrix(self.model, self.corpus), self.corpus)
        assert report.n_outcomes + report.n_excluded == self.corpus.n_chars

    def test_kept_mass_is_recomputable(self):
        rows = [every_row(self.model, one_record(self.corpus, ri))
                for ri in range(len(self.corpus))]
        whole = predict_matrix(self.model, self.corpus)
        # the kept mass decides each exclusion
        kept, n_excluded = reference.calibration_outcomes(records_of(self.corpus), rows,
                                                          EASY_CUTOFF)
        want = ece([o[0] for o in kept], [o[1] for o in kept])
        report = calibration_report(whole, self.corpus)
        assert (report.bins, report.ece, report.n_excluded) == (want.bins, want.ece, n_excluded)

    def test_identity_model_outcomes_confident_and_correct(self):
        clean = generate_corpus(self.world, self.table, 60, (4, 8), 0.0, seed=3)
        model = train(clean, alpha=0.001)
        preds, confidence, _ = predict_matrix(model, clean)
        report = ece(confidence, preds == clean.clean)  # none excluded
        counts = np.array([b.count for b in report.bins])
        assert counts.sum() == clean.n_chars
        assert np.dot(counts, [b.accuracy for b in report.bins]) / counts.sum() > 0.99
        assert np.dot(counts, [b.mean_confidence for b in report.bins]) / counts.sum() > 0.9


class TestFilterEasyPositives:
    def test_hand_case(self):
        report = hand_report((0.99, 0.95, 0.85, 0.5, 0.1))
        assert confidences(report) == [0.1, 0.5, 0.85]
        assert report.n_excluded == 2

    def test_full_kept_mass_is_excluded(self):
        report = hand_report((0.0, 0.5, 1.0))
        assert confidences(report) == [0.0, 0.5]
        assert report.n_excluded == 1

    def test_small_kept_masses_are_kept(self):
        report = hand_report((0.0, 0.01, 1.0))
        assert [(b.count, b.mean_confidence) for b in report.bins if b.count] == [(2, 0.005)]
        assert report.n_excluded == 1


class TestEce:
    def test_hand_four_outcome_case(self):
        report = ece([0.9, 0.9, 0.6, 0.6], [True, True, True, False])
        assert report.ece == pytest.approx(0.1, abs=1e-12)
        occupied = [b for b in report.bins if b.count]
        assert [(b.lower, b.count) for b in occupied] == [(0.6, 2), (0.9, 2)]

    def test_perfect_predictions_zero(self):
        assert ece([1.0] * 7, [True] * 7).ece == 0.0

    def test_boundary_goes_to_upper_bin_and_one_stays_top(self):
        report = ece([0.5], [True])
        assert report.bins[5].count == 1
        report = ece([1.0], [True])
        assert report.bins[9].count == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ece([], [])

    def test_report_recomputable_from_bins(self):
        rng = np.random.default_rng(0)
        report = ece(rng.random(500), rng.random(500) < 0.7)
        total = sum(b.count for b in report.bins)
        rebuilt = sum((b.count / total) * abs(b.accuracy - b.mean_confidence)
                      for b in report.bins)
        assert abs(rebuilt - report.ece) <= 1e-12

    @given(st.lists(st.tuples(st.floats(0.0, 1.0), st.booleans()), min_size=1,
                    max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_ece_in_unit_interval(self, raw):
        report = ece(*zip(*raw))
        assert 0.0 <= report.ece <= 1.0
        assert sum(b.count for b in report.bins) == len(raw)

    def test_calibrated_synthetic_set_has_small_ece(self):
        # Confidence drawn, correctness Bernoulli at exactly that confidence.
        rng = np.random.default_rng(42)
        conf = rng.uniform(0.05, 0.95, size=20_000)
        correct = rng.random(20_000) < conf
        assert ece(conf, correct).ece < 0.02


class TestReportHelpers:
    def test_calibration_report_counts_exclusions(self):
        world = build_world(WorldConfig(vocab_size=6, support=2), 0)
        table = build_confusion(world, ConfusionConfig(candidates=2, context_affinity=0.0), 0)[0]
        corpus = generate_corpus(world, table, 80, (4, 8), 0.1, seed=1)
        model = train(corpus)
        report = calibration_report(predict_matrix(model, corpus), corpus)
        assert report.n_excluded == corpus.n_chars - report.n_outcomes
        assert report.n_excluded > 0

    def test_reliability_csv(self, tmp_path):
        report = ece([0.9, 0.6], [True, False])
        path = tmp_path / "rel.csv"
        write_reliability_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_lower,bin_upper,mean_confidence,accuracy,count"
        assert len(lines) == 11
        write_reliability_csv(report, tmp_path / "rel2.csv")
        assert (tmp_path / "rel2.csv").read_bytes() == path.read_bytes()
