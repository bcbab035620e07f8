import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from denoiselab._rng import derive_rng
from denoiselab.augment import (ConfusionConfig, ConfusionTable, CorruptionRecord,
                                PairCorpus, SampleCategory, build_confusion,
                                generate_corpus)
from denoiselab.calibration import ece
from denoiselab.corrector import train
from denoiselab.harness import (MetricsRow, category_filter_rates, config_hash,
                                emit_report, evaluate, sha256_file, verify_manifest)
from denoiselab.oracle import OracleScorer
from denoiselab.pipeline import filter_corpus, restore_confidences
from denoiselab.world import WorldConfig, build_world

from constructions import records_of


class ScriptedModel:
    """Predictor that outputs a fixed sentence for each input sentence."""

    def __init__(self, vocab_size, mapping):
        self.vocab_size = vocab_size
        self.mapping = {tuple(k): tuple(v) for k, v in mapping.items()}

    def predict_at(self, corpus, at):
        probs = np.zeros((len(at), self.vocab_size))
        for k, g in enumerate(at):
            ri = int(np.searchsorted(corpus.offsets, g, side="right")) - 1
            tokens = records_of(corpus)[ri].corrupted
            probs[k, self.mapping.get(tokens, tokens)[g - corpus.offsets[ri]]] = 1.0
        return probs


class KeepModel:
    def __init__(self, vocab_size):
        self.vocab_size = vocab_size

    def predict_at(self, corpus, at):
        probs = np.zeros((len(at), self.vocab_size))
        probs[np.arange(len(at)), corpus.corrupted[at]] = 1.0
        return probs


def corpus_from_pairs(pairs, vocab_size, rate=0.1):
    records = []
    for clean, corrupted in pairs:
        edits = tuple((i, a, b) for i, (a, b) in enumerate(zip(clean, corrupted))
                      if a != b)
        records.append(CorruptionRecord(tuple(clean), tuple(corrupted), edits))
    return PairCorpus(tuple(records), vocab_size, rate, "single_edit")


class TestEvaluate:
    def test_hand_four_sentence_case(self):
        # Two erroneous sentences (one fixed exactly, one untouched), one
        # clean sentence the model breaks, one clean sentence left alone.
        corpus = corpus_from_pairs([
            ((0, 1, 2), (0, 3, 2)),   # error, model restores
            ((1, 2, 0), (1, 3, 0)),   # error, model keeps
            ((2, 0, 1), (2, 0, 1)),   # clean, model breaks position 2
            ((0, 2, 1), (0, 2, 1)),   # clean, untouched
        ], vocab_size=4)
        model = ScriptedModel(4, {
            (0, 3, 2): (0, 1, 2),
            (2, 0, 1): (2, 0, 3),
        })
        m = evaluate(model, corpus)
        assert m.precision == 50.0 and m.recall == 50.0 and m.f1 == 50.0
        assert m.fpr == 25.0

    def test_perfect_oracle_on_unambiguous_corpus(self):
        # Cycle world with a one-to-one transition structure: every record
        # has a unique restoration and the exact scorer recovers it.
        V = 5
        rows = {str(v): [1.0 if u == (v + 1) % V else 0.0 for u in range(V)]
                for v in range(V)}
        world = build_world(WorldConfig(vocab_size=V, order=1, rows=rows,
                                        initial=[1.0 / V] * V), 0)
        cand = np.array([[(v + 2) % V, (v + 3) % V] for v in range(V)])
        table = ConfusionTable(V, "uniform", cand, np.full((V, 2), 0.5))
        corpus = generate_corpus(world, table, 80, (4, 7), 0.1,
                                 mode="single_edit", seed=3, clean_fraction=0.3,
                                 annotate=True)
        assert all(r.categories == (SampleCategory.TRUE,) for r in records_of(corpus)
                   if r.edits)
        m = evaluate(OracleScorer(world, table, 0.1), corpus)
        assert m.precision == 100.0 and m.recall == 100.0 and m.f1 == 100.0
        assert m.fpr == 0.0

    def test_identity_model_conventions(self):
        corpus = corpus_from_pairs([((0, 1), (0, 2)), ((1, 0), (1, 0))], 4)
        m = evaluate(KeepModel(4), corpus)
        assert m.recall == 0.0 and m.fpr == 0.0 and m.precision == 0.0
        assert m.f1 == 0.0

    def test_order_invariance(self):
        world = build_world(WorldConfig(vocab_size=6, support=2), 1)
        table = build_confusion(world, ConfusionConfig(candidates=2, context_affinity=0.0), 0)[0]
        corpus = generate_corpus(world, table, 60, (4, 8), 0.1,
                                 mode="single_edit", seed=2, clean_fraction=0.4)
        model = train(generate_corpus(world, table, 400, (4, 8), 0.1, seed=0))
        rng = derive_rng(3, "perm")
        shuffled = list(records_of(corpus))
        rng.shuffle(shuffled)
        permuted = PairCorpus(tuple(shuffled), 6, 0.1, "single_edit")
        assert evaluate(model, corpus) == evaluate(model, permuted)

    def test_f1_identity_holds(self):
        world = build_world(WorldConfig(vocab_size=6, support=2), 5)
        table = build_confusion(world, ConfusionConfig(candidates=2, context_affinity=0.0), 0)[0]
        corpus = generate_corpus(world, table, 100, (4, 8), 0.1,
                                 mode="single_edit", seed=6, clean_fraction=0.5)
        model = train(generate_corpus(world, table, 500, (4, 8), 0.1, seed=7))
        m = evaluate(model, corpus)
        if m.precision + m.recall > 0:
            want = 2 * m.precision * m.recall / (m.precision + m.recall)
            assert m.f1 == pytest.approx(want, abs=1e-12)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            evaluate(KeepModel(4), PairCorpus((), 4, 0.1, "iid"))


class TestCategoryFilterRates:
    def build(self):
        world = build_world(WorldConfig(vocab_size=8, support=3,
                                        weight_low=0.05, weight_high=1.0), 2)
        table = build_confusion(world, ConfusionConfig(candidates=2, context_affinity=0.5), 1)[0]
        corpus = generate_corpus(world, table, 200, (4, 8), 0.1,
                                 mode="single_edit", seed=4, annotate=True)
        return world, table, corpus

    def test_no_filtering_gives_zero_rates(self):
        _, _, corpus = self.build()
        rates = category_filter_rates(corpus, corpus)
        assert all(r.reverted == 0 for r in rates.values())
        assert sum(r.total for r in rates.values()) == corpus.n_edits

    def test_rates_reconcile_with_filter_counts(self):
        world, table, corpus = self.build()
        confidences = restore_confidences(OracleScorer(world, table, 0.1), corpus)
        result = filter_corpus(corpus, confidences, 0.5)
        rates = category_filter_rates(corpus, result.corpus)
        assert sum(r.reverted for r in rates.values()) == result.reverted_edits
        assert sum(r.total for r in rates.values()) == corpus.n_edits
        for r in rates.values():
            assert 0.0 <= r.ratio <= 1.0

    def test_misaligned_corpora_rejected(self):
        _, _, corpus = self.build()
        other = PairCorpus(records_of(corpus)[:10], corpus.vocab_size, 0.1, "single_edit")
        with pytest.raises(ValueError, match="record counts"):
            category_filter_rates(corpus, other)

    def test_missing_annotations_rejected(self):
        world = build_world(WorldConfig(vocab_size=6, support=2), 1)
        table = build_confusion(world, ConfusionConfig(candidates=2, context_affinity=0.0), 0)[0]
        corpus = generate_corpus(world, table, 10, (4, 6), 0.1, seed=0)
        with pytest.raises(ValueError, match="annotations"):
            category_filter_rates(corpus, corpus)


class TestEmitReport:
    def fake_rows(self):
        from denoiselab.harness import Metrics
        m = Metrics(90.0, 80.0, 84.70588235294117, 5.0)
        return [MetricsRow("cross", 0.2, 1000, m, 0.08, 7)]

    def test_outputs_are_byte_identical_across_reruns(self, tmp_path):
        rel = ece([0.9] * 4, [True] * 4)
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            emit_report(out, metrics_rows=self.fake_rows(), reliability=rel,
                        config_doc={"x": 1}, seed=7)
        for name in ("metrics.csv", "reliability.csv", "manifest.json"):
            assert sha256_file(a / name) == sha256_file(b / name)

    def test_file_digest_streams_the_file(self, tmp_path):
        path = tmp_path / "big.bin"
        data = np.random.default_rng(0).bytes(16 * 2**20)
        path.write_bytes(data)
        tracemalloc.start()
        try:
            digest = sha256_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(data).hexdigest()
        assert peak < 2 * 2**20

    def test_manifest_verification(self, tmp_path):
        emit_report(tmp_path, metrics_rows=self.fake_rows(), config_doc={"x": 1},
                    seed=7)
        ok, checks = verify_manifest(tmp_path)
        assert ok and checks["metrics.csv"]
        (tmp_path / "metrics.csv").write_text("tampered\n")
        ok, checks = verify_manifest(tmp_path)
        assert not ok and not checks["metrics.csv"]

    def test_metrics_csv_shape(self, tmp_path):
        emit_report(tmp_path, metrics_rows=self.fake_rows() * 3,
                    config_doc={}, seed=0)
        lines = (tmp_path / "metrics.csv").read_text().strip().splitlines()
        assert lines[0] == "variant,p,size,P,R,F1,FPR,ECE,seed"
        assert len(lines) == 4

    def test_config_hash_is_canonical(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_manifest_records_config_hash(self, tmp_path):
        doc = {"world": {"vocab_size": 6}}
        emit_report(tmp_path, metrics_rows=self.fake_rows(), config_doc=doc, seed=1)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config_hash"] == config_hash(doc)
        assert manifest["seed"] == 1
