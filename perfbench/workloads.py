"""The benchmark's workloads: one iteration of each is one user task.

Each workload derives the lab seeds it feeds the lab from the benchmark seed,
builds what its set-up needs, runs iterations, checks each iteration's output
through public results only, and fingerprints that output so that a rerun of
the same code and seed can be compared byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import random
import shutil
import tempfile
from pathlib import Path
from types import SimpleNamespace

LAB_MODULES = ("world", "augment", "oracle", "corrector", "calibration",
               "harness", "pipeline", "cli", "config")


def load_lab() -> SimpleNamespace:
    """Import ``denoiselab`` and the modules the workloads drive."""
    importlib.import_module("denoiselab")
    return SimpleNamespace(**{m: importlib.import_module(f"denoiselab.{m}")
                              for m in LAB_MODULES})


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _rates_doc(rates) -> dict:
    return {cat.value: [r.reverted, r.total] for cat, r in rates.items()}


class Workload:
    name = ""
    n_inputs = 1  # distinct lab seeds the iterations cycle over

    def __init__(self, lab, seed: int, work_dir: Path, overrides: dict | None = None):
        self.lab = lab
        self.work_dir = work_dir
        self.config = dataclasses.replace(lab.pipeline.ExperimentConfig(), **(overrides or {}))
        rng = random.Random(f"{self.name}:{seed}")
        self.lab_seeds = [rng.randrange(2**31) for _ in range(self.n_inputs)]

    def input_key(self, i: int) -> str:
        return str(self.lab_seeds[i % self.n_inputs])

    def prepare(self) -> None:
        """Set-up beyond the import: the experiment world and confusion tables."""
        self.tables = self.lab.pipeline.build_experiment_world(self.config, self.lab_seeds[0])

    def iterate(self, i: int):
        raise NotImplementedError

    def check(self, out) -> list[str]:
        """Problems found in one iteration's output; empty when it is correct."""
        raise NotImplementedError

    def fingerprint(self, out) -> str:
        raise NotImplementedError

    def discard(self, out) -> None:
        """Release what an iteration left behind outside memory."""


class PipelineCross(Workload):
    name = "pipeline_cross"
    n_inputs = 3

    def prepare(self):
        fc = dataclasses.replace(self.config.filter, filter_source="cross", threshold=0.2)
        self.config = dataclasses.replace(self.config, filter=fc)
        super().prepare()

    def iterate(self, i):
        seed = self.lab_seeds[i % self.n_inputs]
        pipeline = self.lab.pipeline
        world, uniform, longtail = pipeline.build_experiment_world(self.config, seed)
        return pipeline.run_pipeline(world, uniform, longtail, self.config, seed)

    def check(self, report):
        rates = report.category_rates.values()
        problems = []
        total = sum(r.total for r in rates)
        if total != report.kept_edits + report.reverted_edits:
            problems.append(f"category totals {total} != kept {report.kept_edits} "
                            f"+ reverted {report.reverted_edits}")
        reverted = sum(r.reverted for r in rates)
        if reverted != report.reverted_edits:
            problems.append(f"category reverts {reverted} != reverted {report.reverted_edits}")
        return problems

    def fingerprint(self, report):
        return _digest({
            "variant": report.variant,
            "threshold": report.threshold,
            "kept": report.kept_edits,
            "reverted": report.reverted_edits,
            "rates": _rates_doc(report.category_rates),
            "metrics": [dataclasses.asdict(report.metrics_before),
                        dataclasses.asdict(report.metrics_after)],
            "calibration": [dataclasses.asdict(report.calibration_before),
                            dataclasses.asdict(report.calibration_after)],
            "filtered": self.lab.augment.corpus_digest(report.filtered),
        })


class ThresholdSweep(Workload):
    name = "threshold_sweep"

    def iterate(self, i):
        world, uniform, longtail = self.tables
        return self.lab.pipeline.threshold_sweep(world, uniform, longtail, self.config,
                                                 seed=self.lab_seeds[0])

    def check(self, points):
        problems = []
        grid = [p.threshold for p in points]
        if grid != sorted(grid, reverse=True):
            problems.append(f"threshold grid {grid} is not descending")
        for a, b in zip(points, points[1:]):
            if b.kept_edits < a.kept_edits:
                problems.append(f"kept edits fell from {a.kept_edits} at p={a.threshold:g} "
                                f"to {b.kept_edits} at p={b.threshold:g}")
        return problems

    def fingerprint(self, points):
        return _digest([dataclasses.asdict(p) for p in points])


@dataclasses.dataclass
class OracleOutput:
    corpus: object
    reports: list
    filtered: object
    rates: dict
    metrics: object
    tv: float


class OracleExact(Workload):
    name = "oracle_exact"

    def prepare(self):
        super().prepare()
        world, uniform, _ = self.tables
        cfg, seed = self.config, self.lab_seeds[0]
        d_r = self.lab.augment.generate_corpus(world, uniform, cfg.dr_sentences,
                                               cfg.length_range, cfg.rate, mode="iid",
                                               seed=seed, stream="d-r")
        self.filter_model = self.lab.corrector.train(d_r, cfg.corrector.window,
                                                     cfg.corrector.alpha)

    def iterate(self, i):
        lab, cfg, seed = self.lab, self.config, self.lab_seeds[0]
        world, uniform, longtail = self.tables
        corpus = lab.augment.generate_corpus(world, longtail, cfg.do_sentences,
                                             cfg.length_range, cfg.rate, mode="single_edit",
                                             seed=seed, annotate=True, stream="d-o")
        reports = [lab.oracle.posterior(world, longtail, rec, 0, cfg.rate)
                   for rec in corpus.records if rec.edits]
        filtered = lab.pipeline.oracle_filter(world, longtail, corpus, 0.5)
        rates = lab.harness.category_filter_rates(corpus, filtered.corpus)
        eval_corpus = lab.pipeline.make_eval_corpus(
            world, longtail, cfg.eval_sentences, cfg.length_range, cfg.rate, seed=seed,
            clean_fraction=cfg.eval_clean_fraction, plausibility=cfg.eval_plausibility)
        metrics = lab.harness.evaluate(lab.oracle.OracleScorer(world, longtail, cfg.rate),
                                       eval_corpus)
        # Same comparison corpus as the lab's volume sweep uses for its TV column.
        tv_corpus = lab.augment.generate_corpus(world, longtail,
                                                max(200, cfg.eval_sentences // 5),
                                                cfg.length_range, cfg.rate,
                                                mode="single_edit", seed=seed, stream="tv")
        tv = lab.pipeline.tv_to_oracle(self.filter_model, world, uniform, tv_corpus, cfg.rate)
        return OracleOutput(corpus, reports, filtered, rates, metrics, tv)

    def check(self, out):
        true = self.lab.augment.SampleCategory.TRUE
        edited = [rec for rec in out.corpus.records if rec.edits]
        problems = []
        if len(edited) != len(out.reports):
            problems.append(f"{len(out.reports)} posteriors for {len(edited)} edited records")
        for k, (rec, rep) in enumerate(zip(edited, out.reports)):
            annotated = rec.categories[0]
            if rep.category != annotated:
                problems.append(f"edited record {k}: posterior category {rep.category.value} "
                                f"!= annotated {annotated.value}")
            elif annotated == true and rep.posterior != 1.0:
                problems.append(f"edited record {k}: true edit has posterior {rep.posterior!r}")
        return problems

    def fingerprint(self, out):
        return _digest({
            "corpus": self.lab.augment.corpus_digest(out.corpus),
            "posteriors": _digest([[r.posterior, r.category.value] for r in out.reports]),
            "kept": out.filtered.kept_edits,
            "reverted": out.filtered.reverted_edits,
            "filtered": self.lab.augment.corpus_digest(out.filtered.corpus),
            "rates": _rates_doc(out.rates),
            "metrics": dataclasses.asdict(out.metrics),
            "tv": out.tv,
        })


CLI_STEPS = ("corpus", "model", "scores", "filtered", "eval")


class CliRoundtrip(Workload):
    name = "cli_roundtrip"
    _expected_digest = None

    def iterate(self, i):
        run = Path(tempfile.mkdtemp(prefix="cli-", dir=self.work_dir))
        dirs = {step: run / step for step in CLI_STEPS}
        seed = str(self.lab_seeds[0])
        corpus, model = str(dirs["corpus"]), str(dirs["model"] / "model.json")
        main = self.lab.cli.main
        for args in (
            ["gen-corpus", "--out-dir", corpus, "--channel", "long_tailed", "--mode", "iid",
             "--annotate", "--sentences", str(self.config.do_sentences)],
            ["train", "--corpus-dir", corpus, "--out-dir", str(dirs["model"])],
            ["score", "--model", model, "--corpus-dir", corpus, "--out-dir", str(dirs["scores"])],
            ["filter", "--model", model, "--corpus-dir", corpus,
             "--out-dir", str(dirs["filtered"])],
            ["eval", "--model", model, "--corpus-dir", corpus, "--out-dir", str(dirs["eval"])],
        ):
            main(args + ["--seed", seed], standalone_mode=False)
        # What a user runs next: `denoiselab report` verifies each output directory.
        for d in dirs.values():
            main(["report", "--out-dir", str(d)], standalone_mode=False)
        return dirs

    def expected_digest(self) -> str:
        """Digest of the corpus ``gen-corpus`` should have written, built in memory."""
        if self._expected_digest is None:
            world, _, longtail = self.tables
            cfg = self.config
            corpus = self.lab.augment.generate_corpus(
                world, longtail, cfg.do_sentences, cfg.length_range, cfg.rate,
                mode="iid", seed=self.lab_seeds[0], annotate=True)
            self._expected_digest = self.lab.augment.corpus_digest(corpus)
        return self._expected_digest

    def check(self, dirs):
        problems = []
        for step, d in dirs.items():
            ok, files = self.lab.harness.verify_manifest(d)
            if not ok:
                bad = sorted(name for name, good in files.items() if not good)
                problems.append(f"{step}: manifest hash mismatch for {bad}")
        # The in-memory copy is built (once) before the re-read, so the two are
        # never alive together and the check does not set the memory peak.
        expected = self.expected_digest()
        meta = json.loads((dirs["corpus"] / "manifest.json").read_text())["meta"]
        reread = self.lab.augment.corpus_from_jsonl(
            dirs["corpus"] / "corpus.jsonl", vocab_size=meta["vocab_size"],
            rate=meta["rate"], mode=meta["mode"])
        if self.lab.augment.corpus_digest(reread) != expected:
            problems.append("re-read corpus digest differs from the generated corpus")
        return problems

    def fingerprint(self, dirs):
        return _digest({step: (d / "manifest.json").read_text() for step, d in dirs.items()})

    def discard(self, dirs):
        shutil.rmtree(dirs["corpus"].parent)


WORKLOADS = {w.name: w for w in (PipelineCross, ThresholdSweep, OracleExact, CliRoundtrip)}
