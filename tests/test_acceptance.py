"""Acceptance suite: one test per shipped criterion, each printing a verdict.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The experiment-backed criteria share a module-scoped set of pipeline
runs over ten seeds.
"""

import dataclasses
import json
import time

import numpy as np
import pytest

from denoiselab.augment import (ConfusionConfig, SampleCategory, build_confusion,
                                generate_corpus)
from denoiselab.calibration import calibration_report, ece
from denoiselab.corrector import predict_matrix, train
from denoiselab.harness import evaluate, sha256_file
from denoiselab.oracle import bounds, posterior
from denoiselab.pipeline import (ExperimentConfig, build_experiment_world,
                                 make_eval_corpus, oracle_filter, run_pipeline,
                                 threshold_sweep, volume_sweep)
from denoiselab.harness import category_filter_rates
from denoiselab.world import WorldConfig, build_world, conditional

from constructions import bound_demo_setup, ordering_triple, records_of
from enumeration import brute_force_posterior
from ordering import verify_ordering

SEEDS = range(10)


def verdict(n, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok


def sampled_records(max_vocab=6, max_len=4, minimum=120):
    """Randomized single-edit records over small enumerable worlds."""
    out = []
    seed = 0
    while len(out) < minimum:
        V = 3 + seed % (max_vocab - 2)
        world = build_world(WorldConfig(vocab_size=V, support=2,
                                        weight_low=0.05, weight_high=1.0), seed)
        uniform, longtail = build_confusion(world, ConfusionConfig(
            candidates=1 + seed % min(3, V - 1),
            context_affinity=0.5 if seed % 2 else 0.0,
            head_mass=0.7), seed)
        table = longtail if seed % 3 == 0 else uniform
        corpus = generate_corpus(world, table, 4, (2, max_len), 0.1,
                                 mode="single_edit", seed=seed)
        out.extend((world, table, rec) for rec in records_of(corpus))
        seed += 1
    return out


@pytest.fixture(scope="module")
def oracle_records():
    return sampled_records()


@pytest.fixture(scope="module")
def pipeline_runs():
    """Cross- and self-filtered pipeline runs for every seed, plus wall time."""
    cfg = ExperimentConfig()
    self_cfg = dataclasses.replace(
        cfg, filter=dataclasses.replace(cfg.filter, filter_source="self"))
    t0 = time.monotonic()
    runs = {}
    for seed in SEEDS:
        world, uniform_table, longtail_table = build_experiment_world(cfg, seed)
        cross = run_pipeline(world, uniform_table, longtail_table, cfg, seed)
        self_run = run_pipeline(world, uniform_table, longtail_table, self_cfg, seed)
        runs[seed] = (cross, self_run)
    return runs, time.monotonic() - t0


def test_criterion_1_oracle_equivalence(oracle_records):
    t0 = time.monotonic()
    worst = 0.0
    for world, table, rec in oracle_records:
        gap = abs(posterior(world, table, rec, 0, 0.1).posterior
                  - brute_force_posterior(world, table, rec, 0, 0.1))
        worst = max(worst, gap)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-9 and elapsed < 5.0 and len(oracle_records) >= 100
    verdict(1, ok, f"max |closed form - enumeration| = {worst:.2e} over "
                   f"{len(oracle_records)} records in {elapsed:.2f}s")


def test_criterion_2_case1_exactness(oracle_records):
    cfg = ExperimentConfig()
    world, _, longtail_table = build_experiment_world(cfg, 0)
    corpus = generate_corpus(world, longtail_table, 400, cfg.length_range, cfg.rate,
                             mode="single_edit", seed=0, annotate=True)
    checked = 0
    exact = True
    for w, t, rec in oracle_records:
        rep = posterior(w, t, rec, 0, 0.1)
        if rep.category == SampleCategory.TRUE:
            checked += 1
            exact = exact and rep.posterior == 1.0
    for rec in records_of(corpus):
        rep = posterior(world, longtail_table, rec, 0, cfg.rate)
        if rep.category == SampleCategory.TRUE:
            checked += 1
            exact = exact and rep.posterior == 1.0
    verdict(2, exact and checked > 100,
            f"{checked} true-category records, all posteriors exactly 1.0")


def test_criterion_3_uniform_channel_bound():
    ceiling = bounds(0.1, None, SampleCategory.NOISY, 0.1)  # 1/1.9
    world = build_world(WorldConfig(vocab_size=10, support=3, weight_low=1.0, weight_high=2.0), 11)
    table = build_confusion(world, ConfusionConfig(candidates=3, context_affinity=0.6), 11)[0]
    corpus = generate_corpus(world, table, 3_000, (6, 10), 0.1,
                             mode="single_edit", seed=12, annotate=True)
    noisy_posteriors, ratios = [], []
    for rec in records_of(corpus):
        rep = posterior(world, table, rec, 0, 0.1)
        if rep.category == SampleCategory.NOISY:
            noisy_posteriors.append(rep.posterior)
            ratios.append(rep.bound_params[0])
    bounded_ok = (len(noisy_posteriors) > 100 and min(ratios) >= 0.1
                  and max(noisy_posteriors) <= ceiling + 1e-9)

    demo_world, demo_uniform, demo_longtail, demo_record = bound_demo_setup()
    over = posterior(demo_world, demo_longtail, demo_record, 0, 0.1).posterior
    under = posterior(demo_world, demo_uniform, demo_record, 0, 0.1).posterior
    demo_ok = over > ceiling and under <= ceiling + 1e-9
    verdict(3, bounded_ok and demo_ok,
            f"{len(noisy_posteriors)} noisy records max {max(noisy_posteriors):.4f} "
            f"<= {ceiling:.4f}; 0.9-head counterexample {over:.4f} exceeds it "
            f"(uniform channel on the same record: {under:.4f})")


def test_criterion_4_strict_ordering():
    groups = []
    for seed in range(50):
        world, table, records = ordering_triple(seed)
        groups.append([posterior(world, table, rec, 0, 0.1) for rec in records])
    result = verify_ordering(groups, ratio_bound=10.0)
    n_violations = sum(len(g.violations) for g in result.groups)
    ok = result.n_qualified == 50 and result.all_passed and n_violations == 0
    verdict(4, ok, f"50 context-matched triples, {n_violations} ordering violations")


def test_criterion_5_sigma_consistency():
    worst = 0.0
    rich = 0
    for seed in range(12):
        world = build_world(WorldConfig(vocab_size=6, support=6,
                                        weight_low=0.05, weight_high=1.0), seed)
        table = build_confusion(world, ConfusionConfig(candidates=4,
                                                       context_affinity=0.0), seed)[0]
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
            worst = max(worst, abs(rebuilt - rep.posterior))
    ok = worst <= 1e-12 and rich >= 50
    verdict(5, ok, f"sigma decomposition vs direct denominator: "
                   f"max gap {worst:.2e} over {rich} records with >=3 candidates")


def test_criterion_6_ece_unit_cases():
    hand = ece([0.9, 0.9, 0.6, 0.6], [True, True, True, False])
    perfect = ece([1.0] * 5, [True] * 5)
    ok = abs(hand.ece - 0.1) <= 1e-12 and perfect.ece == 0.0
    verdict(6, ok, f"hand four-outcome case = {hand.ece}, perfect set = {perfect.ece}")


def test_criterion_7_calibration_separation():
    cfg = ExperimentConfig()
    t0 = time.monotonic()
    rows = []
    for seed in SEEDS:
        world, uniform_table, longtail_table = build_experiment_world(cfg, seed)
        d_r = generate_corpus(world, uniform_table, 50_000, cfg.length_range,
                              cfg.rate, "iid", seed, stream="d-r")
        d_o = generate_corpus(world, longtail_table, 50_000, cfg.length_range,
                              cfg.rate, "iid", seed, stream="d-o")
        shared_eval = make_eval_corpus(world, longtail_table, cfg.eval_sentences,
                                       cfg.length_range, cfg.rate, seed=seed,
                                       clean_fraction=cfg.eval_clean_fraction,
                                       plausibility=cfg.eval_plausibility)
        uniform_model = train(d_r, cfg.corrector.window, cfg.corrector.alpha)
        longtail_model = train(d_o, cfg.corrector.window, cfg.corrector.alpha)
        rows.append((calibration_report(predict_matrix(uniform_model, shared_eval),
                                        shared_eval).ece,
                     calibration_report(predict_matrix(longtail_model, shared_eval),
                                        shared_eval).ece,
                     evaluate(uniform_model, shared_eval).f1,
                     evaluate(longtail_model, shared_eval).f1))
    elapsed = time.monotonic() - t0
    ece_u, ece_l, f1_u, f1_l = (float(np.median([r[i] for r in rows]))
                                for i in range(4))
    ok = ece_l > ece_u and f1_l >= f1_u and elapsed < 120.0
    verdict(7, ok, f"median ECE long-tailed {ece_l:.4f} > uniform {ece_u:.4f}; "
                   f"median F1 long-tailed {f1_l:.2f} >= uniform {f1_u:.2f} "
                   f"({elapsed:.0f}s)")


def test_criterion_8_pipeline_improvement(pipeline_runs):
    runs, elapsed = pipeline_runs
    reduced = sum(runs[s][0].metrics_after.fpr < runs[s][0].metrics_before.fpr
                  for s in SEEDS)
    f1_ok = sum(runs[s][0].metrics_after.f1 >= runs[s][0].metrics_before.f1 - 2.0
                for s in SEEDS)

    # Exact separation with the posterior itself as the filter at p = 0.5.
    world = build_world(WorldConfig(vocab_size=10, support=3, weight_low=1.0, weight_high=2.0), 11)
    table = build_confusion(world, ConfusionConfig(candidates=3, context_affinity=0.6), 11)[0]
    corpus = generate_corpus(world, table, 2_000, (6, 10), 0.1,
                             mode="single_edit", seed=12, annotate=True)
    rates = category_filter_rates(corpus,
                                  oracle_filter(world, table, corpus, 0.5).corpus)
    oracle_ok = (rates[SampleCategory.NOISY].ratio == 1.0
                 and rates[SampleCategory.TRUE].ratio == 0.0)
    ok = reduced >= 8 and f1_ok >= 8 and oracle_ok and elapsed < 180.0
    verdict(8, ok, f"FPR reduced in {reduced}/10 seeds, F1 within 2pts in "
                   f"{f1_ok}/10; oracle filter removes 100% noisy / 0% true "
                   f"({elapsed:.0f}s for both variants)")


def test_criterion_9_cross_beats_self(pipeline_runs):
    runs, _ = pipeline_runs
    cross_noisy = [runs[s][0].category_rates[SampleCategory.NOISY].ratio
                   for s in SEEDS]
    self_noisy = [runs[s][1].category_rates[SampleCategory.NOISY].ratio
                  for s in SEEDS]
    cross_fpr = [runs[s][0].metrics_after.fpr for s in SEEDS]
    self_fpr = [runs[s][1].metrics_after.fpr for s in SEEDS]
    med = lambda xs: float(np.median(xs))
    ok = med(cross_noisy) > med(self_noisy) and med(cross_fpr) < med(self_fpr)
    verdict(9, ok, f"median noisy-removal cross {med(cross_noisy):.2f} > self "
                   f"{med(self_noisy):.2f}; median FPR cross {med(cross_fpr):.2f} "
                   f"< self {med(self_fpr):.2f}")


def test_criterion_10_sweeps():
    cfg = ExperimentConfig()
    fpr = {p: [] for p in cfg.thresholds}
    for seed in SEEDS:
        world, uniform_table, longtail_table = build_experiment_world(cfg, seed)
        for pt in threshold_sweep(world, uniform_table, longtail_table, cfg,
                                  seed=seed):
            fpr[pt.threshold].append(pt.metrics.fpr)
    medians = [float(np.median(fpr[p])) for p in cfg.thresholds]  # p descending
    inversions = sum(1 for hi, lo in zip(medians, medians[1:]) if lo < hi - 1e-9)

    tv = {s: [] for s in cfg.volume_sizes}
    f1 = {s: [] for s in cfg.volume_sizes}
    for seed in range(5):
        world, uniform_table, longtail_table = build_experiment_world(cfg, seed)
        for pt in volume_sweep(world, uniform_table, longtail_table, cfg, seed=seed):
            tv[pt.size_chars].append(pt.tv_distance)
            f1[pt.size_chars].append(pt.metrics.f1)
    tv_med = [float(np.median(tv[s])) for s in cfg.volume_sizes]
    f1_med = [float(np.median(f1[s])) for s in cfg.volume_sizes]
    tv_ok = all(b <= a + 1e-12 for a, b in zip(tv_med, tv_med[1:]))
    f1_ok = all(b >= a - 1e-12 for a, b in zip(f1_med, f1_med[1:]))
    ok = inversions <= 1 and tv_ok and f1_ok
    verdict(10, ok, f"threshold grid FPR medians {['%.2f' % m for m in medians]} "
                    f"({inversions} inversions); volume TV {['%.3f' % m for m in tv_med]} "
                    f"non-increasing, F1 {['%.2f' % m for m in f1_med]} non-decreasing")


def test_criterion_11_cli_determinism(tmp_path):
    from click.testing import CliRunner
    from denoiselab.cli import main

    config = {
        "world": {"vocab_size": 8, "support": 3, "weight_low": 0.05,
                  "weight_high": 1.0},
        "confusion": {"candidates": 2, "head_mass": 0.8, "context_affinity": 0.6},
        "dr_sentences": 500, "do_sentences": 400, "eval_sentences": 200,
        "length_range": [5, 9],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    runner = CliRunner()
    hashes = []
    for name in ("a", "b"):
        out = tmp_path / name
        for cmd in (["pipeline"], ["gen-corpus", "--mode", "single_edit"]):
            result = runner.invoke(main, cmd + ["--config", str(config_path),
                                                "--seed", "5", "--out-dir",
                                                str(out / cmd[0])],
                                   catch_exceptions=False)
            assert result.exit_code == 0, result.output
        hashes.append({p.relative_to(out).as_posix(): sha256_file(p)
                       for p in sorted(out.rglob("*")) if p.is_file()})
    ok = hashes[0] == hashes[1] and len(hashes[0]) >= 8
    verdict(11, ok, f"{len(hashes[0])} output files byte-identical across reruns")
