"""Command-line interface.

Every command writes its outputs under ``--out-dir`` together with a
``manifest.json`` recording the config hash, the seed, and a SHA-256 digest
of each produced file.  Reruns with identical config and seed produce
byte-identical files.  Corpus directories produced by ``gen-corpus`` are
self-describing and are consumed by the downstream commands.
"""

from __future__ import annotations

import dataclasses
import functools
import json
from pathlib import Path

import click
import numpy as np

from . import augment, calibration, corrector, harness, oracle, pipeline, world
from .config import load_experiment_config
from .harness import MetricsRow, emit_report, write_manifest
from .pipeline import VOLUME_THRESHOLD, ExperimentConfig


_CORPUS_META = {"vocab_size": int, "rate": float, "mode": str}  # what a corpus dir's reader reads


def _load_corpus_dir(corpus_dir: Path):
    manifest = corpus_dir / "manifest.json"
    try:  # each message names the file
        meta = harness.read_manifest(corpus_dir, _CORPUS_META)["meta"]
        ok, checks = harness.verify_manifest(corpus_dir)
        if not ok:
            bad = ", ".join(sorted(name for name, good in checks.items() if not good))
            raise ValueError(f"{corpus_dir}: manifest hash mismatch for {bad}")
        w = world.load_world(corpus_dir / "world.json")
        table = augment.load_confusion(corpus_dir / "confusion.json")
        V, rate, mode = meta["vocab_size"], meta["rate"], meta["mode"]
        if not V == w.vocab_size == table.vocab_size:
            raise ValueError(f"{manifest}: meta 'vocab_size' must be world.json's {w.vocab_size} "
                             f"and confusion.json's {table.vocab_size}, got {V!r}")
        if not 0 < rate < 1:  # ExperimentConfig's range
            raise ValueError(f"{manifest}: meta 'rate' must be a number in (0, 1), got {rate!r}")
        if mode not in ("iid", "single_edit"):
            raise ValueError(f"{manifest}: meta 'mode' must be iid or single_edit, got {mode!r}")
        corpus = augment.corpus_from_jsonl(corpus_dir / "corpus.jsonl", vocab_size=V,
                                           rate=rate, mode=mode)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from None
    return w, table, corpus, meta


def _load_model(model_path: str, corpus: augment.PairCorpus):
    """The ``--model`` file, for ``corpus``; a bad one is reported as a usage error."""
    try:
        model = corrector.load_model(model_path)
    except ValueError as exc:  # the message names the file and the field
        raise click.ClickException(str(exc)) from None
    if model.vocab_size != corpus.vocab_size:
        raise click.ClickException(f"{model_path}: model vocab_size {model.vocab_size} "
                                   f"differs from the corpus's {corpus.vocab_size}")
    return model


_THRESHOLD = click.FloatRange(0, 1, min_open=True, max_open=True)


def _window(ctx, param, value):
    """``--window`` as a tuple of offsets, or None when not given."""
    try:
        return tuple(int(x) for x in value.split(",")) if value else None
    except ValueError:
        raise click.BadParameter(f"expected comma-separated integers, got {value!r}") from None


@click.group()
def main():
    """Synthetic corpus-denoising laboratory."""


class Run:
    """An experiment command's config, seed and (created) output directory."""

    def __init__(self, config: ExperimentConfig, seed: int, out: Path):
        self.config, self.seed, self.out = config, seed, out

    def world(self):
        """The experiment world and its uniform and long-tailed tables."""
        return pipeline.build_experiment_world(self.config, self.seed)

    def _stamp(self) -> dict:
        """The config document and seed that every manifest records."""
        return {"config_doc": dataclasses.asdict(self.config), "seed": self.seed}

    def manifest(self, files: dict[str, Path], meta: dict | None = None) -> None:
        write_manifest(self.out, files=files, meta=meta, **self._stamp())

    def report(self, rows: list[MetricsRow], **outputs) -> None:
        emit_report(self.out, metrics_rows=rows, **outputs, **self._stamp())


def _experiment(name: str):
    """Register an experiment command with ``--config``, ``--seed`` and ``--out-dir``.

    The command function gets a :class:`Run` in place of those three options.
    """
    def register(fn):
        @functools.wraps(fn)
        def callback(config_path, seed, out_dir, **options):
            try:
                config = load_experiment_config(config_path)
            except ValueError as exc:  # the message names the file and the field
                raise click.ClickException(str(exc)) from None
            out = Path(out_dir)
            out.mkdir(parents=True, exist_ok=True)
            try:
                return fn(Run(config, seed, out), **options)
            except calibration.NoOutcomeError as exc:  # the run found nothing to calibrate on
                raise click.ClickException(str(exc)) from None

        callback = click.option("--config", "config_path", type=click.Path(exists=True),
                                default=None, help="JSON experiment config")(callback)
        callback = click.option("--seed", type=click.IntRange(0, 2**63 - 1), default=0,
                                show_default=True)(callback)
        callback = click.option("--out-dir", type=click.Path(), required=True)(callback)
        return main.command(name)(callback)
    return register


@_experiment("gen-world")
def gen_world(run):
    """Build a world and save it as JSON."""
    w = world.build_world(run.config.world, run.seed)
    path = run.out / "world.json"
    world.save_world(w, path)
    run.manifest({"world.json": path})
    click.echo(f"world: V={w.vocab_size} order={w.order} -> {path}")


@_experiment("gen-corpus")
@click.option("--channel", type=click.Choice(["uniform", "long_tailed"]),
              default="long_tailed", show_default=True)
@click.option("--mode", type=click.Choice(["iid", "single_edit"]),
              default="iid", show_default=True)
@click.option("--sentences", type=click.IntRange(min=1), default=None,
              help="Override the config's target corpus size")
@click.option("--annotate/--no-annotate", default=True, show_default=True)
def gen_corpus(run, channel, mode, sentences, annotate):
    """Generate an aligned pair corpus through the chosen channel."""
    cfg, out = run.config, run.out
    w, uniform_table, longtail_table = run.world()
    table = uniform_table if channel == "uniform" else longtail_table
    n = sentences if sentences is not None else cfg.do_sentences
    try:
        augment.check_token_budget(n, cfg.length_range[1], "--sentences")
    except ValueError as exc:
        raise click.ClickException(str(exc)) from None
    corpus = augment.generate_corpus(w, table, n, cfg.length_range, cfg.rate,
                                     mode=mode, seed=run.seed, annotate=annotate)
    files = {name: out / name for name in ("world.json", "confusion.json", "corpus.jsonl")}
    world.save_world(w, files["world.json"])
    augment.save_confusion(table, files["confusion.json"])
    augment.corpus_to_jsonl(corpus, files["corpus.jsonl"])
    run.manifest(files, {"vocab_size": w.vocab_size, "rate": cfg.rate, "mode": mode,
                         "channel": channel, "sentences": n, "n_edits": corpus.n_edits})
    click.echo(f"corpus: {n} sentences, {corpus.n_edits} edits -> {out}")


@_experiment("train")
@click.option("--corpus-dir", type=click.Path(exists=True), required=True)
@click.option("--window", type=str, default=None, callback=_window,
              help="Comma-separated offsets, e.g. '-1,0,1'")
def train_cmd(run, corpus_dir, window):
    """Train a corrector on a stored corpus."""
    _, _, corpus, _ = _load_corpus_dir(Path(corpus_dir))
    cc = run.config.corrector
    try:  # a window whose count table is too large for the corpus's vocabulary
        model = corrector.train(corpus, window or cc.window, cc.alpha)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from None
    path = run.out / "model.json"
    corrector.save_model(model, path)
    run.manifest({"model.json": path}, {"trained_chars": model.trained_chars,
                                        "window": list(model.window)})
    click.echo(f"model: {model.trained_chars} chars, window {model.window} -> {path}")


@_experiment("score")
@click.option("--model", "model_path", type=click.Path(exists=True), required=True)
@click.option("--corpus-dir", type=click.Path(exists=True), required=True)
@click.option("--oracle/--no-oracle", "with_oracle", default=False,
              help="Also write exact posteriors (single-edit records only)")
def score_cmd(run, model_path, corpus_dir, with_oracle):
    """Write per-edit restore confidences as JSONL."""
    w, table, corpus, meta = _load_corpus_dir(Path(corpus_dir))
    model = _load_model(model_path, corpus)

    n = corpus.n_edits
    confidence = pipeline.restore_confidences(model, corpus)
    records = corpus.record.tolist()
    oracle_fields = [""] * n
    if with_oracle:  # a single-edit record's edit is edit k, the count of edits before it
        single = (np.bincount(corpus.record, minlength=len(corpus)) == 1).tolist()
        k = 0
        for r, (record, one) in enumerate(zip(corpus.records, single)):
            if one:
                try:
                    rep = oracle.posterior(w, table, record, 0, meta["rate"])
                except ValueError as exc:  # a record its own world and table cannot explain
                    raise click.ClickException(
                        f"{Path(corpus_dir) / 'corpus.jsonl'}: record {r}: {exc}") from None
                oracle_fields[k] = ", " + json.dumps(
                    {"oracle_posterior": rep.posterior, "category": rep.category.value,
                     "sigma": rep.sigma, "bound": rep.bound})[1:-1]
            k += len(record.edits)
    # Each line is json.dumps of its object; one dumps call formats every confidence.
    confidences = json.dumps(confidence.tolist())[1:-1].split(", ")
    path = run.out / "scores.jsonl"
    path.write_text("".join(
        f'{{"record": {ri}, "position": {i}, "original": {x}, "replacement": {y}, '
        f'"confidence": {c}{extra}}}\n'
        for ri, i, x, y, c, extra in zip(records, corpus.pos.tolist(), corpus.orig.tolist(),
                                         corpus.repl.tolist(), confidences, oracle_fields)))
    run.manifest({"scores.jsonl": path}, {"edits": n})
    click.echo(f"scored {n} edits -> {path}")


@_experiment("filter")
@click.option("--model", "model_path", type=click.Path(exists=True), required=True)
@click.option("--corpus-dir", type=click.Path(exists=True), required=True)
@click.option("--threshold", type=_THRESHOLD, default=None,
              help="Restore-confidence cutoff; below it edits are reverted")
def filter_cmd(run, model_path, corpus_dir, threshold):
    """Revert low-confidence edits of a stored corpus."""
    p = threshold if threshold is not None else run.config.filter.threshold
    _, _, corpus, meta = _load_corpus_dir(Path(corpus_dir))
    model = _load_model(model_path, corpus)
    result = pipeline.filter_corpus(corpus, pipeline.restore_confidences(model, corpus), p)
    path = run.out / "filtered.jsonl"
    augment.corpus_to_jsonl(result.corpus, path)
    run.manifest({"filtered.jsonl": path}, {"threshold": p, "kept": result.kept_edits,
                                            "reverted": result.reverted_edits, **meta})
    click.echo(f"kept {result.kept_edits}, reverted {result.reverted_edits} -> {path}")


@_experiment("eval")
@click.option("--model", "model_path", type=click.Path(exists=True), required=True)
@click.option("--corpus-dir", type=click.Path(exists=True), required=True)
def eval_cmd(run, model_path, corpus_dir):
    """Evaluate a stored model on a stored corpus."""
    _, _, corpus, _ = _load_corpus_dir(Path(corpus_dir))
    model = _load_model(model_path, corpus)
    metrics, calib = pipeline._scored(model, corpus)
    run.report([MetricsRow("model", run.config.filter.threshold, model.trained_chars,
                           metrics, calib.ece, run.seed)], reliability=calib)
    click.echo(f"F1 {metrics.f1:.2f}  FPR {metrics.fpr:.2f}  ECE {calib.ece:.4f}")


@_experiment("pipeline")
@click.option("--mode", type=click.Choice(list(pipeline.FILTER_SOURCES)),
              default=None, help="Filter source; defaults to the config's")
@click.option("--threshold", type=_THRESHOLD, default=None)
def pipeline_cmd(run, mode, threshold):
    """Run the full train-filter-retrain pipeline."""
    fc = run.config.filter
    if mode is not None:
        fc = dataclasses.replace(fc, filter_source=mode)
    if threshold is not None:
        fc = dataclasses.replace(fc, threshold=threshold)
    run.config = dataclasses.replace(run.config, filter=fc)
    cfg, seed, out = run.config, run.seed, run.out
    report = pipeline.run_pipeline(*run.world(), cfg, seed)

    filtered_path = out / "filtered.jsonl"
    augment.corpus_to_jsonl(report.filtered, filtered_path)
    summary = {
        "variant": report.variant,
        "threshold": report.threshold,
        "kept_edits": report.kept_edits,
        "reverted_edits": report.reverted_edits,
        "category_filter_ratios": (
            {cat.value: report.category_rates[cat].ratio for cat in report.category_rates}
            if report.category_rates else None),
        "fpr_before": report.metrics_before.fpr,
        "fpr_after": report.metrics_after.fpr,
        "f1_before": report.metrics_before.f1,
        "f1_after": report.metrics_after.f1,
        "ece_before": report.calibration_before.ece,
        "ece_after": report.calibration_after.ece,
    }
    report_path = out / "report.json"
    report_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    rows = [
        MetricsRow("baseline", report.threshold, cfg.do_sentences,
                   report.metrics_before, report.calibration_before.ece, seed),
        MetricsRow(report.variant, report.threshold, cfg.do_sentences,
                   report.metrics_after, report.calibration_after.ece, seed),
    ]
    run.report(rows, reliability=report.calibration_after,
               extra_files={"filtered.jsonl": filtered_path, "report.json": report_path})
    click.echo(json.dumps(summary, sort_keys=True))


@_experiment("sweep-threshold")
def sweep_threshold_cmd(run):
    """Run the pipeline across the threshold grid."""
    cfg, seed = run.config, run.seed
    points = pipeline.threshold_sweep(*run.world(), cfg, seed=seed)
    run.report([MetricsRow("cross", pt.threshold, cfg.do_sentences, pt.metrics,
                           pt.ece, seed) for pt in points])
    for pt in points:
        click.echo(f"p={pt.threshold:g} F1={pt.metrics.f1:.2f} "
                   f"FPR={pt.metrics.fpr:.2f} ECE={pt.ece:.4f}")


@_experiment("sweep-volume")
def sweep_volume_cmd(run):
    """Grow the filter-model training volume along the configured ladder."""
    points = pipeline.volume_sweep(*run.world(), run.config, seed=run.seed)
    tv_path = run.out / "volume_tv.csv"
    with open(tv_path, "w") as fh:
        fh.write("size,tv_distance\n")
        for pt in points:
            fh.write(f"{pt.size_chars},{pt.tv_distance:.8f}\n")
    run.report([MetricsRow("volume", VOLUME_THRESHOLD, pt.size_chars, pt.metrics, pt.ece, run.seed)
                for pt in points], extra_files={"volume_tv.csv": tv_path})
    for pt in points:
        click.echo(f"size={pt.size_chars} F1={pt.metrics.f1:.2f} tv={pt.tv_distance:.4f}")


@main.command("report")
@click.option("--out-dir", type=click.Path(exists=True), required=True)
def report_cmd(out_dir):
    """Verify a run directory's manifest and print its summary."""
    try:
        ok, checks = harness.verify_manifest(out_dir)
    except ValueError as exc:  # the message names the file
        raise click.ClickException(str(exc)) from None
    for name, good in sorted(checks.items()):
        click.echo(f"{'ok ' if good else 'BAD'} {name}")
    metrics_path = Path(out_dir) / "metrics.csv"
    if metrics_path.exists():
        click.echo(metrics_path.read_text().rstrip())
    if not ok:
        raise click.ClickException("manifest hash mismatch")
    click.echo("manifest verified")


if __name__ == "__main__":
    main()
