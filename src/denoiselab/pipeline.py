"""Train-filter-retrain pipeline and its baselines and sweeps.

The core loop: train a filtering model on a uniform-replacement corpus,
score every planted edit of a long-tailed corpus with the filter's restore
confidence, revert edits scoring below a threshold, and train the final
model on the cleaned corpus.  Variants swap the filter source (the target
corpus itself, a masked-context heuristic, plain mixing, or no filtering),
and sweeps walk the threshold grid and the filter-training volume ladder.

Evaluation corpora mimic human-annotated test sets: sentences pass through
the long-tailed single-edit channel, but a replacement that remains
contextually plausible is adopted as correct text instead of being labeled
an error.  Without that adoption step the long-tail-trained model would be
evaluated on its own training distribution, where it is asymptotically
calibrated by construction, and the calibration contrast under study would
vanish.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .augment import (ConfusionConfig, ConfusionTable, PairCorpus, SampleCategory, _fits_world,
                      build_confusion, check_token_budget, concat_corpora, corpus_arrays,
                      generate_corpus)
from .calibration import CalibrationReport, calibration_report
from .corrector import (MASKED_WINDOW, CorrectorConfig, _rows,
                        _signature_table_shape, _signatures, predict_at, predict_matrix, train)
from .harness import CategoryRate, Metrics, category_filter_rates, sentence_metrics
from .oracle import OracleScorer, restoration_distribution
from .world import WorldConfig, WorldModel, build_world, conditional

FILTER_SOURCES = ("cross", "self", "heuristic", "none", "mixing")
DEFAULT_THRESHOLDS = (1e-1, 1e-2, 1e-3, 1e-4, 1e-5)
DEFAULT_VOLUME_SIZES = (10**3, 10**4, 10**5)
VOLUME_THRESHOLD = 1e-2  # the volume sweep's filter threshold; filter.threshold is not read
NOISY_RATIO = 0.9  # the heuristic's cutoff on the ratio of an edit's two masked scores
TV_SENTENCES = 200  # the volume sweep's smallest corpus for the distance to the oracle


@dataclass(frozen=True)
class FilterConfig:
    threshold: float = 0.2
    filter_source: str = "cross"

    def __post_init__(self):
        if not (0.0 < self.threshold < 1.0):
            raise ValueError("threshold must be in (0, 1)")
        if self.filter_source not in FILTER_SOURCES:
            raise ValueError(f"filter_source must be one of {FILTER_SOURCES}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a full experiment needs besides the seed."""

    world: WorldConfig = WorldConfig(vocab_size=20, support=3,
                                     weight_low=0.05, weight_high=1.0)
    confusion: ConfusionConfig = ConfusionConfig(candidates=3, head_mass=0.8,
                                                 context_affinity=0.6)
    corrector: CorrectorConfig = CorrectorConfig()
    filter: FilterConfig = FilterConfig()
    dr_sentences: int = 40_000
    do_sentences: int = 25_000
    eval_sentences: int = 3_000
    length_range: tuple[int, int] = (8, 16)
    rate: float = 0.1
    eval_clean_fraction: float = 0.5
    eval_plausibility: float = 0.12
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    volume_sizes: tuple[int, ...] = DEFAULT_VOLUME_SIZES

    def __post_init__(self):
        if not (0.0 < self.rate < 1.0):
            raise ValueError(f"rate: must be in (0, 1), got {self.rate}")
        lo, hi = self.length_range
        if not (1 <= lo <= hi):
            raise ValueError(f"length_range: needs 1 <= lo <= hi, got {list(self.length_range)}")
        for name in ("dr_sentences", "do_sentences", "eval_sentences"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}: must be at least 1, got {getattr(self, name)}")
            check_token_budget(getattr(self, name), hi, name)
        check_token_budget(TV_SENTENCES, hi, "length_range")
        if not (0.0 <= self.eval_clean_fraction < 1.0):
            raise ValueError("eval_clean_fraction: must be in [0, 1), "
                             f"got {self.eval_clean_fraction}")
        if not (self.eval_plausibility >= 0):
            raise ValueError(f"eval_plausibility: must be >= 0, got {self.eval_plausibility}")
        if not self.thresholds:
            raise ValueError("thresholds: must not be empty")
        for p in self.thresholds:
            if not (0.0 < p < 1.0):
                raise ValueError(f"thresholds: {p} outside (0, 1)")
        if not self.volume_sizes:
            raise ValueError("volume_sizes: must not be empty")
        if any(n < 1 for n in self.volume_sizes):
            raise ValueError(f"volume_sizes: must be positive, got {list(self.volume_sizes)}")
        if list(self.volume_sizes) != sorted(self.volume_sizes):
            raise ValueError(f"volume_sizes: must be ascending, got {list(self.volume_sizes)}")
        check_token_budget(_ladder_sentences(self.volume_sizes[-1], (lo, hi)), hi, "volume_sizes")
        _signature_table_shape(self.world.vocab_size, self.corrector.window, "corrector.window")
        _fits_world(self.confusion, self.world.vocab_size, self.world.order, "confusion.")
        if self.world.rows is not None or self.world.initial is not None:
            try:  # an explicit world is checked whole here, not when a command builds it
                build_world(self.world, 0)  # any seed: the rows are explicit
            except ValueError as exc:
                raise ValueError(f"world: {exc}") from None


@dataclass(frozen=True)
class FilterResult:
    corpus: PairCorpus = field(repr=False)
    kept_edits: int
    reverted_edits: int


@dataclass(frozen=True)
class PipelineReport:
    variant: str
    threshold: float
    kept_edits: int
    reverted_edits: int
    category_rates: dict[SampleCategory, CategoryRate] | None
    metrics_before: Metrics
    metrics_after: Metrics
    calibration_before: CalibrationReport
    calibration_after: CalibrationReport
    filtered: PairCorpus | None = field(repr=False, default=None)


def revert_edits(corpus: PairCorpus, keep) -> FilterResult:
    """Revert every edit whose ``keep`` flag is false.

    ``keep`` holds one flag per edit, in the order of the corpus's edit
    columns.  A reverted position gets its clean token back and loses its
    edit and category; the clean side is shared with ``corpus``.
    """
    keep = np.asarray(keep, dtype=bool)
    if keep.shape != (corpus.n_edits,):
        raise ValueError("keep needs one flag per edit")
    corrupted = corpus.corrupted
    if not keep.all():
        corrupted = corrupted.copy()
        corrupted[corpus.flat_pos[~keep]] = corpus.orig[~keep]
    kept = int(keep.sum())
    return FilterResult(corpus.keep_edits(keep, corrupted=corrupted), kept, len(keep) - kept)


def restore_confidences(scorer, corpus: PairCorpus) -> np.ndarray:
    """Each edit's restore confidence, in edit-column order.

    The scorer (anything with a batched ``predict_at``, such as a
    :class:`CorrectorModel` or an :class:`OracleScorer`) is queried for the
    original token's probability at each edit position of the corrupted sentence.
    """
    rows = scorer.predict_at(corpus, corpus.flat_pos)
    return rows[np.arange(corpus.n_edits), corpus.orig]


def filter_corpus(corpus: PairCorpus, confidences, threshold: float) -> FilterResult:
    """Revert every edit whose confidence (one per edit, as :func:`restore_confidences`
    gives them) falls below the threshold.  Clean sides and unedited positions are
    never touched."""
    if not (0.0 < threshold < 1.0):
        raise ValueError("threshold must be in (0, 1)")
    return revert_edits(corpus, np.asarray(confidences) >= threshold)


def heuristic_noisy(corpus: PairCorpus, masked: np.ndarray) -> np.ndarray:
    """Flag edits whose original and replacement both fit the masked context.

    ``masked`` holds a masked-context model's ``predict_at`` row per edit, in
    edit-column order: each edit scored from its neighbors alone, read on a
    log scale.  An edit is flagged when the smaller of the two scores is at
    least :data:`NOISY_RATIO` times the larger; one flag per edit, in that order.
    """
    # Log-scaled masked scores: the count model's analogue of mask logits.
    # Ratios are taken on this compressed scale, where a 0.9 cutoff tolerates
    # roughly a factor-two difference in conditional mass between two tokens
    # that are both well attested, as a logit-ratio rule does.
    scores = np.log1p(masked / masked.min(axis=1, keepdims=True) - 1.0)
    rows = np.arange(corpus.n_edits)
    q_x, q_y = scores[rows, corpus.orig], scores[rows, corpus.repl]
    top = np.maximum(q_x, q_y)
    with np.errstate(divide="ignore", invalid="ignore"):  # a ratio counts only where top > 0
        return (top > 0) & (np.minimum(q_x, q_y) / top >= NOISY_RATIO)


def heuristic_multi(corpus: PairCorpus) -> np.ndarray:
    """Flag edits sharing a misspelling and its context with a different original.

    An edit is flagged when another edit has the same replacement, the same
    corrupted left and right neighbours (a sentence edge reads
    ``vocab_size``) and a different original.  Those neighbours are all a
    masked-window model reads, so such edits have identical masked rows.
    Returns one flag per edit, in edit-column order.
    """
    V = corpus.vocab_size
    context = _signatures(corpus.corrupted, corpus.offsets, V, MASKED_WINDOW)[corpus.flat_pos]
    groups, group = np.unique(context * V + corpus.repl, return_inverse=True)
    originals = np.unique(group * V + corpus.orig) // V  # one entry per (group, original)
    return np.bincount(originals, minlength=len(groups))[group] > 1


def make_eval_corpus(world: WorldModel, table: ConfusionTable, n_sentences: int,
                     length_range: tuple[int, int], rate: float, *, seed: int,
                     clean_fraction: float, plausibility: float) -> PairCorpus:
    """Human-judged evaluation corpus over the given channel.

    Single-edit corruption, except that a replacement whose contextual
    probability is within ``plausibility`` of the original's is adopted as
    correct text (the sentence keeps the replacement and carries no error),
    the way an annotator treats a plausible alternative as not an error.
    The corpus carries no categories.
    """
    corpus = generate_corpus(world, table, n_sentences, length_range, rate,
                             mode="single_edit", seed=seed,
                             clean_fraction=clean_fraction, stream="eval")
    prior = conditional(world, corpus_arrays(corpus)[0], corpus.pos, corpus.record)
    rows = np.arange(corpus.n_edits)
    plausible = prior[rows, corpus.repl] >= plausibility * prior[rows, corpus.orig]
    # An adopted sentence's clean side is its corrupted side, with no edit.
    clean = corpus.clean.copy()
    clean[corpus.flat_pos[plausible]] = corpus.repl[plausible]
    return corpus.keep_edits(~plausible, clean=clean)


def tv_to_oracle(model, world: WorldModel, table: ConfusionTable,
                 corpus: PairCorpus, rate: float) -> float:
    """Mean total-variation distance between model and exact restore posteriors.

    Measured at the edit positions of single-edit records.
    """
    single = np.bincount(corpus.record, minlength=len(corpus))[corpus.record] == 1
    if not single.any():
        raise ValueError("corpus has no single-edit records to compare on")
    at = corpus.flat_pos[single]
    exact = restoration_distribution(world, table, corpus, at, rate)
    if not exact.any(axis=1).all():
        raise ValueError("observed token unreachable from any context-compatible source")
    exact -= _rows(model, corpus, at)
    return float(np.mean(0.5 * np.abs(exact).sum(axis=1)))


def build_experiment_world(config: ExperimentConfig, seed: int):
    """World plus uniform/long-tailed table pair for one experiment seed."""
    world = build_world(config.world, seed)
    return (world, *build_confusion(world, config.confusion, seed))


def _uniform_corpus(world: WorldModel, uniform: ConfusionTable,
                    config: ExperimentConfig, seed: int) -> PairCorpus:
    """The uniform-channel corpus ``d_r`` (filter training data; half of mixing)."""
    return generate_corpus(world, uniform, config.dr_sentences, config.length_range,
                           config.rate, mode="iid", seed=seed, stream="d-r")


def _target_and_eval(world: WorldModel, longtail: ConfusionTable,
                     config: ExperimentConfig, seed: int) -> tuple[PairCorpus, PairCorpus]:
    """The annotated target corpus ``d_o`` and the evaluation corpus."""
    d_o = generate_corpus(world, longtail, config.do_sentences, config.length_range,
                          config.rate, mode="iid", seed=seed, annotate=True, stream="d-o")
    eval_corpus = make_eval_corpus(world, longtail, config.eval_sentences,
                                   config.length_range, config.rate, seed=seed,
                                   clean_fraction=config.eval_clean_fraction,
                                   plausibility=config.eval_plausibility)
    return d_o, eval_corpus


def _scored(model, eval_corpus: PairCorpus) -> tuple[Metrics, CalibrationReport]:
    """A model's metrics and calibration on the evaluation corpus, from one scoring pass."""
    scored = predict_matrix(model, eval_corpus)
    return sentence_metrics(eval_corpus, scored[0]), calibration_report(scored, eval_corpus)


def run_pipeline(world: WorldModel, uniform_table: ConfusionTable,
                 longtail_table: ConfusionTable, config: ExperimentConfig,
                 seed: int = 0) -> PipelineReport:
    """Execute one full train-filter-retrain run and evaluate it.

    The unfiltered baseline is always trained and evaluated alongside the
    selected variant so every report carries a before/after comparison on
    the same evaluation corpus.
    """
    fc, cc = config.filter, config.corrector
    variant = fc.filter_source
    d_r = (_uniform_corpus(world, uniform_table, config, seed)
           if variant in ("cross", "heuristic", "mixing") else None)
    d_o, eval_corpus = _target_and_eval(world, longtail_table, config, seed)
    baseline = train(d_o, cc.window, cc.alpha)
    before = _scored(baseline, eval_corpus)

    result, rates, final = FilterResult(d_o, d_o.n_edits, 0), None, baseline
    if variant == "mixing":  # trained on the plain concatenation of the two corpora
        final = train(concat_corpora(d_r, d_o), cc.window, cc.alpha)
    elif variant != "none":
        if variant == "heuristic":
            masked = predict_at(train(d_r, MASKED_WINDOW, cc.alpha), d_o, d_o.flat_pos)
            flagged = heuristic_noisy(d_o, masked) | heuristic_multi(d_o)
            result = revert_edits(d_o, ~flagged)
        else:  # the self filter is the baseline model itself
            filter_model = train(d_r, cc.window, cc.alpha) if variant == "cross" else baseline
            result = filter_corpus(d_o, restore_confidences(filter_model, d_o), fc.threshold)
        final = train(result.corpus, cc.window, cc.alpha)
        rates = category_filter_rates(d_o, result.corpus)
    after = before if variant == "none" else _scored(final, eval_corpus)
    (metrics_before, calib_before), (metrics_after, calib_after) = before, after
    return PipelineReport(variant, fc.threshold, result.kept_edits, result.reverted_edits,
                          rates, metrics_before, metrics_after, calib_before, calib_after,
                          result.corpus)


@dataclass(frozen=True)
class SweepPoint:
    threshold: float
    metrics: Metrics
    ece: float
    kept_edits: int
    reverted_edits: int


def threshold_sweep(world: WorldModel, uniform_table: ConfusionTable,
                    longtail_table: ConfusionTable, config: ExperimentConfig,
                    seed: int = 0) -> list[SweepPoint]:
    """One filtered run per threshold of ``config.thresholds``, sharing the filter
    model's confidences on the target corpus, which are scored once."""
    cc = config.corrector
    d_r = _uniform_corpus(world, uniform_table, config, seed)
    d_o, eval_corpus = _target_and_eval(world, longtail_table, config, seed)
    confidences = restore_confidences(train(d_r, cc.window, cc.alpha), d_o)
    points = []
    for p in config.thresholds:
        result = filter_corpus(d_o, confidences, p)
        metrics, calib = _scored(train(result.corpus, cc.window, cc.alpha), eval_corpus)
        points.append(SweepPoint(p, metrics, calib.ece, result.kept_edits, result.reverted_edits))
    return points


def _ladder_sentences(size: int, length_range: tuple[int, int]) -> int:
    return max(1, int(round(size / (0.5 * (length_range[0] + length_range[1])))))


@dataclass(frozen=True)
class VolumePoint:
    size_chars: int
    metrics: Metrics
    tv_distance: float
    ece: float


def volume_sweep(world: WorldModel, uniform_table: ConfusionTable,
                 longtail_table: ConfusionTable, config: ExperimentConfig,
                 seed: int = 0) -> list[VolumePoint]:
    """Grow the filter-training corpus along the ``config.volume_sizes`` ladder.

    The target corpus, evaluation corpus, and comparison corpus are shared
    across ladder steps; only the filter model's training volume changes.
    Every step filters at :data:`VOLUME_THRESHOLD`.
    """
    cc = config.corrector
    d_o, eval_corpus = _target_and_eval(world, longtail_table, config, seed)
    tv_corpus = generate_corpus(world, longtail_table,
                                max(TV_SENTENCES, config.eval_sentences // 5),
                                config.length_range, config.rate,
                                mode="single_edit", seed=seed, stream="tv")

    points = []
    for size in config.volume_sizes:
        d_r = generate_corpus(world, uniform_table, _ladder_sentences(size, config.length_range),
                              config.length_range, config.rate, mode="iid",
                              seed=seed, stream=f"d-r-{size}")
        filter_model = train(d_r, cc.window, cc.alpha)
        tv = tv_to_oracle(filter_model, world, uniform_table, tv_corpus, config.rate)
        result = filter_corpus(d_o, restore_confidences(filter_model, d_o), VOLUME_THRESHOLD)
        metrics, calib = _scored(train(result.corpus, cc.window, cc.alpha), eval_corpus)
        points.append(VolumePoint(int(size), metrics, tv, calib.ece))
    return points


def oracle_filter(world: WorldModel, table: ConfusionTable, corpus: PairCorpus,
                  threshold: float) -> FilterResult:
    """Filtering with the exact posterior, at the corpus's rate, in place of a trained model."""
    scorer = OracleScorer(world, table, corpus.rate)
    return filter_corpus(corpus, restore_confidences(scorer, corpus), threshold)
