"""Desk-scale laboratory for confidence-based corpus denoising.

Builds a fully enumerable synthetic token language, corrupts it through
uniform and long-tailed replacement channels, computes exact Bayesian
restore confidences for every planted error, trains count-based correctors,
and runs the train-filter-retrain pipeline with calibration diagnostics.
"""

__version__ = "0.1.0"  # the package's only version string; modules import it from here

from .augment import (ConfusionConfig, ConfusionTable, CorruptionRecord,
                      PairCorpus, SampleCategory, build_confusion, generate_corpus)
from .calibration import CalibrationReport, ece
from .corrector import CorrectorConfig, CorrectorModel, train
from .harness import Metrics, category_filter_rates, emit_report, evaluate
from .oracle import OracleScorer, PosteriorReport, bounds, posterior, restoration_distribution
from .pipeline import (ExperimentConfig, FilterConfig, PipelineReport,
                       filter_corpus, heuristic_multi, heuristic_noisy,
                       make_eval_corpus, run_pipeline,
                       threshold_sweep, volume_sweep)
from .world import ImpossibleContextError, WorldConfig, WorldModel, build_world, conditional
