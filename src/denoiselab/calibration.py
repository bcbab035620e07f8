"""Reliability diagrams and expected calibration error.

Outcomes are per-position predictions: the top-1 confidence, whether the
argmax matched the clean token, and how much mass the model kept on the
written token.  Positions where almost all mass stays on the input are easy
positives; excluding them before binning keeps the diagram from being
swamped by trivially-correct keep decisions.  :func:`calibration_report`
does both over a model's scored corpus; :func:`ece` bins given confidences
and correct flags.

Binning rule: equal-width bins over [0, 1]; a confidence exactly on a bin
boundary belongs to the upper bin, except 1.0 which stays in the top bin.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .augment import PairCorpus


EASY_CUTOFF = 0.1  # an outcome is an easy positive below this mass off the written token
N_BINS = 10  # equal-width bins over [0, 1]


class NoOutcomeError(ValueError):
    """Easy-positive exclusion left no outcome to bin."""


@dataclass(frozen=True)
class CalibrationBin:
    lower: float
    upper: float
    mean_confidence: float
    accuracy: float
    count: int


@dataclass(frozen=True)
class CalibrationReport:
    bins: tuple[CalibrationBin, ...]
    ece: float
    n_excluded: int

    @property
    def n_outcomes(self) -> int:
        return sum(b.count for b in self.bins)


def ece(confidence, correct) -> CalibrationReport:
    """Expected calibration error over :data:`N_BINS` equal-width bins of the top-1
    ``confidence`` of each outcome and its ``correct`` flag, none excluded."""
    conf, correct = np.asarray(confidence, dtype=float), np.asarray(correct, dtype=float)
    if not len(conf):
        raise ValueError("cannot compute calibration on an empty outcome list")
    idx = np.clip((conf * N_BINS).astype(np.int64), 0, N_BINS - 1)

    bins = []
    total = len(conf)
    value = 0.0
    for b in range(N_BINS):
        sel = idx == b
        count = int(sel.sum())
        if count == 0:
            bins.append(CalibrationBin(b / N_BINS, (b + 1) / N_BINS, 0.0, 0.0, 0))
            continue
        mean_conf = float(conf[sel].mean())
        accuracy = float(correct[sel].mean())
        bins.append(CalibrationBin(b / N_BINS, (b + 1) / N_BINS, mean_conf, accuracy, count))
        value += (count / total) * abs(accuracy - mean_conf)
    return CalibrationReport(tuple(bins), value, 0)


def calibration_report(scored: tuple[np.ndarray, np.ndarray, np.ndarray],
                       corpus: PairCorpus) -> CalibrationReport:
    """Easy-positive exclusion (:data:`EASY_CUTOFF`) and binning of every position's
    outcome in one step, over ``scored``, the (decoded, confidence, kept) columns
    ``predict_matrix(model, corpus)``."""
    if len(corpus) == 0:
        raise ValueError("empty corpus")
    decoded, confidence, kept = scored
    hard = (1.0 - kept) >= EASY_CUTOFF  # the mass off the written token
    if not hard.any():
        raise NoOutcomeError("easy-positive exclusion removed every outcome")
    report = ece(confidence[hard], (decoded == corpus.clean)[hard])
    return replace(report, n_excluded=len(hard) - int(hard.sum()))


def write_reliability_csv(report: CalibrationReport, path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lower", "bin_upper", "mean_confidence", "accuracy", "count"])
        for b in report.bins:
            writer.writerow([f"{b.lower:.2f}", f"{b.upper:.2f}",
                             f"{b.mean_confidence:.10g}", f"{b.accuracy:.10g}", b.count])
