"""The benchmark's own tests, on tiny experiment sizes."""

import dataclasses
import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import run
import workloads

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
TINY = {"dr_sentences": 400, "do_sentences": 300, "eval_sentences": 120}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PREDICTIONS = json.loads((BENCH_DIR / "predictions.json").read_text())


def tiny_run(tmp_path, name, trace=False):
    return run.run_workload(name, seed=0, seconds=0, trace=trace, out_dir=tmp_path,
                            overrides=TINY)


def tiny_workload(tmp_path, name):
    work = workloads.WORKLOADS[name](workloads.load_lab(), 0, tmp_path, TINY)
    work.prepare()
    return work


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_declared_metric_is_emitted_with_its_unit(tmp_path, name, trace):
    details = tiny_run(tmp_path, name, trace)
    result = details["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == declared
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if trace:
        for metric, layer in PREDICTIONS["layers"].items():
            value = result["metrics"][metric]["value"]
            if name in layer["absent_on"]:
                assert value == 0, metric
            elif name in layer["heavy_on"] and metric != "trace.overhead_s":
                assert value > 0, metric
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    assert len(set(details["fingerprints"].values())) == len(details["fingerprints"])


def test_host_speed_samples_inside_the_work_and_restores_the_signal_handler():
    before = signal.getsignal(signal.SIGALRM)
    host = hostspeed.HostSpeed()
    with host:
        end = time.perf_counter() + 3.5 * hostspeed.REFERENCE_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert len(host.samples) >= 2
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    with host:  # shorter than one interval: one sample, taken right after
        pass
    assert len(host.samples) == 1 and host.mean() > 0


def test_prediction_map_names_declared_metrics_and_workloads():
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    names = {w["name"] for w in BENCHMARK["workloads"]}
    assert set(PREDICTIONS["layers"]) == per_layer
    assert set(PREDICTIONS["workloads"]) == names == set(workloads.WORKLOADS)
    for layer in PREDICTIONS["layers"].values():
        assert set(layer["moves"]) <= end_to_end
        assert set(layer["heavy_on"] + layer["light_on"] + layer["absent_on"]) <= names
    for stage in PREDICTIONS["roadmap_stages"].values():
        assert set(stage["metrics"]) <= per_layer | end_to_end
        assert stage["workload"] in names


def _tamper_pipeline(work, report):
    return dataclasses.replace(report, kept_edits=report.kept_edits + 1)


def _tamper_sweep(work, points):
    last = dataclasses.replace(points[-1], kept_edits=points[0].kept_edits - 1)
    return points[:-1] + [last]


def _tamper_oracle(work, out):
    """Flip the annotated category of the first edited record."""
    augment = work.lab.augment
    records = list(out.corpus.records)
    k = next(i for i, rec in enumerate(records) if rec.edits)
    flipped = next(c for c in augment.SampleCategory if c != records[k].categories[0])
    records[k] = augment.replace_categories(records[k], (flipped,))
    corpus = dataclasses.replace(out.corpus, records=tuple(records))
    return dataclasses.replace(out, corpus=corpus)


def _tamper_oracle_posterior(work, out):
    true = work.lab.augment.SampleCategory.TRUE
    k = next(i for i, rep in enumerate(out.reports) if rep.category == true)
    reports = list(out.reports)
    reports[k] = dataclasses.replace(reports[k], posterior=0.5)
    return dataclasses.replace(out, reports=reports)


def _tamper_cli(work, dirs):
    """Edit one token of the first JSONL record, on both sides so it still loads."""
    path = dirs["corpus"] / "corpus.jsonl"
    lines = path.read_text().splitlines()
    doc = json.loads(lines[0])
    pos = next(i for i in range(len(doc["clean"]))
               if all(e[0] != i for e in doc["edits"]))
    token = (doc["clean"][pos] + 1) % work.config.world.vocab_size
    doc["clean"][pos] = doc["corrupted"][pos] = token
    lines[0] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    return dirs


TAMPERS = [
    ("pipeline_cross", _tamper_pipeline),
    ("threshold_sweep", _tamper_sweep),
    ("oracle_exact", _tamper_oracle),
    ("oracle_exact", _tamper_oracle_posterior),
    ("cli_roundtrip", _tamper_cli),
]


@pytest.mark.parametrize("name,tamper", TAMPERS, ids=[t.__name__ for _, t in TAMPERS])
def test_tampered_output_fails_its_check(tmp_path, name, tamper):
    work = tiny_workload(tmp_path, name)
    out = work.iterate(0)
    try:
        assert work.check(out) == []
        assert work.check(tamper(work, out))
    finally:
        work.discard(out)


@pytest.mark.parametrize("name,tamper", TAMPERS, ids=[t.__name__ for _, t in TAMPERS])
def test_tampered_iteration_raises_fail_ratio(tmp_path, monkeypatch, name, tamper):
    cls = workloads.WORKLOADS[name]
    honest = cls.iterate

    def iterate(self, i):
        out = honest(self, i)
        return tamper(self, out) if i == 1 else out

    monkeypatch.setattr(cls, "iterate", iterate)
    details = tiny_run(tmp_path, name)
    assert details["fail_ratio"] > 0
    assert not details["result"]["correct"]
    assert details["result"]["failed"] == 1


def test_fingerprint_drift_counts_as_failure(tmp_path, monkeypatch):
    cls = workloads.ThresholdSweep
    honest = cls.fingerprint
    monkeypatch.setattr(cls, "fingerprint", lambda self, out: honest(self, out) + "x")
    first = tiny_run(tmp_path, "threshold_sweep")
    assert first["result"]["failed"] == 0
    monkeypatch.setattr(cls, "fingerprint", honest)
    second = tiny_run(tmp_path, "threshold_sweep")
    assert second["result"]["failed"] == second["result"]["attempted"]


def test_refuses_to_run_without_lab_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline_cross",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
