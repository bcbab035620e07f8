"""Spans around calls into the lab's public functions, recorded from outside.

A traced iteration installs a wrapper on each function below wherever the
function is bound: in its own module and in every ``denoiselab`` module that
imported it by name.  Each call records a span (name, start, end, parent
span, iteration id) in flat in-memory arrays; self time, the span's duration
minus what its child spans cover, is summed per span name as calls return.
Uninstalling restores every original binding, so untraced iterations run the
lab exactly as shipped.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path


def _sample(t, args, tokens):
    t.counts["world.sample_tokens"] += sum(map(len, tokens))


def _generate(t, args, corpus):
    if args["annotate"]:
        t.counts["augment.annotated_edits"] += corpus.n_edits


def _corpus_arrays(t, args, _):
    corpus = args["corpus"]
    t.corpora[id(corpus)] = corpus  # held so ids stay distinct within the iteration


def _jsonl_write(t, args, _):
    t.counts["augment.jsonl_bytes"] += os.path.getsize(args["path"])


def _jsonl_read(t, args, corpus):
    t.counts["augment.jsonl_bytes"] += os.path.getsize(args["path"])
    t.counts["augment.records_read"] += len(corpus)


def _train(t, args, model):
    t.counts["corrector.train_positions"] += model.trained_chars


def _predict_at(t, args, rows):
    t.counts["corrector.predict_at_places"] += len(rows)


def _predict_matrix(t, args, result):
    t.counts["corrector.predict_matrix_positions"] += len(result[0])


def _calibration(t, args, report):
    t.counts["calibration.outcomes"] += report.n_outcomes + report.n_excluded
    t.counts["calibration.excluded"] += report.n_excluded


def _evaluate(t, args, _):
    t.counts["harness.evaluate_positions"] += args["corpus"].n_chars


def _filter(t, args, result):
    t.counts["pipeline.filter_edits"] += result.kept_edits + result.reverted_edits
    t.counts["pipeline.reverted"] += result.reverted_edits


# (module, function, span name, counter run on the call's bound arguments and result)
FUNCTIONS = (
    ("world", "sample_corpus_tokens", "world.sample", _sample),
    ("world", "conditional", "world.conditional", None),
    ("augment", "generate_corpus", "augment.generate", _generate),
    ("augment", "corpus_arrays", "augment.corpus_arrays", _corpus_arrays),
    ("augment", "corpus_digest", "augment.digest", None),
    ("augment", "corpus_to_jsonl", "augment.jsonl_write", _jsonl_write),
    ("augment", "corpus_from_jsonl", "augment.jsonl_read", _jsonl_read),
    ("oracle", "posterior", "oracle.posterior", None),
    ("oracle", "restoration_distribution", "oracle.restoration", None),
    ("corrector", "train", "corrector.train", _train),
    ("corrector", "predict_at", "corrector.predict_at", _predict_at),
    ("corrector", "predict_matrix", "corrector.predict_matrix", _predict_matrix),
    ("corrector", "save_model", "corrector.model_json", None),
    ("corrector", "load_model", "corrector.model_json", None),
    ("calibration", "calibration_report", "calibration.report", _calibration),
    ("harness", "evaluate", "harness.evaluate", _evaluate),
    ("harness", "category_filter_rates", "harness.category_rates", None),
    ("harness", "emit_report", "harness.emit_report", None),
    ("harness", "verify_manifest", "harness.verify_manifest", None),
    ("pipeline", "filter_corpus", "pipeline.filter", _filter),
    ("pipeline", "make_eval_corpus", "pipeline.make_eval", None),
    ("pipeline", "tv_to_oracle", "pipeline.tv", None),
    ("pipeline", "run_pipeline", "pipeline.orchestration", None),
    ("pipeline", "threshold_sweep", "pipeline.orchestration", None),
)

# CLI commands are click objects; their callbacks carry the command's own work.
COMMANDS = (
    ("gen-corpus", "cli.gen_corpus"),
    ("train", "cli.train"),
    ("score", "cli.score"),
    ("filter", "cli.filter"),
    ("eval", "cli.eval"),
)

ITERATION_SPAN = "iteration"


class Tracer:
    def __init__(self):
        self._names: dict[str, int] = {}
        self._name = array("i")
        self._parent = array("i")
        self._iteration = array("i")
        self._start = array("q")
        self._end = array("q")
        self._stack: list[list[int]] = []  # [span index, nanoseconds covered by children]
        self._undo: list[tuple[object, str, object]] = []
        self.iteration = -1
        self._reset()

    def _reset(self):
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.corpora: dict[int, object] = {}

    def _open(self, name: str) -> list[int]:
        idx = len(self._start)
        self._name.append(self._names.setdefault(name, len(self._names)))
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._iteration.append(self.iteration)
        self._start.append(0)
        self._end.append(0)
        frame = [idx, 0]
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list[int], start: int, end: int) -> None:
        self._stack.pop()
        idx, covered = frame
        self._start[idx] = start
        self._end[idx] = end
        duration = end - start
        self.self_ns[name] += duration - covered
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, name: str, fn, counter):
        signature = inspect.signature(fn) if counter is not None else None
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._open(name)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, start, now())
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
            return result

        return traced

    def install(self, lab) -> None:
        """Wrap every traced function in every loaded ``denoiselab`` module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "denoiselab" or n.startswith("denoiselab.")]
        for module, attr, name, counter in FUNCTIONS:
            original = getattr(getattr(lab, module), attr)
            wrapper = self._wrap(name, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for command, name in COMMANDS:
            cmd = lab.cli.main.commands[command]
            self._undo.append((cmd, "callback", cmd.callback))
            cmd.callback = self._wrap(name, cmd.callback, None)

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            setattr(holder, key, original)

    def run(self, iteration: int, fn):
        """Call ``fn`` as one traced iteration; return its result and layer values."""
        self.iteration = iteration
        self._reset()
        frame = self._open(ITERATION_SPAN)
        start = time.perf_counter_ns()
        try:
            result = fn()
        finally:
            self._close(ITERATION_SPAN, frame, start, time.perf_counter_ns())
        values = layer_values(self)
        self._reset()
        return result, values

    def write(self, path: Path) -> None:
        """Write every recorded span as parallel arrays in one ``.npz`` file."""
        import numpy as np

        names = sorted(self._names, key=self._names.get)
        np.savez(path, names=np.array(names),
                 name=np.frombuffer(self._name, dtype=np.int32),
                 parent=np.frombuffer(self._parent, dtype=np.int32),
                 iteration=np.frombuffer(self._iteration, dtype=np.int32),
                 start_ns=np.frombuffer(self._start, dtype=np.int64),
                 end_ns=np.frombuffer(self._end, dtype=np.int64))


def layer_values(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (``trace.overhead_s`` aside)."""
    def s(span):
        return t.self_ns.get(span, 0) / 1e9

    def share(part, whole):
        return part / whole if whole else 0.0

    n_arrays = t.calls.get("augment.corpus_arrays", 0)
    c = t.counts
    return {
        "world.sample_s": s("world.sample"),
        "world.sample_tokens": c["world.sample_tokens"],
        "world.conditional_calls": t.calls["world.conditional"],
        "world.conditional_s": s("world.conditional"),
        "augment.generate_s": s("augment.generate"),
        "augment.generate_calls": t.calls["augment.generate"],
        "augment.annotated_edits": c["augment.annotated_edits"],
        "augment.corpus_arrays_s": s("augment.corpus_arrays"),
        "augment.corpus_arrays_calls": n_arrays,
        "augment.corpus_arrays_reuse": share(n_arrays, len(t.corpora)),
        "augment.digest_s": s("augment.digest"),
        "augment.digest_calls": t.calls["augment.digest"],
        "augment.jsonl_write_s": s("augment.jsonl_write"),
        "augment.jsonl_read_s": s("augment.jsonl_read"),
        "augment.jsonl_bytes": c["augment.jsonl_bytes"],
        "augment.records_read": c["augment.records_read"],
        "oracle.posterior_calls": t.calls["oracle.posterior"],
        "oracle.posterior_s": s("oracle.posterior"),
        "oracle.restoration_calls": t.calls["oracle.restoration"],
        "oracle.restoration_s": s("oracle.restoration"),
        "corrector.train_calls": t.calls["corrector.train"],
        "corrector.train_s": s("corrector.train"),
        "corrector.train_positions": c["corrector.train_positions"],
        "corrector.predict_at_s": s("corrector.predict_at"),
        "corrector.predict_at_places": c["corrector.predict_at_places"],
        "corrector.predict_matrix_s": s("corrector.predict_matrix"),
        "corrector.predict_matrix_positions": c["corrector.predict_matrix_positions"],
        "corrector.model_json_s": s("corrector.model_json"),
        "calibration.report_s": s("calibration.report"),
        "calibration.outcomes": c["calibration.outcomes"],
        "calibration.excluded_share": share(c["calibration.excluded"], c["calibration.outcomes"]),
        "harness.evaluate_s": s("harness.evaluate"),
        "harness.evaluate_positions": c["harness.evaluate_positions"],
        "harness.category_rates_s": s("harness.category_rates"),
        "harness.emit_report_s": s("harness.emit_report"),
        "harness.verify_manifest_s": s("harness.verify_manifest"),
        "pipeline.filter_s": s("pipeline.filter"),
        "pipeline.filter_edits": c["pipeline.filter_edits"],
        "pipeline.revert_share": share(c["pipeline.reverted"], c["pipeline.filter_edits"]),
        "pipeline.make_eval_s": s("pipeline.make_eval"),
        "pipeline.tv_s": s("pipeline.tv"),
        "pipeline.orchestration_s": s("pipeline.orchestration"),
        "cli.gen_corpus_s": s("cli.gen_corpus"),
        "cli.train_s": s("cli.train"),
        "cli.score_s": s("cli.score"),
        "cli.filter_s": s("cli.filter"),
        "cli.eval_s": s("cli.eval"),
    }
