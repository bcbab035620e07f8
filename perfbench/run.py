"""Benchmark of the denoiselab train-filter-retrain lab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the lab is imported from its ``src``
directory.  One process runs one workload as a single closed-loop client,
one iteration at a time, with BLAS/OpenMP pools pinned to one thread.

``--trace 0`` reports the end-to-end metrics: set-up time (median of set-ups
timed in fresh interpreters), the median iteration time and the peak resident
memory of the workload's process.  Both times are scaled to a nominal host
speed with a reference task timed inside each iteration and right after each
set-up (see ``hostspeed.py``), so that drift in the speed of a shared host
cancels; the unscaled wall times are kept in the run's JSON file.
``--trace 1`` alternates untraced and traced iterations on the same inputs and
reports the per-layer metrics of the traced ones, plus tracing overhead as the
traced minus the untraced median wall time per iteration.  Every iteration's
output is checked and fingerprinted; a failed check, an error or a fingerprint
that differs from an earlier one of the same code and input counts the
iteration as failed.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans, fingerprints and machine provenance are written under
``perfbench/out``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed, scaled

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_MIN_SAMPLES = 3   # set-ups timed in fresh interpreters: at least this many, and
SETUP_RATIO = 0.1       # enough that they take this share of the time iterations take
SETUP_REFERENCE_RUNS = 100  # reference tasks timed right after each set-up, in its interpreter
MIN_ITERATIONS = 3      # untraced run: enough for a median
MIN_TRACED_PAIRS = 2    # traced run: untraced/traced pairs on the same input


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


def _git_commit() -> str:
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, check=False)
            if proc.returncode == 0:
                return proc.stdout.strip()
        except OSError:
            pass
    return "unknown (not a git checkout)"


def source_hash() -> str:
    """Content hash of the lab's sources: identifies the code in any checkout."""
    h = hashlib.sha256()
    for path in sorted((SRC / "denoiselab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def provenance() -> dict:
    numpy = sys.modules.get("numpy")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__ if numpy else None,
        "git_commit": _git_commit(),
        "src_sha256": source_hash(),
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "page_cache": "warm: JSONL reads hit the page cache, which is never dropped",
    }


class FingerprintStore:
    """Fingerprints by code, workload and input, kept across runs in one checkout."""

    def __init__(self, path: Path, code: str, workload: str):
        self.path = path
        self.doc = json.loads(path.read_text()) if path.is_file() else {}
        self.known = self.doc.setdefault(code, {}).setdefault(workload, {})
        self.seen: dict[str, str] = {}

    def compare(self, key: str, fp: str) -> str | None:
        first = self.seen.setdefault(key, self.known.get(key, fp))
        self.known.setdefault(key, fp)
        if fp != first:
            return f"fingerprint {fp[:16]} differs from {first[:16]} for input {key}"
        return None

    def save(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.doc, indent=1, sort_keys=True))
        os.replace(tmp, self.path)


# Timed from a bare interpreter: the import of denoiselab with its dependencies
# (numpy, click) plus the workload's set-up; interpreter start-up is left out.
# The host's speed is sampled right after, in the same process: a set-up is too
# short for samples inside it, and numpy must not be imported before it.
_SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
paths, name, seed, work_dir, overrides, runs = json.loads(sys.argv[1])
sys.path[:0] = paths
from workloads import WORKLOADS, load_lab
WORKLOADS[name](load_lab(), seed, work_dir, overrides).prepare()
setup = time.perf_counter() - t0
from hostspeed import HostSpeed
host = HostSpeed()
for _ in range(runs):
    host.sample()
print(setup, host.mean())
"""


def time_setup(name: str, seed: int, work_dir: Path,
               overrides: dict | None) -> tuple[float, float]:
    """One set-up of workload ``name`` timed in a fresh interpreter, and the
    reference task's mean time there right after it."""
    arg = json.dumps([[str(BENCH_DIR), str(SRC)], name, seed, str(work_dir), overrides,
                      SETUP_REFERENCE_RUNS])
    proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD, arg], cwd=ROOT,
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up of {name} failed:\n{proc.stderr}")
    setup, reference = proc.stdout.strip().splitlines()[-1].split()
    return float(setup), float(reference)


def _rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _iterate(work, i, store, host, tracer=None):
    """One timed iteration plus its untimed check; returns a record of it."""
    gc.collect()
    record = {"i": i, "input": work.input_key(i), "traced": tracer is not None,
              "problems": [], "layers": None}
    out = None
    with contextlib.redirect_stdout(io.StringIO()):
        with host:
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = work.iterate(i)
                else:
                    tracer.install(work.lab)
                    try:
                        out, record["layers"] = tracer.run(i, lambda: work.iterate(i))
                    finally:
                        tracer.uninstall()
            except Exception:  # a failing lab call is a failed iteration, not a dead run
                record["problems"].append("iteration raised:\n" + traceback.format_exc())
            record["seconds"] = time.perf_counter() - t0
        record["reference_s"] = host.mean()
        record["scaled_s"] = scaled(record["seconds"], record["reference_s"])
        record["peak_rss_mb_after_iteration"] = _rss_mb()
        if out is not None:
            try:
                record["problems"] += work.check(out)
                fp = work.fingerprint(out)
                record["fingerprint"] = fp
                mismatch = store.compare(record["input"], fp)
                if mismatch:
                    record["problems"].append(mismatch)
            except Exception:
                record["problems"].append("check raised:\n" + traceback.format_exc())
            finally:
                work.discard(out)
    record["peak_rss_mb_after_check"] = _rss_mb()
    for problem in record["problems"][:3]:
        print(f"iteration {i} FAILED: {problem}", file=sys.stderr)
    return record


def _loop(seconds, min_rounds, one_round):
    """Run rounds until the next one would overrun ``seconds`` (at least ``min_rounds``)."""
    start = time.perf_counter()
    lengths = []
    while True:
        elapsed = time.perf_counter() - start
        if len(lengths) >= min_rounds and elapsed + statistics.median(lengths) > seconds:
            return
        t0 = time.perf_counter()
        one_round(len(lengths))
        lengths.append(time.perf_counter() - t0)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 out_dir: Path = OUT, overrides: dict | None = None) -> dict:
    """Set up and measure one workload; return the result object and its details."""
    from tracing import Tracer
    from workloads import WORKLOADS, load_lab

    work_dir = out_dir / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()
    work = WORKLOADS[name](load_lab(), seed, work_dir, overrides)
    work.prepare()
    host = HostSpeed()
    rss_after_setup = _rss_mb()

    store = FingerprintStore(out_dir / "fingerprints.json",
                             f"{source_hash()} numpy {sys.modules['numpy'].__version__}", name)
    records, setups = [], []
    tracer = Tracer() if trace else None
    if trace:
        def pair(i):
            records.append(_iterate(work, i, store, host))
            records.append(_iterate(work, i, store, host, tracer))
        _loop(seconds, MIN_TRACED_PAIRS, pair)
    else:
        iterating = sampling = 0.0

        def one(i):
            # Set-up is timed in child processes, so that neither its memory nor
            # a warm import in this process counts.  The samples are taken
            # between iterations, spread over the run, because CPU speed on a
            # shared host can drift within seconds: bunched together, they
            # would meet one state of the host and the iterations another.
            nonlocal iterating, sampling
            t0 = time.perf_counter()
            records.append(_iterate(work, i, store, host))
            iterating += time.perf_counter() - t0
            while len(setups) < SETUP_MIN_SAMPLES or sampling < SETUP_RATIO * iterating:
                t0 = time.perf_counter()
                setups.append(time_setup(name, seed, work_dir, overrides))
                sampling += time.perf_counter() - t0
        _loop(seconds, MIN_ITERATIONS, one)
    # One user task in a fresh process: set-up, the first iteration and its
    # check.  Later iterations only add the allocator's fragmentation, which
    # varies from run to run by up to 10 MB.
    peak_rss_mb = records[0]["peak_rss_mb_after_check"]
    store.save()

    failed = sum(1 for r in records if r["problems"])
    untraced = [r["seconds"] for r in records if not r["traced"]]
    units = declared_metrics(trace)
    if trace:
        traced = [r for r in records if r["traced"]]
        layers = [r["layers"] for r in traced if r["layers"] is not None]
        # With no traced iteration completed (all failed), layers read 0.
        values = {k: statistics.median(l[k] for l in layers) if layers else 0.0
                  for k in units if k != "trace.overhead_s"}
        values["trace.overhead_s"] = (statistics.median(r["seconds"] for r in traced)
                                      - statistics.median(untraced))
        tracer.write(out_dir / f"spans-{name}.npz")
    else:
        values = {"setup_s": statistics.median(scaled(*setup) for setup in setups),
                  "iter_s": statistics.median(r["scaled_s"] for r in records),
                  "peak_rss_mb": peak_rss_mb}
    if set(values) != set(units):
        raise RuntimeError(f"emitted metrics {sorted(values)} != declared {sorted(units)}")

    q1, _, q3 = statistics.quantiles(untraced, n=4)
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    prov = provenance()
    prov["loadavg_before"] = load_before
    prov["loadavg_after"] = os.getloadavg()
    fingerprints = {r["input"]: r["fingerprint"] for r in records if "fingerprint" in r}
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "lab_seeds": work.lab_seeds,
        "setup_s_each": [{"wall": w, "reference": r} for w, r in setups],
        "peak_rss_mb_phases": {"after_setup": rss_after_setup, "whole_run": _rss_mb(),
                               "peak_set_by": _peak_phase(rss_after_setup, records, peak_rss_mb)},
        "iter_s_untraced": {"median": statistics.median(untraced), "q1": q1, "q3": q3,
                            "n": len(untraced)},
        "fail_ratio": failed / len(records),
        "fingerprints": fingerprints,
        "provenance": prov,
        "iterations": [{k: v for k, v in r.items() if k != "layers"} for r in records],
        "result": result,
    }
    (out_dir / f"{name}-trace{int(trace)}.json").write_text(json.dumps(details, indent=1))
    return details


def _peak_phase(rss_after_setup: float, records: list, peak: float) -> str:
    """The phase in which this process's memory first reached ``peak``."""
    phases = [("setup", rss_after_setup)]
    for r in records:
        phases += [(f"iteration {r['i']}", r["peak_rss_mb_after_iteration"]),
                   (f"check of iteration {r['i']}", r["peak_rss_mb_after_check"])]
    return next(phase for phase, rss in phases if rss >= peak)


def _print_summary(details: dict) -> None:
    it = details["iter_s_untraced"]
    print(f"workload {details['workload']} seed {details['seed']} lab seeds {details['lab_seeds']}")
    print(f"  wall time per untraced iteration (not scaled): median {it['median']:.4f} s, "
          f"q1 {it['q1']:.4f} s, q3 {it['q3']:.4f} s, n {it['n']}")
    res = details["result"]
    print(f"  fail_ratio {details['fail_ratio']:.4f} ({res['failed']} of {res['attempted']})")
    if not details["trace"]:
        print(f"  setup_s samples {len(details['setup_s_each'])}, "
              f"peak memory set by {details['peak_rss_mb_phases']['peak_set_by']}")
    for key, fp in sorted(details["fingerprints"].items()):
        print(f"  fingerprint input {key}: {fp}")
    for name, m in res["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print("  provenance " + json.dumps(details["provenance"], sort_keys=True))


def _run_all(args) -> int:
    """Each workload in its own process, so each peak memory figure is its own."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for metric, m in res["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "denoiselab" / "__init__.py").is_file():
        print(f"no lab sources at {SRC}/denoiselab: run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)

    details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_summary(details)
    print(json.dumps(details["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
