"""Print every statement of ``src/denoiselab`` that no entry point executes.

The entry points are run in one process, traced with ``sys.settrace``:

- the CLI output matrix (:func:`output_matrix.commands`) on the tiny config of
  ``test_cli.py``, at world orders 1 and 2, then ``report`` on every output
  directory;
- one iteration of each perfbench workload at the sizes of perfbench's own
  tests, with its set-up, check and fingerprint.

A statement counts as executed when any line of it (of its header, for a
compound statement) runs.  ``raise`` statements and docstrings are left out:
an error path is entered by bad input, which no entry point above gives.
Each line of the output is ``path:line: source``; a statement listed here is
reached only from tests, or not at all::

    PYTHONPATH=src python tests/entry_lines.py

The lab is imported from ``PYTHONPATH``, so the same script checks any
checkout; it takes a few seconds.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH_DIR = ROOT / "perfbench"


def _tracer(prefix: str, executed: set):
    """A ``sys.settrace`` function adding (file, line) to ``executed`` for every line
    run in a file whose path starts with ``prefix``."""
    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None
    return trace


def _statement_lines(node: ast.AST) -> dict[int, range]:
    """Each statement's first line, with the lines that count as running it."""
    out = {}
    for child in ast.walk(node):
        if not isinstance(child, ast.stmt) or isinstance(child, ast.Raise):
            continue
        first = min([child.lineno, *(d.lineno for d in getattr(child, "decorator_list", ()))])
        body = getattr(child, "body", None)
        last = body[0].lineno - 1 if body else child.end_lineno
        out[first] = range(first, max(first, last) + 1)
    for scope in ast.walk(node):  # docstrings
        body = getattr(scope, "body", None)
        if (isinstance(scope, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            out.pop(body[0].lineno, None)
    return out


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_cli_matrix(tmp: Path, cli, output_matrix, configs: dict) -> None:
    for name, doc in configs.items():
        config = tmp / f"{name}.json"
        config.write_text(json.dumps(doc))
        out = tmp / name
        for call in output_matrix.commands(out):
            cli.main([*call, "--config", str(config), "--seed", "0"], standalone_mode=False)
        for directory in sorted({p.parent for p in out.rglob("manifest.json")}):
            cli.main(["report", "--out-dir", str(directory)], standalone_mode=False)


def _run_workloads(tmp: Path) -> None:
    sys.path.insert(0, str(BENCH_DIR))
    import workloads
    sizes = _load("perfbench_tests", BENCH_DIR / "tests" / "test_perfbench.py").TINY
    for name, workload in workloads.WORKLOADS.items():
        work = workload(workloads.load_lab(), 0, tmp / "bench", sizes)
        (tmp / "bench").mkdir(exist_ok=True)
        work.prepare()
        out = work.iterate(0)
        problems = work.check(out)
        if problems:
            raise SystemExit(f"{name}: {problems}")
        work.fingerprint(out)
        work.discard(out)


def main() -> int:
    spec = importlib.util.find_spec("denoiselab")
    if spec is None:
        raise SystemExit("denoiselab is not importable; set PYTHONPATH=src")
    package, executed = Path(spec.origin).parent, set()
    sys.settrace(_tracer(f"{package}/", executed))
    try:  # the imports run the modules' top-level statements, so they are traced too
        from denoiselab import cli
        import output_matrix
        from test_cli import ORDER_2_CONFIG, TINY_CONFIG
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            _run_cli_matrix(Path(tmp), cli, output_matrix,
                            {"order-1": TINY_CONFIG, "order-2": ORDER_2_CONFIG})
            _run_workloads(Path(tmp))
    finally:
        sys.settrace(None)
    missed = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for first, span in sorted(_statement_lines(ast.parse(source)).items()):
            if not any((str(path), n) in executed for n in span):
                print(f"{path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}:"
                      f"{first}: {lines[first - 1].strip()}")
                missed += 1
    print(f"{missed} statements not executed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
