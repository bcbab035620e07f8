"""Every public top-level function of the package has a caller in the package, the
enumeration reference stays outside it, one module pads sentences for the exact kernel,
and one function smooths corrector rows.

A function that only tests keep alive is a second implementation of a rule
that lives elsewhere, or a capability nothing uses.  A name counts as called
when any module of the package reads it, as a name or as an attribute;
decorated functions are CLI commands, which click calls.
"""

import ast
from pathlib import Path

import denoiselab

# Public functions that no code of the package calls, and why each stays.
NO_CALLER_IN_PACKAGE = {
    "evaluate": "perfbench's oracle_exact workload scores the exact posterior with it",
    "oracle_filter": "perfbench's oracle_exact workload filters with it",
    "replace_categories": "perfbench's tamper test builds records with it",
}


def test_every_public_function_has_a_caller_in_the_package():
    defined, read = set(), set()
    for path in sorted(Path(denoiselab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {node.name for node in tree.body if isinstance(node, ast.FunctionDef)
                    and not node.name.startswith("_") and not node.decorator_list}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert sorted(defined - read) == sorted(NO_CALLER_IN_PACKAGE)


def test_the_enumeration_reference_imports_nothing_from_the_package():
    # The judge of the exact kernels shares no logic with them: it reads only the raw
    # fields of the world and table objects it is handed.
    tree = ast.parse((Path(__file__).parent / "enumeration.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]  # a relative import starts with "."
    assert modules and not [m for m in modules if m.split(".")[0] in ("denoiselab", "")]


def readers_of(name: str) -> set[str]:
    """``module.function`` (``module.<module>`` outside a function) of every top-level
    statement of the package that reads ``name``, as a name or as an attribute."""
    readers = set()
    for path in sorted(Path(denoiselab.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.Attribute) and node.attr == name):
                    readers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    return readers


def test_only_the_kernel_module_and_corpus_arrays_read_the_padded_layout():
    # world pads each block of queries for its own kernel; corpus_arrays keeps the padded
    # call that make_eval_corpus makes and the benchmark counts.  Any other reader of
    # _padded is a second block loop beside world.conditional_blocks.
    assert {r for r in readers_of("_padded") if not r.startswith("world.")} == {
        "augment.corpus_arrays"}


def test_only_the_signature_table_builds_smoothed_rows():
    # A row is a function of its signature id, so rows are smoothed once per distinct id,
    # in corrector._signature_rows.  Any other caller of _smoothed builds them per position.
    assert readers_of("_smoothed") == {"corrector._signature_rows"}
