"""Every public top-level function of the package has a caller in the package, and the
enumeration reference stays outside it.

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
