"""Every public top-level function of the package has a caller in the package.

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
    "brute_force_posterior": "the enumeration reference that posterior is tested against",
    "verify_ordering": "acceptance criterion 4 checks the confidence ordering with it",
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
