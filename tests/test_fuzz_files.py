"""One odd JSON value in one leaf of one file the CLI reads: the command succeeds, or
stops with one ``Error: <path>...`` line naming that file (see ``fuzz_files``)."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fuzz_files

CONFIG_LEAVES = list(fuzz_files.leaves(fuzz_files.config_doc()))


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    ws = fuzz_files.Workspace(tmp_path_factory.mktemp("fuzz"))
    assert ws.leaves["config"] == CONFIG_LEAVES
    return ws


def config_case(path, value):
    """A case that once ended in a traceback: ``value`` at ``path`` of the config."""
    return example(target="config", pick=CONFIG_LEAVES.index(path), value=value)


@settings(max_examples=250, deadline=None)
@given(target=st.sampled_from(fuzz_files.TARGETS), pick=st.integers(min_value=0),
       value=st.sampled_from(fuzz_files.VALUES))
@config_case(("confusion", "candidates"), 2**63)
@config_case(("length_range", 1), 2**63)
@config_case(("do_sentences",), 2**63)
@config_case(("do_sentences",), 2**62)
@config_case(("length_range", 1), 2**31)
@config_case(("world", "initial"), [])
@config_case(("world", "rows"), {})
def test_one_odd_value_succeeds_or_names_the_file(workspace, target, pick, value):
    paths = workspace.leaves[target]
    found = fuzz_files.fault(workspace, target, paths[pick % len(paths)], value)
    assert found is None, found[1]
