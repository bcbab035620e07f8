import dataclasses
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from denoiselab._jsonfile import typed
from denoiselab.config import load_experiment_config
from denoiselab.harness import config_hash
from denoiselab.pipeline import ExperimentConfig


@pytest.mark.parametrize("text,message", [
    ('{"world": {"vocab_size": "20"}}', ": world.vocab_size: expected int, got str"),
    ('{"dr_sentences": "many"}', ": dr_sentences: expected int, got str"),
    ('{"world": 5}', ": world: expected an object, got int"),
    ('{"corrector": {"window": 3}}', ": corrector.window: expected a list, got int"),
    ('{"corrector": {"window": [-1, "0"]}}', r": corrector.window\[1\]: expected int, got str"),
    ('{"length_range": [8, 12, 16]}', ": length_range: expected 2 items, got 3"),
    ('{"rate": true}', ": rate: expected float, got bool"),
    ('{"world": {"order": false}}', ": world.order: expected int, got bool"),
    ('{"world": {"rows": {"0": [1, "a"]}}}', r": world.rows.0\[1\]: expected float, got str"),
    ('[1, 2]', ": expected an object, got list"),
    ('{"world": {"vocab_size": 20,\n "seed": }', ":2: invalid JSON: Expecting value"),
    ('{"world": {"colour": 1}}', r": unknown WorldConfig keys: \['colour'\]"),
    ('{"filter": {"lambda_m": 0.8}}', r": unknown FilterConfig keys: \['lambda_m'\]"),
    ('{"filter": {"lambda_n": 0.9}}', r": unknown FilterConfig keys: \['lambda_n'\]"),
    ('{"filter": {"literal_ratio": false}}', r": unknown FilterConfig keys: \['literal_ratio'\]"),
    ('{"world": {"seed": 3}}', r": unknown WorldConfig keys: \['seed'\]"),
    ('{"confusion": {"seed": 3}}', r": unknown ConfusionConfig keys: \['seed'\]"),
    ('{"confusion": {"mode": "long_tailed"}}', r": unknown ConfusionConfig keys: \['mode'\]"),
    ('{"rate": 1.5}', r": rate: must be in \(0, 1\), got 1.5"),
    ('{"rate": -0.2}', r": rate: must be in \(0, 1\), got -0.2"),
    ('{"eval_sentences": 0}', ": eval_sentences: must be at least 1, got 0"),
    ('{"length_range": [9, 3]}', r": length_range: needs 1 <= lo <= hi, got \[9, 3\]"),
    ('{"length_range": [0, 3]}', r": length_range: needs 1 <= lo <= hi, got \[0, 3\]"),
    ('{"eval_clean_fraction": 1.0}', r": eval_clean_fraction: must be in \[0, 1\), got 1.0"),
    ('{"eval_plausibility": -3}', ": eval_plausibility: must be >= 0, got -3"),
    ('{"eval_plausibility": NaN}', ": eval_plausibility: expected a finite number, got nan"),
    ('{"eval_plausibility": Infinity}', ": eval_plausibility: expected a finite number, got inf"),
    ('{"thresholds": [0.1, -Infinity]}', r": thresholds\[1\]: expected a finite number, got -inf"),
    ('{"thresholds": []}', ": thresholds: must not be empty"),
    ('{"thresholds": [0.1, 1.5]}', r": thresholds: 1.5 outside \(0, 1\)"),
    ('{"volume_sizes": []}', ": volume_sizes: must not be empty"),
    ('{"volume_sizes": [0, 10]}', r": volume_sizes: must be positive, got \[0, 10\]"),
    ('{"volume_sizes": [1000, 10]}', r": volume_sizes: must be ascending, got \[1000, 10\]"),
    ('{"corrector": {"alpha": -1}}', ": corrector: alpha must be positive and finite, got -1"),
    ('{"corrector": {"alpha": 0}}', ": corrector: alpha must be positive and finite, got 0"),
    ('{"corrector": {"alpha": 1%s}}' % ("0" * 400),
     ": corrector.alpha: expected an int64 integer, got 1%s$" % ("0" * 400)),
    ('{"world": {"support": 0}}', r": world: support must be in \[1, 20\], got 0"),
    ('{"world": {"vocab_size": 1}}', ": world: vocab_size must be at least 2, got 1"),
    ('{"world": {"order": 0}}', ": world: order must be at least 1, got 0"),
    ('{"world": {"weight_low": 0}}',
     r": world: weight band must satisfy 0 < weight_low <= weight_high < inf, got \[0, 1.0\]"),
    ('{"world": {"weight_low": 1e308, "weight_high": 1.7e308}}',
     r": world: vocab_size \* weight_high must be finite, got 20 \* 1.7e\+308"),
    ('{"world": {"weight_high": 1%s}}' % ("0" * 400),
     ": world.weight_high: expected an int64 integer, got 1%s$" % ("0" * 400)),
    ('{"world": {"order": 4}}',
     r": world: vocab_size\*\*order = 20\*\*4 exceeds context budget 10000"),
    ('{"world": {"order": 2}}', r": confusion.context_affinity must be 0 in an order-2 world "
     r"\(affine candidates need order 1\), got 0.6"),
    ('{"confusion": {"candidates": 0}}', ": confusion: candidates must be at least 1, got 0"),
    ('{"confusion": {"candidates": 25}}',
     ": confusion.candidates must be below the world's vocab_size 20, got 25"),
    ('{"confusion": {"candidates": 2147483648}}',
     ": confusion.candidates must be below the world's vocab_size 20, got 2147483648"),
    ('{"confusion": {"candidates": 9223372036854775808}}',
     ": confusion.candidates: expected an int64 integer, got 9223372036854775808"),
    ('{"length_range": [5, 9223372036854775808]}',
     r": length_range\[1\]: expected an int64 integer, got 9223372036854775808"),
    ('{"do_sentences": 4611686018427387904}', ": do_sentences: 4611686018427387904 sentences "
     "of up to 16 tokens pass the budget of 16777216 tokens per corpus"),
    ('{"length_range": [8, 2147483648]}',
     ": dr_sentences: 40000 sentences of up to 2147483648 tokens pass the budget"),
    ('{"length_range": [8, 100000], "dr_sentences": 1, "do_sentences": 1, "eval_sentences": 1}',
     ": length_range: 200 sentences of up to 100000 tokens pass the budget"),
    ('{"volume_sizes": [1000, 4611686018427387904]}',
     r": volume_sizes: \d+ sentences of up to 16 tokens pass the budget"),
    ('{"world": {"initial": []}}', r": world: initial: expected length 20, got \(0,\)"),
    ('{"world": {"rows": {}}}', ": world: explicit rows require an explicit initial vector"),
    ('{"confusion": {"head_mass": 0.1}}',
     r": confusion: head_mass must lie in \(1/3, 1\), got 0.1"),
    ('{"confusion": {"candidates": 1, "head_mass": 0.1}}',
     ": confusion.head_mass: unused with 1 candidate"),
    ('{"confusion": {"context_affinity": -3}}',
     r": confusion: context_affinity must be in \[0, 1\], got -3"),
    ('{"corrector": {"window": []}}', ": corrector: window needs at least one offset"),
    ('{"corrector": {"window": [-3, -2, -1, 0, 1, 2]}}',
     r": corrector.window: 6 offsets over 20 tokens are too large for a dense count table "
     r"\(1715322420 > 50000000\)"),
    ('{"filter": {"threshold": 1.0}}', r": filter: threshold must be in \(0, 1\)$"),
    ('{"filter": {"filter_source": "oracle"}}',
     r": filter: filter_source must be one of \('cross', 'self', 'heuristic', 'none', 'mixing'\)$"),
], ids=["string-int", "string-top-level", "section-not-object", "tuple-not-list",
        "tuple-item", "tuple-length", "bool-for-float", "bool-for-int",
        "nested-row", "top-not-object", "bad-json", "unknown-key", "removed-lambda-m",
        "removed-lambda-n", "removed-literal-ratio", "world-seed", "confusion-seed", "confusion-mode", "rate-above-one", "rate-negative",
        "no-sentences", "length-range-reversed", "length-range-zero", "all-clean-eval",
        "negative-plausibility", "nan-plausibility", "infinite-plausibility",
        "threshold-minus-infinity", "no-thresholds", "threshold-above-one",
        "no-volume-sizes", "volume-size-zero", "volume-sizes-descending",
        "corrector-alpha-negative", "corrector-alpha-zero", "corrector-alpha-beyond-float",
        "world-support-zero", "world-vocab-one", "world-order-zero", "world-weight-low-zero",
        "world-weight-sum-overflows", "world-weight-high-beyond-float",
        "world-order-over-budget", "world-order-two-with-affinity", "confusion-candidates-zero",
        "confusion-candidates-over-vocab", "confusion-candidates-2-to-31",
        "confusion-candidates-beyond-int64", "length-range-beyond-int64",
        "do-sentences-over-token-budget", "length-range-over-token-budget",
        "length-range-over-token-budget-of-the-tv-corpus", "volume-size-over-token-budget",
        "world-initial-empty", "world-rows-without-initial", "confusion-head-mass-low",
        "confusion-head-mass-one-candidate",
        "confusion-affinity-negative", "corrector-window-empty",
        "corrector-window-six-offsets", "filter-threshold-one", "filter-source-unknown"])
def test_bad_config_files_name_the_file_and_the_field(tmp_path, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(path)) + message):
        load_experiment_config(path)


def _lists_for_tuples(node):
    """``node`` with every tuple made a list, at any depth."""
    if isinstance(node, dict):
        return {key: _lists_for_tuples(value) for key, value in node.items()}
    return list(node) if isinstance(node, tuple) else node


def test_valid_file_keeps_its_values(tmp_path):
    doc = {"world": {"vocab_size": 8, "weight_low": 1}, "corrector": {"window": [-1, 1]},
           "rate": 0.2, "length_range": [5, 9], "thresholds": [0.1, 1e-3]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    cfg = load_experiment_config(path)
    assert cfg.world.weight_low == 1 and isinstance(cfg.world.weight_low, int)
    assert cfg.corrector.window == (-1, 1) and cfg.length_range == (5, 9)
    assert cfg.thresholds == (0.1, 1e-3)
    # The manifest hashes the config's dataclass form, where JSON writes a tuple as a list.
    stamped = dataclasses.asdict(cfg)
    assert isinstance(stamped["thresholds"], tuple)
    assert config_hash(stamped) == config_hash(_lists_for_tuples(stamped))


def test_a_file_of_the_whole_default_config_loads_as_that_config(tmp_path):
    path = tmp_path / "config.json"
    stamped = dataclasses.asdict(ExperimentConfig())
    path.write_text(json.dumps(stamped))
    cfg = load_experiment_config(path)
    assert cfg == ExperimentConfig()
    assert config_hash(dataclasses.asdict(cfg)) == config_hash(stamped)


def test_a_partial_section_keeps_the_default_experiments_other_fields(tmp_path):
    path = tmp_path / "config.json"
    path.write_text('{"world": {"vocab_size": 12}, "confusion": {"candidates": 2}}')
    cfg = load_experiment_config(path)
    default = ExperimentConfig()
    assert cfg.world == dataclasses.replace(default.world, vocab_size=12)
    assert cfg.confusion == dataclasses.replace(default.confusion, candidates=2)
    assert cfg.corrector == default.corrector and cfg.filter == default.filter


NUMBERS = st.integers(-2**64, 2**64)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from((int, float)),
       st.lists(NUMBERS) | st.lists(st.floats()) | st.lists(NUMBERS | st.floats())
       | st.lists(NUMBERS | st.floats() | st.booleans() | st.none() | st.text(max_size=1)))
def test_a_list_of_numbers_reads_as_its_items_do(kind, items):
    """The checker's whole-list check of a ``list[int]`` or ``list[float]`` field gives
    what reading each item on its own gives: the same items, or the first bad one's error."""
    try:
        want = [typed(f"row[{k}]", v, kind) for k, v in enumerate(items)]
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            typed("row", items, list[kind])
        return
    got = typed("row", items, list[kind])
    assert got == want and list(map(type, got)) == list(map(type, want))
