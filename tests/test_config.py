import json
import re

import pytest

from denoiselab.config import experiment_config_to_dict, load_experiment_config


@pytest.mark.parametrize("text,message", [
    ('{"world": {"vocab_size": "20"}}', ": world.vocab_size: expected int, got str"),
    ('{"dr_sentences": "many"}', ": dr_sentences: expected int, got str"),
    ('{"world": 5}', ": world: expected an object, got int"),
    ('{"corrector": {"window": 3}}', ": corrector.window: expected a list, got int"),
    ('{"corrector": {"window": [-1, "0"]}}', r": corrector.window\[1\]: expected int, got str"),
    ('{"length_range": [8, 12, 16]}', ": length_range: expected 2 items, got 3"),
    ('{"rate": true}', ": rate: expected float, got bool"),
    ('{"world": {"order": false}}', ": world.order: expected int, got bool"),
    ('{"filter": {"literal_ratio": 1}}', ": filter.literal_ratio: expected bool, got int"),
    ('{"world": {"rows": {"0": [1, "a"]}}}', r": world.rows.0\[1\]: expected float, got str"),
    ('[1, 2]', ": expected an object, got list"),
    ('{"world": {"vocab_size": 20,\n "seed": }', ":2: invalid JSON: Expecting value"),
    ('{"world": {"colour": 1}}', r": unknown WorldConfig keys: \['colour'\]"),
], ids=["string-int", "string-top-level", "section-not-object", "tuple-not-list",
        "tuple-item", "tuple-length", "bool-for-float", "bool-for-int", "int-for-bool",
        "nested-row", "top-not-object", "bad-json", "unknown-key"])
def test_bad_config_files_name_the_file_and_the_field(tmp_path, text, message):
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(str(path)) + message):
        load_experiment_config(path)


def test_valid_file_keeps_its_values(tmp_path):
    doc = {"world": {"vocab_size": 8, "weight_low": 1}, "corrector": {"window": [-1, 1]},
           "rate": 0.2, "length_range": [5, 9], "thresholds": [0.1, 1e-3]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    cfg = load_experiment_config(path)
    assert cfg.world.weight_low == 1 and isinstance(cfg.world.weight_low, int)
    assert cfg.corrector.window == (-1, 1) and cfg.length_range == (5, 9)
    assert experiment_config_to_dict(cfg)["thresholds"] == [0.1, 1e-3]
