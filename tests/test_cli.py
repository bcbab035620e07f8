import dataclasses
import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

import output_matrix
from denoiselab.cli import main
from denoiselab.config import experiment_config_from_dict
from denoiselab.harness import config_hash, sha256_file
from denoiselab.pipeline import build_experiment_world, run_pipeline

TINY_CONFIG = {
    "world": {"vocab_size": 8, "support": 3, "weight_low": 0.05, "weight_high": 1.0},
    "confusion": {"candidates": 2, "head_mass": 0.8, "context_affinity": 0.6},
    "dr_sentences": 500,
    "do_sentences": 400,
    "eval_sentences": 200,
    "length_range": [5, 9],
    "volume_sizes": [400, 1500],
}
# The same on an order-2 world; context affinity needs an order-1 world.
ORDER_2_CONFIG = {**TINY_CONFIG, "world": {**TINY_CONFIG["world"], "order": 2},
                  "confusion": {**TINY_CONFIG["confusion"], "context_affinity": 0.0}}


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TINY_CONFIG))
    return str(path)


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def dir_hashes(path):
    return {p.name: sha256_file(p) for p in sorted(Path(path).iterdir())
            if p.is_file()}


class TestGenCommands:
    def test_gen_world(self, runner, config_path, tmp_path):
        out = tmp_path / "w"
        run_ok(runner, ["gen-world", "--config", config_path, "--seed", "3",
                        "--out-dir", str(out)])
        assert (out / "world.json").exists()
        assert (out / "manifest.json").exists()

    def test_gen_corpus_and_manifest(self, runner, config_path, tmp_path):
        out = tmp_path / "c"
        run_ok(runner, ["gen-corpus", "--config", config_path, "--seed", "1",
                        "--out-dir", str(out), "--mode", "single_edit"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["meta"]["mode"] == "single_edit"
        assert (out / "corpus.jsonl").exists()
        run_ok(runner, ["report", "--out-dir", str(out)])


class TestModelCommands:
    def test_train_score_filter_eval_chain(self, runner, config_path, tmp_path):
        corpus_dir = tmp_path / "corpus"
        run_ok(runner, ["gen-corpus", "--config", config_path, "--seed", "2",
                        "--out-dir", str(corpus_dir)])
        model_dir = tmp_path / "model"
        run_ok(runner, ["train", "--config", config_path, "--seed", "2",
                        "--corpus-dir", str(corpus_dir), "--out-dir", str(model_dir)])
        model_path = model_dir / "model.json"

        score_dir = tmp_path / "scores"
        run_ok(runner, ["score", "--config", config_path, "--seed", "2",
                        "--model", str(model_path), "--corpus-dir", str(corpus_dir),
                        "--out-dir", str(score_dir)])
        lines = (score_dir / "scores.jsonl").read_text().strip().splitlines()
        docs = [json.loads(x) for x in lines]
        assert all(0.0 <= d["confidence"] <= 1.0 for d in docs)

        filter_dir = tmp_path / "filtered"
        run_ok(runner, ["filter", "--config", config_path, "--seed", "2",
                        "--model", str(model_path), "--corpus-dir", str(corpus_dir),
                        "--threshold", "0.2", "--out-dir", str(filter_dir)])
        manifest = json.loads((filter_dir / "manifest.json").read_text())
        assert manifest["meta"]["kept"] + manifest["meta"]["reverted"] == len(docs)

        eval_dir = tmp_path / "eval"
        run_ok(runner, ["eval", "--config", config_path, "--seed", "2",
                        "--model", str(model_path), "--corpus-dir", str(corpus_dir),
                        "--out-dir", str(eval_dir)])
        assert (eval_dir / "metrics.csv").exists()
        run_ok(runner, ["report", "--out-dir", str(eval_dir)])

    def test_train_rejects_a_corpus_dir_failing_its_manifest(self, runner, config_path,
                                                             tmp_path):
        corpus_dir = tmp_path / "corpus"
        run_ok(runner, ["gen-corpus", "--config", config_path, "--seed", "3",
                        "--out-dir", str(corpus_dir), "--sentences", "30"])
        path = corpus_dir / "corpus.jsonl"
        lines = path.read_text().splitlines()
        doc = json.loads(lines[0])
        # One unedited token changed on both sides keeps the line a valid record.
        j = next(j for j in range(len(doc["clean"]))
                 if doc["clean"][j] == doc["corrupted"][j])
        doc["clean"][j] = doc["corrupted"][j] = (doc["clean"][j] + 1) % 8
        lines[0] = json.dumps(doc)
        path.write_text("\n".join(lines) + "\n")
        result = runner.invoke(main, ["train", "--config", config_path,
                                      "--corpus-dir", str(corpus_dir),
                                      "--out-dir", str(tmp_path / "model")])
        assert result.exit_code != 0
        assert "manifest hash mismatch for corpus.jsonl" in result.output
        assert not (tmp_path / "model" / "model.json").exists()

    def test_score_with_oracle_posteriors(self, runner, config_path, tmp_path):
        corpus_dir = tmp_path / "corpus"
        run_ok(runner, ["gen-corpus", "--config", config_path, "--seed", "4",
                        "--out-dir", str(corpus_dir), "--mode", "single_edit",
                        "--sentences", "80"])
        model_dir = tmp_path / "model"
        run_ok(runner, ["train", "--config", config_path, "--seed", "4",
                        "--corpus-dir", str(corpus_dir), "--out-dir", str(model_dir)])
        score_dir = tmp_path / "scores"
        run_ok(runner, ["score", "--config", config_path, "--seed", "4",
                        "--model", str(model_dir / "model.json"),
                        "--corpus-dir", str(corpus_dir),
                        "--out-dir", str(score_dir), "--oracle"])
        docs = [json.loads(x) for x in
                (score_dir / "scores.jsonl").read_text().strip().splitlines()]
        assert all("oracle_posterior" in d and "category" in d for d in docs)


class TestScoresFile:
    @pytest.mark.parametrize("oracle", ["--no-oracle", "--oracle"])
    def test_every_line_is_json_dumps_of_its_object(self, runner, config_path, tmp_path,
                                                    oracle):
        corpus_dir = tmp_path / "corpus"
        run_ok(runner, ["gen-corpus", "--config", config_path, "--out-dir", str(corpus_dir),
                        "--sentences", "120"])
        run_ok(runner, ["train", "--config", config_path, "--corpus-dir", str(corpus_dir),
                        "--out-dir", str(tmp_path / "model")])
        run_ok(runner, ["score", "--config", config_path, "--corpus-dir", str(corpus_dir),
                        "--model", str(tmp_path / "model" / "model.json"),
                        "--out-dir", str(tmp_path / "scores"), oracle])
        lines = (tmp_path / "scores" / "scores.jsonl").read_text().splitlines(keepends=True)
        docs = [json.loads(line) for line in lines]
        assert lines and [json.dumps(doc) + "\n" for doc in docs] == lines
        with_oracle = ["oracle_posterior" in doc for doc in docs]
        if oracle == "--oracle":  # single-edit records carry the oracle fields, others not
            assert any(with_oracle) and not all(with_oracle)
        else:
            assert not any(with_oracle)


def signed(meta: dict) -> str:
    """A corpus directory's manifest text with no files, holding ``meta`` and its digest."""
    return json.dumps({"files": {}, "meta": meta, "meta_sha256": config_hash(meta)})


class TestBadInputs:
    """A bad input file or option ends in click's one-line error, not a traceback."""

    def assert_usage_error(self, result, *fragments):
        assert result.exit_code != 0
        assert isinstance(result.exception, SystemExit), result.exception  # no traceback
        assert "Traceback" not in result.output
        assert "Error: " in result.output
        for fragment in fragments:
            assert fragment in result.output

    def corpus_and_model(self, runner, config_path, tmp_path):
        corpus_dir = tmp_path / "corpus"
        run_ok(runner, ["gen-corpus", "--config", config_path, "--out-dir", str(corpus_dir),
                        "--sentences", "30"])
        run_ok(runner, ["train", "--config", config_path, "--corpus-dir", str(corpus_dir),
                        "--out-dir", str(tmp_path / "model")])
        return corpus_dir, tmp_path / "model" / "model.json"

    def test_bad_config_file_names_the_file_and_the_field(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"rate": 1.5}')
        result = runner.invoke(main, ["pipeline", "--config", str(path),
                                      "--out-dir", str(tmp_path / "out")])
        self.assert_usage_error(result, "bad.json: rate: must be in (0, 1), got 1.5")

    @pytest.mark.parametrize("command,doc,message", [
        ("gen-world", {"world": {"support": 0}}, "world: support must be in [1, 20], got 0"),
        ("gen-corpus", {"confusion": {"candidates": 25}},
         "confusion.candidates must be below the world's vocab_size 20, got 25"),
        ("gen-corpus", {"confusion": {"candidates": 2**31}},
         "confusion.candidates must be below the world's vocab_size 20, got 2147483648"),
        ("gen-world", {"world": {"initial": []}}, "world: initial: expected length 20, got (0,)"),
        ("gen-corpus", {"world": {"rows": {}}},
         "world: explicit rows require an explicit initial vector"),
    ], ids=["gen-world-support", "gen-corpus-candidates", "gen-corpus-candidates-2-to-31",
            "gen-world-initial-empty", "gen-corpus-rows-without-initial"])
    def test_bad_world_or_confusion_setting_is_one_line(self, runner, tmp_path, command, doc,
                                                        message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, [command, "--config", str(path),
                                      "--out-dir", str(tmp_path / "out")])
        self.assert_usage_error(result)
        assert result.output == f"Error: {path}: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_model_file_missing_a_field_names_the_file_and_the_field(self, runner, config_path,
                                                                     tmp_path):
        corpus_dir, _ = self.corpus_and_model(runner, config_path, tmp_path)
        model = tmp_path / "m.json"
        model.write_text("{}")
        result = runner.invoke(main, ["eval", "--config", config_path, "--model", str(model),
                                      "--corpus-dir", str(corpus_dir),
                                      "--out-dir", str(tmp_path / "eval")])
        self.assert_usage_error(result, "m.json: missing field 'vocab_size'")

    def test_corpus_dir_without_manifest_is_named(self, runner, config_path, tmp_path):
        empty = tmp_path / "not-a-corpus"
        empty.mkdir()
        result = runner.invoke(main, ["train", "--config", config_path,
                                      "--corpus-dir", str(empty),
                                      "--out-dir", str(tmp_path / "model")])
        self.assert_usage_error(result, "not-a-corpus: no manifest.json")

    @pytest.mark.parametrize("text,fragment", [
        ('{"files": ', ":1: invalid JSON: Expecting value"),
        ('{"meta": {"vocab_size": 8, "rate": 0.1, "mode": "iid"}}', ": missing field 'files'"),
        ('{"files": {}}', ": missing field 'meta'"),
        ('{"files": {}, "meta": []}', ": meta: expected an object, got list"),
        ('{"files": {}, "meta": {"rate": 0.1, "mode": "iid"}}',
         ": missing field 'meta.vocab_size'"),
        ("[]", ": expected a JSON object"),
        ('{"files": {}, "meta": {"vocab_size": 8, "rate": "x", "mode": "iid"}}',
         ": meta.rate: expected float, got str"),
        (signed({"vocab_size": 8, "rate": 1.5, "mode": "iid"}),
         ": meta 'rate' must be a number in (0, 1), got 1.5"),
        ('{"files": {}, "meta": {"vocab_size": 8, "rate": true, "mode": "iid"}}',
         ": meta.rate: expected float, got bool"),
        ('{"files": {}, "meta": {"vocab_size": 8, "rate": NaN, "mode": "iid"}}',
         ": meta.rate: expected a finite number, got nan"),
        (signed({"vocab_size": 8, "rate": 0, "mode": "iid"}),
         ": meta 'rate' must be a number in (0, 1), got 0"),
        (signed({"vocab_size": 30, "rate": 0.1, "mode": "iid"}),
         ": meta 'vocab_size' must be world.json's 8 and confusion.json's 8, got 30"),
        ('{"files": {}, "meta": {"vocab_size": "8", "rate": 0.1, "mode": "iid"}}',
         ": meta.vocab_size: expected int, got str"),
        (signed({"vocab_size": 8, "rate": 0.1, "mode": "both"}),
         ": meta 'mode' must be iid or single_edit, got 'both'"),
        ('{"files": {}, "meta": {"vocab_size": 8, "rate": 0.1, "mode": 1}}',
         ": meta.mode: expected str, got int"),
        ('{"files": {}, "meta": {"vocab_size": 8, "rate": 0.1, "mode": "iid"}}',
         ": missing field 'meta_sha256'"),
    ], ids=["truncated", "no-files", "no-meta", "meta-list", "meta-without-vocab-size",
            "not-an-object", "rate-string", "rate-above-one", "rate-bool", "rate-nan",
            "rate-zero", "vocab-size-not-the-worlds", "vocab-size-string", "mode-unknown",
            "mode-int", "meta-without-digest"])
    def test_malformed_corpus_dir_manifest_is_named(self, runner, config_path, tmp_path,
                                                    text, fragment):
        corpus_dir, _ = self.corpus_and_model(runner, config_path, tmp_path)
        (corpus_dir / "manifest.json").write_text(text)
        result = runner.invoke(main, ["train", "--config", config_path,
                                      "--corpus-dir", str(corpus_dir),
                                      "--out-dir", str(tmp_path / "model-bad")])
        self.assert_usage_error(result, f"{corpus_dir / 'manifest.json'}{fragment}")

    @pytest.mark.parametrize("text,fragment", [
        (None, ": no manifest.json"),
        ('{"files": ', ":1: invalid JSON: Expecting value"),
        ('{"files": ["metrics.csv"]}', ": files: expected an object, got list"),
        ('{"files": {"metrics.csv": 0}}', ": files.metrics.csv: expected str, got int"),
        ('{"files": {"../metrics.csv": "0"}}',
         ": 'files' must map plain file names to digests, got '../metrics.csv'"),
        ('{"files": {}, "meta": {"kept": 1}, "meta_sha256": "0"}',
         ": 'meta' differs from its digest 'meta_sha256'"),
    ], ids=["missing", "truncated", "files-list", "digest-int", "parent-dir-name",
            "meta-digest-mismatch"])
    def test_report_on_a_bad_manifest_is_named(self, runner, tmp_path, text, fragment):
        out = tmp_path / "run"
        out.mkdir()
        if text is not None:
            (out / "manifest.json").write_text(text)
        result = runner.invoke(main, ["report", "--out-dir", str(out)])
        named = out if text is None else out / "manifest.json"
        self.assert_usage_error(result, f"{named}{fragment}")

    def test_model_file_with_a_wrong_typed_field_names_the_file_and_the_field(
            self, runner, config_path, tmp_path):
        corpus_dir, model_path = self.corpus_and_model(runner, config_path, tmp_path)
        doc = json.loads(model_path.read_text())
        doc["counts"] = 5
        model = tmp_path / "m.json"
        model.write_text(json.dumps(doc))
        result = runner.invoke(main, ["eval", "--config", config_path, "--model", str(model),
                                      "--corpus-dir", str(corpus_dir),
                                      "--out-dir", str(tmp_path / "eval")])
        self.assert_usage_error(result, "m.json: counts: expected an object, got int")

    @pytest.mark.parametrize("command", ["score", "filter", "eval"])
    def test_model_for_another_vocabulary_names_the_file_and_both_sizes(
            self, runner, config_path, tmp_path, command):
        corpus_dir, model_path = self.corpus_and_model(runner, config_path, tmp_path)
        wider = tmp_path / "v10.json"
        wider.write_text(json.dumps({**TINY_CONFIG,
                                     "world": {**TINY_CONFIG["world"], "vocab_size": 10}}))
        run_ok(runner, ["gen-corpus", "--config", str(wider), "--sentences", "30",
                        "--out-dir", str(tmp_path / "corpus-v10")])
        result = runner.invoke(main, [command, "--config", config_path,
                                      "--model", str(model_path),
                                      "--corpus-dir", str(tmp_path / "corpus-v10"),
                                      "--out-dir", str(tmp_path / "out")])
        self.assert_usage_error(
            result, f"{model_path}: model vocab_size 8 differs from the corpus's 10")

    @pytest.mark.parametrize("name,line,break_it,message", [
        ("corpus.jsonl", 2, lambda doc: doc.pop("edits"), "corpus.jsonl:2: missing field 'edits'"),
        ("confusion.json", 1, lambda doc: doc["weights"][0].__setitem__(0, 0.9),
         "confusion.json: weight row 0 does not sum to 1"),
        ("confusion.json", 1, lambda doc: doc["weights"].__setitem__(0, [1.5, -0.5]),
         "confusion.json: weight row 0 has entries outside [0, 1]"),
        ("corpus.jsonl", 2, lambda doc: doc["clean"].__setitem__(0, 10**20),
         "corpus.jsonl:2: integer 100000000000000000000 does not fit in 64 bits"),
        ("world.json", 1, lambda doc: doc.clear(), "world.json: missing field 'vocab_size'"),
        ("confusion.json", 1, lambda doc: doc["weights"][0].__setitem__(0, float("nan")),
         "confusion.json: weights[0][0]: expected a finite number, got nan"),
        ("world.json", 1, lambda doc: doc["initial"].__setitem__(0, float("nan")),
         "world.json: initial[0]: expected a finite number, got nan"),
    ], ids=["corpus-line-2", "confusion", "confusion-negative", "corpus-int64-line-2",
            "world-empty", "confusion-nan", "world-nan"])
    def test_corpus_dir_file_failing_to_load_is_named(self, runner, config_path, tmp_path,
                                                      name, line, break_it, message):
        corpus_dir, _ = self.corpus_and_model(runner, config_path, tmp_path)
        path = corpus_dir / name
        lines = path.read_text().splitlines(keepends=True)
        doc = json.loads(lines[line - 1])
        break_it(doc)
        lines[line - 1] = json.dumps(doc) + "\n" * lines[line - 1].endswith("\n")
        path.write_text("".join(lines))
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        manifest["files"][name] = sha256_file(path)  # the manifest matches the bad file
        (corpus_dir / "manifest.json").write_text(json.dumps(manifest))
        result = runner.invoke(main, ["train", "--config", config_path,
                                      "--corpus-dir", str(corpus_dir),
                                      "--out-dir", str(tmp_path / "model-bad")])
        self.assert_usage_error(result, message)

    def test_score_on_a_world_beyond_float_range_is_one_line(self, runner, config_path,
                                                            tmp_path):
        corpus_dir, model_path = self.corpus_and_model(runner, config_path, tmp_path)
        path = corpus_dir / "world.json"
        doc = json.loads(path.read_text())
        doc["initial"][0] = 10**400
        path.write_text(json.dumps(doc))
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        manifest["files"]["world.json"] = sha256_file(path)
        (corpus_dir / "manifest.json").write_text(json.dumps(manifest))
        result = runner.invoke(main, ["score", "--config", config_path, "--model", str(model_path),
                                      "--corpus-dir", str(corpus_dir),
                                      "--out-dir", str(tmp_path / "scores")])
        self.assert_usage_error(result)
        assert result.output == (f"Error: {path}: initial[0]: expected an int64 integer, "
                                 f"got {10**400}\n")

    def test_score_oracle_on_an_edit_the_table_cannot_emit_names_the_record(self, runner,
                                                                            config_path, tmp_path):
        corpus_dir = tmp_path / "corpus"
        run_ok(runner, ["gen-corpus", "--config", config_path, "--out-dir", str(corpus_dir),
                        "--mode", "single_edit", "--sentences", "30"])
        run_ok(runner, ["train", "--config", config_path, "--corpus-dir", str(corpus_dir),
                        "--out-dir", str(tmp_path / "model")])
        (_, x, y), = json.loads((corpus_dir / "corpus.jsonl").read_text().splitlines()[0])["edits"]
        path = corpus_dir / "confusion.json"
        doc = json.loads(path.read_text())
        row = doc["candidates"][x]  # record 0's original no longer emits its replacement
        row[row.index(y)] = min(set(range(8)) - {x, *row})
        path.write_text(json.dumps(doc))
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        manifest["files"]["confusion.json"] = sha256_file(path)
        (corpus_dir / "manifest.json").write_text(json.dumps(manifest))
        result = runner.invoke(main, ["score", "--config", config_path, "--oracle",
                                      "--model", str(tmp_path / "model" / "model.json"),
                                      "--corpus-dir", str(corpus_dir),
                                      "--out-dir", str(tmp_path / "scores")])
        self.assert_usage_error(result)
        assert result.output == (f"Error: {corpus_dir / 'corpus.jsonl'}: record 0: record "
                                 "inconsistent with world/table: original cannot emit the edit\n")

    @pytest.mark.parametrize("args,fragment", [
        (["filter", "--threshold", "1.5"], "'--threshold': 1.5 is not in the range 0<x<1"),
        (["pipeline", "--threshold", "0"], "'--threshold': 0.0 is not in the range 0<x<1"),
        (["gen-corpus", "--sentences", "0"], "'--sentences': 0 is not in the range x>=1"),
    ], ids=["filter-threshold-1.5", "pipeline-threshold-0", "gen-corpus-sentences-0"])
    def test_out_of_range_option_is_named(self, runner, config_path, tmp_path, args, fragment):
        inputs = (["--model", str(tmp_path), "--corpus-dir", str(tmp_path)]
                  if args[0] == "filter" else [])
        result = runner.invoke(main, [*args, *inputs, "--config", config_path,
                                      "--out-dir", str(tmp_path / "out")])
        self.assert_usage_error(result, fragment)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**63)])
    def test_seed_outside_the_stream_range_is_refused(self, runner, config_path, tmp_path, seed):
        # Masked to 63 bits, --seed 2**63 wrote seed 0's corpus under another manifest seed.
        result = runner.invoke(main, ["gen-corpus", "--config", config_path, "--seed", seed,
                                      "--sentences", "30", "--out-dir", str(tmp_path / "out")])
        self.assert_usage_error(result, f"'--seed': {seed} is not in the range "
                                f"0<=x<={2**63 - 1}")
        assert not (tmp_path / "out").exists()

    def test_bad_window_is_named(self, runner, config_path, tmp_path):
        corpus_dir, _ = self.corpus_and_model(runner, config_path, tmp_path)
        result = runner.invoke(main, ["train", "--config", config_path,
                                      "--corpus-dir", str(corpus_dir), "--window", "a",
                                      "--out-dir", str(tmp_path / "model-a")])
        self.assert_usage_error(result, "--window", "expected comma-separated integers")

    def test_window_too_wide_for_the_count_table_is_named(self, runner, config_path, tmp_path):
        corpus_dir, _ = self.corpus_and_model(runner, config_path, tmp_path)
        result = runner.invoke(main, ["train", "--config", config_path,
                                      "--corpus-dir", str(corpus_dir),
                                      "--window=-4,-3,-2,-1,0,1,2,3",
                                      "--out-dir", str(tmp_path / "model-wide")])
        self.assert_usage_error(result, "window: 8 offsets over 8 tokens are too large for a "
                                "dense count table (344373768 > 50000000)")
        assert not (tmp_path / "model-wide" / "model.json").exists()

    def test_window_offset_beyond_int64_writes_no_model(self, runner, config_path, tmp_path):
        # A model file holds int64 offsets only, so train refuses what eval could not read.
        corpus_dir, _ = self.corpus_and_model(runner, config_path, tmp_path)
        result = runner.invoke(main, ["train", "--config", config_path,
                                      "--corpus-dir", str(corpus_dir),
                                      "--window=-1,0,99999999999999999999",
                                      "--out-dir", str(tmp_path / "model-big")])
        assert result.exit_code == 1
        assert result.output == ("Error: window[2]: expected an int64 integer, "
                                 "got 99999999999999999999\n")
        assert not (tmp_path / "model-big" / "model.json").exists()

    def test_an_edited_meta_fails_the_manifest(self, runner, config_path, tmp_path):
        # The channel rate is read from the meta, so an edit once changed the scores.
        corpus_dir = tmp_path / "corpus"
        run_ok(runner, ["gen-corpus", "--config", config_path, "--mode", "single_edit",
                        "--sentences", "50", "--out-dir", str(corpus_dir)])
        model_dir = tmp_path / "model"
        run_ok(runner, ["train", "--config", config_path, "--corpus-dir", str(corpus_dir),
                        "--out-dir", str(model_dir)])
        manifest = corpus_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        assert doc["meta"]["rate"] == 0.1
        doc["meta"]["rate"] = 0.5
        manifest.write_text(json.dumps(doc))
        result = runner.invoke(main, ["score", "--config", config_path, "--oracle",
                                      "--model", str(model_dir / "model.json"),
                                      "--corpus-dir", str(corpus_dir),
                                      "--out-dir", str(tmp_path / "scores")])
        assert result.exit_code == 1
        assert result.output == f"Error: {manifest}: 'meta' differs from its digest 'meta_sha256'\n"
        assert not (tmp_path / "scores" / "scores.jsonl").exists()

    def test_sentences_past_the_token_budget_are_one_line(self, runner, config_path, tmp_path):
        result = runner.invoke(main, ["gen-corpus", "--config", config_path, "--sentences",
                                      str(2**62), "--out-dir", str(tmp_path / "out")])
        self.assert_usage_error(result)
        assert result.output == (f"Error: --sentences: {2**62} sentences of up to 9 tokens "
                                 "pass the budget of 16777216 tokens per corpus\n")

    def test_no_outcome_left_to_calibrate_on_is_one_line(self, runner, tmp_path):
        # At a rate near 0 in a world of one successor per token, every evaluated
        # position keeps nearly all its mass on the written token: an easy positive.
        path = tmp_path / "easy.json"
        path.write_text(json.dumps({"rate": 1e-9, "world": {"support": 1}, "dr_sentences": 400,
                                    "do_sentences": 2000, "eval_sentences": 120}))
        config = ["--config", str(path)]
        corpus_dir, model_dir = str(tmp_path / "corpus"), str(tmp_path / "model")
        run_ok(runner, ["gen-corpus", *config, "--out-dir", corpus_dir])
        run_ok(runner, ["train", *config, "--corpus-dir", corpus_dir, "--out-dir", model_dir])
        for args in (["pipeline"], ["sweep-threshold"],
                     ["eval", "--model", f"{model_dir}/model.json", "--corpus-dir", corpus_dir]):
            result = runner.invoke(main, [*args, *config, "--out-dir", str(tmp_path / args[0])])
            self.assert_usage_error(result)
            assert result.output == "Error: easy-positive exclusion removed every outcome\n"

    def test_config_window_too_wide_stops_the_pipeline_before_it_runs(self, runner, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"corrector": {"window": [-3, -2, -1, 0, 1, 2]}}))
        result = runner.invoke(main, ["pipeline", "--config", str(path),
                                      "--out-dir", str(tmp_path / "out")])
        self.assert_usage_error(result, "wide.json: corrector.window: 6 offsets over 20 tokens "
                                "are too large for a dense count table")
        assert not (tmp_path / "out").exists()


class TestPipelineCommands:
    def test_pipeline_rerun_is_byte_identical(self, runner, config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            run_ok(runner, ["pipeline", "--config", config_path, "--seed", "5",
                            "--out-dir", str(out)])
        assert dir_hashes(a) == dir_hashes(b)
        summary = json.loads((a / "report.json").read_text())
        assert summary["kept_edits"] + summary["reverted_edits"] > 0
        run_ok(runner, ["report", "--out-dir", str(a)])

    def test_pipeline_mode_override(self, runner, config_path, tmp_path):
        out = tmp_path / "none"
        result = run_ok(runner, ["pipeline", "--config", config_path, "--seed", "1",
                                 "--out-dir", str(out), "--mode", "none"])
        summary = json.loads((out / "report.json").read_text())
        assert summary["variant"] == "none"
        assert summary["fpr_after"] == summary["fpr_before"]

    def test_pipeline_threshold_override(self, runner, config_path, tmp_path):
        out = tmp_path / "p03"
        run_ok(runner, ["pipeline", "--config", config_path, "--seed", "1",
                        "--out-dir", str(out), "--threshold", "0.3"])
        summary = json.loads((out / "report.json").read_text())
        config = experiment_config_from_dict(TINY_CONFIG)
        assert config.filter.threshold != 0.3
        config = dataclasses.replace(config, filter=dataclasses.replace(config.filter,
                                                                        threshold=0.3))
        report = run_pipeline(*build_experiment_world(config, 1), config, 1)
        assert summary["threshold"] == 0.3
        assert (summary["kept_edits"], summary["reverted_edits"]) == (report.kept_edits,
                                                                      report.reverted_edits)

    def test_sweep_threshold_rows(self, runner, config_path, tmp_path):
        out = tmp_path / "sweep"
        run_ok(runner, ["sweep-threshold", "--config", config_path, "--seed", "0",
                        "--out-dir", str(out)])
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 5  # header + default grid

    def test_sweep_volume_rows(self, runner, config_path, tmp_path):
        out = tmp_path / "vol"
        run_ok(runner, ["sweep-volume", "--config", config_path, "--seed", "0",
                        "--out-dir", str(out)])
        lines = (out / "metrics.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + len(TINY_CONFIG["volume_sizes"])
        tv_lines = (out / "volume_tv.csv").read_text().strip().splitlines()
        assert tv_lines[0] == "size,tv_distance"

    def test_report_detects_tampering(self, runner, config_path, tmp_path):
        out = tmp_path / "r"
        run_ok(runner, ["pipeline", "--config", config_path, "--seed", "2",
                        "--out-dir", str(out)])
        (out / "metrics.csv").write_text("oops\n")
        result = runner.invoke(main, ["report", "--out-dir", str(out)])
        assert result.exit_code != 0


def golden_hashes(out_dir):
    """SHA-256 of every output file; a manifest is hashed without its ``versions``."""
    hashes = {}
    for path in sorted(Path(out_dir).rglob("*")):
        if not path.is_file():
            continue
        name = str(path.relative_to(out_dir))
        if path.name == "manifest.json":
            doc = json.loads(path.read_text())
            doc.pop("versions")
            hashes[name] = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        else:
            hashes[name] = sha256_file(path)
    return hashes


# Recorded before the corpus moved to flat columns; any change to these bytes
# is an output change and must be recorded as one.  Every manifest.json entry
# was re-recorded when filter.lambda_m left the config (its config_hash moved),
# and again when filter.lambda_n and filter.literal_ratio left it; the
# pipeline-heuristic/* entries when the multi-answer rule became a context
# group-by.  The model/model.json and model-window/model.json entries were
# re-recorded when the corpus digest came to hash the stored columns (their
# corpus_hash moved), and every manifest that records a meta when it gained
# its meta_sha256.  Every manifest.json entry was re-recorded again when
# world.seed, confusion.seed and confusion.mode left the config.
GOLDEN = {
    "corpus/confusion.json": "ac5f018d3497e90fde291a599632c33ce2cf05185aeedf466ad4a75e77140bb4",
    "corpus/corpus.jsonl": "7f76d079a8c338ee39d6d9a0fda44ae4770b699dc6181e644529c2b39ad8988b",
    "corpus/manifest.json": "2edc41fd2e50a7ab6e4461699a971d5fc5e37e9fa8a052db0895badb9c4f6c52",
    "corpus/world.json": "ab01cf7b8eb5baefdd9958bb7fb57782c4fcbd05ed0fbfeb1d780317f8c6167d",
    "eval/manifest.json": "fafb4a24c76fa387bc7311e16be3c13ddf1080217068bb82d3e5cb45a04ff776",
    "eval/metrics.csv": "f1536811ca94c1f59e9154d8f711ed38978a0011350103f594f7e410efbd84ce",
    "eval/reliability.csv": "d19c08748c53002448acabea56b0bb6508140c8c883d70a8f2855f260c57d8f4",
    "filter/filtered.jsonl": "d737c10ece2859c66bc7754b5f4b86a03e40875665fbf745a9e718b58fa794c3",
    "filter/manifest.json": "215902550f2fa9da082463207a26f81a6227dc6302684e370782da1cd5bf6325",
    "model/manifest.json": "a148bb879f42cbaea86044d23b1255129a9e2da014864979f6461832e8de019b",
    "model/model.json": "ab8e4d68544841ed0bd9381450ed0f423d4d29aab5a2505ec0d3c1eba30f3d3a",
    # Recorded before the corrector moved to flat positions.
    "pipeline-cross/filtered.jsonl": "2b468dab3fdae2b40089de2d5ea79a7198cb062d5bc5a263c9fb5530768fd85b",
    "pipeline-cross/manifest.json": "c581768a9dfcca8d3698a84afe7c90728a550bf7c14ba63d8b0bcefd15ad85e3",
    "pipeline-cross/metrics.csv": "173784c68c53f6a28603520092ca6eaef870155616c9293610e7eb6f3a4db188",
    "pipeline-cross/reliability.csv": "73d4bb540f1155176e5ceca2c7c48b5b7f04bb3d63803cd07f1af5b16754b6ec",
    "pipeline-cross/report.json": "eecc6a239c00f15ca0680c03e53618110389fa0efbdd3c012a4e7f1215badca0",
    "pipeline-heuristic/filtered.jsonl": "31609f0627359eb036f79a2ded2f3d415a740c64b5a5a8b741bd511e11a21b02",
    "pipeline-heuristic/manifest.json": "9b178b7b24ea95e5f62205484031d457cb0d6f69d62fd196279be8ff6d963edb",
    "pipeline-heuristic/metrics.csv": "9b1b7494a84b866ffd50db6a04f05718113c1cf802789a0b4cd978ba0ec75940",
    "pipeline-heuristic/reliability.csv": "6b21f2f2a79887dd8401596de7e64ee41daacaa52885061761274d32722e2c29",
    "pipeline-heuristic/report.json": "873985acd78ba203227f15db1a61d7ab029097ecb2a867d152df2b22ca7e4fa4",
    "score/manifest.json": "261915ecb78f2f2da5015425cef082ee51192894cd989633aad7e799aebf3c5f",
    "score/scores.jsonl": "7ba71235962608017d99bca78e84db1a23c48986602be4983fde41a566f1593b",
    "sweep-threshold/manifest.json": "197648aa49ee3e9d2993baa46f200e9be152f6d43e81826d827e9ed58ca99b42",
    "sweep-threshold/metrics.csv": "5b005deb21c01662549f4026926696c096baf30d277fc018e2300e2e55992b50",
    # Recorded before the experiment scaffold was written once.
    "corpus-single/confusion.json": "ac5f018d3497e90fde291a599632c33ce2cf05185aeedf466ad4a75e77140bb4",
    "corpus-single/corpus.jsonl": "6d101ab6e338a4dde83639fc4c615bde13eb4ad03909fbb1b5285cee0da356d2",
    "corpus-single/manifest.json": "892047c9f8a2d7d28f7eebfd886ef766c0e8703214859b23f8827f1f8f5970fd",
    "corpus-single/world.json": "ab01cf7b8eb5baefdd9958bb7fb57782c4fcbd05ed0fbfeb1d780317f8c6167d",
    "corpus-uniform/confusion.json": "a4533ecfb031b0b9b628c77a04896991d7e833f80e8241199b2bc8d8d66aadd5",
    "corpus-uniform/corpus.jsonl": "838aac57d0c9c2eb5930b963475647169555b9d62652c421ebf67164229dd757",
    "corpus-uniform/manifest.json": "638839828b3ba72963d634a33b01cce60610ec7792c646c29687649cb2e953c8",
    "corpus-uniform/world.json": "ab01cf7b8eb5baefdd9958bb7fb57782c4fcbd05ed0fbfeb1d780317f8c6167d",
    "filter-0.01/filtered.jsonl": "7f76d079a8c338ee39d6d9a0fda44ae4770b699dc6181e644529c2b39ad8988b",
    "filter-0.01/manifest.json": "e191eb3119ee80d4e71864016f6c8377fac1b894df3af4fa1c1dce138bd13429",
    "gen-world/manifest.json": "2d7f5b0cf105e90e98b48a679596e64988a1c35cc06b776ec79453e2450bed52",
    "gen-world/world.json": "ab01cf7b8eb5baefdd9958bb7fb57782c4fcbd05ed0fbfeb1d780317f8c6167d",
    "model-window/manifest.json": "d8c5d34de234f522d23cc82be9a8cf6507f5fc2b3203931e64b6946de669b9c2",
    "model-window/model.json": "7ae2918198328ec033d0c05d6a305d2b57b611f66f591e3b4a61e0747ea9c7c0",
    "pipeline-mixing/filtered.jsonl": "f9bcd45b6db86caddd775e9a23f2f82b17a3c523c82584c2b78c5e3978e7198a",
    "pipeline-mixing/manifest.json": "8a7a9655bed73c6b18290ed6e7d3b6844f935400dc4d5f8371d9003ced5eb276",
    "pipeline-mixing/metrics.csv": "122f2910661f8d7d32509f5f68ad3b8e5604ba34053057ba4603c72cda3cb66c",
    "pipeline-mixing/reliability.csv": "a6d5fa6cd17b7857f91a2324d93baee8fc3f4473f1506137b9db2a52f5682112",
    "pipeline-mixing/report.json": "264812c04063162a4a306993f6f463b914a85e5f438290f53c3e902da30dd352",
    "pipeline-none/filtered.jsonl": "f9bcd45b6db86caddd775e9a23f2f82b17a3c523c82584c2b78c5e3978e7198a",
    "pipeline-none/manifest.json": "17f2de9b930d41f39de7e8febde65c168898887debba244f0f772dc658019218",
    "pipeline-none/metrics.csv": "b12014ee2ff79aa162ac36c470c896951b00ea0becc9cba21549f9fdbfb76bdb",
    "pipeline-none/reliability.csv": "07eb6b5686452ea191f7fa8fee5fbffa155dea83175197174e89d3aa91510754",
    "pipeline-none/report.json": "cc6ac7106abd08a039a50d796e6f2c63c0a3231f4ea14f375a507bf29bf78966",
    "pipeline-self/filtered.jsonl": "0a51de0a930f8ee35ec601f4f7908c8dae0e6c0df409f37a4d40b22f7dd0e933",
    "pipeline-self/manifest.json": "9a8ed23d734454b8bb4be46e08c578c92938c1753098c144f713eaa20a11a621",
    "pipeline-self/metrics.csv": "c637f1780ed33eb944571bd0fde17914adf231cbdf0782e537f88f350f1aea86",
    "pipeline-self/reliability.csv": "75b8c2d3e4bbc69ca59e69efe9e37005c7135e3f74450a2cfd7fb712ca8ecc67",
    "pipeline-self/report.json": "679925c9f98c57358461f50084cb239fbdf410ac7ad3fa33ed4cf01d648a1072",
    "score-no-oracle/manifest.json": "4252e6f0fd5dc598690f6ed0618c5f42d21dc5d2bddad02f63349c7d8e37586a",
    "score-no-oracle/scores.jsonl": "3b07d4cb7d85aec680df59c4b2acbac7a1a25a2d24a663d62295035e402626fc",
    "sweep-volume/manifest.json": "99045180efcde90d30a2c31aae41776b87312d5058473d925dc3ee32ec102e5c",
    "sweep-volume/metrics.csv": "504b167ef18cf90c6095624eed4bae3f023934b205a4902c9f008d664cb80087",
    "sweep-volume/volume_tv.csv": "47750deea99b5600ee467c3e000d7427a9da33dbd9b1759ac5901ad9d810423c",
}


class TestGoldenOutputs:
    def test_cli_outputs_match_recorded_hashes(self, runner, config_path, tmp_path):
        out = tmp_path / "out"
        for call in output_matrix.commands(out):
            run_ok(runner, [*call, "--config", config_path, "--seed", "7"])
        assert golden_hashes(out) == GOLDEN

    def test_posterior_reports_match_recorded_hash(self):
        # Every field of every posterior report of the tiny config's single-edit d_o.
        config = experiment_config_from_dict(TINY_CONFIG)
        assert output_matrix.posteriors_digest(7, config) == (
            "3f06587c9603a417720e007465b446fb4b664d30619543f7c88252859809388c")

    def test_order_2_outputs_match_recorded_digests(self, runner, tmp_path):
        # Recorded after one column-loop sampler served every world order, again
        # when filter.lambda_n and filter.literal_ratio left the config (config_hash only),
        # again when model.json's corpus_hash and the manifests' meta_sha256 moved, and
        # again when world.seed, confusion.seed and confusion.mode left the config
        # (config_hash only).
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(ORDER_2_CONFIG))
        out = tmp_path / "out"
        for call in output_matrix.commands(out):
            run_ok(runner, [*call, "--config", str(config_path), "--seed", "7"])
        listing = "".join(f"{name}  {digest}\n"
                          for name, digest in sorted(golden_hashes(out).items()))
        assert hashlib.sha256(listing.encode()).hexdigest() == (
            "9eda5e0fb1bf448115beaf0fac496f6f41e65cace05002e4bfe4776553e35e48")
        config = experiment_config_from_dict(ORDER_2_CONFIG)
        assert output_matrix.posteriors_digest(7, config) == (
            "243c2768a7202027b0349181c7b6d8eb8cfd2b7a946d28edbfb9391e10168768")
