import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from denoiselab.cli import main
from denoiselab.harness import sha256_file

TINY_CONFIG = {
    "world": {"vocab_size": 8, "support": 3, "weight_low": 0.05, "weight_high": 1.0},
    "confusion": {"candidates": 2, "head_mass": 0.8, "context_affinity": 0.6},
    "dr_sentences": 500,
    "do_sentences": 400,
    "eval_sentences": 200,
    "length_range": [5, 9],
    "volume_sizes": [400, 1500],
}


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
