import json
import os

import jsonschema
import numpy as np
import pytest

import phasecond.tensor
from phasecond.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL_MODEL_FLAGS = [
    "--hidden", "3", "--batch-size", "8", "--lr", "0.005",
    "--set", "word_dim=6", "--set", "char_dim=4", "--set", "char_filters=4",
    "--set", "feat_dim=3", "--set", "dropout=0.1",
]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic data plus one short training run, shared across CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth-data", "--out", str(data), "--train", "24", "--dev", "8",
                 "--vocab", "20", "--min-len", "8", "--max-len", "12",
                 "--seed", "3"]) == 0
    run = root / "run"
    assert main(["train", "--train-data", str(data / "train.jsonl"),
                 "--dev-data", str(data / "dev.jsonl"),
                 "--epochs", "2", "--seed", "1", "--out", str(run),
                 *SMALL_MODEL_FLAGS]) == 0
    return root


class TestTrainCommand:
    def test_run_directory_artifacts(self, workspace):
        run = workspace / "run"
        assert (run / "best.ckpt").exists()
        assert (run / "metrics.csv").exists()
        cfg_text = (run / "effective.cfg").read_text()
        assert "path=LQ->LQ->Fo->LS->Fi->LS->Fi" in cfg_text
        assert "seed=1" in cfg_text

    def test_determinism_identical_metric_logs(self, workspace, tmp_path):
        data = workspace / "data"
        args = ["train", "--train-data", str(data / "train.jsonl"),
                "--dev-data", str(data / "dev.jsonl"),
                "--epochs", "2", "--seed", "1", *SMALL_MODEL_FLAGS]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        log_a = (tmp_path / "a" / "metrics.csv").read_bytes()
        log_b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert log_a == log_b
        assert log_a == (workspace / "run" / "metrics.csv").read_bytes()

    def test_iterative_aligner_path_trains(self, workspace, tmp_path):
        data = workspace / "data"
        assert main(["train", "--train-data", str(data / "train.jsonl"),
                     "--dev-data", str(data / "dev.jsonl"),
                     "--path", "(LQ->Fi->LS->Fi)x2",
                     "--epochs", "1", "--seed", "1",
                     "--out", str(tmp_path / "iter"), *SMALL_MODEL_FLAGS]) == 0

    def test_invalid_path_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--train-data", "x.jsonl", "--dev-data", "y.jsonl",
                     "--path", "LS->LQ", "--out", str(tmp_path)])
        assert code == 2
        assert "first attention" in capsys.readouterr().err

    def test_missing_data_is_usage_error(self, tmp_path):
        assert main(["train", "--out", str(tmp_path)]) == 2

    def test_config_file_with_flag_override(self, workspace, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("hidden=3\nword_dim=6\nchar_dim=4\nchar_filters=4\n"
                            "feat_dim=3\ndropout=0.1\nepochs=5\nbatch_size=8\n")
        data = workspace / "data"
        code = main(["train", "--config", str(cfg_file),
                     "--epochs", "1",  # overrides the file's 5
                     "--train-data", str(data / "train.jsonl"),
                     "--dev-data", str(data / "dev.jsonl"),
                     "--seed", "2", "--out", str(tmp_path / "run")])
        assert code == 0
        assert "epochs=1" in (tmp_path / "run" / "effective.cfg").read_text()


class TestEvaluateCommand:
    def test_reports_and_writes_outputs(self, workspace, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main(["evaluate", "--checkpoint", str(workspace / "run" / "best.ckpt"),
                     "--data", str(workspace / "data" / "dev.jsonl"),
                     "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "EM:" in printed and "F1:" in printed
        preds = json.loads((out / "predictions.json").read_text())
        assert len(preds) == 8
        report = json.loads((out / "report.json").read_text())
        assert set(report) == {"em", "f1", "per_question"}
        assert len(report["per_question"]) == 8
        assert all({"id", "em", "f1"} <= set(row) for row in report["per_question"])

    def test_missing_checkpoint_is_runtime_error(self, workspace):
        assert main(["evaluate", "--checkpoint", "/nonexistent.ckpt",
                     "--data", str(workspace / "data" / "dev.jsonl")]) == 1

    def test_scores_external_predictions_file(self, workspace, tmp_path, capsys):
        gold = {}
        for line in (workspace / "data" / "dev.jsonl").read_text().splitlines():
            record = json.loads(line)
            gold[record["id"]] = record["answer_texts"][0]
        preds_path = tmp_path / "gold_preds.json"
        preds_path.write_text(json.dumps(gold))
        code = main(["evaluate", "--predictions", str(preds_path),
                     "--data", str(workspace / "data" / "dev.jsonl")])
        assert code == 0
        out = capsys.readouterr().out
        assert "EM: 100.00" in out and "F1: 100.00" in out

    def test_checkpoint_and_predictions_mutually_exclusive(self, workspace):
        assert main(["evaluate", "--checkpoint", "x", "--predictions", "y",
                     "--data", str(workspace / "data" / "dev.jsonl")]) == 2


class TestPredictCommand:
    def test_writes_predictions(self, workspace, tmp_path):
        out = tmp_path / "preds.json"
        code = main(["predict", "--checkpoint", str(workspace / "run" / "best.ckpt"),
                     "--data", str(workspace / "data" / "dev.jsonl"),
                     "--out", str(out)])
        assert code == 0
        preds = json.loads(out.read_text())
        assert len(preds) == 8 and all(isinstance(v, str) for v in preds.values())


class TestDumpAttention:
    def dump(self, workspace, tmp_path, extra=()):
        first_id = json.loads(
            (workspace / "data" / "dev.jsonl").read_text().splitlines()[0])["id"]
        out = tmp_path / "att"
        code = main(["dump-attention",
                     "--checkpoint", str(workspace / "run" / "best.ckpt"),
                     "--data", str(workspace / "data" / "dev.jsonl"),
                     "--example-id", first_id, "--out", str(out), *extra])
        return code, out

    def test_four_matrices_for_default_path(self, workspace, tmp_path):
        code, out = self.dump(workspace, tmp_path)
        assert code == 0
        names = sorted(p.name for p in out.glob("*.json"))
        assert names == ["manifest.json", "qp_1.json", "qp_2.json",
                         "self_1.json", "self_2.json"]

    def test_matrices_validate_against_published_schema(self, workspace, tmp_path):
        _, out = self.dump(workspace, tmp_path)
        with open(os.path.join(ROOT, "docs", "attention_dump_schema.json"),
                  encoding="utf-8") as fh:
            schema = json.load(fh)
        for name in ("qp_1", "qp_2", "self_1", "self_2"):
            record = json.loads((out / f"{name}.json").read_text())
            jsonschema.validate(record, schema)
            weights = np.array(record["weights"])
            assert np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-9)
            assert len(record["row_tokens"]) == weights.shape[0]
            assert len(record["col_tokens"]) == weights.shape[1]

    def test_csv_export(self, workspace, tmp_path):
        code, out = self.dump(workspace, tmp_path, extra=["--csv"])
        assert code == 0
        assert (out / "qp_1.scores.csv").exists()
        assert (out / "self_2.weights.csv").exists()
        loaded = np.loadtxt(out / "qp_1.weights.csv", delimiter=",")
        record = json.loads((out / "qp_1.json").read_text())
        assert np.allclose(loaded, np.array(record["weights"]), atol=1e-9)

    def test_manifest_reports_entropy(self, workspace, tmp_path):
        _, out = self.dump(workspace, tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["entropy"]) == 4
        assert "second_self_layer_sharper" in manifest

    def test_unknown_id_lists_available(self, workspace, tmp_path, capsys):
        code = main(["dump-attention",
                     "--checkpoint", str(workspace / "run" / "best.ckpt"),
                     "--data", str(workspace / "data" / "dev.jsonl"),
                     "--example-id", "nope", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "available ids include" in capsys.readouterr().err

    def test_raw_text_pair(self, workspace, tmp_path):
        out = tmp_path / "raw"
        code = main(["dump-attention",
                     "--checkpoint", str(workspace / "run" / "best.ckpt"),
                     "--passage", "tok01 ans02 tok03", "--question", "which word follows tok01 ?",
                     "--out", str(out)])
        assert code == 0
        record = json.loads((out / "qp_1.json").read_text())
        assert record["row_tokens"] == ["tok01", "ans02", "tok03"]

    def test_identical_dumps_for_identical_seeds(self, workspace, tmp_path):
        _, out1 = self.dump(workspace, tmp_path / "first")
        _, out2 = self.dump(workspace, tmp_path / "second")
        for name in ("qp_1", "qp_2", "self_1", "self_2"):
            assert (out1 / f"{name}.json").read_bytes() == \
                   (out2 / f"{name}.json").read_bytes()


class TestGradCheckCommand:
    def test_fresh_build_passes(self, capsys):
        assert main(["grad-check", "--seed", "11"]) == 0
        printed = capsys.readouterr().out
        assert "all 14 components passed" in printed
        assert "seed=11" in printed and "dims=" in printed

    def test_corrupted_gradient_rule_named(self, monkeypatch, capsys):
        true_relu = phasecond.tensor.relu

        def bad_relu(a):
            out = true_relu(a)
            if out._backward is not None:
                good = out._backward
                out._backward = lambda g: tuple(
                    None if p is None else p * 1.05 for p in good(g))
            return out

        monkeypatch.setattr(phasecond.tensor, "relu", bad_relu)
        assert main(["grad-check", "--seed", "11"]) == 1
        printed = capsys.readouterr().out
        assert "FAIL outer_fusion" in printed
        assert "component(s) failed" in printed


class TestSynthDataCommand:
    def test_reproducible_outputs(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["synth-data", "--out", str(tmp_path / sub), "--train", "10",
                         "--dev", "4", "--vocab", "20", "--min-len", "8",
                         "--max-len", "10", "--seed", "9"]) == 0
        assert (tmp_path / "a" / "train.jsonl").read_bytes() == \
               (tmp_path / "b" / "train.jsonl").read_bytes()
        assert (tmp_path / "a" / "dev.jsonl").read_bytes() == \
               (tmp_path / "b" / "dev.jsonl").read_bytes()
