import argparse
import json
import os
from dataclasses import fields

import jsonschema
import numpy as np
import pytest

import phasecond.cli
import phasecond.tensor
from phasecond.cli import build_config, build_parser, main
from phasecond.config import RunConfig
from phasecond.errors import PhaseCondError
from phasecond.training import restore_model, save_checkpoint

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

    def test_iterative_aligner_path_trains(self, workspace, tmp_path, capsys):
        data = workspace / "data"
        assert main(["train", "--train-data", str(data / "train.jsonl"),
                     "--dev-data", str(data / "dev.jsonl"),
                     "--path", "(LQ->Fi->LS->Fi)x2",
                     "--epochs", "1", "--seed", "1",
                     "--out", str(tmp_path / "iter"), *SMALL_MODEL_FLAGS]) == 0
        assert "path: LQ->Fi->LS->Fi->LQ->Fi->LS->Fi\n" in capsys.readouterr().out

    def test_fi_after_a_projecting_lq_trains(self, workspace, tmp_path, capsys):
        data = workspace / "data"
        assert main(["train", "--train-data", str(data / "train.jsonl"),
                     "--dev-data", str(data / "dev.jsonl"),
                     "--path", "LQ->LQ->Fo->LQ->Fi",
                     "--epochs", "1", "--seed", "1",
                     "--out", str(tmp_path / "run"), *SMALL_MODEL_FLAGS]) == 0
        assert "path: LQ->LQ->Fo->LQ->Fi" in capsys.readouterr().out
        assert (tmp_path / "run" / "best.ckpt").exists()

    def test_run_halted_before_its_first_epoch_reports_no_epoch(self, workspace, tmp_path,
                                                                 capsys, caplog):
        data = workspace / "data"
        run = tmp_path / "run"
        with np.errstate(over="ignore", invalid="ignore"):  # the overflow this run is about
            assert main(["train", "--train-data", str(data / "train.jsonl"),
                         "--dev-data", str(data / "dev.jsonl"), "--epochs", "2", "--seed", "1",
                         "--out", str(run), *SMALL_MODEL_FLAGS, "--set", "lr=1e308"]) == 1
        out = capsys.readouterr().out
        assert "status: halted_nonfinite\nno epoch completed\n" in out
        assert "best dev EM" not in out
        assert "at epoch 1; halting before any epoch completed; no checkpoint was written" \
            in caplog.text
        assert sorted(os.listdir(run)) == ["effective.cfg"]

    def test_invalid_path_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--train-data", "x.jsonl", "--dev-data", "y.jsonl",
                     "--path", "LS->LQ", "--out", str(tmp_path)])
        assert code == 2
        assert "first attention" in capsys.readouterr().err

    def test_over_long_path_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--train-data", "x.jsonl", "--dev-data", "y.jsonl",
                     "--path", "LQ->(LS)x99999999999", "--out", str(tmp_path)])
        assert code == 2
        assert "longer than 64 steps (at position 8)" in capsys.readouterr().err

    def test_count_too_long_for_int_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--train-data", "x.jsonl", "--dev-data", "y.jsonl",
                     "--path", "(LQ)x" + "9" * 5000, "--out", str(tmp_path)])
        assert code == 2
        assert "longer than 64 steps (at position 4)" in capsys.readouterr().err

    @pytest.mark.parametrize("flags,message", [
        (["--seed", "-1"], "seed must be >= 0"),
        (["--set", "grad_clip=-1"], "unknown config key: grad_clip"),
        (["--set", "dropout=1"], "dropout must be in [0, 1)"),
        (["--hidden", "0"], "hidden must be >= 1"),
        (["--set", "mask_diagonal=true"], "unknown config key: mask_diagonal"),
        (["--set", "use_pos=true"], "unknown config key: use_pos"),
        (["--set", "early_stop_dev_em=nan"], "early_stop_dev_em must be in [0, 100], got nan"),
        (["--set", "lr=inf"], "lr must be positive and finite, got inf"),
        (["--set", "path=LS"], "first attention step must be LQ"),
        (["--path", "LQ->LQ->Fo" + "->LS->LS->Fo" * 20], "step 12: Fo would be 16 x 2d wide"),
        (["--hidden", "x"], "hidden: expected int, got 'x'"),
    ], ids=["seed", "grad_clip", "dropout", "hidden", "mask_diagonal", "use_pos", "early_stop_nan",
            "lr_inf", "set_path", "wide_path", "hidden_not_int"])
    def test_invalid_config_is_usage_error_before_any_data_is_read(self, tmp_path, capsys,
                                                                    flags, message):
        code = main(["train", "--train-data", str(tmp_path / "missing.jsonl"),
                     "--dev-data", str(tmp_path / "missing.jsonl"),
                     "--out", str(tmp_path / "run"), *flags])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")
        assert not (tmp_path / "run").exists()

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

    @pytest.mark.parametrize("content,message", [
        ("{bad", "not valid JSON"),
        ("[1, 2]", "expected a JSON object of answer strings"),
        ('{"syn-3-00000": 5}', "field 'syn-3-00000' is int, expected str"),
    ])
    def test_malformed_predictions_file_is_one_error_line(self, workspace, tmp_path, capsys,
                                                          content, message):
        preds_path = tmp_path / "preds.json"
        preds_path.write_text(content)
        code = main(["evaluate", "--predictions", str(preds_path),
                     "--data", str(workspace / "data" / "dev.jsonl")])
        captured = capsys.readouterr()
        assert code == 1 and "EM:" not in captured.out
        (line,) = captured.err.splitlines()
        assert line.startswith(f"error: {preds_path}: {message}")

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

    @pytest.mark.parametrize("passage,question,flag", [
        ("   ", "what ?", "--passage"),
        ("tok01 ans02", " \t ", "--question"),
    ], ids=["passage", "question"])
    def test_text_without_tokens_is_usage_error(self, workspace, tmp_path, capsys,
                                                passage, question, flag):
        code = main(["dump-attention", "--checkpoint", str(workspace / "run" / "best.ckpt"),
                     "--passage", passage, "--question", question, "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {flag} has no tokens\n"
        assert not (tmp_path / "x").exists()

    def test_two_example_sources_is_usage_error(self, workspace, tmp_path, capsys):
        code, out = self.dump(workspace, tmp_path, extra=["--passage", "tok01 ans02",
                                                          "--question", "which ?"])
        assert code == 2
        assert "one example source" in capsys.readouterr().err
        assert not out.exists()

    def test_one_hot_rows_have_entropy_plus_zero(self):
        entropy = phasecond.cli.mean_row_entropy(np.eye(1))
        assert entropy == 0.0 and np.copysign(1.0, entropy) == 1.0

    def test_identical_dumps_for_identical_seeds(self, workspace, tmp_path):
        _, out1 = self.dump(workspace, tmp_path / "first")
        _, out2 = self.dump(workspace, tmp_path / "second")
        for name in ("qp_1", "qp_2", "self_1", "self_2"):
            assert (out1 / f"{name}.json").read_bytes() == \
                   (out2 / f"{name}.json").read_bytes()


class TestNonFiniteModel:
    """A checkpoint with one NaN parameter: every command that runs it fails
    with exit 1 and says why, instead of answering with the first token."""

    @pytest.fixture(scope="class")
    def nan_checkpoint(self, workspace):
        model = restore_model(str(workspace / "run" / "best.ckpt"))[0]
        model.params["enc.shared.fw.W"].data[0, 0] = np.nan
        path = workspace / "nan.ckpt"
        save_checkpoint(model, str(path))
        return path

    def test_predict_exits_1(self, workspace, nan_checkpoint, tmp_path, capsys):
        code = main(["predict", "--checkpoint", str(nan_checkpoint),
                     "--data", str(workspace / "data" / "dev.jsonl"),
                     "--out", str(tmp_path / "preds.json")])
        assert code == 1
        assert "span probabilities are not finite" in capsys.readouterr().err
        assert not (tmp_path / "preds.json").exists()

    def test_dump_attention_exits_1_and_writes_no_matrix(self, workspace, nan_checkpoint,
                                                         tmp_path, capsys):
        out = tmp_path / "att"
        code = main(["dump-attention", "--checkpoint", str(nan_checkpoint),
                     "--passage", "tok01 ans02 tok03", "--question", "which word ?",
                     "--out", str(out)])
        assert code == 1
        assert "not finite" in capsys.readouterr().err
        assert not list(out.glob("*.json"))

    def test_nan_attention_rows_fail_the_row_check(self, workspace, monkeypatch, tmp_path):
        # the span decodes; only the exported weights are NaN
        model = restore_model(str(workspace / "run" / "best.ckpt"))[0]
        forward = phasecond.cli.forward

        def nan_weights(model, example):
            result = forward(model, example)
            result.trace[0].weights[0, 0] = np.nan
            return result

        monkeypatch.setattr(phasecond.cli, "forward", nan_weights)
        example = phasecond.cli._adhoc_example("tok01 ans02 tok03", "which word ?")
        with pytest.raises(PhaseCondError, match="qp1: rows do not sum to 1"):
            phasecond.cli.dump_attention(model, example, str(tmp_path))
        assert not list(tmp_path.glob("*.json"))


SUBCOMMANDS = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
CONFIG_FIELDS = {f.name for f in fields(RunConfig)}
CONFIG_FLAGS = [a for a in SUBCOMMANDS["train"]._actions if a.dest in CONFIG_FIELDS]


@pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
def test_help_exits_zero(name, capsys):
    with pytest.raises(SystemExit) as done:
        main([name, "--help"])
    assert done.value.code == 0
    assert f"usage: phasecond {name}" in capsys.readouterr().out


def test_every_train_option_is_a_config_flag_or_a_known_extra():
    dests = {a.dest for a in SUBCOMMANDS["train"]._actions}
    assert dests - CONFIG_FIELDS == {"help", "config", "set", "out"}
    assert len(CONFIG_FLAGS) == 11


@pytest.mark.parametrize("flag", CONFIG_FLAGS, ids=lambda a: a.option_strings[0])
def test_config_flag_reaches_the_config(flag):
    field_type = {f.name: f.type for f in fields(RunConfig)}[flag.dest]
    value = {int: 5, float: 0.125}.get(field_type, "LQ->Fo" if flag.dest == "path" else "x.txt")
    assert getattr(RunConfig(), flag.dest) != value
    cfg = build_config(build_parser().parse_args(["train", flag.option_strings[0], str(value)]))
    assert getattr(cfg, flag.dest) == value


class TestGradCheckCommand:
    def test_fresh_build_passes(self, capsys):
        assert main(["grad-check", "--seed", "11"]) == 0
        printed = capsys.readouterr().out
        assert "all 14 components passed" in printed
        assert "seed=11" in printed and "dims=" in printed

    def test_corrupted_gradient_rule_named(self, monkeypatch, capsys):
        relu = phasecond.tensor.RELU
        bad_relu = relu._replace(rule=lambda g, out: relu.rule(g, out) * 1.05)
        monkeypatch.setattr(phasecond.tensor, "RELU", bad_relu)
        assert main(["grad-check", "--seed", "11"]) == 1
        printed = capsys.readouterr().out
        assert "FAIL outer_fusion" in printed
        assert "component(s) failed" in printed

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["grad-check", "--seed", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: seed must be >= 0, got -1\n")


class TestSynthDataCommand:
    @pytest.mark.parametrize("flags,message", [
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--train", "-3"], "n_examples must be >= 0, got -3"),
        (["--dev", "-1"], "n_examples must be >= 0, got -1"),
    ], ids=["seed", "train", "dev"])
    def test_negative_seed_or_count_is_usage_error(self, tmp_path, capsys, flags, message):
        code = main(["synth-data", "--out", str(tmp_path / "data"), *flags])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "data").exists()  # neither set is written

    def test_reproducible_outputs(self, tmp_path):
        for sub in ("a", "b"):
            assert main(["synth-data", "--out", str(tmp_path / sub), "--train", "10",
                         "--dev", "4", "--vocab", "20", "--min-len", "8",
                         "--max-len", "10", "--seed", "9"]) == 0
        assert (tmp_path / "a" / "train.jsonl").read_bytes() == \
               (tmp_path / "b" / "train.jsonl").read_bytes()
        assert (tmp_path / "a" / "dev.jsonl").read_bytes() == \
               (tmp_path / "b" / "dev.jsonl").read_bytes()
