"""Every script under scripts/ imports the package and parses its arguments, the
desk-experiment driver trains a list of paths into one summary, and the tape
memory harness pins what a desk batch keeps."""

import importlib.util
import json
import math
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from phasecond.conductor import build_from_examples, gold_loss
from phasecond.config import desk_config
from phasecond.data import SyntheticSpec, generate_synthetic
from phasecond.training import TrainResult

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(SCRIPTS) if f.endswith(".py")))
def test_help_exits_zero(name):
    done = subprocess.run([sys.executable, os.path.join(SCRIPTS, name), "--help"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def run_synthetic(out, *paths, env=None):
    return subprocess.run([sys.executable, os.path.join(SCRIPTS, "run_synthetic.py"),
                           "--out", str(out), "--paths", *paths, "--train", "8", "--dev", "4",
                           "--epochs", "1", "--hidden", "2"],
                          capture_output=True, text=True, timeout=300, env=env)


def test_run_synthetic_trains_every_path_into_one_summary(tmp_path):
    done = run_synthetic(tmp_path / "out", "LQ", "LQ->LS->Fi", "LQ->LQ->Fo->LQ->Fi")
    assert done.returncode == 0, done.stderr
    rows = json.loads((tmp_path / "out" / "summary.json").read_text())["runs"]
    assert [(r["tag"], r["path"], r["epochs"]) for r in rows] == [
        ("path1", "LQ", 1), ("path2", "LQ->LS->Fi", 1), ("path3", "LQ->LQ->Fo->LQ->Fi", 1)]
    assert all(os.path.exists(r["best_ckpt"]) for r in rows)
    assert (tmp_path / "out" / "attention" / "manifest.json").exists()


def test_run_synthetic_trains_each_path_per_seed_and_summarizes_the_seeds(tmp_path):
    done = run_synthetic(tmp_path / "out", "LQ", "LQ->LS->Fi", "--seeds", "3-4",
                         env={**os.environ, "OPENBLAS_NUM_THREADS": "1"})
    assert done.returncode == 0, done.stderr
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["environment"] == {"python": platform.python_version(),
                                      "numpy": np.__version__, "openblas_num_threads": "1"}
    assert (f"python {platform.python_version()}, numpy {np.__version__}, "
            f"OPENBLAS_NUM_THREADS=1") in done.stdout
    rows = summary["runs"]
    assert [(r["tag"], r["seed"]) for r in rows] == [
        ("path1-seed3", 3), ("path1-seed4", 4), ("path2-seed3", 3), ("path2-seed4", 4)]
    for r in rows:  # one epoch of 8 examples reaches no criterion
        assert not r["passed"] and r["dev_em_epoch1"] == r["dev_em"]
        assert r["at_plateau"] == (r["dev_em"] == 28.0)
    table = done.stdout.split("epochs to criterion")[1]
    assert table.count(" 0/2 ") == 2
    done = run_synthetic(tmp_path / "bad", "LQ", "--seeds", "4-3")
    assert done.returncode == 2 and "empty seed range" in done.stderr


def test_run_synthetic_refuses_a_bad_path_before_writing(tmp_path):
    done = run_synthetic(tmp_path / "out", "LQ", "LS")
    assert done.returncode == 2
    assert "bad path 'LS': first attention step must be LQ" in done.stderr
    assert not (tmp_path / "out").exists()


def test_run_synthetic_refuses_a_bad_config_before_writing(tmp_path):
    done = run_synthetic(tmp_path / "out", "LQ", "--lr", "inf")
    assert done.returncode == 2
    assert "lr must be positive and finite, got inf" in done.stderr
    assert not (tmp_path / "out").exists()


def load_run_synthetic():
    spec = importlib.util.spec_from_file_location(
        "run_synthetic", os.path.join(SCRIPTS, "run_synthetic.py"))
    driver = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(driver)
    return driver


def halted_before_its_first_epoch(*args, **kwargs):
    return TrainResult(history=[], best_dev_em=-1.0, best_epoch=0, status="halted_nonfinite")


def test_run_synthetic_reads_nan_for_a_run_halted_before_its_first_epoch(
        tmp_path, monkeypatch, capsys):
    driver = load_run_synthetic()
    monkeypatch.setattr(driver, "train", halted_before_its_first_epoch)
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["run_synthetic.py", "--out", str(out), "--paths", "LQ",
                                      "--train", "8", "--dev", "4", "--hidden", "2"])
    driver.main()
    (row,) = json.loads((out / "summary.json").read_text())["runs"]
    assert row["epochs"] == 0 and math.isnan(row["dev_em"]) and math.isnan(row["dev_f1"])
    assert "nan" in capsys.readouterr().out
    assert not (out / "attention").exists()


def test_run_synthetic_takes_each_unset_setting_from_the_desk_preset(tmp_path, monkeypatch):
    driver = load_run_synthetic()
    configs = []

    def record(model, *args, **kwargs):
        configs.append(model.config)
        return halted_before_its_first_epoch()

    monkeypatch.setattr(driver, "train", record)
    monkeypatch.setattr(sys, "argv", ["run_synthetic.py", "--out", str(tmp_path / "out"),
                                      "--paths", "LQ", "--train", "8", "--dev", "4",
                                      "--hidden", "2"])
    driver.main()
    assert configs == [desk_config(path="LQ", hidden=2)]


def test_tape_memory_pins_what_a_desk_batch_keeps():
    """The bytes one desk training batch's tape keeps after the forward pass,
    walked as scripts/tape_memory.py walks it. A node that starts keeping an
    array its backward rule does not read moves this figure."""
    spec = importlib.util.spec_from_file_location(
        "tape_memory", os.path.join(SCRIPTS, "tape_memory.py"))
    tape_memory = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tape_memory)
    data = generate_synthetic(SyntheticSpec(n_examples=32, vocab_size=50, min_len=20,
                                            max_len=30, seed=0))
    model = build_from_examples(desk_config(), data)
    loss = gold_loss(model, data, rng=np.random.default_rng(0))
    holdings = tape_memory.tape_holdings(loss, model.params)
    nodes, held = (sum(column) for column in zip(*holdings.values()))
    assert (nodes, held) == (76, 23_413_208)


def test_tape_memory_measures_a_one_example_batch():
    done = subprocess.run([sys.executable, os.path.join(SCRIPTS, "tape_memory.py"),
                           "--examples", "1"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("batch: 1 examples, ")
    for row in ("peak during backward", "peak of a frozen forward", "InnerFusionLayer", "total"):
        assert row in done.stdout
