"""Every script under scripts/ imports the package and parses its arguments, and
the tape memory harness pins what a desk batch keeps."""

import importlib.util
import os
import subprocess
import sys

import numpy as np
import pytest

from phasecond.conductor import build_from_examples, gold_loss
from phasecond.config import desk_config
from phasecond.data import SyntheticSpec, generate_synthetic

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(SCRIPTS) if f.endswith(".py")))
def test_help_exits_zero(name):
    done = subprocess.run([sys.executable, os.path.join(SCRIPTS, name), "--help"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


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
    assert (nodes, held) == (825, 36_781_528)
