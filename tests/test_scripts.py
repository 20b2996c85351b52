"""Every script under scripts/ imports the package and parses its arguments."""

import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(SCRIPTS) if f.endswith(".py")))
def test_help_exits_zero(name):
    done = subprocess.run([sys.executable, os.path.join(SCRIPTS, name), "--help"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout
