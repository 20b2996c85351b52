"""The benchmark's per-layer spans wrap phasecond names; a rename must not drop one silently.

`bench/spans.py` records a target it cannot find as missing and goes on, so
a renamed function would only show up as an empty per-layer row. This test
resolves every target the way `Recorder.install()` does, without installing
anything.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Targets the benchmark lists that this version of the package does not have.
# The conductor runs the packed attention layers, not the one-example forms.
EXPECTED_MISSING = {"conductor.example_loss", "training.example_loss", "conductor.qp_align",
                    "conductor.qp_represent", "conductor.self_align", "conductor.self_propagate"}


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "bench_spans", os.path.join(ROOT, "bench", "spans.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_resolves():
    spans = load_spans()
    missing = set()
    for mod_name, attr, *_ in spans.TARGETS:
        module = importlib.import_module(f"phasecond.{mod_name}")
        try:
            owner, final = spans._resolve(module, attr)
            getattr(owner, final)
        except AttributeError:
            missing.add(f"{mod_name}.{attr}")
    assert missing == EXPECTED_MISSING
    for mod_name in spans.MAKE_NODE_OWNERS:
        assert hasattr(importlib.import_module(f"phasecond.{mod_name}"), "make_node"), mod_name
