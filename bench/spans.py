"""Per-layer timing of phasecond, measured from outside the package.

`Recorder.install()` replaces the public functions of each phasecond module,
and the names other modules import from them, with wrappers that record a
span per call: name, start, end, parent span and example id. It also wraps
`tensor.make_node` (and the `make_node` names bound in `encoders` and
`features`) so that every tape node is counted against the span that created
it and its backward closure is timed under that span's layer. Spans stay in
memory until `write()` saves them at the end of the run.

A layer is the first part of a span name ("attention" in "attention.ls_fwd").
"""

import contextlib
import functools
import importlib
import json
import math
import time
from collections import defaultdict

# Fields of a span record.
NAME, START, END, PARENT, EXAMPLE, NODES, WORK = range(7)


def _lstm_rows(args):
    return math.prod(args[0].data.shape[:-1])


def _self_align_flops(args):
    # scores = h @ h.T: 2 n n w multiply-adds counted as flops
    n, w = args[0].data.shape
    return 2 * n * n * w


def _self_propagate_flops(args):
    n, k = args[0].weights.data.shape
    return 2 * n * k * args[1].data.shape[1]


# (module, attribute, span name, index of the example argument or None, work)
# `work` maps the call's positional arguments to a count stored on the span.
TARGETS = (
    ("data", "generate_synthetic", "data.generate", None, None),
    ("data", "evaluate", "data.evaluate", None, None),
    ("training", "evaluate", "data.evaluate", None, None),
    ("conductor", "exact_match_features", "features.match", None, None),
    ("features", "FeatureExtractor.embed_sequence", "features.embed", None, None),
    ("encoders", "EncoderPair.encode_independent_question", "encoders.fwd", None, None),
    ("encoders", "EncoderPair.encode_shared", "encoders.fwd", None, None),
    ("encoders", "lstm_direction", "encoders.lstm", None, _lstm_rows),
    ("attention", "qp_align", "attention.lq_fwd", None, None),
    ("attention", "qp_represent", "attention.lq_fwd", None, None),
    ("attention", "self_align", "attention.ls_fwd", None, _self_align_flops),
    ("attention", "self_propagate", "attention.ls_fwd", None, _self_propagate_flops),
    ("conductor", "qp_align", "attention.lq_fwd", None, None),
    ("conductor", "qp_represent", "attention.lq_fwd", None, None),
    ("conductor", "self_align", "attention.ls_fwd", None, _self_align_flops),
    ("conductor", "self_propagate", "attention.ls_fwd", None, _self_propagate_flops),
    ("fusion", "OuterFusionStack.__call__", "fusion.fo_fwd", None, None),
    ("fusion", "InnerFusionLayer.__call__", "fusion.fi_fwd", None, None),
    ("pointer", "PointerHead.initial_query", "pointer.fwd", None, None),
    ("pointer", "PointerHead.predict_span", "pointer.fwd", None, None),
    ("pointer", "span_loss", "pointer.loss", None, None),
    ("conductor", "span_loss", "pointer.loss", None, None),
    ("conductor", "forward", "conductor.forward", 1, None),
    ("training", "forward", "conductor.forward", 1, None),
    ("conductor", "example_loss", "conductor.example_loss", 1, None),
    ("training", "example_loss", "conductor.example_loss", 1, None),
    ("conductor", "build_model", "conductor.build", None, None),
    ("conductor", "build_from_examples", "conductor.build", None, None),
    ("training", "build_model", "conductor.build", None, None),
    ("tensor", "backward", "tensor.backward", None, None),
    ("training", "backward", "tensor.backward", None, None),
    ("training", "train", "training.train", None, None),
    ("training", "clip_gradients", "training.clip", None, None),
    ("training", "adam_step", "training.adam", None, None),
    ("training", "evaluate_model", "training.eval", None, None),
    ("training", "predict", "training.predict", None, None),
    ("training", "save_checkpoint", "training.ckpt_save", None, None),
    ("training", "restore_model", "training.ckpt_load", None, None),
    ("training", "write_metrics_csv", "training.metrics_csv", None, None),
)

MAKE_NODE_OWNERS = ("tensor", "encoders", "features")

# Layers that own a *.bwd_ms row.
LAYERS = ("features", "encoders", "attention", "fusion", "pointer", "conductor", "training")


def _resolve(module, attr):
    """(owner object, final attribute name) for a dotted attribute path."""
    owner = module
    parts = attr.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Recorder:
    """In-memory spans plus backward-closure time per layer."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, example, nodes, work]
        self.closure_s = defaultdict(float)
        self.missing = []        # wrap targets absent from this version of the code
        self._open = []
        self._layers = []        # layer of each open span
        self._undo = []

    # -- spans ---------------------------------------------------------------
    def open(self, name, example=None):
        parent = self._open[-1] if self._open else -1
        if example is None and parent >= 0:
            example = self.spans[parent][EXAMPLE]
        self.spans.append([name, time.perf_counter(), 0.0, parent, example, 0, 0])
        self._open.append(len(self.spans) - 1)
        self._layers.append(name.split(".")[0])
        return len(self.spans) - 1

    def close(self, idx):
        self.spans[idx][END] = time.perf_counter()
        self._open.pop()
        self._layers.pop()

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- wrapping ------------------------------------------------------------
    def _wrap_call(self, fn, name, example_arg, work):
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            example = None
            if example_arg is not None and len(args) > example_arg:
                example = getattr(args[example_arg], "id", None)
            idx = recorder.open(name, example)
            try:
                return fn(*args, **kwargs)
            finally:
                if work is not None:
                    recorder.spans[idx][WORK] = work(args)
                recorder.close(idx)

        return wrapper

    def _wrap_make_node(self, make_node):
        recorder = self
        perf = time.perf_counter

        closure_s = recorder.closure_s

        @functools.wraps(make_node)
        def wrapper(data, parents, backward_fn):
            layer = recorder._layers[-1] if recorder._layers else "none"

            def timed_backward(g):
                t0 = perf()
                try:
                    return backward_fn(g)
                finally:
                    closure_s[layer] += perf() - t0

            out = make_node(data, parents, timed_backward)
            if out.requires_grad and recorder._open:
                recorder.spans[recorder._open[-1]][NODES] += 1
            return out

        return wrapper

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target that exists in the imported phasecond package."""
        modules = {}
        for mod_name, attr, name, example_arg, work in TARGETS:
            module = modules.setdefault(mod_name, importlib.import_module(f"phasecond.{mod_name}"))
            try:
                owner, final = _resolve(module, attr)
                fn = getattr(owner, final)
            except AttributeError:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            self._patch(owner, final, self._wrap_call(fn, name, example_arg, work))
        for mod_name in MAKE_NODE_OWNERS:
            module = importlib.import_module(f"phasecond.{mod_name}")
            if not hasattr(module, "make_node"):
                self.missing.append(f"{mod_name}.make_node")
                continue
            self._patch(module, "make_node", self._wrap_make_node(module.make_node))
        return self

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------
    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "example", "nodes", "work"],
                       "spans": self.spans,
                       "closure_s": dict(self.closure_s),
                       "missing": self.missing}, fh)


def outermost(spans):
    """Flags spans that have no ancestor of the same name."""
    flags = []
    for s in spans:
        p = s[PARENT]
        while p >= 0 and spans[p][NAME] != s[NAME]:
            p = spans[p][PARENT]
        flags.append(p < 0)
    return flags


def inside(spans, names, excluded=()):
    """Flags spans that lie under a span named in `names` but under none in `excluded`."""
    flags = []
    for s in spans:
        p = s[PARENT]
        parent_flag = flags[p] if p >= 0 else False
        if s[NAME] in excluded:
            flags.append(False)
        elif s[NAME] in names:
            flags.append(True)
        else:
            flags.append(parent_flag)
    return flags


def summarize(recorder, counts):
    """Per-layer metrics from a finished run.

    `counts` gives the run's denominators:
      trained         examples back-propagated
      epochs          train() epochs run
      setups          benchmark set-ups
      task_examples   examples in the workload's main operation
      main_region     span names that open the main operation
      main_excluded   span names inside it that do not belong to it
      ckpt_bytes      size of the last checkpoint written
    Returns (metrics {name: (value, unit)}, layer self times in seconds,
    backward accounting {"rows_s", "backward_s"}).
    """
    spans = recorder.spans
    top = outermost(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    child_s = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]
    forward_self = 0.0
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        own = dur - child_s[i]
        self_s[s[NAME].split(".")[0]] += own
        if s[NAME] == "conductor.forward":
            forward_self += own
        if top[i]:
            total[s[NAME]] += dur
            calls[s[NAME]] += 1

    region = inside(spans, set(counts["main_region"]), set(counts["main_excluded"]))
    in_setup = inside(spans, {"bench.setup"})
    nodes = rows = flops = 0
    generate_s = 0.0
    for i, s in enumerate(spans):
        if in_setup[i] and top[i] and s[NAME] == "data.generate":
            generate_s += s[END] - s[START]
        if region[i]:
            nodes += s[NODES]
            if s[NAME] == "encoders.lstm":
                rows += s[WORK]
            elif s[NAME] == "attention.ls_fwd":
                flops += s[WORK]

    def per(value, n):
        return value / n if n else 0.0

    fwd = calls["conductor.forward"]
    trained = counts["trained"]
    task = counts["task_examples"]
    closure = recorder.closure_s
    backward_s = total["tensor.backward"]
    walk_self = backward_s - sum(closure.values())
    ms = 1000.0
    m = {
        "features.embed_ms": (per(total["features.embed"] + total["features.match"], fwd) * ms, "ms"),
        "features.bwd_ms": (per(closure["features"], trained) * ms, "ms"),
        "encoders.fwd_ms": (per(total["encoders.fwd"], fwd) * ms, "ms"),
        "encoders.bwd_ms": (per(closure["encoders"], trained) * ms, "ms"),
        "encoders.lstm_rows": (per(rows, task), "count"),
        "attention.lq_fwd_ms": (per(total["attention.lq_fwd"], fwd) * ms, "ms"),
        "attention.ls_fwd_ms": (per(total["attention.ls_fwd"], fwd) * ms, "ms"),
        "attention.bwd_ms": (per(closure["attention"], trained) * ms, "ms"),
        "attention.ls_flops": (per(flops, task), "computed_flop"),
        "fusion.fo_fwd_ms": (per(total["fusion.fo_fwd"], fwd) * ms, "ms"),
        "fusion.fi_fwd_ms": (per(total["fusion.fi_fwd"], fwd) * ms, "ms"),
        "fusion.bwd_ms": (per(closure["fusion"], trained) * ms, "ms"),
        "pointer.fwd_ms": (per(total["pointer.fwd"], fwd) * ms, "ms"),
        "pointer.loss_ms": (per(total["pointer.loss"], trained) * ms, "ms"),
        "pointer.bwd_ms": (per(closure["pointer"], trained) * ms, "ms"),
        "conductor.forward_ms": (per(total["conductor.forward"], fwd) * ms, "ms"),
        "conductor.self_ms": (per(forward_self, fwd) * ms, "ms"),
        "conductor.bwd_ms": (per(closure["conductor"], trained) * ms, "ms"),
        "tensor.backward_ms": (per(backward_s, trained) * ms, "ms"),
        "tensor.walk_self_ms": (per(walk_self, trained) * ms, "ms"),
        "tensor.nodes_per_example": (per(nodes, task), "count"),
        "training.bwd_ms": (per(closure["training"], trained) * ms, "ms"),
        "training.clip_ms": (per(total["training.clip"], calls["training.clip"]) * ms, "ms"),
        "training.adam_ms": (per(total["training.adam"], calls["training.adam"]) * ms, "ms"),
        "training.eval_ms": (per(total["training.eval"], counts["epochs"]) * ms, "ms"),
        "training.epochs_to_criterion": (counts["epochs"], "count"),
        "training.ckpt_save_s": (per(total["training.ckpt_save"], calls["training.ckpt_save"]), "s"),
        "training.ckpt_load_s": (per(total["training.ckpt_load"], calls["training.ckpt_load"]), "s"),
        "training.ckpt_bytes": (counts["ckpt_bytes"], "count"),
        "data.generate_s": (per(generate_s, counts["setups"]), "s"),
        "data.evaluate_ms": (per(total["data.evaluate"], calls["data.evaluate"]) * ms, "ms"),
    }
    # Closures run inside tensor.backward spans but belong to the layer that
    # created their node.
    self_s["tensor"] -= sum(closure.values())
    for layer, seconds in closure.items():
        self_s[layer] += seconds
    rows_s = sum(v for k, v in closure.items() if k in LAYERS) + walk_self
    return m, dict(self_s), {"rows_s": rows_s, "backward_s": backward_s}

