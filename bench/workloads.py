"""The benchmark's workloads: inputs, set-up, the timed task, output checks.

Every call into phasecond goes through a module attribute
(`training.train`, `data.generate_synthetic`, ...), so the wrappers that
`spans.Recorder` installs see it.

desk-train   the acceptance desk run: train() to the early-stop criterion.
squad-train  one train() epoch at the SQuAD-like shape (default RunConfig, batch 4).
squad-infer  predict() one example at a time with a restored SQuAD-like model.
"""

import contextlib
import hashlib
import math
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from phasecond import conductor, data, training
from phasecond.config import RunConfig

# The acceptance desk run (tests/test_acceptance.py, criterion 7).
DESK_TRAIN_EM = 95.0
DESK_DEV_EM = 90.0
DESK_EPOCH_BUDGET = 300


def desk_config():
    return RunConfig(hidden=32, word_dim=16, char_dim=8, char_filters=8, feat_dim=8,
                     dropout=0.1, lr=0.01, batch_size=32, seed=7,
                     epochs=DESK_EPOCH_BUDGET, early_stop_train_em=DESK_TRAIN_EM,
                     early_stop_dev_em=DESK_DEV_EM)


# SQuAD-like shape: passages of 150-450 tokens over a 2,000-token vocabulary.
SQUAD_MIN_LEN = 150
SQUAD_MAX_LEN = 450
SQUAD_VOCAB = 2000
SQUAD_TRAIN = 24
SQUAD_DEV = 24
SQUAD_INFER = 60
# A default 32-example batch at these lengths keeps about 6 GB of tape alive
# (about 190 MB per 300-token example), so squad-train steps on 4 examples.
SQUAD_BATCH = 4


def squad_like(n, seed, stream):
    """n synthetic cloze examples with lengths spread evenly over 150-450 tokens.

    The length profile (one length at the middle of each 300/n-token stratum,
    in an order fixed per stream) is the same for every seed, so the work per
    run and the make-up of each batch stay put; the seed picks the tokens,
    the answers and their positions.
    """
    width = (SQUAD_MAX_LEN - SQUAD_MIN_LEN) / n
    lengths = [int(SQUAD_MIN_LEN + (i + 0.5) * width) for i in range(n)]
    order = np.random.default_rng(stream).permutation(n)
    base = int(np.random.SeedSequence([seed, stream]).generate_state(1)[0]) * 1000
    examples = []
    for i, k in enumerate(order):
        examples += data.generate_synthetic(data.SyntheticSpec(
            n_examples=1, vocab_size=SQUAD_VOCAB, min_len=lengths[k], max_len=lengths[k],
            seed=base + i))
    return examples


def tail(samples):
    """(value, percentile): the highest percentile with ten samples above it."""
    xs = sorted(samples)
    k = max(len(xs) - 10, 1)
    return xs[k - 1], 100.0 * k / len(xs)


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class TrainProbe:
    """Watches train() through five names in `phasecond.training`.

    It keeps each optimizer step's loss and backward() time, the time train()
    spends outside optimizer steps (evaluation, checkpoint, metric file), and
    the latency and decoded span length of every forward() made while
    evaluating the dev set. Each wrapper adds two clock reads per call, so
    untraced runs use it too.
    """

    OUTSIDE_STEPS = ("evaluate_model", "save_checkpoint", "write_metrics_csv")

    def __init__(self):
        self.reset()
        self._undo = []
        backward, forward = training.backward, training.forward

        def record_step(loss):
            self.losses.append(float(loss.data))
            t0 = time.perf_counter()
            try:
                return backward(loss)
            finally:
                self.backward_s += time.perf_counter() - t0

        def record_eval_forward(model, example, *args, **kwargs):
            t0 = time.perf_counter()
            result = forward(model, example, *args, **kwargs)
            if self._evaluating:
                self.latencies.append((example.id, time.perf_counter() - t0))
                span = result.span
                self.span_lengths.append((span.end - span.start + 1, model.config.max_span))
            return result

        self._patch("backward", record_step)
        self._patch("forward", record_eval_forward)
        for name in self.OUTSIDE_STEPS:
            self._patch(name, self._timed(getattr(training, name)))

    def _timed(self, fn):
        def wrapper(*args, **kwargs):
            self._evaluating = fn.__name__ == "evaluate_model" and args[1] is self._dev_set
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.outside_s += time.perf_counter() - t0
                self._evaluating = False
        return wrapper

    def _patch(self, name, new):
        self._undo.append((name, getattr(training, name)))
        setattr(training, name, new)

    def reset(self, dev_set=None):
        self._dev_set = dev_set
        self.losses = []
        self.latencies = []
        self.span_lengths = []
        self.outside_s = 0.0
        self.backward_s = 0.0
        self._evaluating = False

    def uninstall(self):
        while self._undo:
            name, fn = self._undo.pop()
            setattr(training, name, fn)


class Run:
    """Measurements, checks and operation counts of one workload run."""

    def __init__(self, seconds, recorder, workdir):
        self.seconds = seconds
        self.recorder = recorder
        self.workdir = workdir
        self.setup_s = []
        self.task_s = []
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.info = {}
        self.exact = {}          # values two runs of the same code must repeat
        self.outside_span = 0
        self.backward_s = 0.0   # inside training's backward(), as the probe sees it
        self.counts = {"trained": 0, "epochs": 0, "setups": 0, "task_examples": 0,
                       "ckpt_bytes": 0, "main_region": ("bench.task",),
                       "main_excluded": ()}

    def phase(self, name):
        return self.recorder.span(name) if self.recorder else contextlib.nullcontext()

    def check(self, name, ok, detail=""):
        self.checks.append({"check": name, "ok": bool(ok), "detail": str(detail)})
        return ok

    def run_dir(self, tag):
        path = os.path.join(self.workdir, f"{tag}-{len(self.task_s)}")
        os.makedirs(path, exist_ok=True)
        return path

    def setup(self, fn, repeats):
        """Run `fn` `repeats` times, timing each; returns the last result.

        All of a run's set-ups happen before its task: set-ups after a
        training run measured about 20% slower, so mixing the two would make
        the median jump between them.
        """
        out = None
        for _ in range(repeats):
            out = None  # let the previous set-up's model go before building the next
            with self.phase("bench.setup"):
                t0 = time.perf_counter()
                out = fn()
                self.setup_s.append(time.perf_counter() - t0)
            self.counts["setups"] += 1
        return out

    def failure(self, what):
        self.failed += 1
        self.check(what, False, traceback.format_exc(limit=3).strip().splitlines()[-1])
        traceback.print_exc(file=sys.stderr)

    def predict_each(self, model, examples, max_span):
        """predict() one example at a time; returns {id: text} and counts failures."""
        preds = {}
        for ex in examples:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                text = training.predict(model, [ex])[ex.id]
            except Exception:  # a failed prediction is counted; the run goes on
                self.failure(f"predict {ex.id}")
                continue
            self.latencies.append((ex.id, time.perf_counter() - t0))
            preds[ex.id] = text
            self.span_within(len(text.split()), max_span)
        return preds

    def span_within(self, length, max_span):
        if not 1 <= length <= max_span:
            self.failed += 1
            self.outside_span += 1

    def take_probe(self, probe):
        """Count the steps and evaluation forwards of the last train() call."""
        bad = sum(not math.isfinite(x) for x in probe.losses)
        self.attempted += len(probe.losses) + len(probe.latencies)
        self.failed += bad
        self.check("finite step losses", bad == 0 and probe.losses,
                   f"{bad} of {len(probe.losses)} non-finite")
        self.info.setdefault("step_losses", []).extend(probe.losses)
        self.latencies += probe.latencies
        for length, max_span in probe.span_lengths:
            self.span_within(length, max_span)
        self.backward_s += probe.backward_s

    def metrics(self, task_examples_per_s):
        """The end-to-end metrics.

        An example's latency is the median of its timed predictions in the
        run (desk-train evaluates each dev example once per epoch), so p50
        and the tail describe examples rather than the machine's hiccups.
        """
        self.check("decoded spans within max_span", self.outside_span == 0,
                   f"{self.outside_span} of {len(self.latencies)} outside")
        by_example = {}
        for example_id, seconds in self.latencies:
            by_example.setdefault(example_id, []).append(seconds)
        per_example = [statistics.median(v) for v in by_example.values()] or [math.nan]
        p_tail, pct = tail(per_example)
        if self.backward_s:
            self.info["backward_ms_per_example"] = (
                1000.0 * self.backward_s / self.counts["trained"])
        self.info["infer_calls"] = len(self.latencies)
        self.info["infer_examples"] = len(by_example)
        self.info["infer_tail_percentile"] = pct
        self.info["latencies_ms"] = [[i, 1000.0 * t] for i, t in self.latencies]
        return {
            "setup_s": statistics.median(self.setup_s),
            "task_s": statistics.median(self.task_s) if self.task_s else math.nan,
            "task_examples_per_s": task_examples_per_s,
            "infer_examples_per_s": len(self.latencies) / sum(t for _, t in self.latencies),
            "infer_ms_p50": 1000.0 * statistics.median(per_example),
            "infer_ms_tail": 1000.0 * p_tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def _training_workload(run, cfg, setup, setup_repeats, after_train):
    """Set up, then train() and check, until run.seconds of train() time have passed.

    `setup()` returns (train_set, dev_set, model); `after_train(result,
    checkpoint path, dev_set)` runs the workload's own checks.
    Inference metrics come from the forwards of train()'s dev evaluations.
    """
    run.counts["main_excluded"] = ("training.eval", "training.ckpt_save",
                                   "training.metrics_csv")
    probe = TrainProbe()
    try:
        train_set, dev_set, model = run.setup(setup, setup_repeats)
        run.info["params"] = model.parameter_count()
        step_s = 0.0
        while True:
            probe.reset(dev_set)
            run_dir = run.run_dir("train")
            with run.phase("bench.task"):
                t0 = time.perf_counter()
                result = training.train(model, train_set, dev_set, cfg, run_dir=run_dir)
                elapsed = time.perf_counter() - t0
            model = None
            run.task_s.append(elapsed)
            run.take_probe(probe)
            epochs = len(result.history)
            step_s += elapsed - probe.outside_s
            run.counts["trained"] += epochs * len(train_set)
            run.counts["task_examples"] += epochs * len(train_set)
            run.counts["epochs"] += epochs
            run.check("finite epoch losses",
                      all(math.isfinite(r["train_loss"]) for r in result.history))
            ckpt = result.checkpoint_path
            run.counts["ckpt_bytes"] = os.path.getsize(ckpt)
            run.exact["training.ckpt_bytes"] = run.counts["ckpt_bytes"]
            with run.phase("bench.check"):
                after_train(result, ckpt, dev_set)
            if sum(run.task_s) >= run.seconds:
                return run.metrics(run.counts["trained"] / step_s)
            train_set, dev_set, model = run.setup(setup, 1)
    finally:
        probe.uninstall()


def desk_train(run, seed):
    """The acceptance desk run, trained until its early-stop criterion."""
    cfg = desk_config()
    # The acceptance data for every seed: other data seeds need far more
    # epochs than this one, so time to criterion would measure the data.
    run.info["inputs"] = "acceptance data: synthetic seeds 0 and 1, model seed 7"

    def setup():
        train_set = data.generate_synthetic(data.SyntheticSpec(
            n_examples=200, vocab_size=50, min_len=20, max_len=30, seed=0))
        dev_set = data.generate_synthetic(data.SyntheticSpec(
            n_examples=50, vocab_size=50, min_len=20, max_len=30, seed=1))
        return train_set, dev_set, conductor.build_from_examples(cfg, train_set)

    def after_train(result, ckpt, dev_set):
        epochs = len(result.history)
        run.check("early stop within the epoch budget",
                  result.status == "early_stop" and epochs <= DESK_EPOCH_BUDGET,
                  f"{result.status} after {epochs} epochs")
        last = result.history[-1]["dev_em"]
        run.check("criterion dev EM", last >= DESK_DEV_EM, last)
        csv_sha = sha256_file(os.path.join(os.path.dirname(ckpt), "metrics.csv"))
        run.info["metrics_csv_sha256"] = run.exact["desk.metrics_csv_sha256"] = csv_sha
        run.info["dev_em_by_epoch"] = [r["dev_em"] for r in result.history]
        restored, _ = training.restore_model(ckpt)
        dev_em = data.evaluate(training.predict(restored, dev_set), dev_set).em
        run.check("best checkpoint reproduces best dev EM", dev_em == result.best_dev_em,
                  f"{dev_em} vs {result.best_dev_em}")

    return _training_workload(run, cfg, setup, 21, after_train)


def squad_train(run, seed):
    """One train() epoch at the SQuAD-like shape."""
    cfg = RunConfig(epochs=1, batch_size=SQUAD_BATCH)

    def setup():
        train_set = squad_like(SQUAD_TRAIN, seed, 0)
        dev_set = squad_like(SQUAD_DEV, seed, 1)
        return train_set, dev_set, conductor.build_from_examples(cfg, train_set)

    def after_train(result, ckpt, dev_set):
        run.check("one completed epoch",
                  result.status == "completed" and len(result.history) == 1, result.status)
        restored, _ = training.restore_model(ckpt)
        same = (set(result.best_params) == set(restored.params.names())
                and all(np.array_equal(result.best_params[name], t.data)
                        for name, t in restored.params.items()))
        run.check("checkpoint restores the saved parameters", same)

    return _training_workload(run, cfg, setup, 5, after_train)


def squad_infer(run, seed):
    """predict() over a fixed set with a model restored from its checkpoint."""
    cfg = RunConfig(epochs=1, batch_size=1)

    # The checkpoint comes from one optimizer step, so it carries Adam state
    # like the checkpoints squad-train writes. Making it is not set-up time.
    with run.phase("bench.fixture"):
        examples = squad_like(SQUAD_INFER, seed, 2)
        source = conductor.build_from_examples(cfg, examples)
        by_length = sorted(examples, key=lambda ex: len(ex.passage_tokens))
        fixture = training.train(source, by_length[:1], by_length[1:2], cfg,
                                 run_dir=run.run_dir("fixture"))
    run.counts["trained"] += 1
    run.counts["epochs"] += len(fixture.history)
    ckpt = fixture.checkpoint_path
    run.counts["ckpt_bytes"] = os.path.getsize(ckpt)
    run.exact["training.ckpt_bytes"] = run.counts["ckpt_bytes"]
    run.info["params"] = source.parameter_count()

    def setup():
        items = squad_like(SQUAD_INFER, seed, 2)
        model, _ = training.restore_model(ckpt)
        return items, model

    examples, model = run.setup(setup, 3)
    preds = {}
    while sum(run.task_s) < run.seconds:
        with run.phase("bench.task"):
            t0 = time.perf_counter()
            preds = run.predict_each(model, examples, cfg.max_span)
            run.task_s.append(time.perf_counter() - t0)
        run.counts["task_examples"] += len(examples)

    with run.phase("bench.check"):
        subset = examples[::8]
        source_preds = {ex.id: training.predict(source, [ex])[ex.id] for ex in subset}
        differ = [i for i, p in source_preds.items() if preds.get(i) != p]
        run.check("restored predictions equal the source model's", not differ,
                  f"{len(differ)} of {len(subset)} differ")
        scores = data.evaluate(preds, examples)
    run.info["em_f1"] = [scores.em, scores.f1]
    return run.metrics(run.counts["task_examples"] / sum(run.task_s))


# What task_s and task_examples_per_s are on each workload.
TASK_NAMES = {
    "desk-train": ("time_to_criterion_s", "train_examples_per_s"),
    "squad-train": ("epoch_s", "train_examples_per_s"),
    "squad-infer": ("predict_pass_s", "infer_examples_per_s"),
}

WORKLOADS = {
    "desk-train": desk_train,
    "squad-train": squad_train,
    "squad-infer": squad_infer,
}
