"""Optimization loop and checkpointing.

Training runs shuffled mini-batches, each one packed pass to the batch's
mean span loss, clips the global gradient norm, and applies bias-corrected
Adam at config.lr for the whole run. After each epoch the dev set is scored;
the parameters of the best dev EM stay on disk and end up in the model.
A non-finite loss, gradient or probability anywhere in an epoch's steps or
evaluations halts the run with status "halted_nonfinite". Everything is
driven by seeded generators, so a fixed seed fixes initialization, batch
order, dropout masks, and therefore the entire metric log.
"""

import json
import logging
import os
import zipfile
from dataclasses import asdict, dataclass, field

import numpy as np

from .conductor import build_model, forward, gold_loss
from .config import RunConfig, config_hash, to_text
from .data import evaluate
from .errors import CheckpointError, ConfigError, DataError, NumericsError, PhaseCondError
from .features import Vocabulary
from .tensor import backward

log = logging.getLogger(__name__)

CHECKPOINT_VERSION = 7
GRAD_CLIP = 5.0  # the global gradient norm each step is clipped to
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator floor


@dataclass
class AdamState:
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, state, lr):
    """Bias-corrected Adam at step size lr over every parameter with a gradient."""
    for name, t in params.items():
        if t.grad is not None and not np.isfinite(t.grad).all():
            raise NumericsError(f"non-finite gradient in parameter {name}")
    state.step += 1
    bc1 = 1.0 - BETA1 ** state.step
    bc2 = 1.0 - BETA2 ** state.step
    for name, t in params.items():
        g = t.grad
        if g is None:
            continue
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(t.data)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(t.data)
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        t.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)


def clip_gradients(params):
    """Scale all gradients so their global L2 norm is at most GRAD_CLIP. Returns
    the norm before clipping. A norm that is not finite raises NumericsError
    before any gradient is scaled: it names the first parameter with a non-finite
    entry, or says the squared norm overflowed when every entry is finite."""
    grads = [t.grad for _, t in params.items() if t.grad is not None]
    norm = sum(float(np.vdot(g, g)) for g in grads) ** 0.5
    if not np.isfinite(norm):
        bad = next((name for name, t in params.items()
                    if t.grad is not None and not np.isfinite(t.grad).all()), None)
        raise NumericsError(f"non-finite gradient in parameter {bad}" if bad else
                            "the squared gradient norm overflowed")
    if norm > GRAD_CLIP:
        scale = GRAD_CLIP / norm
        for g in grads:
            g *= scale
    return norm


def predict(model, examples):
    """Answer texts decoded from the last-hop distributions."""
    out = {}
    for ex in examples:
        span = forward(model, ex).span
        out[ex.id] = ex.span_text(span.start, span.end)
    return out


def evaluate_model(model, examples):
    return evaluate(predict(model, examples), examples)


@dataclass
class TrainResult:
    history: list
    best_dev_em: float
    best_epoch: int
    status: str                   # "completed" | "early_stop" | "halted_nonfinite"
    checkpoint_path: str = None
    best_params: dict = None


def train(model, train_examples, dev_examples, config, run_dir=None):
    """Optimize the model and leave it at its best epoch; returns the metric history.
    `config` must be the model's own config; settings are read from `model.config`."""
    if config != model.config:
        raise ConfigError("train() config differs from the config the model was built with")
    cfg = model.config
    if not train_examples:
        raise DataError("training set is empty")
    if not dev_examples:
        raise DataError("dev set is empty")
    for ex in [*train_examples, *dev_examples]:
        if not ex.passage_tokens or not ex.question_tokens:
            raise DataError(f"example {ex.id} has an empty passage or question")
    for ex in train_examples:
        if not ex.gold_spans:
            raise DataError(f"training example {ex.id} has no gold span")
        span = tuple(ex.gold_spans[0])
        if not all(0 <= b < len(ex.passage_tokens) for b in span):
            raise DataError(f"training example {ex.id}: gold span {span} "
                            f"outside passage of length {len(ex.passage_tokens)}")
        if span[0] > span[1]:
            raise DataError(f"training example {ex.id}: gold span {span} ends before it starts")

    seeds = np.random.SeedSequence(cfg.seed).spawn(2)
    shuffle_rng = np.random.default_rng(seeds[0])
    dropout_rng = np.random.default_rng(seeds[1])
    state = AdamState()

    ckpt_path = None
    if run_dir is not None:
        os.makedirs(run_dir, exist_ok=True)
        with open(os.path.join(run_dir, "effective.cfg"), "w", encoding="utf-8") as fh:
            fh.write(to_text(cfg))
        ckpt_path = os.path.join(run_dir, "best.ckpt")

    history = []
    best_em, best_epoch, best_params = -1.0, 0, None
    status = "completed"
    n = len(train_examples)

    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        try:
            batch_losses = []
            for lo in range(0, n, cfg.batch_size):
                batch = [train_examples[idx] for idx in order[lo:lo + cfg.batch_size]]
                batch_losses.append(_optimizer_step(model, batch, state, dropout_rng))
            model.params.zero_grads()  # free the last step's gradients before evaluating and saving

            dev_result = evaluate_model(model, dev_examples)
            row = {
                "epoch": epoch,
                "train_loss": float(np.mean(batch_losses)),
                "dev_em": dev_result.em,
                "dev_f1": dev_result.f1,
                "lr": cfg.lr,
            }
            history.append(row)

            if dev_result.em > best_em:
                best_em, best_epoch = dev_result.em, epoch
                best_params = {k: t.data.copy() for k, t in model.params.items()}
                if ckpt_path is not None:
                    save_checkpoint(model, ckpt_path, epoch=epoch, best_dev_em=best_em)

            if run_dir is not None:
                write_metrics_csv(history, os.path.join(run_dir, "metrics.csv"))

            if _early_stop(model, train_examples, dev_result):
                status = "early_stop"
                break
        except NumericsError as exc:  # a step or an evaluation met a non-finite value
            log.error("%s at epoch %d; halting %s", exc, epoch,
                      f"with best checkpoint from epoch {best_epoch}" if history
                      else "before any epoch completed; no checkpoint was written")
            model.params.zero_grads()
            status = "halted_nonfinite"
            break

    if best_params is not None:
        for name, t in model.params.items():
            t.data[...] = best_params[name]
    return TrainResult(history=history, best_dev_em=best_em, best_epoch=best_epoch,
                       status=status, checkpoint_path=ckpt_path,
                       best_params=best_params)


def _optimizer_step(model, batch, state, rng):
    """One clipped Adam step on a batch's mean loss.

    The batch goes through one packed forward pass to one loss node (see
    `conductor.gold_loss`). Returns the loss as a float. A non-finite loss,
    gradient or gradient norm raises NumericsError before any parameter moves:
    `clip_gradients` checks the norm before it scales anything. The batch's
    tape lives only inside this call.
    """
    model.params.zero_grads()
    batch_loss = gold_loss(model, batch, rng=rng)
    if not np.isfinite(batch_loss.data):
        raise NumericsError(f"batch loss is not finite: {float(batch_loss.data)}")
    backward(batch_loss)
    model.params.apply_grad_masks()
    clip_gradients(model.params)
    adam_step(model.params, state, model.config.lr)
    return float(batch_loss.data)


def _early_stop(model, train_examples, dev_result):
    if model.config.early_stop_dev_em <= 0:
        return False
    if dev_result.em < model.config.early_stop_dev_em:
        return False
    if model.config.early_stop_train_em > 0:
        train_em = evaluate_model(model, train_examples).em
        if train_em < model.config.early_stop_train_em:
            return False
    return True


def write_metrics_csv(history, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,dev_em,dev_f1,lr\n")
        for row in history:
            fh.write(f"{row['epoch']},{row['train_loss']:.6f},{row['dev_em']:.4f},"
                     f"{row['dev_f1']:.4f},{row['lr']:.10g}\n")


# ---------------------------------------------------------------------------
# Checkpoints
#
# A checkpoint is one uncompressed npz archive of the model alone: a JSON "meta"
# member (config, hash, vocabulary, run record) and one native float64 member
# "params/<name>" per parameter. No Adam state is stored: runs do not resume.


RUN_RECORD = ("epoch", "best_dev_em")


def save_checkpoint(model, path, epoch=0, best_dev_em=0.0):
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "config_hash": config_hash(asdict(model.config)),
        "config": asdict(model.config),
        "epoch": epoch,
        "best_dev_em": best_dev_em,
        "vocab": asdict(model.vocab),
    }
    arrays = {f"params/{name}": t.data for name, t in model.params.items()}
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)
    os.replace(tmp, path)


def restore_model(path):
    """Verify a checkpoint; returns its model, built from the stored arrays with no
    draw, and its run record {epoch, best_dev_em}."""
    try:
        with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as npz:
            meta = json.loads(str(npz["meta"]))
            arrays = {name: npz[name] for name in npz.files if name != "meta"}
    except (zipfile.BadZipFile, KeyError, ValueError, EOFError) as exc:
        raise CheckpointError(
            f"{path}: truncated or corrupt checkpoint (expected a version "
            f"{CHECKPOINT_VERSION} npz archive): {exc}") from None
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: checkpoint meta is a {type(meta).__name__}, not an object")
    if meta.get("format_version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {meta.get('format_version')}")
    for key in ("config", "vocab", "config_hash", *RUN_RECORD):
        if key not in meta:
            raise CheckpointError(f"{path}: missing checkpoint section '{key}'")
    record = {key: meta[key] for key in RUN_RECORD}
    if not (type(record["epoch"]) is int and type(record["best_dev_em"]) in (int, float)):
        raise CheckpointError(f"{path}: checkpoint run record holds {record!r}, expected an "
                              "integer epoch and a number best_dev_em")
    try:
        config = RunConfig(**meta["config"])
    except (TypeError, ConfigError) as exc:
        raise CheckpointError(f"{path}: stored config is not a RunConfig: {exc}") from None
    if config_hash(meta["config"]) != meta["config_hash"]:
        raise CheckpointError(
            f"{path}: stored config does not match the stored config hash "
            f"{meta['config_hash']!s:.12}...; refusing to load")
    try:
        vocab = Vocabulary(**meta["vocab"])
    except (TypeError, DataError) as exc:
        raise CheckpointError(f"{path}: stored vocab is not a Vocabulary: {exc}") from None

    stored = {key[len("params/"):]: arr for key, arr in arrays.items() if key.startswith("params/")}
    try:
        model = build_model(config, vocab, stored)
    except PhaseCondError as exc:  # a misshapen stored array
        raise CheckpointError(f"{path}: cannot build the stored model: {exc}") from None
    required, present = {f"params/{name}" for name in model.params.names()}, set(arrays)
    if present != required:
        raise CheckpointError(
            f"{path}: checkpoint arrays differ from the model's parameters (missing: "
            f"{sorted(required - present)[:3]}, unexpected: {sorted(present - required)[:3]})")
    return model, record
