"""Optimization loop and checkpointing.

Training runs shuffled mini-batches, each one packed pass to the batch's
mean span loss, clips the global gradient norm, and applies bias-corrected
Adam. After each epoch the dev set is scored; when dev EM fails to improve
on the running best the learning rate is halved ("bad checkpoint" rule);
the best-scoring parameters stay on disk and end up in the model.
Everything is driven by seeded generators, so a fixed seed fixes
initialization, batch order, dropout masks, and therefore the entire
metric log.
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

CHECKPOINT_VERSION = 3


@dataclass
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params, state):
    """Bias-corrected Adam over every parameter with a gradient."""
    for name, t in params.items():
        if t.grad is not None and not np.isfinite(t.grad).all():
            raise NumericsError(f"non-finite gradient in parameter {name}")
    state.step += 1
    bc1 = 1.0 - state.beta1 ** state.step
    bc2 = 1.0 - state.beta2 ** state.step
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
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * g * g
        t.data -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)


def clip_gradients(params, max_norm):
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for _, t in params.items():
        if t.grad is not None:
            total += float((t.grad * t.grad).sum())
    norm = total ** 0.5
    if max_norm > 0 and norm > max_norm:
        scale = max_norm / norm
        for _, t in params.items():
            if t.grad is not None:
                t.grad *= scale
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
    `config` must be the model's own config."""
    config.validate()
    if config != model.config:
        raise ConfigError("train() config differs from the config the model was built with")
    if not train_examples:
        raise DataError("training set is empty")
    if not dev_examples:
        raise DataError("dev set is empty")
    for ex in train_examples:
        if not ex.gold_spans:
            raise DataError(f"training example {ex.id} has no gold span")

    seeds = np.random.SeedSequence(config.seed).spawn(2)
    shuffle_rng = np.random.default_rng(seeds[0])
    dropout_rng = np.random.default_rng(seeds[1])
    state = AdamState(lr=config.lr)

    ckpt_path = None
    if run_dir is not None:
        os.makedirs(run_dir, exist_ok=True)
        with open(os.path.join(run_dir, "effective.cfg"), "w", encoding="utf-8") as fh:
            fh.write(to_text(config))
        ckpt_path = os.path.join(run_dir, "best.ckpt")

    history = []
    best_em, best_epoch, best_params = -1.0, 0, None
    status = "completed"
    n = len(train_examples)

    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(n)
        batch_losses = []
        halted = False
        for lo in range(0, n, config.batch_size):
            batch = [train_examples[idx] for idx in order[lo:lo + config.batch_size]]
            batch_loss = _optimizer_step(model, batch, state, config, dropout_rng)
            if batch_loss is None:
                log.error("non-finite loss or gradient at epoch %d; halting with best "
                          "checkpoint from epoch %d", epoch, best_epoch)
                status = "halted_nonfinite"
                halted = True
                break
            batch_losses.append(batch_loss)
        model.params.zero_grads()  # free the last step's gradients before evaluating and saving
        if halted:
            break

        dev_result = evaluate_model(model, dev_examples)
        row = {
            "epoch": epoch,
            "train_loss": float(np.mean(batch_losses)),
            "dev_em": dev_result.em,
            "dev_f1": dev_result.f1,
            "lr": state.lr,
        }
        history.append(row)

        if dev_result.em > best_em:
            best_em, best_epoch = dev_result.em, epoch
            best_params = {k: t.data.copy() for k, t in model.params.items()}
            if ckpt_path is not None:
                save_checkpoint(model, state, ckpt_path,
                                epoch=epoch, best_dev_em=best_em,
                                lr_history=[r["lr"] for r in history])
        else:
            state.lr /= 2.0  # bad checkpoint: dev EM did not improve

        if run_dir is not None:
            write_metrics_csv(history, os.path.join(run_dir, "metrics.csv"))

        if _early_stop(model, train_examples, dev_result, config):
            status = "early_stop"
            break

    if best_params is not None:
        for name, t in model.params.items():
            t.data[...] = best_params[name]
    return TrainResult(history=history, best_dev_em=best_em, best_epoch=best_epoch,
                       status=status, checkpoint_path=ckpt_path,
                       best_params=best_params)


def _optimizer_step(model, batch, state, config, rng):
    """One clipped Adam step on a batch's mean loss.

    The batch goes through one packed forward pass to one loss node (see
    `conductor.gold_loss`). Returns the loss as a float, or None (and no
    update) when the loss or the global gradient norm is not finite. The
    batch's tape lives only inside this call.
    """
    model.params.zero_grads()
    batch_loss = gold_loss(model, batch, rng=rng)
    if not np.isfinite(batch_loss.data):
        return None
    backward(batch_loss)
    model.params.apply_grad_masks()
    if not np.isfinite(clip_gradients(model.params, config.grad_clip)):
        return None
    adam_step(model.params, state)
    return float(batch_loss.data)


def _early_stop(model, train_examples, dev_result, config):
    if config.early_stop_dev_em <= 0:
        return False
    if dev_result.em < config.early_stop_dev_em:
        return False
    if config.early_stop_train_em > 0:
        train_em = evaluate_model(model, train_examples).em
        if train_em < config.early_stop_train_em:
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
# A checkpoint is one uncompressed npz archive: the member "meta" holds a
# JSON string with everything but the arrays, and each parameter and Adam
# moment is a native float64 member named "<section>/<parameter name>".


ADAM_SCALARS = ("lr", "beta1", "beta2", "eps", "step")


def save_checkpoint(model, state, path, epoch=0, best_dev_em=0.0, lr_history=()):
    meta = {
        "format_version": CHECKPOINT_VERSION,
        "config_hash": config_hash(model.config),
        "config": asdict(model.config),
        "epoch": epoch,
        "best_dev_em": best_dev_em,
        "lr_history": list(lr_history),
        "vocab": asdict(model.vocab),
        "adam": {key: getattr(state, key) for key in ADAM_SCALARS},
    }
    arrays = {f"params/{name}": t.data for name, t in model.params.items()}
    arrays.update({f"m/{name}": a for name, a in state.m.items()})
    arrays.update({f"v/{name}": a for name, a in state.v.items()})
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        np.savez(fh, meta=np.array(json.dumps(meta)), **arrays)
    os.replace(tmp, path)


def restore_model(path):
    """Verify a checkpoint and rebuild the model and Adam state it describes.
    The model is built from the stored parameter arrays; nothing is drawn."""
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
    for key in ("config", "adam", "vocab", "config_hash"):
        if key not in meta:
            raise CheckpointError(f"{path}: missing checkpoint section '{key}'")
    adam = meta["adam"]
    if not (isinstance(adam, dict) and set(adam) == set(ADAM_SCALARS)
            and all(type(adam[key]) in (int, float) for key in ADAM_SCALARS)):
        raise CheckpointError(f"{path}: checkpoint section 'adam' holds {adam!r}, "
                              f"expected the numbers {list(ADAM_SCALARS)}")
    try:
        config = RunConfig(**meta["config"])
    except TypeError as exc:
        raise CheckpointError(f"{path}: stored config is not a RunConfig: {exc}") from None
    if config_hash(config) != meta["config_hash"]:
        raise CheckpointError(
            f"{path}: stored config does not match the stored config hash "
            f"{meta['config_hash']!s:.12}...; refusing to load")
    try:
        vocab = Vocabulary(**meta["vocab"])
    except TypeError as exc:
        raise CheckpointError(f"{path}: stored vocab is not a Vocabulary: {exc}") from None
    if len(vocab.word_trainable) != len(vocab.word_tokens):
        raise CheckpointError(
            f"{path}: stored vocab has {len(vocab.word_trainable)} trainable flags "
            f"for {len(vocab.word_tokens)} words")

    stored = {key[len("params/"):]: arr for key, arr in arrays.items() if key.startswith("params/")}
    try:
        model = build_model(config, vocab, stored)
    except PhaseCondError as exc:  # an invalid stored config or a misshapen array
        raise CheckpointError(f"{path}: cannot build the stored model: {exc}") from None
    names = model.params.names()
    required = {f"params/{name}" for name in names}
    known = required | {f"{moment}/{name}" for moment in ("m", "v") for name in names}
    if not required <= set(arrays) <= known:
        raise CheckpointError(
            f"{path}: checkpoint arrays differ from the model's parameters (missing: "
            f"{sorted(required - set(arrays))[:3]}, unexpected: {sorted(set(arrays) - known)[:3]})")
    state = AdamState(**adam)
    for key, arr in arrays.items():
        section, _, name = key.partition("/")
        if section == "params":
            continue  # the model was built from these
        t = model.params[name]
        if arr.shape != t.data.shape or arr.dtype != np.float64:
            raise CheckpointError(
                f"{path}: {key}: checkpoint array {arr.dtype} {arr.shape} does not match "
                f"model float64 {t.data.shape}")
        getattr(state, section)[name] = arr
    return model, state
