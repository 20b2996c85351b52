import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from phasecond import tensor as T
from phasecond import training
from phasecond.conductor import build_from_examples, forward, gold_loss
from phasecond.config import RunConfig, apply_overrides, config_hash, desk_config, from_file
from phasecond.data import EvalResult, SyntheticSpec, generate_synthetic
from phasecond.errors import CheckpointError, ConfigError, DataError, NumericsError, ShapeError
from phasecond.features import Vocabulary
from phasecond.params import ParamSet, constant
from phasecond.tensor import Tensor, backward
from phasecond.training import (
    AdamState,
    _optimizer_step,
    adam_step,
    clip_gradients,
    predict,
    restore_model,
    save_checkpoint,
    train,
)


def small_config(**over):
    base = dict(hidden=3, word_dim=6, char_dim=4, char_filters=4, char_width=5,
                feat_dim=3, dropout=0.0, seed=0, batch_size=4, epochs=2,
                pointer_hops=1)
    base.update(over)
    return RunConfig(**base)


def tiny_dataset(n=8, seed=0):
    return generate_synthetic(SyntheticSpec(n_examples=n, vocab_size=20,
                                            min_len=8, max_len=10, seed=seed))


def adam_oracle(grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Scalar Adam recurrence computed independently."""
    m = v = 0.0
    theta = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        theta -= lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
    return theta


@pytest.mark.parametrize("field,value", [
    ("char_width", 0), ("char_width", -1), ("char_dim", 0), ("char_filters", 0), ("epochs", 0),
    ("word_dim", 0), ("word_dim", -1), ("feat_dim", 0), ("feat_dim", -2)])
def test_config_values_below_one_rejected_before_any_work(field, value):
    with pytest.raises(ConfigError, match=f"{field} must be >= 1"):
        small_config(**{field: value})


def test_train_refuses_a_config_other_than_the_models():
    data = tiny_dataset(n=2)
    model = build_from_examples(small_config(), data)
    with pytest.raises(ConfigError, match="differs"):
        train(model, data, data, small_config(dropout=0.5))


class TestRunConfig:
    @pytest.mark.parametrize("field,value,message", [
        ("seed", -1, "seed must be >= 0"),
        ("grad_clip", -1.0, "grad_clip must be >= 0"),
        ("grad_clip", float("nan"), "grad_clip must be >= 0"),
        ("lr", float("nan"), "lr must be positive"),
        ("seed", True, "seed must be int, got True"),
        ("seed", 1.5, "seed must be int"),
        ("use_pos", "yes", "use_pos must be bool"),
        ("use_pos", 1, "use_pos must be bool"),
        ("lr", True, "lr must be float"),
        ("path", None, "path must be str"),
    ])
    def test_invalid_value_rejected_when_made(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig(**{field: value})

    def test_zero_grad_clip_is_a_config(self):
        assert RunConfig(grad_clip=0.0).grad_clip == 0.0

    def test_float_field_takes_an_int(self):
        assert RunConfig(lr=1, dropout=0).lr == 1

    def test_built_models_config_cannot_change(self):
        cfg = small_config()
        model = build_from_examples(cfg, tiny_dataset(n=2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.config.hidden = 4
        assert model.config == cfg and cfg.hidden == 3

    def test_apply_overrides_returns_a_new_config(self):
        cfg = small_config()
        before = dataclasses.asdict(cfg)
        changed = apply_overrides(cfg, {"hidden": "4", "dropout": 0.5})
        assert dataclasses.asdict(cfg) == before
        assert (changed.hidden, changed.dropout) == (4, 0.5)
        assert changed == dataclasses.replace(cfg, hidden=4, dropout=0.5)

    def test_config_file_with_a_removed_key_rejected(self, tmp_path):
        old = tmp_path / "effective.cfg"
        old.write_text("hidden=3\nmask_diagonal=False\n")
        with pytest.raises(ConfigError, match="unknown config key: mask_diagonal"):
            from_file(str(old))

    @pytest.mark.parametrize("make", [
        lambda tmp_path: RunConfig(),
        lambda tmp_path: desk_config(),
        lambda tmp_path: small_config(vectors=str(tmp_path / "vectors.txt"), use_pos=True,
                                      path="(LQ->Fi->LS->Fi)x2"),
    ], ids=["default", "desk", "vectors-pos-aligner"])
    def test_effective_cfg_reads_back_as_the_config(self, tmp_path, monkeypatch, make):
        (tmp_path / "vectors.txt").write_text("tok01 0.1 0.2 0.3 0.4 0.5 0.6\n")
        data = tiny_dataset(n=2)
        cfg = make(tmp_path)
        model = build_from_examples(cfg, data)
        monkeypatch.setattr(training, "_optimizer_step", lambda *args: None)  # halt at once
        assert train(model, data, data, cfg, run_dir=str(tmp_path / "run")).history == []
        assert from_file(str(tmp_path / "run" / "effective.cfg")) == cfg

    def test_vocabulary_with_a_flag_too_few_rejected_when_made(self):
        with pytest.raises(DataError, match="2 trainable flags for 3 words"):
            Vocabulary(["<pad>", "<unk>", "a"], [0, 1], {}, {}, {})

    def test_vocabulary_map_keys_must_be_strings(self):
        with pytest.raises(DataError, match="char map"):
            Vocabulary(["<pad>", "<unk>"], [0, 1], {7: 2}, {}, {})


class TestAdam:
    def make_scalar_param(self, value=0.0):
        params = ParamSet()
        p = params.add("w", (), constant(value))
        return params, p

    def test_first_step_update(self):
        params, p = self.make_scalar_param()
        p.grad = np.array(1.0)
        adam_step(params, AdamState(lr=0.0006))
        assert p.data == pytest.approx(-0.0006, rel=1e-6)

    def test_zero_gradient_no_change(self):
        params, p = self.make_scalar_param(3.0)
        p.grad = np.array(0.0)
        adam_step(params, AdamState(lr=0.1))
        assert p.data == pytest.approx(3.0)

    def test_two_steps_match_hand_recurrence(self):
        params, p = self.make_scalar_param()
        state = AdamState(lr=0.01)
        for _ in range(2):
            p.grad = np.array(0.5)
            adam_step(params, state)
        assert p.data == pytest.approx(adam_oracle([0.5, 0.5], 0.01), abs=1e-12)

    def test_non_finite_gradient_aborts_naming_parameter(self):
        params = ParamSet()
        a = params.add("layer.good", (1,), constant(1.0))
        b = params.add("layer.bad", (1,), constant(1.0))
        a.grad = np.array([1.0])
        b.grad = np.array([np.nan])
        before = a.data.copy()
        with pytest.raises(NumericsError, match="layer.bad"):
            adam_step(params, AdamState(lr=0.1))
        assert np.array_equal(a.data, before)  # aborted before any update


class TestClipping:
    def test_norm_scaling(self):
        params = ParamSet()
        p = params.add("w", (4,), constant(0.0))
        p.grad = np.full(4, 10.0)
        norm = clip_gradients(params, 5.0)
        assert norm == pytest.approx(20.0)
        assert np.linalg.norm(p.grad) == pytest.approx(5.0)

    def test_zero_max_norm_disables_clipping(self):
        params = ParamSet()
        p = params.add("w", (2,), constant(0.0))
        p.grad = np.array([30.0, 40.0])
        assert clip_gradients(params, 0.0) == pytest.approx(50.0)
        assert p.grad.tolist() == [30.0, 40.0]

    def test_below_threshold_untouched(self):
        params = ParamSet()
        p = params.add("w", (2,), constant(0.0))
        p.grad = np.array([0.3, 0.4])
        clip_gradients(params, 5.0)
        assert np.allclose(p.grad, [0.3, 0.4])


def test_clip_gradients_norm_matches_the_squared_copies():
    """The norm is summed from each gradient's `np.vdot`, byte for byte; it
    agrees with the norm of `(g * g).sum()` per gradient to rounding (the two
    add in different orders), and clipping scales each gradient by it."""
    rng = np.random.default_rng(8)
    params = ParamSet()
    for k, shape in enumerate([(7, 5), (40,), (3, 4), (1,), (30, 20)]):
        params.add(f"p{k}", shape, constant(0.0)).grad = rng.standard_normal(shape) * 10.0**k
    params.add("no_grad", (6,), constant(0.0))
    grads = [t.grad.copy() for _, t in params.items() if t.grad is not None]
    from_squares = sum(float((g * g).sum()) for g in grads) ** 0.5
    norm = clip_gradients(params, 1.0)
    assert norm == sum(float(np.vdot(g, g)) for g in grads) ** 0.5
    assert abs(norm - from_squares) <= 1e-14 * from_squares
    scaled = [t.grad for _, t in params.items() if t.grad is not None]
    assert all(got.tobytes() == (g * (1.0 / norm)).tobytes() for got, g in zip(scaled, grads))


class TestTrainLoop:
    def test_loss_decreases_and_history_logged(self):
        data = tiny_dataset(n=8)
        cfg = small_config(epochs=3)
        model = build_from_examples(cfg, data)
        result = train(model, data, data[:4], cfg)
        assert len(result.history) == 3
        assert result.history[-1]["train_loss"] < result.history[0]["train_loss"]
        assert {"epoch", "train_loss", "dev_em", "dev_f1", "lr"} <= set(result.history[0])

    def test_lr_halves_on_non_improvement(self):
        data = tiny_dataset(n=6)
        cfg = small_config(epochs=4, lr=0.0006)
        model = build_from_examples(cfg, data)
        result = train(model, data, data[:3], cfg)
        lrs = [row["lr"] for row in result.history]
        assert lrs[0] == 0.0006
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))  # non-increasing
        # two consecutive non-improving epochs quarter the rate
        drops = [a / b for a, b in zip(lrs, lrs[1:]) if b < a]
        assert all(d == pytest.approx(2.0) for d in drops)

    def test_lr_stops_halving_at_its_floor(self, monkeypatch, tmp_path):
        monkeypatch.setattr(training, "evaluate_model",
                            lambda model, examples: EvalResult(em=20.0, f1=0.0))
        data = tiny_dataset(n=4)
        cfg = small_config(epochs=8, lr=0.01)
        train(build_from_examples(cfg, data), data, data[:2], cfg, run_dir=str(tmp_path))
        rows = (tmp_path / "metrics.csv").read_text().splitlines()[1:]
        lrs = [float(row.split(",")[-1]) for row in rows]
        assert lrs == [0.01, 0.01, 0.005, 0.0025, 0.00125, 0.000625, 0.000625, 0.000625]
        assert lrs[-1] == cfg.lr / training.LR_FLOOR_DIVISOR == cfg.lr / 16

    def test_returned_model_holds_best_params(self, monkeypatch):
        # dev EM reads 50 after epoch 1 and 10 after epoch 2: epoch 1 is best
        ems = iter([50.0, 10.0])
        monkeypatch.setattr(training, "evaluate_model",
                            lambda model, examples: EvalResult(em=next(ems), f1=0.0))
        data = tiny_dataset(n=8)
        cfg = small_config(epochs=2)
        model = build_from_examples(cfg, data)
        result = train(model, data, data[:4], cfg)
        assert [row["dev_em"] for row in result.history] == [50.0, 10.0]
        assert result.best_epoch == 1 and result.best_dev_em == 50.0
        assert set(result.best_params) == set(model.params.names())
        for name, t in model.params.items():
            assert np.array_equal(t.data, result.best_params[name]), name

    def test_evaluation_sees_no_stale_gradients(self, monkeypatch):
        held = []
        true_evaluate = training.evaluate_model

        def probe(model, examples):
            held.append(sum(t.grad is not None for _, t in model.params.items()))
            return true_evaluate(model, examples)

        monkeypatch.setattr(training, "evaluate_model", probe)
        data = tiny_dataset(n=8)
        cfg = small_config(epochs=2)
        train(build_from_examples(cfg, data), data, data[:4], cfg)
        assert held and held == [0] * len(held)

    def test_determinism_same_seed_same_history(self):
        data = tiny_dataset(n=8)
        cfg = small_config(epochs=2, dropout=0.2)
        r1 = train(build_from_examples(cfg, data), data, data[:4], cfg)
        r2 = train(build_from_examples(cfg, data), data, data[:4], cfg)
        assert r1.history == r2.history

    def test_single_example_overfit(self):
        data = tiny_dataset(n=1, seed=3)
        cfg = small_config(epochs=1, dropout=0.0, lr=0.01, batch_size=1)
        model = build_from_examples(cfg, data)
        state = AdamState(lr=cfg.lr)
        losses = []
        for _ in range(200):
            model.params.zero_grads()
            loss = gold_loss(model, data[:1], rng=np.random.default_rng(0))
            backward(loss)
            model.params.apply_grad_masks()
            clip_gradients(model.params, cfg.grad_clip)
            adam_step(model.params, state)
            losses.append(float(loss.data))
            if losses[-1] < 0.01:
                break
        assert min(losses) < 0.01
        assert all(l >= 0 for l in losses)


class TestBatchedStep:
    def test_matches_per_example_reference_with_dropout(self):
        data = tiny_dataset(n=6, seed=6)
        assert len({len(ex.passage_tokens) for ex in data}) > 1
        cfg = small_config(dropout=0.3)
        batched, reference = (build_from_examples(cfg, data) for _ in range(2))
        rng_batched, rng_reference = np.random.default_rng(11), np.random.default_rng(11)

        # one forward pass per example, masks drawn example by example
        reference.params.zero_grads()
        total = None
        for ex in data:
            loss = gold_loss(reference, [ex], rng=rng_reference)
            total = loss if total is None else T.add(total, loss)
        expected = T.mul(total, Tensor(1.0 / len(data)))
        backward(expected)
        reference.params.apply_grad_masks()
        clip_gradients(reference.params, cfg.grad_clip)

        loss = _optimizer_step(batched, data, AdamState(lr=cfg.lr), cfg, rng_batched)
        assert abs(loss - float(expected.data)) <= 1e-12
        assert rng_batched.bit_generator.state == rng_reference.bit_generator.state
        for name, t in reference.params.items():
            grad = batched.params[name].grad
            assert (grad is None) == (t.grad is None), name
            if grad is not None:
                assert np.abs(grad - t.grad).max() <= 1e-12, name

    @pytest.mark.parametrize("field", ["passage_tokens", "question_tokens"])
    def test_empty_sequence_anywhere_in_batch_raises(self, field):
        data = tiny_dataset(n=3, seed=7)
        cfg = small_config(dropout=0.2)
        model = build_from_examples(cfg, data)
        data[1] = dataclasses.replace(data[1], **{field: []})
        with pytest.raises(ShapeError, match="empty"):
            _optimizer_step(model, data, AdamState(lr=cfg.lr), cfg, np.random.default_rng(0))


class TestNonFinite:
    def test_non_finite_gradient_halts_like_non_finite_loss(self, monkeypatch):
        data = tiny_dataset(n=8)
        cfg = small_config(epochs=2)
        model = build_from_examples(cfg, data)
        before = {name: t.data.copy() for name, t in model.params.items()}
        true_backward = training.backward

        def poisoned_backward(loss):
            true_backward(loss)
            model.params["ptr.mem.b_u"].grad[0] = np.nan

        monkeypatch.setattr(training, "backward", poisoned_backward)
        result = train(model, data, data[:4], cfg)
        assert result.status == "halted_nonfinite"
        assert result.history == []
        for name, t in model.params.items():
            assert np.array_equal(t.data, before[name]), name


class TestFrozenInference:
    def test_predict_restores_requires_grad_also_when_forward_raises(self, monkeypatch):
        data = tiny_dataset(n=3, seed=7)
        model = build_from_examples(small_config(), data)
        model.params["ptr.mem.b_c"].requires_grad = False
        flags = {name: t.requires_grad for name, t in model.params.items()}
        taped = []

        def spy(model, ex):
            taped.append(any(t.requires_grad for _, t in model.params.items()))
            return forward(model, ex)

        monkeypatch.setattr(training, "forward", spy)
        predict(model, data)
        assert taped == [False] * len(data)
        assert {name: t.requires_grad for name, t in model.params.items()} == flags
        with pytest.raises(ShapeError):
            predict(model, [data[0], dataclasses.replace(data[1], passage_tokens=[])])
        assert {name: t.requires_grad for name, t in model.params.items()} == flags

    def test_frozen_forward_keeps_no_parents(self):
        data = tiny_dataset(n=2, seed=7)
        model = build_from_examples(small_config(), data)
        with model.params.frozen():
            assert not any(t.requires_grad for _, t in model.params.items())
            frozen = forward(model, data[0])
            frozen_loss = gold_loss(model, data)
        taped = forward(model, data[0])
        taped_loss = gold_loss(model, data)
        assert frozen_loss._parents == ()
        assert taped_loss._parents  # the same pass outside the block is taped
        assert frozen_loss.data.tobytes() == taped_loss.data.tobytes()
        assert len(frozen.trace) == len(taped.trace) > 0
        for a, b in zip(frozen.trace, taped.trace):
            assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(frozen.start_dist, taped.start_dist)
        assert np.array_equal(frozen.end_dist, taped.end_dist)


class TestCheckpoint:
    def build_trained(self, tmp_path, cfg=None):
        data = tiny_dataset(n=6, seed=4)
        cfg = cfg or small_config(epochs=1)
        model = build_from_examples(cfg, data)
        result = train(model, data, data[:3], cfg, run_dir=str(tmp_path / "run"))
        return model, data, result

    @staticmethod
    def rewrite_meta(path, out, edit):
        """Copy the checkpoint at path to out with edit(meta) applied to its meta."""
        with np.load(path, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        meta = json.loads(str(arrays["meta"]))
        edit(meta)
        arrays["meta"] = np.array(json.dumps(meta))
        with open(out, "wb") as fh:
            np.savez(fh, **arrays)
        return str(out)

    def test_roundtrip_forward_bitwise(self, tmp_path):
        model, data, result = self.build_trained(tmp_path)
        before = forward(model, data[0])
        restored, _state = restore_model(result.checkpoint_path)
        after = forward(restored, data[0])
        assert np.array_equal(before.start_dist, after.start_dist)
        assert np.array_equal(before.end_dist, after.end_dist)

    def test_run_record_roundtrip(self, tmp_path):
        model, data, result = self.build_trained(tmp_path, small_config(epochs=3))
        _, record = restore_model(result.checkpoint_path)
        assert record == {"epoch": result.best_epoch, "best_dev_em": result.best_dev_em,
                          "lr_history": [row["lr"] for row in result.history[:result.best_epoch]]}

    def test_members_are_meta_and_one_array_per_parameter(self, tmp_path):
        model, data, result = self.build_trained(tmp_path)
        with np.load(result.checkpoint_path, allow_pickle=False) as npz:
            members = set(npz.files)
        assert members == {"meta"} | {f"params/{name}" for name in model.params.names()}

    def test_truncated_file_integrity_error(self, tmp_path):
        model, data, result = self.build_trained(tmp_path)
        blob = Path(result.checkpoint_path).read_bytes()
        bad = tmp_path / "broken.ckpt"
        bad.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated|corrupt"):
            restore_model(str(bad))

    def test_flipped_parameter_byte_integrity_error(self, tmp_path):
        model, data, result = self.build_trained(tmp_path)
        blob = bytearray(Path(result.checkpoint_path).read_bytes())
        stored = model.params["enc.indep.fw.W"].data.tobytes()
        at = blob.find(stored)
        assert at > 0
        blob[at + len(stored) // 2] ^= 0xFF
        bad = tmp_path / "flipped.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="truncated|corrupt"):
            restore_model(str(bad))

    def test_version_1_json_checkpoint_rejected(self, tmp_path):
        old = tmp_path / "v1.ckpt"
        old.write_text(json.dumps({"format_version": 1, "config": {}, "params": {},
                                   "adam": {}, "vocab": {}, "config_hash": ""}))
        with pytest.raises(CheckpointError, match="truncated|corrupt"):
            restore_model(str(old))

    def test_version_2_checkpoint_rejected_with_its_version(self, tmp_path):
        model, data, result = self.build_trained(tmp_path)

        def to_version_2(meta):
            assert "path" not in meta and meta["config"]["path"] == model.path.render()
            meta.update(format_version=2, path=model.path.render())

        old = self.rewrite_meta(result.checkpoint_path, tmp_path / "v2.ckpt", to_version_2)
        with pytest.raises(CheckpointError, match="version 2"):
            restore_model(old)

    def test_version_3_checkpoint_rejected_with_its_version(self, tmp_path):
        model, data, result = self.build_trained(tmp_path)
        adam = {"lr": 0.1, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "step": 1}
        old = self.rewrite_meta(result.checkpoint_path, tmp_path / "v3.ckpt",
                                lambda meta: meta.update(format_version=3, adam=adam))
        with pytest.raises(CheckpointError, match="version 3"):
            restore_model(old)

    def test_version_4_checkpoint_rejected_with_its_version(self, tmp_path):
        model, data, result = self.build_trained(tmp_path)
        old = self.rewrite_meta(result.checkpoint_path, tmp_path / "v4.ckpt",
                                lambda meta: meta.update(format_version=4))
        with pytest.raises(CheckpointError, match="version 4"):
            restore_model(old)

    def test_restored_parameters_take_an_adam_step(self, tmp_path):
        data = tiny_dataset(n=4, seed=5)
        cfg = small_config(epochs=1)
        model = build_from_examples(cfg, data)
        backward(gold_loss(model, data[:1], rng=np.random.default_rng(0)))
        path = str(tmp_path / "step.ckpt")
        save_checkpoint(model, path)
        restored, _ = restore_model(path)
        for name, t in restored.params.items():
            t.grad = model.params[name].grad
        adam_step(restored.params, AdamState(lr=cfg.lr))  # writes into the restored arrays
        adam_step(model.params, AdamState(lr=cfg.lr))
        with np.load(path) as npz:
            saved = {name: npz[f"params/{name}"] for name in restored.params.names()}
        for name, t in restored.params.items():
            assert np.array_equal(t.data, model.params[name].data), name
        assert any(not np.array_equal(t.data, saved[name]) for name, t in restored.params.items())

    @pytest.mark.parametrize("key,value,message", [
        ("max_span", 16, "config hash"),
        ("unknown_knob", 1, "not a RunConfig"),
    ])
    def test_edited_config_rejected(self, tmp_path, key, value, message):
        model, data, result = self.build_trained(tmp_path)

        def set_key(meta):
            assert meta["config"].get(key) != value
            meta["config"][key] = value

        edited = self.rewrite_meta(result.checkpoint_path, tmp_path / "edited.ckpt", set_key)
        with pytest.raises(CheckpointError, match=message):
            restore_model(edited)

    def test_tagged_model_roundtrips_its_vocabulary(self, tmp_path):
        data = tiny_dataset(n=4, seed=8)
        for i, ex in enumerate(data):
            ex.passage_pos = ["NN" if (i + j) % 2 else "VB" for j in range(len(ex.passage_tokens))]
            ex.question_ner = ["O"] * (i % 2) * len(ex.question_tokens) or None
        model = build_from_examples(small_config(use_pos=True, use_ner=True), data)
        assert model.vocab.pos_vocab == {"VB": 1, "NN": 2} and model.vocab.ner_vocab == {"O": 1}
        path = str(tmp_path / "tagged.ckpt")
        save_checkpoint(model, path)
        restored, _ = restore_model(path)
        assert restored.vocab == model.vocab
        for name, t in model.params.items():
            assert np.array_equal(restored.params[name].data, t.data), name
        before, after = forward(model, data[1]), forward(restored, data[1])
        assert np.array_equal(before.start_dist, after.start_dist)

    def test_vocab_section_missing_a_key_rejected(self, tmp_path):
        model, data, result = self.build_trained(tmp_path)
        edited = self.rewrite_meta(result.checkpoint_path, tmp_path / "edited.ckpt",
                                   lambda meta: meta["vocab"].pop("char_vocab"))
        with pytest.raises(CheckpointError, match="not a Vocabulary"):
            restore_model(edited)

    def test_trainable_flags_must_match_words(self, tmp_path):
        model, data, result = self.build_trained(tmp_path)
        edited = self.rewrite_meta(result.checkpoint_path, tmp_path / "edited.ckpt",
                                   lambda meta: meta["vocab"]["word_trainable"].pop())
        with pytest.raises(CheckpointError, match="trainable flags"):
            restore_model(edited)

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda vocab: vocab["word_trainable"].__setitem__(2, "x"), "ints 0 and 1",
                     id="flag-str"),
        pytest.param(lambda vocab: vocab["word_trainable"].__setitem__(2, 2), "ints 0 and 1",
                     id="flag-2"),
        pytest.param(lambda vocab: vocab["word_trainable"].__setitem__(2, True), "ints 0 and 1",
                     id="flag-bool"),
        pytest.param(lambda vocab: vocab.update(word_tokens=list(range(len(vocab["word_tokens"])))),
                     "distinct strings", id="int-words"),
        pytest.param(lambda vocab: vocab["word_tokens"].__setitem__(3, vocab["word_tokens"][2]),
                     "distinct strings", id="repeated-word"),
        pytest.param(lambda vocab: vocab["char_vocab"].update(
            {min(vocab["char_vocab"]): len(vocab["char_vocab"]) + 2}), "char map", id="char-gap"),
        pytest.param(lambda vocab: vocab["char_vocab"].update({min(vocab["char_vocab"]): "2"}),
                     "char map", id="char-str-index"),
        pytest.param(lambda vocab: vocab.update(pos_vocab={"NN": 0}), "pos map", id="pos-from-0"),
        pytest.param(lambda vocab: vocab.update(ner_vocab={"O": 1, "PER": 1}), "ner map",
                     id="ner-repeated-index"),
    ])
    def test_vocab_section_checked(self, tmp_path, edit, message):
        model, data, result = self.build_trained(tmp_path)
        edited = self.rewrite_meta(result.checkpoint_path, tmp_path / "edited.ckpt",
                                   lambda meta: edit(meta["vocab"]))
        with pytest.raises(CheckpointError, match=message):
            restore_model(edited)

    def test_run_record_mistyped_rejected(self, tmp_path):
        model, data, result = self.build_trained(tmp_path)
        edited = self.rewrite_meta(result.checkpoint_path, tmp_path / "edited.ckpt",
                                   lambda meta: meta.update(epoch=str(meta["epoch"])))
        with pytest.raises(CheckpointError, match="run record"):
            restore_model(edited)

    def test_shape_mismatch_names_parameter(self, tmp_path):
        data = tiny_dataset(n=4, seed=5)
        model = build_from_examples(small_config(epochs=1), data)
        model.params["enc.indep.fw.W"].data = model.params["enc.indep.fw.W"].data[1:]
        path = str(tmp_path / "short.ckpt")
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match="enc\\.indep\\.fw\\.W"):
            restore_model(path)

    def test_arrays_must_match_the_parameters(self, tmp_path):
        data = tiny_dataset(n=4, seed=5)
        model = build_from_examples(small_config(epochs=1), data)
        path = str(tmp_path / "ghost.ckpt")
        save_checkpoint(model, path)
        with np.load(path) as npz:
            arrays = {k: npz[k] for k in npz.files}
        with open(path, "wb") as fh:
            np.savez(fh, **arrays, **{"m/ptr.mem.b_c": np.zeros_like(arrays["params/ptr.mem.b_c"])})
        with pytest.raises(CheckpointError, match=r"unexpected: \['m/ptr\.mem\.b_c'\]"):
            restore_model(path)
        del arrays["params/ptr.mem.b_c"]
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(CheckpointError, match=r"missing: \['params/ptr\.mem\.b_c'\]"):
            restore_model(path)

    @pytest.mark.parametrize("key,value,message", [
        ("dropout", 1.5, "dropout must be in"),
        ("path", "LS->LQ", "first attention step"),
        ("seed", 1.5, "not a RunConfig: seed must be int"),
        ("use_pos", "yes", "not a RunConfig: use_pos must be bool"),
        ("seed", True, "not a RunConfig: seed must be int"),
    ])
    def test_stored_config_that_does_not_build_rejected(self, tmp_path, key, value, message):
        model, data, result = self.build_trained(tmp_path)

        def set_key_and_hash(meta):
            meta["config"][key] = value
            meta["config_hash"] = config_hash(meta["config"])

        edited = self.rewrite_meta(result.checkpoint_path, tmp_path / "edited.ckpt",
                                   set_key_and_hash)
        with pytest.raises(CheckpointError, match=message):
            restore_model(edited)

    @pytest.mark.parametrize("edit,message", [
        (lambda meta: [3], "not an object"),
        (lambda meta: {**meta, "epoch": 1.0}, "run record"),
        (lambda meta: {**meta, "lr_history": 0.1}, "run record"),
        (lambda meta: {**meta, "config_hash": 123}, "config hash"),
        (lambda meta: {**meta, "lr_history": [0.1, "x"]}, "run record"),
        (lambda meta: {**meta, "best_dev_em": True}, "run record"),
        (lambda meta: {k: v for k, v in meta.items() if k != "best_dev_em"},
         "missing checkpoint section 'best_dev_em'"),
    ], ids=["meta-list", "epoch-float", "lr-history-number", "hash-number", "lr-string",
            "best-em-bool", "record-incomplete"])
    def test_mistyped_meta_rejected(self, tmp_path, edit, message):
        model = build_from_examples(small_config(), tiny_dataset(n=4, seed=5))
        path = str(tmp_path / "typed.ckpt")
        save_checkpoint(model, path)
        with np.load(path, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
        arrays["meta"] = np.array(json.dumps(edit(json.loads(str(arrays["meta"])))))
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)
        with pytest.raises(CheckpointError, match=message):
            restore_model(path)

    def test_restore_draws_nothing(self, tmp_path, monkeypatch):
        model, data, result = self.build_trained(tmp_path)

        class NoDraws:
            def __getattr__(self, name):
                raise AssertionError(f"restore_model drew from the generator ({name})")

        monkeypatch.setattr(np.random, "default_rng", lambda seed=None: NoDraws())
        restored, _ = restore_model(result.checkpoint_path)
        monkeypatch.undo()
        assert restored.params.names() == model.params.names()
        for name, t in restored.params.items():
            assert np.array_equal(t.data, result.best_params[name]), name

    def test_run_dir_contains_artifacts(self, tmp_path):
        model, data, result = self.build_trained(tmp_path)
        run = tmp_path / "run"
        assert (run / "effective.cfg").exists()
        assert (run / "metrics.csv").exists()
        header = (run / "metrics.csv").read_text().splitlines()[0]
        assert header == "epoch,train_loss,dev_em,dev_f1,lr"

    def test_evaluate_model_gold_harness(self):
        data = tiny_dataset(n=5)
        preds = {ex.id: ex.answer_texts[0] for ex in data}
        from phasecond.data import evaluate
        result = evaluate(preds, data)
        assert result.em == 100.0 and result.f1 == 100.0
