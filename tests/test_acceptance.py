"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report. The desk-scale training run (criterion 7) is shared with the
attention-dynamics diagnostic (criterion 10) and the frozen-inference check
through a module fixture.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from phasecond.attention import qp_attention, self_attention
from phasecond.cli import main, mean_row_entropy
from phasecond.conductor import build_from_examples, forward, gold_loss, parse_path
from phasecond.config import DEFAULT_PATH, ITERATIVE_ALIGNER_PATH, RunConfig, desk_config
from phasecond.data import SyntheticSpec, evaluate, generate_synthetic
from phasecond.errors import PathValidationError
from phasecond.fusion import InnerFusionLayer, OuterFusionStack
from phasecond.params import ParamSet
from phasecond.pointer import decode_span
from phasecond.tensor import Tensor, backward
from phasecond.training import (
    AdamState,
    adam_step,
    clip_gradients,
    evaluate_model,
    predict,
    train,
    write_metrics_csv,
)
from phasecond.verification import THRESHOLD, run_grad_checks

GRAD_TOLERANCE = 1e-4
ROW_SUM_TOLERANCE = 1e-9
FORCED_GATE_TOLERANCE = 1e-6
N_PROPERTY_TRIALS = 10_000
N_DECODE_FIXTURES = 1_000
DESK_TRAIN_EM = 95.0
DESK_DEV_EM = 90.0
DESK_EPOCH_BUDGET = 300
DESK_TIME_BUDGET_S = 900.0
OVERFIT_LOSS = 0.01
OVERFIT_STEPS = 200
DESK_METRICS_SHA256 = "2675bd34f504d13ba56ba0048c04fb9fb9b6ce9d34185f2a3caf3a1000072e11"
GRAD_CHECK_SHA256 = "613f51b9d4da4c887c813435025cb801c14e6cdb0989e5b337b078df8fe8bd19"
MOVED_BITS = ("a change that moves these bits on purpose updates the digest here and "
              "says so in CHANGES.md")


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS - {detail}")


@pytest.fixture(scope="module")
def desk_run():
    """Criterion 7's training run; also feeds criterion 10."""
    train_data = generate_synthetic(SyntheticSpec(
        n_examples=200, vocab_size=50, min_len=20, max_len=30, seed=0))
    dev_data = generate_synthetic(SyntheticSpec(
        n_examples=50, vocab_size=50, min_len=20, max_len=30, seed=1))
    cfg = desk_config()
    assert (cfg.epochs, cfg.early_stop_train_em, cfg.early_stop_dev_em) == (
        DESK_EPOCH_BUDGET, DESK_TRAIN_EM, DESK_DEV_EM)
    model = build_from_examples(cfg, train_data)
    start = time.monotonic()
    result = train(model, train_data, dev_data, cfg)
    elapsed = time.monotonic() - start
    train_em = evaluate_model(model, train_data).em
    dev_em = evaluate_model(model, dev_data).em
    return {"model": model, "result": result, "elapsed": elapsed,
            "train_em": train_em, "dev_em": dev_em, "dev_data": dev_data}


def test_criterion_1_gradient_suite():
    start = time.monotonic()
    reports = run_grad_checks(seed=0)
    elapsed = time.monotonic() - start
    assert THRESHOLD == GRAD_TOLERANCE
    worst = max(reports, key=lambda r: r.max_rel_err)
    for r in reports:
        assert r.max_rel_err < GRAD_TOLERANCE, f"{r.component}: {r.max_rel_err}"
    assert elapsed < 120.0
    names = {r.component for r in reports}
    assert {"encoder_independent", "encoder_shared", "qp_attention_stack",
            "self_attention", "outer_fusion", "inner_fusion", "pointer_head",
            "span_loss", "span_loss_extreme"} <= names
    report(1, f"{len(reports)} layer types, worst rel err "
              f"{worst.max_rel_err:.2e} ({worst.component}), {elapsed:.1f}s")


def test_criterion_2_attention_invariants():
    # the packed nodes the model runs, over batches of 1-4 examples: each
    # example's weights and output rows, against its own value rows only
    rng = np.random.default_rng(2024)
    for trial in range(N_PROPERTY_TRIALS):
        k = int(rng.integers(1, 5))
        lengths = rng.integers(1, 7, size=k).tolist()
        q_lengths = rng.integers(1, 6, size=k).tolist()
        d = int(rng.integers(1, 7))
        scale = float(rng.uniform(0.2, 4.0))
        h = Tensor(rng.standard_normal((sum(lengths), d)) * scale)
        if trial % 2 == 0:
            keys = Tensor(rng.standard_normal((sum(q_lengths), d)) * scale)
            values = Tensor(rng.standard_normal((sum(q_lengths), d)) * scale)
            out, aligns = qp_attention(h, keys, values, lengths, q_lengths, 1)
            pools = np.split(values.data, np.cumsum(q_lengths)[:-1])
        else:
            out, aligns = self_attention(h, lengths, 1)
            pools = np.split(h.data, np.cumsum(lengths)[:-1])
        assert len(aligns) == k
        for a, got, pool in zip(aligns, np.split(out.data, np.cumsum(lengths)[:-1]), pools):
            w = a.weights
            assert w.shape == (len(got), len(pool))
            assert np.all(w >= 0.0)
            assert np.all(np.abs(w.sum(axis=1) - 1.0) <= ROW_SUM_TOLERANCE)
            lo = pool.min(axis=0) - 1e-9
            hi = pool.max(axis=0) + 1e-9
            assert np.all(got >= lo) and np.all(got <= hi)
    report(2, f"{N_PROPERTY_TRIALS} randomized packed batches of 1-4 examples: each "
              f"example's weights row-stochastic, its outputs inside its own value hull")


def test_criterion_3_fusion_interpolation():
    rng = np.random.default_rng(11)
    trials_per_instance = 100
    n_instances = N_PROPERTY_TRIALS // trials_per_instance
    for k in range(n_instances):
        width = int(rng.integers(2, 7))
        n = int(rng.integers(1, 5))
        params = ParamSet(rng)
        outer = OuterFusionStack(params, "fo", width, 1)
        inner = InnerFusionLayer(params, "fi", width)
        w_c, b_c = params["fo.l1.W_C"].data, params["fo.l1.b_C"].data
        w_b, b_b = params["fi.W_B"].data, params["fi.b_B"].data
        for _ in range(trials_per_instance // 2):
            x = Tensor(rng.standard_normal((n, width)) * rng.uniform(0.3, 3.0))
            got = outer(x).data
            cand = np.maximum(x.data @ w_c + b_c, 0.0)
            lo = np.minimum(x.data, cand) - 1e-12
            hi = np.maximum(x.data, cand) + 1e-12
            assert np.all(got >= lo) and np.all(got <= hi)

            b_new = Tensor(rng.standard_normal((n, width)))
            b_prev = Tensor(rng.standard_normal((n, width)))
            got_i = inner(b_new, b_prev).data
            cat = np.concatenate(
                [b_new.data, b_prev.data, b_new.data * b_prev.data], axis=1)
            cand_i = np.tanh(cat @ w_b + b_b)
            lo = np.minimum(b_prev.data, cand_i) - 1e-12
            hi = np.maximum(b_prev.data, cand_i) + 1e-12
            assert np.all(got_i >= lo) and np.all(got_i <= hi)

        # forced gates: carry path then transform path
        x = Tensor(rng.standard_normal((3, width)))
        params["fo.l1.W_z"].data[:] = 0.0
        params["fo.l1.b_z"].data[:] = -40.0
        assert np.max(np.abs(outer(x).data - x.data)) < FORCED_GATE_TOLERANCE
        params["fo.l1.b_z"].data[:] = 40.0
        transform = np.maximum(x.data @ w_c + b_c, 0.0)
        assert np.max(np.abs(outer(x).data - transform)) < FORCED_GATE_TOLERANCE

        b_new = Tensor(rng.standard_normal((3, width)))
        b_prev = Tensor(rng.standard_normal((3, width)))
        params["fi.W_f"].data[:] = 0.0
        params["fi.b_f"].data[:] = -40.0
        assert np.max(np.abs(inner(b_new, b_prev).data - b_prev.data)) \
            < FORCED_GATE_TOLERANCE
        params["fi.b_f"].data[:] = 40.0
        cat = np.concatenate(
            [b_new.data, b_prev.data, b_new.data * b_prev.data], axis=1)
        cand_i = np.tanh(cat @ w_b + b_b)
        assert np.max(np.abs(inner(b_new, b_prev).data - cand_i)) \
            < FORCED_GATE_TOLERANCE
    report(3, f"{N_PROPERTY_TRIALS} fusion trials: outputs between carry and "
              f"candidate; forced gates reproduce identity/transform < 1e-6")


def test_criterion_4_path_conductor():
    phasecond_path = parse_path(DEFAULT_PATH)
    assert list(phasecond_path) == ["LQ", "LQ", "Fo", "LS", "Fi", "LS", "Fi"]
    iterative = parse_path(ITERATIVE_ALIGNER_PATH)
    assert list(iterative) == ["LQ", "Fi", "LS", "Fi", "LQ", "Fi", "LS", "Fi"]
    with pytest.raises(PathValidationError):
        parse_path("LS->LQ")

    data = generate_synthetic(SyntheticSpec(n_examples=16, vocab_size=20,
                                            min_len=8, max_len=12, seed=5))
    histories = {}
    for expr in (DEFAULT_PATH, ITERATIVE_ALIGNER_PATH):
        cfg = RunConfig(path=expr, hidden=3, word_dim=6, char_dim=4, char_filters=4,
                        feat_dim=3, dropout=0.1, lr=0.005, batch_size=8,
                        epochs=2, seed=3)
        model = build_from_examples(cfg, data)
        result = train(model, data, data[:8], cfg)
        assert len(result.history) == 2
        assert all(np.isfinite(row["train_loss"]) for row in result.history)
        histories[expr] = result.history
    report(4, "both reference paths parse to the expected step lists and train "
              "under identical hyperparameters")


def test_criterion_5_span_decode_oracle():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(N_DECODE_FIXTURES):
        n = int(rng.integers(1, 16))
        ps = rng.random(n)
        ps /= ps.sum()
        pe = rng.random(n)
        pe /= pe.sum()
        for max_span in (1, 5, 15):
            got = decode_span(ps, pe, max_span)
            best, best_score = None, -1.0
            for s in range(n):
                for e in range(s, min(s + max_span, n)):
                    if ps[s] * pe[e] > best_score:
                        best, best_score = (s, e), ps[s] * pe[e]
            assert (got.start, got.end) == best
            assert got.score == pytest.approx(best_score)
            checked += 1
    report(5, f"span decode equals exhaustive search on {N_DECODE_FIXTURES} "
              f"fixtures x 3 max_span settings ({checked} decodes)")


METRIC_FIXTURES = [
    # (prediction, golds, expected EM, expected F1)
    ("Denver Broncos", ["Denver Broncos"], 100.0, 100.0),
    ("Broncos", ["Denver Broncos"], 0.0, 66.67),
    ("the Denver Broncos", ["Denver Broncos"], 100.0, 100.0),
    ("denver broncos", ["Denver Broncos"], 100.0, 100.0),
    ("Denver Broncos.", ["Denver Broncos"], 100.0, 100.0),
    ("Carolina Panthers", ["Denver Broncos"], 0.0, 0.0),
    ("Denver", ["Denver Broncos", "Denver"], 100.0, 100.0),
    ("Denver Broncos defeated", ["Denver Broncos"], 0.0, 80.0),
    ("a an the", ["the"], 100.0, 100.0),
    ("", ["Denver Broncos"], 0.0, 0.0),
    ("Super Bowl 50", ["Super Bowl L", "Super Bowl 50"], 100.0, 100.0),
    ("50", ["Super Bowl 50"], 0.0, 50.0),
    ("in 1876", ["1876"], 0.0, 66.67),
    ("Tesla, Nikola", ["Nikola Tesla"], 0.0, 100.0),
    ("two two", ["two"], 0.0, 66.67),
    ("The The", ["the"], 100.0, 100.0),
    ("an apple a day", ["apple day"], 100.0, 100.0),
    ("U.S. Army", ["US Army"], 100.0, 100.0),
    ("1,000", ["1000"], 100.0, 100.0),
    ("green and yellow", ["green yellow"], 0.0, 80.0),
]


def test_criterion_6_metric_oracle():
    from phasecond.data import QAExample

    assert len(METRIC_FIXTURES) == 20
    for i, (pred, golds, want_em, want_f1) in enumerate(METRIC_FIXTURES):
        ex = QAExample(id=str(i), passage_text="", passage_tokens=[],
                       passage_offsets=[], question_tokens=[], gold_spans=[],
                       answer_texts=golds)
        result = evaluate({str(i): pred}, [ex])
        assert result.em == pytest.approx(want_em, abs=0.01), (pred, golds)
        assert result.f1 == pytest.approx(want_f1, abs=0.01), (pred, golds)
        assert result.em <= result.f1 + 1e-9
    report(6, "20 hand-derived EM/F1 fixtures reproduced exactly (+-0.01)")


def test_criterion_7_desk_scale_learning(desk_run):
    result = desk_run["result"]
    assert desk_run["elapsed"] < DESK_TIME_BUDGET_S
    assert len(result.history) <= DESK_EPOCH_BUDGET
    assert desk_run["train_em"] >= DESK_TRAIN_EM
    assert desk_run["dev_em"] >= DESK_DEV_EM
    report(7, f"train EM {desk_run['train_em']:.1f} / dev EM "
              f"{desk_run['dev_em']:.1f} after {len(result.history)} epochs "
              f"in {desk_run['elapsed']:.0f}s")


def test_frozen_predict_matches_taped_on_criterion_7_dev_set(desk_run):
    model, dev_data = desk_run["model"], desk_run["dev_data"]
    taped = [forward(model, ex) for ex in dev_data]
    with model.params.frozen():
        frozen = [forward(model, ex) for ex in dev_data]
    for ex, a, b in zip(dev_data, taped, frozen):
        assert np.array_equal(a.start_dist, b.start_dist), ex.id
        assert np.array_equal(a.end_dist, b.end_dist), ex.id
    answers = {ex.id: ex.span_text(r.span.start, r.span.end) for ex, r in zip(dev_data, taped)}
    assert predict(model, dev_data) == answers


def test_desk_metrics_csv_bytes_are_pinned(desk_run, tmp_path):
    """Criterion 7's metric log, as a run directory writes it, pinned to the bit."""
    path = tmp_path / "metrics.csv"
    write_metrics_csv(desk_run["result"].history, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == DESK_METRICS_SHA256, f"desk metrics.csv sha256 is {digest}; {MOVED_BITS}"


def test_grad_check_report_is_pinned(capsys):
    """Every relative error `phasecond grad-check --seed 0` prints, pinned to the digit."""
    assert main(["grad-check", "--seed", "0"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == GRAD_CHECK_SHA256, f"grad-check stdout sha256 is {digest}; {MOVED_BITS}"


def test_criterion_8_loss_sanity():
    data = generate_synthetic(SyntheticSpec(n_examples=1, vocab_size=20,
                                            min_len=10, max_len=12, seed=3))
    cfg = RunConfig(hidden=4, word_dim=8, char_dim=4, char_filters=4, feat_dim=3,
                    dropout=0.0, lr=0.01, batch_size=1, seed=2)
    model = build_from_examples(cfg, data)
    state = AdamState()
    rng = np.random.default_rng(0)
    losses = []
    for _ in range(OVERFIT_STEPS):
        model.params.zero_grads()
        loss = gold_loss(model, data[:1], rng=rng)
        assert loss.data >= 0.0
        losses.append(float(loss.data))
        if losses[-1] < OVERFIT_LOSS:
            break
        backward(loss)
        model.params.apply_grad_masks()
        clip_gradients(model.params)
        adam_step(model.params, state, cfg.lr)
    assert min(losses) < OVERFIT_LOSS, f"min loss {min(losses)} after {len(losses)} steps"
    report(8, f"single-example loss {losses[0]:.2f} -> {min(losses):.4f} in "
              f"{len(losses)} Adam steps, non-negative throughout")


def test_criterion_9_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert main(["synth-data", "--out", str(data_dir), "--train", "24", "--dev", "8",
                 "--vocab", "20", "--min-len", "8", "--max-len", "12",
                 "--seed", "4"]) == 0
    flags = ["--hidden", "3", "--batch-size", "8", "--epochs", "2", "--seed", "6",
             "--lr", "0.005", "--set", "word_dim=6", "--set", "char_dim=4",
             "--set", "char_filters=4", "--set", "feat_dim=3",
             "--set", "dropout=0.2"]
    for sub in ("a", "b"):
        assert main(["train", "--train-data", str(data_dir / "train.jsonl"),
                     "--dev-data", str(data_dir / "dev.jsonl"),
                     "--out", str(tmp_path / sub), *flags]) == 0
    log_a = (tmp_path / "a" / "metrics.csv").read_bytes()
    log_b = (tmp_path / "b" / "metrics.csv").read_bytes()
    assert log_a == log_b

    first_id = json.loads(
        (data_dir / "dev.jsonl").read_text().splitlines()[0])["id"]
    for sub in ("dump1", "dump2"):
        assert main(["dump-attention", "--checkpoint", str(tmp_path / "a" / "best.ckpt"),
                     "--data", str(data_dir / "dev.jsonl"),
                     "--example-id", first_id, "--out", str(tmp_path / sub)]) == 0
    for name in ("qp_1", "qp_2", "self_1", "self_2"):
        assert (tmp_path / "dump1" / f"{name}.json").read_bytes() == \
               (tmp_path / "dump2" / f"{name}.json").read_bytes()
    report(9, "identical seeds give byte-identical metric logs and "
              "byte-identical attention dumps")


def test_criterion_10_attention_dynamics_diagnostic(desk_run):
    model = desk_run["model"]
    entropies = {"qp": {}, "self": {}}
    for ex in desk_run["dev_data"][:10]:
        for matrix in forward(model, ex).trace:
            entry = entropies[matrix.kind].setdefault(matrix.layer_index, [])
            entry.append(mean_row_entropy(matrix.weights))
    lines = []
    for kind in ("qp", "self"):
        for layer, values in sorted(entropies[kind].items()):
            lines.append(f"{kind}{layer}={np.mean(values):.3f}")
    self_means = {layer: np.mean(vals) for layer, vals in entropies["self"].items()}
    sharper = self_means[2] <= self_means[1]
    verdict = ("second self-attention layer IS sharper than the first"
               if sharper else
               "second self-attention layer is NOT sharper than the first")
    # reported, not gated: the sharpening trend is an empirical observation
    report(10, f"mean row entropies {', '.join(lines)}; {verdict}")
