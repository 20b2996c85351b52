"""Command line entry points.

Subcommands: train, evaluate, predict, dump-attention, grad-check,
synth-data. Exit codes: 0 success, 1 runtime failure, 2 usage or
configuration error.
"""

import argparse
import json
import logging
import os
import sys
from dataclasses import fields

import numpy as np

from .conductor import build_from_examples, forward
from .config import RunConfig, apply_overrides, from_file
from .data import (
    QAExample,
    SyntheticSpec,
    evaluate,
    generate_synthetic,
    load_jsonl,
    load_predictions,
    load_squad,
    tokenize_with_offsets,
    write_jsonl,
)
from .errors import ConfigError, DataError, PhaseCondError
from .training import predict, restore_model, train
from .verification import THRESHOLD, run_grad_checks

log = logging.getLogger(__name__)


def load_dataset(path, training=False):
    if str(path).endswith(".jsonl"):
        return load_jsonl(path)
    return load_squad(path, training=training)


def build_config(args):
    cfg = from_file(args.config) if getattr(args, "config", None) else RunConfig()
    overrides = {f.name: getattr(args, f.name) for f in fields(RunConfig)
                 if getattr(args, f.name, None) is not None}
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value
    return apply_overrides(cfg, overrides)


def cmd_train(args):
    cfg = build_config(args)
    if not cfg.train_data:
        raise ConfigError("train requires --train-data (or train_data in the config)")
    if not cfg.dev_data:
        raise ConfigError("train requires --dev-data (or dev_data in the config)")
    train_examples = load_dataset(cfg.train_data, training=True)
    dev_examples = load_dataset(cfg.dev_data)

    model = build_from_examples(cfg, train_examples)
    print(f"path: {'->'.join(model.path)}")
    print(f"parameters: {model.parameter_count()}")
    result = train(model, train_examples, dev_examples, cfg, run_dir=args.out)
    print(f"status: {result.status}")
    if result.history:
        print(f"best dev EM {result.best_dev_em:.2f} at epoch {result.best_epoch}; "
              f"last epoch dev EM {result.history[-1]['dev_em']:.2f}")
    else:
        print("no epoch completed")
    print(f"run directory: {args.out}")
    return 1 if result.status == "halted_nonfinite" else 0


def cmd_evaluate(args):
    if bool(args.checkpoint) == bool(args.predictions):
        raise ConfigError("evaluate needs exactly one of --checkpoint or --predictions")
    examples = load_dataset(args.data)
    if args.checkpoint:
        predictions = predict(restore_model(args.checkpoint)[0], examples)
    else:
        predictions = load_predictions(args.predictions)
    result = evaluate(predictions, examples, strict=args.strict)
    print(f"EM: {result.em:.2f}")
    print(f"F1: {result.f1:.2f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "predictions.json"), "w", encoding="utf-8") as fh:
            json.dump(predictions, fh, indent=1, sort_keys=True)
        report = {"em": result.em, "f1": result.f1, "per_question": result.per_question}
        with open(os.path.join(args.out, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
        print(f"wrote predictions.json and report.json to {args.out}")
    return 0


def cmd_predict(args):
    model = restore_model(args.checkpoint)[0]
    examples = load_dataset(args.data)
    predictions = predict(model, examples)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(predictions, fh, indent=1, sort_keys=True)
    print(f"wrote {len(predictions)} predictions to {args.out}")
    return 0


def _adhoc_example(passage, question):
    tokens, offsets = tokenize_with_offsets(passage)
    question_tokens = tokenize_with_offsets(question)[0]
    for flag, seq in (("--passage", tokens), ("--question", question_tokens)):
        if not seq:
            raise ConfigError(f"{flag} has no tokens")
    return QAExample(id="adhoc", passage_text=passage, passage_tokens=tokens,
                     passage_offsets=offsets, question_tokens=question_tokens,
                     gold_spans=[], answer_texts=[])


def mean_row_entropy(weights):
    w = np.clip(np.asarray(weights), 1e-12, 1.0)
    return float(0.0 - (w * np.log(w)).sum(axis=1).mean())  # +0.0, not -0.0, for one-hot rows


def dump_attention(model, example, out_dir, write_csv=False):
    """Write per-layer score/weight matrices plus an entropy manifest."""
    os.makedirs(out_dir, exist_ok=True)
    result = forward(model, example)
    manifest = {"example_id": example.id, "span": [result.span.start, result.span.end],
                "answer_text": example.span_text(result.span.start, result.span.end),
                "matrices": [], "entropy": []}
    for matrix in result.trace:
        if not np.all(np.abs(matrix.weights.sum(axis=1) - 1.0) <= 1e-9):  # NaN fails too
            raise PhaseCondError(
                f"{matrix.kind}{matrix.layer_index}: rows do not sum to 1 before export")
        cols = (example.question_tokens if matrix.kind == "qp"
                else example.passage_tokens)
        record = {
            "kind": matrix.kind,
            "layer_index": matrix.layer_index,
            "row_tokens": example.passage_tokens,
            "col_tokens": cols,
            "scores": matrix.scores.tolist(),
            "weights": matrix.weights.tolist(),
        }
        name = f"{matrix.kind}_{matrix.layer_index}"
        path = os.path.join(out_dir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        if write_csv:
            for payload, suffix in ((matrix.scores, "scores"), (matrix.weights, "weights")):
                np.savetxt(os.path.join(out_dir, f"{name}.{suffix}.csv"),
                           payload, delimiter=",", fmt="%.10g")
        manifest["matrices"].append(f"{name}.json")
        manifest["entropy"].append({"kind": matrix.kind,
                                    "layer_index": matrix.layer_index,
                                    "mean_row_entropy": mean_row_entropy(matrix.weights)})
    self_layers = {e["layer_index"]: e["mean_row_entropy"]
                   for e in manifest["entropy"] if e["kind"] == "self"}
    if 1 in self_layers and 2 in self_layers:
        manifest["second_self_layer_sharper"] = bool(self_layers[2] <= self_layers[1])
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)
    return manifest


def cmd_dump_attention(args):
    if (args.data or args.example_id) and (args.passage or args.question):
        raise ConfigError("dump-attention takes one example source: --example-id with --data, "
                          "or --passage and --question")
    if args.example_id:
        if not args.data:
            raise ConfigError("--example-id requires --data")
        examples = load_dataset(args.data)
        by_id = {ex.id: ex for ex in examples}
        if args.example_id not in by_id:
            sample = ", ".join(list(by_id)[:10])
            raise DataError(
                f"unknown example id {args.example_id!r}; available ids include: {sample}")
        example = by_id[args.example_id]
    elif args.passage and args.question:
        example = _adhoc_example(args.passage, args.question)
    else:
        raise ConfigError("dump-attention needs --example-id with --data, "
                          "or --passage and --question")
    manifest = dump_attention(restore_model(args.checkpoint)[0], example, args.out,
                              write_csv=args.csv)
    for entry in manifest["entropy"]:
        print(f"{entry['kind']} layer {entry['layer_index']}: "
              f"mean row entropy {entry['mean_row_entropy']:.4f}")
    if "second_self_layer_sharper" in manifest:
        sharper = manifest["second_self_layer_sharper"]
        print("second self-attention layer is "
              + ("sharper than" if sharper else "not sharper than")
              + " the first (lower mean row entropy)")
    print(f"wrote {len(manifest['matrices'])} matrices to {args.out}")
    return 0


def cmd_grad_check(args):
    reports = run_grad_checks(seed=args.seed)
    failed = [r for r in reports if not r.passed]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.component:22s} max_rel_err={r.max_rel_err:.3e} "
              f"threshold={THRESHOLD:g} dims={r.dims} seed={r.seed}")
    if failed:
        print(f"{len(failed)} component(s) failed: "
              + ", ".join(r.component for r in failed))
        return 1
    print(f"all {len(reports)} components passed")
    return 0


def cmd_synth_data(args):
    """Both sets are generated, so both specs checked, before anything is written."""
    sets = [(name, generate_synthetic(SyntheticSpec(
                n_examples=n, vocab_size=args.vocab, min_len=args.min_len,
                max_len=args.max_len, seed=args.seed + offset)))
            for name, n, offset in (("train", args.train, 0), ("dev", args.dev, 1))]
    os.makedirs(args.out, exist_ok=True)
    for name, examples in sets:
        path = os.path.join(args.out, f"{name}.jsonl")
        write_jsonl(examples, path)
        print(f"wrote {len(examples)} {name} examples to {path}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="phasecond",
        description="Phase-conducted attention model for extractive QA")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_flags(p):
        p.add_argument("--config", help="key=value config file")
        helps = {"path": "phase path expression", "vectors": "pretrained vector file"}
        for name in ("path", "hidden", "seed", "lr", "epochs", "batch_size", "dropout",
                     "word_dim", "vectors", "train_data", "dev_data"):  # strings, parsed like --set
            p.add_argument("--" + name.replace("_", "-"), dest=name, help=helps.get(name))
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override any config field")

    p_train = sub.add_parser("train", help="train a model")
    add_config_flags(p_train)
    p_train.add_argument("--out", default="runs/latest", help="run directory")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate",
                            help="score a checkpoint (or a predictions file) on a dataset")
    p_eval.add_argument("--checkpoint")
    p_eval.add_argument("--predictions", help="score an existing predictions JSON")
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out", help="directory for predictions.json / report.json")
    p_eval.add_argument("--strict", action="store_true",
                        help="error on missing predictions instead of scoring 0")
    p_eval.set_defaults(func=cmd_evaluate)

    p_pred = sub.add_parser("predict", help="write predictions for a dataset")
    p_pred.add_argument("--checkpoint", required=True)
    p_pred.add_argument("--data", required=True)
    p_pred.add_argument("--out", default="predictions.json")
    p_pred.set_defaults(func=cmd_predict)

    p_dump = sub.add_parser("dump-attention",
                            help="export per-layer attention matrices")
    p_dump.add_argument("--checkpoint", required=True)
    p_dump.add_argument("--data")
    p_dump.add_argument("--example-id", dest="example_id")
    p_dump.add_argument("--passage")
    p_dump.add_argument("--question")
    p_dump.add_argument("--out", default="attention")
    p_dump.add_argument("--csv", action="store_true",
                        help="also write one CSV per matrix")
    p_dump.set_defaults(func=cmd_dump_attention)

    p_gc = sub.add_parser("grad-check", help="finite-difference check per layer type")
    p_gc.add_argument("--seed", type=int, default=0)
    p_gc.set_defaults(func=cmd_grad_check)

    p_synth = sub.add_parser("synth-data", help="generate a synthetic dataset")
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--train", type=int, default=200)
    p_synth.add_argument("--dev", type=int, default=50)
    p_synth.add_argument("--vocab", type=int, default=50)
    p_synth.add_argument("--min-len", dest="min_len", type=int, default=20)
    p_synth.add_argument("--max-len", dest="max_len", type=int, default=30)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=cmd_synth_data)

    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:  # a bad path too: the config refused it when it was made
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PhaseCondError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
