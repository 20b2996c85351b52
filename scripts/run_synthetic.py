#!/usr/bin/env python3
"""Desk-scale experiment: two-phase path vs alternating path on cloze data.

Generates a synthetic dataset, trains PhaseCond's default path and the
iterative-aligner baseline path under identical hyperparameters, prints a
comparison table, and dumps the attention matrices of the better model for
one dev example (with per-layer entropy, to inspect the sharpening of the
second self-attention layer).

    python3 scripts/run_synthetic.py --out runs/synthetic
"""

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from phasecond.cli import dump_attention
from phasecond.conductor import build_from_examples
from phasecond.config import DEFAULT_PATH, ITERATIVE_ALIGNER_PATH, desk_config
from phasecond.data import SyntheticSpec, generate_synthetic, write_jsonl
from phasecond.training import evaluate_model, restore_model, train


def run_one(path_expr, tag, train_data, dev_data, args):
    cfg = desk_config(path=path_expr, hidden=args.hidden, lr=args.lr, epochs=args.epochs,
                      seed=args.seed)
    model = build_from_examples(cfg, train_data)
    run_dir = os.path.join(args.out, tag)
    start = time.time()
    result = train(model, train_data, dev_data, cfg, run_dir=run_dir)
    elapsed = time.time() - start
    dev = evaluate_model(model, dev_data)
    train_em = evaluate_model(model, train_data).em
    return {"tag": tag, "path": path_expr, "epochs": len(result.history),
            "train_em": train_em, "dev_em": dev.em, "dev_f1": dev.f1,
            "seconds": elapsed, "params": model.parameter_count(),
            "run_dir": run_dir, "best_ckpt": result.checkpoint_path}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs/synthetic")
    ap.add_argument("--train", type=int, default=200)
    ap.add_argument("--dev", type=int, default=50)
    ap.add_argument("--vocab", type=int, default=50)
    ap.add_argument("--hidden", type=int, default=32)
    ap.add_argument("--lr", type=float, default=0.01)
    ap.add_argument("--epochs", type=int, default=300)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    os.makedirs(args.out, exist_ok=True)
    train_data = generate_synthetic(SyntheticSpec(
        n_examples=args.train, vocab_size=args.vocab, min_len=20, max_len=30, seed=0))
    dev_data = generate_synthetic(SyntheticSpec(
        n_examples=args.dev, vocab_size=args.vocab, min_len=20, max_len=30, seed=1))
    write_jsonl(train_data, os.path.join(args.out, "train.jsonl"))
    write_jsonl(dev_data, os.path.join(args.out, "dev.jsonl"))

    rows = [
        run_one(DEFAULT_PATH, "phasecond", train_data, dev_data, args),
        run_one(ITERATIVE_ALIGNER_PATH, "iterative_aligner", train_data, dev_data, args),
    ]

    print(f"\n{'model':18s} {'epochs':>6s} {'train EM':>9s} {'dev EM':>7s} "
          f"{'dev F1':>7s} {'params':>8s} {'time':>6s}")
    for r in rows:
        print(f"{r['tag']:18s} {r['epochs']:6d} {r['train_em']:9.1f} "
              f"{r['dev_em']:7.1f} {r['dev_f1']:7.1f} {r['params']:8d} "
              f"{r['seconds']:5.0f}s")

    best = max(rows, key=lambda r: r["dev_em"])
    model, _ = restore_model(best["best_ckpt"])
    att_dir = os.path.join(args.out, "attention")
    manifest = dump_attention(model, dev_data[0], att_dir, write_csv=True)
    print(f"\nattention matrices for {dev_data[0].id} -> {att_dir}")
    for entry in manifest["entropy"]:
        print(f"  {entry['kind']} layer {entry['layer_index']}: "
              f"mean row entropy {entry['mean_row_entropy']:.3f}")
    if "second_self_layer_sharper" in manifest:
        print("  second self-attention layer sharper than first: "
              f"{manifest['second_self_layer_sharper']}")

    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
    print(f"\nsummary -> {os.path.join(args.out, 'summary.json')}")


if __name__ == "__main__":
    main()
