#!/usr/bin/env python3
"""Sweep question-passage and self-attention depths on synthetic data.

Builds paths with 1 or 2 layers per phase and trains each under the same
hyperparameters, mirroring the layer-count ablation grid.

    python3 scripts/layer_depth_sweep.py --epochs 40
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from phasecond.conductor import build_from_examples
from phasecond.config import desk_config
from phasecond.data import SyntheticSpec, generate_synthetic
from phasecond.training import evaluate_model, train


def path_for(n_qp, n_self):
    qp = "->".join(["LQ"] * n_qp)
    selfs = "->".join(["LS->Fi"] * n_self)
    return f"{qp}->Fo->{selfs}"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--train", type=int, default=200)
    ap.add_argument("--dev", type=int, default=50)
    ap.add_argument("--epochs", type=int, default=40)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    train_data = generate_synthetic(SyntheticSpec(
        n_examples=args.train, vocab_size=50, min_len=20, max_len=30, seed=0))
    dev_data = generate_synthetic(SyntheticSpec(
        n_examples=args.dev, vocab_size=50, min_len=20, max_len=30, seed=1))

    print(f"{'qp':>3s} {'self':>4s} {'path':34s} {'dev EM':>7s} {'dev F1':>7s} {'epochs':>6s}")
    for n_qp in (1, 2):
        for n_self in (1, 2):
            expr = path_for(n_qp, n_self)
            cfg = desk_config(path=expr, epochs=args.epochs, seed=args.seed,
                              early_stop_train_em=0.0, early_stop_dev_em=100.0)
            model = build_from_examples(cfg, train_data)
            result = train(model, train_data, dev_data, cfg)
            dev = evaluate_model(model, dev_data)
            print(f"{n_qp:3d} {n_self:4d} {expr:34s} {dev.em:7.1f} {dev.f1:7.1f} "
                  f"{len(result.history):6d}")


if __name__ == "__main__":
    main()
