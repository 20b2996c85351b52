#!/usr/bin/env python3
"""Desk-scale experiment: phase paths compared under identical settings.

Trains every path of --paths on the same synthetic cloze data to the desk
criterion (95 train / 90 dev EM within --epochs), run i in <out>/path<i>,
prints one table, and dumps the attention matrices of the best dev-EM model
for one dev example, with per-layer entropy. By default (`--out runs/synthetic`)
it compares the default path with the iterative-aligner path. The layer-count
grid, one or two layers per phase:

    python3 scripts/run_synthetic.py --out runs/depth --paths "LQ->Fo->LS->Fi" \\
        "LQ->Fo->LS->Fi->LS->Fi" "LQ->LQ->Fo->LS->Fi" "LQ->LQ->Fo->LS->Fi->LS->Fi"

With --seeds A-B every path trains once per model seed A..B on the same data,
run i of seed s in <out>/path<i>-seed<s>, and a second table gives each path's
pass rate, epochs to criterion, epochs at dev EM 28 (the plateau) and dev EM
after epoch 1, as median (min-max) over its seeds:

    python3 scripts/run_synthetic.py --out runs/seeds --paths "LQ->Fo->LS->Fi" \\
        --seeds 32-63 --epochs 60
"""

import argparse
import json
import math
import os
import platform
import statistics
import sys
import time
from dataclasses import replace

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from phasecond.cli import dump_attention
from phasecond.conductor import build_from_examples
from phasecond.config import DEFAULT_PATH, ITERATIVE_ALIGNER_PATH, desk_config
from phasecond.data import SyntheticSpec, generate_synthetic, write_jsonl
from phasecond.errors import ConfigError
from phasecond.training import evaluate_model, restore_model, train


PLATEAU_EM = 28.0  # dev EM of the one-token spans every desk run passes through


def seed_range(text):
    """The seeds A..B of "A-B", or A alone of "A"."""
    lo, _, hi = text.partition("-")
    try:
        seeds = range(int(lo), int(hi or lo) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A-B, got {text!r}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def run_one(tag, cfg, train_data, dev_data, args):
    """Train one config; dev EM and F1 are its best epoch's, where `train` leaves the model."""
    model = build_from_examples(cfg, train_data)
    run_dir = os.path.join(args.out, tag)
    start = time.time()
    result = train(model, train_data, dev_data, cfg, run_dir=run_dir)
    elapsed = time.time() - start
    nan = float("nan")  # a run halted before its first evaluation, its parameters maybe not finite
    best = result.history[result.best_epoch - 1] if result.history else {}
    dev_ems = [r["dev_em"] for r in result.history]
    return {"tag": tag, "path": cfg.path, "seed": cfg.seed, "epochs": len(result.history),
            "passed": result.status == "early_stop", "at_plateau": dev_ems.count(PLATEAU_EM),
            "dev_em_epoch1": dev_ems[0] if dev_ems else nan,
            "train_em": evaluate_model(model, train_data).em if dev_ems else nan,
            "dev_em": best.get("dev_em", nan), "dev_f1": best.get("dev_f1", nan),
            "seconds": elapsed, "params": model.parameter_count(),
            "run_dir": run_dir, "best_ckpt": result.checkpoint_path}


def spread(values):
    """"median (min-max)" of the finite values, "-" if none."""
    values = [v for v in values if not math.isnan(v)]
    if not values:
        return "-"
    return f"{statistics.median(values):g} ({min(values):g}-{max(values):g})"


def print_seed_table(rows, paths, width):
    print(f"\n{'path':{width}s} {'pass':>7s}  {'epochs to criterion':20s} "
          f"{'epochs at EM 28':16s} dev EM after epoch 1")
    for path_expr in paths:
        runs = [r for r in rows if r["path"] == path_expr]
        passed = [r["epochs"] for r in runs if r["passed"]]
        print(f"{path_expr:{width}s} {f'{len(passed)}/{len(runs)}':>7s}  {spread(passed):20s} "
              f"{spread([r['at_plateau'] for r in runs]):16s} "
              f"{spread([r['dev_em_epoch1'] for r in runs])}")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default="runs/synthetic")
    ap.add_argument("--paths", nargs="+", metavar="PATH", help="phase paths, in table order",
                    default=[DEFAULT_PATH, ITERATIVE_ALIGNER_PATH])
    ap.add_argument("--train", type=int, default=200)
    ap.add_argument("--dev", type=int, default=50)
    ap.add_argument("--vocab", type=int, default=50)
    # unset, each of these four keeps desk_config()'s value
    ap.add_argument("--hidden", type=int)
    ap.add_argument("--lr", type=float)
    ap.add_argument("--epochs", type=int)
    ap.add_argument("--seed", type=int, help="model seed")
    ap.add_argument("--seeds", type=seed_range, metavar="A-B",
                    help="train every path once per model seed A..B instead of --seed")
    args = ap.parse_args()
    given = {name: getattr(args, name) for name in ("hidden", "lr", "epochs", "seed")
             if getattr(args, name) is not None}
    try:  # every run's config is made, so checked, before anything is written
        base = desk_config(**given)
    except ConfigError as exc:
        ap.error(str(exc))
    configs = []
    for path_expr in args.paths:
        try:
            configs.append(replace(base, path=path_expr))
        except ConfigError as exc:
            ap.error(f"bad path {path_expr!r}: {exc}")

    os.makedirs(args.out, exist_ok=True)
    train_data = generate_synthetic(SyntheticSpec(
        n_examples=args.train, vocab_size=args.vocab, min_len=20, max_len=30, seed=0))
    dev_data = generate_synthetic(SyntheticSpec(
        n_examples=args.dev, vocab_size=args.vocab, min_len=20, max_len=30, seed=1))
    write_jsonl(train_data, os.path.join(args.out, "train.jsonl"))
    write_jsonl(dev_data, os.path.join(args.out, "dev.jsonl"))

    rows = [run_one(f"path{i}" + (f"-seed{seed}" if args.seeds else ""),
                    replace(cfg, seed=seed), train_data, dev_data, args)
            for i, cfg in enumerate(configs, start=1)
            for seed in args.seeds or [base.seed]]

    width = max(len(r["path"]) for r in rows)
    print(f"\n{'path':{width}s} {'seed':>5s} {'epochs':>6s} {'train EM':>9s} {'dev EM':>7s} "
          f"{'dev F1':>7s} {'EM@1':>5s} {'at 28':>5s} {'params':>8s} {'time':>6s}")
    for r in rows:
        print(f"{r['path']:{width}s} {r['seed']:5d} {r['epochs']:6d} {r['train_em']:9.1f} "
              f"{r['dev_em']:7.1f} {r['dev_f1']:7.1f} {r['dev_em_epoch1']:5.0f} "
              f"{r['at_plateau']:5d} {r['params']:8d} {r['seconds']:5.0f}s")
    if args.seeds is not None:
        print_seed_table(rows, args.paths, width)
    environment = {"python": platform.python_version(), "numpy": np.__version__,
                   "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    print(f"\npython {environment['python']}, numpy {environment['numpy']}, "
          f"OPENBLAS_NUM_THREADS={environment['openblas_num_threads'] or 'unset'}")

    trained = [r for r in rows if r["epochs"]]  # every run with an epoch saved a checkpoint
    if trained:
        best = max(trained, key=lambda r: r["dev_em"])
        model, _ = restore_model(best["best_ckpt"])
        att_dir = os.path.join(args.out, "attention")
        manifest = dump_attention(model, dev_data[0], att_dir, write_csv=True)
        print(f"\nattention matrices of {best['path']} for {dev_data[0].id} -> {att_dir}")
        for entry in manifest["entropy"]:
            print(f"  {entry['kind']} layer {entry['layer_index']}: "
                  f"mean row entropy {entry['mean_row_entropy']:.3f}")
        if "second_self_layer_sharper" in manifest:
            print(f"  second self-attention layer sharper: {manifest['second_self_layer_sharper']}")

    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump({"environment": environment, "runs": rows}, fh, indent=1)
    print(f"\nsummary -> {os.path.join(args.out, 'summary.json')}")


if __name__ == "__main__":
    main()
