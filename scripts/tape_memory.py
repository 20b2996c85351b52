#!/usr/bin/env python3
"""Measure the training tape's memory on one SQuAD-like minibatch.

Builds a default-config model on a seeded batch of four synthetic passages
of 150-450 tokens, then traces one training step's allocations with
tracemalloc: the peak during the forward pass and the memory the tape holds
after it, the peak while `backward()` walks it, and what is still live after
backward with the loss still referenced. Each figure is printed in MB per 300
passage tokens, next to the batch's leaf gradients. Last comes the inference
figure: the peak of one `forward_batch` over the same batch with the
parameters frozen, which builds no tape.

    python3 scripts/tape_memory.py --seed 0
"""

import argparse
import os
import sys
import tracemalloc

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from phasecond.conductor import build_from_examples, forward_batch, gold_loss
from phasecond.config import RunConfig
from phasecond.data import SyntheticSpec, generate_synthetic
from phasecond.tensor import backward

MB = 1e6


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    batch = generate_synthetic(SyntheticSpec(n_examples=4, vocab_size=2000, min_len=150,
                                             max_len=450, seed=args.seed))
    model = build_from_examples(RunConfig(seed=args.seed), batch)
    tokens = sum(len(ex.passage_tokens) for ex in batch)

    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    loss = gold_loss(model, batch, rng=np.random.default_rng(args.seed))
    after_forward, forward_peak = (m - base for m in tracemalloc.get_traced_memory())
    tracemalloc.reset_peak()
    backward(loss)
    after_backward, peak = (m - base for m in tracemalloc.get_traced_memory())
    tracemalloc.stop()
    grads = sum(t.grad.nbytes for _, t in model.params.items() if t.grad is not None)
    del loss
    model.params.zero_grads()

    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    with model.params.frozen():
        forward_batch(model, batch)
    inference_peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()

    scale = 300 / tokens / MB
    print(f"batch: 4 examples, {tokens} passage tokens, {model.params.count():,} parameters")
    print(f"{'':28}{'MB':>10}{'MB / 300 tokens':>18}")
    for name, value in (("peak during forward", forward_peak),
                        ("live after forward", after_forward),
                        ("peak during backward", peak),
                        ("live after backward", after_backward),
                        ("  of which leaf gradients", grads),
                        ("peak of a frozen forward", inference_peak)):
        print(f"{name:28}{value / MB:10.1f}{value * scale:18.1f}")


if __name__ == "__main__":
    main()
