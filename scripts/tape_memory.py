#!/usr/bin/env python3
"""Measure the training tape's memory on one SQuAD-like minibatch.

Builds a default-config model on a seeded batch of synthetic passages of
150-450 tokens, four by default (`--examples 32` is the minibatch `phasecond
train` steps on at the default batch size), then traces one training step's
allocations with tracemalloc: the peak during the forward pass and the memory
the tape holds after it, the peak while `backward()` walks it, and what is
still live after backward with the loss still referenced. Each figure is
printed in MB per 300 passage tokens, next to the batch's leaf gradients. Then
comes the inference figure: the peak of one `forward_batch` over the same
batch, which freezes the parameters and so builds no tape. Last, what the tape
holds right after the forward pass, walked from the loss and split by the op
that made each node: the node's value and the arrays its backward rule
captured, each base array counted once, parameters not at all.

    python3 scripts/tape_memory.py --seed 0
    python3 scripts/tape_memory.py --seed 0 --examples 32
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


def _root(array):
    """The last array down array's chain of bases: the one that owns its memory."""
    root = array
    while array is not None:
        if isinstance(array, np.ndarray):
            root = array
        array = getattr(array, "base", None)
    return root


def _captured(value):
    """The arrays in a closure cell: an array, or those in a tuple or list."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _captured(item)


def tape_holdings(loss, params):
    """{op: [nodes, bytes]} the tape from `loss` keeps alive.

    A node's op is the function that made it (`affine`, `lstm_direction`, ...);
    a leaf that is not a parameter is a "constant". An array is counted once,
    by its base, under the first op found holding it: node values first, in
    walk order, then the arrays each backward rule captured. The parameters
    are not the tape, and neither is anything viewing them.
    """
    param_ids = {id(t) for _, t in params.items()}
    seen = {id(_root(t.data)) for _, t in params.items()}
    nodes, stack, visited = [], [loss], {id(loss)}
    while stack:
        node = stack.pop()
        nodes.append(node)
        for p in node._parents:
            if id(p) not in visited:
                visited.add(id(p))
                stack.append(p)
    holdings = {}

    def hold(op, array):
        root = _root(array)
        if id(root) not in seen:
            seen.add(id(root))
            holdings[op][1] += root.nbytes

    ops = []
    for node in nodes:
        rule = node._backward
        op = rule.__qualname__.split(".")[0] if rule else None
        if op is None and id(node) in param_ids:
            continue
        op = op or "constant"
        holdings.setdefault(op, [0, 0])[0] += 1
        ops.append((op, rule))
        hold(op, node.data)
    for op, rule in ops:
        for cell in (rule.__closure__ or ()) if rule else ():
            try:
                value = cell.cell_contents
            except ValueError:  # a name the rule's function never bound
                continue
            for array in _captured(value):
                hold(op, array)
    return holdings


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--examples", type=int, default=4, help="passages in the batch")
    args = ap.parse_args()
    if args.examples < 1:
        ap.error("--examples must be at least 1")

    batch = generate_synthetic(SyntheticSpec(n_examples=args.examples, vocab_size=2000,
                                             min_len=150, max_len=450, seed=args.seed))
    model = build_from_examples(RunConfig(seed=args.seed), batch)
    tokens = sum(len(ex.passage_tokens) for ex in batch)

    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    loss = gold_loss(model, batch, rng=np.random.default_rng(args.seed))
    after_forward, forward_peak = (m - base for m in tracemalloc.get_traced_memory())
    holdings = tape_holdings(loss, model.params)
    tracemalloc.reset_peak()
    backward(loss)
    after_backward, peak = (m - base for m in tracemalloc.get_traced_memory())
    tracemalloc.stop()
    grads = sum(t.grad.nbytes for _, t in model.params.items() if t.grad is not None)
    del loss
    model.params.zero_grads()

    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    forward_batch(model, batch)
    inference_peak = tracemalloc.get_traced_memory()[1] - base
    tracemalloc.stop()

    scale = 300 / tokens / MB
    print(f"batch: {args.examples} examples, {tokens} passage tokens, "
          f"{model.params.count():,} parameters")
    print(f"{'':28}{'MB':>10}{'MB / 300 tokens':>18}")
    for name, value in (("peak during forward", forward_peak),
                        ("live after forward", after_forward),
                        ("peak during backward", peak),
                        ("live after backward", after_backward),
                        ("  of which leaf gradients", grads),
                        ("peak of a frozen forward", inference_peak)):
        print(f"{name:28}{value / MB:10.1f}{value * scale:18.1f}")

    print(f"\ntape after forward, by op{'nodes':>10}{'MB':>10}{'MB / 300 tokens':>18}")
    for op, (count, held) in sorted(holdings.items(), key=lambda item: -item[1][1]):
        print(f"  {op:26}{count:10}{held / MB:10.1f}{held * scale:18.1f}")
    count, held = (sum(column) for column in zip(*holdings.values()))
    print(f"  {'total':26}{count:10}{held / MB:10.1f}{held * scale:18.1f}")


if __name__ == "__main__":
    main()
