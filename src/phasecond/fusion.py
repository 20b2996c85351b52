"""Gated fusion layers regulating information flow between attention stacks.

Outer fusion is a stack of highway layers applied to the concatenation of a
phase's attention outputs:

    C~ = ReLU(C W_C + b_C)
    z  = sigmoid(C W_z + b_z)
    C' = (1 - z) * C + z * C~

Inner fusion merges one attention layer's fresh output with that layer's
input through a GRU-like gate over [new; prev; new * prev]:

    B~ = tanh([new; prev; new*prev] W_B + b_B)
    f  = sigmoid([new; prev; new*prev] W_f + b_f)
    out = (1 - f) * prev + f * B~

Both are width preserving, and both outputs are elementwise convex
combinations of their carry and candidate values. Gate biases start at -1
so early training favors the carry path.

Inner fusion is one tape node that keeps only B~ and f, and lets them go once
backward has read them. Backward remakes the [n, 3w] concatenation for the
weight gradients (a copy, no arithmetic) and frees it before it forms the
input gradient, so the tape keeps no [n, 3w] array. That gradient fills one
[n, 3w] buffer by row blocks of at least ROW_BLOCK rows; the gate's own terms
are added into its first two blocks, the inputs' gradients.
"""

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .params import constant, xavier_uniform

FUSION_LAYERS = 2  # highway layers in each outer fusion stack
GATE_BIAS_INIT = -1.0
ROW_BLOCK = 256  # least rows per block of Fi's input gradient; one block below 2 * ROW_BLOCK


class OuterFusionStack:
    """K width-preserving highway layers over a [n, width] input."""

    def __init__(self, params, prefix, width, n_layers):
        self.width = width
        self.layers = []
        for t in range(1, n_layers + 1):
            w_c = params.add(f"{prefix}.l{t}.W_C", (width, width), xavier_uniform)
            b_c = params.add(f"{prefix}.l{t}.b_C", (width,), constant(0.0))
            w_z = params.add(f"{prefix}.l{t}.W_z", (width, width), xavier_uniform)
            b_z = params.add(f"{prefix}.l{t}.b_z", (width,), constant(GATE_BIAS_INIT))
            self.layers.append((w_c, b_c, w_z, b_z))

    def __call__(self, c0):
        if c0.data.shape[1] != self.width:
            raise ShapeError(f"outer fusion built for width {self.width}, got {c0.data.shape[1]}")
        c = c0
        for w_c, b_c, w_z, b_z in self.layers:
            c = T.gated_mix(c, T.affine(c, w_c, b_c, T.RELU), T.affine(c, w_z, b_z, T.SIGMOID))
        return c


class InnerFusionLayer:
    """GRU-like gate merging an attention output with the layer's input."""

    def __init__(self, params, prefix, width):
        self.width = width
        self.w_b = params.add(f"{prefix}.W_B", (3 * width, width), xavier_uniform)
        self.b_b = params.add(f"{prefix}.b_B", (width,), constant(0.0))
        self.w_f = params.add(f"{prefix}.W_f", (3 * width, width), xavier_uniform)
        self.b_f = params.add(f"{prefix}.b_f", (width,), constant(GATE_BIAS_INIT))

    def __call__(self, b_new, b_prev):
        if b_new.data.shape != b_prev.data.shape:
            raise ShapeError(
                f"inner fusion operands differ: {b_new.data.shape} vs {b_prev.data.shape}"
            )
        if b_new.data.shape[1] != self.width:
            raise ShapeError(f"inner fusion built for width {self.width}, got {b_new.data.shape[1]}")
        new, prev = b_new.data, b_prev.data
        w_b, b_b, w_f, b_f = self.w_b, self.b_b, self.w_f, self.b_f
        cat = np.concatenate([new, prev, new * prev], axis=1)
        cand, z = cat @ w_b.data, cat @ w_f.data
        del cat
        cand += b_b.data
        z += b_f.data
        T.TANH.value(cand, out=cand)
        T.SIGMOID.value(z, out=z)

        def bwd(g):
            nonlocal cand, z
            g_f = T.SIGMOID.rule(g * cand - g * prev, z)
            g_b = T.TANH.rule(g * z, cand)
            d_carry = g * (1.0 - z)
            del g
            cand = z = None  # read for the last time: the tape lets them go now
            cat = np.concatenate([new, prev, new * prev], axis=1)
            dw_f, dw_b = cat.T @ g_f, cat.T @ g_b
            del cat
            db_f, db_b = g_f.sum(axis=0), g_b.sum(axis=0)
            dx = np.empty((len(new), 3 * self.width))  # the concatenation's gradient dx_F + dx_B
            edges = [0, *range(ROW_BLOCK, len(new) - ROW_BLOCK + 1, ROW_BLOCK), len(new)]
            for lo, hi in zip(edges[:-1], edges[1:]):
                np.matmul(g_f[lo:hi], w_f.data.T, out=dx[lo:hi])
                dx[lo:hi] += g_b[lo:hi] @ w_b.data.T
            del g_f, g_b
            d_new, d_prev, g_m = np.split(dx, 3, axis=1)
            d_new += g_m * prev
            d_prev += d_carry
            d_prev += g_m * new
            return d_new, d_prev, dw_f, db_f, dw_b, db_b

        return T.make_node((1.0 - z) * prev + z * cand, (b_new, b_prev, w_f, b_f, w_b, b_b), bwd)
