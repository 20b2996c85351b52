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
"""

from . import tensor as T
from .errors import ShapeError
from .params import constant, xavier_uniform

GATE_BIAS_INIT = -1.0


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
        cat = T.concat([b_new, b_prev, T.mul(b_new, b_prev)], axis=1)
        return T.gated_mix(b_prev, T.affine(cat, self.w_b, self.b_b, T.TANH),
                           T.affine(cat, self.w_f, self.b_f, T.SIGMOID))
