"""Bidirectional LSTM encoders.

Two encoder roles over the same feature space:

* an independent question encoder producing the attention values v;
* a shared encoder producing the passage keys h and question keys u with
  one parameter set, so both sequences live in the same similarity space.

Each encoder runs once per minibatch: every sequence it sees in the batch
(for the shared encoder, the passages and the questions together) is packed
row after row, and the whole BiLSTM pass over them is a single graph node
with a hand-written backward-through-time rule. Its two directions step
together: one recurrent product and one pass of pointwise work per step
covers both. At step t the node updates only the sequences still running,
so nothing is padded or masked, and reads their incoming state from the rows
step t - 1 wrote to its output and cell buffers; the per-step Python loop
stays out of the autodiff tape. The rule is pinned by finite-difference
tests. Encoders take and return packed rows with the sequences' lengths;
nothing is split per example here.
"""

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .params import constant, orthogonal, xavier_uniform
from .tensor import make_node, stable_sigmoid


def _time_major(lengths, reverses):
    """(perms, bounds): the packed rows in processing order, step by step,
    one perm per direction.

    Sequences are taken longest first, so the ones still running at step t
    are always a prefix of that order: step t reads packed rows
    perm[bounds[t]:bounds[t + 1]], and the states entering it are the first
    bounds[t + 1] - bounds[t] rows step t - 1 wrote. The reverse direction
    starts at each sequence's own last row; the directions share bounds.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(-lengths, kind="stable")
    starts, lengths = starts[order], lengths[order]
    t = np.arange(lengths[0])[:, None]
    running = t < lengths  # [steps, sequences]; each row is a prefix
    bounds = np.concatenate(([0], np.cumsum(running.sum(axis=1))))
    return ([(starts + (lengths - 1 - t if reverse else t))[running] for reverse in reverses],
            bounds.tolist())


def lstm_direction(x, cells, lengths):
    """Every direction of an LSTM over packed sequences -> [sum(lengths), k*d].

    x holds the sequences' rows back to back, sequence s being lengths[s]
    rows long. `cells` holds one (W, U, b, reverse) per direction, k in all;
    the directions step together and their outputs sit side by side. Gate layout
    along the 4d axis is (input, forget, cell, output). Output row r is the
    hidden state after consuming row r in its sequence's processing order.
    """
    n = x.data.shape[0]
    if sum(lengths) != n:
        raise ShapeError(f"sequence lengths sum to {sum(lengths)}, input has {n} rows")
    k, d = len(cells), cells[0][1].data.shape[0]
    perms, bounds = _time_major(lengths, [reverse for *_, reverse in cells])
    blocks = list(zip(bounds[:-1], bounds[1:]))
    # Time-major rows, and within a row gate-major: gates[r, q] is gate q of
    # every direction, so a one-row step works on whole contiguous blocks.
    gates = np.empty((n, 4, k, d))  # pre-activations, then activated (i, f, g, o)
    for j, ((w, _, b, _), perm) in enumerate(zip(cells, perms)):
        gates[:, :, j] = (x.data @ w.data + b.data)[perm].reshape(n, 4, d)
    us = np.stack([u.data for _, u, _, _ in cells])  # [k, d, 4d]
    outs, cs = np.empty((n, k, d)), np.empty((n, k, d))
    zeros = np.zeros((bounds[1], k, d))  # the state entering step 0

    def prev(buf, t, a):
        """The state rows entering step t: the prefix of step t - 1's rows."""
        return buf[blocks[t - 1][0]:blocks[t - 1][0] + a] if t else zeros

    for t, (lo, hi) in enumerate(blocks):
        a = hi - lo
        act = gates[lo:hi]
        act += np.matmul(prev(outs, t, a).transpose(1, 0, 2), us).reshape(
            k, a, 4, d).transpose(1, 2, 0, 3)
        g = np.tanh(act[:, 2])
        stable_sigmoid(act, out=act)
        act[:, 2] = g
        c = np.multiply(act[:, 1], prev(cs, t, a), out=cs[lo:hi])
        c += act[:, 0] * g
        np.multiply(act[:, 3], np.tanh(c), out=outs[lo:hi])
    out = np.empty((n, k * d))
    for j, perm in enumerate(perms):
        out[perm, j * d:(j + 1) * d] = outs[:, j]

    def bwd(grad_out):
        grad_tm = np.empty((n, k, d))
        for j, perm in enumerate(perms):
            grad_tm[:, j] = grad_out[perm, j * d:(j + 1) * d]
        dgates = np.empty((k, n, 4 * d))  # direction-major, so BLAS reads each step as it is
        # U stacked again rather than kept: the tape holds no copy of a parameter
        u_t = np.stack([u.data for _, u, _, _ in cells]).transpose(0, 2, 1)
        dh_carry = np.zeros((bounds[1], k, d))
        dc_carry = np.zeros((bounds[1], k, d))
        for t in reversed(range(len(blocks))):
            lo, hi = blocks[t]
            a = hi - lo
            i, f, g, o = gates[lo:hi].transpose(1, 0, 2, 3)
            tanh_c = np.tanh(cs[lo:hi])  # remade, not kept: one step's rows at a time
            dh = grad_tm[lo:hi] + dh_carry[:a]
            do = dh * tanh_c
            dc = dc_carry[:a] + dh * o * (1.0 - tanh_c * tanh_c)
            step = dgates[:, lo:hi].transpose(1, 0, 2)
            step[..., :d] = dc * g * i * (1.0 - i)
            step[..., d:2 * d] = dc * prev(cs, t, a) * f * (1.0 - f)
            step[..., 2 * d:3 * d] = dc * i * (1.0 - g * g)
            step[..., 3 * d:] = do * o * (1.0 - o)
            dc_carry[:a] = dc * f
            np.matmul(dgates[:, lo:hi], u_t, out=dh_carry[:a].transpose(1, 0, 2))
        # the state entering a row is the output of the row before it in its
        # sequence's processing order, or zero at the sequence's first step
        sizes = np.diff(bounds)
        before = np.arange(bounds[1], n) - np.repeat(sizes[:-1], sizes[1:])
        grads = []
        for j, ((w, _, _, _), perm) in enumerate(zip(cells, perms)):
            dpre = np.empty((n, 4 * d))
            dpre[perm] = dgates[j]
            h_prev = np.zeros((n, d))
            h_prev[perm[bounds[1]:]] = out[perm[before], j * d:(j + 1) * d]
            grads += [dpre @ w.data.T if x.requires_grad else None,
                      x.data.T @ dpre, h_prev.T @ dpre, dpre.sum(axis=0)]
        return grads

    # x is a parent once per direction, so its gradient adds the directions' parts
    # one at a time, as it would from one node per direction
    return make_node(out, tuple(p for cell in cells for p in (x, *cell[:3])), bwd)


class BiLSTMEncoder:
    """Forward and backward LSTM over packed sequences, states side by side."""

    def __init__(self, params, prefix, in_dim, hidden):
        self.in_dim = in_dim
        self.cells = []
        for direction, reverse in (("fw", False), ("bw", True)):
            w = params.add(f"{prefix}.{direction}.W", (in_dim, 4 * hidden), xavier_uniform)
            u = params.add(f"{prefix}.{direction}.U", (hidden, 4 * hidden), orthogonal)
            b = params.add(f"{prefix}.{direction}.b", (4 * hidden,),  # forget gate open at init
                           constant(np.repeat([0.0, 1.0, 0.0, 0.0], hidden)))
            self.cells.append((w, u, b, reverse))

    def __call__(self, features, lengths):
        """[sum(lengths), in_dim] -> [sum(lengths), 2*hidden]."""
        if min(lengths, default=0) == 0:
            raise ShapeError("cannot encode an empty sequence")
        if features.data.shape[1] != self.in_dim:
            raise ShapeError(
                f"encoder built for input width {self.in_dim}, got {features.data.shape[1]}"
            )
        return lstm_direction(features, self.cells, lengths)


class EncoderPair:
    """The independent question encoder plus the shared passage/question encoder.

    Both take a minibatch packed as rows: every sequence's feature rows back to
    back, with the sequences' lengths.
    """

    def __init__(self, params, in_dim, hidden):
        self.independent = BiLSTMEncoder(params, "enc.indep", in_dim, hidden)
        self.shared = BiLSTMEncoder(params, "enc.shared", in_dim, hidden)

    def encode_independent_question(self, questions, lengths):
        """v: [sum m_k, 2d], packed like `questions`; parameters disjoint from the shared encoder."""
        return self.independent(questions, lengths)

    def encode_shared(self, passages, passage_lengths, questions, question_lengths):
        """(h, u) from one parameter set, passages and questions in the same pass:
        h is [sum n_k, 2d] and u is [sum m_k, 2d], each packed like its input."""
        packed = self.shared(T.concat([passages, questions], axis=0),
                             list(passage_lengths) + list(question_lengths))
        return T.split_rows(packed, [passages.data.shape[0], questions.data.shape[0]])
