"""Bidirectional LSTM encoders.

Two encoder roles over the same feature space:

* an independent question encoder producing the attention values v;
* a shared encoder producing the passage keys h and question keys u with
  one parameter set, so both sequences live in the same similarity space.

Each encoder runs once per minibatch: every sequence it sees in the batch
(for the shared encoder, the passages and the questions together) is packed
row after row, and each direction's whole pass over them is a single graph
node with a hand-written backward-through-time rule. At step t the node
updates only the sequences still running, so nothing is padded or masked,
and the per-step Python loop stays out of the autodiff tape. The rule is
pinned by finite-difference tests. Encoders take and return packed rows
with the sequences' lengths; nothing is split per example here.
"""

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .params import constant, orthogonal, xavier_uniform
from .tensor import make_node, stable_sigmoid


def _time_major(lengths, reverse):
    """(perm, bounds): the packed rows in processing order, step by step.

    Sequences are taken longest first, so the ones still running at step t
    are always a prefix of that order: step t reads packed rows
    perm[bounds[t]:bounds[t + 1]], and their states are the first
    bounds[t + 1] - bounds[t] rows of the state matrix. The reverse direction
    starts at each sequence's own last row.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    order = np.argsort(-lengths, kind="stable")
    starts, lengths = starts[order], lengths[order]
    t = np.arange(lengths[0])[:, None]
    running = t < lengths  # [steps, sequences]; each row is a prefix
    rows = starts + (lengths - 1 - t if reverse else t)
    bounds = np.concatenate(([0], np.cumsum(running.sum(axis=1))))
    return rows[running], bounds.tolist()


def lstm_direction(x, w, u, b, lengths, reverse=False):
    """One LSTM direction over packed sequences -> [sum(lengths), d].

    x holds the sequences' rows back to back, sequence k being lengths[k]
    rows long. Gate layout along the 4d axis is (input, forget, cell,
    output). Output row r is the hidden state after consuming row r in its
    sequence's processing order.
    """
    n = x.data.shape[0]
    if sum(lengths) != n:
        raise ShapeError(f"sequence lengths sum to {sum(lengths)}, input has {n} rows")
    d = u.data.shape[0]
    perm, bounds = _time_major(lengths, reverse)
    blocks = list(zip(bounds[:-1], bounds[1:]))
    xw = (x.data @ w.data + b.data)[perm]  # [n, 4d], time-major like everything below

    outs = np.empty((n, d))
    h_prevs = np.empty((n, d))      # hidden state entering each row's step
    c_prevs = np.empty((n, d))
    gates = np.empty((n, 4 * d))    # activated (i, f, g, o) per row
    tanh_cs = np.empty((n, d))
    h = np.zeros((len(lengths), d))
    c = np.zeros((len(lengths), d))
    for lo, hi in blocks:
        a = hi - lo
        pre = xw[lo:hi] + h[:a] @ u.data
        act = gates[lo:hi]
        act[:] = stable_sigmoid(pre)
        act[:, 2 * d:3 * d] = np.tanh(pre[:, 2 * d:3 * d])
        i = act[:, :d]
        f = act[:, d:2 * d]
        g = act[:, 2 * d:3 * d]
        o = act[:, 3 * d:]
        h_prevs[lo:hi] = h[:a]
        c_prevs[lo:hi] = c[:a]
        c[:a] = f * c[:a] + i * g
        tanh_c = tanh_cs[lo:hi]
        tanh_c[:] = np.tanh(c[:a])
        h[:a] = o * tanh_c
        outs[lo:hi] = h[:a]
    out = np.empty((n, d))
    out[perm] = outs

    def bwd(grad_out):
        grad_tm = grad_out[perm]
        dpre_tm = np.empty((n, 4 * d))
        u_t = u.data.T
        dh_carry = np.zeros((len(lengths), d))
        dc_carry = np.zeros((len(lengths), d))
        for lo, hi in reversed(blocks):
            a = hi - lo
            i = gates[lo:hi, :d]
            f = gates[lo:hi, d:2 * d]
            g = gates[lo:hi, 2 * d:3 * d]
            o = gates[lo:hi, 3 * d:]
            tanh_c = tanh_cs[lo:hi]
            dh = grad_tm[lo:hi] + dh_carry[:a]
            do = dh * tanh_c
            dc = dc_carry[:a] + dh * o * (1.0 - tanh_c * tanh_c)
            step = dpre_tm[lo:hi]
            step[:, :d] = dc * g * i * (1.0 - i)
            step[:, d:2 * d] = dc * c_prevs[lo:hi] * f * (1.0 - f)
            step[:, 2 * d:3 * d] = dc * i * (1.0 - g * g)
            step[:, 3 * d:] = do * o * (1.0 - o)
            dc_carry[:a] = dc * f
            dh_carry[:a] = step @ u_t
        dpre = np.empty((n, 4 * d))
        dpre[perm] = dpre_tm
        h_prev = np.empty((n, d))
        h_prev[perm] = h_prevs
        dx = dpre @ w.data.T if x.requires_grad else None
        dw = x.data.T @ dpre
        du = h_prev.T @ dpre
        db = dpre.sum(axis=0)
        return dx, dw, du, db

    return make_node(out, (x, w, u, b), bwd)


class BiLSTMEncoder:
    """Forward and backward LSTM over packed sequences, states concatenated."""

    def __init__(self, params, prefix, in_dim, hidden):
        self.in_dim = in_dim
        self.hidden = hidden
        self.cells = {}
        for direction in ("fw", "bw"):
            w = params.add(f"{prefix}.{direction}.W", (in_dim, 4 * hidden), xavier_uniform)
            u = params.add(f"{prefix}.{direction}.U", (hidden, 4 * hidden), orthogonal)
            b = params.add(f"{prefix}.{direction}.b", (4 * hidden,),  # forget gate open at init
                           constant(np.repeat([0.0, 1.0, 0.0, 0.0], hidden)))
            self.cells[direction] = (w, u, b)

    def __call__(self, features, lengths):
        """[sum(lengths), in_dim] -> [sum(lengths), 2*hidden]."""
        if min(lengths, default=0) == 0:
            raise ShapeError("cannot encode an empty sequence")
        if features.data.shape[1] != self.in_dim:
            raise ShapeError(
                f"encoder built for input width {self.in_dim}, got {features.data.shape[1]}"
            )
        fw = lstm_direction(features, *self.cells["fw"], lengths)
        bw = lstm_direction(features, *self.cells["bw"], lengths, reverse=True)
        return T.concat([fw, bw], axis=1)


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
