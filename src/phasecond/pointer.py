"""Multi-hop pointer head predicting the answer span, and its loss.

Each hop scores every passage position for the start boundary with
additive attention against a memory vector, pools the evidence, updates
the memory through a GRU cell, then repeats for the end boundary. The
final span maximizes p_start * p_end over pairs with start <= end and
length below max_span, using the last hop's distributions; training
minimizes the summed negative log probability of the gold boundaries at
that last hop.

The head takes a minibatch at once: the passages' rows packed as one
[sum n_k, w] matrix and one memory row per example, [B, w]. The boundary
scores and the memory updates run once over the whole batch; only each
boundary's softmax and the evidence pooling run per passage.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, ShapeError
from .params import xavier_uniform

DEFAULT_MAX_SPAN = 15


@dataclass
class SpanPrediction:
    start: int
    end: int
    score: float


def decode_span(p_start, p_end, max_span=DEFAULT_MAX_SPAN):
    """Best (start, end) with start <= end < start + max_span."""
    ps = np.asarray(p_start, dtype=np.float64).reshape(-1)
    pe = np.asarray(p_end, dtype=np.float64).reshape(-1)
    outer = ps[:, None] * pe[None, :]
    n = ps.size
    idx = np.arange(n)
    invalid = (idx[None, :] < idx[:, None]) | (idx[None, :] - idx[:, None] >= max_span)
    outer[invalid] = -1.0
    flat = int(outer.argmax())
    start, end = divmod(flat, n)
    return SpanPrediction(start=start, end=end, score=float(outer[start, end]))


class GRUCell:
    """Gated memory update: state <- (1 - u) * state + u * candidate."""

    def __init__(self, params, prefix, width, rng):
        self.width = width
        for gate in ("r", "u", "c"):
            params.add(f"{prefix}.W_{gate}", xavier_uniform(rng, (width, width)))
            params.add(f"{prefix}.U_{gate}", xavier_uniform(rng, (width, width)))
            params.add(f"{prefix}.b_{gate}", [0.0] * width)
        self._p = params
        self._prefix = prefix

    def _g(self, name):
        return self._p[f"{self._prefix}.{name}"]

    def __call__(self, state, x):
        r = T.sigmoid(T.add(T.add(T.matmul(x, self._g("W_r")), T.matmul(state, self._g("U_r"))),
                            self._g("b_r")))
        u = T.sigmoid(T.add(T.add(T.matmul(x, self._g("W_u")), T.matmul(state, self._g("U_u"))),
                            self._g("b_u")))
        cand = T.tanh(T.add(T.add(T.matmul(x, self._g("W_c")),
                                  T.matmul(T.mul(r, state), self._g("U_c"))),
                            self._g("b_c")))
        return T.add(T.mul(T.rsub_const(1.0, u), state), T.mul(u, cand))


def question_summary(v_independent, w_proj, w_score):
    """Attention-pooled question vector: softmax(tanh(v W) w) applied to v."""
    m = v_independent.data.shape[0]
    if m < 1:
        raise ShapeError("cannot summarize an empty question")
    scores = T.matmul(T.tanh(T.matmul(v_independent, w_proj)), w_score)
    weights = T.softmax_rows(T.reshape(scores, (1, m)))
    return T.matmul(weights, v_independent)  # [1, 2d]


class PointerHead:
    """Boundary predictor over the final passage representation."""

    def __init__(self, params, passage_width, query_width, hops, rng,
                 max_span=DEFAULT_MAX_SPAN):
        if hops < 1:
            raise ConfigError(f"pointer needs at least one hop, got {hops}")
        self.width = passage_width
        self.hops = hops
        self.max_span = max_span
        self.summary_proj = params.add(
            "ptr.summary.W", xavier_uniform(rng, (query_width, query_width)))
        self.summary_score = params.add(
            "ptr.summary.w", xavier_uniform(rng, (query_width, 1)))
        self.adapter = None
        if query_width != passage_width:
            self.adapter = params.add(
                "ptr.adapter", xavier_uniform(rng, (query_width, passage_width)))
        self.boundary = {}
        for t in range(1, hops + 1):
            for b in ("start", "end"):
                self.boundary[(t, b)] = (
                    params.add(f"ptr.hop{t}.{b}.W_h", xavier_uniform(rng, (passage_width, passage_width))),
                    params.add(f"ptr.hop{t}.{b}.W_q", xavier_uniform(rng, (passage_width, passage_width))),
                    params.add(f"ptr.hop{t}.{b}.v", xavier_uniform(rng, (passage_width, 1))),
                )
        self.memory = GRUCell(params, "ptr.mem", passage_width, rng)

    def initial_query(self, vs):
        """[B, w] memory rows, one per question encoding [m_k, 2d] in vs."""
        q = T.concat([question_summary(v, self.summary_proj, self.summary_score)
                      for v in vs], axis=0)
        if self.adapter is not None:
            q = T.matmul(q, self.adapter)
        return q

    def _boundary_dists(self, h, q, t, b, lengths):
        """One [1, n_k] boundary distribution per passage."""
        w_h, w_q, v = self.boundary[(t, b)]
        hidden = T.tanh(T.add(T.matmul(h, w_h), T.repeat_rows(T.matmul(q, w_q), lengths)))
        scores = T.split_rows(T.matmul(hidden, v), lengths)
        return [T.softmax_rows(T.reshape(s, (1, n))) for s, n in zip(scores, lengths)]

    def predict_span(self, h, q, lengths=None):
        """One (hops, span) per passage: its per-hop (p_start, p_end) pairs and
        the span decoded from the last hop.

        h holds the passages' rows packed in order, passage k being lengths[k]
        rows long (no lengths: h is one passage), and q holds one memory row
        per passage.
        """
        n, width = h.data.shape
        if width != self.width:
            raise ShapeError(f"pointer built for width {self.width}, got {width}")
        lengths = [n] if lengths is None else list(lengths)
        if q.data.shape != (len(lengths), self.width):
            raise ShapeError(
                f"pointer needs a [{len(lengths)}, {self.width}] query, got {q.data.shape}")
        passages = T.split_rows(h, lengths)
        hops = [[] for _ in lengths]
        for t in range(1, self.hops + 1):
            p_s = self._boundary_dists(h, q, t, "start", lengths)
            q = self.memory(q, _pool(p_s, passages))
            p_e = self._boundary_dists(h, q, t, "end", lengths)
            for hop, start, end in zip(hops, p_s, p_e):
                hop.append((start, end))
            if t < self.hops:
                q = self.memory(q, _pool(p_e, passages))
        return [(hop, decode_span(hop[-1][0].data, hop[-1][1].data, self.max_span))
                for hop in hops]


def _pool(dists, passages):
    """[B, w]: each passage's rows averaged under its [1, n_k] distribution."""
    return T.concat([T.matmul(p, h_k) for p, h_k in zip(dists, passages)], axis=0)


def span_loss(hops, gold_start, gold_end):
    """-log p_s[gold_start] - log p_e[gold_end] at the last hop."""
    p_s, p_e = hops[-1]
    n = p_s.data.shape[1]
    if not (0 <= gold_start < n and 0 <= gold_end < n):
        raise DataError(
            f"gold span ({gold_start}, {gold_end}) outside passage of length {n}")
    ls = T.log(T.clamp_min(T.pick(p_s, 0, gold_start), 1e-12))
    le = T.log(T.clamp_min(T.pick(p_e, 0, gold_end), 1e-12))
    return T.neg(T.add(ls, le))
