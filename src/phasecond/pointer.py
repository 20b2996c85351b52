"""Multi-hop pointer head predicting the answer span, and its loss.

Each hop scores every passage position for the start boundary with
additive attention against a memory vector, pools the evidence, updates
the memory through a GRU cell, then repeats for the end boundary. The
final span maximizes p_start * p_end over pairs with start <= end and
at most max_span tokens, using the last hop's distributions; training
minimizes the negative log probability of the gold boundaries at that
last hop, averaged over the batch.

The head runs once per minibatch, on packed rows: [sum n_k, w] for the
passages, [sum m_k, 2d] for the questions, one memory row per example.
Each boundary's softmax over all passages is one segment-softmax node,
each evidence pooling one segment-weighted-sum node, and the batch loss
one node that reads the gold rows' log-probabilities off the scores.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as T
from .errors import ConfigError, DataError, NumericsError, ShapeError
from .params import constant, xavier_uniform


@dataclass
class SpanPrediction:
    start: int
    end: int
    score: float


def decode_span(p_start, p_end, max_span):
    """Best (start, end) with start <= end < start + max_span, the first in (start,
    end) order on a tie. Non-finite probabilities raise NumericsError: an argmax
    over NaN would pick (0, 0)."""
    ps = np.asarray(p_start, dtype=np.float64).reshape(-1)
    pe = np.asarray(p_end, dtype=np.float64).reshape(-1)
    if not (np.isfinite(ps).all() and np.isfinite(pe).all()):
        raise NumericsError("span probabilities are not finite")
    w = min(max_span, ps.size)  # band[s, j] scores (s, s + j); an end past the passage reads -1
    band = ps[:, None] * sliding_window_view(np.concatenate([pe, np.full(w - 1, -1.0)]), w)
    start, offset = divmod(int(band.argmax()), w)
    return SpanPrediction(start=start, end=start + offset, score=float(band[start, offset]))


class GRUCell:
    """Gated memory update: state <- (1 - u) * state + u * candidate."""

    def __init__(self, params, prefix, width):
        self.w = {}
        for gate in ("r", "u", "c"):
            for kind in ("W", "U"):
                self.w[kind + gate] = params.add(f"{prefix}.{kind}_{gate}", (width, width),
                                                 xavier_uniform)
            self.w["b" + gate] = params.add(f"{prefix}.b_{gate}", (width,), constant(0.0))

    def __call__(self, state, x):
        w = self.w
        r = T.sigmoid(T.add(T.add(T.matmul(x, w["Wr"]), T.matmul(state, w["Ur"])), w["br"]))
        u = T.add(T.add(T.matmul(x, w["Wu"]), T.matmul(state, w["Uu"])), w["bu"])
        cand = T.tanh(T.add(T.add(T.matmul(x, w["Wc"]), T.matmul(T.mul(r, state), w["Uc"])),
                            w["bc"]))
        return T.gated_mix(state, cand, T.sigmoid(u))


def question_summary(v_independent, w_proj, w_score, lengths):
    """[B, 2d] attention-pooled question vectors: each question's rows of v
    under softmax(tanh(v W) w) over that question. v packs the questions'
    rows, question k being lengths[k] rows long."""
    scores = T.matmul(T.tanh(T.matmul(v_independent, w_proj)), w_score)
    return T.segment_weighted_sum(T.segment_softmax(scores, lengths), v_independent, lengths)


class PointerHead:
    """Boundary predictor over the final passage representation."""

    def __init__(self, params, passage_width, query_width, hops):
        if hops < 1:
            raise ConfigError(f"pointer needs at least one hop, got {hops}")
        self.width = passage_width
        self.hops = hops
        self.summary_proj = params.add(
            "ptr.summary.W", (query_width, query_width), xavier_uniform)
        self.summary_score = params.add("ptr.summary.w", (query_width, 1), xavier_uniform)
        self.adapter = None
        if query_width != passage_width:
            self.adapter = params.add(
                "ptr.adapter", (query_width, passage_width), xavier_uniform)
        self.boundary = {}
        for t in range(1, hops + 1):
            for b in ("start", "end"):
                self.boundary[(t, b)] = (
                    params.add(f"ptr.hop{t}.{b}.W_h", (passage_width, passage_width), xavier_uniform),
                    params.add(f"ptr.hop{t}.{b}.W_q", (passage_width, passage_width), xavier_uniform),
                    params.add(f"ptr.hop{t}.{b}.v", (passage_width, 1), xavier_uniform),
                )
        self.memory = GRUCell(params, "ptr.mem", passage_width)

    def initial_query(self, v, lengths):
        """[B, w] memory rows, one per question; v packs the questions'
        encodings [sum m_k, 2d], question k being lengths[k] rows long."""
        q = question_summary(v, self.summary_proj, self.summary_score, lengths)
        if self.adapter is not None:
            q = T.matmul(q, self.adapter)
        return q

    def _boundary_scores(self, h, q, t, b, lengths):
        """[sum n_k, 1] scores of every passage position for one boundary."""
        w_h, w_q, v = self.boundary[(t, b)]
        hidden = T.affine(h, w_h, T.matmul(q, w_q), T.TANH, lengths)
        return T.matmul(hidden, v)

    def predict_span(self, h, q, lengths):
        """(scores, probs) of the last hop: the [sum n_k, 2] start and end
        scores (a Tensor) and their softmax per passage (an array).

        h holds the passages' rows packed in order, passage k being lengths[k]
        rows long, and q holds one memory row per passage.
        """
        n, width = h.data.shape
        if width != self.width:
            raise ShapeError(f"pointer built for width {self.width}, got {width}")
        if sum(lengths) != n:
            raise ShapeError(f"passage lengths sum to {sum(lengths)}, got {n} rows")
        if q.data.shape != (len(lengths), self.width):
            raise ShapeError(
                f"pointer needs a [{len(lengths)}, {self.width}] query, got {q.data.shape}")
        for t in range(1, self.hops + 1):
            s_start = self._boundary_scores(h, q, t, "start", lengths)
            p_start = T.segment_softmax(s_start, lengths)
            q = self.memory(q, T.segment_weighted_sum(p_start, h, lengths))
            s_end = self._boundary_scores(h, q, t, "end", lengths)
            p_end = T.segment_softmax(s_end, lengths)
            if t < self.hops:
                q = self.memory(q, T.segment_weighted_sum(p_end, h, lengths))
        return (T.concat([s_start, s_end], axis=1),
                np.concatenate([p_start.data, p_end.data], axis=1))


def span_loss(scores, lengths, golds):
    """Mean over passages of -log p_start[gold start] - log p_end[gold end],
    one node over the packed [sum n_k, 2] boundary scores; golds holds one
    (start, end) per passage, as positions within it."""
    lengths = np.asarray(lengths, dtype=np.intp)
    golds = np.asarray(golds, dtype=np.intp).reshape(-1, 2)
    for (start, end), n in zip(golds, lengths):
        if not (0 <= start < n and 0 <= end < n):
            raise DataError(f"gold span ({start}, {end}) outside passage of length {n}")
    offsets = np.cumsum(lengths) - lengths
    return T.segment_nll(scores, lengths, offsets[:, None] + golds)
