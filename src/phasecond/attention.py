"""Dot-product attention layers.

Two kinds share the same mechanics:

* question-passage: each passage position attends over the question via
  raw dot products against the shared question encoding, then is rebuilt
  as a weighted average of the *independent* question encoding;
* self: the passage attends over itself to spread answer evidence between
  positions.

There is no scaling factor and no learned projection inside either
alignment; the similarity is the plain dot product.

`qp_attention` and `self_attention` run one layer as one graph node over a
packed batch: for each example, scores = query @ keys.T, weights =
softmax(scores) by row, output = weights @ values. The node keeps only each
example's weights; the alignments it returns for the traces are plain
arrays, off the tape.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError


@dataclass
class AlignmentMatrix:
    """Row-stochastic attention weights plus the raw scores behind them.

    weights rows sum to 1. `scores` keeps the pre-normalization dot products
    for export and analysis.
    """

    weights: np.ndarray
    scores: np.ndarray
    kind: str          # "qp" | "self"
    layer_index: int   # 1-based within its kind


def _attention(query, keys, values, rows, cols, kind, layer_index):
    """(output, alignments) as one node: example k's rows rows[k] of query align
    with its rows cols[k] of keys and mix those of values. Self-attention passes
    one tensor as all three; its gradient is (dv + dq) + dk."""
    q, k, v = query.data, keys.data, values.data
    scores = [q[r] @ k[c].T for r, c in zip(rows, cols)]
    weights = [T.SOFTMAX_ROWS.value(s) for s in scores]
    parents = (query,) if query is keys is values else (query, keys, values)

    def bwd(g):
        dq, dk, dv = np.empty_like(q), np.empty_like(k), np.empty_like(v)
        for r, c, w in zip(rows, cols, weights):
            ds = T.SOFTMAX_ROWS.rule(g[r] @ v[c].T, w)
            dq[r] = ds @ k[c]
            dk[c] = (q[r].T @ ds).T
            dv[c] = w.T @ g[r]
        return ((dv + dq) + dk,) if len(parents) == 1 else (dq, dk, dv)

    out = np.concatenate([w @ v[c] for w, c in zip(weights, cols)])
    aligns = [AlignmentMatrix(w, s, kind, layer_index) for w, s in zip(weights, scores)]
    return T.make_node(out, parents, bwd), aligns


def qp_attention(query, u, v, lengths, q_lengths, layer_index):
    """LQ over a packed batch: each example's rows of query [sum n_k, 2d]
    align with its rows of u and mix its rows of v ([sum m_k, 2d])."""
    if query.data.shape[1] != u.data.shape[1]:
        raise ShapeError(f"passage width {query.data.shape[1]} != question width {u.data.shape[1]}")
    return _attention(query, u, v, T.row_slices(query.data, lengths),
                      T.row_slices(u.data, q_lengths), "qp", layer_index)


def self_attention(h, lengths, layer_index):
    """LS over a packed batch: each example's rows of h [sum n_k, w] align with and mix its own."""
    rows = T.row_slices(h.data, lengths)
    return _attention(h, h, h, rows, rows, "self", layer_index)
