"""Dot-product attention layers.

Two kinds share the same mechanics:

* question-passage: each passage position attends over the question via
  raw dot products against the shared question encoding, then is rebuilt
  as a weighted average of the *independent* question encoding;
* self: the passage attends over itself to spread answer evidence between
  positions.

There is no scaling factor and no learned projection inside either
alignment; the similarity is the plain dot product.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ShapeError
from .tensor import Tensor


@dataclass
class AlignmentMatrix:
    """Row-stochastic attention weights plus the raw scores behind them.

    weights rows sum to 1; masked columns are exactly 0. `scores` keeps the
    pre-normalization dot products for export and analysis.
    """

    weights: Tensor
    scores: Tensor
    kind: str          # "qp" | "self"
    layer_index: int   # 1-based within its kind

    @property
    def shape(self):
        return self.weights.data.shape


def qp_align(h_prev, u_shared, question_mask=None, layer_index=1):
    """Align passage rows [n, 2d] against shared question rows [m, 2d]."""
    if h_prev.data.shape[1] != u_shared.data.shape[1]:
        raise ShapeError(
            f"passage width {h_prev.data.shape[1]} != question width {u_shared.data.shape[1]}"
        )
    scores = T.matmul(h_prev, T.transpose(u_shared))
    mask = None
    if question_mask is not None:
        mask = np.broadcast_to(np.asarray(question_mask, dtype=bool),
                               scores.data.shape)
    weights = T.softmax_rows(scores, mask=mask)
    return AlignmentMatrix(weights=weights, scores=scores, kind="qp", layer_index=layer_index)


def qp_represent(alignment, v_independent):
    """Weighted average of independent question rows: [n, m] @ [m, 2d]."""
    return T.matmul(alignment.weights, v_independent)


def self_align(h_prev, layer_index=1):
    """Passage-vs-passage alignment [n, n] by dot product, diagonal included."""
    scores = T.matmul(h_prev, T.transpose(h_prev))
    weights = T.softmax_rows(scores)
    return AlignmentMatrix(weights=weights, scores=scores, kind="self", layer_index=layer_index)


def self_propagate(alignment, h_prev):
    """Weighted average over the previous layer's passage rows."""
    if alignment.weights.data.shape[1] != h_prev.data.shape[0]:
        raise ShapeError(
            f"alignment columns {alignment.weights.data.shape[1]} != passage rows {h_prev.data.shape[0]}"
        )
    return T.matmul(alignment.weights, h_prev)
