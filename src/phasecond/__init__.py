"""Phase-conducted multi-layer attention for extractive question answering.

The model chains a question-passage attention phase into a self-attention
phase, each regulated by gated fusion layers, over a self-contained
float64 autodiff engine. See README.md for the CLI and the path grammar.
"""

from .attention import (
    AlignmentMatrix,
    qp_align,
    qp_represent,
    self_align,
    self_propagate,
)
from .conductor import (
    ModelAssembly,
    PhasePath,
    build_from_examples,
    build_model,
    forward,
    parse_path,
)
from .config import DEFAULT_PATH, ITERATIVE_ALIGNER_PATH, RunConfig
from .data import QAExample, SyntheticSpec, evaluate, generate_synthetic, load_squad
from .pointer import SpanPrediction, decode_span, span_loss
from .tensor import Tensor, backward, grad_check, matmul, softmax_rows
from .training import (
    AdamState,
    adam_step,
    evaluate_model,
    predict,
    restore_model,
    train,
)

__version__ = "0.1.0"
