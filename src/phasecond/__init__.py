"""Phase-conducted multi-layer attention for extractive question answering.

The model chains a question-passage attention phase into a self-attention
phase, each regulated by gated fusion layers, over a self-contained
float64 autodiff engine. See README.md for the CLI and the path grammar.
"""

__version__ = "0.1.0"
