"""Parameter creation and bookkeeping.

All trainable state lives in named Tensors collected by a ParamSet, so the
optimizer, checkpointing, and gradient clipping can iterate one flat,
deterministically ordered mapping.
"""

import numpy as np

from .errors import BuildError
from .tensor import Tensor


def xavier_uniform(rng, shape):
    fan_in, fan_out = (shape[0], shape[-1]) if len(shape) > 1 else (shape[0], shape[0])
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(rng, rows, cols):
    """Orthogonal slice via QR; used for recurrent matrices."""
    n = max(rows, cols)
    a = rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))  # fix sign ambiguity for determinism
    return q[:rows, :cols]


def uniform(rng, shape, low=-0.05, high=0.05):
    return rng.uniform(low, high, size=shape)


class ParamSet:
    """Ordered name -> Tensor registry with optional per-entry grad masks.

    A grad mask zeroes gradient rows of partially frozen tensors (padding
    and pretrained embedding rows) before the optimizer sees them.
    """

    def __init__(self):
        self._params = {}
        self._grad_masks = {}

    def add(self, name, data, grad_mask=None):
        if name in self._params:
            raise BuildError(f"duplicate parameter name: {name}")
        t = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)
        self._params[name] = t
        if grad_mask is not None:
            self._grad_masks[name] = np.asarray(grad_mask, dtype=np.float64)
        return t

    def __getitem__(self, name):
        return self._params[name]

    def __contains__(self, name):
        return name in self._params

    def items(self):
        return self._params.items()

    def names(self):
        return list(self._params)

    def count(self):
        return sum(t.data.size for t in self._params.values())

    def zero_grads(self):
        for t in self._params.values():
            t.grad = None

    def apply_grad_masks(self):
        for name, mask in self._grad_masks.items():
            t = self._params[name]
            if t.grad is not None:
                t.grad *= mask
