"""Parameter creation and bookkeeping.

All trainable state lives in named Tensors collected by a ParamSet, so the
optimizer, checkpointing, and gradient clipping can iterate one flat,
deterministically ordered mapping.
"""

import numpy as np

from .errors import BuildError
from .tensor import Tensor


def xavier_uniform(rng, shape):
    limit = np.sqrt(6.0 / (shape[0] + shape[-1]))
    return rng.uniform(-limit, limit, size=shape)


def orthogonal(rng, shape):
    """[rows, k * rows]: k orthogonal square blocks side by side, each the Q of its
    own normal draw with signs fixed for determinism; the LSTM's U has four."""
    rows, cols = shape
    blocks = [np.linalg.qr(rng.normal(size=(rows, rows))) for _ in range(cols // rows)]
    return np.concatenate([q * np.sign(np.diag(r)) for q, r in blocks], axis=1)


def uniform(rng, shape):
    return rng.uniform(-0.05, 0.05, size=shape)


def constant(value):
    """An initializer that draws nothing: `value` broadcast to the shape."""
    return lambda rng, shape: np.full(shape, value, dtype=np.float64)


class ParamSet:
    """Ordered name -> Tensor registry with optional per-entry grad masks.

    A parameter's first value is the array `given` under its name, else
    `init(rng, shape)` drawn when a layer declares it (shape a tuple), so draws
    follow declaration order. A grad mask zeroes gradient rows of partially
    frozen tensors (padding and pretrained embedding rows) before the
    optimizer sees them.
    """

    def __init__(self, rng=None, given=None):
        self._rng = rng
        self._given = given or {}
        self._params = {}
        self._grad_masks = {}

    def add(self, name, shape, init, grad_mask=None):
        if name in self._params:
            raise BuildError(f"duplicate parameter name: {name}")
        data = self._given.get(name)
        if data is None:
            data = init(self._rng, shape)
        elif data.dtype != np.float64 or data.shape != shape:
            raise BuildError(f"parameter {name}: array {data.dtype} {data.shape} does not "
                             f"match the declared float64 {shape}")
        t = Tensor(data, requires_grad=True)
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
