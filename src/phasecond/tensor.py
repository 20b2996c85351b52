"""Dense float64 tensors with reverse-mode automatic differentiation.

Every value in the model is a `Tensor` wrapping a row-major numpy array.
Operations record their inputs and a local backward rule; `backward()`
replays the tape in reverse topological order and accumulates gradients
additively across fan-out. Gradients land in `.grad` on leaves only
(tensors no op produced, such as parameters). The walk consumes the tape: a
node drops its inputs and rule, and its value unless something still reads
it, before its rule runs; the rule gets the only reference to its gradient;
what it returns goes once added. A rule hands each parent an array that no
other parent, parameter or node value holds (a fresh array, or a view of one
that no other parent's view overlaps), so a leaf takes it as its `.grad`.

A backward rule captures only the arrays it reads. Every dense product is
an `affine` node; activations come from one table of (value, rule) pairs
whose rule reads the activation's output, never its input, so `affine`
applies one inside its node and its pre-activation is overwritten by its
output as soon as it is formed.

Elementwise operands are equal-shaped; adding a bias row, or one per
segment of rows, is `affine`'s job.
"""

from collections import namedtuple
from itertools import accumulate

import numpy as np

from .errors import GraphError, NumericsError, ShapeError


class Tensor:
    """A node in the computation graph.

    data          float64 ndarray, row-major
    requires_grad whether gradients flow into this tensor
    grad          accumulated gradient, same shape as data; set on leaves only
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def make_node(data, parents, backward_fn):
    """Create an op node.

    backward_fn(upstream) must return one gradient array (or None) per
    parent, in order. It is only invoked when some parent requires grad.
    """
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def backward(loss):
    """Accumulate d(loss)/d(t) into t.grad for every leaf t in the graph.

    loss must be a scalar (shape ()). A leaf is a tensor with no backward
    rule; intermediate nodes never get a .grad. Gradients add onto existing
    .grad buffers; callers zero them between steps. The walk consumes the
    graph: a second call on it raises GraphError before touching any .grad.
    """
    if loss.data.shape != ():
        raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._backward is _SPENT:
            raise GraphError("this graph was already consumed by backward()")
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in visited:
                stack.append((p, False))

    grads = {id(loss): np.ones((), dtype=np.float64)}
    while topo:
        node = topo.pop()
        key, rule, parents = id(node), node._backward, node._parents
        if rule is not None:
            node._parents, node._backward = (), _SPENT
            del node  # its value goes now, unless the caller or a rule still holds it
            if key in grads:  # the rule gets the only reference to its gradient
                _accumulate(grads, parents, list(rule(grads.pop(key))))
        elif key in grads:  # a leaf
            g = grads.pop(key)
            node.grad = g if node.grad is None else node.grad + g


_SPENT = object()  # the rule of a node that backward() has walked past


def _accumulate(grads, parents, pgs):
    """Add a rule's gradients onto its parents' pending ones in order, each dropped once added.

    Each array is its parent's alone, so it becomes the pending gradient as it is;
    a second one for the same parent makes a new sum, never written into either.
    """
    for i, p in enumerate(parents):
        pg, pgs[i] = pgs[i], None
        if pg is None or not p.requires_grad:
            continue
        key = id(p)
        acc = grads.get(key)
        grads[key] = pg if acc is None else acc + pg


# ---------------------------------------------------------------------------
# Elementwise ops

def mul(a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul operands {a.data.shape} and {b.data.shape} differ")

    def bwd(g):
        return (g * b.data if a.requires_grad else None,
                g * a.data if b.requires_grad else None)

    return make_node(a.data * b.data, (a, b), bwd)


def stable_sigmoid(x, out=None):
    """Elementwise logistic of an array; exp only ever sees -|x|, so it never overflows."""
    e = np.abs(x)
    np.exp(np.negative(e, out=e), out=e)
    out = np.maximum(e, x >= 0, out=out)  # numerator 1 where x >= 0, else e
    return np.divide(out, np.add(1.0, e, out=e), out=out)


def _tanh_rule(g, out):
    d = np.multiply(out, out)
    return np.multiply(g, np.subtract(1.0, d, out=d), out=d)


def _sigmoid_rule(g, out):
    d = np.multiply(g, out)
    return np.multiply(d, np.subtract(1.0, out), out=d)


def _relu_value(x, out=None):
    out = np.fmax(x, 0.0, out=out)
    return np.add(out, 0.0, out=out)  # + 0.0 turns -0.0 into 0.0; NaN -> 0.0


# An activation is value(x, out=None) and rule(g, out): the gradient at its input, read
# off its output alone. Only a caller that owns x and reads it no more passes an `out`,
# which may be x itself: `affine` and the inner-fusion node pass their own products.
Activation = namedtuple("Activation", "value rule")
TANH = Activation(np.tanh, _tanh_rule)
SIGMOID = Activation(stable_sigmoid, _sigmoid_rule)
RELU = Activation(_relu_value, lambda g, out: g * (out > 0))  # subgradient at 0 fixed to 0


def _softmax_rows_value(x, out=None):
    out = np.subtract(x, x.max(axis=1, keepdims=True), out=out)  # each row shifted by its max
    np.exp(out, out=out)
    return np.divide(out, out.sum(axis=1, keepdims=True), out=out)


SOFTMAX_ROWS = Activation(_softmax_rows_value,
                          lambda g, out: out * (g - (g * out).sum(axis=1, keepdims=True)))


def gated_mix(carry, cand, z):
    """(1 - z) * carry + z * cand for gate values z in [0, 1], as one node;
    value and gradients are bitwise those of the four-node form."""
    if not carry.data.shape == cand.data.shape == z.data.shape:
        raise ShapeError(
            f"gated_mix operands {carry.data.shape}, {cand.data.shape}, {z.data.shape}")

    def bwd(g):
        return (g * (1.0 - z.data) if carry.requires_grad else None,
                g * cand.data - g * carry.data if z.requires_grad else None,
                g * z.data if cand.requires_grad else None)

    # Parents in the order the four-node form was walked, so fan-out sums keep their bits.
    return make_node((1.0 - z.data) * carry.data + z.data * cand.data, (carry, z, cand), bwd)


def dropout(a, rate, draw):
    """Inverted dropout with a mask from `draw`, uniforms in [0, 1) of a's shape.

    The caller draws the uniforms, so it decides the order in which masks
    consume its generator. With no draw (evaluation) or rate 0, a passes through.
    """
    if draw is None or rate <= 0.0:
        return a
    if draw.shape != a.data.shape:
        raise ShapeError(f"dropout draw of shape {draw.shape} for input {a.data.shape}")
    kept = draw >= rate  # bools; scaled where used, to the same float64 values

    def bwd(g):
        return (g * (kept / (1.0 - rate)),)

    return make_node(a.data * (kept / (1.0 - rate)), (a,), bwd)


# ---------------------------------------------------------------------------
# Linear algebra and structure ops

def _product(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"affine needs [n, k] @ [k, m], got {a.data.shape} @ {b.data.shape}")
    return a.data @ b.data


def affine(x, w, b=None, act=None, lengths=None):
    """act(x @ w + b) as one node that keeps no pre-activation, bitwise the
    chain of product, add and activation nodes. x and w may be equal-length
    tuples, for x[0] @ w[0] + x[1] @ w[1] + ... summed in order. b is a bias
    row, or with `lengths` one row per segment, row k added to the next
    lengths[k] rows; with no b the node has no bias parent."""
    xs, ws = (x if isinstance(x, tuple) else (x,)), (w if isinstance(w, tuple) else (w,))
    if not xs or len(xs) != len(ws):
        raise ShapeError(f"affine needs one weight per input, got {len(xs)} and {len(ws)}")
    out = _product(xs[0], ws[0])
    for xi, wi in zip(xs[1:], ws[1:]):
        term = _product(xi, wi)
        if term.shape != out.shape:
            raise ShapeError(f"affine products {out.shape} and {term.shape} differ")
        out += term
    if b is None:
        if lengths is not None:
            raise ShapeError("affine segment lengths need a bias")
    elif lengths is None:
        if b.data.shape != out.shape[1:]:
            raise ShapeError(f"affine bias {b.data.shape} for products {out.shape}")
        out += b.data
    else:
        lengths, starts = _segments(out, lengths)
        if b.data.shape != (len(lengths), out.shape[1]):
            raise ShapeError(f"affine bias {b.data.shape} for {len(lengths)} segments "
                             f"of width {out.shape[1]}")
        for lo, n, row in zip(starts, lengths, b.data):
            out[lo:lo + n] += row
    if act is not None:
        act.value(out, out=out)

    def bwd(g):
        if act is not None:
            g = act.rule(g, out)
        grads = [g @ wi.data.T if xi.requires_grad else None for xi, wi in zip(xs, ws)]
        grads += [xi.data.T @ g if wi.requires_grad else None for xi, wi in zip(xs, ws)]
        if b is not None:
            grads.append((g.sum(axis=0) if lengths is None else np.add.reduceat(g, starts, axis=0))
                         if b.requires_grad else None)
        return grads

    return make_node(out, (*xs, *ws) if b is None else (*xs, *ws, b), bwd)


def tsum(a):
    """Sum of all entries -> scalar tensor."""
    def bwd(g):
        return (np.full(a.data.shape, g, dtype=np.float64),)

    return make_node(a.data.sum(), (a,), bwd)


def concat(tensors, axis):
    """Join tensors along axis; a single tensor comes back as it is."""
    if len(tensors) == 1:
        return tensors[0]
    splits = list(accumulate(t.data.shape[axis] for t in tensors))[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return make_node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), bwd)


def split_rows(a, lengths):
    """Consecutive row blocks of a, lengths[k] rows each, as a list of tensors;
    one block of all rows is a itself. A block's gradient is zero-padded to a's shape."""
    ends = list(accumulate(lengths))
    n = a.data.shape[0]
    if not ends or ends[-1] != n:
        raise ShapeError(f"row blocks sum to {sum(lengths)}, tensor has {n} rows")
    if len(ends) == 1:
        return [a]

    def block(start, stop):
        def bwd(g):
            full = np.zeros_like(a.data)
            full[start:stop] = g
            return (full,)

        return make_node(a.data[start:stop], (a,), bwd)

    return [block(end - k, end) for k, end in zip(lengths, ends)]


def gather_rows(table, indices):
    """Select rows of a [V, d] table by an int index array."""
    idx = np.asarray(indices, dtype=np.intp)

    def bwd(g):
        full = np.zeros_like(table.data)
        np.add.at(full, idx, g)
        return (full,)

    return make_node(table.data[idx], (table,), bwd)


# ---------------------------------------------------------------------------
# Segment ops: segment k is the next lengths[k] rows of a packed matrix

def _segments(x, lengths):
    """(lengths, starts) as lists; every segment non-empty, all rows covered."""
    lengths = list(lengths)
    starts = [0, *accumulate(lengths)]
    if min(lengths, default=0) < 1 or starts.pop() != x.shape[0]:
        raise ShapeError(f"segments {lengths} must be non-empty and sum to {x.shape[0]}")
    return lengths, starts


def row_slices(x, lengths):
    """One slice per segment of x's rows, in order."""
    lengths, starts = _segments(x, lengths)
    return [slice(lo, lo + n) for lo, n in zip(starts, lengths)]


def _segment_exp(x, lengths, starts):
    """(shifted, e, z): x minus its segment's column max, exp of that, and the
    segment's column sums of e on every row. Summing each contiguous slice
    makes e / z match `SOFTMAX_ROWS` of the segment's transpose bit for bit."""
    shifted = x - np.repeat(np.maximum.reduceat(x, starts, axis=0), lengths, axis=0)
    e, z = np.exp(shifted), np.empty_like(x)
    for lo, n in zip(starts, lengths):
        z[lo:lo + n] = e[lo:lo + n].sum(axis=0)
    return shifted, e, z


def segment_softmax(x, lengths):
    """Softmax over each segment's rows of x [N, c], column by column."""
    lengths, starts = _segments(x.data, lengths)
    _, e, z = _segment_exp(x.data, lengths, starts)
    out = e / z

    def bwd(g):
        dot = np.add.reduceat(g * out, starts, axis=0)
        return (out * (g - np.repeat(dot, lengths, axis=0)),)

    return make_node(out, (x,), bwd)


def segment_weighted_sum(w, x, lengths):
    """[B, d]: row k sums segment k's rows of x [N, d] under its weights w [N, 1]."""
    lengths, starts = _segments(x.data, lengths)
    if w.data.shape != (x.data.shape[0], 1):
        raise ShapeError(f"weights {w.data.shape} for {x.data.shape} rows")
    out = np.empty((len(lengths), x.data.shape[1]))
    for k, (lo, n) in enumerate(zip(starts, lengths)):
        out[k] = w.data[lo:lo + n].reshape(1, n) @ x.data[lo:lo + n]

    def bwd(g):
        g_rows = np.repeat(g, lengths, axis=0)
        dx = w.data * g_rows
        return np.multiply(x.data, g_rows, out=g_rows).sum(axis=1, keepdims=True), dx

    return make_node(out, (w, x), bwd)


def segment_nll(x, lengths, targets):
    """Mean over segments of -sum_c log softmax(segment k of column c)[targets[k, c]],
    targets [B, c] being packed row indices inside their segments. Read off the
    shifted scores, the value and gradient stay finite at any probability."""
    lengths, starts = _segments(x.data, lengths)
    targets = np.asarray(targets, dtype=np.intp)
    if targets.shape != (len(lengths), x.data.shape[1]):
        raise ShapeError(f"targets of shape {targets.shape} for {len(lengths)} segments")
    shifted, e, z = _segment_exp(x.data, lengths, starts)
    cols, scale = np.arange(x.data.shape[1]), 1.0 / len(lengths)

    def bwd(g):
        grad = e / z
        grad[targets, cols] -= 1.0
        return (grad * (g * scale),)

    log_p = shifted[targets, cols] - np.log(z[targets, cols])
    return make_node((0.0 - log_p.sum()) * scale, (x,), bwd)  # +0.0, not -0.0, when log_p is 0


# ---------------------------------------------------------------------------
# Verification harness

def grad_check(f, x, eps=1e-5):
    """Max relative error between analytic and central-difference gradients.

    f takes the tensor x and returns a scalar tensor. The relative error
    per entry is |analytic - numeric| / max(1, |analytic|, |numeric|).
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if x._backward is not None:
        raise GraphError("grad_check needs a leaf tensor: gradients land on leaves only")
    was_rg, was_grad = x.requires_grad, x.grad
    x.requires_grad = True
    x.grad = None
    try:
        out = f(x)
        if out.data.shape != ():
            raise GraphError("grad_check target must return a scalar")
        if not np.isfinite(out.data):
            raise NumericsError("function output is not finite")
        backward(out)
        analytic = np.zeros_like(x.data) if x.grad is None else x.grad.copy()

        numeric = np.zeros_like(x.data)
        flat = x.data.reshape(-1)
        num_flat = numeric.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(f(x).data)
            flat[i] = orig - eps
            down = float(f(x).data)
            flat[i] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericsError("function output is not finite during differencing")
            num_flat[i] = (up - down) / (2.0 * eps)

        denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
        err = np.abs(analytic - numeric) / denom
        return float(err.max()) if err.size else 0.0
    finally:
        x.requires_grad = was_rg
        x.grad = was_grad
