import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasecond import tensor as T
from phasecond.attention import AlignmentMatrix, qp_attention, self_attention
from phasecond.errors import ShapeError
from phasecond.tensor import Tensor, backward, grad_check
from reference_ops import activate, add, matmul


def leaf(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def qp(h, u, v=None):
    """LQ over a one-example batch: (output, alignment); v defaults to u."""
    h, u = leaf(h), leaf(u)
    out, [align] = qp_attention(h, u, u if v is None else leaf(v), [len(h.data)],
                                [len(u.data)], 1)
    return out, align


def ls(h):
    """LS over a one-example batch: (output, alignment)."""
    h = leaf(h)
    out, [align] = self_attention(h, [len(h.data)], 1)
    return out, align


def rows_stochastic(weights):
    return np.all(weights >= 0) and np.all(np.abs(weights.sum(axis=1) - 1.0) <= 1e-9)


class TestQPAlign:
    def test_single_column(self):
        _, a = qp([[2.0, 1.0]], [[0.5, 0.5]])
        assert a.weights.tolist() == [[1.0]]

    def test_two_question_words(self):
        _, a = qp([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(a.weights, [[0.73106, 0.26894]], atol=5e-6)
        assert np.allclose(a.scores, [[1.0, 0.0]])

    def test_orthogonal_gives_uniform(self):
        h = [[1.0, 0.0, 0.0]]
        u = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
        _, a = qp(h, u)
        assert np.allclose(a.weights, 1.0 / 3.0)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            qp(np.zeros((2, 4)), np.zeros((3, 6)))


class TestQPRepresent:
    def test_averaging(self):
        out, _ = qp([[0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]], v=[[2.0, 0.0], [0.0, 2.0]])
        assert np.allclose(out.data, [[1.0, 1.0]])

    def test_one_hot_selects(self):
        out, _ = qp([[10.0, 0.0]], [[30.0, 0.0], [-30.0, 0.0]], v=[[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(out.data, [[1.0, 2.0]], atol=1e-8)

    def test_gradient_through_align_and_represent(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((3, 4))
        v = rng.standard_normal((3, 4))
        w = Tensor(rng.standard_normal((4, 4)))
        h = Tensor(rng.standard_normal((4, 4)), requires_grad=True)

        def f(t):
            return T.tsum(T.mul(qp(t, u, v)[0], w))

        assert grad_check(f, h) < 1e-4


class TestSelfAttention:
    def test_single_row(self):
        _, a = ls([[3.0, 1.0]])
        assert a.weights.tolist() == [[1.0]]

    def test_identical_rows_uniform(self):
        _, a = ls([[1.0, 2.0], [1.0, 2.0]])
        assert np.allclose(a.weights, 0.5)

    def test_orthonormal_rows(self):
        _, a = ls([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(a.weights[0], [0.73106, 0.26894], atol=5e-6)

    def test_propagate_identity(self):
        h = np.array([[10.0, 0.0, 1.0], [0.0, 10.0, 2.0]])  # self-scores lead by 99
        out, a = ls(h)
        assert np.allclose(a.weights, np.eye(2), atol=1e-8)
        assert np.allclose(out.data, h, atol=1e-8)

    def test_propagate_uniform_gives_mean(self):
        h = 1e-6 * np.array([[2.0, 0.0], [0.0, 2.0]])  # scores near 0: uniform rows
        out, a = ls(h)
        assert np.allclose(a.weights, 0.5)
        assert np.allclose(out.data, h.mean(axis=0), rtol=1e-9, atol=0.0)

    def test_gradient(self):
        rng = np.random.default_rng(7)
        w = Tensor(rng.standard_normal((4, 4)))
        h = Tensor(rng.standard_normal((4, 4)), requires_grad=True)

        def f(t):
            return T.tsum(T.mul(ls(t)[0], w))

        assert grad_check(f, h) < 1e-4

    def test_diagonal_dominance_on_equal_norms(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((5, 3))
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        w = ls(h)[1].weights
        assert np.all(np.diag(w)[:, None] >= w - 1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((5, 3))
        perm = rng.permutation(5)
        base = ls(h)[0].data
        permuted = ls(h[perm])[0].data
        assert np.allclose(permuted, base[perm], atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_property_alignment_invariants(n, m, d, seed):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, d)) * 3
    u = rng.standard_normal((m, d)) * 3
    v = rng.standard_normal((m, d)) * 3
    out, a = qp(h, u, v)
    assert rows_stochastic(a.weights)
    lo, hi = v.min(axis=0), v.max(axis=0)
    assert np.all(out.data >= lo - 1e-9) and np.all(out.data <= hi + 1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(2, 6), st.integers(0, 2**32 - 1),
       st.sampled_from([1.5, 2.0, 4.0]))
def test_property_scaling_sharpens_rows(n, d, seed, c):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, d))
    u = rng.standard_normal((4, d))
    base = qp(h, u)[1].weights.max(axis=1)
    scaled = qp(c * h, u)[1].weights.max(axis=1)
    assert np.all(scaled >= base - 1e-12)


class TestPackedLayers:
    """qp_attention and self_attention against the generic graph on
    split_rows slices joined by concat, the graph the model ran before."""

    LENGTHS, Q_LENGTHS = [1, 6, 1, 3], [1, 4, 2, 1]  # 1-token passages and questions

    @staticmethod
    def per_example(u, v, lengths, q_lengths):
        """scores = x @ keys.T, weights = softmax_rows(scores), out = weights @ values,
        per example."""
        def attend(x, keys, values, kind, index):
            scores = matmul(x, T.make_node(keys.data.T, (keys,), lambda g: (g.T,)))
            weights = activate(scores, T.SOFTMAX_ROWS)
            return matmul(weights, values), AlignmentMatrix(weights.data, scores.data,
                                                            kind, index)

        us, vs = T.split_rows(u, q_lengths), T.split_rows(v, q_lengths)

        def lq(x, index):
            outs, aligns = zip(*(attend(x_k, u_k, v_k, "qp", index) for x_k, u_k, v_k
                                 in zip(T.split_rows(x, lengths), us, vs)))
            return T.concat(list(outs), axis=0), list(aligns)

        def ls(x, index):
            outs, aligns = zip(*(attend(x_k, x_k, x_k, "self", index)
                                 for x_k in T.split_rows(x, lengths)))
            return T.concat(list(outs), axis=0), list(aligns)

        return lq, ls

    @staticmethod
    def packed(u, v, lengths, q_lengths):
        return (lambda x, index: qp_attention(x, u, v, lengths, q_lengths, index),
                lambda x, index: self_attention(x, lengths, index))

    def run(self, layers):
        """LQ -> LS -> LQ over fresh leaves; the first output also feeds the loss."""
        rng = np.random.default_rng(5)
        n, m = sum(self.LENGTHS), sum(self.Q_LENGTHS)
        q, u, v = (Tensor(rng.standard_normal(shape) * 2, requires_grad=True)
                   for shape in ((n, 4), (m, 4), (m, 4)))
        mix = rng.standard_normal((n, 4))
        mix[:, 1], mix[:, 2] = 0.0, -0.0  # gradients with signed zeros
        lq, ls = layers(u, v, self.LENGTHS, self.Q_LENGTHS)
        a, first = lq(q, 1)
        b, second = ls(a, 1)
        c, third = lq(b, 2)
        backward(add(T.tsum(T.mul(c, Tensor(mix))), T.tsum(T.mul(a, Tensor(mix[::-1])))))
        return c, [first, second, third], [t.grad for t in (q, u, v)]

    def test_output_traces_and_gradients_are_bitwise_the_per_example_graph(self):
        out, traces, grads = self.run(self.packed)
        want_out, want_traces, want_grads = self.run(self.per_example)
        assert out.data.tobytes() == want_out.data.tobytes()
        for got, want in zip(grads, want_grads):
            assert got.tobytes() == want.tobytes()
        for layer, want_layer in zip(traces, want_traces):
            assert len(layer) == len(want_layer) == len(self.LENGTHS)
            for a, b in zip(layer, want_layer):
                assert (a.kind, a.layer_index) == (b.kind, b.layer_index)
                assert a.weights.tobytes() == b.weights.tobytes()
                assert a.scores.tobytes() == b.scores.tobytes()
                assert type(a.weights) is type(a.scores) is np.ndarray  # off the tape

    def test_one_node_per_layer(self):
        u, v = Tensor(np.ones((3, 2))), Tensor(np.ones((3, 2)))
        h = Tensor(np.ones((4, 2)), requires_grad=True)
        lq, _ = qp_attention(h, u, v, [1, 3], [2, 1], 1)
        ls, _ = self_attention(lq, [1, 3], 1)
        assert lq._parents == (h, u, v) and ls._parents == (lq,)

    def test_shape_errors(self):
        h, u = Tensor(np.zeros((4, 2))), Tensor(np.zeros((3, 2)))
        with pytest.raises(ShapeError, match="width"):
            qp_attention(h, Tensor(np.zeros((3, 4))), u, [4], [3], 1)
        with pytest.raises(ShapeError):
            qp_attention(h, u, u, [1, 2], [3], 1)
        with pytest.raises(ShapeError):
            self_attention(h, [4, 0], 1)
