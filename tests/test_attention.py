import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasecond import tensor as T
from phasecond.attention import (
    qp_align,
    qp_attention,
    qp_represent,
    self_align,
    self_attention,
    self_propagate,
)
from phasecond.errors import ShapeError
from phasecond.tensor import Tensor, backward, grad_check


def rows_stochastic(weights):
    data = weights.data
    return np.all(data >= 0) and np.all(np.abs(data.sum(axis=1) - 1.0) <= 1e-9)


class TestQPAlign:
    def test_single_column(self):
        a = qp_align(Tensor([[2.0, 1.0]]), Tensor([[0.5, 0.5]]))
        assert a.weights.data.tolist() == [[1.0]]

    def test_two_question_words(self):
        a = qp_align(Tensor([[1.0, 0.0]]), Tensor([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(a.weights.data, [[0.73106, 0.26894]], atol=5e-6)
        assert np.allclose(a.scores.data, [[1.0, 0.0]])

    def test_orthogonal_gives_uniform(self):
        h = Tensor([[1.0, 0.0, 0.0]])
        u = Tensor([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        a = qp_align(h, u)
        assert np.allclose(a.weights.data, 1.0 / 3.0)

    def test_width_mismatch(self):
        with pytest.raises(ShapeError):
            qp_align(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 6))))


class TestQPRepresent:
    def test_averaging(self):
        a = qp_align(Tensor([[0.0, 0.0]]), Tensor([[1.0, 1.0], [1.0, 1.0]]))
        v = Tensor([[2.0, 0.0], [0.0, 2.0]])
        assert np.allclose(qp_represent(a, v).data, [[1.0, 1.0]])

    def test_one_hot_selects(self):
        a = qp_align(Tensor([[10.0, 0.0]]),
                     Tensor([[30.0, 0.0], [-30.0, 0.0]]))
        v = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = qp_represent(a, v)
        assert np.allclose(out.data, [[1.0, 2.0]], atol=1e-8)

    def test_gradient_through_align_and_represent(self):
        rng = np.random.default_rng(1)
        u = Tensor(rng.standard_normal((3, 4)))
        v = Tensor(rng.standard_normal((3, 4)))
        w = Tensor(rng.standard_normal((4, 4)))
        h = Tensor(rng.standard_normal((4, 4)), requires_grad=True)

        def f(t):
            out = qp_represent(qp_align(t, u), v)
            return T.tsum(T.mul(out, w))

        assert grad_check(f, h) < 1e-4


class TestSelfAttention:
    def test_single_row(self):
        a = self_align(Tensor([[3.0, 1.0]]))
        assert a.weights.data.tolist() == [[1.0]]

    def test_identical_rows_uniform(self):
        a = self_align(Tensor([[1.0, 2.0], [1.0, 2.0]]))
        assert np.allclose(a.weights.data, 0.5)

    def test_orthonormal_rows(self):
        a = self_align(Tensor([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(a.weights.data[0], [0.73106, 0.26894], atol=5e-6)

    def test_propagate_identity(self):
        h = Tensor(np.arange(6.0).reshape(2, 3))
        ident = self_align(Tensor([[40.0, 0.0], [0.0, 40.0]]))
        out = self_propagate(ident, h)
        assert np.allclose(out.data, h.data, atol=1e-8)

    def test_propagate_uniform_gives_mean(self):
        h = Tensor([[2.0, 0.0], [0.0, 2.0]])
        a = self_align(Tensor([[1.0, 1.0], [1.0, 1.0]]))
        out = self_propagate(a, h)
        assert np.allclose(out.data, 1.0)

    def test_gradient(self):
        rng = np.random.default_rng(7)
        w = Tensor(rng.standard_normal((4, 4)))
        h = Tensor(rng.standard_normal((4, 4)), requires_grad=True)

        def f(t):
            return T.tsum(T.mul(self_propagate(self_align(t), t), w))

        assert grad_check(f, h) < 1e-4

    def test_diagonal_dominance_on_equal_norms(self):
        rng = np.random.default_rng(8)
        h = rng.standard_normal((5, 3))
        h /= np.linalg.norm(h, axis=1, keepdims=True)
        w = self_align(Tensor(h)).weights.data
        assert np.all(np.diag(w)[:, None] >= w - 1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((5, 3))
        perm = rng.permutation(5)
        base = self_propagate(self_align(Tensor(h)), Tensor(h)).data
        permuted = self_propagate(self_align(Tensor(h[perm])), Tensor(h[perm])).data
        assert np.allclose(permuted, base[perm], atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(2, 8), st.integers(0, 2**32 - 1))
def test_property_alignment_invariants(n, m, d, seed):
    rng = np.random.default_rng(seed)
    h = Tensor(rng.standard_normal((n, d)) * 3)
    u = Tensor(rng.standard_normal((m, d)) * 3)
    v = Tensor(rng.standard_normal((m, d)) * 3)
    a = qp_align(h, u)
    assert rows_stochastic(a.weights)
    out = qp_represent(a, v).data
    lo, hi = v.data.min(axis=0), v.data.max(axis=0)
    assert np.all(out >= lo - 1e-9) and np.all(out <= hi + 1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(2, 6), st.integers(0, 2**32 - 1),
       st.sampled_from([1.5, 2.0, 4.0]))
def test_property_scaling_sharpens_rows(n, d, seed, c):
    rng = np.random.default_rng(seed)
    h = rng.standard_normal((n, d))
    u = Tensor(rng.standard_normal((4, d)))
    base = qp_align(Tensor(h), u).weights.data.max(axis=1)
    scaled = qp_align(Tensor(c * h), u).weights.data.max(axis=1)
    assert np.all(scaled >= base - 1e-12)


class TestPackedLayers:
    """qp_attention and self_attention against the one-example forms on
    split_rows slices joined by concat, the graph the model ran before."""

    LENGTHS, Q_LENGTHS = [1, 6, 1, 3], [1, 4, 2, 1]  # 1-token passages and questions

    @staticmethod
    def per_example(u, v, lengths, q_lengths):
        us, vs = T.split_rows(u, q_lengths), T.split_rows(v, q_lengths)

        def lq(x, index):
            aligns = [qp_align(x_k, u_k, layer_index=index)
                      for x_k, u_k in zip(T.split_rows(x, lengths), us)]
            return T.concat([qp_represent(a, v_k) for a, v_k in zip(aligns, vs)], axis=0), aligns

        def ls(x, index):
            parts = T.split_rows(x, lengths)
            aligns = [self_align(x_k, layer_index=index) for x_k in parts]
            return T.concat([self_propagate(a, x_k) for a, x_k in zip(aligns, parts)],
                            axis=0), aligns

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
        backward(T.add(T.tsum(T.mul(c, Tensor(mix))), T.tsum(T.mul(a, Tensor(mix[::-1])))))
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
                assert a.weights.data.tobytes() == b.weights.data.tobytes()
                assert a.scores.data.tobytes() == b.scores.data.tobytes()
                assert a.weights._parents == a.scores._parents == ()  # constants, off the tape

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
