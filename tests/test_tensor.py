import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasecond import tensor as T
from phasecond.errors import GraphError, ShapeError
from phasecond.tensor import Tensor, backward, grad_check
from reference_ops import activate, add, matmul


def rand(rng, *shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


class TestMatmul:
    """The plain product: `affine` with no bias, a node with no bias parent."""

    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(T.affine(a, b).data, b.data)

    def test_unit_vector_selection(self):
        out = T.affine(Tensor([[1.0, 0.0]]), Tensor([[2.0], [5.0]]))
        assert out.data.tolist() == [[2.0]]

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            T.affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        a = rand(rng, 3, 4)
        b = Tensor(rng.standard_normal((4, 2)))
        err = grad_check(lambda x: T.tsum(T.affine(x, b)), a)
        assert err < 1e-6
        a2 = Tensor(rng.standard_normal((3, 4)))
        b2 = rand(rng, 4, 2)
        err = grad_check(lambda x: T.tsum(T.affine(a2, x)), b2)
        assert err < 1e-6

    def test_values_are_the_product_bytes_and_one_gradient_per_parent(self):
        rng = np.random.default_rng(1)
        x, w = rand(rng, 5, 4), rand(rng, 4, 3)
        want = x.data @ w.data
        assert T.affine(x, w).data.tobytes() == want.tobytes()
        out = T.affine(x, w, act=T.TANH)
        assert out.data.tobytes() == np.tanh(want).tobytes()
        assert out._parents == (x, w)
        assert len(out._backward(np.ones((5, 3)))) == 2
        pair = T.affine((x, x), (w, w))
        assert pair._parents == (x, x, w, w) and len(pair._backward(np.ones((5, 3)))) == 4

    @pytest.mark.parametrize("act", [T.SIGMOID, T.TANH], ids=["sigmoid", "tanh"])
    def test_activated_product_passes_grad_check(self, act):
        rng = np.random.default_rng(2)
        x, w = rng.standard_normal((5, 4)), rng.standard_normal((4, 3))
        mix = Tensor(rng.standard_normal((5, 3)))
        assert grad_check(lambda t: T.tsum(T.mul(T.affine(t, Tensor(w), act=act), mix)),
                          Tensor(x.copy())) < 1e-6
        assert grad_check(lambda t: T.tsum(T.mul(T.affine(Tensor(x), t, act=act), mix)),
                          Tensor(w.copy())) < 1e-6

    def test_two_pair_product_passes_grad_check(self):
        rng = np.random.default_rng(3)
        base = [rng.standard_normal(shape) for shape in ((5, 3), (5, 4), (3, 2), (4, 2))]
        mix = Tensor(rng.standard_normal((5, 2)))
        for k in range(4):  # x0, x1, w0 and w1 in turn
            def f(t):
                args = [t if i == k else Tensor(a) for i, a in enumerate(base)]
                return T.tsum(T.mul(T.affine(tuple(args[:2]), tuple(args[2:])), mix))

            assert grad_check(f, Tensor(base[k].copy())) < 1e-6

    def test_segment_lengths_need_a_bias(self):
        x, w = Tensor(np.zeros((5, 2))), Tensor(np.zeros((2, 2)))
        with pytest.raises(ShapeError, match="need a bias"):
            T.affine(x, w, lengths=[2, 3])


class TestSoftmaxRows:
    def test_symmetry(self):
        out = activate(Tensor([[0.0, 0.0]]), T.SOFTMAX_ROWS)
        assert np.allclose(out.data, [[0.5, 0.5]])

    def test_scalar_value(self):
        out = activate(Tensor([[1.0, 0.0]]), T.SOFTMAX_ROWS)
        e = np.e
        assert np.allclose(out.data, [[e / (e + 1), 1 / (e + 1)]], atol=5e-6)
        assert abs(out.data[0, 0] - 0.73106) < 5e-6

    def test_rows_sum_to_one_large_magnitude(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.uniform(-1e4, 1e4, size=(8, 6)))
        out = activate(x, T.SOFTMAX_ROWS)
        assert np.all(np.abs(out.data.sum(axis=1) - 1.0) <= 1e-9)

    def test_gradient(self):
        rng = np.random.default_rng(2)
        x = rand(rng, 3, 5)
        w = rng.standard_normal((3, 5))
        err = grad_check(lambda t: T.tsum(T.mul(activate(t, T.SOFTMAX_ROWS), Tensor(w))), x)
        assert err < 1e-6


class TestElementwise:
    def test_sigmoid_midpoint(self):
        assert activate(Tensor([0.0]), T.SIGMOID).data.tolist() == [0.5]

    def test_relu(self):
        assert activate(Tensor([-1.0, 2.0]), T.RELU).data.tolist() == [0.0, 2.0]

    def test_relu_gradient_at_zero_is_zero(self):
        x = Tensor([0.0], requires_grad=True)
        backward(T.tsum(activate(x, T.RELU)))
        assert x.grad.tolist() == [0.0]

    def test_relu_and_sigmoid_values_match_their_where_forms_bit_for_bit(self):
        def where_relu(x):
            return np.where(x > 0, x, 0.0)

        def where_sigmoid(x):
            return np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                            np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

        rng = np.random.default_rng(17)
        specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -1e-300,
                             5e-324, -5e-324, 3.0, -3.0, 745.0, -745.0, 800.0, -800.0])
        arrays = [rng.permutation(np.tile(specials, 1 + k % 5)) for k in range(40)]
        arrays += [rng.standard_normal(10**5) * scale for scale in (1, 50, 1000)]
        arrays += [np.full(n, -0.0) for n in range(1, 18)]  # SIMD body and scalar tail
        for x in arrays:
            for value, oracle in ((T.RELU.value, where_relu), (T.SIGMOID.value, where_sigmoid)):
                assert np.array_equal(value(x).view(np.int64), oracle(x).view(np.int64))

    def test_tanh_gradient(self):
        rng = np.random.default_rng(4)
        x = rand(rng, 2, 3)
        assert grad_check(lambda t: T.tsum(activate(t, T.TANH)), x) < 1e-6

    def test_incompatible_shapes(self):
        for shape in ((4, 3), (1, 4), (4,)):  # a bias row is affine's, not mul's
            with pytest.raises(ShapeError, match="mul operands"):
                T.mul(Tensor(np.zeros((3, 4))), Tensor(np.zeros(shape)))


class TestBackward:
    def test_square_analytic(self):
        x = Tensor(3.0, requires_grad=True)
        backward(T.mul(x, x))
        assert x.grad == pytest.approx(6.0)

    def test_softmax_row_sum_has_zero_gradient(self):
        rng = np.random.default_rng(5)
        x = rand(rng, 3, 4)
        backward(T.tsum(activate(x, T.SOFTMAX_ROWS)))
        assert np.allclose(x.grad, 0.0, atol=1e-12)

    def test_composite_two_layer(self):
        rng = np.random.default_rng(6)
        w1 = Tensor(rng.standard_normal((4, 5)))
        w2 = Tensor(rng.standard_normal((5, 1)))
        x = rand(rng, 2, 4)

        def f(t):
            h = T.affine(t, w1, act=T.TANH)
            return T.tsum(T.affine(h, w2, act=T.SIGMOID))

        assert grad_check(f, x) < 1e-5

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(GraphError):
            backward(Tensor(np.zeros((2, 2)), requires_grad=True))

    def test_fan_out_accumulation(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((3, 3))

        x = Tensor(base.copy(), requires_grad=True)
        backward(add(T.tsum(activate(x, T.TANH)), T.tsum(T.mul(x, x))))
        combined = x.grad.copy()

        xa = Tensor(base.copy(), requires_grad=True)
        backward(T.tsum(activate(xa, T.TANH)))
        xb = Tensor(base.copy(), requires_grad=True)
        backward(T.tsum(T.mul(xb, xb)))
        assert np.all(np.abs(combined - (xa.grad + xb.grad)) <= 1e-12)

    def test_backward_bitwise_deterministic(self):
        rng = np.random.default_rng(8)
        base = rng.standard_normal((4, 4))
        grads = []
        for _ in range(2):
            x = Tensor(base.copy(), requires_grad=True)
            h = T.affine(x, x, act=T.SOFTMAX_ROWS)
            backward(T.tsum(T.mul(h, h)))
            grads.append(x.grad.copy())
        assert np.array_equal(grads[0], grads[1])

    def test_grad_none_without_participation(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        backward(T.tsum(T.mul(x, x)))
        assert x.grad is not None and y.grad is None

    def test_grad_lands_on_leaves_only(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        w = Tensor(np.full((2, 2), 2.0), requires_grad=True)
        h = T.affine(x, w)
        backward(T.tsum(activate(h, T.TANH)))
        assert x.grad is not None and w.grad is not None
        assert h.grad is None

    def test_second_backward_raises(self):
        rng = np.random.default_rng(9)
        x = rand(rng, 3, 3)
        w = rand(rng, 3, 3)
        h = activate(x, T.TANH)
        loss = T.tsum(T.mul(T.affine(x, w, act=T.SOFTMAX_ROWS), h))
        backward(loss)
        once_x, once_w = x.grad.copy(), w.grad.copy()
        with pytest.raises(GraphError, match="consumed"):
            backward(loss)
        with pytest.raises(GraphError, match="consumed"):
            backward(T.tsum(T.mul(h, x)))  # reaches a used node: no .grad is touched
        assert np.array_equal(x.grad, once_x) and np.array_equal(w.grad, once_w)

    def test_intermediate_freed_while_loss_is_referenced(self):
        rng = np.random.default_rng(10)
        x = rand(rng, 4, 3)
        h = T.affine(x, rand(rng, 3, 3), act=T.TANH)
        freed = weakref.ref(h.data)
        loss = T.tsum(T.mul(h, h))
        del h
        assert freed() is not None
        backward(loss)
        assert freed() is None and loss.data.shape == ()

    def test_value_no_rule_reads_is_freed_before_its_own_rule_runs(self):
        x = Tensor(np.ones(4), requires_grad=True)
        seen = []
        h = T.make_node(np.full(4, 2.0), (x,), lambda g: (seen.append(freed() is None) or g,))
        freed = weakref.ref(h.data)
        loss = T.tsum(T.mul(h, Tensor(np.full(4, 3.0))))
        del h
        backward(loss)
        assert seen == [True] and np.array_equal(x.grad, np.full(4, 3.0))


def one_minus(a):
    return T.make_node(1.0 - a.data, (a,), lambda g: (-g,))


def reference_activation(kind, a):
    """tanh, sigmoid or relu as a node written out with its own gradient rule."""
    if kind == "relu":
        mask = a.data > 0
        return T.make_node(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))
    out = np.tanh(a.data) if kind == "tanh" else T.stable_sigmoid(a.data)
    if kind == "tanh":
        return T.make_node(out, (a,), lambda g: (g * (1.0 - out * out),))
    return T.make_node(out, (a,), lambda g: (g * out * (1.0 - out),))


def repeated_rows(a, lengths):
    """Row k of a repeated lengths[k] times, its gradient summed back per segment."""
    starts = np.cumsum(lengths) - lengths
    return T.make_node(np.repeat(a.data, lengths, axis=0), (a,),
                       lambda g: (np.add.reduceat(g, starts, axis=0),))


def assert_bitwise(results):
    for got, want in zip(*results):
        assert np.array_equal(got, want)  # bitwise, so within 1e-12 too


ACTIVATIONS = {"tanh": T.TANH, "sigmoid": T.SIGMOID, "relu": T.RELU}


class TestFusedNodes:
    def test_gated_mix_matches_five_node_composition(self):
        rng = np.random.default_rng(13)
        gates = np.array([0.0, 30.0, -30.0, 1e3, -1e3])
        base = [rng.standard_normal((3, 5)), rng.standard_normal((3, 5)),
                np.vstack([gates, -gates, rng.standard_normal(5)])]
        mix = Tensor(rng.standard_normal((3, 5)))
        results = []
        for fused in (True, False):
            carry, cand, gate = (Tensor(a.copy(), requires_grad=True) for a in base)
            if fused:
                out = T.gated_mix(carry, cand, activate(gate, T.SIGMOID))
            else:
                z = activate(gate, T.SIGMOID)
                out = add(T.mul(one_minus(z), carry), T.mul(z, cand))
            backward(T.tsum(T.mul(out, mix)))
            results.append([out.data, carry.grad, cand.grad, gate.grad])
        for got, want in zip(*results):
            assert np.array_equal(got, want)  # bitwise, so within 1e-12 too
        with pytest.raises(ShapeError, match="gated_mix operands"):
            T.gated_mix(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), Tensor(np.zeros(3)))

    def test_affine_bitwise_equals_add_of_matmul(self):
        rng = np.random.default_rng(14)
        base = [rng.standard_normal((6, 4)), rng.standard_normal((4, 3)), rng.standard_normal(3)]
        mix = Tensor(rng.standard_normal((6, 3)))
        results = []
        for fused in (True, False):
            x, w, b = (Tensor(a.copy(), requires_grad=True) for a in base)
            out = T.affine(x, w, b) if fused else add(matmul(x, w), b)
            backward(T.tsum(T.mul(activate(out, T.TANH), mix)))
            results.append([out.data, x.grad, w.grad, b.grad])
        for got, want in zip(*results):
            assert np.array_equal(got, want)
        with pytest.raises(ShapeError, match="bias"):
            T.affine(Tensor(np.zeros((2, 4))), Tensor(np.zeros((4, 3))), Tensor(np.zeros(4)))

    @pytest.mark.parametrize("kind", sorted(ACTIVATIONS))
    def test_affine_activation_bitwise_equals_chain(self, kind):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((6, 4))
        x[0] = 0.0  # pre-activations equal to the bias: exact zeros for relu
        base = [x, 10.0 * rng.standard_normal((4, 3)), np.array([0.0, 40.0, -40.0])]
        mix = Tensor(rng.standard_normal((6, 3)))
        results = []
        for fused in (True, False):
            x, w, b = (Tensor(a.copy(), requires_grad=True) for a in base)
            if fused:
                out = T.affine(x, w, b, ACTIVATIONS[kind])
            else:
                out = reference_activation(kind, add(matmul(x, w), b))
            backward(T.tsum(T.mul(out, mix)))
            results.append([out.data, x.grad, w.grad, b.grad])
        assert_bitwise(results)

    @pytest.mark.parametrize("kind", sorted(ACTIVATIONS))
    def test_activation_node_bitwise_equals_reference(self, kind):
        # affine with no bias against the product and activation nodes; through
        # the identity, the pre-activations are the base values, 0 and +-1e3 too
        rng = np.random.default_rng(16)
        base = np.concatenate([[0.0, 1e3, -1e3], rng.standard_normal(9)]).reshape(3, 4)
        mix = Tensor(rng.standard_normal((3, 4)))
        results = []
        for fused in (True, False):
            a, eye = Tensor(base.copy(), requires_grad=True), Tensor(np.eye(4), requires_grad=True)
            if fused:
                out = T.affine(a, eye, act=ACTIVATIONS[kind])
            else:
                out = reference_activation(kind, matmul(a, eye))
            backward(T.tsum(T.mul(out, mix)))
            results.append([out.data, a.grad, eye.grad])
        assert_bitwise(results)

    @pytest.mark.parametrize("act", [T.SIGMOID, T.TANH], ids=["sigmoid", "tanh"])
    def test_two_pair_affine_passes_grad_check(self, act):
        rng = np.random.default_rng(19)
        base = [rng.standard_normal(shape) for shape in ((5, 3), (5, 4), (3, 2), (4, 2), (2,))]
        mix = Tensor(rng.standard_normal((5, 2)))
        for k in range(5):  # x0, x1, w0, w1 and b in turn
            def f(t):
                args = [t if i == k else Tensor(a) for i, a in enumerate(base)]
                out = T.affine(tuple(args[:2]), tuple(args[2:4]), args[4], act)
                return T.tsum(T.mul(out, mix))

            assert grad_check(f, Tensor(base[k].copy())) < 1e-6

    def test_affine_pairs_must_match(self):
        x, w, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))), Tensor(np.zeros(4))
        for xs, ws in (((x, x), (w,)), ((x,), (w, w)), ((), ())):
            with pytest.raises(ShapeError, match="one weight per input"):
                T.affine(xs, ws, b)
        for x1, w1 in ((Tensor(np.zeros((3, 3))), w), (x, Tensor(np.zeros((3, 5)))),
                       (Tensor(np.zeros((1, 3))), w)):  # a row that would broadcast
            with pytest.raises(ShapeError, match="affine products"):
                T.affine((x, x1), (w, w1), b)
        with pytest.raises(ShapeError, match=r"\[n, k\] @ \[k, m\]"):
            T.affine((x, x), (w, Tensor(np.zeros((2, 4)))), b)

    def test_affine_segment_bias_matches_repeated_rows(self):
        rng = np.random.default_rng(17)
        base = [rng.standard_normal((5, 4)), rng.standard_normal((4, 3)),
                rng.standard_normal((2, 3))]
        mix = Tensor(rng.standard_normal((5, 3)))
        results = []
        for fused in (True, False):
            x, w, b = (Tensor(a.copy(), requires_grad=True) for a in base)
            if fused:
                out = T.affine(x, w, b, T.TANH, lengths=[2, 3])
            else:
                out = activate(add(matmul(x, w), repeated_rows(b, [2, 3])), T.TANH)
            backward(T.tsum(T.mul(out, mix)))
            results.append([out.data, x.grad, w.grad, b.grad])
        assert_bitwise(results)

    def test_affine_segment_bias_rows(self):
        eye = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        out = T.affine(Tensor(np.zeros((5, 2))), eye, b, lengths=[2, 3])
        assert out.data.tolist() == [[1.0, 2.0]] * 2 + [[3.0, 4.0]] * 3
        backward(T.tsum(out))
        assert b.grad.tolist() == [[2.0, 2.0], [3.0, 3.0]]
        rng = np.random.default_rng(12)
        x, w = Tensor(rng.standard_normal((5, 2))), Tensor(rng.standard_normal((5, 2)))
        err = grad_check(lambda t: T.tsum(T.mul(T.affine(x, eye, t, T.TANH, [2, 3]), w)),
                         rand(rng, 2, 2))
        assert err < 1e-6
        for bad in ([5], [2, 2], [2, 0, 3], [1, 1, 3]):
            with pytest.raises(ShapeError, match="segment|bias"):
                T.affine(x, eye, b, lengths=bad)

    def test_dropout_gradient_is_the_scaled_mask(self):
        rng = np.random.default_rng(18)
        x = rand(rng, 4, 5)
        draw, g = rng.random((4, 5)), rng.standard_normal((4, 5))
        keep = (draw >= 0.3) / (1.0 - 0.3)
        out = T.dropout(x, 0.3, draw)
        assert np.array_equal(out.data, x.data * keep)
        backward(T.tsum(T.mul(out, Tensor(g))))
        assert np.array_equal(x.grad, g * keep)


class TestStructureOps:
    def test_concat_roundtrip_gradient(self):
        rng = np.random.default_rng(9)
        a = rand(rng, 2, 3)
        b = Tensor(rng.standard_normal((2, 2)))
        w = rng.standard_normal((2, 5))
        err = grad_check(lambda t: T.tsum(T.mul(T.concat([t, b], axis=1), Tensor(w))), a)
        assert err < 1e-6

    def test_gather_rows_scatter_gradient(self):
        table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = T.gather_rows(table, [1, 1, 3])
        backward(T.tsum(out))
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        assert np.array_equal(table.grad, expected)

    def test_split_rows_blocks(self):
        x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        top, middle, bottom = T.split_rows(x, [1, 1, 1])
        assert middle.data.tolist() == [[4.0, 5.0, 6.0, 7.0]]
        backward(T.tsum(middle))
        assert x.grad[1].tolist() == [1.0] * 4 and x.grad.sum() == 4.0


def dense_split_rows(a, lengths):
    """Row blocks whose backward returns a zero-padded array of a's shape."""
    def block(start, stop):
        def bwd(g):
            full = np.zeros_like(a.data)
            full[start:stop] = g
            return (full,)

        return T.make_node(a.data[start:stop], (a,), bwd)

    ends = np.cumsum(lengths)
    return [block(end - n, end) for n, end in zip(lengths, ends)]


class TestRowSlices:
    def test_concat_of_one_tensor_is_that_tensor(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        assert T.concat([x], axis=0) is x

    def test_all_rows_is_the_tensor(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        assert T.split_rows(x, [2]) == [x]
        with pytest.raises(ShapeError, match="sum to"):
            T.split_rows(x, [1])

    def test_slice_gradients_bitwise_equal_to_zero_padded_sum(self):
        rng = np.random.default_rng(20)
        x0 = rng.standard_normal((9, 4))
        w = Tensor(rng.standard_normal((9, 4)))
        v = Tensor(rng.standard_normal((4, 3)))
        lengths = [2, 4, 3]
        mixes = [Tensor(rng.standard_normal((n, 4))) for n in lengths]

        def grad_with(splitter):
            x = Tensor(x0.copy(), requires_grad=True)
            h = activate(x, T.TANH)  # an intermediate: slices and dense uses meet in backward()
            loss = T.tsum(T.mul(h, w))
            for block, mix in zip(splitter(h, lengths), mixes):
                loss = add(loss, T.tsum(T.mul(activate(block, T.TANH), mix)))
            loss = add(loss, T.tsum(matmul(h, v)))
            backward(loss)
            return x.grad

        assert grad_with(T.split_rows).tobytes() == grad_with(dense_split_rows).tobytes()

    @pytest.mark.parametrize("slice_first", [True, False])
    def test_rule_outputs_are_never_written(self, slice_first):
        # backward() never writes into an array a rule returned: even a fork that
        # hands one array to both parents keeps it; a slice of x then adds onto
        # x's gradient and must not reach y's
        rng = np.random.default_rng(21)
        x, y = rand(rng, 4, 3), rand(rng, 4, 3)
        shared = rng.standard_normal((4, 3))
        before = shared.copy()
        fork = T.make_node(x.data + y.data, (x, y), lambda g: (shared, shared))
        terms = [T.tsum(T.split_rows(x, [1, 2, 1])[1]), T.tsum(fork)]
        if not slice_first:
            terms.reverse()
        backward(add(*terms))
        padded = np.zeros((4, 3))
        padded[1:3] = 1.0
        assert np.array_equal(shared, before)
        assert np.array_equal(y.grad, before)
        assert np.array_equal(x.grad, before + padded)


class TestSegmentOps:
    LENGTHS = [3, 1, 4, 2]

    def test_softmax_matches_softmax_rows_bitwise(self):
        rng = np.random.default_rng(30)
        for _ in range(50):
            lengths = rng.integers(1, 30, size=rng.integers(1, 6))
            x = rng.standard_normal((lengths.sum(), 1)) * rng.choice([1.0, 30.0])
            got = T.segment_softmax(Tensor(x), lengths).data
            want = [T.SOFTMAX_ROWS.value(block.T.copy()).T
                    for block in np.split(x, np.cumsum(lengths)[:-1])]
            assert got.tobytes() == np.concatenate(want).tobytes()

    def test_weighted_sum_is_per_segment_matmul(self):
        rng = np.random.default_rng(31)
        w, x = Tensor(rng.random((10, 1))), Tensor(rng.standard_normal((10, 3)))
        out = T.segment_weighted_sum(w, x, self.LENGTHS).data
        ends = np.cumsum(self.LENGTHS)
        for k, (n, end) in enumerate(zip(self.LENGTHS, ends)):
            assert np.array_equal(out[k], w.data[end - n:end, 0] @ x.data[end - n:end])

    def test_gradients(self):
        rng = np.random.default_rng(32)
        lengths = self.LENGTHS
        h = Tensor(rng.standard_normal((10, 3)))
        mix = Tensor(rng.standard_normal((4, 3)))

        def pooled(t):
            return T.tsum(T.mul(T.segment_weighted_sum(
                T.segment_softmax(t, lengths), h, lengths), mix))

        assert grad_check(pooled, rand(rng, 10, 1)) < 1e-6
        weights = Tensor(rng.random((10, 1)))
        assert grad_check(lambda t: T.tsum(T.mul(
            T.segment_weighted_sum(weights, t, lengths), mix)), rand(rng, 10, 3)) < 1e-6
        targets = [[0, 2], [3, 3], [5, 7], [9, 8]]
        assert grad_check(lambda t: T.segment_nll(t, lengths, targets), rand(rng, 10, 2)) < 1e-6

    def test_nll_is_mean_negative_log_softmax(self):
        x = np.array([[0.0], [np.log(3.0)], [5.0]])
        loss = T.segment_nll(Tensor(x), [2, 1], [[0], [2]])
        assert loss.data == pytest.approx(np.log(4.0) / 2)

    def test_bad_segments_raise(self):
        x = Tensor(np.zeros((3, 1)))
        for lengths in ([], [1, 1], [3, 0], [1, 3]):
            with pytest.raises(ShapeError, match="segments"):
                T.segment_softmax(x, lengths)
        with pytest.raises(ShapeError, match="targets"):
            T.segment_nll(x, [1, 2], [[0]])
        with pytest.raises(ShapeError, match="weights"):
            T.segment_weighted_sum(Tensor(np.zeros((3, 2))), x, [3])


def old_sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def old_softmax_rows(x):
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# The activation kernels as they were written before they took `out` and
# trimmed their temporaries: the trimmed ones must match them byte for byte.
OLD_VALUES = {"tanh": np.tanh, "sigmoid": old_sigmoid, "relu": lambda x: np.fmax(x, 0.0) + 0.0,
              "softmax_rows": old_softmax_rows}
OLD_RULES = {"tanh": lambda g, out: g * (1.0 - out * out),
             "sigmoid": lambda g, out: g * out * (1.0 - out),
             "relu": lambda g, out: g * (out > 0),
             "softmax_rows": lambda g, out: out * (g - (g * out).sum(axis=1, keepdims=True))}
KERNELS = {**ACTIVATIONS, "softmax_rows": T.SOFTMAX_ROWS}


def kernel_inputs(seed):
    """2-D arrays holding NaN, +-inf, +-0.0, +-800 and subnormals among normals: a
    small one, one large enough for numpy to reuse temporaries, and a
    non-contiguous view of the large one."""
    rng = np.random.default_rng(seed)
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 800.0, -800.0,
                         5e-324, -5e-324, 1e-300, 3.0, -3.0])
    small = rng.permutation(np.tile(specials, 3)).reshape(4, 9)
    large = rng.standard_normal((300, 140)) * 30.0
    large.flat[::97] = np.resize(specials, large.flat[::97].size)
    return [small, large, large[::2, 1::3]]


def same_bytes(got, want):
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def signed_zeros(a):
    """a with +0.0 and -0.0 among its entries."""
    a.flat[::4] = 0.0
    a.flat[1::4] = -0.0
    return a


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # NaN and inf inputs, on both sides
class TestTrimmedKernels:
    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_value_with_and_without_out_matches_the_old_expression(self, kind):
        value = KERNELS[kind].value
        for x in kernel_inputs(40):
            want, before = OLD_VALUES[kind](x), x.copy()
            assert same_bytes(value(x), want)
            buf = np.full(x.shape, 7.0)
            assert value(x, out=buf) is buf and same_bytes(buf, want)
            assert same_bytes(x, before)  # only an `out` is written
            own = x.copy()
            assert value(own, out=own) is own and same_bytes(own, want)

    def test_stable_sigmoid_is_the_sigmoid_value(self):
        for x in kernel_inputs(41):
            assert same_bytes(T.stable_sigmoid(x), old_sigmoid(x))

    @pytest.mark.parametrize("kind", sorted(KERNELS))
    def test_rule_matches_the_old_expression_and_writes_no_input(self, kind):
        for x, g in zip(kernel_inputs(42), kernel_inputs(43)):
            out = OLD_VALUES[kind](x)
            g_before, out_before = g.copy(), out.copy()
            assert same_bytes(KERNELS[kind].rule(g, out), OLD_RULES[kind](g, out))
            assert same_bytes(g, g_before) and same_bytes(out, out_before)

    @pytest.mark.parametrize("kind", sorted(ACTIVATIONS))
    def test_activate_leaves_its_input_untouched(self, kind):
        # affine activates its own product in place, never an input
        for x in kernel_inputs(44):
            a = Tensor(x, requires_grad=True)
            w = Tensor(np.eye(x.shape[1]), requires_grad=True)
            before = a.data.copy()
            out = T.affine(a, w, act=ACTIVATIONS[kind])
            assert same_bytes(a.data, before) and not np.shares_memory(out.data, a.data)
            backward(T.tsum(T.mul(out, Tensor(np.ones(x.shape)))))
            assert same_bytes(a.data, before) and same_bytes(w.data, np.eye(x.shape[1]))

    @pytest.mark.parametrize("kind", [None, *sorted(ACTIVATIONS)])
    def test_affine_segment_bias_matches_the_repeated_rows_bytes(self, kind):
        rng = np.random.default_rng(45)
        lengths = [3, 1, 5]  # with a one-row segment
        base = [rng.standard_normal((9, 4)), 10.0 * rng.standard_normal((4, 3)),
                rng.standard_normal((3, 3))]
        mix = Tensor(signed_zeros(rng.standard_normal((9, 3))))
        results = []
        for fused in (True, False):
            x, w, b = (Tensor(a.copy(), requires_grad=True) for a in base)
            if fused:
                out = T.affine(x, w, b, ACTIVATIONS.get(kind), lengths)
            else:
                pre = add(matmul(x, w), repeated_rows(b, lengths))
                out = pre if kind is None else reference_activation(kind, pre)
            backward(T.tsum(T.mul(out, mix)))
            assert all(same_bytes(t.data, a) for t, a in zip((x, w, b), base))
            results.append([out.data, x.grad, w.grad, b.grad])
        want = base[0] @ base[1]
        want += np.repeat(base[2], lengths, axis=0)
        if kind is not None:
            want = OLD_VALUES[kind](want)
        assert same_bytes(results[0][0], want)
        assert all(same_bytes(got, ref) for got, ref in zip(*results))

    def test_weighted_sum_gradients_match_the_old_expression(self):
        rng = np.random.default_rng(46)
        lengths = [3, 1, 4, 2]
        w = Tensor(rng.random((10, 1)), requires_grad=True)
        x = Tensor(rng.standard_normal((10, 3)), requires_grad=True)
        g = signed_zeros(rng.standard_normal((4, 3)))
        backward(T.tsum(T.mul(T.segment_weighted_sum(w, x, lengths), Tensor(g))))
        g_rows = np.repeat(g, lengths, axis=0)
        assert same_bytes(w.grad, (x.data * g_rows).sum(axis=1, keepdims=True))
        assert same_bytes(x.grad, w.data * g_rows)


class TestGradCheck:
    def test_constant_gradient(self):
        rng = np.random.default_rng(11)
        x = rand(rng, 3, 2)
        assert grad_check(lambda t: T.tsum(t), x) < 1e-10

    def test_quadratic(self):
        rng = np.random.default_rng(12)
        x = rand(rng, 2, 3)
        assert grad_check(lambda t: T.tsum(T.mul(t, t)), x) < 1e-7

    def test_restores_state(self):
        x = Tensor(np.ones((2, 2)))
        before = x.data.copy()
        grad_check(lambda t: T.tsum(T.mul(t, t)), x)
        assert np.array_equal(x.data, before)
        assert x.requires_grad is False and x.grad is None

    def test_rejects_non_leaf(self):
        h = activate(Tensor(np.ones((2, 2)), requires_grad=True), T.TANH)
        with pytest.raises(GraphError, match="leaf"):
            grad_check(lambda t: T.tsum(t), h)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_property_softmax_rows_stochastic(n, m, seed):
    rng = np.random.default_rng(seed)
    out = T.SOFTMAX_ROWS.value(rng.uniform(-1e4, 1e4, size=(n, m)))
    assert np.all(out >= 0)
    assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_property_differentiable_ops_pass_grad_check(n, m, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((n, m)), requires_grad=True)
    w = Tensor(rng.standard_normal((n, m)))

    def f(t):
        return T.tsum(T.mul(activate(activate(t, T.TANH), T.SOFTMAX_ROWS), w))

    assert grad_check(f, x) < 1e-4
