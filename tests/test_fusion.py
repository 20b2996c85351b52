import numpy as np
import pytest

from phasecond import tensor as T
from phasecond.attention import self_attention
from phasecond.errors import ShapeError
from phasecond.fusion import InnerFusionLayer, OuterFusionStack
from phasecond.params import ParamSet
from phasecond.tensor import Tensor, backward, grad_check
from reference_ops import add


def make_outer(width, n_layers=2, seed=0):
    params = ParamSet(np.random.default_rng(seed))
    stack = OuterFusionStack(params, "fo", width, n_layers)
    return stack, params


def make_inner(width, seed=0):
    params = ParamSet(np.random.default_rng(seed))
    layer = InnerFusionLayer(params, "fi", width)
    return layer, params


class TestOuterFusion:
    def test_gate_forced_closed_is_identity(self):
        stack, params = make_outer(6, n_layers=2)
        for t in (1, 2):
            params[f"fo.l{t}.W_z"].data[:] = 0.0
            params[f"fo.l{t}.b_z"].data[:] = -40.0
        x = Tensor(np.random.default_rng(1).standard_normal((4, 6)))
        out = stack(x)
        assert np.max(np.abs(out.data - x.data)) < 1e-6

    def test_gate_forced_open_is_transform(self):
        stack, params = make_outer(5, n_layers=1)
        params["fo.l1.b_z"].data[:] = 40.0
        x = Tensor(np.random.default_rng(2).standard_normal((3, 5)))
        out = stack(x)
        expected = np.maximum(x.data @ params["fo.l1.W_C"].data + params["fo.l1.b_C"].data, 0.0)
        assert np.max(np.abs(out.data - expected)) < 1e-6

    def test_output_between_carry_and_candidate(self):
        stack, params = make_outer(4, n_layers=1)
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((5, 4)))
        out = stack(x).data
        cand = np.maximum(x.data @ params["fo.l1.W_C"].data + params["fo.l1.b_C"].data, 0.0)
        lo, hi = np.minimum(x.data, cand), np.maximum(x.data, cand)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_width_preserved_and_checked(self):
        stack, _ = make_outer(8, n_layers=3)
        x = Tensor(np.zeros((2, 8)))
        assert stack(x).data.shape == (2, 8)
        with pytest.raises(ShapeError):
            stack(Tensor(np.zeros((2, 7))))

    def test_gradient(self):
        stack, _ = make_outer(8, n_layers=2, seed=4)
        rng = np.random.default_rng(5)
        w = Tensor(rng.standard_normal((3, 8)))
        x = Tensor(rng.standard_normal((3, 8)), requires_grad=True)
        assert grad_check(lambda t: T.tsum(T.mul(stack(t), w)), x) < 1e-4

    def test_parameter_gradients(self):
        stack, params = make_outer(4, n_layers=1, seed=6)
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((3, 4)))
        for name in params.names():
            err = grad_check(lambda _p: T.tsum(stack(x)), params[name])
            assert err < 1e-4, name


class TestInnerFusion:
    def test_gate_forced_closed_carries_prev(self):
        layer, params = make_inner(5)
        params["fi.W_f"].data[:] = 0.0
        params["fi.b_f"].data[:] = -40.0
        rng = np.random.default_rng(8)
        b_new = Tensor(rng.standard_normal((3, 5)))
        b_prev = Tensor(rng.standard_normal((3, 5)))
        out = layer(b_new, b_prev)
        assert np.max(np.abs(out.data - b_prev.data)) < 1e-6

    def test_gate_forced_open_is_tanh_candidate(self):
        layer, params = make_inner(4)
        params["fi.b_f"].data[:] = 40.0
        rng = np.random.default_rng(9)
        b_new = Tensor(rng.standard_normal((2, 4)))
        b_prev = Tensor(rng.standard_normal((2, 4)))
        out = layer(b_new, b_prev)
        assert np.all(out.data > -1.0) and np.all(out.data < 1.0)
        cat = np.concatenate([b_new.data, b_prev.data, b_new.data * b_prev.data], axis=1)
        expected = np.tanh(cat @ params["fi.W_B"].data + params["fi.b_B"].data)
        assert np.max(np.abs(out.data - expected)) < 1e-6

    def test_output_between_prev_and_candidate(self):
        layer, params = make_inner(6, seed=10)
        rng = np.random.default_rng(11)
        b_new = Tensor(rng.standard_normal((4, 6)))
        b_prev = Tensor(rng.standard_normal((4, 6)))
        out = layer(b_new, b_prev).data
        cat = np.concatenate([b_new.data, b_prev.data, b_new.data * b_prev.data], axis=1)
        cand = np.tanh(cat @ params["fi.W_B"].data + params["fi.b_B"].data)
        lo = np.minimum(b_prev.data, cand)
        hi = np.maximum(b_prev.data, cand)
        assert np.all(out >= lo - 1e-12) and np.all(out <= hi + 1e-12)

    def test_width_mismatch_rejected(self):
        layer, _ = make_inner(4)
        with pytest.raises(ShapeError):
            layer(Tensor(np.zeros((2, 4))), Tensor(np.zeros((2, 5))))

    def test_gradients(self):
        layer, params = make_inner(4, seed=12)
        rng = np.random.default_rng(13)
        b_prev = Tensor(rng.standard_normal((3, 4)))
        w = Tensor(rng.standard_normal((3, 4)))
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        assert grad_check(lambda t: T.tsum(T.mul(layer(t, b_prev), w)), x) < 1e-4
        for name in params.names():
            b_new = Tensor(rng.standard_normal((3, 4)))
            err = grad_check(lambda _p: T.tsum(layer(b_new, b_prev)), params[name])
            assert err < 1e-4, name


def generic_inner_fusion(layer, b_new, b_prev):
    """The Fi gate spelled out in generic nodes: the reference the fused node matches."""
    cat = T.concat([b_new, b_prev, T.mul(b_new, b_prev)], axis=1)
    return T.gated_mix(b_prev, T.affine(cat, layer.w_b, layer.b_b, T.TANH),
                       T.affine(cat, layer.w_f, layer.b_f, T.SIGMOID))


LENGTHS = [3, 1, 5]  # a packed ragged batch with a one-row segment


def signed_zero_weights(rng, shape):
    """Upstream-gradient weights with +0.0 and -0.0 entries among the others."""
    w = rng.standard_normal(shape)
    w.flat[::4] = 0.0
    w.flat[1::4] = -0.0
    return w


class TestInnerFusionNode:
    """The one-node Fi against its generic composition: the value and the weight
    and bias gradients byte for byte, the input gradients to the last bits."""

    def run(self, fuse, order, width, lengths, seed=14):
        """(output, {name: gradient}) with b_prev fanned out to a
        second consumer walked before the Fi ("before") or after it ("after")."""
        layer, params = make_inner(width, seed=seed)
        rng = np.random.default_rng(seed + 1)
        n = sum(lengths)
        b_new = Tensor(rng.standard_normal((n, width)), requires_grad=True)
        b_prev = Tensor(rng.standard_normal((n, width)), requires_grad=True)
        out = fuse(layer, b_new, b_prev)
        if order == "before":  # like an Fo over an Fi block: the output and b_prev side by side
            side = T.concat([out, b_prev], axis=1)
            loss = T.tsum(T.mul(side, Tensor(signed_zero_weights(rng, side.data.shape))))
        else:
            second = T.tsum(T.mul(b_prev, Tensor(rng.standard_normal((n, width)))))
            loss = add(T.tsum(T.mul(out, Tensor(signed_zero_weights(rng, (n, width))))), second)
        backward(loss)
        grads = {"b_new": b_new.grad, "b_prev": b_prev.grad}
        grads.update((name, params[name].grad) for name in params.names())
        return out.data, grads

    # Width 32 over 25 rows: a product split into [n, w] column blocks takes
    # another BLAS path there than the [n, 3w] one and moves the last bits.
    # 600 and 771 rows: the input gradient by row blocks, at widths 8, 72 and 75.
    @pytest.mark.parametrize("width, lengths", [(4, LENGTHS), (32, [12, 1, 12]),
                                                (8, [300, 1, 299]), (72, [513, 1, 257]),
                                                (75, [300, 1, 299])])
    @pytest.mark.parametrize("order", ["before", "after"])
    def test_value_and_six_gradients_match_generic_bytes(self, order, width, lengths):
        out, grads = self.run(lambda layer, b_new, b_prev: layer(b_new, b_prev),
                              order, width, lengths)
        ref, ref_grads = self.run(generic_inner_fusion, order, width, lengths)
        assert out.tobytes() == ref.tobytes()
        assert len(grads) == 6
        for name in ("fi.W_B", "fi.b_B", "fi.W_f", "fi.b_f"):
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name
        for name in ("b_new", "b_prev"):  # the same terms, added in another order
            err = np.abs(grads[name] - ref_grads[name]) / np.maximum(1.0, np.abs(ref_grads[name]))
            assert err.max() <= 1e-14, name

    def test_after_self_attention_matches_generic_bytes(self):
        """The model's shape: b_new is the self-attention of b_prev over the segments."""
        def run(fuse):
            layer, params = make_inner(6, seed=16)
            rng = np.random.default_rng(17)
            b_prev = Tensor(rng.standard_normal((sum(LENGTHS), 6)), requires_grad=True)
            b_new, _ = self_attention(b_prev, LENGTHS, 1)
            out = fuse(layer, b_new, b_prev)
            backward(T.tsum(T.mul(out, Tensor(signed_zero_weights(rng, out.data.shape)))))
            return [out.data.tobytes(), b_prev.grad.tobytes(),
                    *(params[name].grad.tobytes() for name in params.names())]

        assert run(lambda layer, b_new, b_prev: layer(b_new, b_prev)) == run(generic_inner_fusion)

    def test_one_node_on_the_tape(self):
        layer, _ = make_inner(4)
        b_new, b_prev = (Tensor(np.ones((2, 4)), requires_grad=True) for _ in range(2))
        out = layer(b_new, b_prev)
        assert out._parents == (b_new, b_prev, layer.w_f, layer.b_f, layer.w_b, layer.b_b)

    def test_frozen_builds_no_tape(self):
        layer, params = make_inner(4, seed=18)
        rng = np.random.default_rng(19)
        b_new, b_prev = (Tensor(rng.standard_normal((sum(LENGTHS), 4))) for _ in range(2))
        with params.frozen():
            out = layer(b_new, b_prev)
            reference = generic_inner_fusion(layer, b_new, b_prev)
        assert not out.requires_grad and out._parents == () and out._backward is None
        assert out.data.tobytes() == reference.data.tobytes()

    def test_width_other_than_built_rejected(self):
        layer, _ = make_inner(4)
        with pytest.raises(ShapeError, match="built for width 4"):
            layer(Tensor(np.zeros((3, 5))), Tensor(np.zeros((3, 5))))
