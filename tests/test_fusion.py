import numpy as np
import pytest

from phasecond import tensor as T
from phasecond.errors import ShapeError
from phasecond.fusion import InnerFusionLayer, OuterFusionStack
from phasecond.params import ParamSet
from phasecond.tensor import Tensor, grad_check


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
