import numpy as np
import pytest

from phasecond import tensor as T
from phasecond.encoders import EncoderPair, bilstm_cells, lstm_direction
from phasecond.errors import ShapeError
from phasecond.params import ParamSet, constant
from phasecond.tensor import Tensor, backward, grad_check


def make_pair(in_dim=3, hidden=2, seed=0):
    params = ParamSet(np.random.default_rng(seed))
    pair = EncoderPair(params, in_dim, hidden)
    return pair, params


class TestLSTMDirection:
    def test_zero_parameters_emit_zeros(self):
        x = Tensor(np.random.default_rng(0).standard_normal((4, 3)))
        w = Tensor(np.zeros((3, 8)))
        u = Tensor(np.zeros((2, 8)))
        b = Tensor(np.zeros(8))
        out = lstm_direction(x, [(w, u, b, False)], [4])
        assert np.array_equal(out.data, np.zeros((4, 2)))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        params = ParamSet()
        w = params.add("W", (3, 8), constant(rng.standard_normal((3, 8)) * 0.4))
        u = params.add("U", (2, 8), constant(rng.standard_normal((2, 8)) * 0.4))
        b = params.add("b", (8,), constant(rng.standard_normal(8) * 0.1))
        x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        mixer = Tensor(rng.standard_normal((3, 2)))

        def loss_wrt(t, reverse=False):
            return T.tsum(T.mul(lstm_direction(x if t is not x else t, [(w, u, b, reverse)],
                                               [3]), mixer))

        assert grad_check(lambda t: loss_wrt(t), x) < 1e-4
        for p in (w, u, b):
            assert grad_check(lambda q, p=p: T.tsum(T.mul(
                lstm_direction(x, [(w, u, b, False)], [3]), mixer)), p) < 1e-4
        assert grad_check(lambda t: loss_wrt(t, reverse=True), x) < 1e-4

    def test_reverse_direction_sees_suffix(self):
        rng = np.random.default_rng(2)
        params = ParamSet()
        w = params.add("W", (2, 4), constant(rng.standard_normal((2, 4))))
        u = params.add("U", (1, 4), constant(rng.standard_normal((1, 4))))
        b = params.add("b", (4,), constant(rng.standard_normal(4)))
        x = rng.standard_normal((5, 2))
        full = lstm_direction(Tensor(x), [(w, u, b, True)], [5]).data
        # last row depends only on the last input position
        tail = lstm_direction(Tensor(x[-1:]), [(w, u, b, True)], [1]).data
        assert np.allclose(full[-1], tail[0])


LENGTHS = [3, 1, 4, 2]


def packed_fixture(seed):
    rng = np.random.default_rng(seed)
    params = ParamSet()
    cell = (params.add("W", (3, 8), constant(rng.standard_normal((3, 8)) * 0.4)),
            params.add("U", (2, 8), constant(rng.standard_normal((2, 8)) * 0.4)),
            params.add("b", (8,), constant(rng.standard_normal(8) * 0.1)))
    x = Tensor(rng.standard_normal((sum(LENGTHS), 3)))
    mixer = Tensor(rng.standard_normal((sum(LENGTHS), 2)))
    return x, cell, mixer


def segments(lengths):
    ends = np.cumsum(lengths)
    return [(end - n, end) for n, end in zip(lengths, ends)]


class TestPackedLSTMDirection:
    @pytest.mark.parametrize("reverse", [False, True])
    def test_gradients_match_finite_differences(self, reverse):
        x, cell, mixer = packed_fixture(20)

        def loss(_leaf):
            return T.tsum(T.mul(lstm_direction(x, [(*cell, reverse)], LENGTHS), mixer))

        for leaf in (x, *cell):
            assert grad_check(loss, leaf) < 1e-4

    @pytest.mark.parametrize("reverse", [False, True])
    def test_matches_per_sequence(self, reverse):
        x, cell, mixer = packed_fixture(21)
        x.requires_grad = True
        packed = lstm_direction(x, [(*cell, reverse)], LENGTHS)
        backward(T.tsum(T.mul(packed, mixer)))
        packed_grads = [t.grad for t in (x, *cell)]

        for t in (x, *cell):
            t.grad = None
        for lo, hi in segments(LENGTHS):
            piece = Tensor(x.data[lo:hi], requires_grad=True)
            alone = lstm_direction(piece, [(*cell, reverse)], [hi - lo])
            assert np.abs(packed.data[lo:hi] - alone.data).max() <= 1e-12
            backward(T.tsum(T.mul(alone, Tensor(mixer.data[lo:hi]))))
            assert np.abs(packed_grads[0][lo:hi] - piece.grad).max() <= 1e-12
        for packed_grad, t in zip(packed_grads[1:], cell):
            assert np.abs(packed_grad - t.grad).max() <= 1e-12

    def test_lengths_must_cover_rows(self):
        x, cell, _ = packed_fixture(23)
        with pytest.raises(ShapeError, match="sum to"):
            lstm_direction(x, [(*cell, False)], [3, 1, 4])


def two_cells(seed):
    """Two directions' (W, U, b) over 3-wide inputs at hidden 2."""
    rng = np.random.default_rng(seed)
    params = ParamSet()
    return [tuple(params.add(f"{direction}.{name}", shape, constant(rng.standard_normal(shape) * 0.4))
                  for name, shape in (("W", (3, 8)), ("U", (2, 8)), ("b", (8,))))
            for direction in ("fw", "bw")]


class TestDirectionsTogether:
    @pytest.mark.parametrize("lengths", [LENGTHS, [1]])
    def test_equals_one_direction_calls_side_by_side(self, lengths):
        fw, bw = two_cells(24)
        rng = np.random.default_rng(25)
        x = Tensor(rng.standard_normal((sum(lengths), 3)), requires_grad=True)
        mixer = Tensor(rng.standard_normal((sum(lengths), 4)))
        both = lstm_direction(x, [(*fw, False), (*bw, True)], lengths)
        backward(T.tsum(T.mul(both, mixer)))
        together = [t.grad for t in (x, *fw, *bw)]

        for t in (x, *fw, *bw):
            t.grad = None
        apart = T.concat([lstm_direction(x, [(*fw, False)], lengths),
                          lstm_direction(x, [(*bw, True)], lengths)], axis=1)
        backward(T.tsum(T.mul(apart, mixer)))
        assert np.array_equal(both.data, apart.data)
        for grad, t in zip(together, (x, *fw, *bw)):
            assert np.array_equal(grad, t.grad)

    def test_gradients_match_finite_differences(self):
        fw, bw = two_cells(26)
        rng = np.random.default_rng(27)
        x = Tensor(rng.standard_normal((sum(LENGTHS), 3)))
        mixer = Tensor(rng.standard_normal((sum(LENGTHS), 4)))

        def loss(_leaf):
            return T.tsum(T.mul(lstm_direction(x, [(*fw, False), (*bw, True)], LENGTHS), mixer))

        for leaf in (x, *fw, *bw):
            assert grad_check(loss, leaf) < 1e-4


class TestBiLSTMEncoder:
    def test_output_width_and_length(self):
        pair, _ = make_pair(in_dim=4, hidden=128)
        rng = np.random.default_rng(3)
        h, u = pair.encode_shared(Tensor(rng.standard_normal((7, 4))), [7],
                                  Tensor(rng.standard_normal((4, 4))), [4])
        assert h.data.shape == (7, 256)
        assert u.data.shape == (4, 256)

    def test_single_step(self):
        pair, _ = make_pair()
        out = pair.encode_independent_question(Tensor(np.ones((1, 3))), [1])
        assert out.data.shape == (1, 4)

    def test_empty_sequence_rejected(self):
        pair, _ = make_pair()
        with pytest.raises(ShapeError, match="empty"):
            pair.encode_independent_question(Tensor(np.zeros((0, 3))), [0])

    def test_sequence_locality_of_forward_states(self):
        params = ParamSet(np.random.default_rng(4))
        cells = bilstm_cells(params, "e", 3, 2)
        x = np.random.default_rng(5).standard_normal((6, 3))
        full = lstm_direction(Tensor(x), cells, [6]).data
        trunc = lstm_direction(Tensor(x[:-1]), cells, [5]).data
        assert np.allclose(full[:-1, :2], trunc[:, :2])

    def test_one_node_lists_its_input_once(self):
        params = ParamSet(np.random.default_rng(4))
        cells = bilstm_cells(params, "e", 3, 2)
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        out = lstm_direction(x, cells, [3, 1])
        (w_f, u_f, b_f, _), (w_b, u_b, b_b, _) = cells
        assert out._parents == (x, w_f, u_f, b_f, w_b, u_b, b_b)

    def test_empty_sequence_in_a_packed_batch_rejected(self):
        cells = bilstm_cells(ParamSet(np.random.default_rng(4)), "e", 3, 2)
        with pytest.raises(ShapeError, match="empty"):
            lstm_direction(Tensor(np.ones((3, 3))), cells, [3, 0])

    def test_input_wider_than_the_cells_rejected(self):
        cells = bilstm_cells(ParamSet(np.random.default_rng(4)), "e", 3, 2)
        with pytest.raises(ShapeError, match="input width 3, got 4"):
            lstm_direction(Tensor(np.ones((3, 4))), cells, [3])


class TestEncoderPair:
    def test_shared_weights_are_literal(self):
        pair, _ = make_pair(seed=6)
        feats = Tensor(np.random.default_rng(7).standard_normal((5, 3)))
        h, u = pair.encode_shared(feats, [5], feats, [5])
        assert np.array_equal(h.data, u.data)

    def test_permuting_question_leaves_passage_encoding(self):
        pair, _ = make_pair(seed=8)
        rng = np.random.default_rng(9)
        p = rng.standard_normal((6, 3))
        q = rng.standard_normal((4, 3))
        h1, u1 = pair.encode_shared(Tensor(p), [6], Tensor(q), [4])
        h2, u2 = pair.encode_shared(Tensor(p), [6], Tensor(q[::-1].copy()), [4])
        assert np.array_equal(h1.data, h2.data)
        assert not np.allclose(u1.data, u2.data)

    def test_parameter_count_is_one_bilstm_for_shared(self):
        pair, params = make_pair(in_dim=3, hidden=2)
        shared = [n for n in params.names() if n.startswith("enc.shared.")]
        indep = [n for n in params.names() if n.startswith("enc.indep.")]
        per_dir = 3 * 8 + 2 * 8 + 8  # W + U + b at in_dim=3, hidden=2
        assert sum(params[n].data.size for n in shared) == 2 * per_dir
        assert len(shared) == len(indep) == 6

    def test_independent_params_disjoint(self):
        pair, params = make_pair(seed=10)
        feats = Tensor(np.random.default_rng(11).standard_normal((3, 3)))
        v = pair.encode_independent_question(feats, [3])
        _, u = pair.encode_shared(feats, [3], feats, [3])
        assert not np.allclose(v.data, u.data)

    def test_encoder_gradient_through_stack(self):
        pair, _ = make_pair(seed=12)
        rng = np.random.default_rng(13)
        mixer = Tensor(rng.standard_normal((3, 4)))
        x = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
        err = grad_check(
            lambda t: T.tsum(T.mul(pair.encode_independent_question(t, [3]), mixer)), x
        )
        assert err < 1e-4

    def test_batch_matches_one_example_at_a_time(self):
        pair, _ = make_pair(seed=15)
        rng = np.random.default_rng(16)
        p_lengths, q_lengths = [4, 2, 5], [2, 3, 1]
        passages = [Tensor(rng.standard_normal((n, 3))) for n in p_lengths]
        questions = [Tensor(rng.standard_normal((m, 3))) for m in q_lengths]
        packed_q = T.concat(questions, axis=0)
        v_packed = pair.encode_independent_question(packed_q, q_lengths)
        h_packed, u_packed = pair.encode_shared(T.concat(passages, axis=0), p_lengths,
                                                packed_q, q_lengths)
        assert h_packed.data.shape == (4 + 2 + 5, 4)
        assert u_packed.data.shape == (2 + 3 + 1, 4)
        vs, us = T.split_rows(v_packed, q_lengths), T.split_rows(u_packed, q_lengths)
        hs = T.split_rows(h_packed, p_lengths)
        for k, (p, q) in enumerate(zip(passages, questions)):
            v = pair.encode_independent_question(q, [q.data.shape[0]])
            h, u = pair.encode_shared(p, [p.data.shape[0]], q, [q.data.shape[0]])
            for batched, alone in ((vs[k], v), (hs[k], h), (us[k], u)):
                assert batched.data.shape == alone.data.shape
                assert np.abs(batched.data - alone.data).max() <= 1e-12

    def test_deterministic_build(self):
        pair1, params1 = make_pair(seed=14)
        pair2, params2 = make_pair(seed=14)
        for name in params1.names():
            assert np.array_equal(params1[name].data, params2[name].data)
