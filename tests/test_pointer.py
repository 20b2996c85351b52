import numpy as np
import pytest

from phasecond import tensor as T
from phasecond.errors import DataError, NumericsError, ShapeError
from phasecond.params import ParamSet
from phasecond.pointer import (
    POINTER_HOPS,
    GRUCell,
    PointerHead,
    decode_span,
    question_summary,
    span_loss,
)
from phasecond.tensor import Tensor, backward, grad_check
from reference_ops import activate, add, matmul


def brute_force_span(ps, pe, max_span):
    """Independent exhaustive-search oracle over all valid (s, e) pairs."""
    best, best_score = None, -1.0
    n = len(ps)
    for s in range(n):
        for e in range(s, min(s + max_span, n)):
            score = ps[s] * pe[e]
            if score > best_score:
                best, best_score = (s, e), score
    return best, best_score


def make_head(width=4, query_width=4, seed=0):
    params = ParamSet(np.random.default_rng(seed))
    head = PointerHead(params, width, query_width)
    return head, params


def chain_summary(v, w_proj, w_score, lengths):
    """question_summary with its scores from three nodes: product, tanh and product."""
    scores = matmul(activate(matmul(v, w_proj), T.TANH), w_score)
    return T.segment_weighted_sum(T.segment_softmax(scores, lengths), v, lengths)


class TestQuestionSummary:
    def test_single_row_passthrough(self):
        head, params = make_head(query_width=4)
        v = Tensor(np.array([[1.0, -2.0, 0.5, 3.0]]))
        out = question_summary(v, head.summary_proj, head.summary_score, [1])
        assert np.allclose(out.data, v.data)

    def test_identical_rows_convexity(self):
        head, _ = make_head(query_width=4)
        row = np.array([0.3, -1.0, 2.0, 0.0])
        v = Tensor(np.tile(row, (3, 1)))
        out = question_summary(v, head.summary_proj, head.summary_score, [3])
        assert np.allclose(out.data[0], row)

    def test_gradient(self):
        head, _ = make_head(query_width=4, seed=1)
        rng = np.random.default_rng(2)
        mix = Tensor(rng.standard_normal((1, 4)))
        v = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        err = grad_check(lambda t: T.tsum(T.mul(
            question_summary(t, head.summary_proj, head.summary_score, [3]), mix)), v)
        assert err < 1e-4

    def test_scores_are_two_affine_nodes_bitwise_the_three_node_chain(self):
        def run(summary):
            """(tape nodes, [value and the gradients of v, W_proj and w_score])."""
            rng = np.random.default_rng(3)
            v, w_proj, w_score = (Tensor(3.0 * rng.standard_normal(shape), requires_grad=True)
                                  for shape in ((6, 4), (4, 4), (4, 1)))
            out = summary(v, w_proj, w_score, [3, 1, 2])
            nodes = tape_nodes(out)
            backward(T.tsum(T.mul(out, Tensor(rng.standard_normal((3, 4))))))
            return nodes, [out.data, v.grad, w_proj.grad, w_score.grad]

        (got_nodes, got), (want_nodes, want) = run(question_summary), run(chain_summary)
        assert (got_nodes, want_nodes) == (4, 5)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


class TestDecodeSpan:
    def test_fixture_max_span_15(self):
        span = decode_span([0.1, 0.7, 0.2], [0.05, 0.15, 0.8], max_span=15)
        assert (span.start, span.end) == (1, 2)
        assert span.score == pytest.approx(0.56)

    def test_fixture_max_span_1(self):
        span = decode_span([0.1, 0.7, 0.2], [0.05, 0.15, 0.8], max_span=1)
        assert (span.start, span.end) == (2, 2)
        assert span.score == pytest.approx(0.16)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_probabilities_raise(self, bad):
        # an argmax over a NaN matrix would decode to (0, 0)
        with pytest.raises(NumericsError, match="not finite"):
            decode_span([0.1, bad, 0.2], [0.05, 0.15, 0.8], max_span=15)
        with pytest.raises(NumericsError, match="not finite"):
            decode_span([0.1, 0.7, 0.2], [bad, 0.15, 0.8], max_span=15)

    @pytest.mark.parametrize("max_span", [1, 5, 15])
    def test_matches_brute_force(self, max_span):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = rng.integers(1, 12)
            ps = rng.random(n)
            ps /= ps.sum()
            pe = rng.random(n)
            pe /= pe.sum()
            got = decode_span(ps, pe, max_span)
            (s, e), score = brute_force_span(ps, pe, max_span)
            assert (got.start, got.end) == (s, e)
            assert got.score == pytest.approx(score)
            assert 0 <= got.start <= got.end < n
            assert got.end - got.start < max_span

    @pytest.mark.parametrize("ps,pe,max_span,want", [
        ([0.0, 0.5, 0.5], [0.0, 0.5, 0.5], 2, (1, 1, 0.25)),  # a tie across starts
        ([1.0, 0.0, 0.0], [0.0, 0.5, 0.5], 3, (0, 1, 0.5)),   # a tie across ends
        ([0.0, 0.5, 0.5], [0.5, 0.0, 0.5], 1, (2, 2, 0.25)),  # zero probabilities
        ([0.0, 1.0], [0.0, 1.0], 5, (1, 1, 1.0)),             # the band runs past the end
        ([0.0, 0.0, 1.0], [1.0, 0.0, 0.0], 3, (0, 0, 0.0)),   # every product is 0
        ([0.0, 0.0], [0.0, 0.0], 5, (0, 0, 0.0)),
    ])
    def test_ties_and_zeros_take_the_first_maximum(self, ps, pe, max_span, want):
        span = decode_span(ps, pe, max_span)
        assert (span.start, span.end, span.score) == want
        assert str(span.score) == str(float(want[2]))  # +0.0, not a -0.0 from the padding

    def test_matches_brute_force_with_ties_and_zeros(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            n, max_span = rng.integers(1, 12), rng.integers(1, 15)
            ps, pe = rng.choice([0.0, 0.25, 0.5], size=(2, n))
            got = decode_span(ps, pe, max_span)
            (s, e), score = brute_force_span(ps, pe, max_span)
            assert (got.start, got.end, got.score) == (s, e, score)


def generic_gru(cell, state, x):
    """The memory update as the chain of matmul, add and activation nodes, 17 per call."""
    w = cell.w
    r = activate(add(add(matmul(x, w["Wr"]), matmul(state, w["Ur"])), w["br"]), T.SIGMOID)
    u = add(add(matmul(x, w["Wu"]), matmul(state, w["Uu"])), w["bu"])
    cand = activate(add(add(matmul(x, w["Wc"]), matmul(T.mul(r, state), w["Uc"])),
                        w["bc"]), T.TANH)
    return T.gated_mix(state, cand, activate(u, T.SIGMOID))


def tape_nodes(out):
    """The op nodes out's backward() would walk."""
    seen, stack = set(), [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen and node._backward is not None:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


class TestGRUCell:
    def run(self, update, calls):
        """(final state, gradients of the first state, every input and every weight)."""
        cell = GRUCell(ParamSet(np.random.default_rng(20)), "mem", 5)
        rng = np.random.default_rng(21)
        state = Tensor(3.0 * rng.standard_normal((3, 5)), requires_grad=True)
        xs = [Tensor(3.0 * rng.standard_normal((3, 5)), requires_grad=True) for _ in range(calls)]
        s = state
        for x in xs:
            s = update(cell, s, x)
        mix = rng.standard_normal((3, 5))
        mix.flat[::4], mix.flat[1::4] = 0.0, -0.0
        backward(T.tsum(T.mul(s, Tensor(mix))))
        return s.data, [state.grad, *(x.grad for x in xs), *(t.grad for t in cell.w.values())]

    @pytest.mark.parametrize("calls", [1, 2, 3])
    def test_value_and_gradients_are_bitwise_the_generic_chain(self, calls):
        out, grads = self.run(GRUCell.__call__, calls)
        want_out, want_grads = self.run(generic_gru, calls)
        assert out.tobytes() == want_out.tobytes()
        for got, want in zip(grads, want_grads):
            assert got.tobytes() == want.tobytes()

    def test_five_nodes_per_call(self):
        cell = GRUCell(ParamSet(np.random.default_rng(22)), "mem", 4)
        state, x = (Tensor(np.ones((2, 4)), requires_grad=True) for _ in range(2))
        assert tape_nodes(cell(state, x)) == 5
        assert tape_nodes(generic_gru(cell, state, x)) == 17


class TestPredictSpan:
    def test_distributions_valid_per_hop(self):
        head, _ = make_head(width=6, query_width=4, seed=4)
        rng = np.random.default_rng(5)
        h = Tensor(rng.standard_normal((5, 6)))
        q = head.initial_query(Tensor(rng.standard_normal((3, 4))), [3])
        scores, probs = head.predict_span(h, q, [5])
        assert scores.data.shape == probs.shape == (5, 2)
        assert np.all(probs >= 0)
        assert np.all(np.abs(probs.sum(axis=0) - 1.0) <= 1e-9)

    def test_uniform_scores_give_uniform_distribution(self):
        head, params = make_head(width=4, seed=6)
        params[f"ptr.hop{POINTER_HOPS}.start.v"].data[:] = 0.0  # the last hop's probabilities
        rng = np.random.default_rng(7)
        h = Tensor(rng.standard_normal((4, 4)))
        q = Tensor(rng.standard_normal((1, 4)))
        _, probs = head.predict_span(h, q, [4])
        assert np.allclose(probs[:, 0], 0.25)

    def test_adapter_reconciles_query_width(self):
        head, params = make_head(width=6, query_width=4, seed=10)
        assert "ptr.adapter" in params.names()
        v = Tensor(np.random.default_rng(11).standard_normal((2, 4)))
        q = head.initial_query(v, [2])
        assert q.data.shape == (1, 6)

    def test_gradient_wrt_passage(self):
        head, _ = make_head(width=4, query_width=4, seed=12)
        rng = np.random.default_rng(13)
        q_src = Tensor(rng.standard_normal((3, 4)))
        h = Tensor(rng.standard_normal((5, 4)), requires_grad=True)

        def f(t):
            scores, _ = head.predict_span(t, head.initial_query(q_src, [3]), [5])
            return span_loss(scores, [5], [(1, 3)])

        assert grad_check(f, h) < 1e-4

    def test_packed_batch_matches_one_passage_at_a_time(self):
        head, _ = make_head(width=6, query_width=4, seed=15)
        rng = np.random.default_rng(16)
        lengths, q_lengths = [4, 1, 7, 2], [3, 1, 2, 5]
        passages = [Tensor(rng.standard_normal((n, 6))) for n in lengths]
        questions = [Tensor(rng.standard_normal((m, 4))) for m in q_lengths]
        query = head.initial_query(T.concat(questions, axis=0), q_lengths)
        scores, probs = head.predict_span(T.concat(passages, axis=0), query, lengths)
        ends = np.cumsum(lengths)
        for h, v, n, m, end in zip(passages, questions, lengths, q_lengths, ends):
            alone_scores, alone_probs = head.predict_span(h, head.initial_query(v, [m]), [n])
            assert np.abs(probs[end - n:end] - alone_probs).max() <= 1e-12
            assert np.abs(scores.data[end - n:end] - alone_scores.data).max() <= 1e-12

    def test_packed_shapes_checked(self):
        head, _ = make_head(width=4)
        h = Tensor(np.zeros((5, 4)))
        with pytest.raises(ShapeError, match="sum to"):
            head.predict_span(h, Tensor(np.zeros((2, 4))), [2, 2])
        with pytest.raises(ShapeError, match="query"):
            head.predict_span(h, Tensor(np.zeros((1, 4))), [2, 3])


def scores_of(start_scores, end_scores):
    return Tensor(np.column_stack([start_scores, end_scores]), requires_grad=True)


class TestSpanLoss:
    def test_half_half(self):
        loss = span_loss(scores_of([0.3, 0.3], [-1.0, -1.0]), [2], [(0, 1)])
        assert loss.data == pytest.approx(2 * np.log(2), abs=1e-12)

    def test_perfect_prediction(self):
        assert span_loss(scores_of([1e3, -1e3], [-1e3, 1e3]), [2], [(0, 1)]).data == 0.0

    def test_one_token_passage_loss_is_positive_zero(self):
        # -0.0 == 0.0, but a perfect epoch's loss would print as -0.000000
        loss = span_loss(Tensor(np.zeros((1, 2))), [1], [(0, 0)])
        assert loss.data == 0.0 and not np.signbit(loss.data)
        assert f"{float(loss.data):.6f}" == "0.000000"

    def test_extreme_scores_keep_gold_gradient(self):
        # the gold probabilities underflow to 0; a loss built on them would
        # have to clamp, and a clamped loss has no gradient
        scores = scores_of([1e3, -1e3, -1e3], [1e3, 1e3, -1e3])
        loss = span_loss(scores, [3], [(1, 2)])
        assert loss.data == pytest.approx(4000.0 + np.log(2))
        backward(loss)
        expected = np.array([[1.0, 0.5], [-1.0, 0.5], [0.0, -1.0]])
        assert np.abs(scores.grad - expected).max() <= 1e-12

    def test_out_of_range_gold(self):
        with pytest.raises(DataError):
            span_loss(scores_of([0.5, 0.5], [0.5, 0.5]), [2], [(0, 2)])

    def test_non_negative_and_uses_last_hop(self):
        head, _ = make_head(width=4, query_width=4, seed=14)
        rng = np.random.default_rng(14)
        q = head.initial_query(Tensor(rng.standard_normal((2, 4))), [2])
        scores, probs = head.predict_span(Tensor(rng.standard_normal((4, 4))), q, [4])
        loss = span_loss(scores, [4], [(1, 2)])
        assert loss.data == pytest.approx(-np.log(probs[1, 0]) - np.log(probs[2, 1]))
        assert loss.data >= 0

    def test_batch_mean_over_passages(self):
        rng = np.random.default_rng(17)
        lengths, golds = [3, 1, 4], [(2, 0), (0, 0), (1, 3)]
        scores = Tensor(rng.standard_normal((8, 2)))
        loss = span_loss(scores, lengths, golds)
        ends = np.cumsum(lengths)
        alone = [span_loss(Tensor(scores.data[end - n:end]), [n], [gold]).data
                 for n, end, gold in zip(lengths, ends, golds)]
        assert loss.data == pytest.approx(np.mean(alone), abs=1e-12)
