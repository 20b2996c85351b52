import gc
import hashlib
import importlib.util
import os
import re
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasecond import tensor as T
from phasecond.attention import AlignmentMatrix, qp_attention
from phasecond.conductor import (
    MAX_STEPS,
    MAX_WIDTH,
    _dropout_draws,
    build_from_examples,
    forward,
    forward_batch,
    gold_loss,
    parse_path,
    plan_steps,
    run_path,
)
from phasecond.config import DEFAULT_PATH, ITERATIVE_ALIGNER_PATH, RunConfig, desk_config
from phasecond.data import QAExample, SyntheticSpec, generate_synthetic
from phasecond.errors import ConfigError, PathSyntaxError, PathValidationError, PhaseCondError
from phasecond.features import PAD_INDEX
from phasecond.tensor import Tensor, grad_check


def small_config(**over):
    base = dict(hidden=3, word_dim=6, char_dim=4, char_filters=5, feat_dim=3, dropout=0.2,
                seed=0)
    base.update(over)
    return RunConfig(**base)


def tiny_examples(n=4, seed=0):
    return generate_synthetic(SyntheticSpec(n_examples=n, vocab_size=20,
                                            min_len=8, max_len=12, seed=seed))


class TestParsePath:
    def test_default_phasecond_path(self):
        path = parse_path("LQ->LQ->Fo->LS->Fi->LS->Fi")
        assert path == ("LQ", "LQ", "Fo", "LS", "Fi", "LS", "Fi")
        assert len(path) == 7

    def test_iterative_aligner_path(self):
        path = parse_path("(LQ->Fi->LS->Fi)x2")
        assert path == ("LQ", "Fi", "LS", "Fi", "LQ", "Fi", "LS", "Fi")

    def test_whitespace_tolerated(self):
        assert parse_path(" LQ -> Fo ") == ("LQ", "Fo")

    def test_nested_groups(self):
        path = parse_path("LQ->Fo->((LS->Fi)x2)x2")
        assert path == ("LQ", "Fo") + ("LS", "Fi") * 4

    def test_syntax_error_reports_position(self):
        with pytest.raises(PathSyntaxError, match="position"):
            parse_path("LQ->XX")
        with pytest.raises(PathSyntaxError):
            parse_path("LQ->")
        with pytest.raises(PathSyntaxError):
            parse_path("(LQ->Fi")
        with pytest.raises(PathSyntaxError):
            parse_path("")

    @pytest.mark.parametrize("expr,position,expected", [
        ("", 0, "a step or '('"),
        ("LQ->", 4, "a step or '('"),
        ("LQ->->LQ", 4, "a step or '('"),
        ("(LQ->Fi", 7, "'->' or ')'"),
        ("LQ->(LS)", 8, "a repetition xN"),
        ("LQ x2", 3, "'->' or the end"),
        ("LQ->Fo)", 6, "'->' or the end,"),
        ("(LQ)x0", 4, "a repetition xN with N >= 1"),
        ("LQ->XX", 4, "a step or '('"),
    ])
    def test_malformed_path_names_what_was_expected(self, expr, position, expected):
        with pytest.raises(PathSyntaxError) as err:
            parse_path(expr)
        assert err.value.position == position
        assert f"expected {expected}" in str(err.value)
        assert f"(at position {position})" in str(err.value)

    def test_huge_repetition_refused_before_expanding(self):
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(PathSyntaxError, match=f"longer than {MAX_STEPS} steps") as err:
                parse_path("LQ->(LS)x99999999999")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 1_000_000
        assert err.value.position == 8

    def test_count_too_long_for_int_is_refused_by_the_cap(self):
        with pytest.raises(PathSyntaxError, match=f"longer than {MAX_STEPS} steps") as err:
            parse_path("(LQ)x" + "9" * 5000)
        assert err.value.position == 4

    def test_leading_zeros_of_a_count_are_read_past(self):
        assert parse_path("LQ->(LS)x" + "0" * 5000 + "1") == ("LQ", "LS")
        with pytest.raises(PathSyntaxError, match="N >= 1"):
            parse_path("LQ->(LS)x" + "0" * 5000)

    @pytest.mark.parametrize("longest", [
        "LQ->" + "->".join(["LS"] * (MAX_STEPS - 1)),
        f"LQ->(LS)x{MAX_STEPS - 1}",
        f"(LQ->(LS)x{MAX_STEPS // 2 - 1})x2",
    ])
    def test_path_of_max_steps_parses_and_one_more_is_refused(self, longest):
        assert len(parse_path(longest)) == MAX_STEPS
        with pytest.raises(PathSyntaxError, match=f"longer than {MAX_STEPS} steps"):
            parse_path(longest + "->LS")

    def test_path_without_attention_rejected(self):
        with pytest.raises(PathValidationError, match="no attention"):
            parse_path("Fo")

    def test_self_attention_first_rejected(self):
        with pytest.raises(PathValidationError, match="first attention"):
            parse_path("LS->LQ")

    def test_inner_fusion_needs_attention_before(self):
        with pytest.raises(PathValidationError, match="Fi"):
            parse_path("LQ->Fo->Fi")
        with pytest.raises(PathValidationError):
            parse_path("LQ->Fi->Fi")

    def test_outer_fusion_needs_block(self):
        with pytest.raises(PathValidationError, match="Fo"):
            parse_path("LQ->Fo->Fo")

    def test_step_widths_in_units_of_2d(self):
        assert [s.width for s in plan_steps(parse_path(DEFAULT_PATH))] == [1, 1, 2, 2, 2, 2, 2]
        assert [s.width for s in plan_steps(parse_path("LQ->LQ->Fo->LQ->Fi"))] == [1, 1, 2, 1, 1]
        assert [s.width for s in plan_steps(parse_path("LQ->Fi->LQ->Fi->Fo"))] == [1, 1, 1, 1, 2]

    @pytest.mark.parametrize("expr,plan", [
        (DEFAULT_PATH, [("LQ", 1, 1, ()), ("LQ", 2, 1, ()), ("Fo", 1, 2, (0, 1)),
                        ("LS", 1, 2, ()), ("Fi", 1, 2, ()), ("LS", 2, 2, ()), ("Fi", 2, 2, ())]),
        (ITERATIVE_ALIGNER_PATH, [("LQ", 1, 1, ()), ("Fi", 1, 1, ()), ("LS", 1, 1, ()),
                                  ("Fi", 2, 1, ()), ("LQ", 2, 1, ()), ("Fi", 3, 1, ()),
                                  ("LS", 2, 1, ()), ("Fi", 4, 1, ())]),
        # the block is the LS alone: an attention step of the other kind starts a new one
        ("LQ->LS->Fo", [("LQ", 1, 1, ()), ("LS", 1, 1, ()), ("Fo", 1, 1, (1,))]),
        # the second Fo's block stops at the first Fo
        ("LQ->LQ->Fo->LS->LS->Fo", [("LQ", 1, 1, ()), ("LQ", 2, 1, ()), ("Fo", 1, 2, (0, 1)),
                                    ("LS", 1, 2, ()), ("LS", 2, 2, ()), ("Fo", 2, 4, (3, 4))]),
        # each Fi's output stands in for its attention step's
        ("LQ->Fi->LQ->Fi->Fo", [("LQ", 1, 1, ()), ("Fi", 1, 1, ()), ("LQ", 2, 1, ()),
                                ("Fi", 2, 1, ()), ("Fo", 1, 2, (1, 3))]),
        # the third LQ reads rows 2 units wide and returns 1
        ("LQ->LQ->Fo->LQ->Fi", [("LQ", 1, 1, ()), ("LQ", 2, 1, ()), ("Fo", 1, 2, (0, 1)),
                                ("LQ", 3, 1, ()), ("Fi", 1, 1, ())]),
    ], ids=["default", "iterative", "ls-block", "two-fo", "fi-block", "projecting-lq"])
    def test_plan_of_each_rule(self, expr, plan):
        assert [(s.kind, s.layer_index, s.width, s.block)
                for s in plan_steps(parse_path(expr))] == plan

    def test_path_too_wide_to_build_is_refused_with_its_config(self):
        wide = "LQ->LQ->Fo" + "->LS->LS->Fo" * 20  # widest Fo: 2,097,152 x 2d
        with pytest.raises(PathValidationError,
                           match=rf"step 12: Fo would be 16 x 2d wide.*\({MAX_WIDTH}\)"):
            desk_config(path=wide)
        assert issubclass(PathValidationError, ConfigError)

    def test_path_exactly_max_width_builds(self):
        widest = "LQ->LQ->Fo" + "->LS->LS->Fo" * 2
        assert max(s.width for s in plan_steps(parse_path(widest))) == MAX_WIDTH
        cfg = RunConfig(path=widest, hidden=2, word_dim=2, char_dim=2, char_filters=2,
                        feat_dim=2)
        model = build_from_examples(cfg, [])
        assert model.final_width == model.plan[-1].fusion.width == MAX_WIDTH * 2 * cfg.hidden
        with pytest.raises(PathValidationError, match="wide"):
            parse_path(widest + "->LS->LS->Fo")

    def test_round_trip_is_canonical(self):
        for expr in (DEFAULT_PATH, ITERATIVE_ALIGNER_PATH, "LQ->Fo", "(LQ->LQ->Fo)x1"):
            path = parse_path(expr)
            again = parse_path("->".join(path))
            assert again == path

    def test_generated_invalid_paths_rejected(self):
        rng = np.random.default_rng(0)
        rejected = 0
        for _ in range(300):
            steps = [str(rng.choice(["LQ", "LS", "Fi", "Fo"]))
                     for _ in range(rng.integers(1, 7))]
            try:
                plan_steps(steps)
            except PathValidationError:
                rejected += 1
        assert rejected > 100  # most random chains are malformed


class TestBuildModel:
    def test_default_path_widths(self):
        cfg = small_config(path=DEFAULT_PATH)
        model = build_from_examples(cfg, tiny_examples())
        # two LQ layers of width 2d concatenated -> 4d into the self phase
        assert model.final_width == 4 * cfg.hidden
        fo = model.plan[2]
        assert fo.kind == "Fo" and fo.fusion.width == 4 * cfg.hidden

    def test_self_attention_width_512_at_full_scale(self):
        cfg = RunConfig(hidden=128, word_dim=8, char_dim=4, char_filters=4, seed=1)
        model = build_from_examples(cfg, tiny_examples())
        assert model.plan[2].fusion.width == 512

    def test_minimal_path_pointer_consumes_2d(self):
        cfg = small_config(path="LQ->Fo")
        model = build_from_examples(cfg, tiny_examples())
        assert model.final_width == 2 * cfg.hidden
        assert model.pointer.adapter is None

    def test_same_seed_identical_parameters(self):
        cfg = small_config()
        examples = tiny_examples()
        m1 = build_from_examples(cfg, examples)
        m2 = build_from_examples(cfg, examples)
        assert m1.params.names() == m2.params.names()
        for name, t in m1.params.items():
            assert np.array_equal(t.data, m2.params[name].data), name

    def test_both_reference_paths_build_with_same_config(self):
        examples = tiny_examples()
        for expr in (DEFAULT_PATH, ITERATIVE_ALIGNER_PATH):
            model = build_from_examples(small_config(path=expr), examples)
            assert model.parameter_count() > 0

    def test_iterative_path_keeps_2d_width(self):
        cfg = small_config(path=ITERATIVE_ALIGNER_PATH)
        model = build_from_examples(cfg, tiny_examples())
        assert model.final_width == 2 * cfg.hidden
        assert all(s.projection is None for s in model.plan if s.kind == "LQ")

    def test_projection_inserted_after_width_change(self):
        cfg = small_config(path="LQ->LQ->Fo->LQ")
        model = build_from_examples(cfg, tiny_examples())
        last_lq = model.plan[3]
        assert last_lq.projection is not None
        assert last_lq.projection.data.shape == (4 * cfg.hidden, 2 * cfg.hidden)

    def test_fi_after_a_projecting_lq_fuses_the_projected_rows(self):
        cfg = small_config(path="LQ->LQ->Fo->LQ->Fi")
        model = build_from_examples(cfg, tiny_examples())
        _, _, fo, lq, fi = model.plan
        assert lq.projection.data.shape == (4 * cfg.hidden, 2 * cfg.hidden)
        assert fi.fusion.width == model.final_width == 2 * cfg.hidden
        rng = np.random.default_rng(4)
        h0, u, v = (Tensor(rng.standard_normal((n, 2 * cfg.hidden))) for n in (5, 3, 3))
        mix = Tensor(rng.standard_normal((5, 2 * cfg.hidden)))
        with model.params.frozen():
            h, _ = run_path(model, h0, u, v, [5], [3])
            first, _ = qp_attention(h0, u, v, [5], [3], 1)
            second, _ = qp_attention(first, u, v, [5], [3], 2)
            query = T.affine(fo.fusion(T.concat([first, second], axis=1)), lq.projection)
            fused = fi.fusion(b_new=qp_attention(query, u, v, [5], [3], 3)[0], b_prev=query)
            assert np.array_equal(h.data, fused.data)
            assert grad_check(lambda t: T.tsum(T.mul(run_path(model, t, u, v, [5], [3])[0], mix)),
                              h0) < 1e-4

    def test_every_path_readme_quotes_builds(self):
        """A quote in backticks or double quotes made only of steps, arrows,
        parentheses and xN is a path: it makes a config and builds."""
        with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                               "README.md"), encoding="utf-8") as fh:
            quotes = re.findall(r'`([^`\n]*)`|"([^"\n]*)"', fh.read())
        paths = {q for pair in quotes for q in pair
                 if "->" in q and re.search(r"LQ|LS|Fi|Fo", q)
                 and re.fullmatch(r"(?:LQ|LS|Fi|Fo|->|[()]|x\d+)+", q)}
        assert len(paths) >= 8
        examples = tiny_examples()
        for path in sorted(paths):
            assert build_from_examples(small_config(path=path, hidden=2), examples).plan

    @pytest.mark.parametrize("tagged,digest", [
        (False, "841dab86a94f34987642f0c062743e69ccc5295cbafa2a3b1572598bae2c589f"),
        (True, "916bd79b029f5ded88b7453b6751e53facb5aae952386b2de7f3992a21b2a3dc"),
    ])
    def test_initial_parameters_are_pinned(self, tagged, digest):
        """sha256 over (name, bytes) of every parameter of criterion 7's desk model,
        and of the same model on data that carries pos and ner tags: a change that
        moves any initial bit, such as a reordered draw, changes the digest."""
        examples = generate_synthetic(SyntheticSpec(n_examples=200, vocab_size=50,
                                                    min_len=20, max_len=30, seed=0))
        if tagged:
            for i, ex in enumerate(examples):
                ex.passage_pos = ["NN" if (i + j) % 3 else "VB"
                                  for j in range(len(ex.passage_tokens))]
                ex.question_ner = ["O"] * len(ex.question_tokens) if i % 2 else None
        model = build_from_examples(desk_config(), examples)
        sha = hashlib.sha256()
        for name, t in model.params.items():
            sha.update(name.encode())
            sha.update(t.data.tobytes())
        assert sha.hexdigest() == digest


class TestForward:
    def test_distributions_sum_to_one(self):
        cfg = small_config()
        examples = tiny_examples()
        model = build_from_examples(cfg, examples)
        result = forward(model, examples[0])
        assert abs(result.start_dist.sum() - 1.0) <= 1e-9
        assert abs(result.end_dist.sum() - 1.0) <= 1e-9

    def test_trace_matches_path(self):
        cfg = small_config()
        examples = tiny_examples()
        model = build_from_examples(cfg, examples)
        trace = forward(model, examples[0]).trace
        kinds = [(a.kind, a.layer_index) for a in trace]
        assert kinds == [("qp", 1), ("qp", 2), ("self", 1), ("self", 2)]
        n = len(examples[0].passage_tokens)
        m = len(examples[0].question_tokens)
        assert trace[0].weights.shape == (n, m)
        assert trace[2].weights.shape == (n, n)

    def test_eval_mode_deterministic(self):
        cfg = small_config()
        examples = tiny_examples()
        model = build_from_examples(cfg, examples)
        r1 = forward(model, examples[0])
        r2 = forward(model, examples[0])
        assert np.array_equal(r1.start_dist, r2.start_dist)
        assert np.array_equal(r1.end_dist, r2.end_dist)

    def test_six_dropout_masks_in_draw_order(self, monkeypatch):
        # passage and question features, v, h, u, the path's output: each
        # mask gets its own draw of `_dropout_draws`, in that order
        cfg = small_config()
        examples = tiny_examples()
        model = build_from_examples(cfg, examples)
        expected = _dropout_draws(model, examples, np.random.default_rng(5))
        calls, dropout = [], T.dropout

        def recording(a, rate, draw):
            calls.append((rate, draw))
            return dropout(a, rate, draw)

        monkeypatch.setattr(T, "dropout", recording)
        gold_loss(model, examples, rng=np.random.default_rng(5))
        assert len(calls) == len(expected) == 6
        for (rate, draw), want in zip(calls, expected):
            assert rate == cfg.dropout
            assert np.array_equal(draw, want)

    def test_site_buffers_hold_the_per_example_draws(self):
        # the uniforms as they were drawn before the site buffers: each
        # example's six arrays in turn, then each site's arrays packed
        cfg = small_config()
        examples = tiny_examples()
        model = build_from_examples(cfg, examples)
        rng = np.random.default_rng(5)
        got = _dropout_draws(model, examples, rng)
        ref_rng = np.random.default_rng(5)
        width, d2 = model.extractor.width, 2 * cfg.hidden
        per_example = []
        for ex in examples:
            n, m = len(ex.passage_tokens), len(ex.question_tokens)
            shapes = ((n, width), (m, width), (m, d2), (n, d2), (m, d2), (n, model.final_width))
            per_example.append([ref_rng.random(shape) for shape in shapes])
        want = [np.concatenate(site) for site in zip(*per_example)]
        assert len(got) == 6
        for draw, ref in zip(got, want):
            assert draw.shape == ref.shape and draw.tobytes() == ref.tobytes()
            assert np.array_equal(draw >= cfg.dropout, ref >= cfg.dropout)
        assert rng.random() == ref_rng.random()  # the generator is left where it was

    def test_each_draw_is_released_once_its_mask_is_applied(self, monkeypatch):
        cfg = small_config()
        examples = tiny_examples()
        model = build_from_examples(cfg, examples)
        refs, live, dropout = [], [], T.dropout

        def recording(a, rate, draw):
            live.append(sum(ref() is not None for ref in refs))  # earlier draws still held
            refs.append(weakref.ref(draw))
            return dropout(a, rate, draw)

        monkeypatch.setattr(T, "dropout", recording)
        gold_loss(model, examples, rng=np.random.default_rng(5))
        assert live == [0] * 6

    def test_traces_are_released_before_the_pointer_runs(self, monkeypatch):
        # the loss reads no alignment, so none is alive where the forward pass peaks
        examples = generate_synthetic(SyntheticSpec(n_examples=4, vocab_size=50,
                                                    min_len=20, max_len=30, seed=0))
        model = build_from_examples(desk_config(), examples)
        live, predict_span = [], model.pointer.predict_span

        def alignments():
            return sum(isinstance(obj, AlignmentMatrix) for obj in gc.get_objects())

        def spying(*args):
            live.append(alignments() - before)
            return predict_span(*args)

        monkeypatch.setattr(model.pointer, "predict_span", spying)
        gc.collect()
        before = alignments()
        gold_loss(model, examples, rng=np.random.default_rng(0))
        assert live == [0]

    def test_span_respects_constraints(self):
        cfg = small_config(max_span=2)
        examples = tiny_examples()
        model = build_from_examples(cfg, examples)
        for ex in examples:
            span = forward(model, ex).span
            n = len(ex.passage_tokens)
            assert 0 <= span.start <= span.end < n
            assert span.end - span.start < 2

    def test_iterative_path_forward(self):
        cfg = small_config(path=ITERATIVE_ALIGNER_PATH)
        examples = tiny_examples()
        model = build_from_examples(cfg, examples)
        result = forward(model, examples[0])
        kinds = [(a.kind, a.layer_index) for a in result.trace]
        assert kinds == [("qp", 1), ("self", 1), ("qp", 2), ("self", 2)]

    @pytest.mark.parametrize("path", [DEFAULT_PATH, ITERATIVE_ALIGNER_PATH, "LQ->LQ->Fo->LQ"])
    def test_batch_matches_one_example_at_a_time(self, path):
        cfg = small_config(path=path, max_span=3)
        examples = generate_synthetic(SyntheticSpec(n_examples=4, vocab_size=20,
                                                    min_len=8, max_len=16, seed=3))
        assert len({len(ex.passage_tokens) for ex in examples}) >= 3
        model = build_from_examples(cfg, examples)
        batch = forward_batch(model, examples)
        assert len(batch) == len(examples)
        for ex, result in zip(examples, batch):
            alone = forward(model, ex)
            pairs = [(result.start_dist, alone.start_dist), (result.end_dist, alone.end_dist)]
            pairs += [(a.weights, b.weights) for a, b in zip(result.trace, alone.trace)]
            assert len(result.trace) == len(alone.trace)
            for got, want in pairs:
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-12
            assert (result.span.start, result.span.end) == (alone.span.start, alone.span.end)


class TestRunPath:
    """The phase path on its own, fed packed rows as `forward_batch` feeds it."""

    @staticmethod
    def path_model(path):
        return build_from_examples(small_config(path=path), tiny_examples())

    @staticmethod
    def inputs(seed, n, m, width=6):
        rng = np.random.default_rng(seed)
        return [Tensor(rng.standard_normal(shape)) for shape in ((n, width), (m, width), (m, width))]

    def test_single_lq_is_one_qp_attention(self):
        h0, u, v = self.inputs(2, 4, 3)
        h, [trace] = run_path(self.path_model("LQ"), h0, u, v, [4], [3])
        assert np.array_equal(h.data, qp_attention(h0, u, v, [4], [3], 1)[0].data)
        assert [(a.kind, a.layer_index) for a in trace] == [("qp", 1)]

    def test_second_lq_aligns_first_lq_output(self):
        h0, u, v = self.inputs(3, 4, 3)
        _, [trace] = run_path(self.path_model("LQ->LQ"), h0, u, v, [4], [3])
        first, _ = qp_attention(h0, u, v, [4], [3], 1)
        _, [second] = qp_attention(first, u, v, [4], [3], 2)
        assert np.array_equal(trace[1].weights, second.weights)
        assert [a.layer_index for a in trace] == [1, 2]

    def test_single_question_word_collapses_every_lq_to_v(self):
        h0, u, v = self.inputs(5, 5, 1)
        h, [trace] = run_path(self.path_model("LQ->LQ->LQ"), h0, u, v, [5], [1])
        assert len(trace) == 3
        for align in trace:
            assert np.array_equal(align.weights, np.ones((5, 1)))
            assert np.array_equal(align.weights @ v.data, np.repeat(v.data, 5, axis=0))
        assert np.array_equal(h.data, np.repeat(v.data, 5, axis=0))

    def test_fo_concatenates_the_inner_fusion_outputs(self):
        h0, u, v = self.inputs(7, 4, 3)
        model = self.path_model("LQ->Fi->LQ->Fi->Fo")
        h, _ = run_path(model, h0, u, v, [4], [3])
        _, fi1, _, fi2, fo = model.plan
        assert fo.block == (1, 3)
        f1 = fi1.fusion(b_new=qp_attention(h0, u, v, [4], [3], 1)[0], b_prev=h0)
        f2 = fi2.fusion(b_new=qp_attention(f1, u, v, [4], [3], 2)[0], b_prev=f1)
        assert np.array_equal(h.data, fo.fusion(T.concat([f1, f2], axis=1)).data)


# Tokens the property test draws from: words of the build vocabulary,
# words with characters the model has never seen, and punctuation.
KNOWN_WORDS = ["the", "cat", "sat", "on", "mat", "what", "who"]
UNSEEN_WORDS = ["Ωμέγα", "日本", "zzyzx", "naïve"]
PUNCTUATION = ["?", "!", ",", ".", "--", "'"]
WORDS = KNOWN_WORDS + UNSEEN_WORDS + PUNCTUATION
PROPERTY_MAX_SPAN = 3


def hand_built(i, passage, question):
    text = " ".join(passage)
    offsets, pos = [], 0
    for tok in passage:
        offsets.append((pos, pos + len(tok)))
        pos += len(tok) + 1
    return QAExample(id=f"hand-{i}", passage_text=text, passage_tokens=list(passage),
                     passage_offsets=offsets, question_tokens=list(question),
                     gold_spans=[(0, 0)], answer_texts=list(passage[:1]))


@pytest.fixture(scope="module")
def property_models():
    vocab = [hand_built(0, KNOWN_WORDS, ["what", "sat", "?"])]
    return {path: build_from_examples(small_config(path=path, max_span=PROPERTY_MAX_SPAN), vocab)
            for path in (DEFAULT_PATH, ITERATIVE_ALIGNER_PATH)}


passages = st.lists(st.sampled_from(WORDS), min_size=1, max_size=8)
questions = st.one_of(st.lists(st.sampled_from(PUNCTUATION), min_size=1, max_size=3),
                      st.lists(st.sampled_from(WORDS), min_size=1, max_size=5))
batches = st.lists(st.tuples(passages, questions), min_size=1, max_size=4)


@settings(max_examples=30, deadline=None)
@given(path=st.sampled_from([DEFAULT_PATH, ITERATIVE_ALIGNER_PATH]), batch=batches)
@example(path=DEFAULT_PATH, batch=[(["cat"], ["?"]), (["日本", "Ωμέγα"], ["what", "!"])])
@example(path=ITERATIVE_ALIGNER_PATH, batch=[(["naïve"], ["?", "!"])])
def test_forward_properties_on_hand_built_batches(property_models, path, batch):
    model = property_models[path]
    examples = [hand_built(i, p, q) for i, (p, q) in enumerate(batch)]
    results = forward_batch(model, examples)
    assert len(results) == len(examples)
    for ex, result in zip(examples, results):
        n = len(ex.passage_tokens)
        for align in result.trace:
            assert np.all(np.abs(align.weights.sum(axis=1) - 1.0) <= 1e-9)
        span = result.span
        assert 0 <= span.start <= span.end < n
        assert span.end - span.start < PROPERTY_MAX_SPAN
        alone = forward(model, ex)
        pairs = [(result.start_dist, alone.start_dist), (result.end_dist, alone.end_dist)]
        pairs += [(a.weights, b.weights) for a, b in zip(result.trace, alone.trace)]
        assert len(result.trace) == len(alone.trace)
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("passage,question", [([], ["what"]), (["cat"], [])])
def test_empty_passage_or_question_raises_typed_error(property_models, passage, question):
    with pytest.raises(PhaseCondError, match="empty"):
        forward(property_models[DEFAULT_PATH], hand_built(0, passage, question))


def test_desk_preset_matches_the_benchmark_copy():
    path = os.path.join(os.path.dirname(__file__), "..", "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.desk_config() == desk_config()


# Tape nodes per example in one desk training batch (3.8): the graph ran at
# 69.7 when features and the pointer tail still ran once per example, and at
# 25.8 when the LQ/LS layers still did.
DESK_NODE_BUDGET = 4


def test_desk_batch_tape_stays_within_node_budget():
    examples = generate_synthetic(SyntheticSpec(n_examples=32, vocab_size=50,
                                                min_len=20, max_len=30, seed=0))
    model = build_from_examples(desk_config(), examples)
    loss = gold_loss(model, examples, rng=np.random.default_rng(0))
    ops, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in ops and node._backward is not None:
            ops.add(id(node))
            stack.extend(node._parents)
    assert len(ops) / len(examples) <= DESK_NODE_BUDGET


# Every parameter through the loss the trainer optimizes: a central difference of
# `gold_loss` along a random direction per parameter against the gradient that
# backward() and apply_grad_masks leave. Dropout is on, from one fixed rng per
# evaluation; the direction leaves out the rows the optimizer may not move. The
# error is relative as grad_check's: |analytic - numeric| / max(1, |analytic|, |numeric|).
PROJECTING_PATH = "LQ->LQ->Fo->LQ->LS->Fi"  # its second LQ block reads the Fo's 4d rows
LOSS_EPS = 1e-5
LOSS_TOLERANCE = 1e-4


def loss_batch(tmp_path, path):
    """(model, examples): three ragged desk-style examples and a 1-token passage,
    with the vectors of two batch words frozen."""
    examples = tiny_examples(n=3) + [hand_built(3, ["tok05"], ["tok05", "tok09", "?"])]
    frozen = examples[0].passage_tokens[:2]
    vectors = tmp_path / "vectors.txt"
    vectors.write_text("".join(f"{w} {' '.join(['0.1'] * 6)}\n" for w in frozen))
    model = build_from_examples(small_config(hidden=2, dropout=0.3, path=path,
                                             vectors=str(vectors)), examples)
    return model, examples


def trainable_rows(model, name):
    """1 where the optimizer may move the parameter, 0 on frozen rows."""
    t = model.params[name].data
    keep = np.ones(t.shape[:1] + (1,) * (t.ndim - 1))
    if name == "feat.word_emb":
        keep[:, 0] = model.vocab.word_trainable
    elif name == "feat.char.char_emb":
        keep[PAD_INDEX] = 0.0
    return keep


def loss_value(model, examples):
    with model.params.frozen():
        return float(gold_loss(model, examples, rng=np.random.default_rng(3)).data)


def directional_difference(model, examples, name, direction):
    t = model.params[name]
    start = t.data.copy()
    t.data = start + LOSS_EPS * direction
    up = loss_value(model, examples)
    t.data = start - LOSS_EPS * direction
    down = loss_value(model, examples)
    t.data = start
    return (up - down) / (2.0 * LOSS_EPS)


def relative_error(analytic, numeric):
    return abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))


def masked_gradients(model, examples):
    model.params.zero_grads()
    T.backward(gold_loss(model, examples, rng=np.random.default_rng(3)))
    model.params.apply_grad_masks()
    return {name: np.zeros_like(t.data) if t.grad is None else t.grad
            for name, t in model.params.items()}


@pytest.mark.parametrize("path", [DEFAULT_PATH, ITERATIVE_ALIGNER_PATH, PROJECTING_PATH])
def test_gold_loss_gradient_of_every_parameter(tmp_path, path):
    model, examples = loss_batch(tmp_path, path)
    assert ("path.s4.lq_proj" in model.params.names()) is (path == PROJECTING_PATH)
    grads = masked_gradients(model, examples)
    rng = np.random.default_rng(0)
    for name, t in model.params.items():
        direction = rng.standard_normal(t.data.shape) * trainable_rows(model, name)
        analytic = float(np.vdot(grads[name], direction))
        numeric = directional_difference(model, examples, name, direction)
        assert relative_error(analytic, numeric) < LOSS_TOLERANCE, (name, analytic, numeric)
    # the frozen word rows carry a gradient that apply_grad_masks removes
    frozen = 1.0 - trainable_rows(model, "feat.word_emb")
    assert np.all(grads["feat.word_emb"][frozen[:, 0] == 1.0] == 0.0)
    direction = rng.standard_normal(model.params["feat.word_emb"].data.shape) * frozen
    assert abs(directional_difference(model, examples, "feat.word_emb", direction)) > 1e-6


def test_gold_loss_gradient_entry_by_entry(tmp_path):
    model, examples = loss_batch(tmp_path, PROJECTING_PATH)
    name = "path.s4.lq_proj"
    grad = masked_gradients(model, examples)[name]
    for index in np.ndindex(grad.shape):
        direction = np.zeros_like(grad)
        direction[index] = 1.0
        numeric = directional_difference(model, examples, name, direction)
        assert relative_error(grad[index], numeric) < LOSS_TOLERANCE, index
