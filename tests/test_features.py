import numpy as np
import pytest

from phasecond import tensor as T
from phasecond.config import RunConfig
from phasecond.errors import DataError, DataFormatError
from phasecond.features import (
    FeatureExtractor,
    build_char_vocab,
    build_vocab_embedding,
    exact_match_features,
    extend_with_tokens,
    load_pretrained_vectors,
    question_type,
)
from phasecond.params import ParamSet
from phasecond.tensor import Tensor, backward, grad_check


def small_cfg(**over):
    base = dict(word_dim=6, char_dim=4, char_filters=5, char_width=5,
                feat_dim=3, use_qtype=False)
    base.update(over)
    return RunConfig(**base)


def make_extractor(tokens, cfg=None, seed=0):
    cfg = cfg or small_cfg()
    rng = np.random.default_rng(seed)
    spec = build_vocab_embedding(tokens, cfg.word_dim, rng)
    params = ParamSet()
    ext = FeatureExtractor(params, spec, build_char_vocab(tokens), cfg, rng)
    return ext, params


class TestPretrainedVectors:
    def test_direct_read(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("hello 1 2 3\nworld 4 5 6\n")
        spec, coverage = load_pretrained_vectors(path, 3, np.random.default_rng(0))
        assert spec.tokens == ["<pad>", "<unk>", "hello", "world"]
        assert spec.matrix[2].tolist() == [1.0, 2.0, 3.0]
        assert spec.matrix[3].tolist() == [4.0, 5.0, 6.0]
        assert not spec.trainable[2] and not spec.trainable[3]
        assert coverage == 1.0

    def test_missing_corpus_token_gets_random_trainable_row(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("hello 1 2 3\n")
        spec, coverage = load_pretrained_vectors(
            path, 3, np.random.default_rng(1), corpus_tokens=["hello", "zzz"])
        assert coverage == 0.5
        zzz = spec.matrix[spec.index_of("zzz")]
        assert np.all(np.abs(zzz) <= 0.05)
        assert spec.trainable[spec.index_of("zzz")]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("ok 1 2 3\nbad 1 two 3\n")
        with pytest.raises(DataFormatError, match=":2:"):
            load_pretrained_vectors(path, 3, np.random.default_rng(2))

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
    def test_non_finite_component_reports_line_number(self, tmp_path, component):
        path = tmp_path / "vecs.txt"
        path.write_text(f"ok 1 2 3\nbad 1 {component} 3\n")
        with pytest.raises(DataFormatError, match=r"vecs\.txt:2: non-finite"):
            load_pretrained_vectors(path, 3, np.random.default_rng(2))

    def test_dim_mismatch(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("short 1 2\n")
        with pytest.raises(DataFormatError, match="expected 3 components"):
            load_pretrained_vectors(path, 3, np.random.default_rng(3))

    def test_empty_file_warns(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("")
        with pytest.warns(UserWarning, match="empty"):
            spec, _ = load_pretrained_vectors(path, 3, np.random.default_rng(4))
        assert spec.tokens == ["<pad>", "<unk>"]

    def test_extend_coverage(self):
        rng = np.random.default_rng(5)
        spec = build_vocab_embedding(["a", "b"], 4, rng)
        coverage = extend_with_tokens(spec, ["a", "c", "c"], rng)
        assert coverage == pytest.approx(1 / 3)
        assert "c" in spec.tokens


class TestExactMatch:
    def test_membership(self):
        p_bits, _ = exact_match_features(["Denver", "won"], ["Who", "won", "?"])
        assert p_bits.tolist() == [0.0, 1.0]

    def test_disjoint(self):
        p_bits, q_bits = exact_match_features(["a", "b"], ["c", "d"])
        assert p_bits.tolist() == [0.0, 0.0]
        assert q_bits.tolist() == [0.0, 0.0]

    def test_cross_side_only(self):
        # a question word repeated inside the question gains nothing
        _, q_bits = exact_match_features(["x"], ["who", "who"])
        assert q_bits.tolist() == [0.0, 0.0]

    def test_symmetric_definition(self):
        p_tokens, q_tokens = ["Denver", "The", "cat"], ["the", "dog"]
        p_bits, q_bits = exact_match_features(p_tokens, q_tokens)
        q_set = {t.lower() for t in q_tokens}
        p_set = {t.lower() for t in p_tokens}
        assert p_bits.tolist() == [1.0 if t.lower() in q_set else 0.0 for t in p_tokens]
        assert q_bits.tolist() == [1.0 if t.lower() in p_set else 0.0 for t in q_tokens]


class TestQuestionType:
    @pytest.mark.parametrize("tokens,expected", [
        (["What", "is", "love"], "what"),
        (["In", "which", "year"], "which"),
        (["Is", "this", "real"], "be"),
        (["Name", "the", "city"], "other"),
    ])
    def test_rule(self, tokens, expected):
        assert question_type(tokens) == expected


class TestEmbedSequence:
    def test_width_word_char_em(self):
        cfg = RunConfig(word_dim=100, char_dim=4, char_filters=100, use_qtype=False)
        rng = np.random.default_rng(6)
        spec = build_vocab_embedding(["a", "b", "c"], 100, rng)
        params = ParamSet()
        ext = FeatureExtractor(params, spec, build_char_vocab(["a", "b", "c"]), cfg, rng)
        out = ext.embed_sequence([["a", "b", "c"]], side="passage")
        assert out.data.shape == (3, 201)

    def test_empty_sequence(self):
        ext, _ = make_extractor(["x"])
        out = ext.embed_sequence([[]], side="passage")
        assert out.data.shape == (0, ext.width)

    def test_eval_mode_deterministic(self):
        ext, _ = make_extractor(["alpha", "beta"])
        a = ext.embed_sequence([["alpha", "beta"]], side="passage")
        b = ext.embed_sequence([["alpha", "beta"]], side="passage")
        assert np.array_equal(a.data, b.data)

    def test_qtype_slot_zero_on_passage(self):
        cfg = small_cfg(use_qtype=True)
        ext, _ = make_extractor(["what", "city"], cfg=cfg)
        p = ext.embed_sequence([["city"]], side="passage")
        q = ext.embed_sequence([["what", "city"]], side="question")
        assert np.all(p.data[:, -cfg.feat_dim:] == 0.0)
        assert np.any(q.data[:, -cfg.feat_dim:] != 0.0)
        # same type embedding row attached to every question token
        assert np.array_equal(q.data[0, -cfg.feat_dim:], q.data[1, -cfg.feat_dim:])

    def test_pos_tags_checked_and_embedded(self):
        cfg = small_cfg(use_pos=True)
        rng = np.random.default_rng(8)
        spec = build_vocab_embedding(["dog", "ran"], cfg.word_dim, rng)
        params = ParamSet()
        ext = FeatureExtractor(params, spec, build_char_vocab(["dog", "ran"]), cfg, rng,
                               pos_vocab={"NN": 1, "VB": 2})
        out = ext.embed_sequence([["dog", "ran"]], side="passage", pos=[["NN", "VB"]])
        assert out.data.shape == (2, ext.width)
        with pytest.raises(DataError):
            ext.embed_sequence([["dog", "ran"]], side="passage", pos=[["NN"]])

    def test_packed_batch_matches_one_sequence_at_a_time(self):
        cfg = small_cfg(use_qtype=True)
        seqs = [["what", "city", "is", "it"], ["Who", "ran"], ["city", "city", "unseen"]]
        ext, params = make_extractor([t for s in seqs for t in s], cfg=cfg)
        bits = [np.arange(len(s)) % 2.0 for s in seqs]
        packed = ext.embed_sequence(seqs, side="question", em_bits=bits)
        alone = [ext.embed_sequence([s], side="question", em_bits=[b])
                 for s, b in zip(seqs, bits)]
        # equal up to the char CNN's padding to the batch's longest word
        assert np.abs(packed.data - np.concatenate([a.data for a in alone])).max() <= 1e-12

    def test_char_cnn_runs_once_per_distinct_word(self):
        ext, _ = make_extractor(["a", "bb", "c"])
        calls = []
        char = ext.char
        ext.char = lambda words: calls.append(list(words)) or char(words)
        out = ext.embed_sequence([["a", "bb", "a"], ["bb", "c", "a"]], side="passage")
        assert calls == [["a", "bb", "c"]]
        rows = out.data[:, ext.config.word_dim:ext.config.word_dim + ext.config.char_filters]
        assert np.array_equal(rows[0], rows[2]) and np.array_equal(rows[0], rows[5])

    def test_sequence_without_tags_gets_zero_rows(self):
        cfg = small_cfg(use_pos=True)
        rng = np.random.default_rng(8)
        spec = build_vocab_embedding(["dog", "ran"], cfg.word_dim, rng)
        ext = FeatureExtractor(ParamSet(), spec, build_char_vocab(["dog", "ran"]), cfg, rng,
                               pos_vocab={"NN": 1, "VB": 2})
        out = ext.embed_sequence([["dog"], ["ran", "dog"]], side="passage",
                                 pos=[None, ["VB", "NN"]])
        tags = out.data[:, -cfg.feat_dim:]
        assert np.all(tags[0] == 0.0) and np.any(tags[1:] != 0.0)

    def test_exact_match_bit_lands_in_column(self):
        ext, _ = make_extractor(["a", "b"])
        cfg = ext.config
        out = ext.embed_sequence([["a", "b"]], side="passage", em_bits=[np.array([1.0, 0.0])])
        col = cfg.word_dim + cfg.char_filters
        assert out.data[:, col].tolist() == [1.0, 0.0]


class TestCharCNN:
    def test_output_dim_independent_of_word_length(self):
        ext, _ = make_extractor(["a", "extraordinarily"])
        out = ext.char(["a", "extraordinarily"])
        assert out.data.shape == (2, ext.config.char_filters)

    def test_identical_words_identical_outputs(self):
        ext, _ = make_extractor(["hello", "hello", "x"])
        out = ext.char(["hello", "x", "hello"]).data
        assert np.array_equal(out[0], out[2])
        # and independent of what else is in the batch
        alone = ext.char(["hello"]).data
        assert np.array_equal(out[0], alone[0])

    def test_reversal_changes_output(self):
        ext, _ = make_extractor(["stressed", "desserts"])
        out = ext.char(["stressed", "desserts"]).data
        assert not np.allclose(out[0], out[1])

    def test_pad_row_stays_zero_and_masked(self):
        ext, params = make_extractor(["ab"])
        out = ext.char(["ab"])
        backward(T.tsum(out))
        params.apply_grad_masks()
        emb = params["feat.char.char_emb"]
        assert np.all(emb.grad[0] == 0.0)
        assert np.all(emb.data[0] == 0.0)

    def test_gradients_match_finite_differences(self):
        ext, params = make_extractor(["abc", "de"], seed=9)
        mixer = Tensor(np.random.default_rng(10).standard_normal((2, ext.config.char_filters)))
        for pname in ("feat.char.filters", "feat.char.bias", "feat.char.char_emb"):
            err = grad_check(lambda _p: T.tsum(T.mul(ext.char(["abc", "de"]), mixer)),
                             params[pname])
            assert err < 1e-4, pname


def test_word_pad_row_receives_zero_gradient():
    ext, params = make_extractor(["tok"])
    out = ext.embed_sequence([["tok", "tok"]], side="passage")
    backward(T.tsum(out))
    params.apply_grad_masks()
    assert np.all(params["feat.word_emb"].grad[0] == 0.0)
    assert np.all(params["feat.word_emb"].data[0] == 0.0)
