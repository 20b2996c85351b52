import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from phasecond import tensor as T
from phasecond.config import RunConfig
from phasecond.errors import DataError, DataFormatError
from phasecond.features import (
    FeatureExtractor,
    build_vocabulary,
    exact_match_features,
    question_type,
    read_vectors,
)
from phasecond.params import ParamSet
from phasecond.tensor import Tensor, backward, grad_check


def small_cfg(**over):
    base = dict(word_dim=6, char_dim=4, char_filters=5, char_width=5,
                feat_dim=3, use_qtype=False)
    base.update(over)
    return RunConfig(**base)


def passages(*token_lists):
    """Examples that carry only tokens, as build_vocabulary reads them."""
    return [SimpleNamespace(passage_tokens=list(toks), question_tokens=[], passage_pos=None,
                            question_pos=None, passage_ner=None, question_ner=None)
            for toks in token_lists]


def make_extractor(tokens, cfg=None, seed=0, **tag_vocabs):
    cfg = cfg or small_cfg()
    rng = np.random.default_rng(seed)
    vocab, rows = build_vocabulary(cfg, passages(tokens), rng)
    params = ParamSet(rng, {"feat.word_emb": rows})
    ext = FeatureExtractor(params, dataclasses.replace(vocab, **tag_vocabs), cfg)
    return ext, params


class TestPretrainedVectors:
    def test_direct_read(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("hello 1 2 3\n\nworld 4 5 6\n")
        vectors = read_vectors(path, 3)
        assert list(vectors) == ["hello", "world"]
        assert vectors["hello"].tolist() == [1.0, 2.0, 3.0]
        assert vectors["world"].tolist() == [4.0, 5.0, 6.0]

    def test_missing_corpus_token_gets_random_trainable_row(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("hello 1 2 3\n")
        cfg = small_cfg(word_dim=3, vectors=str(path))
        vocab, rows = build_vocabulary(cfg, passages(["Hello", "zzz"]),
                                       np.random.default_rng(1))
        assert vocab.word_tokens == ["<pad>", "<unk>", "Hello", "zzz"]
        assert rows[2].tolist() == [1.0, 2.0, 3.0]  # found lowercased
        assert np.all(np.abs(rows[3]) <= 0.05)
        assert vocab.word_trainable == [0, 1, 0, 1]
        trainable = dataclasses.replace(cfg, freeze_pretrained=False)
        assert build_vocabulary(trainable, passages(["Hello", "zzz"]),
                                np.random.default_rng(1))[0].word_trainable == [0, 1, 1, 1]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("ok 1 2 3\nbad 1 two 3\n")
        with pytest.raises(DataFormatError, match=":2:"):
            read_vectors(path, 3)

    @pytest.mark.parametrize("component", ["nan", "inf", "-inf"])
    def test_non_finite_component_reports_line_number(self, tmp_path, component):
        path = tmp_path / "vecs.txt"
        path.write_text(f"ok 1 2 3\nbad 1 {component} 3\n")
        with pytest.raises(DataFormatError, match=r"vecs\.txt:2: non-finite"):
            read_vectors(path, 3)

    def test_dim_mismatch(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("short 1 2\n")
        with pytest.raises(DataFormatError, match="expected 3 components"):
            read_vectors(path, 3)

    def test_empty_file_warns(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("")
        with pytest.warns(UserWarning, match="empty"):
            assert read_vectors(path, 3) == {}


class TestBuildVocabulary:
    def test_rows_are_one_draw_without_vectors(self):
        cfg = small_cfg()
        vocab, rows = build_vocabulary(cfg, passages(["b", "a", "b"], ["c", "a"]),
                                       np.random.default_rng(3))
        assert vocab.word_tokens == ["<pad>", "<unk>", "b", "a", "c"]
        assert vocab.word_trainable == [0, 1, 1, 1, 1]
        assert np.all(rows[0] == 0.0)
        draw = np.random.default_rng(3).uniform(-0.05, 0.05, (4, cfg.word_dim))
        assert rows[1:].tobytes() == draw.tobytes()

    def test_only_misses_draw_with_vectors(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1 2 3\nc 4 5 6\n")
        cfg = small_cfg(word_dim=3, vectors=str(path))
        vocab, rows = build_vocabulary(cfg, passages(["b", "a", "d", "c"]),
                                       np.random.default_rng(4))
        assert vocab.word_tokens == ["<pad>", "<unk>", "b", "a", "d", "c"]
        draw = np.random.default_rng(4).uniform(-0.05, 0.05, (3, 3))  # unk, b, d
        assert rows[[1, 2, 4]].tobytes() == draw.tobytes()
        assert rows[[3, 5]].tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]

    def test_corpus_pad_and_unk_tokens_are_not_repeated(self, tmp_path):
        path = tmp_path / "vecs.txt"
        path.write_text("a 1 2 3\n")
        for cfg in (small_cfg(word_dim=3), small_cfg(word_dim=3, vectors=str(path))):
            vocab, rows = build_vocabulary(cfg, passages(["<unk>", "a", "<pad>"]),
                                           np.random.default_rng(5))
            assert vocab.word_tokens == ["<pad>", "<unk>", "a"]
            assert rows.shape == (3, 3)

    def test_char_and_tag_vocabularies(self):
        ex = SimpleNamespace(passage_tokens=["ab", "ba"], question_tokens=["c"],
                             passage_pos=["NN", "VB"], question_pos=None,
                             passage_ner=None, question_ner=["O"])
        vocab, _ = build_vocabulary(small_cfg(use_pos=True), [ex], np.random.default_rng(0))
        assert vocab.char_vocab == {"a": 2, "b": 3, "c": 4}
        assert vocab.pos_vocab == {"NN": 1, "VB": 2}
        assert vocab.ner_vocab == {}  # use_ner is off


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
        ext, _ = make_extractor(["a", "b", "c"], cfg=cfg, seed=6)
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
        ext, _ = make_extractor(["dog", "ran"], cfg=cfg, seed=8, pos_vocab={"NN": 1, "VB": 2})
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
        ext, _ = make_extractor(["dog", "ran"], cfg=cfg, seed=8, pos_vocab={"NN": 1, "VB": 2})
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
