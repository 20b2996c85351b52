import dataclasses
import hashlib
import json
import logging

import numpy as np
import pytest

from phasecond.data import (
    QAExample,
    SyntheticSpec,
    evaluate,
    exact_match_score,
    f1_score,
    generate_synthetic,
    load_jsonl,
    load_squad,
    normalize_answer,
    tokenize_with_offsets,
    write_jsonl,
)
from phasecond.errors import ConfigError, DataError, DataFormatError
from phasecond.features import exact_match_features

SQUAD_DOC = {
    "version": "1.1",
    "data": [{
        "title": "Super_Bowl_50",
        "paragraphs": [{
            "context": ("The American Football Conference (AFC) champion "
                        "Denver Broncos defeated the National Football "
                        "Conference (NFC) champion Carolina Panthers 24-10."),
            "qas": [
                {"id": "q1",
                 "question": "Which NFL team represented the AFC at Super Bowl 50?",
                 "answers": [{"text": "Denver Broncos",
                              "answer_start": 48}]},
                {"id": "q2",
                 "question": "Who did they defeat?",
                 "answers": [{"text": "Carolina Panthers",
                              "answer_start": 120}]},
            ],
        }],
    }],
}


def write_squad(tmp_path, doc=SQUAD_DOC):
    path = tmp_path / "squad.json"
    path.write_text(json.dumps(doc))
    return path


class TestTokenizer:
    def test_punctuation_detached(self):
        tokens, _ = tokenize_with_offsets("Broncos defeated, 24-10.")
        assert tokens == ["Broncos", "defeated", ",", "24", "-", "10", "."]

    def test_offsets_reconstruct_text(self):
        text = "The champion Denver Broncos (AFC) won 24-10!"
        tokens, offsets = tokenize_with_offsets(text)
        for tok, (s, e) in zip(tokens, offsets):
            assert text[s:e] == tok


class TestLoadSquad:
    def test_answer_maps_to_exact_token_span(self, tmp_path, caplog):
        caplog.set_level(logging.INFO)
        examples = load_squad(write_squad(tmp_path))
        ex = examples[0]
        s, e = ex.gold_spans[0]
        assert ex.passage_tokens[s:e + 1] == ["Denver", "Broncos"]
        assert ex.span_text(s, e) == "Denver Broncos"
        assert "expanded to token boundaries" not in caplog.text  # logged only when a count is > 0

    def test_mid_token_offset_expands_and_flags(self, tmp_path, caplog):
        caplog.set_level(logging.INFO)
        doc = json.loads(json.dumps(SQUAD_DOC))
        ans = doc["data"][0]["paragraphs"][0]["qas"][0]["answers"][0]
        ans["text"] = "enver Broncos"
        ans["answer_start"] = 49
        examples = load_squad(write_squad(tmp_path, doc))
        ex = examples[0]
        s, e = ex.gold_spans[0]
        assert ex.passage_tokens[s:e + 1] == ["Denver", "Broncos"]
        assert "0 answers unmappable, 1 expanded to token boundaries" in caplog.text

    def test_answer_not_at_its_offset_is_dropped(self, tmp_path, caplog):
        caplog.set_level(logging.INFO)
        doc = {"data": [{"paragraphs": [{"context": "alpha beta gamma", "qas": [
            {"id": "wrong-text", "question": "which ?",
             "answers": [{"text": "zzzz", "answer_start": 6}, {"text": "beta", "answer_start": 6}]},
            {"id": "negative-start", "question": "which ?",
             "answers": [{"text": "al", "answer_start": -1}]},
        ]}]}]}
        path = write_squad(tmp_path, doc)
        kept = load_squad(path)
        assert [(ex.gold_spans, ex.answer_texts) for ex in kept] == [([(1, 1)], ["beta"]), ([], [])]
        assert "2 answers unmappable, 0 expanded to token boundaries, 0 examples skipped" \
            in caplog.text
        assert [ex.id for ex in load_squad(path, training=True)] == ["wrong-text"]

    def test_empty_answers_mode_dependent(self, tmp_path):
        doc = json.loads(json.dumps(SQUAD_DOC))
        doc["data"][0]["paragraphs"][0]["qas"][0]["answers"] = []
        path = write_squad(tmp_path, doc)
        kept = load_squad(path, training=False)
        assert kept[0].gold_spans == []
        with pytest.raises(DataFormatError):
            load_squad(path, training=True)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{this is not json")
        with pytest.raises(DataFormatError, match="not valid JSON"):
            load_squad(path)

    def test_missing_field_names_path(self, tmp_path):
        doc = {"data": [{"paragraphs": [{"context": "abc", "qas": [{"id": "x"}]}]}]}
        path = write_squad(tmp_path, doc)
        with pytest.raises(DataFormatError, match=r"data\[0\].paragraphs\[0\].qas\[0\]"):
            load_squad(path)

    @pytest.mark.parametrize("field,value,where", [
        ("answer_start", "48", r"qas\[0\].answers\[0\]: field 'answer_start' is str"),
        ("answer_start", True, r"qas\[0\].answers\[0\]: field 'answer_start' is bool"),
        ("text", 5, r"qas\[0\].answers\[0\]: field 'text' is int"),
        ("question", ["Who"], r"qas\[0\]: field 'question' is list"),
        ("context", None, r"paragraphs\[0\]: field 'context' is NoneType"),
    ])
    def test_mistyped_field_names_file_and_path(self, tmp_path, field, value, where):
        doc = json.loads(json.dumps(SQUAD_DOC))
        para = doc["data"][0]["paragraphs"][0]
        owner = {"context": para, "question": para["qas"][0]}.get(field,
                                                                   para["qas"][0]["answers"][0])
        owner[field] = value
        with pytest.raises(DataFormatError, match=r"squad\.json: data\[0\]\..*" + where):
            load_squad(write_squad(tmp_path, doc))

    @pytest.mark.parametrize("field,value,where", [
        ("data", {}, r"squad\.json: field 'data' is dict, expected list"),
        ("paragraphs", "p", r"data\[0\]: field 'paragraphs' is str, expected list"),
        ("qas", None, r"paragraphs\[0\]: field 'qas' is NoneType, expected list"),
        ("answers", 5, r"qas\[0\]: field 'answers' is int, expected list"),
        ("id", 7, r"qas\[0\]: field 'id' is int, expected str"),
    ], ids=["data", "paragraphs", "qas", "answers", "id"])
    def test_mistyped_list_or_id_names_file_and_path(self, tmp_path, field, value, where):
        doc = json.loads(json.dumps(SQUAD_DOC))
        article = doc["data"][0]
        para = article["paragraphs"][0]
        owner = {"data": doc, "paragraphs": article, "qas": para}.get(field, para["qas"][0])
        owner[field] = value
        with pytest.raises(DataFormatError, match=where):
            load_squad(write_squad(tmp_path, doc))

    @pytest.mark.parametrize("part", ["context", "question"])
    def test_whitespace_only_context_or_question_names_file_and_path(self, tmp_path, part):
        doc = json.loads(json.dumps(SQUAD_DOC))
        para = doc["data"][0]["paragraphs"][0]
        (para if part == "context" else para["qas"][1])[part] = " \n\t "
        with pytest.raises(DataFormatError, match=r"squad\.json: data\[0\]\.paragraphs\[0\]"
                                                  rf"\.qas\[{0 if part == 'context' else 1}\]: "
                                                  rf"the {part} has no tokens"):
            load_squad(write_squad(tmp_path, doc))

    def test_repeated_id_names_file_and_path(self, tmp_path):
        # predictions are keyed by id, so a second "q1" would take the first one's answer
        doc = json.loads(json.dumps(SQUAD_DOC))
        doc["data"][0]["paragraphs"][0]["qas"][1]["id"] = "q1"
        with pytest.raises(DataFormatError,
                           match=r"squad\.json: data\[0\]\.paragraphs\[0\]\.qas\[1\]: id 'q1'"):
            load_squad(write_squad(tmp_path, doc))


class TestSynthetic:
    def test_deterministic(self, tmp_path):
        spec = SyntheticSpec(n_examples=30, seed=7)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(a, pa)
        write_jsonl(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("n,seed,digest", [
        (200, 0, "214973e10922ebc210bfa07b5b90890da0dcc97a0f8558de9bf8e9236d584e18"),
        (50, 1, "16481cbdbf1e3f108eb66f32b7b2de6f2225354c740ed9d2420dba7133f912cd"),
    ], ids=["desk-train", "desk-dev"])
    def test_desk_sets_are_pinned(self, tmp_path, n, seed, digest):
        """The desk train and dev sets, byte for byte. The generator draws a
        passage's tokens in one call; a numpy whose generator reads its stream
        differently moves every desk result and fails here first."""
        path = tmp_path / "set.jsonl"
        write_jsonl(generate_synthetic(SyntheticSpec(n_examples=n, vocab_size=50, min_len=20,
                                                     max_len=30, seed=seed)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_spans_in_range_and_valid(self):
        examples = generate_synthetic(SyntheticSpec(n_examples=200, vocab_size=50,
                                                    min_len=20, max_len=30, seed=1))
        assert len(examples) == 200
        for ex in examples:
            assert 20 <= len(ex.passage_tokens) <= 30
            (s, e), = ex.gold_spans
            assert 0 <= s <= e < len(ex.passage_tokens)
            assert ex.answer_texts[0] == " ".join(ex.passage_tokens[s:e + 1])

    def test_exact_match_bit_fires_only_at_key(self):
        for ex in generate_synthetic(SyntheticSpec(n_examples=25, seed=3)):
            bits, _ = exact_match_features(ex.passage_tokens, ex.question_tokens)
            (s, _), = ex.gold_spans
            expected = np.zeros(len(ex.passage_tokens))
            expected[s - 1] = 1.0  # the key token right before the answer
            assert bits.tolist() == expected.tolist()

    def test_answer_tokens_disjoint_from_question(self):
        for ex in generate_synthetic(SyntheticSpec(n_examples=25, seed=4)):
            answer_tokens = set(ex.answer_texts[0].split())
            assert answer_tokens.isdisjoint(set(ex.question_tokens))

    def test_infeasible_spec_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic(SyntheticSpec(n_examples=1, vocab_size=10))
        with pytest.raises(ConfigError):
            generate_synthetic(SyntheticSpec(n_examples=1, min_len=4, max_len=6))

    @pytest.mark.parametrize("field,value,message", [
        ("n_examples", -3, "n_examples must be >= 0, got -3"),
        ("seed", -1, "seed must be >= 0, got -1"),
    ], ids=["n_examples", "seed"])
    def test_unusable_count_seed_or_answer_length_rejected(self, field, value, message):
        spec = dataclasses.replace(SyntheticSpec(n_examples=2), **{field: value})
        with pytest.raises(ConfigError, match=message):
            generate_synthetic(spec)

    def test_jsonl_roundtrip(self, tmp_path):
        examples = generate_synthetic(SyntheticSpec(n_examples=10, seed=5))
        path = tmp_path / "data.jsonl"
        write_jsonl(examples, path)
        loaded = load_jsonl(path)
        assert [ex.id for ex in loaded] == [ex.id for ex in examples]
        for a, b in zip(loaded, examples):
            assert a.passage_tokens == b.passage_tokens
            assert a.gold_spans == b.gold_spans
            assert a.answer_texts == b.answer_texts


class TestLoadJsonl:
    RECORD = {"id": "a", "passage_tokens": ["x", "y", "z"], "question_tokens": ["q", "?"],
              "gold_spans": [[1, 2]], "answer_texts": ["y z"]}

    def write(self, tmp_path, **changes):
        path = tmp_path / "data.jsonl"
        second = {**self.RECORD, "id": "b", **changes}
        path.write_text(json.dumps(self.RECORD) + "\n" + json.dumps(second))
        return path

    def test_well_formed_record_loads(self, tmp_path):
        ex = load_jsonl(self.write(tmp_path))[1]
        assert ex.passage_tokens == ["x", "y", "z"] and ex.gold_spans == [(1, 2)]

    @pytest.mark.parametrize("spans", [[3], [[1]], [[1, 2, 2]], [[True, 2]], [[1.0, 2]], 3])
    def test_gold_span_that_is_not_two_ints_is_refused(self, tmp_path, spans):
        with pytest.raises(DataFormatError, match=r"data\.jsonl:2: 'gold_spans'"):
            load_jsonl(self.write(tmp_path, gold_spans=spans))

    @pytest.mark.parametrize("field,value", [
        ("passage_tokens", "xyz"), ("question_tokens", ["q", 1]), ("answer_texts", "y z"),
        ("passage_pos", [None, "NN", "NN"]),
    ])
    def test_token_field_that_is_not_a_list_of_strings_is_refused(self, tmp_path, field, value):
        with pytest.raises(DataFormatError, match=rf"data\.jsonl:2: field '{field}'"):
            load_jsonl(self.write(tmp_path, **{field: value}))

    @pytest.mark.parametrize("value", [5, None, ["b"]])
    def test_id_that_is_not_a_string_is_refused(self, tmp_path, value):
        # `predict` writes its keys as strings, so an int id would never be scored
        with pytest.raises(DataFormatError, match=r"data\.jsonl:2: field 'id' is"):
            load_jsonl(self.write(tmp_path, id=value))

    @pytest.mark.parametrize("field", ["passage_tokens", "question_tokens"])
    def test_empty_sequence_names_the_line(self, tmp_path, field):
        # the encoders cannot run on an empty sequence, so train() would stop mid-epoch
        with pytest.raises(DataFormatError, match=rf"data\.jsonl:2: field '{field}' is empty"):
            load_jsonl(self.write(tmp_path, **{field: [], "gold_spans": []}))

    @pytest.mark.parametrize("field,value", [
        ("passage_pos", ["DT", "NN"]), ("passage_ner", ["O"] * 4),
        ("question_pos", ["WP"]), ("question_ner", []),
    ])
    def test_tag_list_of_another_length_than_its_tokens_names_the_line(self, tmp_path,
                                                                       field, value):
        # with tags in the training data, the first forward would fail naming no example
        with pytest.raises(DataFormatError,
                           match=rf"data\.jsonl:2: field '{field}' has {len(value)} tags"):
            load_jsonl(self.write(tmp_path, **{field: value}))

    def test_tag_lists_as_long_as_their_tokens_load(self, tmp_path):
        ex = load_jsonl(self.write(tmp_path, passage_pos=["DT", "NN", "NN"],
                                   question_ner=["O", "O"]))[1]
        assert (ex.passage_pos, ex.question_ner) == (["DT", "NN", "NN"], ["O", "O"])

    def test_repeated_id_names_the_line(self, tmp_path):
        with pytest.raises(DataFormatError, match=r"data\.jsonl:2: id 'a' repeats"):
            load_jsonl(self.write(tmp_path, id="a"))


class TestMetrics:
    def test_exact(self):
        assert exact_match_score("Denver Broncos", "Denver Broncos") == 1.0
        assert f1_score("Denver Broncos", "Denver Broncos") == 1.0

    def test_partial_overlap(self):
        assert exact_match_score("Broncos", "Denver Broncos") == 0.0
        assert f1_score("Broncos", "Denver Broncos") == pytest.approx(2 / 3)

    def test_article_removal(self):
        assert exact_match_score("the Denver Broncos", "Denver Broncos") == 1.0

    def test_normalization(self):
        assert normalize_answer("The U.S. Army!") == "us army"

    def test_empty_after_normalization(self):
        assert exact_match_score("a an the", "the") == 1.0
        assert f1_score("a an the", "the") == 1.0
        assert f1_score("", "Denver") == 0.0

    def test_evaluate_aggregates(self):
        examples = [
            QAExample(id="1", passage_text="", passage_tokens=[], passage_offsets=[],
                      question_tokens=[], gold_spans=[], answer_texts=["Denver Broncos"]),
            QAExample(id="2", passage_text="", passage_tokens=[], passage_offsets=[],
                      question_tokens=[], gold_spans=[], answer_texts=["blue", "red"]),
        ]
        result = evaluate({"1": "Broncos", "2": "red"}, examples)
        assert result.em == pytest.approx(50.0)
        assert result.f1 == pytest.approx((2 / 3 * 100 + 100) / 2)
        assert result.per_question[0]["f1"] == pytest.approx(66.67, abs=0.01)

    def test_gold_as_prediction_is_perfect(self):
        examples = generate_synthetic(SyntheticSpec(n_examples=20, seed=6))
        preds = {ex.id: ex.answer_texts[0] for ex in examples}
        result = evaluate(preds, examples)
        assert result.em == 100.0 and result.f1 == 100.0

    def test_em_bounded_by_f1(self):
        rng = np.random.default_rng(7)
        words = ["alpha", "beta", "gamma", "delta", "the", "an"]
        for _ in range(300):
            pred = " ".join(rng.choice(words, size=rng.integers(0, 4)))
            gold = " ".join(rng.choice(words, size=rng.integers(1, 4)))
            assert exact_match_score(pred, gold) <= f1_score(pred, gold) + 1e-12

    def test_missing_prediction(self):
        examples = generate_synthetic(SyntheticSpec(n_examples=2, seed=8))
        preds = {examples[0].id: examples[0].answer_texts[0]}
        result = evaluate(preds, examples)
        assert result.em == pytest.approx(50.0)
        with pytest.raises(DataError):
            evaluate(preds, examples, strict=True)
