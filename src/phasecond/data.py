"""Datasets and metrics: SQuAD-format ingestion, synthetic cloze data, EM/F1.

The tokenizer is deliberately simple and deterministic: runs of word
characters, or single non-space punctuation marks, with character offsets
recorded so spans can be mapped back to the original text.
"""

import json
import logging
import re
import string
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, DataFormatError

log = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"\w+|[^\w\s]", re.UNICODE)
_ARTICLE_RE = re.compile(r"\b(a|an|the)\b")
_PUNCT = set(string.punctuation)


def tokenize_with_offsets(text):
    tokens, offsets = [], []
    for m in _TOKEN_RE.finditer(text):
        tokens.append(m.group())
        offsets.append((m.start(), m.end()))
    return tokens, offsets


@dataclass
class QAExample:
    """One passage/question pair with gold answer span(s)."""

    id: str
    passage_text: str
    passage_tokens: list
    passage_offsets: list          # [(char_start, char_end)] per token
    question_tokens: list
    gold_spans: list               # [(start_token, end_token)] inclusive
    answer_texts: list
    passage_pos: list = None
    passage_ner: list = None
    question_pos: list = None
    question_ner: list = None
    approximate_spans: bool = False

    def span_text(self, start, end):
        return self.passage_text[self.passage_offsets[start][0]:
                                 self.passage_offsets[end][1]]


def _require(mapping, key, where, kind=None):
    """mapping[key]; a `kind` must match exactly, so an int field refuses a bool."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise DataFormatError(f"{where}: missing field '{key}'")
    value = mapping[key]
    if kind is not None and type(value) is not kind:
        raise DataFormatError(
            f"{where}: field '{key}' is {type(value).__name__}, expected {kind.__name__}")
    return value


def _new_id(record, where, seen):
    """record's string id, which no earlier record of the file may have; adds it to seen."""
    qid = _require(record, "id", where, str)
    if qid in seen:
        raise DataFormatError(f"{where}: id {qid!r} repeats an earlier record's")
    seen.add(qid)
    return qid


def _read_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"{path}: not valid JSON: {exc}") from None


def _char_span_to_tokens(offsets, start, end):
    """Token range covering [start, end); None if nothing overlaps."""
    first = last = None
    for i, (s, e) in enumerate(offsets):
        if e > start and s < end:
            if first is None:
                first = i
            last = i
    if first is None:
        return None
    exact = offsets[first][0] == start and offsets[last][1] == end
    return first, last, exact


def load_squad(path, training=False):
    """Parse SQuAD v1.1 JSON into QAExamples.

    Answers that cannot be located by character offset are dropped; if an
    example loses all its answers it is skipped in training mode and
    retained with an empty gold set otherwise. Counts are logged.
    """
    payload = _read_json(path)
    if not isinstance(payload, dict):
        raise DataFormatError(f"{path}: expected a JSON object at the top level")
    articles = _require(payload, "data", path, list)

    examples, seen = [], set()
    skipped_answers = expanded = skipped_examples = 0
    for ai, article in enumerate(articles):
        for pi, para in enumerate(_require(article, "paragraphs", f"{path}: data[{ai}]", list)):
            where = f"{path}: data[{ai}].paragraphs[{pi}]"
            context = _require(para, "context", where, str)
            tokens, offsets = tokenize_with_offsets(context)
            for qi, qa in enumerate(_require(para, "qas", where, list)):
                q_where = f"{where}.qas[{qi}]"
                qid = _new_id(qa, q_where, seen)
                question = _require(qa, "question", q_where, str)
                answers = _require(qa, "answers", q_where, list)
                if not answers and training:
                    raise DataFormatError(f"{q_where}: empty answers in training mode")
                spans, texts, approx = [], [], False
                for k, ans in enumerate(answers):
                    text = _require(ans, "text", f"{q_where}.answers[{k}]", str)
                    start = _require(ans, "answer_start", f"{q_where}.answers[{k}]", int)
                    located = _char_span_to_tokens(offsets, start, start + len(text))
                    if located is None:
                        skipped_answers += 1
                        continue
                    first, last, exact = located
                    if not exact:
                        expanded += 1
                        approx = True
                    spans.append((first, last))
                    texts.append(text)
                if training and not spans:
                    skipped_examples += 1
                    continue
                examples.append(QAExample(
                    id=qid,
                    passage_text=context,
                    passage_tokens=tokens,
                    passage_offsets=offsets,
                    question_tokens=tokenize_with_offsets(question)[0],
                    gold_spans=spans,
                    answer_texts=texts,
                    approximate_spans=approx,
                ))
    if skipped_answers or expanded or skipped_examples:
        log.info("load_squad(%s): %d answers unmappable, %d expanded to token "
                 "boundaries, %d examples skipped",
                 path, skipped_answers, expanded, skipped_examples)
    return examples


def _joined_text(tokens):
    """The tokens joined by single spaces, and each token's character offsets."""
    offsets, cursor = [], 0
    for tok in tokens:
        offsets.append((cursor, cursor + len(tok)))
        cursor += len(tok) + 1
    return " ".join(tokens), offsets


# ---------------------------------------------------------------------------
# Synthetic cloze data

QUESTION_PREFIX = ("which", "word", "follows")


@dataclass
class SyntheticSpec:
    """Generator settings; the dataset is a pure function of these."""

    n_examples: int
    vocab_size: int = 50
    min_len: int = 20
    max_len: int = 30
    max_answer_len: int = 3
    seed: int = 0


def generate_synthetic(spec):
    """Cloze passages: "... k a1 .. aj ..." asked as "which word follows k".

    The vocabulary splits into a content pool (fillers and keys) and an
    answer pool, so the span's end boundary is inferable from token
    identity; fillers never collide with question or answer tokens, which
    makes the exact-match bit fire exactly at the key position.
    """
    if spec.vocab_size < 20:
        raise ConfigError(f"vocab_size must be >= 20, got {spec.vocab_size}")
    if spec.min_len < 8:
        raise ConfigError(f"min_len must be >= 8, got {spec.min_len}")
    if spec.min_len > spec.max_len:
        raise ConfigError("min_len exceeds max_len")
    if spec.max_answer_len + 1 > spec.min_len:
        raise ConfigError("answers cannot fit inside the shortest passage")

    n_answer_pool = max(4, spec.vocab_size // 5)
    answer_pool = [f"ans{i:02d}" for i in range(n_answer_pool)]
    content_pool = [f"tok{i:02d}" for i in range(spec.vocab_size - n_answer_pool)]

    rng = np.random.default_rng(spec.seed)
    examples = []
    for k in range(spec.n_examples):
        length = int(rng.integers(spec.min_len, spec.max_len + 1))
        ans_len = int(rng.integers(1, spec.max_answer_len + 1))
        key = content_pool[int(rng.integers(len(content_pool)))]
        answer = [answer_pool[i] for i in rng.integers(n_answer_pool, size=ans_len)]
        fillers = [t for t in content_pool if t != key]
        pos = int(rng.integers(0, length - ans_len))
        tokens = [fillers[i] for i in rng.integers(len(fillers), size=length)]
        tokens[pos] = key
        tokens[pos + 1:pos + 1 + ans_len] = answer

        passage_text, offsets = _joined_text(tokens)
        examples.append(QAExample(
            id=f"syn-{spec.seed}-{k:05d}",
            passage_text=passage_text,
            passage_tokens=tokens,
            passage_offsets=offsets,
            question_tokens=list(QUESTION_PREFIX) + [key, "?"],
            gold_spans=[(pos + 1, pos + ans_len)],
            answer_texts=[" ".join(answer)],
        ))
    return examples


def write_jsonl(examples, path):
    with open(path, "w", encoding="utf-8") as fh:
        for ex in examples:
            record = {
                "id": ex.id,
                "passage_tokens": ex.passage_tokens,
                "question_tokens": ex.question_tokens,
                "gold_spans": [list(s) for s in ex.gold_spans],
                "answer_texts": ex.answer_texts,
            }
            for key in ("passage_pos", "passage_ner", "question_pos", "question_ner"):
                value = getattr(ex, key)
                if value is not None:
                    record[key] = value
            fh.write(json.dumps(record) + "\n")


def load_jsonl(path):
    """Read the JSON-lines example format written by write_jsonl."""
    examples, seen = [], set()
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            where = f"{path}:{lineno}"
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataFormatError(f"{where}: bad JSON: {exc}") from None
            tokens = _require(record, "passage_tokens", where)
            for key in ("passage_tokens", "question_tokens", "answer_texts", "passage_pos",
                        "passage_ner", "question_pos", "question_ner"):
                value = record.get(key, [])
                if type(value) is not list or not all(type(t) is str for t in value):
                    raise DataFormatError(f"{where}: field '{key}' must be a list of strings")
            spans = record.get("gold_spans", [])
            if type(spans) is not list or not all(
                    type(s) is list and list(map(type, s)) == [int, int] for s in spans):
                raise DataFormatError(f"{where}: 'gold_spans' must be [start, end] integer pairs")
            for s, e in spans:
                if not (0 <= s <= e < len(tokens)):
                    raise DataError(f"{where}: span ({s}, {e}) out of range")
            passage_text, offsets = _joined_text(tokens)
            examples.append(QAExample(
                id=_new_id(record, where, seen),
                passage_text=passage_text,
                passage_tokens=tokens,
                passage_offsets=offsets,
                question_tokens=_require(record, "question_tokens", where),
                gold_spans=[tuple(s) for s in spans],
                answer_texts=record.get("answer_texts", []),
                passage_pos=record.get("passage_pos"),
                passage_ner=record.get("passage_ner"),
                question_pos=record.get("question_pos"),
                question_ner=record.get("question_ner"),
            ))
    return examples


def load_predictions(path):
    """Read a predictions file: one JSON object mapping example ids to answer strings."""
    predictions = _read_json(path)
    if not isinstance(predictions, dict):
        raise DataFormatError(f"{path}: expected a JSON object of answer strings")
    for qid in predictions:
        _require(predictions, qid, path, str)
    return predictions


# ---------------------------------------------------------------------------
# Metrics

def normalize_answer(text):
    """Lowercase, strip punctuation, drop articles, collapse whitespace."""
    text = text.lower()
    text = "".join(ch for ch in text if ch not in _PUNCT)
    text = _ARTICLE_RE.sub(" ", text)
    return " ".join(text.split())


def exact_match_score(prediction, gold):
    return float(normalize_answer(prediction) == normalize_answer(gold))


def f1_score(prediction, gold):
    pred_norm = normalize_answer(prediction)
    gold_norm = normalize_answer(gold)
    if not pred_norm or not gold_norm:
        # nothing left after normalization: compare as strings so EM <= F1
        return float(pred_norm == gold_norm)
    pred_tokens = pred_norm.split()
    gold_tokens = gold_norm.split()
    common = Counter(pred_tokens) & Counter(gold_tokens)
    overlap = sum(common.values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(pred_tokens)
    recall = overlap / len(gold_tokens)
    return 2 * precision * recall / (precision + recall)


@dataclass
class EvalResult:
    em: float
    f1: float
    per_question: list = field(default_factory=list)


def evaluate(predictions, examples, strict=False):
    """Corpus EM and F1 in [0, 100], maxed over gold answers per question."""
    total = em_sum = f1_sum = 0.0
    per_question = []
    for ex in examples:
        total += 1
        if ex.id not in predictions:
            if strict:
                raise DataError(f"no prediction for example {ex.id}")
            log.warning("no prediction for example %s; scoring 0", ex.id)
            per_question.append({"id": ex.id, "em": 0.0, "f1": 0.0})
            continue
        pred = predictions[ex.id]
        golds = ex.answer_texts
        em = max((exact_match_score(pred, g) for g in golds), default=0.0)
        f1 = max((f1_score(pred, g) for g in golds), default=0.0)
        em_sum += em
        f1_sum += f1
        per_question.append({"id": ex.id, "em": 100.0 * em, "f1": 100.0 * f1})
    if total == 0:
        raise DataError("cannot evaluate an empty example set")
    return EvalResult(em=100.0 * em_sum / total, f1=100.0 * f1_sum / total,
                      per_question=per_question)
