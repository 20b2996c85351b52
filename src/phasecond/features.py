"""Token-level features: word vectors, char convolutions, match bits, tags.

Every token becomes one row of
    [word embedding | char CNN | exact-match bit | pos? | ner? | qtype?]
with identical layout on the passage and question sides so the shared
encoder can consume both; slots that only apply to one side (the question
type embedding) are zero-filled on the other. A minibatch's sequences of one
side are embedded in one call, packed row after row, and the char CNN runs
once per distinct word of the batch.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DataError, DataFormatError
from .params import uniform, xavier_uniform
from .tensor import Tensor, make_node

PAD_INDEX = 0
UNK_INDEX = 1

INTERROGATIVES = ("what", "how", "who", "when", "which", "where", "why")
BE_FORMS = frozenset({"be", "is", "are", "was", "were", "am", "been", "being"})
QUESTION_TYPES = INTERROGATIVES + ("be", "other")


@dataclass
class EmbeddingSpec:
    """Word-embedding construction data, pre-registration.

    tokens[0] is the padding slot (zero, frozen) and tokens[1] the unknown
    slot; `trainable` marks rows the optimizer may move.
    """

    tokens: list
    matrix: np.ndarray
    trainable: np.ndarray

    @property
    def dim(self):
        return self.matrix.shape[1]

    def index_of(self, token):
        idx = self._index.get(token)
        if idx is None:
            idx = self._index.get(token.lower(), UNK_INDEX)
        return idx

    def __post_init__(self):
        self._index = {tok: i for i, tok in enumerate(self.tokens)}


def _fresh_spec(dim, rng):
    matrix = np.zeros((2, dim))
    matrix[UNK_INDEX] = uniform(rng, (dim,))
    trainable = np.array([False, True])
    return EmbeddingSpec(["<pad>", "<unk>"], matrix, trainable)


def build_vocab_embedding(tokens, dim, rng):
    """Random trainable embedding over the distinct tokens, in first-seen order."""
    spec = _fresh_spec(dim, rng)
    extend_with_tokens(spec, tokens, rng)
    return spec


def load_pretrained_vectors(path, dim, rng, corpus_tokens=None, trainable=False):
    """Read whitespace-separated "token v1 .. v_dim" lines into an embedding.

    With `corpus_tokens`, the vocabulary is pad/unk + those tokens, rows
    filled from the file where available (frozen unless `trainable`) and
    uniform(-0.05, 0.05) trainable rows otherwise. Without it, the
    vocabulary is pad/unk + every file token. Returns (spec, coverage)
    where coverage is the fraction of corpus tokens found in the file.
    """
    vectors = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) < 2:
                raise DataFormatError(f"{path}:{lineno}: expected 'token v1 ... v{dim}'")
            if len(parts) - 1 != dim:
                raise DataFormatError(
                    f"{path}:{lineno}: expected {dim} components, found {len(parts) - 1}"
                )
            try:
                vec = np.array([float(v) for v in parts[1:]])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: non-numeric component: {exc}") from None
            if not np.isfinite(vec).all():
                raise DataFormatError(f"{path}:{lineno}: non-finite component")
            vectors[parts[0]] = vec

    if not vectors:
        warnings.warn(f"vector file {path} is empty; embeddings will be random")

    spec = _fresh_spec(dim, rng)
    wanted = list(dict.fromkeys(corpus_tokens)) if corpus_tokens is not None else list(vectors)
    hits = 0
    rows, flags = [], []
    for tok in wanted:
        vec = vectors.get(tok, vectors.get(tok.lower()))
        if vec is not None:
            hits += 1
            rows.append(vec)
            flags.append(bool(trainable))
        else:
            rows.append(uniform(rng, (dim,)))
            flags.append(True)
        spec.tokens.append(tok)
    if rows:
        spec.matrix = np.vstack([spec.matrix, np.array(rows)])
        spec.trainable = np.concatenate([spec.trainable, np.array(flags)])
    spec.__post_init__()
    coverage = hits / len(wanted) if wanted else 0.0
    return spec, coverage


def extend_with_tokens(spec, tokens, rng):
    """Add unseen tokens as uniform trainable rows; returns coverage of the input."""
    known = set(spec.tokens)
    fresh, hits, total = [], 0, 0
    queued = set()
    for tok in tokens:
        total += 1
        if tok in known:
            hits += 1
        elif tok not in queued:
            queued.add(tok)
            fresh.append(tok)
    if fresh:
        spec.tokens.extend(fresh)
        spec.matrix = np.vstack([spec.matrix, uniform(rng, (len(fresh), spec.dim))])
        spec.trainable = np.concatenate([spec.trainable, np.ones(len(fresh), dtype=bool)])
        spec.__post_init__()
    return hits / total if total else 1.0


def build_char_vocab(tokens):
    """Char -> index map over the training tokens; 0 pad, 1 unk."""
    chars = {}
    for tok in tokens:
        for ch in tok:
            if ch not in chars:
                chars[ch] = len(chars) + 2
    return chars


def exact_match_features(passage_tokens, question_tokens):
    """Cross-side membership bits, case-insensitive, for both sides."""
    p_set = {t.lower() for t in passage_tokens}
    q_set = {t.lower() for t in question_tokens}
    p_bits = np.array([1.0 if t.lower() in q_set else 0.0 for t in passage_tokens])
    q_bits = np.array([1.0 if t.lower() in p_set else 0.0 for t in question_tokens])
    return p_bits, q_bits


def question_type(question_tokens):
    """First interrogative word decides the type; copulas map to "be"."""
    for tok in question_tokens:
        low = tok.lower()
        if low in INTERROGATIVES:
            return low
        if low in BE_FORMS:
            return "be"
    return "other"


def char_cnn(char_emb, filters, bias, char_idx, n_valid_windows, width):
    """Convolution over characters, max-pooled per word, as one graph node.

    char_idx: [n_words, L] int indices (0 pad), every word padded to at
    least `width` and all words to a common L. n_valid_windows[w] limits
    the max-pool to windows fully inside word w's (padded) length. Only the
    last bits of a word's output depend on the call's longest word (BLAS size).
    """
    n_words, length = char_idx.shape
    n_filters = filters.data.shape[1]
    dc = char_emb.data.shape[1]
    n_win = length - width + 1
    embedded = char_emb.data[char_idx]  # [n, L, dc]
    windows = np.lib.stride_tricks.sliding_window_view(embedded, width, axis=1)
    cols = np.ascontiguousarray(windows.transpose(0, 1, 3, 2)).reshape(n_words, n_win, width * dc)
    scores = cols @ filters.data + bias.data  # [n, n_win, F]
    act = np.maximum(scores, 0.0)
    valid = np.arange(n_win)[None, :] < n_valid_windows[:, None]
    masked = np.where(valid[:, :, None], act, -np.inf)
    winner = masked.argmax(axis=1)  # [n, F]
    out = np.take_along_axis(masked, winner[:, None, :], axis=1)[:, 0, :]

    def bwd(g):
        dact = np.zeros_like(act)
        np.put_along_axis(dact, winner[:, None, :], g[:, None, :], axis=1)
        dscores = dact * (scores > 0)
        dbias = dscores.sum(axis=(0, 1))
        flat_cols = cols.reshape(-1, width * dc)
        flat_ds = dscores.reshape(-1, n_filters)
        dfilters = flat_cols.T @ flat_ds
        dcols = (flat_ds @ filters.data.T).reshape(n_words, n_win, width, dc)
        dembedded = np.zeros_like(embedded)
        for k in range(width):
            dembedded[:, k:k + n_win, :] += dcols[:, :, k, :]
        demb = np.zeros_like(char_emb.data)
        np.add.at(demb, char_idx, dembedded)
        return demb, dfilters, dbias

    return make_node(out, (char_emb, filters, bias), bwd)


class CharCNN:
    """Per-word character encoder: embeddings, 1-d filters, max pool; sizes
    from the run config's char_dim, char_width and char_filters."""

    def __init__(self, params, prefix, char_vocab, config, rng):
        self.char_vocab = char_vocab
        self.width = config.char_width
        n_chars = len(char_vocab) + 2
        emb = uniform(rng, (n_chars, config.char_dim))
        emb[PAD_INDEX] = 0.0
        mask = np.ones((n_chars, 1))
        mask[PAD_INDEX] = 0.0
        self.emb = params.add(f"{prefix}.char_emb", emb, grad_mask=mask)
        self.filters = params.add(f"{prefix}.filters", xavier_uniform(
            rng, (config.char_width * config.char_dim, config.char_filters)))
        self.bias = params.add(f"{prefix}.bias", np.zeros(config.char_filters))

    def __call__(self, tokens):
        lengths = np.array([max(len(t), self.width) for t in tokens])
        longest = lengths.max()
        idx = np.zeros((len(tokens), longest), dtype=np.intp)
        for w, tok in enumerate(tokens):
            for k, ch in enumerate(tok):
                idx[w, k] = self.char_vocab.get(ch, UNK_INDEX)
        n_valid = lengths - self.width + 1
        return char_cnn(self.emb, self.filters, self.bias, idx, n_valid, self.width)


class FeatureExtractor:
    """Maps token sequences to the model's input feature rows, `width` wide:
    the word vectors' dimension, the config's char filters, the exact-match
    bit and feat_dim per enabled tag slot."""

    def __init__(self, params, word_spec, char_vocab, config, rng,
                 pos_vocab=None, ner_vocab=None):
        self.config = config
        self.word_spec = word_spec
        flags = config.use_pos + config.use_ner + config.use_qtype
        self.width = word_spec.dim + config.char_filters + 1 + flags * config.feat_dim
        word_mask = word_spec.trainable.astype(np.float64)[:, None]
        self.word_emb = params.add("feat.word_emb", word_spec.matrix, grad_mask=word_mask)
        self.char = CharCNN(params, "feat.char", char_vocab, config, rng)
        self.pos_vocab = pos_vocab or {}
        self.ner_vocab = ner_vocab or {}
        if config.use_pos:
            self.pos_emb = params.add(
                "feat.pos_emb", uniform(rng, (len(self.pos_vocab) + 1, config.feat_dim)))
        if config.use_ner:
            self.ner_emb = params.add(
                "feat.ner_emb", uniform(rng, (len(self.ner_vocab) + 1, config.feat_dim)))
        if config.use_qtype:
            self.qtype_emb = params.add(
                "feat.qtype_emb", uniform(rng, (len(QUESTION_TYPES), config.feat_dim)))

    def _tag_part(self, emb, vocab, tags, sequences):
        """Tag embedding rows; a sequence without tags gets zero rows."""
        idx, keep = [], []
        for seq, seq_tags in zip(sequences, tags or [None] * len(sequences)):
            if seq_tags is not None and len(seq_tags) != len(seq):
                raise DataError(f"tag list length {len(seq_tags)} != token count {len(seq)}")
            idx += [0] * len(seq) if seq_tags is None else [vocab.get(t, 0) for t in seq_tags]
            keep += [float(seq_tags is not None)] * len(seq)
        return T.mul(T.gather_rows(emb, idx), Tensor(np.outer(keep, np.ones(self.config.feat_dim))))

    def embed_sequence(self, sequences, side, em_bits=None, pos=None, ner=None):
        """[sum n_k, width] feature rows of token sequences, packed in order; the
        char CNN runs once per distinct word. `em_bits` (an array per sequence)
        defaults to zeros; `pos`/`ner` (a tag list or None per sequence) are read
        when enabled. The rows come back undropped."""
        tokens = [t for seq in sequences for t in seq]
        n = len(tokens)
        if n == 0:
            return Tensor(np.zeros((0, self.width)))

        distinct = {}
        slots = [distinct.setdefault(t, len(distinct)) for t in tokens]
        word_idx = np.array([self.word_spec.index_of(t) for t in distinct])[slots]
        parts = [T.gather_rows(self.word_emb, word_idx),
                 T.gather_rows(self.char(list(distinct)), slots)]
        em = np.zeros(n) if em_bits is None else np.concatenate(em_bits)
        parts.append(Tensor(np.asarray(em, dtype=np.float64).reshape(n, 1)))
        if self.config.use_pos:
            parts.append(self._tag_part(self.pos_emb, self.pos_vocab, pos, sequences))
        if self.config.use_ner:
            parts.append(self._tag_part(self.ner_emb, self.ner_vocab, ner, sequences))
        if self.config.use_qtype:
            if side == "question":
                types = [QUESTION_TYPES.index(question_type(seq)) for seq in sequences]
                parts.append(T.gather_rows(
                    self.qtype_emb, np.repeat(types, [len(seq) for seq in sequences])))
            else:
                parts.append(Tensor(np.zeros((n, self.config.feat_dim))))
        return T.concat(parts, axis=1)
