"""Token-level features: word vectors, char convolutions, match bits, tags.

Every token becomes one row of
    [word embedding | char CNN | exact-match bit | pos? | ner? | qtype]
with identical layout on both sides for the shared encoder. pos and ner are
there when the training data carries those tags; qtype is zero on the
passage side. A minibatch's sequences of one side are embedded in one call,
packed row after row, and the char CNN runs once per distinct word of the batch.

The lookup tables behind those rows (words, chars, tags) form one
`Vocabulary` record, which `build_vocabulary` draws from a training set
together with the initial word rows and a checkpoint stores as its `vocab`
section.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import DataError, DataFormatError
from .params import constant, uniform, xavier_uniform
from .tensor import Tensor, make_node

PAD_INDEX = 0
UNK_INDEX = 1
CHAR_WIDTH = 5  # characters per char CNN window

INTERROGATIVES = ("what", "how", "who", "when", "which", "where", "why")
BE_FORMS = frozenset({"be", "is", "are", "was", "were", "am", "been", "being"})
QUESTION_TYPES = INTERROGATIVES + ("be", "other")


@dataclass(frozen=True)
class Vocabulary:
    """A model's lookup tables, as the checkpoint's `vocab` section stores them.

    The words are distinct strings: word_tokens[0] is the padding slot (zero,
    frozen) and word_tokens[1] the unknown slot. word_trainable holds one flag
    per word: 1 for rows the optimizer may move, 0 otherwise. Chars index from
    2 (0 pad, 1 unknown), tags from 1 (0 unknown). Making a record checks all
    of this. The initial word rows are not part of the record: they are the
    model's `feat.word_emb` parameter.
    """

    word_tokens: list
    word_trainable: list
    char_vocab: dict
    pos_vocab: dict
    ner_vocab: dict

    def __post_init__(self):
        words, flags = self.word_tokens, self.word_trainable
        if not (type(words) is list and type(flags) is list):
            raise DataError("the words and trainable flags must be lists")
        if len(flags) != len(words):
            raise DataError(f"{len(flags)} trainable flags for {len(words)} words")
        if len({w for w in words if type(w) is str}) != len(words):
            raise DataError("the words are not distinct strings")
        if any(type(f) is not int or f not in (0, 1) for f in flags):
            raise DataError("trainable flags must be the ints 0 and 1")
        for name, table, first in (("char", self.char_vocab, 2), ("pos", self.pos_vocab, 1),
                                   ("ner", self.ner_vocab, 1)):
            if type(table) is not dict:
                raise DataError(f"the {name} map must be an object, got {type(table).__name__}")
            last = first + len(table) - 1
            ints = {i for i in table.values() if type(i) is int}
            if any(type(key) is not str for key in table) or ints != set(range(first, last + 1)):
                raise DataError(f"the {name} map must take strings onto {first}..{last}")


def read_vectors(path, dim):
    """{token: vector} from whitespace-separated "token v1 .. v_dim" lines."""
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
    return vectors


def build_vocabulary(config, examples, rng):
    """(Vocabulary, word rows) of a training set.

    The words are pad, unk and the distinct passage and question tokens in
    first-seen order. A word found in `config.vectors` (as is, else
    lowercased) takes its vector, frozen; unk and every other word draw a
    trainable uniform(-0.05, 0.05) row from `rng`, in word order. A tag table
    numbers the examples' tags ({} for none).
    """
    distinct = dict.fromkeys(t for ex in examples
                             for seq in (ex.passage_tokens, ex.question_tokens) for t in seq)
    vectors = read_vectors(config.vectors, config.word_dim) if config.vectors else {}
    words = ["<pad>", "<unk>"] + [t for t in distinct if t not in ("<pad>", "<unk>")]
    found = [None, None] + [vectors.get(t, vectors.get(t.lower())) for t in words[2:]]
    misses = [i for i, vec in enumerate(found) if vec is None and i > 0]
    rows = np.zeros((len(words), config.word_dim))
    rows[misses] = uniform(rng, (len(misses), config.word_dim))  # one draw, in word order
    for i, vec in enumerate(found):
        if vec is not None:
            rows[i] = vec
    trainable = [0] + [int(vec is None) for vec in found[1:]]
    # A character first appears inside the first occurrence of some token.
    chars = {ch: i for i, ch in enumerate(dict.fromkeys("".join(distinct)), start=2)}

    def tag_vocab(*attrs):
        tags = dict.fromkeys(t for ex in examples for a in attrs for t in getattr(ex, a) or [])
        return {tag: i for i, tag in enumerate(tags, start=1)}

    vocab = Vocabulary(words, trainable, chars, tag_vocab("passage_pos", "question_pos"),
                       tag_vocab("passage_ner", "question_ner"))
    return vocab, rows


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


def char_cnn(char_emb, filters, bias, char_idx, n_valid_windows):
    """CHAR_WIDTH-wide character convolution, max-pooled per word, as one graph node.

    char_idx: [n_words, L] int indices (0 pad), every word padded to at
    least CHAR_WIDTH and all words to a common L. n_valid_windows[w] limits
    the max-pool to windows fully inside word w's (padded) length. Only the
    last bits of a word's output depend on the call's longest word (BLAS size).
    """
    n_words, length = char_idx.shape
    n_filters = filters.data.shape[1]
    dc = char_emb.data.shape[1]
    n_win = length - CHAR_WIDTH + 1
    embedded = char_emb.data[char_idx]  # [n, L, dc]
    windows = np.lib.stride_tricks.sliding_window_view(embedded, CHAR_WIDTH, axis=1)
    cols = np.ascontiguousarray(windows.transpose(0, 1, 3, 2)).reshape(n_words, n_win, -1)
    scores = cols @ filters.data + bias.data  # [n, n_win, F]
    act = np.maximum(scores, 0.0)
    valid = np.arange(n_win)[None, :] < n_valid_windows[:, None]
    masked = np.where(valid[:, :, None], act, -np.inf)
    winner = masked.argmax(axis=1)  # [n, F]
    out = np.take_along_axis(masked, winner[:, None, :], axis=1)[:, 0, :]

    def bwd(g):
        # Only each winner's score gets a gradient, and it passed the ReLU iff out > 0.
        dscores = np.zeros((n_words, n_win, n_filters))
        np.put_along_axis(dscores, winner[:, None, :], (g * (out > 0))[:, None, :], axis=1)
        dbias = dscores.sum(axis=(0, 1))
        flat_cols = cols.reshape(-1, CHAR_WIDTH * dc)
        flat_ds = dscores.reshape(-1, n_filters)
        dfilters = flat_cols.T @ flat_ds
        dcols = (flat_ds @ filters.data.T).reshape(n_words, n_win, CHAR_WIDTH, dc)
        dembedded = np.zeros((n_words, length, dc))
        for k in range(CHAR_WIDTH):
            dembedded[:, k:k + n_win, :] += dcols[:, :, k, :]
        demb = np.zeros_like(char_emb.data)
        np.add.at(demb, char_idx, dembedded)
        return demb, dfilters, dbias

    return make_node(out, (char_emb, filters, bias), bwd)


class CharCNN:
    """Per-word character encoder: embeddings, 1-d filters CHAR_WIDTH wide, max
    pool; sizes from the run config's char_dim and char_filters."""

    def __init__(self, params, prefix, char_vocab, config):
        self.char_vocab = char_vocab
        n_chars = len(char_vocab) + 2
        mask = np.ones((n_chars, 1))
        mask[PAD_INDEX] = 0.0
        self.emb = params.add(f"{prefix}.char_emb", (n_chars, config.char_dim),
                              lambda rng, shape: np.where(mask, uniform(rng, shape), 0.0),
                              grad_mask=mask)
        self.filters = params.add(f"{prefix}.filters", (
            CHAR_WIDTH * config.char_dim, config.char_filters), xavier_uniform)
        self.bias = params.add(f"{prefix}.bias", (config.char_filters,), constant(0.0))

    def __call__(self, tokens):
        lengths = np.array([max(len(t), CHAR_WIDTH) for t in tokens])
        longest = lengths.max()
        idx = np.zeros((len(tokens), longest), dtype=np.intp)
        for w, tok in enumerate(tokens):
            for k, ch in enumerate(tok):
                idx[w, k] = self.char_vocab.get(ch, UNK_INDEX)
        n_valid = lengths - CHAR_WIDTH + 1
        return char_cnn(self.emb, self.filters, self.bias, idx, n_valid)


class FeatureExtractor:
    """Maps token sequences to input feature rows, `width` wide: word_dim, the
    char filters, the exact-match bit and feat_dim per filled tag table and for
    qtype. The word rows, one per word of the Vocabulary, are the `feat.word_emb`
    array given to `params` (drawn uniform without one)."""

    def __init__(self, params, vocab, config):
        self.config = config
        self.vocab = vocab
        self.word_index = {tok: i for i, tok in enumerate(vocab.word_tokens)}
        flags = 1 + bool(vocab.pos_vocab) + bool(vocab.ner_vocab)
        self.width = config.word_dim + config.char_filters + 1 + flags * config.feat_dim
        word_mask = np.array(vocab.word_trainable, dtype=np.float64)[:, None]
        self.word_emb = params.add("feat.word_emb", (len(vocab.word_tokens), config.word_dim),
                                   uniform, grad_mask=word_mask)
        self.char = CharCNN(params, "feat.char", vocab.char_vocab, config)
        if vocab.pos_vocab:
            self.pos_emb = params.add(
                "feat.pos_emb", (len(vocab.pos_vocab) + 1, config.feat_dim), uniform)
        if vocab.ner_vocab:
            self.ner_emb = params.add(
                "feat.ner_emb", (len(vocab.ner_vocab) + 1, config.feat_dim), uniform)
        self.qtype_emb = params.add(
            "feat.qtype_emb", (len(QUESTION_TYPES), config.feat_dim), uniform)

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
        when the Vocabulary has that tag table. The rows come back undropped."""
        tokens = [t for seq in sequences for t in seq]
        n = len(tokens)
        if n == 0:
            return Tensor(np.zeros((0, self.width)))

        distinct = {}
        slots = [distinct.setdefault(t, len(distinct)) for t in tokens]
        index = self.word_index
        word_idx = np.array([index.get(t, index.get(t.lower(), UNK_INDEX))
                             for t in distinct])[slots]
        parts = [T.gather_rows(self.word_emb, word_idx),
                 T.gather_rows(self.char(list(distinct)), slots)]
        em = np.zeros(n) if em_bits is None else np.concatenate(em_bits)
        parts.append(Tensor(np.asarray(em, dtype=np.float64).reshape(n, 1)))
        if self.vocab.pos_vocab:
            parts.append(self._tag_part(self.pos_emb, self.vocab.pos_vocab, pos, sequences))
        if self.vocab.ner_vocab:
            parts.append(self._tag_part(self.ner_emb, self.vocab.ner_vocab, ner, sequences))
        if side == "question":
            types = [QUESTION_TYPES.index(question_type(seq)) for seq in sequences]
            parts.append(T.gather_rows(
                self.qtype_emb, np.repeat(types, [len(seq) for seq in sequences])))
        else:
            parts.append(Tensor(np.zeros((n, self.config.feat_dim))))
        return T.concat(parts, axis=1)
