"""Phase conductor: parse a path expression and assemble the full model.

A path is a chain of steps:

    LQ  question-passage attention layer
    LS  self-attention layer
    Fi  inner fusion (gates the preceding attention layer's output)
    Fo  outer fusion (concatenates the preceding same-kind attention
        block's outputs and runs highway layers over them)

with groups repeatable as "(...)xN", at most MAX_STEPS (64) steps once
expanded. The default two-phase path is "LQ->LQ->Fo->LS->Fi->LS->Fi"; the
alternating baseline is "(LQ->Fi->LS->Fi)x2". `parse_path` reads a path in
one pass and refuses an over-long one before expanding it; widths are checked
once at build time, so a malformed chain fails before any data is seen.

`forward_batch` runs the model on `config.path` over a minibatch, and
`gold_loss` turns the same pass into the batch loss. Rows stay packed from
the features to the loss, [sum n_k, w] in example order, and every layer
runs once per batch: features, encoders, each LQ/LS layer of `run_path` (one
node that works on each example's rows inside it), fusion, the pointer head
and the loss. `run_path` is the only attention chain; the grad-check runs
it too. `forward` is the same code with a batch of one.
"""

import re
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import qp_attention, self_attention
from .encoders import EncoderPair
from .errors import BuildError, PathSyntaxError, PathValidationError
from .features import FeatureExtractor, build_vocabulary, exact_match_features
from .fusion import InnerFusionLayer, OuterFusionStack
from .params import ParamSet, xavier_uniform
from .pointer import PointerHead, decode_span, span_loss

ATTENTION_STEPS = ("LQ", "LS")


@dataclass(frozen=True)
class PhasePath:
    steps: tuple

    def render(self):
        return "->".join(self.steps)


# Longest expanded path: "(LQ->Fi)x1000" would otherwise declare 3 GB of
# parameters at the default config before any data is read.
MAX_STEPS = 64

_TOKEN_RE = re.compile(r"\s*(?:(?P<step>LQ|LS|Fi|Fo)|(?P<arrow>->)|(?P<open>\()"
                       r"|(?P<close>\))|(?P<count>x\d+)|(?P<other>\S))")

# Parser states: what each lets come next, as the syntax errors name it, and
# the state each allowed token leads to.
_STATES = {
    "item": ("a step or '('", {"step": "next", "open": "item"}),
    "next": ("'->' or the end", {"arrow": "item"}),
    "next_in_group": ("'->' or ')'", {"arrow": "item", "close": "count"}),
    "count": ("a repetition xN with N >= 1", {"count": "next"}),
}


def parse_path(expr):
    """Parse and validate a path expression into a flat PhasePath.

    One pass over the tokens: `groups` holds the steps before each open "(",
    and `state` is what the next token may be. A step or a group's "xN" is
    refused before it is built if the path would grow past MAX_STEPS.
    """
    steps, groups, state = [], [], "item"
    for m in _TOKEN_RE.finditer(expr):
        kind, at = m.lastgroup, m.start(m.lastgroup)
        tok = m.group(kind)
        expected, moves = _STATES[state]
        # A count is read to one more digit than MAX_STEPS has: enough to refuse it.
        count = int(tok[1:].lstrip("0")[:len(str(MAX_STEPS)) + 1] or 0) if kind == "count" else 1
        if kind not in moves or count < 1:
            raise PathSyntaxError(f"expected {expected}, found {tok!r}", position=at)
        state = moves[kind]
        if kind == "open":
            groups.append(steps)
            steps = []
        elif state == "next":  # a step, or the count that closes a group
            head, body = (steps, [tok]) if kind == "step" else (groups.pop(), steps)
            if len(head) + len(body) * count > MAX_STEPS:
                raise PathSyntaxError(f"path is longer than {MAX_STEPS} steps", position=at)
            steps = head + body * count
            state = "next_in_group" if groups else "next"
    if state != "next":
        raise PathSyntaxError(f"expected {_STATES[state][0]}, found the end",
                              position=len(expr))
    validate_steps(steps)
    return PhasePath(steps=tuple(steps))


def _fo_block(steps, i):
    """Plan indices of the outputs an Fo at position i concatenates: one per
    attention step of the same-kind block before it, the step's Fi if it has
    one, else the step itself."""
    block, kind = [], None
    for j in range(i - 1, -1, -1):
        if steps[j] == "Fi":
            continue
        if steps[j] not in ATTENTION_STEPS or kind not in (None, steps[j]):
            break
        kind = steps[j]
        block.insert(0, j + 1 if steps[j + 1] == "Fi" else j)
    return block


def validate_steps(steps):
    first_attention = next((s for s in steps if s in ATTENTION_STEPS), None)
    if first_attention is None:
        raise PathValidationError("path contains no attention steps")
    if first_attention != "LQ":
        raise PathValidationError(
            "first attention step must be LQ (question-passage): "
            "self-attention has no input before it")
    for i, step in enumerate(steps):
        if step == "Fi":
            if i == 0 or steps[i - 1] not in ATTENTION_STEPS:
                raise PathValidationError(
                    f"step {i + 1}: Fi must immediately follow an attention step")
        elif step == "Fo":
            if not _fo_block(steps, i):
                raise PathValidationError(
                    f"step {i + 1}: Fo must follow a contiguous block of "
                    "same-kind attention steps")


@dataclass
class PlanStep:
    kind: str
    layer_index: int = 0           # 1-based within LQ/LS
    projection: object = None      # LQ query down-projection when width != 2d
    fusion: object = None          # InnerFusionLayer or OuterFusionStack
    block: tuple = ()              # plan indices an Fo concatenates
    out_width: int = 0


@dataclass
class ForwardResult:
    start_dist: np.ndarray  # last-hop probabilities, views into the batch's rows
    end_dist: np.ndarray
    span: object
    trace: list


class ModelAssembly:
    """Instantiated encoders, path steps, and pointer head over a Vocabulary;
    each parameter is the array `given` under its name, else drawn in
    declaration order from a generator seeded with `config.seed`."""

    def __init__(self, config, vocab, given):
        self.path = path = parse_path(config.path)
        self.config = config
        self.vocab = vocab
        self.params = ParamSet(np.random.default_rng(config.seed), given)

        self.extractor = FeatureExtractor(self.params, vocab, config)
        self.encoders = EncoderPair(self.params, self.extractor.width, config.hidden)

        d2 = 2 * config.hidden
        width = d2
        self.plan = []
        for i, step in enumerate(path.steps):
            layer_index = path.steps[:i + 1].count(step)  # 1-based among its kind
            if step == "LQ":
                projection = None
                if width != d2:
                    projection = self.params.add(
                        f"path.s{i + 1}.lq_proj", (width, d2), xavier_uniform)
                self.plan.append(PlanStep("LQ", layer_index=layer_index,
                                          projection=projection, out_width=d2))
                width = d2
            elif step == "LS":
                self.plan.append(PlanStep("LS", layer_index=layer_index, out_width=width))
            elif step == "Fi":
                prev = self.plan[i - 1]
                if prev.projection is not None:  # an LQ that maps its input width to 2d
                    raise BuildError(f"step {i + 1}: inner fusion needs matching widths, but the "
                                     f"preceding LQ maps {prev.projection.data.shape[0]} -> {d2}")
                fusion = InnerFusionLayer(self.params, f"path.s{i + 1}.fi", prev.out_width)
                self.plan.append(PlanStep("Fi", fusion=fusion, out_width=width))
            else:  # Fo
                block = _fo_block(path.steps, i)
                cat_width = sum(self.plan[j].out_width for j in block)
                fusion = OuterFusionStack(self.params, f"path.s{i + 1}.fo",
                                          cat_width, config.fusion_layers)
                self.plan.append(PlanStep("Fo", fusion=fusion, block=tuple(block),
                                          out_width=cat_width))
                width = cat_width

        self.final_width = width
        self.pointer = PointerHead(self.params, width, d2, config.pointer_hops)

    def parameter_count(self):
        return self.params.count()


def build_model(config, vocab, given):
    return ModelAssembly(config, vocab, given)


def build_from_examples(config, examples):
    """Assemble a model with the vocabulary of a training set; its word rows
    come from a second generator seeded like the model's."""
    vocab, rows = build_vocabulary(config, examples, np.random.default_rng(config.seed))
    return build_model(config, vocab, {"feat.word_emb": rows})


def _dropout_draws(model, examples, rng):
    """Uniforms behind the six dropout masks, in the order the model applies
    them: passage and question features, v, h, u, final h. They are drawn
    example after example, so the masks do not depend on the batch size, each
    into its rows of one buffer per site. Without an rng there is no dropout:
    six Nones."""
    if rng is None:
        return [None] * 6
    width, d2 = model.extractor.width, 2 * model.config.hidden
    n = np.cumsum([0] + [len(ex.passage_tokens) for ex in examples])
    m = np.cumsum([0] + [len(ex.question_tokens) for ex in examples])
    sites = ((n, width), (m, width), (m, d2), (n, d2), (m, d2), (n, model.final_width))
    draws = [np.empty((rows[-1], cols)) for rows, cols in sites]
    for k in range(len(examples)):
        for (rows, _), draw in zip(sites, draws):
            rng.random(out=draw[rows[k]:rows[k + 1]])
    return draws


def run_path(model, h, u, v, lengths, q_lengths):
    """The plan over packed passage rows h ([sum n_k, 2d], n_k = lengths[k]).

    u/v are the packed shared/independent question encodings ([sum m_k, 2d],
    m_k = q_lengths[k]). Each LQ/LS step is one node over the batch. Returns the
    output rows and, per example, the LQ/LS alignments (constants) in plan order.
    """
    traces = [[] for _ in lengths]
    outputs = []  # per plan step
    for step in model.plan:
        if step.kind == "LQ":
            query = h if step.projection is None else T.matmul(h, step.projection)
            out, aligns = qp_attention(query, u, v, lengths, q_lengths, step.layer_index)
        elif step.kind == "LS":
            out, aligns = self_attention(h, lengths, step.layer_index)
        elif step.kind == "Fi":
            out = step.fusion(b_new=h, b_prev=attention_input)
        else:  # Fo
            out = step.fusion(T.concat([outputs[j] for j in step.block], axis=1))
        if step.kind in ATTENTION_STEPS:
            attention_input = h
            for trace, align in zip(traces, aligns):
                trace.append(align)
        outputs.append(out)
        h = out
    return h, traces


def _packed_pass(model, examples, rng):
    """(h, query, traces, lengths) of one pass over a minibatch up to the
    pointer: the path's output rows and the pointer's first query.

    This is where every dropout mask is applied: passage and question
    features, v, h, u and the path's output, each at `config.dropout`, from
    the uniforms of `_dropout_draws`. Dropout is on exactly when an `rng` is
    passed and `config.dropout > 0`.
    """
    rate = model.config.dropout
    draws = _dropout_draws(model, examples, rng if rate > 0 else None)  # each popped once applied
    lengths = [len(ex.passage_tokens) for ex in examples]
    q_lengths = [len(ex.question_tokens) for ex in examples]
    bits = [exact_match_features(ex.passage_tokens, ex.question_tokens) for ex in examples]
    embed = model.extractor.embed_sequence
    passages = embed([ex.passage_tokens for ex in examples], "passage",
                     em_bits=[p for p, _ in bits], pos=[ex.passage_pos for ex in examples],
                     ner=[ex.passage_ner for ex in examples])
    questions = embed([ex.question_tokens for ex in examples], "question",
                      em_bits=[q for _, q in bits], pos=[ex.question_pos for ex in examples],
                      ner=[ex.question_ner for ex in examples])
    passages = T.dropout(passages, rate, draws.pop(0))
    questions = T.dropout(questions, rate, draws.pop(0))

    v = model.encoders.encode_independent_question(questions, q_lengths)
    h, u = model.encoders.encode_shared(passages, lengths, questions, q_lengths)
    v = T.dropout(v, rate, draws.pop(0))
    h = T.dropout(h, rate, draws.pop(0))
    u = T.dropout(u, rate, draws.pop(0))

    h, traces = run_path(model, h, u, v, lengths, q_lengths)
    h = T.dropout(h, rate, draws.pop(0))
    return h, model.pointer.initial_query(v, q_lengths), traces, lengths


def forward_batch(model, examples):
    """One ForwardResult per example of a minibatch, without dropout; spans
    are at most `config.max_span` long."""
    h, query, traces, lengths = _packed_pass(model, examples, None)
    _, probs = model.pointer.predict_span(h, query, lengths)
    dists = [(probs[end - n:end, 0], probs[end - n:end, 1])
             for n, end in zip(lengths, np.cumsum(lengths))]
    return [ForwardResult(ps, pe, decode_span(ps, pe, model.config.max_span), trace)
            for (ps, pe), trace in zip(dists, traces)]


def forward(model, example):
    """Run encoders, the phase path, and the pointer head on one example."""
    return forward_batch(model, [example])[0]


def gold_loss(model, examples, rng=None):
    """The batch loss: the mean span loss of the examples' first gold spans,
    from one pass over the batch."""
    h, query, traces, lengths = _packed_pass(model, examples, rng)
    del traces  # constants the loss does not read, freed before the pointer runs
    scores, _ = model.pointer.predict_span(h, query, lengths)
    return span_loss(scores, lengths, [ex.gold_spans[0] for ex in examples])
