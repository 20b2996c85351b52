"""Phase conductor: parse a path expression and assemble the full model.

A path is a chain of steps:

    LQ  question-passage attention layer
    LS  self-attention layer
    Fi  inner fusion (gates the preceding attention layer's output)
    Fo  outer fusion (concatenates the preceding same-kind attention
        block's outputs and runs highway layers over them)

with groups repeatable as "(...)xN". The default two-phase path is
"LQ->LQ->Fo->LS->Fi->LS->Fi"; the alternating baseline is
"(LQ->Fi->LS->Fi)x2". Width consistency is checked once at build time,
so a malformed chain fails before any data is seen.

`forward_batch` runs the model on `config.path` over a minibatch, and
`gold_loss` turns the same pass into the batch loss. Rows stay packed from
the features to the loss, [sum n_k, w] in example order: features, encoders,
fusion, the pointer head and the loss each run once per batch, and only the
LQ/LS attention layers of `run_path`, the only attention chain (the
grad-check runs it too), run per example on row slices. `forward` is the
same code with a batch of one.
"""

import re
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import qp_align, qp_represent, self_align, self_propagate
from .encoders import EncoderPair
from .errors import BuildError, PathSyntaxError, PathValidationError
from .features import FeatureExtractor, build_vocabulary, exact_match_features
from .fusion import InnerFusionLayer, OuterFusionStack
from .params import ParamSet, xavier_uniform
from .pointer import PointerHead, decode_span, span_loss

STEP_NAMES = ("LQ", "LS", "Fi", "Fo")
ATTENTION_STEPS = ("LQ", "LS")


@dataclass(frozen=True)
class PhasePath:
    steps: tuple

    def render(self):
        return "->".join(self.steps)


_TOKEN_RE = re.compile(r"\s*(LQ|LS|Fi|Fo|\(|\)|x\d+|->)")


def _lex(expr):
    tokens, pos = [], 0
    while pos < len(expr):
        m = _TOKEN_RE.match(expr, pos)
        if m is None:
            if expr[pos:].strip() == "":
                break
            raise PathSyntaxError(f"unexpected input {expr[pos:pos + 8]!r}", position=pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def parse_path(expr):
    """Parse and validate a path expression into a flat PhasePath."""
    tokens = _lex(expr)
    if not tokens:
        raise PathSyntaxError("empty path expression", position=0)
    index = 0

    def peek():
        return tokens[index][0] if index < len(tokens) else None

    def take(expected=None):
        nonlocal index
        if index >= len(tokens):
            raise PathSyntaxError(f"unexpected end of expression, wanted {expected}",
                                  position=len(expr))
        tok, pos = tokens[index]
        if expected is not None and tok != expected:
            raise PathSyntaxError(f"expected {expected}, found {tok!r}", position=pos)
        index += 1
        return tok, pos

    def parse_item():
        tok = peek()
        if tok == "(":
            take("(")
            inner = parse_seq()
            take(")")
            rep, pos = take()
            if not rep.startswith("x"):
                raise PathSyntaxError(f"expected a repetition like x2, found {rep!r}",
                                      position=pos)
            count = int(rep[1:])
            if count < 1:
                raise PathSyntaxError("repetition count must be >= 1", position=pos)
            return inner * count
        tok, pos = take()
        if tok not in STEP_NAMES:
            raise PathSyntaxError(f"expected a step, found {tok!r}", position=pos)
        return [tok]

    def parse_seq():
        steps = parse_item()
        while peek() == "->":
            take("->")
            steps.extend(parse_item())
        return steps

    steps = parse_seq()
    if index != len(tokens):
        raise PathSyntaxError(f"trailing input at {tokens[index][0]!r}",
                              position=tokens[index][1])
    validate_steps(steps)
    return PhasePath(steps=tuple(steps))


def _fo_block(steps, i):
    """Indices of the same-kind attention block an Fo at position i fuses."""
    block, kind = [], None
    j = i - 1
    while j >= 0:
        step = steps[j]
        if step == "Fi":
            j -= 1
            continue
        if step in ATTENTION_STEPS and (kind is None or step == kind):
            kind = step
            block.append(j)
            j -= 1
            continue
        break
    block.reverse()
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
    in_width: int = 0
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
        config.validate()
        self.path = path = parse_path(config.path)
        self.config = config
        self.vocab = vocab
        self.params = ParamSet(np.random.default_rng(config.seed), given)

        self.extractor = FeatureExtractor(self.params, vocab, config)
        self.encoders = EncoderPair(self.params, self.extractor.width, config.hidden)

        d2 = 2 * config.hidden
        width = d2
        self.plan = []
        qp_count = self_count = 0
        for i, step in enumerate(path.steps):
            if step == "LQ":
                qp_count += 1
                projection = None
                if width != d2:
                    projection = self.params.add(
                        f"path.s{i + 1}.lq_proj", (width, d2), xavier_uniform)
                self.plan.append(PlanStep("LQ", layer_index=qp_count,
                                          projection=projection,
                                          in_width=width, out_width=d2))
                width = d2
            elif step == "LS":
                self_count += 1
                self.plan.append(PlanStep("LS", layer_index=self_count,
                                          in_width=width, out_width=width))
            elif step == "Fi":
                prev = self.plan[i - 1]
                if prev.in_width != prev.out_width:
                    raise BuildError(
                        f"step {i + 1}: inner fusion needs matching widths, but the "
                        f"preceding {prev.kind} maps {prev.in_width} -> {prev.out_width}")
                fusion = InnerFusionLayer(self.params, f"path.s{i + 1}.fi", prev.out_width)
                self.plan.append(PlanStep("Fi", fusion=fusion,
                                          in_width=width, out_width=width))
            else:  # Fo
                block = _fo_block(path.steps, i)
                cat_width = sum(self.plan[j].out_width for j in block)
                fusion = OuterFusionStack(self.params, f"path.s{i + 1}.fo",
                                          cat_width, config.fusion_layers)
                self.plan.append(PlanStep("Fo", fusion=fusion, block=tuple(block),
                                          in_width=width, out_width=cat_width))
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
    example after example, so the masks do not depend on the batch size, and
    packed like the rows. Without an rng there is no dropout: six Nones."""
    if rng is None:
        return [None] * 6
    width, d2 = model.extractor.width, 2 * model.config.hidden
    draws = []
    for ex in examples:
        n, m = len(ex.passage_tokens), len(ex.question_tokens)
        shapes = ((n, width), (m, width), (m, d2), (n, d2), (m, d2), (n, model.final_width))
        draws.append([rng.random(shape) for shape in shapes])
    return [np.concatenate(site) for site in zip(*draws)]


def run_path(model, h, u, v, lengths, q_lengths):
    """The plan over packed passage rows h ([sum n_k, 2d], n_k = lengths[k]).

    u/v are the packed shared/independent question encodings ([sum m_k, 2d],
    m_k = q_lengths[k]). Returns the output rows and, per example, the LQ/LS
    alignments in plan order.
    """
    us, vs = T.split_rows(u, q_lengths), T.split_rows(v, q_lengths)
    traces = [[] for _ in lengths]
    effective = [None] * len(model.plan)  # per-step output, rewritten by Fi
    inputs = [None] * len(model.plan)     # h as seen by each step
    for i, step in enumerate(model.plan):
        inputs[i] = h
        if step.kind == "LQ":
            query = h if step.projection is None else T.matmul(h, step.projection)
            aligns = [qp_align(q_k, u_k, layer_index=step.layer_index)
                      for q_k, u_k in zip(T.split_rows(query, lengths), us)]
            out = T.concat([qp_represent(a, v_k) for a, v_k in zip(aligns, vs)], axis=0)
        elif step.kind == "LS":
            parts = T.split_rows(h, lengths)
            aligns = [self_align(h_k, mask_diagonal=model.config.mask_diagonal,
                                 layer_index=step.layer_index) for h_k in parts]
            out = T.concat([self_propagate(a, h_k) for a, h_k in zip(aligns, parts)], axis=0)
        elif step.kind == "Fi":
            out = step.fusion(b_new=effective[i - 1], b_prev=inputs[i - 1])
            effective[i - 1] = out
        else:  # Fo
            cat = T.concat([effective[j] for j in step.block], axis=1)
            out = step.fusion(cat)
        if step.kind in ATTENTION_STEPS:
            for trace, align in zip(traces, aligns):
                trace.append(align)
        effective[i] = out
        h = out
    return h, traces


def _packed_pass(model, examples, rng):
    """(scores, probs, traces, lengths) of one pass over a minibatch.

    This is where every dropout mask is applied: passage and question
    features, v, h, u and the path's output, each at `config.dropout`, from
    the uniforms of `_dropout_draws`. Dropout is on exactly when an `rng` is
    passed and `config.dropout > 0`.
    """
    rate = model.config.dropout
    d_p, d_q, d_v, d_h, d_u, d_out = _dropout_draws(model, examples, rng if rate > 0 else None)
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
    passages, questions = T.dropout(passages, rate, d_p), T.dropout(questions, rate, d_q)

    v = model.encoders.encode_independent_question(questions, q_lengths)
    h, u = model.encoders.encode_shared(passages, lengths, questions, q_lengths)
    v = T.dropout(v, rate, d_v)
    h = T.dropout(h, rate, d_h)
    u = T.dropout(u, rate, d_u)

    h, traces = run_path(model, h, u, v, lengths, q_lengths)
    h = T.dropout(h, rate, d_out)
    query = model.pointer.initial_query(v, q_lengths)
    return (*model.pointer.predict_span(h, query, lengths), traces, lengths)


def forward_batch(model, examples, rng=None):
    """One ForwardResult per example of a minibatch; spans are at most
    `config.max_span` long."""
    _, probs, traces, lengths = _packed_pass(model, examples, rng)
    dists = [(probs[end - n:end, 0], probs[end - n:end, 1])
             for n, end in zip(lengths, np.cumsum(lengths))]
    return [ForwardResult(ps, pe, decode_span(ps, pe, model.config.max_span), trace)
            for (ps, pe), trace in zip(dists, traces)]


def forward(model, example, rng=None):
    """Run encoders, the phase path, and the pointer head on one example."""
    return forward_batch(model, [example], rng=rng)[0]


def gold_loss(model, examples, rng=None):
    """The batch loss: the mean span loss of the examples' first gold spans,
    from one pass over the batch."""
    scores, _, _, lengths = _packed_pass(model, examples, rng)
    return span_loss(scores, lengths, [ex.gold_spans[0] for ex in examples])
