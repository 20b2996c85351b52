"""Finite-difference verification of every layer type's gradients.

Used by the grad-check CLI command and the acceptance suite: each
component gets a small random fixture, and the analytic gradient of a
scalar readout is compared against central differences. The attention
layers are the model's packed nodes, chained through `conductor.run_path`.
"""

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .attention import self_attention
from .conductor import build_from_examples, run_path
from .config import DEFAULT_PATH, RunConfig
from .encoders import EncoderPair, lstm_direction
from .errors import ConfigError
from .features import CharCNN
from .fusion import InnerFusionLayer, OuterFusionStack
from .params import ParamSet
from .pointer import PointerHead, question_summary, span_loss
from .tensor import Tensor, grad_check

THRESHOLD = 1e-4


@dataclass
class CheckReport:
    component: str
    max_rel_err: float
    dims: str
    seed: int

    @property
    def passed(self):
        return self.max_rel_err < THRESHOLD


def _mix(rng, shape):
    return Tensor(rng.standard_normal(shape))


def _path_model(path, seed):
    """A hidden-2 model on `path`, initialized from its own generator."""
    return build_from_examples(RunConfig(path=path, hidden=2, word_dim=2, char_dim=2,
                                         char_filters=2, feat_dim=2, seed=seed), [])


def run_grad_checks(seed=0):
    """Check every layer type; returns one CheckReport per component."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    reports = []

    def check(component, dims, fn, x):
        rng_err = grad_check(fn, x)
        reports.append(CheckReport(component=component, max_rel_err=rng_err,
                                   dims=dims, seed=seed))

    rng = np.random.default_rng(seed)

    # encoders: independent question and shared passage paths
    enc = EncoderPair(ParamSet(rng), 3, 2)
    mix_q = _mix(rng, (3, 4))
    check("encoder_independent", "m=3,in=3,d=2",
          lambda t: T.tsum(T.mul(enc.encode_independent_question(t, [3]), mix_q)),
          Tensor(rng.standard_normal((3, 3))))
    mix_p = _mix(rng, (4, 4))
    q_fixed = Tensor(rng.standard_normal((2, 3)))
    check("encoder_shared", "n=4,m=2,in=3,d=2",
          lambda t: T.tsum(T.mul(enc.encode_shared(t, [4], q_fixed, [2])[0], mix_p)),
          Tensor(rng.standard_normal((4, 3))))

    # question-passage attention stack: two LQ steps of the phase path
    lq_model = _path_model("LQ->LQ", seed)
    u = Tensor(rng.standard_normal((3, 4)))
    v = Tensor(rng.standard_normal((3, 4)))
    mix_qp = _mix(rng, (4, 4))
    check("qp_attention_stack", "n=4,m=3,d=2,path=LQ->LQ",
          lambda t: T.tsum(T.mul(run_path(lq_model, t, u, v, [4], [3])[0], mix_qp)),
          Tensor(rng.standard_normal((4, 4))))

    # self-attention
    mix_self = _mix(rng, (4, 4))
    check("self_attention", "n=4,w=4",
          lambda t: T.tsum(T.mul(self_attention(t, [4], 1)[0], mix_self)),
          Tensor(rng.standard_normal((4, 4))))

    # fusion layers
    fo = OuterFusionStack(ParamSet(rng), "fo", 6, 2)
    mix_fo = _mix(rng, (3, 6))
    check("outer_fusion", "n=3,w=6,K=2",
          lambda t: T.tsum(T.mul(fo(t), mix_fo)),
          Tensor(rng.standard_normal((3, 6))))

    fi = InnerFusionLayer(ParamSet(rng), "fi", 4)
    prev = Tensor(rng.standard_normal((3, 4)))
    mix_fi = _mix(rng, (3, 4))
    check("inner_fusion", "n=3,w=4",
          lambda t: T.tsum(T.mul(fi(t, prev), mix_fi)),
          Tensor(rng.standard_normal((3, 4))))

    # pointer head through the span loss
    head = PointerHead(ParamSet(rng), 4, 4)
    v_q = Tensor(rng.standard_normal((3, 4)))

    def pointer_loss(t):
        return span_loss(head.predict_span(t, head.initial_query(v_q, [3]), [5])[0],
                         [5], [(1, 3)])

    check("pointer_head", "n=5,w=4,hops=2", pointer_loss,
          Tensor(rng.standard_normal((5, 4))))

    mix_sum = _mix(rng, (1, 4))
    check("question_summary", "m=3,w=4",
          lambda t: T.tsum(T.mul(question_summary(
              t, head.summary_proj, head.summary_score, [3]), mix_sum)),
          Tensor(rng.standard_normal((3, 4))))

    # span loss against raw boundary scores, start and end as columns
    check("span_loss", "n=5", lambda t: span_loss(t, [5], [(2, 4)]),
          Tensor(rng.standard_normal((2, 5)).T.copy()))

    # character CNN parameters
    cnn = CharCNN(ParamSet(rng), "cnn", {"a": 2, "b": 3, "c": 4},
                  RunConfig(char_dim=3, char_filters=4))
    mix_cnn = _mix(rng, (2, 4))
    check("char_cnn", "words=2,dc=3,F=4",
          lambda _p: T.tsum(T.mul(cnn(["abca", "cb"]), mix_cnn)),
          cnn.filters)

    # both shared-encoder directions over a packed minibatch of mixed lengths
    lengths = [3, 1, 4, 2]
    mix_packed = _mix(rng, (sum(lengths), 4))
    check("encoder_packed", "lengths=3,1,4,2,in=3,d=2",
          lambda t: T.tsum(T.mul(lstm_direction(t, enc.shared, lengths), mix_packed)),
          Tensor(rng.standard_normal((sum(lengths), 3))))

    # the pointer head over a packed minibatch of mixed passage lengths
    passage_lengths = [3, 1, 4, 2]
    question_lengths = (2, 3, 1, 2)
    questions = Tensor(rng.standard_normal((sum(question_lengths), 4)))
    golds = [(0, 2), (0, 0), (1, 3), (1, 1)]

    def pointer_packed_loss(t):
        query = head.initial_query(questions, question_lengths)
        return span_loss(head.predict_span(t, query, passage_lengths)[0], passage_lengths, golds)

    check("pointer_packed", "lengths=3,1,4,2,w=4,hops=2", pointer_packed_loss,
          Tensor(rng.standard_normal((sum(passage_lengths), 4))))

    # the default phase path over a packed minibatch, Fi and Fo included
    path_model = _path_model(DEFAULT_PATH, seed)
    u_path = Tensor(rng.standard_normal((sum(question_lengths), 4)))
    mix_path = _mix(rng, (sum(passage_lengths), path_model.final_width))
    check("phase_path", f"lengths=3,1,4,2,d=2,path={DEFAULT_PATH}",
          lambda t: T.tsum(T.mul(run_path(path_model, t, u_path, questions,
                                          passage_lengths, question_lengths)[0], mix_path)),
          Tensor(rng.standard_normal((sum(passage_lengths), 4))))

    # the span loss where every gold boundary scores 2e3 below the best
    # position: its probability underflows to 0, its log-probability does not
    extreme = np.where(np.arange(5)[:, None] == 0, 1e3, -1e3) + rng.standard_normal((5, 2))
    check("span_loss_extreme", "n=5,scores=+-1e3",
          lambda t: span_loss(t, [5], [(2, 4)]), Tensor(extreme))

    return reports
