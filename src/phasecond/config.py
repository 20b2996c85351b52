"""Run configuration: one flat frozen dataclass, serialized as key=value lines.

A RunConfig is checked when it is made, its phase path included, and cannot
change afterwards: however a config is made (flags, a config file, the API or a
checkpoint's stored config), a bad value or path is refused there. CLI flags
override file values by making a new config; the effective config is echoed into
every run directory and hashed into checkpoints so a loaded model can refuse
mismatched settings.
"""

import hashlib
import math
from dataclasses import dataclass, fields, replace

from .conductor import parse_path
from .errors import ConfigError

DEFAULT_PATH = "LQ->LQ->Fo->LS->Fi->LS->Fi"
ITERATIVE_ALIGNER_PATH = "(LQ->Fi->LS->Fi)x2"


# The values a field of each annotated type takes; bool is an int but is refused.
_ACCEPTS = {int: int, float: (int, float), str: str}


@dataclass(frozen=True)
class RunConfig:
    # architecture
    path: str = DEFAULT_PATH
    hidden: int = 128
    max_span: int = 15
    # features
    word_dim: int = 100
    char_dim: int = 16
    char_filters: int = 100
    feat_dim: int = 8
    vectors: str = ""
    # optimization
    dropout: float = 0.2
    lr: float = 0.0006
    batch_size: int = 32
    epochs: int = 30
    seed: int = 0
    early_stop_train_em: float = 0.0
    early_stop_dev_em: float = 0.0
    # data
    train_data: str = ""
    dev_data: str = ""

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, _ACCEPTS[f.type]):
                raise ConfigError(f"{f.name} must be {f.type.__name__}, got {value!r}")
        for name in ("hidden", "max_span", "word_dim", "char_dim", "char_filters", "feat_dim",
                     "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if not 0 < self.lr < math.inf:  # NaN too
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("early_stop_train_em", "early_stop_dev_em"):
            if not 0.0 <= getattr(self, name) <= 100.0:  # NaN too
                raise ConfigError(f"{name} must be in [0, 100], got {getattr(self, name)}")
        if self.early_stop_train_em > 0 and self.early_stop_dev_em == 0:
            raise ConfigError("early_stop_train_em is read only when early_stop_dev_em > 0")
        parse_path(self.path)


def desk_config(**overrides):
    """The desk run: hidden 32 on the synthetic cloze task, trained to 95 train
    / 90 dev EM within 300 epochs. Keyword arguments override fields."""
    return replace(RunConfig(hidden=32, word_dim=16, char_dim=8, char_filters=8, feat_dim=8,
                             dropout=0.1, lr=0.01, batch_size=32, seed=7, epochs=300,
                             early_stop_train_em=95.0, early_stop_dev_em=90.0), **overrides)


def to_text(cfg):
    return "".join(f"{f.name}={getattr(cfg, f.name)}\n" for f in fields(cfg))


def config_hash(values):
    """sha256 of a {name: value} mapping: a config's `asdict` or a stored config."""
    canonical = "\n".join(sorted(f"{k}={v}" for k, v in values.items()))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _coerce(name, kind, raw):
    raw = raw.strip()
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{name}: expected {kind.__name__}, got {raw!r}") from None


def apply_overrides(cfg, overrides):
    """A new config with fields from a {name: string-or-value} mapping, strings
    coerced to the field's type; `cfg` is left as it is."""
    known = {f.name: f.type for f in fields(cfg)}
    coerced = {}
    for name, value in overrides.items():
        if name not in known:
            raise ConfigError(f"unknown config key: {name}")
        coerced[name] = _coerce(name, known[name], value) if isinstance(value, str) else value
    return replace(cfg, **coerced)


def from_file(path):
    overrides = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            overrides[key.strip()] = value
    return apply_overrides(RunConfig(), overrides)
