"""Every config a checkpoint header holds: its fields, checks and JSON form.

`TruncationConfig`, `ModelConfig` and `TrainConfig` check their fields on
construction (a bad value is a `ConfigError`, whether it came from a flag or
a header). `to_meta` gives the header's JSON object for a config and
`from_meta` inverts it, rejecting a missing or unknown key (`FormatError`).
`ModelConfig`'s header form nests `TruncationConfig`'s under "truncation".
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

from swipe.corpus import LabelVocab, TASK_MULTICLASS
from swipe.errors import ConfigError, FormatError
from swipe.head import Pooling

STRATEGIES = ("auto", "punct", "structure")

ENCODER_HASH = "hash"
ENCODER_PRECOMPUTED = "precomputed"


def _check_int(name: str, value, minimum: int | None = None) -> None:
    if type(value) is not int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")


def _check_real(name: str, value, fraction: bool = False) -> None:
    """A finite real number > 0, or in [0, 1) when `fraction`."""
    real = isinstance(value, (int, float)) and not isinstance(value, bool)
    if fraction and not (real and 0 <= value < 1):
        raise ConfigError(f"{name} must be a number in [0, 1), got {value!r}")
    if not fraction and not (real and 0 < value < math.inf):
        raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")


def _check_keys(schema, meta) -> None:
    """`meta` must be a JSON object holding exactly `schema`'s field names."""
    if not isinstance(meta, dict):
        raise FormatError(f"{schema.__name__} must be a JSON object, got {meta!r}")
    names = {f.name for f in fields(schema)}
    if set(meta) != names:
        raise FormatError(
            f"{schema.__name__} keys: missing {sorted(names - set(meta))}, "
            f"unknown {sorted(set(meta) - names)}"
        )


def _json_array(value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise FormatError(f"expected a JSON array, got {value!r}")
    return tuple(value)


@dataclass(frozen=True)
class TruncationConfig:
    strategy: str = "auto"
    window_len: int = 64
    overlap: int = 0
    max_seg_len: int = 64
    sentence_terminators: frozenset[str] = field(
        default_factory=lambda: frozenset({".", "!", "?"})
    )

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown truncation strategy: {self.strategy!r}")
        _check_int("window_len", self.window_len, 1)
        _check_int("overlap", self.overlap)
        _check_int("max_seg_len", self.max_seg_len, 1)
        if not 0 <= self.overlap < self.window_len:
            raise ConfigError(
                f"overlap must satisfy 0 <= overlap < window_len, "
                f"got overlap={self.overlap} window_len={self.window_len}"
            )

    def to_meta(self) -> dict:
        return {**asdict(self), "sentence_terminators": sorted(self.sentence_terminators)}

    @classmethod
    def from_meta(cls, meta: dict) -> "TruncationConfig":
        _check_keys(cls, meta)
        terminators = _json_array(meta["sentence_terminators"])
        if not all(isinstance(t, str) for t in terminators):
            raise ConfigError(f"sentence_terminators must be strings, got {list(terminators)!r}")
        return cls(**{**meta, "sentence_terminators": frozenset(terminators)})


@dataclass(frozen=True)
class ModelConfig:
    labels: tuple[str, ...]
    task_kind: str = TASK_MULTICLASS
    pooling: Pooling = Pooling.MAX
    truncation: TruncationConfig = field(default_factory=TruncationConfig)
    encoder_mode: str = ENCODER_HASH
    n_buckets: int = 4096
    dim: int = 32
    ngram_orders: tuple[int, ...] = (1, 2)
    hash_seed: int = 0
    interaction_layers: int = 0
    n_heads: int = 2
    ff_dim: int | None = None
    max_positions: int | None = None  # None keeps positional embeddings off
    init_seed: int = 0

    def __post_init__(self):
        if not all(isinstance(name, str) for name in self.labels):
            raise ConfigError(f"labels must be strings, got {list(self.labels)!r}")
        LabelVocab(names=self.labels, task_kind=self.task_kind)
        if not isinstance(self.pooling, Pooling):
            raise ConfigError(f"pooling must be a Pooling, got {self.pooling!r}")
        if self.encoder_mode not in (ENCODER_HASH, ENCODER_PRECOMPUTED):
            raise ConfigError(f"unknown encoder mode {self.encoder_mode!r}")
        _check_int("n_buckets", self.n_buckets, 1)
        _check_int("dim", self.dim, 1)
        if not self.ngram_orders:
            raise ConfigError("ngram_orders must not be empty")
        for order in self.ngram_orders:
            _check_int("ngram order", order, 1)
        if len(set(self.ngram_orders)) != len(self.ngram_orders):
            raise ConfigError(f"ngram_orders repeat an order: {list(self.ngram_orders)}")
        _check_int("hash_seed", self.hash_seed)
        _check_int("init_seed", self.init_seed)
        _check_int("interaction_layers", self.interaction_layers, 0)
        if self.interaction_layers > 0:
            _check_int("n_heads", self.n_heads, 1)
            if self.dim % self.n_heads:
                raise ConfigError(f"dim {self.dim} must divide evenly over {self.n_heads} heads")
        for name in ("ff_dim", "max_positions"):
            if getattr(self, name) is not None:
                _check_int(name, getattr(self, name), 1)
        if self.max_positions is not None and not self.interaction_layers:
            raise ConfigError(f"max_positions {self.max_positions} needs interaction layers: "
                              "positional embeddings are added only before them")
        if self.ff_dim is not None and not self.interaction_layers:
            raise ConfigError(f"ff_dim {self.ff_dim} needs interaction layers: "
                              "the feed-forward block is part of each layer")

    def to_meta(self) -> dict:
        return {**asdict(self), "truncation": self.truncation.to_meta()}

    @classmethod
    def from_meta(cls, meta: dict) -> "ModelConfig":
        _check_keys(cls, meta)
        try:
            pooling = Pooling(meta["pooling"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return cls(**{
            **meta,
            "labels": _json_array(meta["labels"]),
            "pooling": pooling,
            "truncation": TruncationConfig.from_meta(meta["truncation"]),
            "ngram_orders": _json_array(meta["ngram_orders"]),
        })


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 10
    base_lr: float = 5e-5
    batch_size: int = 16
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8

    def __post_init__(self):
        _check_int("epochs", self.epochs, 1)
        _check_real("base_lr", self.base_lr)
        _check_int("batch_size", self.batch_size, 1)
        _check_int("seed", self.seed)
        _check_real("beta1", self.beta1, fraction=True)
        _check_real("beta2", self.beta2, fraction=True)
        _check_real("epsilon", self.epsilon)

    def to_meta(self) -> dict:
        return asdict(self)

    @classmethod
    def from_meta(cls, meta: dict) -> "TrainConfig":
        _check_keys(cls, meta)
        return cls(**meta)
