"""End-to-end model: truncation -> encoder -> interaction -> head.

Also owns the checkpoint container. Format (version 1, stable):

* line 1: UTF-8 JSON header ending in a newline:
  ``{"format": "swipe-checkpoint", "version": 1, "config": {...},
  "train_config": {... or null}, "tensors": [{"name": str, "shape": [int]}]}``,
  where "config" holds exactly the fields of `ModelConfig` (its "truncation"
  those of `TruncationConfig`) and "train_config" those of `TrainConfig`
* followed by each tensor's raw bytes in manifest order, little-endian
  float64, C order, no padding, and nothing after the last tensor.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from swipe import autodiff as ad
from swipe.corpus import Document, LabelVocab, TASK_MULTICLASS
from swipe.encoder import (
    HashEncoderParams,
    InteractionParams,
    SegmentFeatures,
    SegmentMatrix,
    encode_features,
    featurize_segments,
    interact_tensor,
)
from swipe.errors import ConfigError, FormatError, SwipeError
from swipe.hashing import derive_seed
from swipe.head import (
    Pooling,
    Prediction,
    SwipeParams,
    build_prediction,
    gates_tensor,
    pool_tensor,
    scores_tensor,
)
from swipe.truncate import TruncationConfig, truncate

ENCODER_HASH = "hash"
ENCODER_PRECOMPUTED = "precomputed"


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
        LabelVocab(names=self.labels, task_kind=self.task_kind)
        if not all(isinstance(name, str) for name in self.labels):
            raise ConfigError(f"labels must be strings, got {list(self.labels)!r}")
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

    def to_meta(self) -> dict:
        """Checkpoint header form: exactly the fields, JSON-serializable."""
        meta = asdict(self)
        meta["truncation"]["sentence_terminators"] = sorted(self.truncation.sentence_terminators)
        return meta

    @classmethod
    def from_meta(cls, meta: dict) -> "ModelConfig":
        """Inverse of `to_meta`; a missing or unknown key is an error."""
        _check_keys(cls, meta)
        trunc = meta["truncation"]
        _check_keys(TruncationConfig, trunc)
        return cls(**{
            **meta,
            "labels": _json_array(meta["labels"]),
            "pooling": Pooling(meta["pooling"]),
            "truncation": TruncationConfig(**{
                **trunc,
                "sentence_terminators": frozenset(_json_array(trunc["sentence_terminators"])),
            }),
            "ngram_orders": _json_array(meta["ngram_orders"]),
        })


def _check_int(name: str, value, minimum: int | None = None) -> None:
    if type(value) is not int or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")


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


#: Cacheable forward input of one document: hashed n-gram ids (hash encoder)
#: or its frozen segment vectors (precomputed encoder).
Features = SegmentFeatures | SegmentMatrix


@dataclass
class ForwardOut:
    doc_scores: ad.Tensor            # (L,)
    seg_scores: ad.Tensor            # (m, L)
    gates: ad.Tensor | None          # (m, L)
    pool_argmax: np.ndarray | None   # (L,) for max variants

    def signature(self) -> tuple | None:
        """Hashable pooling-path marker; changes when a max argmax flips."""
        if self.pool_argmax is None:
            return None
        return tuple(int(i) for i in self.pool_argmax)


class SwipeModel:
    """Trainable classifier over truncated segments."""

    def __init__(
        self,
        config: ModelConfig,
        encoder: HashEncoderParams | None,
        interaction: InteractionParams | None,
        head: SwipeParams,
    ):
        self.config = config
        self.vocab = LabelVocab(names=config.labels, task_kind=config.task_kind)
        self.encoder = encoder
        self.interaction = interaction
        self.head = head
        self.precomputed: dict[str, SegmentMatrix] | None = None
        self.train_config_meta: dict | None = None

    @classmethod
    def create(cls, config: ModelConfig, label_vectors: np.ndarray | None = None) -> "SwipeModel":
        encoder = None
        if config.encoder_mode == ENCODER_HASH:
            encoder = HashEncoderParams.create(
                n_buckets=config.n_buckets,
                dim=config.dim,
                ngram_orders=config.ngram_orders,
                hash_seed=config.hash_seed,
                init_seed=derive_seed("encoder-init", config.init_seed),
            )
        interaction = None
        if config.interaction_layers > 0:
            interaction = InteractionParams.create(
                num_layers=config.interaction_layers,
                dim=config.dim,
                n_heads=config.n_heads,
                ff_dim=config.ff_dim,
                max_positions=config.max_positions,
                init_seed=derive_seed("interaction-init", config.init_seed),
            )
        head = SwipeParams.create(
            n_labels=len(config.labels),
            dim=config.dim,
            init_seed=derive_seed("head-init", config.init_seed),
            label_vectors=label_vectors,
        )
        return cls(config=config, encoder=encoder, interaction=interaction, head=head)

    def attach_vectors(self, matrices: dict[str, SegmentMatrix]) -> None:
        """Provide frozen precomputed segment vectors (precomputed mode)."""
        if self.config.encoder_mode != ENCODER_PRECOMPUTED:
            raise ConfigError("attach_vectors requires precomputed encoder mode")
        for mat in matrices.values():
            if mat.h != self.config.dim:
                raise ConfigError(
                    f"precomputed vectors have h={mat.h}, model expects {self.config.dim}"
                )
        self.precomputed = matrices

    def parameters(self) -> dict[str, ad.Tensor]:
        """Trainable tensors by stable name (iteration order is fixed)."""
        params: dict[str, ad.Tensor] = {}
        if self.encoder is not None:
            params["encoder.table"] = self.encoder.table
        if self.interaction is not None:
            for i, layer in enumerate(self.interaction.layers):
                for name in ("wq", "wk", "wv", "wo", "ff_in", "ff_out",
                             "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias"):
                    params[f"interaction.{i}.{name}"] = getattr(layer, name)
            if self.interaction.final_gain is not None:
                params["interaction.final_gain"] = self.interaction.final_gain
                params["interaction.final_bias"] = self.interaction.final_bias
            if self.interaction.positions is not None:
                params["interaction.positions"] = self.interaction.positions
        params["head.weight"] = self.head.weight
        params["head.bias"] = self.head.bias
        params["head.gate_weight"] = self.head.gate_weight
        params["head.gate_bias"] = self.head.gate_bias
        return params

    def zero_grad(self) -> None:
        for tensor in self.parameters().values():
            tensor.zero_grad()

    def featurize(self, doc: Document) -> Features:
        if self.config.encoder_mode == ENCODER_PRECOMPUTED:
            if self.precomputed is None or doc.id not in self.precomputed:
                raise KeyError(f"no precomputed vectors for document {doc.id!r}")
            return self.precomputed[doc.id]
        return featurize_segments(truncate(doc, self.config.truncation), self.encoder)

    def forward(self, feats: Features) -> ForwardOut:
        if isinstance(feats, SegmentFeatures):
            x = encode_features(feats, self.encoder)
        else:
            x = ad.Tensor(feats.rows)  # frozen: no gradient
        if self.interaction is not None:
            x = interact_tensor(x, self.interaction)
        seg_scores = scores_tensor(x, self.head)
        gates = gates_tensor(x, self.head) if self.config.pooling.gated else None
        doc_scores, argmax = pool_tensor(seg_scores, gates, self.config.pooling)
        return ForwardOut(doc_scores=doc_scores, seg_scores=seg_scores,
                          gates=gates, pool_argmax=argmax)

    def predict_features(self, feats: Features) -> Prediction:
        out = self.forward(feats)
        return build_prediction(
            doc_id=feats.doc_id,
            strategy=self.config.pooling,
            doc_scores=out.doc_scores.data,
            seg_scores=out.seg_scores.data.T,
            gates=out.gates.data.T if out.gates is not None else None,
            task_kind=self.config.task_kind,
        )

    def predict(self, doc: Document) -> Prediction:
        return self.predict_features(self.featurize(doc))

    # -- checkpoint container ------------------------------------------------

    def save(self, path) -> None:
        params = self.parameters()
        manifest = [{"name": name, "shape": list(t.data.shape)} for name, t in params.items()]
        header = {
            "format": "swipe-checkpoint",
            "version": 1,
            "config": self.config.to_meta(),
            "train_config": self.train_config_meta,
            "tensors": manifest,
        }
        path = Path(path)
        with path.open("wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            for tensor in params.values():
                fh.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())

    @classmethod
    def load(cls, path) -> "SwipeModel":
        path = Path(path)
        with path.open("rb") as fh:
            header_line = fh.readline()
            try:
                header = json.loads(header_line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise FormatError(f"{path}: bad checkpoint header: {exc}") from exc
            if not isinstance(header, dict):
                raise FormatError(f"{path}: checkpoint header is not a JSON object")
            if header.get("format") != "swipe-checkpoint" or header.get("version") != 1:
                raise FormatError(f"{path}: not a version-1 checkpoint")
            try:
                config = ModelConfig.from_meta(header["config"])
            except (SwipeError, KeyError, TypeError, ValueError) as exc:
                raise FormatError(f"{path}: bad checkpoint config: {exc}") from exc
            model = cls.create(config)
            model.train_config_meta = header.get("train_config")
            params = model.parameters()
            manifest = header["tensors"]
            if [m["name"] for m in manifest] != list(params.keys()):
                raise FormatError(f"{path}: tensor manifest does not match architecture")
            for entry in manifest:
                tensor = params[entry["name"]]
                shape = tuple(entry["shape"])
                if shape != tensor.data.shape:
                    raise FormatError(
                        f"{path}: tensor {entry['name']} has shape {shape}, "
                        f"expected {tensor.data.shape}"
                    )
                nbytes = int(np.prod(shape)) * 8 if shape else 8
                buf = fh.read(nbytes)
                if len(buf) != nbytes:
                    raise FormatError(f"{path}: truncated tensor {entry['name']}")
                tensor.data = np.frombuffer(buf, dtype="<f8").reshape(shape).astype(
                    np.float64, copy=True
                )
            if fh.read(1):
                raise FormatError(f"{path}: trailing bytes after the last tensor")
        return model
