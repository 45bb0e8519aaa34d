"""End-to-end model: truncation -> encoder -> interaction -> head.

Also owns the checkpoint container. Format (version 1, stable):

* line 1: UTF-8 JSON header ending in a newline, holding exactly
  ``{"format": "swipe-checkpoint", "version": 1, "config": {...},
  "train_config": {... or null}, "tensors": [{"name": str, "shape": [int]}]}``,
  where "config" is `ModelConfig.to_meta()` and "train_config"
  `TrainConfig.to_meta()`; the configs' JSON form lives in `swipe/config.py`
* followed by each tensor's raw bytes in manifest order, little-endian
  float64, C order, no padding, and nothing after the last tensor.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from swipe import autodiff as ad
from swipe.config import ENCODER_HASH, ENCODER_PRECOMPUTED, ModelConfig, TrainConfig
from swipe.corpus import Document, LabelVocab
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
    Prediction,
    SwipeParams,
    build_prediction,
    gates_tensor,
    pool_tensor,
    scores_tensor,
)
from swipe.truncate import truncate

HEADER_KEYS = {"format", "version", "config", "train_config", "tensors"}

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
        self.train_config: TrainConfig | None = None

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
            "train_config": None if self.train_config is None else self.train_config.to_meta(),
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
            try:
                config, train_config, manifest = _read_header(fh.readline())
            except FormatError as exc:
                raise FormatError(f"{path}: {exc}") from exc
            model = cls.create(config)
            model.train_config = train_config
            params = model.parameters()
            if [name for name, _ in manifest] != list(params):
                raise FormatError(f"{path}: tensor manifest does not match architecture")
            for name, shape in manifest:
                tensor = params[name]
                if shape != tensor.data.shape:
                    raise FormatError(
                        f"{path}: tensor {name} has shape {shape}, expected {tensor.data.shape}"
                    )
                nbytes = math.prod(shape) * 8
                buf = fh.read(nbytes)
                if len(buf) != nbytes:
                    raise FormatError(f"{path}: truncated tensor {name}")
                tensor.data = np.frombuffer(buf, dtype="<f8").reshape(shape).astype(
                    np.float64, copy=True
                )
            if fh.read(1):
                raise FormatError(f"{path}: trailing bytes after the last tensor")
        return model


def _read_header(line: bytes) -> tuple[ModelConfig, TrainConfig | None,
                                       list[tuple[str, tuple[int, ...]]]]:
    """Check a checkpoint header line; returns its configs and tensor manifest."""
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
        raise FormatError(f"bad checkpoint header: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError("checkpoint header is not a JSON object")
    if set(header) != HEADER_KEYS:
        raise FormatError(
            f"checkpoint header must hold the keys {sorted(HEADER_KEYS)}, got {sorted(header)}"
        )
    version = header["version"]
    if header["format"] != "swipe-checkpoint" or type(version) is not int or version != 1:
        raise FormatError("not a version-1 checkpoint")
    try:
        config = ModelConfig.from_meta(header["config"])
        train_meta = header["train_config"]
        train_config = None if train_meta is None else TrainConfig.from_meta(train_meta)
    except SwipeError as exc:
        raise FormatError(f"bad checkpoint config: {exc}") from exc
    manifest = header["tensors"]
    if not isinstance(manifest, list):
        raise FormatError(f"tensor manifest must be a JSON array, got {manifest!r}")
    for entry in manifest:
        if not (isinstance(entry, dict) and set(entry) == {"name", "shape"}
                and isinstance(entry["name"], str) and isinstance(entry["shape"], list)
                and all(type(n) is int and n >= 0 for n in entry["shape"])):
            raise FormatError(
                'tensor manifest entries must be {"name": str, "shape": [int >= 0, ...]}, '
                f"got {entry!r}"
            )
    return config, train_config, [(e["name"], tuple(e["shape"])) for e in manifest]
