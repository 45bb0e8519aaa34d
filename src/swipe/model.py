"""End-to-end model: truncation -> encoder -> interaction -> head.

`parameter_shapes(config)` is the one place that names, orders and shapes
the model's parameters; a `SwipeModel` holds them as one dict of tensors in
that order, which `create` fills and `from_arrays` wraps. Also owns the
checkpoint container. Format (version 1, stable):

* line 1: UTF-8 JSON header ending in a newline, holding exactly
  ``{"format": "swipe-checkpoint", "version": 1, "config": {...},
  "train_config": {... or null}, "tensors": [{"name": str, "shape": [int]}]}``,
  where "config" is `ModelConfig.to_meta()` and "train_config"
  `TrainConfig.to_meta()`; the configs' JSON form lives in `swipe/config.py`
* followed by each tensor's raw bytes in manifest order, little-endian
  float64, C order, no padding, and nothing after the last tensor.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from swipe import autodiff as ad
from swipe.config import (
    ENCODER_HASH,
    ENCODER_PRECOMPUTED,
    ModelConfig,
    TrainConfig,
    TruncationConfig,
)
from swipe.corpus import Document, LabelVocab
from swipe.encoder import (
    SegmentFeatures,
    SegmentMatrix,
    encode_features,
    featurize_segments,
    interact_tensor,
    interaction_bytes,
)
from swipe.errors import ConfigError, FormatError, SwipeError
from swipe.hashing import derive_seed, ngram_counts
from swipe.head import (
    Prediction,
    build_prediction,
    gates_tensor,
    pool_tensor,
    scores_tensor,
)
from swipe.truncate import Segment, truncate

HEADER_KEYS = {"format", "version", "config", "train_config", "tensors"}

#: Cacheable forward input of one document: hashed n-gram ids (hash encoder)
#: or its frozen segment vectors (precomputed encoder).
Features = SegmentFeatures | SegmentMatrix

#: Byte budget of one inference chunk's largest temporaries: the embedding
#: gather (n-grams x dim x 8 bytes; with precomputed vectors, the stacked
#: segment rows), the hashing byte matrix (tokens x bytes of the chunk's
#: widest token, counted as 4 bytes per character, UTF-8's most, so no token
#: is encoded twice) and, with interaction layers, the activations the
#: layers keep (`encoder.interaction_bytes`). A chunk closes
#: before a document would take it past the budget; a document over budget
#: on its own runs in a chunk of its own.
CHUNK_BYTES = 1 << 20

#: Per-layer interaction parameters, in checkpoint order.
LAYER_PARAMS = ("wq", "wk", "wv", "wo", "ff_in", "ff_out",
                "ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias")


@dataclass(frozen=True)
class Batch:
    """Ragged batch: every document's segments stacked into one encoder input.

    Document b owns segment rows offsets[b]:offsets[b+1] of `inputs`: one
    n-gram bag per segment (hash encoder) or one frozen vector per segment
    (precomputed encoder). A single document is a batch of one,
    `Batch.of([feats])`.
    """

    inputs: Features
    offsets: np.ndarray  # (B+1,)

    @classmethod
    def of(cls, feats: Sequence[Features]) -> "Batch":
        offsets = np.concatenate(([0], np.cumsum([f.m for f in feats])))
        name = " ".join(f.doc_id for f in feats)
        if all(isinstance(f, SegmentMatrix) for f in feats):
            inputs = SegmentMatrix(doc_id=name, rows=np.concatenate([f.rows for f in feats]))
        elif all(isinstance(f, SegmentFeatures) for f in feats):
            shifts = np.cumsum([0] + [len(f.ids) for f in feats[:-1]])
            bags = [f.offsets[1:] + shift for f, shift in zip(feats, shifts)]
            inputs = SegmentFeatures(doc_id=name, ids=np.concatenate([f.ids for f in feats]),
                                     offsets=np.concatenate(([0], *bags)))
        else:
            raise ConfigError("a batch cannot mix hashed and precomputed features")
        return cls(inputs, offsets)


@dataclass
class ForwardOut:
    """One forward pass over a `Batch` of B documents with M segments in all."""

    doc_scores: ad.Tensor            # (B, L)
    seg_scores: ad.Tensor            # (M, L), in the batch's segment order
    gates: ad.Tensor | None          # (M, L)
    pooled_rows: ad.Tensor           # (M, L) gates x seg_scores when gated, else seg_scores
    pool_argmax: np.ndarray | None   # (B, L) segment within each document, max variants

    def signature(self) -> tuple | None:
        """Hashable pooling-path marker; changes when a max argmax flips."""
        if self.pool_argmax is None:
            return None
        return tuple(self.pool_argmax.ravel().tolist())


def parameter_shapes(config: ModelConfig) -> Iterator[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every parameter of a model with `config`, in
    checkpoint order, computed from the config alone and lazily, so a config
    claiming a huge architecture costs nothing until it is consumed."""
    dim, n_labels = config.dim, len(config.labels)
    if config.encoder_mode == ENCODER_HASH:
        yield "encoder.table", (config.n_buckets, dim)
    if config.interaction_layers > 0:
        ff_dim = 4 * dim if config.ff_dim is None else config.ff_dim
        shapes = dict.fromkeys(("wq", "wk", "wv", "wo"), (dim, dim))
        shapes |= dict.fromkeys(("ln1_gain", "ln1_bias", "ln2_gain", "ln2_bias"), (dim,))
        shapes |= {"ff_in": (dim, ff_dim), "ff_out": (ff_dim, dim)}
        for i in range(config.interaction_layers):
            for name in LAYER_PARAMS:
                yield f"interaction.{i}.{name}", shapes[name]
        yield "interaction.final_gain", (dim,)
        yield "interaction.final_bias", (dim,)
        if config.max_positions is not None:
            yield "interaction.positions", (config.max_positions, dim)
    yield "head.weight", (n_labels, dim)
    yield "head.bias", (n_labels,)
    yield "head.gate_weight", (n_labels, dim)
    yield "head.gate_bias", (n_labels,)


class SwipeModel:
    """Trainable classifier over truncated segments.

    `params` maps each name of `parameter_shapes(config)` to its tensor, in
    that order.
    """

    def __init__(self, config: ModelConfig, params: dict[str, ad.Tensor]):
        self.config = config
        self.vocab = LabelVocab(names=config.labels, task_kind=config.task_kind)
        self.params = params
        self.precomputed: dict[str, SegmentMatrix] | None = None
        self.train_config: TrainConfig | None = None

    @classmethod
    def create(cls, config: ModelConfig) -> "SwipeModel":
        """Fresh parameters drawn from `config.init_seed`.

        Each part (encoder, interaction, head) draws from its own stream, in
        `parameter_shapes` order. Matrices are zero-mean Gaussian: a layer's
        weights ("interaction.<i>.wq" ... "ff_out") with std 1/sqrt(rows),
        every other table with std 1/sqrt(dim). Gains start at one, biases
        at zero.
        """
        streams = {part: np.random.default_rng(derive_seed(f"{part}-init", config.init_seed))
                   for part in ("encoder", "interaction", "head")}
        params = {}
        for name, shape in parameter_shapes(config):
            part, *_, leaf = name.split(".")
            if len(shape) == 1:
                data = np.ones(shape) if leaf.endswith("gain") else np.zeros(shape)
            else:
                fan_in = shape[0] if leaf in LAYER_PARAMS else config.dim
                data = streams[part].normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)
            params[name] = ad.Tensor(data, requires_grad=True)
        return cls(config, params)

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

    def zero_grad(self) -> None:
        for tensor in self.params.values():
            tensor.zero_grad()

    def featurize(self, doc: Document) -> Features:
        if self.config.encoder_mode == ENCODER_PRECOMPUTED:
            return self._vectors(doc)
        return featurize_segments(truncate(doc, self.config.truncation), self.config)

    def _vectors(self, doc: Document) -> SegmentMatrix:
        if self.precomputed is None or doc.id not in self.precomputed:
            raise KeyError(f"no precomputed vectors for document {doc.id!r}")
        return self.precomputed[doc.id]

    def forward(self, batch: Batch) -> ForwardOut:
        """One pass over a ragged batch: every segment scored by one
        `ad.linear`, pooled per document."""
        if isinstance(batch.inputs, SegmentFeatures):
            x = encode_features(batch.inputs, self.params)
        else:
            x = ad.Tensor(batch.inputs.rows)  # frozen: no gradient
        if self.config.interaction_layers:
            x = interact_tensor(x, self.params, self.config, batch.offsets)
        seg_scores = scores_tensor(x, self.params)
        gates = gates_tensor(x, self.params) if self.config.pooling.gated else None
        doc_scores, rows, argmax = pool_tensor(seg_scores, gates, self.config.pooling,
                                               batch.offsets)
        return ForwardOut(doc_scores=doc_scores, seg_scores=seg_scores, gates=gates,
                          pooled_rows=rows, pool_argmax=argmax)

    def _predictions(self, batch: Batch, doc_ids: Sequence[str]) -> list[Prediction]:
        """One forward over `batch` and one `build_prediction` over its arrays; key
        segments are max pooling's argmax, or the sum-pooled rows' first maximizers.
        Overflow warnings are off: `build_prediction` rejects non-finite scores."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.forward(batch)
            keys = out.pool_argmax
            if keys is None:
                argmax = ad.ragged_max(ad.Tensor(out.pooled_rows.data), batch.offsets)[1]
                keys = argmax - batch.offsets[:-1, None]
        gates = None if out.gates is None else out.gates.data
        return build_prediction(doc_ids, out.doc_scores.data, keys, out.seg_scores.data,
                                gates, batch.offsets, self.config.task_kind)

    def predict_features(self, feats: Features) -> Prediction:
        """Predict one document from its features: a batch of one."""
        return self._predictions(Batch.of([feats]), [feats.doc_id])[0]

    def predict(self, doc: Document) -> Prediction:
        """Predict one document: a chunk of one (see `predict_many`)."""
        hashed = self.config.encoder_mode == ENCODER_HASH
        segments = truncate(doc, self.config.truncation) if hashed else None
        return next(self._predict_chunk([(doc, segments)]))[2]

    def predict_many(
        self, docs: Iterable[Document], truncation: TruncationConfig | None = None,
    ) -> Iterator[tuple[Document, list[Segment] | None, Prediction]]:
        """Predict documents chunk by chunk; yields (doc, segments, prediction)
        in input order.

        Each document is truncated once, by `truncation` (default: the
        model's own); `segments` is None with precomputed vectors. A chunk's
        segments are hashed in one `featurize_segments` call and scored by
        one `forward`, with or without interaction layers (attention stays
        within each document). A chunk closes before it would exceed
        `CHUNK_BYTES`. A document's prediction is bit for bit the same
        whichever documents share its chunk.
        """
        trunc = self.config.truncation if truncation is None else truncation
        hashed = self.config.encoder_mode == ENCODER_HASH
        chunk: list[tuple[Document, list[Segment] | None]] = []
        size = tokens = width = 0  # the chunk's per-document bytes, tokens, widest token
        for doc in docs:
            segments = truncate(doc, trunc) if hashed else None
            doc_size, doc_tokens, doc_width = self._chunk_size(doc, segments)
            if chunk and (size + doc_size
                          + (tokens + doc_tokens) * max(width, doc_width) > CHUNK_BYTES):
                yield from self._predict_chunk(chunk)
                chunk, size, tokens, width = [], 0, 0, 0
            chunk.append((doc, segments))
            size, tokens, width = size + doc_size, tokens + doc_tokens, max(width, doc_width)
        if chunk:
            yield from self._predict_chunk(chunk)

    def _chunk_size(self, doc: Document,
                    segments: list[Segment] | None) -> tuple[int, int, int]:
        """(bytes of the document's embedding gather and interaction
        activations, tokens hashed, most bytes a token can take); see
        `CHUNK_BYTES`."""
        config = self.config
        if segments is None:
            m = rows = self._vectors(doc).m
            tokens = width = 0
        else:
            m = len(segments)
            lengths = [len(seg.tokens) for seg in segments]
            all_tokens = itertools.chain.from_iterable(seg.tokens for seg in segments)
            rows = int(ngram_counts(lengths, config.ngram_orders).sum())
            tokens, width = sum(lengths), 4 * max(map(len, all_tokens))
        return rows * config.dim * 8 + interaction_bytes(m, self.params, config), tokens, width

    def _predict_chunk(self, chunk: list[tuple[Document, list[Segment] | None]]):
        if chunk[0][1] is None:
            batch = Batch.of([self._vectors(doc) for doc, _ in chunk])
        else:
            counts = [len(segments) for _, segments in chunk]
            batch = Batch(
                featurize_segments([seg for _, segments in chunk for seg in segments],
                                   self.config),
                np.concatenate(([0], np.cumsum(counts))),
            )
        preds = self._predictions(batch, [doc.id for doc, _ in chunk])
        for (doc, segments), pred in zip(chunk, preds):
            yield doc, segments, pred

    # -- checkpoint container ------------------------------------------------

    def save(self, path) -> None:
        manifest = [{"name": name, "shape": list(t.data.shape)}
                    for name, t in self.params.items()]
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
            for tensor in self.params.values():
                fh.write(np.ascontiguousarray(tensor.data, dtype="<f8").tobytes())

    @classmethod
    def from_arrays(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> "SwipeModel":
        """A model whose parameters are `arrays`, not copied, named and shaped
        as `parameter_shapes(config)` lists them."""
        return cls(config, {name: ad.Tensor(arrays[name], requires_grad=True)
                            for name, _ in parameter_shapes(config)})

    @classmethod
    def load(cls, path) -> "SwipeModel":
        """Read a checkpoint; the header and the payload size are checked in
        full before any parameter is allocated, and each tensor is read
        straight into its array."""
        path = Path(path)
        with path.open("rb") as fh:
            try:
                config, train_config, manifest = _read_header(fh.readline())
                _check_manifest(config, manifest, os.fstat(fh.fileno()).st_size - fh.tell())
                arrays = {name: _read_tensor(fh, name, shape) for name, shape in manifest}
            except FormatError as exc:
                raise FormatError(f"{path}: {exc}") from exc
        model = cls.from_arrays(config, arrays)
        model.train_config = train_config
        return model


def _read_tensor(fh, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The next little-endian float64 tensor of `fh`, read into a new array;
    every entry must be finite."""
    out = np.empty(shape, dtype="<f8")
    if fh.readinto(out) != out.nbytes:
        raise FormatError(f"truncated tensor {name}")
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise FormatError(f"tensor {name} holds {out.flat[bad[0]]} at flat index {bad[0]}")
    return out.astype(np.float64, copy=False)


def _check_manifest(config: ModelConfig, manifest: list[tuple[str, tuple[int, ...]]],
                    payload_bytes: int) -> None:
    """The manifest must list `config`'s tensors, and the payload hold exactly them."""
    expected = list(itertools.islice(parameter_shapes(config), len(manifest) + 1))
    if [name for name, _ in expected] != [name for name, _ in manifest]:
        raise FormatError("tensor manifest does not match architecture")
    end = 0
    for (name, shape), (_, want) in zip(manifest, expected):
        if shape != want:
            raise FormatError(f"tensor {name} has shape {shape}, expected {want}")
        end += math.prod(shape) * 8
        if end > payload_bytes:
            raise FormatError(f"truncated tensor {name}")
    if end < payload_bytes:
        raise FormatError("trailing bytes after the last tensor")


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
