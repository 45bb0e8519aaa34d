"""End-to-end model: truncation -> encoder -> interaction -> head.

`parameter_shapes(config)` is the one place that names, orders and shapes
the model's parameters; a `SwipeModel` holds them as one dict of float64
arrays in that order, which `create` fills and `from_arrays` takes, and wraps
them in tensors only for one pass (`tensors`). Also owns the one
binary container, for checkpoints and vector sidecars (version 1, stable):
line 1 is a UTF-8 JSON header with sorted keys, then each array's raw bytes
in header order, little-endian float64, C order, no padding, and nothing
after the last array. A checkpoint header holds exactly "config"
(`ModelConfig.to_meta()`), "format": "swipe-checkpoint", "tensors" (each
{"name": str, "shape": [int]}), "train_config" (`TrainConfig.to_meta()` or
null) and "version": 1; a sidecar's holds "documents" ([[doc_id, rows], ...],
each a (rows, h) array), "format": "swipe-vectors", "h" and "version": 1.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

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
from swipe.hashing import WIDTH_CAP, derive_seed
from swipe.head import (
    Prediction,
    build_prediction,
    gates_tensor,
    pool_tensor,
    scores_tensor,
)
from swipe.truncate import Segment, truncate

CHECKPOINT_KEYS = {"format", "version", "config", "train_config", "tensors"}
VECTORS_KEYS = {"format", "version", "h", "documents"}
Manifest = list[tuple[str, tuple[int, ...]]]

#: One document's forward input: hashed n-gram ids, or frozen segment vectors.
Features = SegmentFeatures | SegmentMatrix

#: Byte budget of one chunk, the sum of its documents' `chunk_size`: with the
#: hash encoder a bound from the token count (a token starts at most one n-gram
#: per order, each gathered as dim x 8 bytes, and fills at most
#: `hashing.WIDTH_CAP` bytes of the hashing byte matrix), with precomputed
#: vectors the rows; plus the activations interaction layers keep
#: (`encoder.interaction_bytes`). A chunk closes before a document would take
#: it past the budget; a document over it runs alone.
CHUNK_BYTES = 1 << 20

#: Longest container header line read, newline included; a longer one is refused.
HEADER_BYTES = 64 << 20

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
        kind = type(feats[0])
        if any(type(f) is not kind for f in feats):
            raise ConfigError("a batch cannot mix hashed and precomputed features")
        return cls(kind.concat(feats), np.concatenate(([0], np.cumsum([f.m for f in feats]))))


#: Documents featurized together, each with its truncation (None for vectors).
Chunk = list[tuple[Document, list[Segment] | None]]


class HashEncoder:
    """Trainable encoder: each truncated segment's hashed n-grams, averaged
    over the rows of "encoder.table" they hit."""

    def __init__(self, config: ModelConfig):
        self.config = config

    def segments(self, doc: Document, truncation: TruncationConfig) -> list[Segment]:
        return truncate(doc, truncation)

    def chunk_size(self, doc: Document, segments: list[Segment]) -> tuple[int, int]:
        """(segments, a bound on the bytes of their embedding gather and byte matrix)."""
        tokens = sum(len(seg.tokens) for seg in segments)
        return len(segments), tokens * (len(self.config.ngram_orders) * self.config.dim * 8
                                        + WIDTH_CAP)

    def featurize(self, chunk: Chunk) -> Batch:
        """The chunk's segments, hashed in one `featurize_segments` call."""
        offsets = np.array([0, *itertools.accumulate(len(segments) for _, segments in chunk)])
        segments = [seg for _, doc_segments in chunk for seg in doc_segments]
        return Batch(featurize_segments(segments, self.config), offsets)

    def split(self, chunk: Chunk) -> list[SegmentFeatures]:
        """Each document's features: views of the chunk's hashed ids, bag
        offsets rebased to each document's first id."""
        batch = self.featurize(chunk)
        spans = zip(chunk, batch.offsets[:-1].tolist(), batch.offsets[1:].tolist())
        ids, bags = batch.inputs.ids, batch.inputs.offsets
        return [SegmentFeatures(doc_id=doc.id, ids=ids[bags[start]:bags[stop]],
                                offsets=bags[start:stop + 1] - bags[start])
                for (doc, _), start, stop in spans]

    def encode(self, inputs: SegmentFeatures, params: dict[str, ad.Tensor]) -> ad.Tensor:
        return encode_features(inputs, params)

    def annotate(self, record: dict, segments: list[Segment]) -> dict:
        """A prediction record with each label's key segment text."""
        for entry in record["per_label"]:
            entry["key_segment_text"] = " ".join(segments[entry["key_segment"]].tokens)
        return record


class VectorEncoder(dict[str, SegmentMatrix]):
    """Frozen encoder: the precomputed segment vectors, by document id."""

    def __missing__(self, doc_id: str) -> SegmentMatrix:
        raise KeyError(f"no precomputed vectors for document {doc_id!r}")

    def segments(self, doc: Document, truncation: TruncationConfig) -> None:
        return None

    def chunk_size(self, doc: Document, segments: None) -> tuple[int, int]:
        rows = self[doc.id].rows  # nothing is hashed
        return len(rows), rows.nbytes

    def featurize(self, chunk: Chunk) -> Batch:
        return Batch.of([self[doc.id] for doc, _ in chunk])

    def split(self, chunk: Chunk) -> list[SegmentMatrix]:
        """The attached matrices themselves, never stacked."""
        return [self[doc.id] for doc, _ in chunk]

    def encode(self, inputs: SegmentMatrix, params: dict[str, ad.Tensor]) -> ad.Tensor:
        return ad.Tensor(inputs.rows)  # frozen: no gradient

    def annotate(self, record: dict, segments: None) -> dict:
        return record  # vectors carry no text


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

    `params` maps each name of `parameter_shapes(config)` to its float64
    array, in that order. `encoder`, picked once, does every featurize, chunk
    and encode.
    """

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.vocab = LabelVocab(names=config.labels, task_kind=config.task_kind)
        self.params = params
        self.encoder: HashEncoder | VectorEncoder = (
            HashEncoder(config) if config.encoder_mode == ENCODER_HASH else VectorEncoder())
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
                params[name] = np.ones(shape) if leaf.endswith("gain") else np.zeros(shape)
            else:
                fan_in = shape[0] if leaf in LAYER_PARAMS else config.dim
                params[name] = streams[part].normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)
        return cls(config, params)

    def attach_vectors(self, matrices: dict[str, SegmentMatrix]) -> None:
        """Encode with `matrices`, frozen segment vectors by document id (precomputed mode)."""
        if self.config.encoder_mode != ENCODER_PRECOMPUTED:
            raise ConfigError("attach_vectors requires precomputed encoder mode")
        for mat in matrices.values():
            if mat.h != self.config.dim:
                raise ConfigError(
                    f"precomputed vectors have h={mat.h}, model expects {self.config.dim}"
                )
        self.encoder = VectorEncoder(matrices)

    @property
    def precomputed(self) -> VectorEncoder | None:
        return self.encoder if isinstance(self.encoder, VectorEncoder) else None

    def featurize(self, doc: Document) -> Features:
        """One document's features: a chunk of one, split."""
        return self.encoder.split([(doc, self.encoder.segments(doc, self.config.truncation))])[0]

    def tensors(self, requires_grad: bool = False) -> dict[str, ad.Tensor]:
        """The parameters wrapped for one pass, sharing their arrays: a forward
        over them records a tape, whose backward fills each tensor's `grad`,
        only if they require grad."""
        return {name: ad.Tensor(array, requires_grad) for name, array in self.params.items()}

    def forward(self, batch: Batch, params: dict[str, ad.Tensor]) -> ForwardOut:
        """One pass over a ragged batch with the tensors `params` (`tensors()`):
        every segment scored by one `ad.linear`, pooled per document."""
        x = self.encoder.encode(batch.inputs, params)
        if self.config.interaction_layers:
            x = interact_tensor(x, params, self.config, batch.offsets)
        seg_scores = scores_tensor(x, params)
        gates = gates_tensor(x, params) if self.config.pooling.gated else None
        doc_scores, rows, argmax = pool_tensor(seg_scores, gates, self.config.pooling,
                                               batch.offsets)
        return ForwardOut(doc_scores=doc_scores, seg_scores=seg_scores, gates=gates,
                          pooled_rows=rows, pool_argmax=argmax)

    def _predictions(self, batch: Batch, doc_ids: Sequence[str]) -> list[Prediction]:
        """One tape-free forward over `batch` and one `build_prediction` over its
        arrays; key segments are max pooling's argmax, or the sum-pooled rows'
        first maximizers. Overflow warnings are off: `build_prediction` rejects
        non-finite scores."""
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.forward(batch, self.tensors())
            keys = out.pool_argmax
            if keys is None:
                argmax = ad.ragged_max(out.pooled_rows, batch.offsets)[1]
                keys = argmax - batch.offsets[:-1, None]
        gates = None if out.gates is None else out.gates.data
        return build_prediction(doc_ids, out.doc_scores.data, keys, out.seg_scores.data,
                                gates, batch.offsets, self.config.task_kind)

    def predict_features(self, feats: Features) -> Prediction:
        """Predict one document from its features: a batch of one."""
        return self._predictions(Batch.of([feats]), [feats.doc_id])[0]

    def predict(self, doc: Document) -> Prediction:
        """Predict one document: a chunk of one (see `predict_many`)."""
        chunk = [(doc, self.encoder.segments(doc, self.config.truncation))]
        return self._predictions(self.encoder.featurize(chunk), [doc.id])[0]

    def predict_many(
        self, docs: Iterable[Document], truncation: TruncationConfig | None = None,
    ) -> Iterator[tuple[Document, list[Segment] | None, Prediction]]:
        """Predict documents chunk by chunk (`chunks`); yields
        (doc, segments, prediction) in input order.

        Each chunk is scored by one `forward`, with or without interaction
        layers (attention stays within each document). A document's
        prediction is bit for bit the same whichever documents share its
        chunk.
        """
        for chunk in self.chunks(docs, truncation):
            preds = self._predictions(self.encoder.featurize(chunk), [doc.id for doc, _ in chunk])
            for (doc, segments), pred in zip(chunk, preds):
                yield doc, segments, pred
            del chunk, preds  # not held while the next chunk is featurized and scored

    def chunks(self, docs: Iterable[Document],
               truncation: TruncationConfig | None = None) -> Iterator[Chunk]:
        """Documents in chunks within `CHUNK_BYTES` (a document over it alone),
        each truncated once by `truncation` (default: the model's own); the
        caller featurizes a chunk where it uses it."""
        trunc = self.config.truncation if truncation is None else truncation
        chunk, size = [], 0
        for doc in docs:
            segments = self.encoder.segments(doc, trunc)
            m, doc_size = self.encoder.chunk_size(doc, segments)
            doc_size += interaction_bytes(m, self.params, self.config)
            if chunk and size + doc_size > CHUNK_BYTES:
                yield chunk
                chunk, size = [], 0
            chunk.append((doc, segments))
            size += doc_size
        if chunk:
            yield chunk

    # -- checkpoint container ------------------------------------------------

    def save(self, path) -> None:
        manifest = [{"name": name, "shape": list(array.shape)}
                    for name, array in self.params.items()]
        header = {
            "format": "swipe-checkpoint",
            "version": 1,
            "config": self.config.to_meta(),
            "train_config": None if self.train_config is None else self.train_config.to_meta(),
            "tensors": manifest,
        }
        write_container(path, header, self.params.values())

    @classmethod
    def from_arrays(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> "SwipeModel":
        """A model whose parameters are `arrays`, not copied, named and shaped
        as `parameter_shapes(config)` lists them."""
        return cls(config, {name: arrays[name] for name, _ in parameter_shapes(config)})

    @classmethod
    def load(cls, path) -> "SwipeModel":
        """Read a checkpoint with `read_container`."""
        (config, train_config), arrays = read_container(path, "checkpoint", _checkpoint_manifest)
        model = cls.from_arrays(config, arrays)
        model.train_config = train_config
        return model


def write_container(path, header: dict, arrays: Iterable[np.ndarray]) -> None:
    """Write `header` as line 1, then `arrays` as little-endian float64, C order."""
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for array in arrays:
            fh.write(np.ascontiguousarray(array, dtype="<f8"))


def read_container(path, kind: str, parse: Callable[[dict], tuple[object, Manifest]]
                   ) -> tuple[object, dict[str, np.ndarray]]:
    """(metadata, arrays by name) of a container file. `parse(header)` checks
    the header and returns the metadata and the (name, shape) of each array;
    the payload size is checked before any array is allocated, and each is
    read straight into its own. Any FormatError names `path`."""
    with open(path, "rb") as fh:
        try:
            line = fh.readline(HEADER_BYTES)
            if not line.endswith(b"\n"):
                raise FormatError(f"bad {kind} header: no newline in its first {len(line)} bytes")
            try:
                header = json.loads(line.decode("utf-8"))
            except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
                raise FormatError(f"bad {kind} header: {exc}") from exc
            if not isinstance(header, dict):
                raise FormatError(f"{kind} header is not a JSON object")
            meta, manifest = parse(header)
            payload_bytes, end = os.fstat(fh.fileno()).st_size - fh.tell(), 0
            for name, shape in manifest:
                end += math.prod(shape) * 8
                if end > payload_bytes:
                    raise FormatError(f"truncated tensor {name}")
            if end < payload_bytes:
                raise FormatError("trailing bytes after the last tensor")
            arrays = {name: _read_tensor(fh, name, shape) for name, shape in manifest}
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc
    return meta, arrays


def write_precomputed(matrices: dict[str, SegmentMatrix], path) -> None:
    """Write `matrices`, which share one h, as a vectors sidecar."""
    items = list(matrices.values())
    if not items:
        raise FormatError("write_precomputed: nothing to write")
    for mat in items:
        if not isinstance(mat.doc_id, str) or mat.h != items[0].h:
            raise FormatError(f"write_precomputed: document {mat.doc_id!r} (h={mat.h}) needs a "
                              f"string id and the first document's h={items[0].h}")
    header = {"format": "swipe-vectors", "version": 1, "h": items[0].h,
              "documents": [[mat.doc_id, mat.m] for mat in items]}
    write_container(path, header, (mat.rows for mat in items))


def load_precomputed(path) -> dict[str, SegmentMatrix]:
    """Read a vectors sidecar: frozen segment matrices by document id, in file order."""
    _, arrays = read_container(path, "vectors sidecar", _vectors_manifest)
    return {doc_id: SegmentMatrix(doc_id=doc_id, rows=rows) for doc_id, rows in arrays.items()}


def _read_tensor(fh, name: str, shape: tuple[int, ...]) -> np.ndarray:
    """The next float64 tensor of `fh`, read into a new array; every entry must be finite."""
    out = np.empty(shape, dtype="<f8")
    if fh.readinto(out) != out.nbytes:
        raise FormatError(f"truncated tensor {name}")
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise FormatError(f"tensor {name} holds {out.flat[bad[0]]} at flat index {bad[0]}")
    return out.astype(np.float64, copy=False)


def _check_kind(header: dict, kind: str, fmt: str, keys: set[str]) -> None:
    """`header` must mark format `fmt` version 1 and hold exactly `keys`."""
    version = header.get("version")
    if header.get("format") != fmt or type(version) is not int or version != 1:
        raise FormatError(f"not a version-1 {kind}: format {header.get('format')!r}")
    if set(header) != keys:
        raise FormatError(f"{kind} header must hold the keys {sorted(keys)}, got {sorted(header)}")


def _checkpoint_manifest(header: dict) -> tuple[tuple[ModelConfig, TrainConfig | None],
                                                Manifest]:
    """Check a checkpoint header, its tensor manifest against the architecture
    its config describes; returns the configs and the manifest."""
    _check_kind(header, "checkpoint", "swipe-checkpoint", CHECKPOINT_KEYS)
    try:
        config = ModelConfig.from_meta(header["config"])
        train_meta = header["train_config"]
        train_config = None if train_meta is None else TrainConfig.from_meta(train_meta)
    except SwipeError as exc:
        raise FormatError(f"bad checkpoint config: {exc}") from exc
    entries = header["tensors"]
    if not isinstance(entries, list):
        raise FormatError(f"tensor manifest must be a JSON array, got {entries!r}")
    for entry in entries:
        if not (isinstance(entry, dict) and set(entry) == {"name", "shape"}
                and isinstance(entry["name"], str) and isinstance(entry["shape"], list)
                and all(type(n) is int and n >= 0 for n in entry["shape"])):
            raise FormatError(
                'tensor manifest entries must be {"name": str, "shape": [int >= 0, ...]}, '
                f"got {entry!r}"
            )
    manifest = [(e["name"], tuple(e["shape"])) for e in entries]
    expected = list(itertools.islice(parameter_shapes(config), len(manifest) + 1))
    if [name for name, _ in expected] != [name for name, _ in manifest]:
        raise FormatError("tensor manifest does not match architecture")
    for (name, shape), (_, want) in zip(manifest, expected):
        if shape != want:
            raise FormatError(f"tensor {name} has shape {shape}, expected {want}")
    return (config, train_config), manifest


def _vectors_manifest(header: dict) -> tuple[None, Manifest]:
    """Check a vectors sidecar header; returns its (doc_id, (rows, h)) manifest."""
    _check_kind(header, "vectors sidecar", "swipe-vectors", VECTORS_KEYS)
    h, documents = header["h"], header["documents"]
    if type(h) is not int or h < 1:
        raise FormatError(f"h must be an integer >= 1, got {h!r}")
    if not (isinstance(documents, list) and documents):
        raise FormatError(f"documents must be a non-empty JSON array, got {documents!r}")
    seen = set()
    for entry in documents:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                and type(entry[1]) is int and entry[1] >= 1):
            raise FormatError(f"documents entries must be [str, int >= 1], got {entry!r}")
        if entry[0] in seen:
            raise FormatError(f"duplicate doc_id {entry[0]!r}")
        seen.add(entry[0])
    return None, [(doc_id, (rows, h)) for doc_id, rows in documents]
