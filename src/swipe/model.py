"""End-to-end model: truncation -> encoder -> interaction -> head.

`parameter_shapes(config)` is the one place that names, orders and shapes
the model's parameters; a `SwipeModel` holds them as one dict of float32
arrays in that order, which `create` fills and `from_arrays` takes, and wraps
them in tensors only for one pass (`tensors`). Also owns the one
binary container, for checkpoints and vector sidecars (version 2, stable):
line 1 is a UTF-8 JSON header with sorted keys, then each array's raw bytes
in header order, little-endian float32, C order, no padding, and nothing
after the last array. Every header holds "dtype": "float32" and "sha256",
the hex SHA-256 of the payload (every byte after line 1). A checkpoint
header also holds exactly "config" (`ModelConfig.to_meta()`), "format":
"swipe-checkpoint", "tensors" (each {"name": str, "shape": [int]}),
"train_config" (`TrainConfig.to_meta()` or null) and "version": 2; a
sidecar's holds "documents" ([[doc_id, rows], ...], each a (rows, h) array),
"format": "swipe-vectors", "h" and "version": 2. A version-1 file (float64,
no checksum) is refused: a checkpoint must be retrained, a sidecar written
again.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import weakref
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

#: The container version `save` and `write_precomputed` write, and the only
#: one read.
VERSION = 2
#: The dtype of every parameter, Adam moment, pass and container payload.
DTYPE = np.dtype(np.float32)
CONTAINER_KEYS = {"format", "version", "dtype", "sha256"}
CHECKPOINT_KEYS = CONTAINER_KEYS | {"config", "train_config", "tensors"}
VECTORS_KEYS = CONTAINER_KEYS | {"h", "documents"}
Manifest = list[tuple[str, tuple[int, ...]]]

#: One document's forward input: hashed n-gram ids, or frozen segment vectors.
Features = SegmentFeatures | SegmentMatrix

#: Byte budget of one chunk: a bound on what one tape-free pass over it
#: (featurize, forward, predictions) holds at once. A document is charged its
#: encoder's `chunk_size` (with the hash encoder a bound from the token count:
#: a token starts at most one n-gram per order, each gathered as at most
#: max(dim, label table width) floats of `DTYPE`, and fills at most
#: `hashing.WIDTH_CAP` bytes of the hashing byte matrix, or, when more, what
#: hashing holds per token, `HASH_TOKEN_BYTES`; with precomputed vectors the
#: rows), what interaction layers hold at once
#: (`encoder.interaction_bytes`) and `DOC_BYTES`; a chunk is charged
#: `PASS_BYTES` besides. A chunk closes before a document would take it past
#: the budget; a document over it runs alone.
CHUNK_BYTES = 1 << 20

#: Python objects a pass makes besides its arrays: `PASS_BYTES` however many
#: documents share it (parameter tensors, op results, the hashing call's
#: lists; 4-12 KiB measured with tracemalloc, now and then about 10 KiB more
#: as the interpreter's free lists run empty) and `DOC_BYTES` per document
#: (its `Prediction` and the array views it holds; 1.1 KiB measured).
PASS_BYTES = 32 << 10
DOC_BYTES = 2 << 10

#: What `featurize_segments` holds per token, at most: `HASH_TOKEN_BYTES`
#: (the byte matrix and its transpose, 2 x `hashing.WIDTH_CAP`, plus 160
#: bytes for the token's slots in two lists, its encoded bytes and a short
#: segment's share of the per-segment arrays) and `HASH_ORDER_BYTES` per
#: n-gram order (each n-gram's hash, gather index, the index's temporary and
#: id). tracemalloc measured 104-306 bytes a token for orders 1 to 4, the
#: most with segments as short as the orders allow and a 64-byte token. It
#: exceeds the gather's charge only at a small dim.
HASH_TOKEN_BYTES = 2 * WIDTH_CAP + 160
HASH_ORDER_BYTES = 48

#: Longest container header line read, newline included; a longer one is
#: refused. It is read `HEADER_PIECE` bytes at a time, so that reading it
#: holds little more than the line itself.
HEADER_BYTES = 64 << 20
HEADER_PIECE = 64 << 10

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

    @classmethod
    def concat(cls, batches: Sequence["Batch"]) -> "Batch":
        """Every batch's documents in order, in one batch, offsets shifted."""
        shifts = np.cumsum([0] + [batch.inputs.m for batch in batches[:-1]])
        docs = [batch.offsets[1:] + shift for batch, shift in zip(batches, shifts)]
        inputs = type(batches[0].inputs).concat([batch.inputs for batch in batches])
        return cls(inputs, np.concatenate(([0], *docs)))

    def take(self, docs: np.ndarray) -> "Batch":
        """Documents `docs` of a hashed batch, in that order, packed into a
        batch of their own: one `np.take` of their ids (each document's are
        contiguous) and one cumsum of their bags' lengths. It holds the
        gathered ids and, while they are gathered, an index as large, plus
        offsets. Named by no document: `view` cuts it into named batches."""
        bags = self.inputs.offsets
        first, last = self.offsets[docs], self.offsets[docs + 1]
        counts = last - first
        offsets = np.zeros(len(docs) + 1, np.int64)
        np.cumsum(counts, out=offsets[1:])
        segments = _spans(first, counts)
        lengths = bags[segments + 1]
        lengths -= bags[segments]
        del segments
        bag_offsets = np.zeros(len(lengths) + 1, np.int64)
        np.cumsum(lengths, out=bag_offsets[1:])
        del lengths
        start = bags[first]
        ids = self.inputs.ids.take(_spans(start, bags[last] - start))
        return Batch(SegmentFeatures(doc_id="", ids=ids, offsets=bag_offsets), offsets)

    def view(self, start: int, stop: int, doc_id: str) -> "Batch":
        """Documents start:stop of a hashed batch, named `doc_id`: views of
        its ids, bag and document offsets rebased to the first."""
        first, last = self.offsets[start], self.offsets[stop]
        bags = self.inputs.offsets[first:last + 1]
        return Batch(SegmentFeatures(doc_id=doc_id, ids=self.inputs.ids[bags[0]:bags[-1]],
                                     offsets=bags - bags[0]),
                     self.offsets[start:stop + 1] - first)


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions starts[j]:starts[j] + lengths[j] for each j in order,
    concatenated, every length at least 1: one cumsum, in place, of steps
    of one that jump to each span's start."""
    index = np.ones(int(lengths.sum()), np.int64)
    index[0] = starts[0]
    index[np.cumsum(lengths[:-1])] = starts[1:] - (starts[:-1] + lengths[:-1]) + 1
    return np.cumsum(index, out=index)


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
        """(segments, a bound on the bytes of their hashing and gather).

        Each n-gram's gathered row is charged `max(dim, table width)` floats
        of `DTYPE` (4 bytes each), the table width being L, or 2L under
        gated pooling: a pass gathers rows of the embedding table (dim wide)
        or, tape-free on a flat model, of `SwipeModel.label_table` (L or 2L
        wide), so the bound holds whichever is wider. A token is charged
        that plus `WIDTH_CAP`, or what hashing holds for it
        (`HASH_TOKEN_BYTES`, `HASH_ORDER_BYTES`) when more: hashing is done
        before the gather starts. A flat model's label table itself is held
        once per model, not per chunk, and is not charged here."""
        config = self.config
        width = len(config.labels) * (2 if config.pooling.gated else 1)
        tokens = sum(len(seg.tokens) for seg in segments)
        orders = len(config.ngram_orders)
        row_bytes = max(config.dim, width) * DTYPE.itemsize
        return len(segments), tokens * max(orders * row_bytes + WIDTH_CAP,
                                           HASH_TOKEN_BYTES + orders * HASH_ORDER_BYTES)

    def featurize(self, chunk: Chunk) -> Batch:
        """The chunk's segments, hashed in one `featurize_segments` call."""
        offsets = np.array([0, *itertools.accumulate(len(segments) for _, segments in chunk)])
        segments = [seg for _, doc_segments in chunk for seg in doc_segments]
        return Batch(featurize_segments(segments, self.config), offsets)

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
    claiming a huge architecture costs nothing until it is consumed. The
    gate tensors exist only under gated pooling."""
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
    if config.pooling.gated:
        yield "head.gate_weight", (n_labels, dim)
        yield "head.gate_bias", (n_labels,)


class SwipeModel:
    """Trainable classifier over truncated segments.

    `params` maps each name of `parameter_shapes(config)` to its array, in
    that order: float32 (`DTYPE`) from `create` and `load`; `from_arrays`
    keeps the dtype it is given, so a float64 copy runs the same ops in
    float64. `encoder`, picked once, does every featurize, chunk and
    encode. `version` counts changes to the parameters: whoever edits an
    array of `params` in place (as `train.adam_step` does) bumps it, so that
    the cached `label_table` is rebuilt; `train` bumps it too when it
    restores its best epoch. Arrays put in place of others need no bump: the
    cache is also keyed by the arrays it was built from.
    """

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.vocab = LabelVocab(names=config.labels, task_kind=config.task_kind)
        self.params = params
        self.encoder: HashEncoder | VectorEncoder = (
            HashEncoder(config) if config.encoder_mode == ENCODER_HASH else VectorEncoder())
        self.train_config: TrainConfig | None = None
        self.version = 0
        self._label_cache: tuple[int, tuple[weakref.ref, ...], np.ndarray] | None = None

    @classmethod
    def create(cls, config: ModelConfig) -> "SwipeModel":
        """Fresh parameters drawn from `config.init_seed`.

        Each part (encoder, interaction, head) draws from its own stream, in
        `parameter_shapes` order. Matrices are zero-mean Gaussian: a layer's
        weights ("interaction.<i>.wq" ... "ff_out") with std 1/sqrt(rows),
        every other table with std 1/sqrt(dim), drawn in float64 and
        rounded to `DTYPE`. Gains start at one, biases at zero.
        """
        streams = {part: np.random.default_rng(derive_seed(f"{part}-init", config.init_seed))
                   for part in ("encoder", "interaction", "head")}
        params = {}
        for name, shape in parameter_shapes(config):
            part, *_, leaf = name.split(".")
            if len(shape) == 1:
                params[name] = (np.ones if leaf.endswith("gain") else np.zeros)(shape, DTYPE)
            else:
                fan_in = shape[0] if leaf in LAYER_PARAMS else config.dim
                params[name] = streams[part].normal(0.0, 1.0 / np.sqrt(fan_in),
                                                    size=shape).astype(DTYPE)
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
        """One document's features: its attached vectors themselves, or the
        inputs of a hashed chunk of one."""
        if self.precomputed is not None:
            return self.precomputed[doc.id]
        chunk = [(doc, self.encoder.segments(doc, self.config.truncation))]
        return self.encoder.featurize(chunk).inputs

    def tensors(self, requires_grad: bool = False) -> dict[str, ad.Tensor]:
        """The parameters wrapped for one pass, sharing their arrays: a forward
        over them records a tape, whose backward fills each tensor's `grad`,
        only if they require grad."""
        return {name: ad.Tensor(array, requires_grad) for name, array in self.params.items()}

    def forward(self, batch: Batch, params: dict[str, ad.Tensor]) -> ForwardOut:
        """One pass over a ragged batch with the tensors `params` (`tensors()`),
        each document's segments pooled.

        A flat hashed model (no interaction layers) scores every pass in label
        space (`_label_scores`): a segment's scores and gate logits are the
        mean of its n-grams' rows of `encoder.table @ W.T`, W "head.weight"
        stacked over "head.gate_weight" under gated pooling, plus "head.bias"
        and "head.gate_bias". A tape-free pass (predict, explain, eval, dev
        scoring) reads those rows from the cached `label_table`; a taped one
        (a training step, whose parameters change at every step) projects
        only the rows the batch touches (`ad.label_bag_means`). Both project
        by `ad.project_rows`, which rounds a row the same way whatever the
        row count, so the two give the same bits. A model with interaction
        layers or precomputed vectors encodes each segment dim-wide, interacts
        and scores it by one `ad.linear`.
        """
        if self.config.encoder_mode == ENCODER_HASH and not self.config.interaction_layers:
            seg_scores, gates = self._label_scores(batch.inputs, params)
        else:
            x = self.encoder.encode(batch.inputs, params)
            if self.config.interaction_layers:
                x = interact_tensor(x, params, self.config, batch.offsets)
            seg_scores = scores_tensor(x, params)
            gates = gates_tensor(x, params) if self.config.pooling.gated else None
        doc_scores, rows, argmax = pool_tensor(seg_scores, gates, self.config.pooling,
                                               batch.offsets)
        return ForwardOut(doc_scores=doc_scores, seg_scores=seg_scores, gates=gates,
                          pooled_rows=rows, pool_argmax=argmax)

    def _head_weights(self) -> tuple[str, ...]:
        """The head weights a flat hashed model projects its table by, stacked
        in this order."""
        return ("head.weight", *(("head.gate_weight",) if self.config.pooling.gated else ()))

    def label_table(self, params: dict[str, ad.Tensor]) -> np.ndarray:
        """A flat hashed model's per-label table, `encoder.table @ W.T` for W
        the (L, dim) "head.weight", stacked over "head.gate_weight" under
        gated pooling: (n_buckets, L) or (n_buckets, 2L) in the parameters'
        dtype, n_buckets x L x 4 bytes in float32, doubled when gated.

        Built by one `ad.project_rows` over the whole table, so a row's bits
        do not depend on which rows a pass reads, and cached on the model
        until `version` changes or `params` wraps other arrays. Overflow warnings
        are off: a row past the float range gives non-finite scores, which
        `build_prediction` rejects naming the document."""
        sources = tuple(params[name].data for name in ("encoder.table", *self._head_weights()))
        cached = self._label_cache
        if (cached is None or cached[0] != self.version
                or any(ref() is not a for ref, a in zip(cached[1], sources))):
            with np.errstate(over="ignore", invalid="ignore"):
                # einsum's own loops, not BLAS: a first BLAS call would map
                # its work buffer into a process that needs no other
                table = ad.project_rows(sources[0], np.concatenate(sources[1:]))
            # weak: arrays the model has let go of (a restored epoch's
            # predecessors) are freed, not kept alive by the cache
            self._label_cache = cached = (
                self.version, tuple(weakref.ref(a) for a in sources), table)
        return cached[2]

    def _label_scores(self, inputs: SegmentFeatures, params: dict[str, ad.Tensor]
                      ) -> tuple[ad.Tensor, ad.Tensor | None]:
        """(M, L) segment scores and, under gated pooling, gates of a flat
        hashed pass (see `forward`): from the label table when no parameter
        it reads requires grad, else through `ad.label_bag_means`."""
        weights = [params[name] for name in self._head_weights()]
        table = params["encoder.table"]
        if table.requires_grad or any(w.requires_grad for w in weights):
            means = ad.label_bag_means(table, ad.concat(weights), inputs.ids, inputs.offsets)
        else:
            means = ad.Tensor(ad.bag_means(self.label_table(params), inputs.ids, inputs.offsets))
        n_labels = len(self.config.labels)
        seg_scores = ad.add(ad.columns(means, 0, n_labels), params["head.bias"])
        if not self.config.pooling.gated:
            return seg_scores, None
        return seg_scores, ad.sigmoid(ad.add(ad.columns(means, n_labels, 2 * n_labels),
                                             params["head.gate_bias"]))

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
        chunk, size = [], PASS_BYTES
        for doc in docs:
            segments = self.encoder.segments(doc, trunc)
            doc_size = self.doc_bytes(doc, segments)
            if chunk and size + doc_size > CHUNK_BYTES:
                yield chunk
                chunk, size = [], PASS_BYTES
            chunk.append((doc, segments))
            size += doc_size
        if chunk:
            yield chunk

    def doc_bytes(self, doc: Document, segments: list[Segment] | None) -> int:
        """What a chunk's pass holds for `doc` (see `CHUNK_BYTES`)."""
        m, size = self.encoder.chunk_size(doc, segments)
        return size + interaction_bytes(m, self.params, self.config) + DOC_BYTES

    # -- checkpoint container ------------------------------------------------

    def save(self, path) -> None:
        manifest = [{"name": name, "shape": list(array.shape)}
                    for name, array in self.params.items()]
        header = {
            "format": "swipe-checkpoint",
            "version": VERSION,
            "config": self.config.to_meta(),
            "train_config": None if self.train_config is None else self.train_config.to_meta(),
            "tensors": manifest,
        }
        write_container(path, header, self.params.values())

    @classmethod
    def from_arrays(cls, config: ModelConfig, arrays: dict[str, np.ndarray]) -> "SwipeModel":
        """A model whose parameters are `arrays`, not copied, named and shaped
        as `parameter_shapes(config)` lists them. Any other set of names is
        refused with a ConfigError naming the missing and the extra ones."""
        names = [name for name, _ in parameter_shapes(config)]
        missing, extra = set(names) - arrays.keys(), arrays.keys() - set(names)
        if missing or extra:
            raise ConfigError(f"arrays do not match the config's parameters: missing "
                              f"{sorted(missing)}, extra {sorted(extra)}")
        return cls(config, {name: arrays[name] for name in names})

    @classmethod
    def load(cls, path) -> "SwipeModel":
        """Read a checkpoint with `read_container`."""
        (config, train_config), arrays = read_container(path, "checkpoint", _checkpoint_manifest)
        model = cls.from_arrays(config, arrays)
        model.train_config = train_config
        return model


def write_container(path, header: dict, arrays: Iterable[np.ndarray]) -> None:
    """Write `header`, with "dtype": "float32" and the payload's "sha256"
    added, as line 1, then `arrays` as little-endian float32, C order. The
    arrays are hashed before the header is written, as views where they are
    little-endian float32 already (a `SwipeModel`'s parameters, a sidecar's
    rows) and as converted copies otherwise."""
    payload = [np.ascontiguousarray(array, dtype="<f4") for array in arrays]
    sha = hashlib.sha256()
    for array in payload:
        sha.update(array)
    header = {**header, "dtype": "float32", "sha256": sha.hexdigest()}
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for array in payload:
            fh.write(array)


def read_container(path, kind: str, parse: Callable[[dict], tuple[object, Manifest]]
                   ) -> tuple[object, dict[str, np.ndarray]]:
    """(metadata, arrays by name) of a container file. `parse(header)` checks
    the header and returns the metadata and the (name, shape) of each array;
    the payload size is checked before any array is allocated, and each is
    read straight into its own and hashed as it arrives, so the file is read
    once. The payload must match the header's SHA-256 before any array is
    checked finite. Any FormatError names `path`."""
    with open(path, "rb") as fh:
        try:
            line = _read_header_line(fh)
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
                end += math.prod(shape) * DTYPE.itemsize
                if end > payload_bytes:
                    raise FormatError(f"truncated tensor {name}")
            if end < payload_bytes:
                raise FormatError("trailing bytes after the last tensor")
            sha = hashlib.sha256()
            arrays = {name: _read_tensor(fh, name, shape, sha) for name, shape in manifest}
            if sha.hexdigest() != header["sha256"]:
                raise FormatError("payload does not match the header's sha256: "
                                  "the file is corrupt")
            for name, array in arrays.items():
                bad = np.flatnonzero(~np.isfinite(array))
                if bad.size:
                    raise FormatError(f"tensor {name} holds {array.flat[bad[0]]} "
                                      f"at flat index {bad[0]}")
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from exc
    return meta, arrays


def _read_header_line(fh) -> bytearray:
    """The first line of `fh`, up to `HEADER_BYTES` bytes, newline included if
    one came within them. Read in pieces into one buffer: a single capped
    `readline` joins the buffered reader's chunks into a second copy."""
    line = bytearray()
    while len(line) < HEADER_BYTES:
        piece = fh.readline(min(HEADER_PIECE, HEADER_BYTES - len(line)))
        line += piece
        if not piece or piece.endswith(b"\n"):
            break
    return line


def write_precomputed(matrices: dict[str, SegmentMatrix], path) -> None:
    """Write `matrices`, which share one h, as a vectors sidecar."""
    items = list(matrices.values())
    if not items:
        raise FormatError("write_precomputed: nothing to write")
    for mat in items:
        if not isinstance(mat.doc_id, str) or mat.h != items[0].h:
            raise FormatError(f"write_precomputed: document {mat.doc_id!r} (h={mat.h}) needs a "
                              f"string id and the first document's h={items[0].h}")
    header = {"format": "swipe-vectors", "version": VERSION, "h": items[0].h,
              "documents": [[mat.doc_id, mat.m] for mat in items]}
    write_container(path, header, (mat.rows for mat in items))


def load_precomputed(path) -> dict[str, SegmentMatrix]:
    """Read a vectors sidecar: frozen segment matrices by document id, in file
    order; `read_container` has checked every entry finite."""
    _, arrays = read_container(path, "vectors sidecar", _vectors_manifest)
    return {doc_id: SegmentMatrix(doc_id=doc_id, rows=rows, finite=True)
            for doc_id, rows in arrays.items()}


def _read_tensor(fh, name: str, shape: tuple[int, ...], sha) -> np.ndarray:
    """The next little-endian float32 tensor of `fh`, read into a new native
    float32 array (`DTYPE`) and fed to the hash `sha`."""
    out = np.empty(shape, dtype="<f4")
    if fh.readinto(out) != out.nbytes:
        raise FormatError(f"truncated tensor {name}")
    sha.update(out)
    return out.astype(DTYPE, copy=False)


def _check_kind(header: dict, kind: str, fmt: str, keys: set[str], remedy: str) -> None:
    """`header` must mark format `fmt` version 2, hold exactly `keys` and
    declare a float32 payload and its SHA-256. A version-1 `fmt` header is
    refused with `remedy`."""
    version, dtype, sha = header.get("version"), header.get("dtype"), header.get("sha256")
    if header.get("format") == fmt and type(version) is int and version == 1:
        raise FormatError(f"version-1 {kind}; {remedy}")
    if header.get("format") != fmt or type(version) is not int or version != VERSION:
        raise FormatError(f"not a version-{VERSION} {kind}: format {header.get('format')!r}")
    if set(header) != keys:
        raise FormatError(f"{kind} header must hold the keys {sorted(keys)}, got {sorted(header)}")
    if dtype != "float32":
        raise FormatError(f"{kind} payload dtype must be 'float32', got {dtype!r}")
    if not (isinstance(sha, str) and len(sha) == 64 and set(sha) <= set("0123456789abcdef")):
        raise FormatError(f"{kind} sha256 must be 64 lowercase hex digits, got {sha!r}")


def _checkpoint_manifest(header: dict) -> tuple[tuple[ModelConfig, TrainConfig | None],
                                                Manifest]:
    """Check a checkpoint header, its tensor manifest against the architecture
    its config describes; returns the configs and the manifest."""
    _check_kind(header, "checkpoint", "swipe-checkpoint", CHECKPOINT_KEYS, "retrain")
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
    _check_kind(header, "vectors sidecar", "swipe-vectors", VECTORS_KEYS, "write it again")
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
