"""Segment encoders: produce one h-dimensional row per segment.

Two sources of segment vectors:

* a trainable hashed n-gram mean-embedding encoder (the built-in default),
  whose table is the model parameter "encoder.table",
* a loader for externally precomputed vectors (frozen, no gradient).

Plus optional pre-norm transformer layers that let the per-segment rows
interact before scoring, over the "interaction.*" parameters. Positional
embeddings are off by default so the whole pipeline stays permutation
equivariant. The functions here take the model's parameter dict, named as
`model.parameter_shapes` lists them, and the `ModelConfig` it was built from.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from swipe import autodiff as ad
from swipe import hashing
from swipe.config import ModelConfig
from swipe.corpus import record_key
from swipe.errors import ConfigError, FormatError
from swipe.truncate import Segment


@dataclass(frozen=True)
class SegmentMatrix:
    """Encoded document: one row per segment, all rows of dimension h."""

    doc_id: str
    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=np.float64)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise FormatError(f"segment matrix for {self.doc_id!r} must be 2-D, m >= 1")
        if not np.all(np.isfinite(rows)):
            raise FormatError(f"segment matrix for {self.doc_id!r} has non-finite entries")

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def h(self) -> int:
        return self.rows.shape[1]


@dataclass(frozen=True)
class SegmentFeatures:
    """Hashed n-gram ids for one document, bagged per segment."""

    doc_id: str
    ids: np.ndarray       # flat int64 bucket ids
    offsets: np.ndarray   # m+1 bag boundaries into ids

    @property
    def m(self) -> int:
        return len(self.offsets) - 1


def featurize_segments(segments: list[Segment], config: ModelConfig) -> SegmentFeatures:
    """Hash every segment's n-grams in one kernel call, with `config`'s
    `n_buckets`, `ngram_orders` and `hash_seed`."""
    if not segments:
        raise ConfigError("featurize_segments: no segments")
    lengths = np.asarray([len(seg.tokens) for seg in segments], dtype=np.int64)
    ids = hashing.ngram_bucket_ids(
        [tok for seg in segments for tok in seg.tokens], config.n_buckets,
        config.ngram_orders, config.hash_seed, lengths=lengths,
    )
    counts = hashing.ngram_counts(lengths, config.ngram_orders).sum(axis=1)
    return SegmentFeatures(
        doc_id=segments[0].doc_id,
        ids=ids,
        offsets=np.concatenate(([0], np.cumsum(counts))),
    )


def encode_features(feats: SegmentFeatures, params: dict[str, ad.Tensor]) -> ad.Tensor:
    """Differentiable encode: row k = mean of the "encoder.table" rows hit by segment k."""
    return ad.embedding_bag_mean(params["encoder.table"], feats.ids, feats.offsets)


def load_precomputed(path) -> dict[str, SegmentMatrix]:
    """Read the precomputed-vector sidecar.

    First record declares the dimension: {"h": int}; each following record is
    {"doc_id": str, "vectors": [[h floats], ...]} with rows in segment order.
    The returned matrices are constants; training never updates them.
    """
    path = Path(path)
    matrices: dict[str, SegmentMatrix] = {}
    declared_h: int | None = None
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
            except json.JSONDecodeError as exc:
                raise FormatError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
            if not isinstance(raw, dict):
                raise FormatError(f"{path}:{lineno}: record must be a JSON object")
            if declared_h is None:
                if "h" not in raw:
                    raise FormatError(f"{path}:{lineno}: first record must declare h")
                declared_h = raw["h"]
                if type(declared_h) is not int or declared_h < 1:
                    raise FormatError(
                        f"{path}:{lineno}: h must be an integer >= 1, got {declared_h!r}"
                    )
                continue
            if "doc_id" not in raw:
                raise FormatError(f"{path}:{lineno}: record without doc_id")
            try:
                doc_id = record_key(raw, "doc_id")
            except TypeError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            vectors = raw.get("vectors")
            if not vectors:
                raise FormatError(f"{path}:{lineno}: record without vectors")
            try:
                rows = [[float(v) for v in row] for row in vectors]
            except (TypeError, ValueError) as exc:
                raise FormatError(f"{path}:{lineno}: non-numeric vector entry: {exc}") from exc
            for row in rows:
                if len(row) != declared_h:
                    raise FormatError(
                        f"{path}:{lineno}: row of dimension {len(row)}, declared h={declared_h}"
                    )
            if doc_id in matrices:
                raise FormatError(f"{path}:{lineno}: duplicate doc_id {doc_id!r}")
            matrices[doc_id] = SegmentMatrix(doc_id=doc_id, rows=np.asarray(rows))
    return matrices


def write_precomputed(matrices: dict[str, SegmentMatrix], path) -> None:
    """Write `matrices` in the format `load_precomputed` reads."""
    path = Path(path)
    items = list(matrices.values())
    if not items:
        raise FormatError("write_precomputed: nothing to write")
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"h": items[0].h}) + "\n")
        for mat in items:
            fh.write(json.dumps({"doc_id": mat.doc_id, "vectors": mat.rows.tolist()}) + "\n")


def _slabs(offsets: np.ndarray) -> tuple[np.ndarray | None, list[tuple[int, int]]]:
    """Order a ragged batch's documents by segment count.

    Returns the row gather that stacks the documents in that order (None when
    they already are: one document, or counts that never fall) and the
    (documents, segments per document) of each run of equal counts.
    """
    counts = (offsets[1:] - offsets[:-1]).tolist()
    order = sorted(range(len(counts)), key=counts.__getitem__)
    slabs = [(len(list(group)), m) for m, group in itertools.groupby(counts[b] for b in order)]
    if order == list(range(len(counts))):
        return None, slabs
    sorted_counts = np.array([counts[b] for b in order])
    shift = offsets[order] - np.concatenate(([0], np.cumsum(sorted_counts)[:-1]))
    return np.arange(int(offsets[-1])) + np.repeat(shift, sorted_counts), slabs


def interaction_bytes(m: int, params: dict[str, ad.Tensor], config: ModelConfig) -> int:
    """Bytes of the activations `interact_tensor` keeps for one document of
    `m` segments: per layer and segment about 12 x dim + 2 x ff_dim floats
    (layer-norm outputs and normalized inputs, q, k, v, attention output,
    projections, residuals, the feed-forward hidden rows), and per layer
    3 x heads x m^2 floats of attention scores. Zero with no layers."""
    if not config.interaction_layers:
        return 0
    ff_dim = params["interaction.0.ff_in"].shape[1]
    return config.interaction_layers * 8 * (
        m * (12 * config.dim + 2 * ff_dim) + 3 * config.n_heads * m * m)


def interact_tensor(x: ad.Tensor, params: dict[str, ad.Tensor], config: ModelConfig,
                    offsets: np.ndarray) -> ad.Tensor:
    """Differentiable stack of `config.interaction_layers` pre-norm layers
    (parameters "interaction.<i>.<name>"), then a final layer norm that caps
    the residual-stream magnitude (without it the downstream sigmoid gates
    saturate irrecoverably during training); identity with no layers.

    Rows of a ragged batch (document b owns rows offsets[b]:offsets[b+1]; one
    document is a batch of one, offsets [0, M]) take positional rows by their
    index within the document. The documents are then stacked by segment
    count (one `take_rows` in, one out), so documents of equal length form
    slabs: every projection is one `ad.slab_matmul` and attention one
    `ad.slab_attention`, which attends only within each document. Every other
    op is row-wise, so a document's rows come out the same bits in any batch.
    """
    m, dim = x.shape
    if dim != config.dim:
        raise ConfigError(f"interaction dim {config.dim} != input dim {dim}")
    counts = offsets[1:] - offsets[:-1]
    positions = params.get("interaction.positions")
    if positions is not None:
        longest = int(counts.max())
        if longest > positions.shape[0]:
            raise ConfigError(
                f"document has {longest} segments but positional table holds "
                f"{positions.shape[0]}"
            )
        within = np.arange(m) - np.repeat(offsets[:-1], counts)
        x = ad.add(x, ad.take_rows(positions, within))
    gather, slabs = _slabs(offsets)
    if gather is not None:
        x = ad.take_rows(x, gather)
    for i in range(config.interaction_layers):
        layer = f"interaction.{i}."

        def project(t: ad.Tensor, name: str) -> ad.Tensor:
            return ad.slab_matmul(t, params[layer + name], slabs)

        attn_in = ad.layer_norm(x, params[layer + "ln1_gain"], params[layer + "ln1_bias"])
        attn = ad.slab_attention(project(attn_in, "wq"), project(attn_in, "wk"),
                                 project(attn_in, "wv"), slabs, config.n_heads)
        x = ad.add(x, project(attn, "wo"))
        ff_in = ad.layer_norm(x, params[layer + "ln2_gain"], params[layer + "ln2_bias"])
        x = ad.add(x, project(ad.relu(project(ff_in, "ff_in")), "ff_out"))
    if config.interaction_layers:
        x = ad.layer_norm(x, params["interaction.final_gain"], params["interaction.final_bias"])
    if gather is not None:
        inverse = np.empty_like(gather)
        inverse[gather] = np.arange(len(gather))
        x = ad.take_rows(x, inverse)
    return x
