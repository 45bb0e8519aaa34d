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

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from swipe import autodiff as ad
from swipe import hashing
from swipe.config import ModelConfig
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
            doc_id = str(raw["doc_id"])
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


def _attention(x: ad.Tensor, params: dict[str, ad.Tensor], layer: str, n_heads: int,
               mask: ad.Tensor | None) -> ad.Tensor:
    """Multi-head self-attention of the layer whose parameters are named `layer` + "wq" etc."""
    m, dim = x.shape
    head_dim = dim // n_heads

    def split_heads(t: ad.Tensor) -> ad.Tensor:
        return ad.transpose(ad.reshape(t, (m, n_heads, head_dim)), (1, 0, 2))

    q = split_heads(ad.matmul(x, params[layer + "wq"]))
    k = split_heads(ad.matmul(x, params[layer + "wk"]))
    v = split_heads(ad.matmul(x, params[layer + "wv"]))
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(head_dim))
    if mask is not None:
        scores = ad.add(scores, mask)
    attn = ad.softmax(scores, axis=-1)
    ctx = ad.matmul(attn, v)  # heads x m x head_dim
    merged = ad.reshape(ad.transpose(ctx, (1, 0, 2)), (m, dim))
    return ad.matmul(merged, params[layer + "wo"])


#: Most segments one attention call takes. A batch with more is split into
#: runs of whole documents, so attention memory grows with the batch's
#: segment count times this bound, not with its square.
ATTENTION_ROWS = 256


def _attention_runs(offsets: np.ndarray) -> list[tuple[int, int, ad.Tensor | None]]:
    """(first row, end row, mask) of each attention call.

    A run is consecutive whole documents with at most ATTENTION_ROWS
    segments in all (a longer document runs alone). Its block-diagonal 0/-inf
    mask keeps every row inside its own document; a one-document run has none.
    """
    bounds, first = [], 0
    for b in range(1, len(offsets)):
        if offsets[b] - offsets[first] > ATTENTION_ROWS and b - 1 > first:
            bounds.append(offsets[first:b])
            first = b - 1
    bounds.append(offsets[first:])
    runs = []
    for run in bounds:
        mask = None
        if len(run) > 2:
            doc = np.repeat(np.arange(len(run) - 1), np.diff(run))
            mask = ad.Tensor(np.where(doc[:, None] == doc, 0.0, -np.inf))
        runs.append((int(run[0]), int(run[-1]), mask))
    return runs


def interact_tensor(x: ad.Tensor, params: dict[str, ad.Tensor], config: ModelConfig,
                    offsets: np.ndarray | None = None) -> ad.Tensor:
    """Differentiable stack of `config.interaction_layers` pre-norm layers
    (parameters "interaction.<i>.<name>"), then a final layer norm that caps
    the residual-stream magnitude (without it the downstream sigmoid gates
    saturate irrecoverably during training); identity with no layers.

    Rows of a ragged batch (document b owns rows offsets[b]:offsets[b+1];
    None means one document) attend only within their own document, through
    a block-diagonal 0/-inf mask on the attention scores, and take positional
    rows by their index within the document. Every other op is row-wise.
    """
    m, dim = x.shape
    if dim != config.dim:
        raise ConfigError(f"interaction dim {config.dim} != input dim {dim}")
    if offsets is None:
        offsets = np.array([0, m])
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
    runs = _attention_runs(offsets)
    for i in range(config.interaction_layers):
        layer = f"interaction.{i}."
        attn_in = ad.layer_norm(x, params[layer + "ln1_gain"], params[layer + "ln1_bias"])
        if len(runs) == 1:
            attn = _attention(attn_in, params, layer, config.n_heads, runs[0][2])
        else:
            attn = ad.concat_rows([
                _attention(ad.take_rows(attn_in, np.arange(start, stop)), params, layer,
                           config.n_heads, mask)
                for start, stop, mask in runs
            ])
        x = ad.add(x, attn)
        ff_in = ad.layer_norm(x, params[layer + "ln2_gain"], params[layer + "ln2_bias"])
        hidden = ad.relu(ad.matmul(ff_in, params[layer + "ff_in"]))
        x = ad.add(x, ad.matmul(hidden, params[layer + "ff_out"]))
    if config.interaction_layers:
        x = ad.layer_norm(x, params["interaction.final_gain"], params["interaction.final_bias"])
    return x
