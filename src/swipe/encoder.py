"""Segment encoders: produce one h-dimensional row per segment.

Two sources of segment vectors:

* a trainable hashed n-gram mean-embedding encoder (the built-in default),
* a loader for externally precomputed vectors (frozen, no gradient).

Plus optional pre-norm transformer layers that let the per-segment rows
interact before scoring. Positional embeddings are off by default so the
whole pipeline stays permutation equivariant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from swipe import autodiff as ad
from swipe import hashing
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


@dataclass
class HashEncoderParams:
    """Trainable hashed n-gram encoder: B x h embedding table."""

    table: ad.Tensor
    n_buckets: int
    ngram_orders: tuple[int, ...] = (1, 2)
    hash_seed: int = 0

    @classmethod
    def create(
        cls,
        n_buckets: int,
        dim: int,
        ngram_orders: tuple[int, ...] = (1, 2),
        hash_seed: int = 0,
        init_seed: int = 0,
    ) -> "HashEncoderParams":
        if n_buckets < 1 or dim < 1:
            raise ConfigError(f"n_buckets and dim must be >= 1, got {n_buckets}, {dim}")
        rng = np.random.default_rng(init_seed)
        table = ad.Tensor(
            rng.normal(0.0, 1.0 / np.sqrt(dim), size=(n_buckets, dim)),
            requires_grad=True,
        )
        return cls(table=table, n_buckets=n_buckets, ngram_orders=tuple(ngram_orders),
                   hash_seed=hash_seed)


@dataclass(frozen=True)
class SegmentFeatures:
    """Hashed n-gram ids for one document, bagged per segment."""

    doc_id: str
    ids: np.ndarray       # flat int64 bucket ids
    offsets: np.ndarray   # m+1 bag boundaries into ids

    @property
    def m(self) -> int:
        return len(self.offsets) - 1


def featurize_segments(segments: list[Segment], params: HashEncoderParams) -> SegmentFeatures:
    """Hash every segment's n-grams in one kernel call per document."""
    if not segments:
        raise ConfigError("featurize_segments: no segments")
    lengths = np.asarray([len(seg.tokens) for seg in segments], dtype=np.int64)
    ids = hashing.ngram_bucket_ids(
        [tok for seg in segments for tok in seg.tokens], params.n_buckets,
        params.ngram_orders, params.hash_seed, lengths=lengths,
    )
    counts = hashing.ngram_counts(lengths, params.ngram_orders).sum(axis=1)
    return SegmentFeatures(
        doc_id=segments[0].doc_id,
        ids=ids,
        offsets=np.concatenate(([0], np.cumsum(counts))),
    )


def encode_features(feats: SegmentFeatures, params: HashEncoderParams) -> ad.Tensor:
    """Differentiable encode: row k = mean of table rows hit by segment k."""
    return ad.embedding_bag_mean(params.table, feats.ids, feats.offsets)


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
    """Inverse of `load_precomputed` (fixture/productions helper)."""
    path = Path(path)
    items = list(matrices.values())
    if not items:
        raise FormatError("write_precomputed: nothing to write")
    with path.open("w", encoding="utf-8") as fh:
        fh.write(json.dumps({"h": items[0].h}) + "\n")
        for mat in items:
            fh.write(json.dumps({"doc_id": mat.doc_id, "vectors": mat.rows.tolist()}) + "\n")


@dataclass
class InteractionLayer:
    """One pre-norm transformer encoder layer (no biases on projections)."""

    wq: ad.Tensor
    wk: ad.Tensor
    wv: ad.Tensor
    wo: ad.Tensor
    ff_in: ad.Tensor
    ff_out: ad.Tensor
    ln1_gain: ad.Tensor
    ln1_bias: ad.Tensor
    ln2_gain: ad.Tensor
    ln2_bias: ad.Tensor


@dataclass
class InteractionParams:
    """Stack of self-attention layers letting segment vectors interact.

    A final layer norm caps the residual-stream magnitude; without it the
    downstream sigmoid gates saturate irrecoverably during training.
    """

    layers: list[InteractionLayer]
    n_heads: int
    dim: int
    positions: ad.Tensor | None = None  # max_m x dim table, optional
    final_gain: ad.Tensor | None = None  # present iff layers exist
    final_bias: ad.Tensor | None = None

    @classmethod
    def create(
        cls,
        num_layers: int,
        dim: int,
        n_heads: int = 2,
        ff_dim: int | None = None,
        max_positions: int | None = None,
        init_seed: int = 0,
    ) -> "InteractionParams":
        if num_layers < 0:
            raise ConfigError(f"num_layers must be >= 0, got {num_layers}")
        if n_heads < 1 or dim % n_heads != 0:
            raise ConfigError(f"dim {dim} must divide evenly over {n_heads} heads")
        ff_dim = 4 * dim if ff_dim is None else ff_dim
        rng = np.random.default_rng(init_seed)

        def w(rows, cols):
            return ad.Tensor(rng.normal(0.0, 1.0 / np.sqrt(rows), size=(rows, cols)),
                             requires_grad=True)

        layers = []
        for _ in range(num_layers):
            layers.append(
                InteractionLayer(
                    wq=w(dim, dim), wk=w(dim, dim), wv=w(dim, dim), wo=w(dim, dim),
                    ff_in=w(dim, ff_dim), ff_out=w(ff_dim, dim),
                    ln1_gain=ad.Tensor(np.ones(dim), requires_grad=True),
                    ln1_bias=ad.Tensor(np.zeros(dim), requires_grad=True),
                    ln2_gain=ad.Tensor(np.ones(dim), requires_grad=True),
                    ln2_bias=ad.Tensor(np.zeros(dim), requires_grad=True),
                )
            )
        positions = None
        if max_positions is not None:
            positions = ad.Tensor(
                rng.normal(0.0, 1.0 / np.sqrt(dim), size=(max_positions, dim)),
                requires_grad=True,
            )
        final_gain = final_bias = None
        if num_layers > 0:
            final_gain = ad.Tensor(np.ones(dim), requires_grad=True)
            final_bias = ad.Tensor(np.zeros(dim), requires_grad=True)
        return cls(layers=layers, n_heads=n_heads, dim=dim, positions=positions,
                   final_gain=final_gain, final_bias=final_bias)


def _attention(x: ad.Tensor, layer: InteractionLayer, n_heads: int,
               mask: ad.Tensor | None) -> ad.Tensor:
    m, dim = x.shape
    head_dim = dim // n_heads

    def split_heads(t: ad.Tensor) -> ad.Tensor:
        return ad.transpose(ad.reshape(t, (m, n_heads, head_dim)), (1, 0, 2))

    q = split_heads(ad.matmul(x, layer.wq))
    k = split_heads(ad.matmul(x, layer.wk))
    v = split_heads(ad.matmul(x, layer.wv))
    scores = ad.scale(ad.matmul(q, ad.transpose(k, (0, 2, 1))), 1.0 / np.sqrt(head_dim))
    if mask is not None:
        scores = ad.add(scores, mask)
    attn = ad.softmax(scores, axis=-1)
    ctx = ad.matmul(attn, v)  # heads x m x head_dim
    merged = ad.reshape(ad.transpose(ctx, (1, 0, 2)), (m, dim))
    return ad.matmul(merged, layer.wo)


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


def interact_tensor(x: ad.Tensor, params: InteractionParams,
                    offsets: np.ndarray | None = None) -> ad.Tensor:
    """Differentiable interaction stack; identity when num_layers == 0.

    Rows of a ragged batch (document b owns rows offsets[b]:offsets[b+1];
    None means one document) attend only within their own document, through
    a block-diagonal 0/-inf mask on the attention scores, and take positional
    rows by their index within the document. Every other op is row-wise.
    """
    m, dim = x.shape
    if dim != params.dim:
        raise ConfigError(f"interaction dim {params.dim} != input dim {dim}")
    if offsets is None:
        offsets = np.array([0, m])
    counts = offsets[1:] - offsets[:-1]
    if params.positions is not None:
        longest = int(counts.max())
        if longest > params.positions.shape[0]:
            raise ConfigError(
                f"document has {longest} segments but positional table holds "
                f"{params.positions.shape[0]}"
            )
        within = np.arange(m) - np.repeat(offsets[:-1], counts)
        x = ad.add(x, ad.take_rows(params.positions, within))
    runs = _attention_runs(offsets)
    for layer in params.layers:
        attn_in = ad.layer_norm(x, layer.ln1_gain, layer.ln1_bias)
        if len(runs) == 1:
            attn = _attention(attn_in, layer, params.n_heads, runs[0][2])
        else:
            attn = ad.concat_rows([
                _attention(ad.take_rows(attn_in, np.arange(start, stop)), layer,
                           params.n_heads, mask)
                for start, stop, mask in runs
            ])
        x = ad.add(x, attn)
        ff_in = ad.layer_norm(x, layer.ln2_gain, layer.ln2_bias)
        hidden = ad.relu(ad.matmul(ff_in, layer.ff_in))
        x = ad.add(x, ad.matmul(hidden, layer.ff_out))
    if params.layers:
        x = ad.layer_norm(x, params.final_gain, params.final_bias)
    return x
