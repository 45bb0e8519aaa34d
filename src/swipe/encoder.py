"""Segment encoders: produce one h-dimensional row per segment.

Two sources of segment vectors:

* a trainable hashed n-gram mean-embedding encoder (the built-in default),
  whose table is the model parameter "encoder.table",
* externally precomputed vectors (frozen, no gradient), one `SegmentMatrix`
  per document, read from a sidecar by `model.load_precomputed`.

Plus optional pre-norm transformer layers that let the per-segment rows
interact before scoring, over the "interaction.*" parameters. Positional
embeddings are off by default so the whole pipeline stays permutation
equivariant. The functions here take the model's parameter dict, named as
`model.parameter_shapes` lists them, and the `ModelConfig` it was built from.
"""

from __future__ import annotations

import itertools
from dataclasses import InitVar, dataclass

import numpy as np

from swipe import autodiff as ad
from swipe import hashing
from swipe.config import ModelConfig
from swipe.errors import ConfigError, FormatError, ValidationError
from swipe.truncate import Segment


@dataclass(frozen=True)
class SegmentMatrix:
    """Encoded document: one row per segment, all rows of dimension h, every
    entry finite, held as float32 (rows given in another dtype are rounded
    to it, so a value past float32's range is refused as non-finite).
    `finite=True` says the rows are known finite float32 (read by
    `model.load_precomputed`, which checks each array as it reads it, or
    stacked from matrices), so they are not checked again."""

    doc_id: str
    rows: np.ndarray
    finite: InitVar[bool] = False

    def __post_init__(self, finite: bool):
        with np.errstate(over="ignore"):  # an overflow is refused just below
            rows = np.asarray(self.rows, dtype=np.float32)
        object.__setattr__(self, "rows", rows)
        if rows.ndim != 2 or rows.shape[0] < 1:
            raise FormatError(f"segment matrix for {self.doc_id!r} must be 2-D, m >= 1")
        if not finite and not np.all(np.isfinite(rows)):
            raise FormatError(f"segment matrix for {self.doc_id!r} has non-finite entries")

    @property
    def m(self) -> int:
        return self.rows.shape[0]

    @property
    def h(self) -> int:
        return self.rows.shape[1]

    @classmethod
    def concat(cls, mats: "list[SegmentMatrix]") -> "SegmentMatrix":
        """Every matrix's rows stacked in order, named by their ids."""
        return cls(doc_id=" ".join(mat.doc_id for mat in mats),
                   rows=np.concatenate([mat.rows for mat in mats]), finite=True)


@dataclass(frozen=True)
class SegmentFeatures:
    """Hashed n-gram ids for one document, bagged per segment."""

    doc_id: str
    ids: np.ndarray       # flat int64 bucket ids
    offsets: np.ndarray   # m+1 bag boundaries into ids

    @property
    def m(self) -> int:
        return len(self.offsets) - 1

    @classmethod
    def concat(cls, feats: "list[SegmentFeatures]") -> "SegmentFeatures":
        """Every document's bags in order, named by their ids, offsets shifted."""
        shifts = np.cumsum([0] + [len(f.ids) for f in feats[:-1]])
        bags = [f.offsets[1:] + shift for f, shift in zip(feats, shifts)]
        return cls(doc_id=" ".join(f.doc_id for f in feats),
                   ids=np.concatenate([f.ids for f in feats]),
                   offsets=np.concatenate(([0], *bags)))


def featurize_segments(segments: list[Segment], config: ModelConfig) -> SegmentFeatures:
    """Hash every segment's n-grams in one kernel call, with `config`'s
    `n_buckets`, `ngram_orders` and `hash_seed`. Each segment's n-gram
    counts are computed once and give both the id layout and the bags.

    A segment with fewer tokens than the smallest order has no n-gram, hence
    an empty bag, and raises ValidationError naming its document and index.
    """
    if not segments:
        raise ConfigError("featurize_segments: no segments")
    orders = sorted(config.ngram_orders)
    lengths = [len(seg.tokens) for seg in segments]
    if min(lengths) < orders[0]:
        seg = next(seg for seg in segments if len(seg.tokens) < orders[0])
        raise ValidationError(
            f"document {seg.doc_id!r}: segment {seg.index} has {len(seg.tokens)} token(s), "
            f"fewer than the smallest n-gram order {orders[0]}, so it has no n-grams")
    counts = hashing.ngram_counts(lengths, orders)
    ids = hashing.ngram_bucket_ids(
        list(itertools.chain.from_iterable(seg.tokens for seg in segments)),
        config.n_buckets, orders, config.hash_seed, lengths=lengths, counts=counts,
    )
    offsets = np.zeros(len(segments) + 1, dtype=np.int64)
    np.cumsum(counts.sum(axis=1), out=offsets[1:])
    doc_id = " ".join(dict.fromkeys(seg.doc_id for seg in segments))
    return SegmentFeatures(doc_id=doc_id, ids=ids, offsets=offsets)


def encode_features(feats: SegmentFeatures, params: dict[str, ad.Tensor]) -> ad.Tensor:
    """Differentiable encode: row k = mean of the "encoder.table" rows hit by segment k."""
    return ad.embedding_bag_mean(params["encoder.table"], feats.ids, feats.offsets)


def interaction_bytes(m: int, params: dict[str, np.ndarray], config: ModelConfig) -> int:
    """A bound on the bytes a tape-free `interact_tensor` holds at once for
    one document of `m` segments, its input rows included. Without a tape
    each op's result is freed once the next op has read it, so the busiest
    moment of one layer bounds the whole stack. In floats per segment, each
    of the parameters' itemsize (4 bytes in float32):
    - attention: 9 x dim (input, residual, normed rows, q, k, v, the output
      and the two copies that merge a document's heads) plus 4 x heads x m
      (the probabilities `doc_attention` keeps within one call and, while a
      document's are made, its scores, exponentials and the buffer numpy
      takes to broadcast the row maxima and sums, at most the op's output);
    - relu: 2 x dim + 3 x ff_dim (input, residual, the hidden rows, the
      buffer that casts the mask, at most the output, and the output), and
      then 3 x dim + ff_dim while its output is projected back;
    - layer norm: at most 7 x dim (its temporaries and numpy's buffer).
    Plus a byte of relu mask per ff entry. Zero with no layers."""
    if not config.interaction_layers:
        return 0
    ff_in = params["interaction.0.ff_in"]
    dim, ff_dim = config.dim, ff_in.shape[1]
    per_row = max(9 * dim + 4 * config.n_heads * m, 2 * dim + 3 * ff_dim, 3 * dim + ff_dim)
    return ff_in.itemsize * m * per_row + m * ff_dim


def interact_tensor(x: ad.Tensor, params: dict[str, ad.Tensor], config: ModelConfig,
                    offsets: np.ndarray) -> ad.Tensor:
    """Differentiable stack of `config.interaction_layers` pre-norm layers
    (parameters "interaction.<i>.<name>"), then a final layer norm that caps
    the residual-stream magnitude (without it the downstream sigmoid gates
    saturate irrecoverably during training); identity with no layers.

    Rows of a ragged batch (document b owns rows offsets[b]:offsets[b+1]; one
    document is a batch of one, offsets [0, M]) take positional rows by their
    index within the document. Every projection is an `ad.doc_matmul` and
    attention an `ad.doc_attention`, which take `offsets` and run one
    document at a time, so attention stays within each document. Every other
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
    for i in range(config.interaction_layers):
        layer = f"interaction.{i}."

        def project(t: ad.Tensor, name: str) -> ad.Tensor:
            return ad.doc_matmul(t, params[layer + name], offsets)

        def attend(normed: ad.Tensor) -> ad.Tensor:
            return ad.doc_attention(project(normed, "wq"), project(normed, "wk"),
                                    project(normed, "wv"), offsets, config.n_heads)

        # a layer's intermediate rows are call arguments, never names, so a
        # tape-free pass frees each as soon as its consumer returns
        x = ad.add(x, project(attend(
            ad.layer_norm(x, params[layer + "ln1_gain"], params[layer + "ln1_bias"])), "wo"))
        x = ad.add(x, project(ad.relu(project(
            ad.layer_norm(x, params[layer + "ln2_gain"], params[layer + "ln2_bias"]),
            "ff_in")), "ff_out"))
    if config.interaction_layers:
        x = ad.layer_norm(x, params["interaction.final_gain"], params["interaction.final_bias"])
    return x
