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
from dataclasses import dataclass

import numpy as np

from swipe import autodiff as ad
from swipe import hashing
from swipe.config import ModelConfig
from swipe.errors import ConfigError, FormatError, ValidationError
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

    @classmethod
    def concat(cls, mats: "list[SegmentMatrix]") -> "SegmentMatrix":
        """Every matrix's rows stacked in order, named by their ids."""
        return cls(doc_id=" ".join(mat.doc_id for mat in mats),
                   rows=np.concatenate([mat.rows for mat in mats]))


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


def interaction_bytes(m: int, params: dict[str, np.ndarray], config: ModelConfig) -> int:
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
