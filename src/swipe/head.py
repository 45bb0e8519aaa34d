"""Segment-aware perceptron head.

Every segment vector is scored against every label by a shared affine map
(the model parameters "head.weight", L x h, and "head.bias", L); a per-label
sigmoid gate ("head.gate_weight", "head.gate_bias") can modulate each
segment's participation; one of four pooling reductions turns per-segment
scores into the document score; a strict zero threshold yields document and
segment bits. The pooled rows (gate x score when gated, else the score)
rank segments for label relevance, which is the self-explaining behaviour:
a label's key segment, the first segment whose row is largest for it, is
read off the trained scores without any segment-level supervision.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from swipe import autodiff as ad
from swipe.corpus import TASK_MULTICLASS
from swipe.errors import ConfigError, ValidationError


class Pooling(str, Enum):
    MAX = "max"
    GATED_MAX = "gated_max"
    SUM = "sum"
    GATED_SUM = "gated_sum"

    @property
    def gated(self) -> bool:
        return self in (Pooling.GATED_MAX, Pooling.GATED_SUM)

    @property
    def is_max(self) -> bool:
        return self in (Pooling.MAX, Pooling.GATED_MAX)


def _check_dims(h: int, weight: ad.Tensor) -> None:
    if h != weight.shape[1]:
        raise ConfigError(f"segment dim {h} != head dim {weight.shape[1]}")


def scores_tensor(x: ad.Tensor, params: dict[str, ad.Tensor]) -> ad.Tensor:
    """Differentiable per-segment scores, shape (m, L)."""
    _check_dims(x.shape[1], params["head.weight"])
    return ad.linear(x, params["head.weight"], params["head.bias"])


def gates_tensor(x: ad.Tensor, params: dict[str, ad.Tensor]) -> ad.Tensor:
    """Differentiable per-segment gates in (0, 1), shape (m, L)."""
    _check_dims(x.shape[1], params["head.gate_weight"])
    return ad.sigmoid(ad.linear(x, params["head.gate_weight"], params["head.gate_bias"]))


def pool_tensor(
    scores: ad.Tensor, gates: ad.Tensor | None, strategy: Pooling, offsets: np.ndarray,
) -> tuple[ad.Tensor, ad.Tensor, np.ndarray | None]:
    """Reduce (M, L) segment scores to (B, L) document scores.

    Document b owns rows offsets[b]:offsets[b+1]; one document is a batch of
    one, offsets [0, M]. Returns the document scores, the (M, L) pooled rows
    (gates x scores when gated, else the scores) and, for max variants, the
    (B, L) argmax segment, counted within its document (ties resolved to the
    lowest segment index, which is also where the subgradient flows).
    """
    if strategy.gated and gates is None:
        raise ConfigError(f"{strategy.value} pooling requires gates")
    rows = ad.mul(gates, scores) if strategy.gated else scores
    if strategy.is_max:
        pooled, argmax = ad.ragged_max(rows, offsets)
        return pooled, rows, argmax - offsets[:-1, None]
    return ad.ragged_sum(rows, offsets), rows, None


@dataclass
class Prediction:
    """Everything the head knows about one document, as views of its chunk's arrays."""

    doc_id: str
    scores: np.ndarray              # (L,) document score per label
    bits: np.ndarray                # (L,) int8, 1 iff score > 0 (strict)
    seg_scores: np.ndarray          # (L, m)
    gates: np.ndarray | None        # (L, m), gated strategies only
    seg_bits: np.ndarray            # (L, m) int8, 1 iff seg score > 0 (strict)
    key_segments: np.ndarray        # (L,) first segment with the largest pooled value
    pred_class: int | None = None   # argmax label, multi-class mode only

    @property
    def m(self) -> int:
        return self.seg_scores.shape[1]

    def to_record(self, label_names) -> dict:
        """JSONL-serializable record; key names are part of the file format."""
        bits = self.bits.tolist()
        per_label = [
            {"label": name, "y": y, "bit": bit, "key_segment": key,
             "positive_segments": [k for k, seg_bit in enumerate(seg_bits) if seg_bit],
             "segment_scores": seg_scores}
            for name, y, bit, key, seg_bits, seg_scores in zip(
                label_names, self.scores.tolist(), bits, self.key_segments.tolist(),
                self.seg_bits.tolist(), self.seg_scores.tolist())
        ]
        predicted = ([label_names[self.pred_class]] if self.pred_class is not None
                     else [name for name, bit in zip(label_names, bits) if bit])
        return {"doc_id": self.doc_id, "labels": predicted, "per_label": per_label}


def build_prediction(doc_ids: Sequence[str], doc_scores: np.ndarray, key_segments: np.ndarray,
                     seg_scores: np.ndarray, gates: np.ndarray | None, offsets: np.ndarray,
                     task_kind: str) -> list[Prediction]:
    """One Prediction per document of a chunk, from its (B, L) document scores
    and key segments, its (M, L) segment scores and gates, and the offsets
    that give document b rows offsets[b]:offsets[b+1]. Bits, segment bits and
    classes are computed once per chunk. A document whose scores are not all
    finite raises ValidationError."""
    if not (np.isfinite(doc_scores).all() and np.isfinite(seg_scores).all()):
        finite = np.isfinite(doc_scores).all(axis=1) & np.logical_and.reduceat(
            np.isfinite(seg_scores).all(axis=1), offsets[:-1])
        raise ValidationError(f"document {doc_ids[int(np.argmin(finite))]!r} holds a NaN "
                              "or an infinity among its scores")
    bits, seg_bits = (doc_scores > 0).astype(np.int8), (seg_scores > 0).astype(np.int8)
    pred_class = (doc_scores.argmax(axis=1).tolist() if task_kind == TASK_MULTICLASS
                  else [None] * len(doc_ids))
    bounds = offsets.tolist()
    return [
        Prediction(doc_id=doc_id, scores=doc_scores[b], bits=bits[b],
                   seg_scores=seg_scores[lo:hi].T, seg_bits=seg_bits[lo:hi].T,
                   gates=None if gates is None else gates[lo:hi].T,
                   key_segments=key_segments[b], pred_class=pred_class[b])
        for b, (doc_id, lo, hi) in enumerate(zip(doc_ids, bounds, bounds[1:]))
    ]
