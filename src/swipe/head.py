"""Segment-aware perceptron head.

Every segment vector is scored against every label by a shared affine map
(the model parameters "head.weight", L x h, and "head.bias", L); a per-label
sigmoid gate ("head.gate_weight", "head.gate_bias") can modulate each
segment's participation; one of four pooling reductions turns per-segment
scores into the document score; a strict zero threshold yields document and
segment bits. The same scores
rank segments for label relevance, which is where the self-explaining
behaviour comes from: key segments are read off the trained scores without
any segment-level supervision.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from swipe import autodiff as ad
from swipe.corpus import TASK_MULTICLASS
from swipe.errors import ConfigError


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
) -> tuple[ad.Tensor, np.ndarray | None]:
    """Reduce (M, L) segment scores to (B, L) document scores.

    Document b owns rows offsets[b]:offsets[b+1]; one document is a batch of
    one, offsets [0, M]. Max variants also return the (B, L) argmax segment,
    counted within its document (ties resolved to the lowest segment index,
    which is also where the subgradient flows).
    """
    if strategy.gated and gates is None:
        raise ConfigError(f"{strategy.value} pooling requires gates")
    effective = ad.mul(gates, scores) if strategy.gated else scores
    if strategy.is_max:
        pooled, argmax = ad.ragged_max(effective, offsets)
        return pooled, argmax - offsets[:-1, None]
    return ad.ragged_sum(effective, offsets), None


@dataclass
class Prediction:
    """Everything the head knows about one document."""

    doc_id: str
    strategy: Pooling
    scores: np.ndarray              # (L,) document score per label
    bits: np.ndarray                # (L,) int8, 1 iff score > 0 (strict)
    seg_scores: np.ndarray          # (L, m)
    gates: np.ndarray | None        # (L, m), gated strategies only
    seg_bits: np.ndarray            # (L, m) int8, 1 iff seg score > 0 (strict)
    key_segments: np.ndarray        # (L,) argmax segment under the ranking score
    pred_class: int | None = None   # argmax label, multi-class mode only

    @property
    def m(self) -> int:
        return self.seg_scores.shape[1]

    def to_record(self, label_names) -> dict:
        """JSONL-serializable record; key names are part of the file format."""
        per_label = []
        for i, name in enumerate(label_names):
            per_label.append(
                {
                    "label": name,
                    "y": float(self.scores[i]),
                    "bit": int(self.bits[i]),
                    "key_segment": int(self.key_segments[i]),
                    "positive_segments": np.flatnonzero(self.seg_bits[i]).tolist(),
                    "segment_scores": self.seg_scores[i].tolist(),
                }
            )
        predicted = (
            [label_names[self.pred_class]]
            if self.pred_class is not None
            else [label_names[i] for i in np.flatnonzero(self.bits)]
        )
        return {"doc_id": self.doc_id, "labels": predicted, "per_label": per_label}


def build_prediction(
    doc_id: str,
    strategy: Pooling,
    doc_scores: np.ndarray,
    seg_scores: np.ndarray,
    gates: np.ndarray | None,
    task_kind: str,
) -> Prediction:
    """Assemble a Prediction from raw (L,) / (L, m) arrays."""
    ranking = gates * seg_scores if strategy.gated and gates is not None else seg_scores
    return Prediction(
        doc_id=doc_id,
        strategy=strategy,
        scores=doc_scores,
        bits=(doc_scores > 0).astype(np.int8),
        seg_scores=seg_scores,
        gates=gates,
        seg_bits=(seg_scores > 0).astype(np.int8),
        key_segments=np.argmax(ranking, axis=1),
        pred_class=int(np.argmax(doc_scores)) if task_kind == TASK_MULTICLASS else None,
    )
