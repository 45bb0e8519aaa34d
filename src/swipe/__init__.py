"""Segment-aware long-text classification.

Truncate a long document into segments, encode each segment, score every
segment against every label with a shared perceptron, pool the segment
scores into document labels, and read key segments back off the scores with
no segment-level supervision.
"""

__version__ = "0.1.0"

from swipe.config import ModelConfig, TrainConfig, TruncationConfig
from swipe.corpus import (
    Corpus,
    Document,
    LabelVocab,
    SyntheticSpec,
    generate_synthetic,
    load_jsonl,
    split_corpus,
    write_jsonl,
)
from swipe.encoder import SegmentMatrix
from swipe.head import Pooling, Prediction
from swipe.model import SwipeModel, load_precomputed
from swipe.train import grad_check, train
from swipe.truncate import Segment, tokenize, truncate

__all__ = [
    "Corpus",
    "Document",
    "LabelVocab",
    "ModelConfig",
    "Pooling",
    "Prediction",
    "Segment",
    "SegmentMatrix",
    "SwipeModel",
    "SyntheticSpec",
    "TrainConfig",
    "TruncationConfig",
    "generate_synthetic",
    "grad_check",
    "load_jsonl",
    "load_precomputed",
    "split_corpus",
    "tokenize",
    "train",
    "truncate",
    "write_jsonl",
]
