"""Classification metrics, explanation metrics, and the efficiency probe.

Conventions documented once here:

* Per-label F1 with zero gold and zero predicted positives counts as 1.0
  (the label was handled perfectly); same convention for an all-empty micro
  confusion. Macro F1 is the unweighted mean of per-label F1.
* The sufficiency protocol trains a fresh linear probe (hashed n-gram
  features + a softmax/logistic layer) on explanation text only and compares
  it against a random-segment baseline and a full-text reference.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from swipe.config import ENCODER_HASH, ModelConfig, TrainConfig, TruncationConfig
from swipe.corpus import Corpus, Document, KeyMap, LabelVocab, TASK_MULTICLASS
from swipe.errors import ValidationError
from swipe.hashing import derive_seed
from swipe.head import Pooling, Prediction
from swipe.model import SwipeModel
from swipe.train import backward_batch, exact_match, train
from swipe.truncate import Segment


def _f1(tp: int, fp: int, fn: int) -> float:
    if tp == fp == fn == 0:
        return 1.0
    return 2 * tp / (2 * tp + fp + fn)


@dataclass
class MetricReport:
    micro_f1: float
    macro_f1: float
    per_label: list[dict]  # {label, precision, recall, f1, support}


def confusion_report(pred_bits, gold_bits, label_names) -> MetricReport:
    """Micro/macro F1 from aligned (n, L) binary matrices."""
    pred_bits = np.asarray(pred_bits)
    gold_bits = np.asarray(gold_bits)
    if pred_bits.shape != gold_bits.shape:
        raise ValidationError(
            f"shape mismatch: preds {pred_bits.shape}, golds {gold_bits.shape}"
        )
    per_label = []
    micro_tp = micro_fp = micro_fn = 0
    f1s = []
    for i, name in enumerate(label_names):
        p, g = pred_bits[:, i], gold_bits[:, i]
        tp = int(np.sum((p == 1) & (g == 1)))
        fp = int(np.sum((p == 1) & (g == 0)))
        fn = int(np.sum((p == 0) & (g == 1)))
        micro_tp, micro_fp, micro_fn = micro_tp + tp, micro_fp + fp, micro_fn + fn
        precision = tp / (tp + fp) if tp + fp else (1.0 if fn == 0 else 0.0)
        recall = tp / (tp + fn) if tp + fn else (1.0 if fp == 0 else 0.0)
        f1 = _f1(tp, fp, fn)
        f1s.append(f1)
        per_label.append(
            {"label": str(name), "precision": precision, "recall": recall,
             "f1": f1, "support": tp + fn}
        )
    return MetricReport(
        micro_f1=_f1(micro_tp, micro_fp, micro_fn),
        macro_f1=float(np.mean(f1s)),
        per_label=per_label,
    )


def segment_labeling_eval(
    predictions: dict[str, Prediction], key_map: KeyMap, label_names
) -> MetricReport:
    """Micro/macro F1 of per-segment label bits against the gold key map.

    Decisions are all (document, label, segment) triples of the given
    predictions; a gold key index outside a document's segment range means
    the truncation is misaligned with the annotations.
    """
    pred_mat = []
    gold_mat = []
    for doc_id, pred in predictions.items():
        gold_keys_per_label = []
        for name in label_names:
            gold_keys = set(key_map.get((doc_id, name), ()))
            if gold_keys and max(gold_keys) >= pred.m:
                raise ValidationError(
                    f"document {doc_id!r}: gold key segment {max(gold_keys)} out of "
                    f"range for m={pred.m}; segment indices are misaligned"
                )
            gold_keys_per_label.append(gold_keys)
        for k in range(pred.m):
            pred_mat.append(pred.seg_bits[:, k])
            gold_mat.append([1 if k in keys else 0 for keys in gold_keys_per_label])
    if not pred_mat:
        raise ValidationError("no predictions to evaluate")
    return confusion_report(np.asarray(pred_mat), np.asarray(gold_mat), label_names)


def key_segment_recovery(
    predictions: dict[str, Prediction], key_map: KeyMap, label_names
) -> float:
    """Top-1 accuracy: the predicted key segment lies in the gold key set.

    Counted over gold-positive (document, label) pairs whose document appears
    in `predictions`.
    """
    hits = 0
    total = 0
    index = {name: i for i, name in enumerate(label_names)}
    for (doc_id, label), gold_keys in key_map.items():
        pred = predictions.get(doc_id)
        if pred is None:
            continue
        total += 1
        if int(pred.key_segments[index[label]]) in set(gold_keys):
            hits += 1
    return hits / total if total else 0.0


def classification_eval(
    preds: dict[str, Prediction], corpus: Corpus, model: SwipeModel, split: str = "test"
) -> dict:
    """Accuracy plus micro/macro F1 of the document bits on one split.

    `preds` holds the model's prediction for every document of the split.
    """
    docs = corpus.split_docs(split)
    if not docs:
        raise ValidationError(f"split {split!r} is empty")
    acc = float(np.mean(exact_match(model, docs, np.stack([preds[d.id].scores for d in docs]))))
    pred_bits = np.stack([preds[d.id].bits for d in docs])
    gold_bits = np.stack([model.vocab.bits(d.labels) for d in docs])
    report = confusion_report(pred_bits, gold_bits, model.vocab.names)
    return {
        "split": split,
        "n_docs": len(docs),
        "accuracy": acc,
        "micro_f1": report.micro_f1,
        "macro_f1": report.macro_f1,
        "per_label": report.per_label,
    }


# -- sufficiency -------------------------------------------------------------

@dataclass(frozen=True)
class ProbeConfig:
    """Linear probe: hashed n-gram features into one softmax/logistic layer."""

    n_buckets: int = 4096
    dim: int = 32
    epochs: int = 12
    lr: float = 0.05
    batch_size: int = 16


@dataclass
class SufficiencyReport:
    rows: list[dict]  # {"segment_len", "swipe", "random", "full_text"}


def _probe_score(
    samples: dict[str, list[tuple[str, tuple[str, ...]]]],
    vocab: LabelVocab,
    probe: ProbeConfig,
    seed: int,
) -> float:
    """Train the probe on the train samples, return test exact-match accuracy.

    The probe is a one-segment sum-pooling model, which reduces to a plain
    linear layer over hashed n-gram mean features.
    """
    docs = []
    for split, items in samples.items():
        for i, (text, labels) in enumerate(items):
            docs.append(
                Document(id=f"{split}-{i}", text=text if text else "<empty>",
                         labels=labels, split=split)
            )
    corpus = Corpus(documents=docs, vocab=vocab)
    config = ModelConfig(
        labels=vocab.names,
        task_kind=vocab.task_kind,
        pooling=Pooling.SUM,
        truncation=TruncationConfig(strategy="auto", window_len=10**9, overlap=0),
        encoder_mode=ENCODER_HASH,
        n_buckets=probe.n_buckets,
        dim=probe.dim,
        init_seed=derive_seed("probe-init", seed),
    )
    probe_model = SwipeModel.create(config)
    train(corpus, probe_model, TrainConfig(
        epochs=probe.epochs, base_lr=probe.lr, batch_size=probe.batch_size,
        seed=derive_seed("probe-train", seed),
    ))
    test_docs = corpus.split_docs("test")
    scores = np.stack([pred.scores for _, _, pred in probe_model.predict_many(test_docs)])
    return int(exact_match(probe_model, test_docs, scores).sum()) / len(test_docs)


def explanation_segment_indices(pred: Prediction, task_kind: str) -> list[int]:
    """Top-1 key segment per predicted label.

    Multi-class: the argmax class's key segment. Multi-label: one key segment
    per positive bit; with no positive bits, fall back to the key segment of
    the highest-scoring label (ranking-based fallback).
    """
    if task_kind == TASK_MULTICLASS:
        chosen = [int(pred.pred_class)]
    else:
        chosen = [int(i) for i in np.flatnonzero(pred.bits)]
        if not chosen:
            chosen = [int(np.argmax(pred.scores))]
    return sorted({int(pred.key_segments[i]) for i in chosen})


def _segments_text(segments: list[Segment], indices) -> str:
    return " ".join(" ".join(segments[k].tokens) for k in indices)


def sufficiency_test(
    corpus: Corpus,
    model: SwipeModel,
    segment_lens: list[int] | None = None,
    probe: ProbeConfig | None = None,
    seed: int = 0,
) -> SufficiencyReport:
    """Probe accuracy on SWIPE explanations vs random segments vs full text.

    Each requested segment length re-truncates with an auto window of that
    size before extracting explanations; `None` keeps the model's own
    truncation. Requires the built-in encoder (explanations need tokens), a
    trained model and a non-empty test split (the probes are scored on it).
    """
    if model.train_config is None:
        raise ValidationError("sufficiency_test needs a trained model")
    if model.config.encoder_mode != ENCODER_HASH:
        raise ValidationError("sufficiency_test needs the built-in token encoder")
    if not corpus.split_docs("test"):
        raise ValidationError("sufficiency_test needs a non-empty test split")
    probe = probe or ProbeConfig()
    settings: list[int | None] = list(segment_lens) if segment_lens else [None]
    rows = []
    for length in settings:
        if length is None:
            trunc = model.config.truncation
        else:
            trunc = replace(model.config.truncation, strategy="auto",
                            window_len=length, overlap=0)
        rng = np.random.default_rng(
            derive_seed(f"sufficiency-random-{length}", seed)
        )
        samples = {
            "swipe": {"train": [], "test": []},
            "random": {"train": [], "test": []},
            "full_text": {"train": [], "test": []},
        }
        for split in ("train", "test"):
            for doc, segments, pred in model.predict_many(corpus.split_docs(split), trunc):
                explained = explanation_segment_indices(pred, model.config.task_kind)
                random_k = int(rng.integers(0, len(segments)))
                samples["swipe"][split].append(
                    (_segments_text(segments, explained), doc.labels)
                )
                samples["random"][split].append(
                    (_segments_text(segments, [random_k]), doc.labels)
                )
                samples["full_text"][split].append((doc.full_text(), doc.labels))
        row: dict = {"segment_len": length}
        for method in ("swipe", "random", "full_text"):
            row[method] = _probe_score(
                samples[method], model.vocab, probe,
                seed=derive_seed(f"sufficiency-{method}-{length}", seed),
            )
        rows.append(row)
    return SufficiencyReport(rows=rows)


# -- efficiency --------------------------------------------------------------

def scaling_probe(
    segment_counts: list[int],
    trials: int = 30,
    tokens_per_segment: int = 8,
    dim: int = 32,
    n_buckets: int = 512,
    pooling: Pooling = Pooling.MAX,
    reps_per_trial: int = 5,
    seed: int = 0,
) -> list[dict]:
    """Median forward+backward wall time per document length.

    Fixed segment length and dimension; the document length grows with the
    segment count, so linear scaling shows up as roughly proportional
    medians. Each timed sample runs `reps_per_trial` passes, and trials are
    interleaved round-robin across the segment counts so slow clock drift
    hits every count equally. Runs single-threaded for stable numbers.
    """
    rng = np.random.default_rng(derive_seed("scaling-probe", seed))
    config = ModelConfig(
        labels=("label0", "label1"),
        task_kind=TASK_MULTICLASS,
        pooling=pooling,
        truncation=TruncationConfig(strategy="structure"),
        n_buckets=n_buckets,
        dim=dim,
        init_seed=derive_seed("scaling-model", seed),
    )
    model = SwipeModel.create(config)
    batches = {}
    for n in segment_counts:
        units = tuple(
            " ".join(f"tok{int(rng.integers(0, 5000))}" for _ in range(tokens_per_segment))
            for _ in range(n)
        )
        doc = Document(id=f"scale-{n}", units=units, labels=("label0",))
        batches[n] = [(model.featurize(doc), 0)]
    samples_ms: dict[int, list[float]] = {n: [] for n in segment_counts}
    for trial in range(-2, trials):  # two warmup rounds, then measured rounds
        for n in segment_counts:
            start = time.perf_counter()
            for _ in range(reps_per_trial):
                backward_batch(model, batches[n])
            elapsed = (time.perf_counter() - start) * 1e3 / reps_per_trial
            if trial >= 0:
                samples_ms[n].append(elapsed)
    rows = []
    for n in segment_counts:
        arr = np.asarray(samples_ms[n])
        rows.append(
            {
                "n_segments": n,
                "median_ms": float(np.median(arr)),
                "p10_ms": float(np.percentile(arr, 10)),
                "p90_ms": float(np.percentile(arr, 90)),
            }
        )
    return rows


def write_scaling_csv(rows: list[dict], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("n_segments,median_ms,p10_ms,p90_ms\n")
        for row in rows:
            fh.write(
                f"{row['n_segments']},{row['median_ms']:.6f},"
                f"{row['p10_ms']:.6f},{row['p90_ms']:.6f}\n"
            )
