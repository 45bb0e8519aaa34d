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
from swipe.errors import ConfigError, ValidationError
from swipe.hashing import derive_seed
from swipe.head import Pooling, Prediction
from swipe.model import Batch, SwipeModel
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


def segment_labeling_eval(preds: list[Prediction], key_map: KeyMap, label_names) -> dict:
    """Segment-labeling micro/macro F1 and key-segment recovery against the
    gold key map, in one pass over `preds`.

    F1 decisions are all (document, label, segment) triples of the
    predictions; a gold key index outside a document's segment range means
    the truncation is misaligned with the annotations. Recovery is top-1
    accuracy over the key map's records of the predicted documents: a hit
    when the label's predicted key segment lies in the gold key set (an
    empty set is a miss).
    """
    if not preds:
        raise ValidationError("no predictions to evaluate")
    rows: list[int] = []  # the gold matrix's 1 cells, over all documents' segments
    cols: list[int] = []
    hits = total = offset = 0
    for pred in preds:
        m, predicted_keys = pred.m, pred.key_segments.tolist()
        for j, name in enumerate(label_names):
            keys = key_map.get((pred.doc_id, name))
            if keys is None:
                continue
            bad = [k for k in keys if not 0 <= k < m]
            if bad:
                raise ValidationError(
                    f"document {pred.doc_id!r}: gold key segment {max(bad)} out of "
                    f"range for m={m}; segment indices are misaligned"
                )
            rows.extend(offset + k for k in keys)
            cols.extend([j] * len(keys))
            total += 1
            hits += predicted_keys[j] in keys
        offset += m
    gold = np.zeros((offset, len(label_names)), dtype=np.int8)
    gold[rows, cols] = 1
    report = confusion_report(np.concatenate([pred.seg_bits.T for pred in preds]), gold,
                              label_names)
    return {
        "segment_micro_f1": report.micro_f1,
        "segment_macro_f1": report.macro_f1,
        "key_segment_recovery": hits / total if total else 0.0,
    }


def classification_eval(preds: list[Prediction], gold: np.ndarray, vocab: LabelVocab) -> dict:
    """Accuracy plus micro/macro F1 of the document bits; `gold` holds the
    `vocab.gold` rows of the predicted documents, in the order of `preds`."""
    if not preds:
        raise ValidationError("no predictions to evaluate")
    report = confusion_report(np.stack([pred.bits for pred in preds]), gold, vocab.names)
    scores = np.stack([pred.scores for pred in preds])
    return {
        "n_docs": len(preds),
        "accuracy": float(np.mean(exact_match(vocab.task_kind, scores, gold))),
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
    hits = exact_match(vocab.task_kind, scores, vocab.gold(test_docs))
    return int(hits.sum()) / len(test_docs)


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
        methods = ("swipe", "random", "full_text")
        samples = {method: {"train": [], "test": []} for method in methods}
        for split in ("train", "test"):
            for doc, segments, pred in model.predict_many(corpus.split_docs(split), trunc):
                explained = explanation_segment_indices(pred, model.config.task_kind)
                random_k = int(rng.integers(0, len(segments)))
                texts = (_segments_text(segments, explained),
                         _segments_text(segments, [random_k]), doc.full_text())
                for method, text in zip(methods, texts):
                    samples[method][split].append((text, doc.labels))
        row: dict = {"segment_len": length}
        for method in methods:
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

    Raises ConfigError for fewer than one trial or token per segment, and
    for segment counts that are none, below one or repeated.
    """
    if trials < 1 or tokens_per_segment < 1:
        raise ConfigError(f"trials ({trials}) and tokens per segment "
                          f"({tokens_per_segment}) must be >= 1")
    if min(segment_counts, default=0) < 1 or len(set(segment_counts)) < len(segment_counts):
        raise ConfigError(f"segment counts must be distinct and >= 1, got {segment_counts}")
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
        batches[n] = (Batch.of([model.featurize(doc)]), model.vocab.gold([doc]))
    samples_ms: dict[int, list[float]] = {n: [] for n in segment_counts}
    for trial in range(-2, trials):  # two warmup rounds, then measured rounds
        for n in segment_counts:
            start = time.perf_counter()
            for _ in range(reps_per_trial):
                backward_batch(model, *batches[n])
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
