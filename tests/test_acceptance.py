"""Acceptance suite: one test per criterion, one printed pass line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The synthetic-corpus experiments share module-scoped
fixtures so the whole suite stays inside a desk-scale time budget.
"""

import time

import numpy as np
import pytest

from swipe import autodiff as ad
from swipe.cli import main as cli_main
from swipe.corpus import (
    Document,
    SyntheticSpec,
    TASK_MULTICLASS,
    TASK_MULTILABEL,
    generate_synthetic,
    split_corpus,
)
from swipe.encoder import SegmentMatrix
from swipe.evaluate import (
    ProbeConfig,
    classification_eval,
    scaling_probe,
    segment_labeling_eval,
    sufficiency_test,
)
from swipe.head import Pooling, pool_tensor
from swipe.model import Batch, ModelConfig, SwipeModel
from swipe.train import TrainConfig, doc_loss, grad_check, train
from swipe.truncate import TruncationConfig


def report(name, passed, details):
    line = f"ACCEPTANCE {name}: {'PASS' if passed else 'FAIL'} ({details})"
    print(line)
    assert passed, line


# -- shared synthetic-oracle experiment ---------------------------------------

SYNTH_SPEC = SyntheticSpec(
    num_docs=500,
    num_labels=2,
    segments_per_doc=(8, 8),
    key_vocab_per_label=20,
    filler_vocab=50,
    tokens_per_segment=(6, 12),
    task_kind=TASK_MULTILABEL,
    seed=13,
)


def _model_config(pooling, labels, task_kind):
    return ModelConfig(
        labels=labels,
        task_kind=task_kind,
        pooling=pooling,
        truncation=TruncationConfig(strategy="structure"),
        n_buckets=4096,
        dim=32,
        ngram_orders=(1,),
        init_seed=3,
    )


@pytest.fixture(scope="module")
def synth_corpus():
    corpus, key_map = generate_synthetic(SYNTH_SPEC)
    return split_corpus(corpus, (0.8, 0.1, 0.1), seed=13), key_map


def _train_variant(corpus, pooling, epochs, lr, batch_size):
    model = SwipeModel.create(
        _model_config(pooling, corpus.vocab.names, corpus.vocab.task_kind)
    )
    train(corpus, model, TrainConfig(epochs=epochs, base_lr=lr, batch_size=batch_size, seed=5))
    return model


@pytest.fixture(scope="module")
def trained_max(synth_corpus):
    corpus, _ = synth_corpus
    start = time.perf_counter()
    model = _train_variant(corpus, Pooling.MAX, epochs=10, lr=0.05, batch_size=16)
    model.train_seconds = time.perf_counter() - start
    return model


def _test_predictions(model, corpus):
    return [model.predict(doc) for doc in corpus.split_docs("test")]


# -- criteria ------------------------------------------------------------------

def test_criterion_1_perceptron_equivalence(head_model, head_params):
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    failures = 0
    for _ in range(1000):
        n_labels = int(rng.integers(1, 5))
        dim = int(rng.integers(2, 9))
        vector = rng.normal(size=(1, dim))
        params = head_params(n_labels, dim, init_seed=int(rng.integers(2**31)))
        perceptron_bits = (
            params["head.weight"] @ vector[0] + params["head.bias"] > 0
        ).astype(np.int8)
        mat = SegmentMatrix(doc_id="d", rows=vector)
        for strategy in (Pooling.MAX, Pooling.SUM):
            pred = head_model(params, strategy).predict_features(mat)
            if pred.bits.tolist() != perceptron_bits.tolist():
                failures += 1
    elapsed = time.perf_counter() - start
    report(
        "1 perceptron-equivalence",
        failures == 0 and elapsed < 5.0,
        f"failures={failures}/1000, runtime={elapsed:.2f}s < 5s",
    )


def test_criterion_2_explanation_soundness(head_model, head_params):
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    failures = 0
    for _ in range(1000):
        n_labels = int(rng.integers(1, 4))
        m = int(rng.integers(1, 7))
        dim = int(rng.integers(2, 7))
        mat = SegmentMatrix(doc_id="d", rows=rng.normal(size=(m, dim)))
        params = head_params(n_labels, dim, init_seed=int(rng.integers(2**31)))
        for strategy in (Pooling.MAX, Pooling.GATED_MAX):
            pred = head_model(params, strategy).predict_features(mat)
            for i in range(n_labels):
                has_positive = bool(np.any(pred.seg_scores[i] > 0))
                if bool(pred.bits[i]) != has_positive:
                    failures += 1
    elapsed = time.perf_counter() - start
    report(
        "2 explanation-soundness",
        failures == 0 and elapsed < 5.0,
        f"failures={failures}/1000, runtime={elapsed:.2f}s < 5s",
    )


def test_criterion_3_pooling_oracle():
    rng = np.random.default_rng(303)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n_labels = int(rng.integers(1, 6))
        m = int(rng.integers(1, 7))
        scores = rng.normal(size=(n_labels, m)) * 3
        gates = 1 / (1 + np.exp(-rng.normal(size=(n_labels, m))))
        for strategy in Pooling:
            g = ad.Tensor(gates.T) if strategy.gated else None
            y = pool_tensor(ad.Tensor(scores.T), g, strategy, np.array([0, m]))[0].data[0]
            for i in range(n_labels):
                acc = -np.inf if strategy.is_max else 0.0
                for k in range(m):
                    value = scores[i][k] * (gates[i][k] if strategy.gated else 1.0)
                    acc = max(acc, value) if strategy.is_max else acc + value
                worst = max(worst, abs(y[i] - acc))
    elapsed = time.perf_counter() - start
    report(
        "3 pooling-oracle",
        worst < 1e-6 and elapsed < 5.0,
        f"max_abs_err={worst:.2e} < 1e-6, runtime={elapsed:.2f}s < 5s",
    )


def test_criterion_4_gradient_checks():
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    excluded = 0
    units = ("alpha beta gamma", "delta beta", "epsilon zeta eta theta")
    doc = Document(id="g", units=units, labels=("a",))
    for layers in (0, 2):
        for strategy in Pooling:
            config = ModelConfig(
                labels=("a", "b"),
                task_kind=TASK_MULTILABEL,
                pooling=strategy,
                truncation=TruncationConfig(strategy="structure"),
                n_buckets=16,
                dim=8,
                ngram_orders=(1, 2),
                interaction_layers=layers,
                n_heads=2,
                init_seed=layers * 10 + 7,
            )
            model = SwipeModel.create(config)
            batch = Batch.of([model.featurize(doc)])
            gold = model.vocab.gold([doc])
            tensors = model.tensors(requires_grad=True)

            def fn():
                return doc_loss(model, batch, gold, tensors)

            rep = grad_check(fn, tensors, tolerance=1e-4)
            assert rep.passed, (strategy, layers, rep.failures[:3])
            worst = max(worst, rep.max_rel_error)
            checked += rep.n_checked
            excluded += rep.n_excluded
    elapsed = time.perf_counter() - start
    report(
        "4 gradient-checks",
        worst < 1e-4 and elapsed < 60.0,
        f"max_rel_err={worst:.2e} < 1e-4 over {checked} coords "
        f"({excluded} tie-excluded), runtime={elapsed:.1f}s < 60s",
    )


def test_criterion_5_synthetic_recovery(synth_corpus, trained_max):
    corpus, key_map = synth_corpus
    preds = _test_predictions(trained_max, corpus)
    rep = classification_eval(preds, corpus.vocab.gold(corpus.split_docs("test")), corpus.vocab)
    recovery = segment_labeling_eval(preds, key_map, corpus.vocab.names)["key_segment_recovery"]
    report(
        "5 synthetic-recovery",
        rep["accuracy"] >= 0.95 and recovery >= 0.90 and trained_max.train_seconds < 120,
        f"test_acc={rep['accuracy']:.3f} >= 0.95, top1_recovery={recovery:.3f} >= 0.90, "
        f"train_time={trained_max.train_seconds:.1f}s < 120s",
    )


def test_criterion_6_segment_labeling_f1(synth_corpus, trained_max):
    corpus, key_map = synth_corpus
    names = corpus.vocab.names

    def seg_f1(model):
        return segment_labeling_eval(_test_predictions(model, corpus), key_map,
                                     names)["segment_micro_f1"]

    max_family = {
        "max": seg_f1(trained_max),
        "gated_max": seg_f1(
            _train_variant(corpus, Pooling.GATED_MAX, epochs=10, lr=0.05, batch_size=16)
        ),
    }
    gated_sum_family = {
        "gated_sum": seg_f1(
            _train_variant(corpus, Pooling.GATED_SUM, epochs=20, lr=0.1, batch_size=64)
        ),
    }
    best = max(max_family | gated_sum_family, key=(max_family | gated_sum_family).get)
    best_f1 = (max_family | gated_sum_family)[best]
    gap = max(max_family.values()) - max(gated_sum_family.values())
    report(
        "6 segment-labeling-f1",
        best_f1 >= 0.85 and gap <= 0.10,
        f"best={best}:{best_f1:.3f} >= 0.85; "
        f"max_family={max(max_family.values()):.3f}, "
        f"gated_sum={max(gated_sum_family.values()):.3f}, gap={gap:.3f} <= 0.10",
    )


def test_criterion_7_sufficiency(synth_corpus, trained_max):
    corpus, _ = synth_corpus
    rows = sufficiency_test(
        corpus, trained_max, probe=ProbeConfig(epochs=12, lr=0.05), seed=11
    ).rows
    row = rows[0]
    report(
        "7 sufficiency",
        row["swipe"] >= row["random"] + 0.10 and row["swipe"] >= row["full_text"] - 0.05,
        f"explanation={row['swipe']:.3f} >= random={row['random']:.3f}+0.10 "
        f"and >= full_text={row['full_text']:.3f}-0.05",
    )


def test_criterion_8_linear_scaling():
    rows = scaling_probe([8, 16, 32, 64], trials=25, reps_per_trial=10, seed=0)
    medians = {row["n_segments"]: row["median_ms"] for row in rows}
    ratios = {n: medians[2 * n] / medians[n] for n in (8, 16, 32)}
    report(
        "8 linear-scaling",
        all(r <= 2.5 for r in ratios.values()),
        "doubling ratios "
        + ", ".join(f"{n}->{2*n}: {r:.2f}" for n, r in ratios.items())
        + " all <= 2.5 (>=25 trials)",
    )


def test_criterion_9_convergence_pattern():
    spec = SyntheticSpec(
        num_docs=SYNTH_SPEC.num_docs,
        num_labels=SYNTH_SPEC.num_labels,
        segments_per_doc=SYNTH_SPEC.segments_per_doc,
        key_vocab_per_label=SYNTH_SPEC.key_vocab_per_label,
        filler_vocab=SYNTH_SPEC.filler_vocab,
        tokens_per_segment=SYNTH_SPEC.tokens_per_segment,
        task_kind=TASK_MULTICLASS,
        seed=SYNTH_SPEC.seed,
    )
    corpus, _ = generate_synthetic(spec)
    corpus = split_corpus(corpus, (0.8, 0.1, 0.1), seed=13)
    epoch1 = {Pooling.MAX: [], Pooling.SUM: []}
    final = {Pooling.MAX: [], Pooling.SUM: []}
    for seed in range(5):
        for pooling in (Pooling.MAX, Pooling.SUM):
            config = ModelConfig(
                labels=corpus.vocab.names, task_kind=TASK_MULTICLASS, pooling=pooling,
                truncation=TruncationConfig(strategy="structure"),
                n_buckets=4096, dim=32, ngram_orders=(1,), init_seed=seed,
            )
            model = SwipeModel.create(config)
            result = train(corpus, model,
                           TrainConfig(epochs=10, base_lr=0.05, batch_size=16, seed=seed))
            epoch1[pooling].append(result.metrics[0]["dev_metric"])
            final[pooling].append(result.metrics[-1]["dev_metric"])
    diffs = np.array(epoch1[Pooling.MAX]) - np.array(epoch1[Pooling.SUM])
    wins = int(np.sum(diffs >= 0))
    noise = float(diffs.std(ddof=1)) if len(diffs) > 1 else 0.0
    ordering_ok = wins >= 4 or abs(float(diffs.mean())) <= noise
    final_gaps = np.abs(np.array(final[Pooling.MAX]) - np.array(final[Pooling.SUM]))
    finals_ok = bool(np.all(final_gaps <= 0.02 + 1e-12))
    report(
        "9 convergence-pattern",
        ordering_ok and finals_ok,
        f"epoch1 max>=sum in {wins}/5 seeds (mean_diff={diffs.mean():+.3f}, "
        f"noise_sd={noise:.3f}; soft check), final gaps "
        f"{[round(float(g), 3) for g in final_gaps]} all <= 0.02",
    )


def test_criterion_10_determinism(tmp_path):
    base = ["synth", "--docs", "60", "--labels", "2", "--segments-per-doc", "6",
            "--filler-vocab", "50", "--seed", "13"]
    outputs = {}
    for tag in ("a", "b"):
        root = tmp_path / tag
        assert cli_main(base + ["--out", str(root)]) == 0
        ckpt = root / "model.ckpt"
        assert cli_main([
            "train", "--corpus", str(root / "corpus.jsonl"), "--task", "multi-label",
            "--truncate", "structure", "--pooling", "max", "--ngram-orders", "1",
            "--buckets", "512", "--dim", "16", "--epochs", "3", "--lr", "0.05",
            "--seed", "5", "--out", str(ckpt),
        ]) == 0
        assert cli_main([
            "predict", "--checkpoint", str(ckpt),
            "--corpus", str(root / "corpus.jsonl"),
            "--out", str(root / "preds.jsonl"),
        ]) == 0
        assert cli_main([
            "eval", "--checkpoint", str(ckpt),
            "--corpus", str(root / "corpus.jsonl"),
            "--keymap", str(root / "keymap.jsonl"),
            "--split", "test", "--out", str(root / "report.json"),
        ]) == 0
        assert cli_main([
            "sufficiency", "--checkpoint", str(ckpt),
            "--corpus", str(root / "corpus.jsonl"),
            "--probe-epochs", "2", "--seed", "3",
            "--out", str(root / "sufficiency.json"),
        ]) == 0
        outputs[tag] = {
            name: (root / name).read_bytes()
            for name in ("corpus.jsonl", "keymap.jsonl", "model.ckpt",
                         "model.ckpt.metrics.csv", "preds.jsonl",
                         "report.json", "sufficiency.json")
        }
    mismatched = [k for k in outputs["a"] if outputs["a"][k] != outputs["b"][k]]
    report(
        "10 determinism",
        not mismatched,
        "synth/train/predict/eval/sufficiency outputs bit-identical across two runs"
        if not mismatched else f"mismatched: {mismatched}",
    )
