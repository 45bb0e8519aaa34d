import numpy as np
import pytest

from swipe.corpus import (
    Corpus,
    Document,
    LabelVocab,
    SyntheticSpec,
    TASK_MULTICLASS,
    TASK_MULTILABEL,
    generate_synthetic,
    split_corpus,
)
from swipe.errors import ValidationError
from swipe.evaluate import (
    ProbeConfig,
    classification_eval,
    confusion_report,
    scaling_probe,
    segment_labeling_eval,
    sufficiency_test,
    write_scaling_csv,
)
from swipe.head import Pooling, Prediction, build_prediction
from swipe.model import ModelConfig, SwipeModel
from swipe.train import TrainConfig, train
from swipe.truncate import TruncationConfig


def _accuracy(pred_classes, gold_classes) -> float:
    """`classification_eval` accuracy of multi-class predictions, as label indices."""
    names = ("l0", "l1", "l2", "l3", "l4")
    model = SwipeModel.create(ModelConfig(labels=names, n_buckets=8, dim=2))
    docs = [Document(id=f"d{i}", text="x", labels=(names[g],), split="test")
            for i, g in enumerate(gold_classes)]
    # one one-segment document per prediction, scoring 1 on its predicted class
    scores = np.eye(len(names))[pred_classes]
    chunk = build_prediction([doc.id for doc in docs], scores, np.zeros(scores.shape, int),
                             scores, None, np.arange(len(docs) + 1), TASK_MULTICLASS)
    return classification_eval(chunk, model.vocab.gold(docs), model.vocab)["accuracy"]


class TestAccuracy:
    def test_all_correct(self):
        assert _accuracy([1, 2, 3], [1, 2, 3]) == 1.0

    def test_none_correct(self):
        assert _accuracy([1, 2], [2, 1]) == 0.0

    def test_three_of_four(self):
        assert _accuracy([1, 2, 3, 4], [1, 2, 3, 0]) == 0.75


class TestF1:
    def test_perfect(self):
        bits = np.array([[1, 0], [0, 1]])
        report = confusion_report(bits, bits, ["a", "b"])
        assert (report.micro_f1, report.macro_f1) == (1.0, 1.0)

    def test_hand_computed_confusion(self):
        # label 0: TP=1 FP=1 FN=0; label 1: TP=0 FP=0 FN=1
        # micro = 2*1/(2*1+1+1) = 0.5 ; macro = (2/3 + 0)/2 = 1/3
        preds = np.array([[1, 0], [1, 0]])
        golds = np.array([[1, 1], [0, 0]])
        report = confusion_report(preds, golds, ["a", "b"])
        assert report.micro_f1 == pytest.approx(0.5)
        assert report.macro_f1 == pytest.approx(1 / 3)

    def test_all_negative_empty_convention(self):
        preds = np.zeros((3, 2), dtype=int)
        report = confusion_report(preds, preds, ["a", "b"])
        assert (report.micro_f1, report.macro_f1) == (1.0, 1.0)

    def test_micro_equals_accuracy_for_complete_single_label_decisions(self):
        # one decision per document: encode the bit and its complement so
        # every document contributes exactly one positive; then micro F1
        # reduces to plain accuracy
        rng = np.random.default_rng(0)
        golds = rng.integers(0, 2, size=50)
        preds = golds.copy()
        flip = rng.choice(50, size=10, replace=False)
        preds[flip] = 1 - preds[flip]
        preds2 = np.stack([preds, 1 - preds], axis=1)
        golds2 = np.stack([golds, 1 - golds], axis=1)
        report = confusion_report(preds2, golds2, ["a", "b"])
        assert report.micro_f1 == pytest.approx(np.mean(preds == golds))

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            confusion_report(np.zeros((2, 2)), np.zeros((3, 2)), ["a", "b"])

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        preds = rng.integers(0, 2, size=(20, 3))
        golds = rng.integers(0, 2, size=(20, 3))
        perm = rng.permutation(20)
        names = ["a", "b", "c"]
        assert confusion_report(preds, golds, names) == confusion_report(
            preds[perm], golds[perm], names)


def _prediction(doc_id, seg_bits, key_segments=None):
    seg_bits = np.asarray(seg_bits, dtype=np.int8)
    scores = seg_bits.astype(float) - 0.5
    return Prediction(
        doc_id=doc_id,
        scores=scores.max(axis=1),
        bits=(scores.max(axis=1) > 0).astype(np.int8),
        seg_scores=scores,
        gates=None,
        seg_bits=seg_bits,
        key_segments=np.asarray(
            key_segments if key_segments is not None else scores.argmax(axis=1)
        ),
    )


class TestSegmentLabeling:
    def test_exact_match_is_perfect(self):
        preds = [_prediction("d0", [[0, 1, 0], [0, 0, 0]])]
        key_map = {("d0", "a"): (1,)}
        report = segment_labeling_eval(preds, key_map, ["a", "b"])
        assert report["segment_micro_f1"] == 1.0 and report["segment_macro_f1"] == 1.0

    def test_all_zero_bits_zero_micro(self):
        preds = [_prediction("d0", [[0, 0, 0]])]
        key_map = {("d0", "a"): (1,)}
        report = segment_labeling_eval(preds, key_map, ["a"])
        assert report["segment_micro_f1"] == 0.0

    def test_hand_tallied_three_docs(self):
        preds = [
            _prediction("d0", [[1, 1], [0, 0]]),  # a: TP@0, FP@1
            _prediction("d1", [[0, 0], [1, 0]]),  # a: FN@1; b: TP@0
            _prediction("d2", [[0, 0], [0, 1]]),  # b: FP@1
        ]
        key_map = {("d0", "a"): (0,), ("d1", "a"): (1,), ("d1", "b"): (0,)}
        report = segment_labeling_eval(preds, key_map, ["a", "b"])
        # pooled: TP=2 FP=2 FN=1 -> micro = 4/(4+2+1)
        assert report["segment_micro_f1"] == pytest.approx(4 / 7)
        # per label: a: TP=1 FP=1 FN=1 -> 0.5 ; b: TP=1 FP=1 FN=0 -> 2/3
        assert report["segment_macro_f1"] == pytest.approx((0.5 + 2 / 3) / 2)

    # a negative key would otherwise mark a segment counted from the end
    @pytest.mark.parametrize("keys", [(5,), (0, 2), (0, -1)])
    def test_misaligned_gold_index_rejected(self, keys):
        preds = [_prediction("d0", [[0, 1]])]
        key_map = {("d0", "a"): keys}
        with pytest.raises(ValidationError, match=f"segment {keys[-1]} out of range.*misaligned"):
            segment_labeling_eval(preds, key_map, ["a"])


def _recovery(preds, key_map) -> float:
    return segment_labeling_eval(preds, key_map, ["a"])["key_segment_recovery"]


class TestRecovery:
    def test_exact_predictions(self):
        preds = [_prediction("d0", [[0, 1, 0]], key_segments=[1])]
        assert _recovery(preds, {("d0", "a"): (1,)}) == 1.0

    def test_miss(self):
        preds = [_prediction("d0", [[1, 0, 0]], key_segments=[0])]
        assert _recovery(preds, {("d0", "a"): (1,)}) == 0.0

    def test_uniform_random_baseline_close_to_one_over_m(self):
        rng = np.random.default_rng(7)
        m, n_docs = 8, 4000
        key_map = {}
        preds = []
        for i in range(n_docs):
            doc = f"d{i}"
            key_map[(doc, "a")] = (int(rng.integers(0, m)),)
            preds.append(_prediction(doc, np.zeros((1, m), dtype=int),
                                     key_segments=[int(rng.integers(0, m))]))
        assert _recovery(preds, key_map) == pytest.approx(1 / m, abs=0.02)

    def test_docs_missing_from_predictions_ignored(self):
        preds = [_prediction("d0", [[0, 1]], key_segments=[1])]
        key_map = {("d0", "a"): (1,), ("d9", "a"): (0,)}
        assert _recovery(preds, key_map) == 1.0

    def test_empty_key_list_is_a_miss(self):
        preds = [_prediction("d0", [[0, 1]], key_segments=[1]),
                 _prediction("d1", [[0, 1]], key_segments=[1])]
        key_map = {("d0", "a"): (1,), ("d1", "a"): ()}
        assert _recovery(preds, key_map) == 0.5


def _trained_synthetic(pooling=Pooling.MAX, epochs=6, lr=0.05, n_docs=160):
    spec = SyntheticSpec(num_docs=n_docs, num_labels=2, segments_per_doc=(6, 6),
                         filler_vocab=50, seed=13)
    corpus, key_map = generate_synthetic(spec)
    corpus = split_corpus(corpus, (0.8, 0.1, 0.1), seed=13)
    config = ModelConfig(
        labels=corpus.vocab.names, task_kind=TASK_MULTILABEL, pooling=pooling,
        truncation=TruncationConfig(strategy="structure"),
        n_buckets=2048, dim=24, ngram_orders=(1,), init_seed=3,
    )
    model = SwipeModel.create(config)
    train(corpus, model, TrainConfig(epochs=epochs, base_lr=lr, batch_size=16, seed=5))
    return corpus, key_map, model


class TestClassificationEval:
    def test_report_fields_and_range(self):
        corpus, _, model = _trained_synthetic()
        docs = corpus.split_docs("test")
        preds = [model.predict(doc) for doc in docs]
        report = classification_eval(preds, model.vocab.gold(docs), model.vocab)
        assert 0.0 <= report["accuracy"] <= 1.0
        assert 0.0 <= report["micro_f1"] <= 1.0
        assert report["n_docs"] == len(docs)

    def test_empty_split_rejected(self):
        vocab = LabelVocab(("a", "b"), TASK_MULTILABEL)
        with pytest.raises(ValidationError, match="no predictions"):
            classification_eval([], vocab.gold([]), vocab)

    def test_gold_rows_must_match_predictions(self):
        vocab = LabelVocab(("a",), TASK_MULTILABEL)
        preds = [_prediction("d0", [[0, 1]]), _prediction("d1", [[1, 0]])]
        gold = vocab.gold([Document(id="d0", text="x", labels=("a",))])
        with pytest.raises(ValidationError, match="shape mismatch"):
            classification_eval(preds, gold, vocab)


class TestSufficiency:
    def test_untrained_model_rejected(self):
        spec = SyntheticSpec(num_docs=20, num_labels=2, seed=1)
        corpus, _ = generate_synthetic(spec)
        config = ModelConfig(labels=corpus.vocab.names, task_kind=TASK_MULTILABEL,
                             truncation=TruncationConfig(strategy="structure"))
        model = SwipeModel.create(config)
        with pytest.raises(ValidationError, match="trained"):
            sufficiency_test(corpus, model)

    def test_corpus_without_test_split_rejected(self):
        # the probes are scored on the test split; without one there is no score
        corpus, _, model = _trained_synthetic()
        docs = [d for d in corpus.documents if d.effective_split() != "test"]
        with pytest.raises(ValidationError, match="non-empty test split"):
            sufficiency_test(Corpus(documents=docs, vocab=corpus.vocab), model)

    def test_report_structure_and_determinism(self):
        corpus, _, model = _trained_synthetic()
        probe = ProbeConfig(epochs=4, lr=0.05, n_buckets=512, dim=16)
        a = sufficiency_test(corpus, model, probe=probe, seed=3)
        b = sufficiency_test(corpus, model, probe=probe, seed=3)
        assert a.rows == b.rows
        row = a.rows[0]
        assert set(row) == {"segment_len", "swipe", "random", "full_text"}
        for key in ("swipe", "random", "full_text"):
            assert 0.0 <= row[key] <= 1.0

    def test_multiple_lengths_reported(self):
        corpus, _, model = _trained_synthetic()
        probe = ProbeConfig(epochs=2, lr=0.05, n_buckets=512, dim=16)
        report = sufficiency_test(corpus, model, segment_lens=[8, 16], probe=probe, seed=0)
        assert [r["segment_len"] for r in report.rows] == [8, 16]


class TestScalingProbe:
    def test_rows_and_csv(self, tmp_path):
        rows = scaling_probe([2, 4], trials=3, reps_per_trial=1, seed=0)
        assert [r["n_segments"] for r in rows] == [2, 4]
        for row in rows:
            assert row["median_ms"] > 0
            assert row["p10_ms"] <= row["median_ms"] <= row["p90_ms"]
        path = tmp_path / "scale.csv"
        write_scaling_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n_segments,median_ms,p10_ms,p90_ms"
        assert len(lines) == 3
