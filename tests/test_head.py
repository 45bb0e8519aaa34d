import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from swipe import autodiff as ad
from swipe.corpus import TASK_KINDS, TASK_MULTICLASS, Document
from swipe.encoder import SegmentMatrix
from swipe.errors import ConfigError
from swipe.head import Pooling, pool_tensor
from swipe.model import ENCODER_PRECOMPUTED, ModelConfig, SwipeModel


def _params(weight, bias, gate_weight=None, gate_bias=None):
    weight = np.asarray(weight, dtype=float)
    n_labels, dim = weight.shape
    return {
        "head.weight": weight,
        "head.bias": np.asarray(bias, dtype=float),
        "head.gate_weight": (np.zeros((n_labels, dim)) if gate_weight is None
                             else np.asarray(gate_weight, float)),
        "head.gate_bias": (np.zeros(n_labels) if gate_bias is None
                           else np.asarray(gate_bias, float)),
    }


@pytest.fixture()
def random_instance(head_params):
    """`random_instance(rng, n_labels, m, dim)`: m random segment vectors and
    head parameters drawn from a seed taken from `rng`."""

    def draw(rng, n_labels, m, dim):
        mat = SegmentMatrix(doc_id="d", rows=rng.normal(size=(m, dim)))
        return mat, head_params(n_labels, dim, init_seed=int(rng.integers(2**31)))

    return draw


class TestInit:
    def test_random_rows_scale(self):
        config = ModelConfig(labels=tuple(f"l{i}" for i in range(50)),
                             encoder_mode=ENCODER_PRECOMPUTED, dim=100)
        params = SwipeModel.create(config).params
        assert abs(params["head.weight"].std() - 0.1) < 0.02  # 1/sqrt(dim)
        assert np.all(params["head.bias"] == 0)


class TestScores:
    def test_bias_only(self, head_model):
        params = _params(np.zeros((2, 3)), [1.5, -2.0])
        mat = SegmentMatrix(doc_id="d", rows=np.ones((4, 3)))
        scores = head_model(params, Pooling.MAX).predict_features(mat).seg_scores
        np.testing.assert_allclose(scores[0], 1.5)
        np.testing.assert_allclose(scores[1], -2.0)

    def test_dot_product(self, head_model):
        params = _params([[1.0, -1.0]], [0.0])
        mat = SegmentMatrix(doc_id="d", rows=np.array([[3.0, 1.0]]))
        pred = head_model(params, Pooling.MAX).predict_features(mat)
        np.testing.assert_allclose(pred.seg_scores, [[2.0]])

    def test_matches_matrix_multiply_oracle(self, head_model, random_instance):
        rng = np.random.default_rng(0)
        mat, params = random_instance(rng, n_labels=3, m=4, dim=5)
        scores = head_model(params, Pooling.MAX).predict_features(mat).seg_scores
        oracle = params["head.weight"] @ mat.rows.T + params["head.bias"][:, None]
        np.testing.assert_allclose(scores, oracle, atol=1e-6)
        assert scores.shape == (3, 4)

    def test_dim_mismatch(self, head_model):
        params = _params(np.zeros((2, 3)), np.zeros(2))
        model = head_model(params, Pooling.MAX)
        with pytest.raises(ConfigError):
            model.predict_features(SegmentMatrix(doc_id="d", rows=np.zeros((2, 4))))


class TestGates:
    def test_zero_params_give_half(self, head_model):
        params = _params(np.zeros((2, 3)), np.zeros(2))
        mat = SegmentMatrix(doc_id="d", rows=np.ones((4, 3)))
        pred = head_model(params, Pooling.GATED_MAX).predict_features(mat)
        np.testing.assert_allclose(pred.gates, 0.5)

    def test_saturation(self, head_model):
        params = _params(np.zeros((1, 1)), [0.0], gate_weight=[[50.0]], gate_bias=[0.0])
        mat = SegmentMatrix(doc_id="d", rows=np.array([[1.0]]))
        gates = head_model(params, Pooling.GATED_MAX).predict_features(mat).gates
        assert abs(gates[0, 0] - 1.0) < 1e-15

    def test_matches_sigmoid_affine_oracle(self, head_model, random_instance):
        rng = np.random.default_rng(1)
        mat, params = random_instance(rng, n_labels=2, m=5, dim=4)
        gates = head_model(params, Pooling.GATED_SUM).predict_features(mat).gates
        logits = params["head.gate_weight"] @ mat.rows.T + params["head.gate_bias"][:, None]
        np.testing.assert_allclose(gates, 1 / (1 + np.exp(-logits)), atol=1e-6)
        assert np.all((gates > 0) & (gates < 1))


def _pool_alone(scores, gates, strategy):
    """`pool_tensor` over one document of (m, L) segment scores, a batch of
    one: its (L,) document scores, and its (L,) argmax segments or None."""
    y, _, argmax = pool_tensor(ad.Tensor(scores), None if gates is None else ad.Tensor(gates),
                               strategy, np.array([0, len(scores)]))
    return y.data[0], None if argmax is None else argmax[0]


class TestPool:
    # pool_tensor takes (M, L) scores: one row per segment, one column per label

    def test_max(self):
        y, argmax = _pool_alone(np.array([[-1.0], [2.0], [0.5]]), None, Pooling.MAX)
        assert y[0] == 2.0 and argmax[0] == 1

    def test_sum(self):
        y, argmax = _pool_alone(np.array([[1.0], [-2.0], [0.5]]), None, Pooling.SUM)
        np.testing.assert_allclose(y, [-0.5])
        assert argmax is None

    def test_gated_max(self):
        y, argmax = _pool_alone(np.array([[-1.0], [2.0], [0.5]]),
                               np.array([[0.9], [0.1], [0.8]]), Pooling.GATED_MAX)
        np.testing.assert_allclose(y, [0.4])
        assert argmax[0] == 2

    def test_pooled_rows(self):
        scores, gates = np.array([[-1.0], [2.0], [0.5]]), np.array([[0.9], [0.1], [0.8]])
        for strategy in Pooling:
            _, rows, _ = pool_tensor(ad.Tensor(scores), ad.Tensor(gates), strategy,
                                     np.array([0, 3]))
            np.testing.assert_array_equal(rows.data, gates * scores if strategy.gated else scores)

    def test_missing_gates_rejected(self):
        with pytest.raises(ConfigError):
            _pool_alone(np.zeros((3, 1)), None, Pooling.GATED_SUM)

    def test_brute_force_oracle_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            n_labels = int(rng.integers(1, 6))
            m = int(rng.integers(1, 7))
            scores = rng.normal(size=(n_labels, m))
            gates = 1 / (1 + np.exp(-rng.normal(size=(n_labels, m))))
            for strategy in Pooling:
                y, _ = _pool_alone(scores.T, gates.T if strategy.gated else None, strategy)
                for i in range(n_labels):
                    if strategy is Pooling.MAX:
                        expected = max(scores[i])
                    elif strategy is Pooling.GATED_MAX:
                        expected = max(g * z for g, z in zip(gates[i], scores[i]))
                    elif strategy is Pooling.SUM:
                        expected = sum(scores[i])
                    else:
                        expected = sum(g * z for g, z in zip(gates[i], scores[i]))
                    assert abs(y[i] - expected) < 1e-6

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        scores = rng.normal(size=(3, 6))
        gates = 1 / (1 + np.exp(-rng.normal(size=(3, 6))))
        perm = rng.permutation(6)
        for strategy in Pooling:
            g = gates.T if strategy.gated else None
            g_perm = gates[:, perm].T if strategy.gated else None
            y, _ = _pool_alone(scores.T, g, strategy)
            y_perm, _ = _pool_alone(scores[:, perm].T, g_perm, strategy)
            np.testing.assert_allclose(y, y_perm, atol=1e-9)


class TestClassify:
    def test_all_zero_params_strict_threshold(self, head_model):
        params = _params(np.zeros((3, 2)), np.zeros(3))
        mat = SegmentMatrix(doc_id="d", rows=np.ones((4, 2)))
        pred = head_model(params, Pooling.SUM).predict_features(mat)
        assert pred.bits.tolist() == [0, 0, 0]  # y == 0 counts as negative
        assert pred.seg_bits.tolist() == np.zeros((3, 4), dtype=int).tolist()

    def test_single_segment_equals_standard_perceptron(self, head_model, random_instance):
        rng = np.random.default_rng(5)
        for _ in range(50):
            mat, params = random_instance(rng, n_labels=3, m=1, dim=4)
            perceptron_bits = (
                params["head.weight"] @ mat.rows[0] + params["head.bias"] > 0
            ).astype(int)
            for strategy in (Pooling.MAX, Pooling.SUM):
                pred = head_model(params, strategy).predict_features(mat)
                assert pred.bits.tolist() == perceptron_bits.tolist()

    def test_planted_positive_segment_is_flagged(self, head_model):
        # shared segments score negative, one planted segment scores +1
        params = _params([[1.0]], [0.0])
        mat = SegmentMatrix(doc_id="d", rows=np.array([[-1.0], [-0.5], [1.0], [-2.0]]))
        pred = head_model(params, Pooling.MAX).predict_features(mat)
        assert pred.bits[0] == 1
        assert pred.seg_bits[0].tolist() == [0, 0, 1, 0]
        assert pred.key_segments[0] == 2

    def test_multiclass_argmax_and_tie_break(self, head_model):
        params = _params(np.zeros((3, 2)), [0.5, 0.5, 0.2])
        mat = SegmentMatrix(doc_id="d", rows=np.zeros((2, 2)))
        pred = head_model(params, Pooling.MAX, TASK_MULTICLASS).predict_features(mat)
        assert pred.pred_class == 0  # tie between labels 0 and 1 -> lowest index

    def test_record_serialization_layout(self, head_model, random_instance):
        rng = np.random.default_rng(0)
        mat, params = random_instance(rng, n_labels=2, m=3, dim=4)
        pred = head_model(params, Pooling.GATED_MAX).predict_features(mat)
        record = pred.to_record(["alpha", "beta"])
        assert record["doc_id"] == "d"
        assert {e["label"] for e in record["per_label"]} == {"alpha", "beta"}
        entry = record["per_label"][0]
        assert set(entry) == {"label", "y", "bit", "key_segment",
                              "positive_segments", "segment_scores"}
        assert len(entry["segment_scores"]) == 3


class TestRanking:
    def test_descending_order(self, head_model):
        params = _params([[1.0]], [0.0])
        mat = SegmentMatrix(doc_id="d", rows=np.array([[0.1], [5.0], [-3.0]]))
        pred = head_model(params, Pooling.MAX).predict_features(mat)
        assert list(pred.key_segments) == [1]

    def test_stable_ties_keep_index_order(self, head_model):
        params = _params([[0.0]], [0.7])
        mat = SegmentMatrix(doc_id="d", rows=np.zeros((4, 1)))
        pred = head_model(params, Pooling.SUM).predict_features(mat)
        assert list(pred.key_segments) == [0]

    def test_gated_ranking_uses_product(self, head_model):
        # a segment vector is (score, gate logit): the head reads one into each
        seg_scores = np.array([5.0, 0.1, 0.2])
        gates = np.array([0.01, 0.999, 0.5])
        mat = SegmentMatrix(doc_id="d", rows=np.stack([seg_scores, np.log(gates / (1 - gates))],
                                                      axis=1))
        params = _params([[1.0, 0.0]], [0.0], gate_weight=[[0.0, 1.0]], gate_bias=[0.0])
        # products 0.05, 0.0999, 0.1: the gate moves the key off segment 0
        for strategy, key in ((Pooling.MAX, 0), (Pooling.GATED_MAX, 2)):
            pred = head_model(params, strategy).predict_features(mat)
            np.testing.assert_allclose(pred.seg_scores, [seg_scores])
            assert list(pred.key_segments) == [key]


class TestExplain:
    def test_positive_document_has_key_in_positive_set(self, head_model, random_instance):
        rng = np.random.default_rng(11)
        found = 0
        for _ in range(100):
            mat, params = random_instance(rng, n_labels=2, m=5, dim=3)
            pred = head_model(params, Pooling.MAX).predict_features(mat)
            for label in range(2):
                positives = np.flatnonzero(pred.seg_bits[label])
                if pred.bits[label] == 1:
                    found += 1
                    assert pred.key_segments[label] in positives
                else:
                    assert positives.size == 0
        assert found > 0

    def test_sum_pooling_positive_set(self, head_model):
        params = _params([[1.0]], [0.0])
        mat = SegmentMatrix(doc_id="d", rows=np.array([[3.0], [-1.0], [-1.0]]))
        pred = head_model(params, Pooling.SUM).predict_features(mat)
        assert pred.scores[0] == pytest.approx(1.0)
        assert list(np.flatnonzero(pred.seg_bits[0])) == [0]


# -- hypothesis property tests ------------------------------------------------

finite = st.floats(-10, 10, allow_nan=False)

# sign preservation under gating holds in exact arithmetic; a subnormal score
# times a small gate underflows to +-0.0, so keep magnitudes out of that regime
signable = finite.map(lambda v: 0.0 if abs(v) < 1e-12 else v)


@settings(max_examples=80, deadline=None)
@given(
    scores=st.lists(st.lists(signable, min_size=1, max_size=6), min_size=1, max_size=4)
    .filter(lambda rows: len({len(r) for r in rows}) == 1),
    gate_logits=finite,
)
def test_gate_sign_preservation_implies_same_max_bit(scores, gate_logits):
    scores = np.asarray(scores)
    rng = np.random.default_rng(0)
    gates = 1 / (1 + np.exp(-rng.normal(gate_logits, 1, size=scores.shape)))
    y_max, _ = _pool_alone(scores.T, None, Pooling.MAX)
    y_gated, _ = _pool_alone(scores.T, gates.T, Pooling.GATED_MAX)
    np.testing.assert_array_equal(y_max > 0, y_gated > 0)
    assert np.array_equal(np.sign(gates * scores), np.sign(scores))


@settings(max_examples=80, deadline=None)
@given(
    first=st.lists(finite, min_size=1, max_size=8),
    inserted=finite,
    position=st.integers(0, 8),
)
def test_sum_deduction_inserted_element_sign(first, inserted, position):
    # two score lists differing by one inserted element e:
    # sum(with e) > 0 and sum(without e) < 0 forces e > 0
    position = min(position, len(first))
    with_e = first[:position] + [inserted] + first[position:]
    if sum(with_e) > 0 and sum(first) < 0:
        assert inserted > 0


def _old_record(pred, names) -> dict:
    """The prediction record as it was built one label at a time."""
    per_label = [{"label": name, "y": float(pred.scores[i]), "bit": int(pred.bits[i]),
                  "key_segment": int(pred.key_segments[i]),
                  "positive_segments": np.flatnonzero(pred.seg_bits[i]).tolist(),
                  "segment_scores": pred.seg_scores[i].tolist()}
                 for i, name in enumerate(names)]
    labels = ([names[pred.pred_class]] if pred.pred_class is not None
              else [names[i] for i in np.flatnonzero(pred.bits)])
    return {"doc_id": pred.doc_id, "labels": labels, "per_label": per_label}


@settings(max_examples=150, deadline=None)
@given(data=st.data(), pooling=st.sampled_from(list(Pooling)),
       task_kind=st.sampled_from(TASK_KINDS))
def test_chunk_predictions_match_per_document_formulas(head_model, data, pooling, task_kind):
    """A chunk of 1-5 documents of 1-6 segments, predicted together, gives
    each document what the per-document formulas give on its own arrays.

    Small integer scores and gate logits make ties common. The head reads a
    segment vector (scores | gate logits) through identity weights, so each
    document's segment scores are its vectors' first half exactly.
    """
    n_labels = data.draw(st.integers(2 if task_kind == TASK_MULTICLASS else 1, 4))
    lengths = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
    cell = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])
    vectors = {f"d{b}": data.draw(hnp.arrays(np.float64, (m, 2 * n_labels), elements=cell))
               for b, m in enumerate(lengths)}
    eye, zero = np.eye(n_labels), np.zeros((n_labels, n_labels))
    model = head_model({"head.weight": np.hstack([eye, zero]), "head.bias": np.zeros(n_labels),
                        "head.gate_weight": np.hstack([zero, eye]),
                        "head.gate_bias": np.zeros(n_labels)}, pooling, task_kind)
    model.attach_vectors({doc_id: SegmentMatrix(doc_id=doc_id, rows=rows)
                          for doc_id, rows in vectors.items()})
    docs = [Document(id=doc_id, text="x") for doc_id in vectors]
    names = model.vocab.names
    for (doc, _, pred), rows in zip(model.predict_many(docs), vectors.values()):
        assert pred.doc_id == doc.id and pred.m == len(rows)
        np.testing.assert_array_equal(pred.seg_scores, rows[:, :n_labels].T)
        if pooling.gated:
            np.testing.assert_allclose(pred.gates, 1 / (1 + np.exp(-rows[:, n_labels:].T)))
        else:
            assert pred.gates is None
        ranking = pred.gates * pred.seg_scores if pooling.gated else pred.seg_scores
        np.testing.assert_array_equal(pred.key_segments, np.argmax(ranking, axis=1))
        if pooling.is_max:
            np.testing.assert_array_equal(pred.scores, ranking.max(axis=1))
        else:
            np.testing.assert_allclose(pred.scores, ranking.sum(axis=1), atol=1e-12)
        assert pred.bits.dtype == pred.seg_bits.dtype == np.int8
        np.testing.assert_array_equal(pred.bits, pred.scores > 0)
        np.testing.assert_array_equal(pred.seg_bits, pred.seg_scores > 0)
        if task_kind == TASK_MULTICLASS:
            assert pred.pred_class == int(np.argmax(pred.scores))
        else:
            assert pred.pred_class is None
        assert json.dumps(pred.to_record(names)) == json.dumps(_old_record(pred, names))
