import hashlib
import importlib
import itertools
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swipe import autodiff as ad
from swipe import hashing
from swipe import model as model_mod
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
from swipe.encoder import SegmentMatrix
from swipe.errors import ConfigError, TrainingError, ValidationError
from swipe.head import Pooling
from swipe.model import (
    ENCODER_HASH,
    ENCODER_PRECOMPUTED,
    Batch,
    ModelConfig,
    SwipeModel,
    VectorEncoder,
)
from swipe.train import (
    GRAD_CHECK_FLOOR,
    ModelState,
    TrainConfig,
    adam_step,
    backward_batch,
    doc_loss,
    evaluate_split,
    exact_match,
    grad_check,
    learning_rate,
    packed_steps,
    train,
    write_metrics_csv,
)
from swipe.truncate import TruncationConfig

train_mod = importlib.import_module("swipe.train")  # `swipe.train` names the function


def _precomputed_model(vectors: dict[str, np.ndarray], task=TASK_MULTILABEL,
                       labels=("a",), pooling=Pooling.SUM, seed=0):
    config = ModelConfig(
        labels=labels, task_kind=task, pooling=pooling,
        encoder_mode=ENCODER_PRECOMPUTED, dim=next(iter(vectors.values())).shape[1],
        init_seed=seed,
    )
    model = SwipeModel.create(config)
    model.attach_vectors(
        {k: SegmentMatrix(doc_id=k, rows=v) for k, v in vectors.items()}
    )
    return model


def _loss(scores, gold_row, task=TASK_MULTILABEL) -> float:
    """`doc_loss` of one document whose (L,) document scores are `scores`:
    one segment, sum pooling, a zero head weight and `scores` as the bias."""
    labels = tuple("abcdef"[:len(scores)])
    model = _precomputed_model({"d": np.ones((1, 2))}, task=task, labels=labels)
    model.params["head.weight"] = np.zeros((len(labels), 2))
    model.params["head.bias"] = np.array(scores, dtype=float)
    feats = model.featurize(Document(id="d", text="x", labels=()))
    loss, _ = doc_loss(model, Batch.of([feats]), np.array([gold_row], dtype=float),
                       model.tensors())
    return loss.item()


class TestLosses:
    # each case is a batch of one document: (1, L) scores, one gold row

    def test_multiclass_uniform(self):
        assert _loss([0.0, 0.0], [1, 0], TASK_MULTICLASS) == pytest.approx(math.log(2))

    def test_multiclass_confident_correct(self):
        # ln(1 + e^-20), evaluated independently
        loss = _loss([10.0, -10.0], [1, 0], TASK_MULTICLASS)
        assert loss == pytest.approx(2.0611536181902037e-09, rel=1e-6)

    def test_multiclass_confident_wrong(self):
        loss = _loss([10.0, -10.0], [0, 1], TASK_MULTICLASS)
        assert loss == pytest.approx(20.0, abs=1e-6)

    def test_multiclass_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            ad.softmax_cross_entropy(ad.Tensor([[0.0, 0.0]]), [2])
        with pytest.raises(ValidationError, match=">= 2 labels"):
            LabelVocab(("a",), TASK_MULTICLASS)

    def test_multilabel_zero_scores_ln2_any_gold(self):
        for gold in ([1.0, 0.0], [0.0, 0.0], [1.0, 1.0]):
            assert _loss([0.0, 0.0], gold) == pytest.approx(math.log(2))

    def test_multilabel_saturated(self):
        assert _loss([50.0], [1.0]) < 1e-12

    def test_multilabel_closed_form(self):
        loss = _loss([2.0, -2.0], [1.0, 0.0])
        assert loss == pytest.approx(math.log(1 + math.exp(-2)), rel=1e-9)

    def test_multilabel_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            ad.bce_with_logits_mean(ad.Tensor([[0.0, 0.0]]), np.array([[1.0]]))


def _step(model, doc):
    """`backward_batch` over a batch of one document against its gold labels."""
    return backward_batch(model, Batch.of([model.featurize(doc)]), model.vocab.gold([doc]))


class TestBackward:
    def test_single_segment_sum_matches_logistic_regression_gradient(self):
        # one segment, ungated sum: y = w.s + b, so dL/dw = (sigmoid(y) - t) s
        rng = np.random.default_rng(0)
        s = rng.normal(size=(1, 4))
        model = _precomputed_model({"d": s}, labels=("a",), pooling=Pooling.SUM)
        doc = Document(id="d", text="ignored", labels=("a",))
        _, grads = _step(model, doc)
        params = model.params
        y = float(params["head.weight"][0] @ s[0] + params["head.bias"][0])
        residual = 1 / (1 + math.exp(-y)) - 1.0
        np.testing.assert_allclose(grads["head.weight"][0], residual * s[0], atol=1e-12)
        np.testing.assert_allclose(grads["head.bias"], [residual], atol=1e-12)

    def test_saturated_batch_has_vanishing_gradients(self):
        s = np.full((1, 2), 100.0)
        model = _precomputed_model({"d": s}, labels=("a",), pooling=Pooling.SUM)
        model.params["head.weight"] = np.array([[1.0, 1.0]])
        doc = Document(id="d", text="x", labels=("a",))
        _, grads = _step(model, doc)
        for name, grad in grads.items():
            assert np.max(np.abs(grad)) < 1e-12, name

    @pytest.mark.parametrize("pooling", list(Pooling))
    def test_an_ungated_model_has_no_gate_tensors(self, pooling):
        model = _precomputed_model({"d": np.ones((2, 3))}, pooling=pooling)
        doc = Document(id="d", text="x", labels=("a",))
        gates = {"head.gate_weight", "head.gate_bias"}
        assert (gates <= model.params.keys()) == pooling.gated
        assert gates.isdisjoint(model.params) == (not pooling.gated)
        state = ModelState(model=model, config=TrainConfig(base_lr=0.1, epochs=1),
                           total_steps=4)
        assert state.adam_m.keys() == state.adam_v.keys() == model.params.keys()
        _, grads = _step(model, doc)
        assert grads.keys() == model.params.keys()  # every tensor is trained

    def test_from_arrays_refuses_arrays_that_are_not_the_configs_parameters(self):
        def config(pooling):
            return ModelConfig(labels=("a", "b"), n_buckets=16, dim=4, pooling=pooling)

        gated = SwipeModel.create(config(Pooling.GATED_MAX))
        with pytest.raises(ConfigError, match=r"missing \[\], extra \['head.gate_bias', "
                                              r"'head.gate_weight'\]"):
            SwipeModel.from_arrays(config(Pooling.MAX), gated.params)
        arrays = {name: gated.params[name] for name in ("encoder.table", "head.weight")}
        with pytest.raises(ConfigError, match=r"missing \['head.bias', 'head.gate_bias', "
                                              r"'head.gate_weight'\], extra \[\]"):
            SwipeModel.from_arrays(gated.config, arrays)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_raises_training_error(self):
        s = np.full((1, 2), 3e38)
        model = _precomputed_model({"d": s}, pooling=Pooling.SUM)
        model.params["head.weight"] = np.array([[3e38, 3e38]], np.float32)
        doc = Document(id="d", text="x", labels=("a",))
        with pytest.raises(TrainingError, match="d"):
            _step(model, doc)


class _TextbookAdam:
    """Reference Adam over copies of a model's parameters: the textbook
    expressions on whole arrays for a dense gradient, and one row at a time
    over a `RowSparse`'s rows, leaving every other row and its moments as
    they were (lazy Adam). `history` holds the table, its `m` and its `v`
    after each step."""

    def __init__(self, model, cfg):
        self.cfg = cfg
        self.params = {name: a.copy() for name, a in model.params.items()}
        self.m = {name: np.zeros_like(a) for name, a in self.params.items()}
        self.v = {name: np.zeros_like(a) for name, a in self.params.items()}
        self.history = []

    def step(self, grads, step, lr):
        cfg = self.cfg
        c1, c2 = 1 - cfg.beta1**step, 1 - cfg.beta2**step
        for name, g in grads.items():
            p, m, v = self.params[name], self.m[name], self.v[name]
            pieces = zip(g.rows, g.values) if isinstance(g, ad.RowSparse) else [(..., g)]
            for at, grad in pieces:
                m[at] = cfg.beta1 * m[at] + (1 - cfg.beta1) * grad
                v[at] = cfg.beta2 * v[at] + (1 - cfg.beta2) * grad * grad
                p[at] = p[at] - lr * (m[at] / c1) / (np.sqrt(v[at] / c2) + cfg.epsilon)
        self.history.append({"param": self.params["encoder.table"].copy(),
                             "m": self.m["encoder.table"].copy(),
                             "v": self.v["encoder.table"].copy()})


def _lazy_adam_run(table_rows, n, seed=0, zero_dense_rows=()):
    """Run `adam_step` and `_TextbookAdam` side by side, one step per entry of
    `table_rows`: the table's gradient is a `RowSparse` over those rows, or
    dense when the entry is None (with `zero_dense_rows` zero); every other
    parameter's is dense. Returns (the `ModelState`, the reference)."""
    dim = 3
    model = SwipeModel.create(ModelConfig(labels=("a", "b"), n_buckets=n, dim=dim))
    state = ModelState(model=model, config=TrainConfig(base_lr=0.01, epochs=1),
                       total_steps=len(table_rows) + 1)
    reference = _TextbookAdam(model, state.config)
    rng = np.random.default_rng(seed)

    def normal(shape):  # float32, as a pass over float32 parameters gives them
        return rng.normal(size=shape).astype(np.float32)

    for step, rows in enumerate(table_rows, start=1):
        grads = {name: normal(p.shape) for name, p in model.params.items()}
        if rows is None:
            grads["encoder.table"][list(zero_dense_rows)] = 0.0
        else:
            grads["encoder.table"] = ad.RowSparse(np.array(rows, dtype=np.int64),
                                                  normal((len(rows), dim)), (n, dim))
        lr = adam_step(state, grads, step)
        assert lr == learning_rate(state.config, step, state.total_steps)
        reference.step(grads, step, lr)
    return state, reference


def _assert_state_equals(state, reference):
    for name, array in state.model.params.items():
        assert array.tobytes() == reference.params[name].tobytes(), name
        assert state.adam_m[name].tobytes() == reference.m[name].tobytes(), name
        assert state.adam_v[name].tobytes() == reference.v[name].tobytes(), name


class TestAdam:
    def _state(self, model, total_steps=10, lr=0.01):
        return ModelState(model=model, config=TrainConfig(base_lr=lr, epochs=1),
                          total_steps=total_steps)

    def test_zero_gradients_fixed_point(self):
        model = _precomputed_model({"d": np.ones((1, 2))})
        state = self._state(model)
        before = {k: a.copy() for k, a in model.params.items()}
        zeros = {k: np.zeros_like(a) for k, a in model.params.items()}
        adam_step(state, zeros, step=1)
        for name, a in model.params.items():
            np.testing.assert_array_equal(a, before[name])

    def test_final_step_lr_zero_no_change(self):
        model = _precomputed_model({"d": np.ones((1, 2))})
        state = self._state(model, total_steps=5)
        before = {k: a.copy() for k, a in model.params.items()}
        ones = {k: np.ones_like(a) for k, a in model.params.items()}
        lr = adam_step(state, ones, step=5)
        assert lr == 0.0
        for name, a in model.params.items():
            np.testing.assert_array_equal(a, before[name])

    def test_first_step_closed_form(self):
        # fresh moments, g = 1: update = -lr_1 * 1 / (1 + eps) ~ -lr_1
        model = _precomputed_model({"d": np.ones((1, 2))})
        state = self._state(model, total_steps=10, lr=0.01)
        before = model.params["head.bias"].copy()
        ones = {k: np.ones_like(a) for k, a in model.params.items()}
        lr1 = learning_rate(state.config, 1, 10)
        adam_step(state, ones, step=1)
        np.testing.assert_allclose(
            model.params["head.bias"], before - lr1, rtol=1e-7
        )

    def test_a_row_skipped_by_a_step_carries_its_moments_undecayed(self):
        # row 1 is touched at steps 1 and 3 only: step 2 leaves its row and
        # moments as they were, and step 3 starts from its step-1 moments
        state, reference = _lazy_adam_run([[1, 4], [4], [1, 4]], n=8)
        after_step1 = reference.history[0]
        after_step2 = reference.history[1]
        for array in ("param", "m", "v"):
            assert after_step2[array][1].tobytes() == after_step1[array][1].tobytes()
            assert after_step2[array][4].tobytes() != after_step1[array][4].tobytes()
        _assert_state_equals(state, reference)

    def test_an_empty_row_sparse_leaves_table_and_moments_byte_identical(self):
        state, reference = _lazy_adam_run([[0, 3, 5], []], n=6)
        before, after = reference.history
        for array in ("param", "m", "v"):
            assert after[array].tobytes() == before[array].tobytes()
        _assert_state_equals(state, reference)

    def test_a_dense_table_gradient_takes_the_dense_update(self):
        # after a step that touched every row, every row moves and its
        # moments decay, rows 3 and 5 with a zero gradient too
        state, reference = _lazy_adam_run([list(range(7)), None, [0, 6]], n=7,
                                          zero_dense_rows=[3, 5])
        before, after = reference.history[:2]
        for array in ("param", "m", "v"):
            assert all(after[array][r].tobytes() != before[array][r].tobytes()
                       for r in range(7))
        _assert_state_equals(state, reference)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 40))
    def test_update_equals_the_textbook_lazy_update_bit_for_bit(self, data, n):
        row_sets = st.one_of(st.none(), st.sets(st.integers(0, n - 1)).map(sorted))
        steps = data.draw(st.lists(row_sets, min_size=1, max_size=6))
        state, reference = _lazy_adam_run(steps, n=n, seed=data.draw(st.integers(0, 2**16)))
        _assert_state_equals(state, reference)

    def test_optimizer_memory_follows_the_touched_rows_not_the_table(self):
        n, dim, touched = 2**16, 32, 900
        model = SwipeModel.create(ModelConfig(labels=("a", "b"), n_buckets=n, dim=dim))
        table_bytes = model.params["encoder.table"].nbytes
        rng = np.random.default_rng(0)
        grads = {name: rng.normal(size=p.shape) for name, p in model.params.items()}
        grads["encoder.table"] = ad.RowSparse(np.sort(rng.choice(n, touched, replace=False)),
                                              rng.normal(size=(touched, dim)), (n, dim))
        tracemalloc.start()
        try:
            state = self._state(model)
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            adam_step(state, grads, 1)
            step_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        # m and v for the table; the head's own arrays are a few hundred bytes
        assert 2 * table_bytes <= held < 2 * table_bytes + table_bytes // 64
        assert step_peak < table_bytes // 8

    def test_schedule(self):
        cfg = TrainConfig(base_lr=1.0, epochs=1)
        assert learning_rate(cfg, 0, 10) == 1.0
        assert learning_rate(cfg, 5, 10) == 0.5
        assert learning_rate(cfg, 10, 10) == 0.0
        assert learning_rate(cfg, 15, 10) == 0.0  # clamped


class TestGradCheck:
    def _loss_fn(self, model, doc):
        """(the document's loss function, the grad-requiring tensors it runs on)."""
        batch, gold = Batch.of([model.featurize(doc)]), model.vocab.gold([doc])
        tensors = model.tensors(requires_grad=True)

        def fn():
            return doc_loss(model, batch, gold, tensors)
        return fn, tensors

    def test_correct_gradients_pass(self):
        rng = np.random.default_rng(2)
        model = _precomputed_model({"d": rng.normal(size=(3, 4))},
                                   labels=("a", "b"), pooling=Pooling.GATED_SUM)
        doc = Document(id="d", text="x", labels=("a",))
        fn, tensors = self._loss_fn(model, doc)
        report = grad_check(fn, tensors, tolerance=1e-4)
        assert report.passed
        assert report.max_rel_error < 1e-4
        assert report.n_checked > 0

    def test_the_passed_tensors_keep_their_arrays(self):
        # the check runs on float64 copies, then hands each tensor its own
        # float32 data and gradient back, so the tensors can run another pass
        rng = np.random.default_rng(2)
        model = _precomputed_model({"d": rng.normal(size=(3, 4))},
                                   labels=("a", "b"), pooling=Pooling.GATED_SUM)
        doc = Document(id="d", text="x", labels=("a",))
        fn, tensors = self._loss_fn(model, doc)
        before = {name: (t.data, t.grad) for name, t in tensors.items()}
        assert grad_check(fn, tensors, tolerance=1e-4).passed
        for name, tensor in tensors.items():
            assert tensor.data is before[name][0] is model.params[name], name
            assert tensor.grad is before[name][1], name
            assert tensor.data.dtype == np.float32, name
        assert fn()[0].data.dtype == np.float32

    def test_corrupted_gradient_reported(self):
        rng = np.random.default_rng(3)
        model = _precomputed_model({"d": rng.normal(size=(2, 3))},
                                   labels=("a", "b"), pooling=Pooling.SUM)
        doc = Document(id="d", text="x", labels=("a",))
        fn, params = self._loss_fn(model, doc)
        loss, _ = fn()
        loss.backward()
        analytic = {k: (np.zeros_like(t.data) if t.grad is None else t.grad.copy())
                    for k, t in params.items()}
        analytic["head.weight"][0, 0] += 0.5  # deliberate corruption
        report = grad_check(fn, params, tolerance=1e-4, analytic=analytic)
        assert not report.passed
        assert any(name == "head.weight" for name, *_ in report.failures)

    def test_exact_tie_coordinates_excluded(self):
        # two distinct rows scoring identically: perturbing the weights flips
        # the argmax, so those coordinates cross a kink and must be excluded
        vectors = np.array([[1.0, 0.0], [0.0, 1.0]])
        model = _precomputed_model({"d": vectors}, labels=("a",), pooling=Pooling.MAX)
        model.params["head.weight"] = np.array([[0.7, 0.7]])
        model.params["head.bias"] = np.array([0.0])
        doc = Document(id="d", text="x", labels=("a",))
        fn, tensors = self._loss_fn(model, doc)
        report = grad_check(fn, tensors, tolerance=1e-4)
        assert report.n_excluded > 0
        assert report.passed

    def test_floor_documented(self):
        assert GRAD_CHECK_FLOOR == 1e-3


# -- the batched step ----------------------------------------------------------

def _ragged_model(seed, sizes, pooling, layers, positions, task, encoder_mode):
    """A small model, its documents with `sizes` segments each, their
    features and their (documents, labels) gold matrix (random bits for
    multi-label)."""
    rng = np.random.default_rng(seed)
    labels = ("a", "b", "c")
    config = ModelConfig(
        labels=labels, task_kind=task, pooling=pooling,
        truncation=TruncationConfig(strategy="structure"), encoder_mode=encoder_mode,
        n_buckets=32, dim=4, interaction_layers=layers, n_heads=2,
        ff_dim=8 if layers else None, max_positions=6 if positions and layers else None,
        init_seed=seed,
    )
    model = SwipeModel.create(config)
    docs = []
    for i, m in enumerate(sizes):
        # a token of its own keeps every segment's bag, and score, distinct
        units = tuple(" ".join([f"u{i}x{k}"] + [f"w{rng.integers(40)}"
                                                 for _ in range(rng.integers(1, 5))])
                      for k in range(m))
        docs.append(Document(id=f"d{i}", units=units, labels=(labels[i % 3],)))
    if encoder_mode == ENCODER_PRECOMPUTED:
        model.attach_vectors({d.id: SegmentMatrix(doc_id=d.id, rows=rng.normal(size=(m, 4)))
                              for d, m in zip(docs, sizes)})
    if task == TASK_MULTICLASS:
        gold = model.vocab.gold(docs)
    else:
        gold = rng.integers(0, 2, size=(len(docs), 3)).astype(float)
    return model, docs, [model.featurize(d) for d in docs], gold


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    sizes=st.lists(st.integers(1, 5), min_size=1, max_size=6),
    pooling=st.sampled_from(list(Pooling)),
    layers=st.integers(0, 2),
    positions=st.booleans(),
    task=st.sampled_from([TASK_MULTICLASS, TASK_MULTILABEL]),
    encoder_mode=st.sampled_from([ENCODER_HASH, ENCODER_PRECOMPUTED]),
)
# float32: a second interaction layer's query and key gradients are small
# sums of large terms, off by up to 2e-5 of their largest entry in 6,000 draws
@pytest.mark.parametrize("dtype, rtol", [(np.float32, 1e-4), (np.float64, 1e-12)])
def test_batched_step_equals_mean_of_single_document_steps(
        float64_copy, dtype, rtol, seed, sizes, pooling, layers, positions, task,
        encoder_mode):
    # the float32 model as trained, and a float64 copy, whose batch and single
    # steps agree to float64 rounding
    model, _, feats, gold = _ragged_model(seed, sizes, pooling, layers, positions, task,
                                          encoder_mode)
    if dtype == np.float64:
        model = float64_copy(model)
    loss, grads = backward_batch(model, Batch.of(feats), gold)
    singles = [backward_batch(model, Batch.of([f]), gold[b:b + 1]) for b, f in enumerate(feats)]
    mean_loss = sum(value for value, _ in singles) / len(feats)
    assert abs(loss - mean_loss) <= rtol * abs(mean_loss)
    for name, grad in grads.items():
        assert ad.dense(grad).dtype == dtype, name
        expected = sum(ad.dense(g[name]).astype(np.float64) for _, g in singles) / len(feats)
        error = np.max(np.abs(ad.dense(grad) - expected))
        assert error <= rtol * np.max(np.abs(expected)), (name, error)
    if pooling.is_max:
        out = model.forward(Batch.of(feats), model.tensors())
        for b, f in enumerate(feats):
            single = model.forward(Batch.of([f]), model.tensors()).pool_argmax[0]
            np.testing.assert_array_equal(out.pool_argmax[b], single)


@pytest.mark.parametrize("pooling", list(Pooling))
def test_grad_check_on_a_ragged_batch(pooling):
    # one-, three- and two-segment documents; interaction with positions
    # under the gated poolings, as acceptance criterion 4 checks one document
    task = TASK_MULTICLASS if pooling.gated else TASK_MULTILABEL
    model, _, feats, gold = _ragged_model(3, [1, 3, 2], pooling,
                                          layers=2 if pooling.gated else 0,
                                          positions=pooling.gated, task=task,
                                          encoder_mode=ENCODER_HASH)
    inputs, tensors = Batch.of(feats), model.tensors(requires_grad=True)
    report = grad_check(lambda: doc_loss(model, inputs, gold, tensors), tensors,
                        tolerance=1e-4)
    assert report.passed and report.n_checked > 0, report.failures[:3]


@pytest.mark.parametrize("task", [TASK_MULTICLASS, TASK_MULTILABEL])
@pytest.mark.parametrize("pooling", [Pooling.MAX, Pooling.GATED_SUM])
def test_a_flat_hashed_step_trains_through_the_label_bag_op(pooling, task, monkeypatch):
    model, _, feats, gold = _ragged_model(5, [1, 3, 2], pooling, layers=0, positions=False,
                                          task=task, encoder_mode=ENCODER_HASH)
    inputs, tensors = Batch.of(feats), model.tensors(requires_grad=True)
    report = grad_check(lambda: doc_loss(model, inputs, gold, tensors), tensors,
                        tolerance=1e-4)
    assert report.passed and report.n_checked > 0, report.failures[:3]

    def densified(self):
        raise AssertionError("a row-sparse gradient was densified")

    monkeypatch.setattr(ad.RowSparse, "to_dense", densified)
    table_grad = backward_batch(model, inputs, gold)[1]["encoder.table"]
    touched = np.unique(inputs.inputs.ids)
    assert isinstance(table_grad, ad.RowSparse)  # one, from both halves when gated
    np.testing.assert_array_equal(table_grad.rows, touched)
    before = model.params["encoder.table"].copy()
    state = ModelState(model=model, config=TrainConfig(base_lr=0.1, epochs=1), total_steps=4)
    adam_step(state, backward_batch(model, inputs, gold)[1], 1)
    after = model.params["encoder.table"]
    changed = np.flatnonzero((after != before).any(axis=1))
    assert changed.size and np.isin(changed, touched).all()  # lazy Adam: the batch's rows


def test_backward_batch_leaves_the_model_its_arrays():
    # gradients live on the tensors of one pass: a second call on the same
    # batch starts from nothing and returns the same bits
    model, _, feats, gold = _ragged_model(4, [2, 3, 1], Pooling.GATED_MAX, 1, True,
                                          TASK_MULTILABEL, ENCODER_HASH)
    batch = Batch.of(feats)
    (loss, grads), (again, regrads) = (backward_batch(model, batch, gold) for _ in range(2))
    assert loss == again
    for name, grad in grads.items():
        assert ad.dense(regrads[name]).tobytes() == ad.dense(grad).tobytes(), name
    assert all(type(a) is np.ndarray for a in model.params.values())


@pytest.mark.parametrize("task", [TASK_MULTICLASS, TASK_MULTILABEL])
def test_evaluate_split_matches_per_document_exact_match(task, monkeypatch):
    for seed, budget in itertools.product(range(4), [0, 1 << 20]):
        monkeypatch.setattr(model_mod, "CHUNK_BYTES", budget)  # a chunk per document, or one
        model, docs, feats, gold = _ragged_model(seed, [2, 1, 4, 3, 1], Pooling.GATED_MAX, 1,
                                                 False, task, ENCODER_HASH)
        scores = np.stack([model.predict_features(f).scores for f in feats])
        share = np.mean(exact_match(task, scores, gold))
        batches = [model.encoder.featurize(chunk) for chunk in model.chunks(docs)]
        assert len(batches) == (len(docs) if budget == 0 else 1)
        assert evaluate_split(model, batches, gold) == share


@pytest.mark.parametrize("pooling", list(Pooling))
def test_inference_and_dev_scoring_record_no_tape(pooling):
    model, docs, feats, gold = _ragged_model(5, [2, 1, 4, 3], pooling, 1, True,
                                             TASK_MULTILABEL, ENCODER_HASH)
    _, before = backward_batch(model, Batch.of(feats), gold)
    outs = []
    forward = model.forward

    def recorded(inputs, params):
        outs.append(forward(inputs, params))
        return outs[-1]

    model.forward = recorded
    list(model.predict_many(docs))
    evaluate_split(model, [Batch.of(feats[:2]), Batch.of(feats[2:])], gold)
    assert len(outs) == 3  # one predict chunk and two dev chunks
    assert all(type(a) is np.ndarray for a in model.params.values())
    for out in outs:
        tensors = [out.doc_scores, out.seg_scores, out.gates, out.pooled_rows]
        for t in (t for t in tensors if t is not None):
            assert not t.requires_grad and t._parents == () and t._backward is None
    _, after = backward_batch(model, Batch.of(feats), gold)
    assert outs[-1].doc_scores._parents  # training's forward still records its tape
    for name, grad in before.items():
        assert ad.dense(after[name]).tobytes() == ad.dense(grad).tobytes(), name


def _assert_predicts_as_a_fresh_copy(model, docs):
    """`model`'s predictions equal, bit for bit, those of a model built from
    copies of its arrays, whose label table is made afresh."""
    fresh = SwipeModel.from_arrays(model.config,
                                   {name: a.copy() for name, a in model.params.items()})
    for doc in docs:
        got, want = model.predict(doc), fresh.predict(doc)
        for field in ("scores", "seg_scores", "gates", "key_segments"):
            a, b = getattr(got, field), getattr(want, field)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), (doc.id, field)


@pytest.mark.parametrize("pooling", list(Pooling))
def test_predictions_after_a_step_use_the_stepped_parameters(pooling):
    model, docs, feats, gold = _ragged_model(6, [2, 1, 3], pooling, 0, False,
                                             TASK_MULTILABEL, ENCODER_HASH)
    before = [model.predict(doc).scores.copy() for doc in docs]  # the label table is cached
    state = ModelState(model=model, config=TrainConfig(base_lr=0.1, epochs=1), total_steps=4)
    adam_step(state, backward_batch(model, Batch.of(feats), gold)[1], 1)
    _assert_predicts_as_a_fresh_copy(model, docs)
    assert any(model.predict(doc).scores.tobytes() != old.tobytes()
               for doc, old in zip(docs, before))  # the step moved the scores


def test_batch_rejects_mixed_feature_kinds():
    model, _, feats, _ = _ragged_model(0, [2], Pooling.MAX, 0, False, TASK_MULTICLASS,
                                       ENCODER_HASH)
    with pytest.raises(ConfigError, match="mix"):
        Batch.of([feats[0], SegmentMatrix(doc_id="v", rows=np.ones((1, 4)))])


# -- chunked featurization ----------------------------------------------------

def _sentence_docs(rng, n_docs):
    """Documents of units holding sentences, which every strategy splits."""
    def sentence():
        words = " ".join(f"w{rng.integers(30)}" for _ in range(rng.integers(1, 9)))
        return words + str(rng.choice([".", "!", ""]))

    return [Document(id=f"c{i}", labels=("a",),
                     units=tuple(sentence() for _ in range(rng.integers(1, 6))))
            for i in range(n_docs)]


def _packed(model, docs):
    """The packed split `train` holds: each chunk featurized, then concatenated."""
    return Batch.concat([model.encoder.featurize(chunk) for chunk in model.chunks(docs)])


def _assert_same_batch(got, want):
    """`got` and `want` hold equal arrays of equal dtypes, and one name."""
    assert got.inputs.doc_id == want.inputs.doc_id
    pairs = [(got.inputs.ids, want.inputs.ids), (got.inputs.offsets, want.inputs.offsets),
             (got.offsets, want.offsets)]
    for a, b in pairs:
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("strategy", ["auto", "punct", "structure"])
@pytest.mark.parametrize("budget, chunks", [(0, "one per document"), (12_000, "several"),
                                            (1 << 20, "one")])
def test_a_packed_split_holds_per_document_features(strategy, budget, chunks, monkeypatch):
    docs = _sentence_docs(np.random.default_rng(7), 40)
    model = SwipeModel.create(ModelConfig(
        labels=("a", "b"), n_buckets=97, dim=4, ngram_orders=(1, 2, 3),
        truncation=TruncationConfig(strategy=strategy, window_len=5, overlap=1,
                                    max_seg_len=6)))
    singles = [model.featurize(doc) for doc in docs]
    calls = []
    featurize = model_mod.featurize_segments

    def spy(segments, config):
        calls.append(len(segments))
        return featurize(segments, config)

    monkeypatch.setattr(model_mod, "featurize_segments", spy)
    # a chunk's fixed charge comes on top of a budget that holds documents
    monkeypatch.setattr(model_mod, "CHUNK_BYTES", budget and model_mod.PASS_BYTES + budget)
    split = _packed(model, docs)
    expected_calls = {"one per document": len(docs), "one": 1}
    if chunks in expected_calls:
        assert len(calls) == expected_calls[chunks]
    else:
        assert 1 < len(calls) < len(docs)  # the split spans several chunks
    assert len(split.offsets) == len(docs) + 1
    for b, (doc, want) in enumerate(zip(docs, singles)):
        assert want.doc_id == doc.id
        _assert_same_batch(split.view(b, b + 1, doc.id), Batch.of([want]))


def test_featurize_of_precomputed_vectors_is_the_attached_array():
    rng = np.random.default_rng(2)
    vectors = {f"v{i}": rng.normal(size=(int(rng.integers(1, 5)), 3)) for i in range(6)}
    model = _precomputed_model(vectors)
    for doc_id, rows in vectors.items():
        got = model.featurize(Document(id=doc_id, text="x", labels=("a",)))
        assert got is model.precomputed[doc_id]  # no copy
        assert got.rows.tobytes() == rows.astype(np.float32).tobytes()


def test_featurize_of_precomputed_vectors_stacks_nothing(monkeypatch):
    rng = np.random.default_rng(3)
    vectors = {f"v{i}": rng.normal(size=(int(rng.integers(1, 5)), 3)) for i in range(6)}
    model = _precomputed_model(vectors)
    docs = [Document(id=doc_id, text="x", labels=("a",)) for doc_id in vectors]

    def no_stack(self, chunk):
        raise AssertionError("featurize must not stack the attached vectors")

    monkeypatch.setattr(VectorEncoder, "featurize", no_stack)
    assert [model.featurize(doc).doc_id for doc in docs] == list(vectors)


@pytest.mark.parametrize("layers", [0, 1])
@pytest.mark.parametrize("n_docs, batch_size, chunk_bytes, block_bytes", [
    (23, 4, None, None), (5, 16, None, None), (1, 3, None, None), (23, 4, 3_000, None),
    (23, 2, None, 4_000),
], ids=["short-last-batch", "batch-over-split", "one-document", "several-chunks",
        "blocks-cut-by-bytes"])
def test_packed_steps_equal_batch_of_per_document_features(
        n_docs, batch_size, chunk_bytes, block_bytes, layers, monkeypatch):
    docs = _sentence_docs(np.random.default_rng(11), n_docs)
    model = SwipeModel.create(ModelConfig(
        labels=("a", "b"), pooling=Pooling.GATED_MAX, n_buckets=97, dim=4,
        interaction_layers=layers, n_heads=2, ngram_orders=(1, 2),
        truncation=TruncationConfig(strategy="punct", max_seg_len=6), init_seed=3))
    if chunk_bytes:
        monkeypatch.setattr(model_mod, "CHUNK_BYTES", model_mod.PASS_BYTES + chunk_bytes)
    assert (len(list(model.chunks(docs))) > 1) == bool(chunk_bytes)
    split = _packed(model, docs)
    monkeypatch.setattr(model_mod, "CHUNK_BYTES", block_bytes or 1 << 20)
    blocks = []
    take = Batch.take

    def spy(self, chosen):
        blocks.append(take(self, chosen))
        return blocks[-1]

    monkeypatch.setattr(Batch, "take", spy)
    order = np.random.default_rng(5).permutation(n_docs)
    gold = np.random.default_rng(6).integers(0, 2, size=(n_docs, 2)).astype(np.int8)
    seen = []
    for chosen, batch in packed_steps(split, [doc.id for doc in docs], order, batch_size):
        seen.append(chosen)
        want = Batch.of([model.featurize(docs[i]) for i in chosen])
        _assert_same_batch(batch, want)
        (loss, grads), (want_loss, want_grads) = (
            backward_batch(model, b, gold[chosen]) for b in (batch, want))
        assert loss == want_loss and grads.keys() == want_grads.keys()
        for name, grad in grads.items():
            assert ad.dense(grad).tobytes() == ad.dense(want_grads[name]).tobytes(), name
    assert [len(chosen) for chosen in seen] == [
        min(batch_size, n_docs - start) for start in range(0, n_docs, batch_size)]
    np.testing.assert_array_equal(np.concatenate(seen), order)
    if block_bytes is None:
        assert len(blocks) == 1
    else:  # each block within the bound, or one step alone, and some hold several
        steps = [math.ceil(len(block.offsets[1:]) / batch_size) for block in blocks]
        assert 1 < len(blocks) < len(seen) and max(steps) > 1
        for block, n_steps in zip(blocks, steps):
            assert n_steps == 1 or 2 * block.inputs.ids.nbytes <= block_bytes


@pytest.mark.parametrize("layers", [0, 1])
def test_train_hashes_each_split_once(layers, monkeypatch):
    docs = _sentence_docs(np.random.default_rng(4), 30)
    docs = [Document(id=doc.id, units=doc.units, labels=(("a",), ("b",))[i % 2],
                     split="dev" if i % 3 == 0 else "train") for i, doc in enumerate(docs)]
    corpus = Corpus(docs, LabelVocab(names=("a", "b"), task_kind=TASK_MULTILABEL))
    config = ModelConfig(labels=("a", "b"), n_buckets=97, dim=4, interaction_layers=layers,
                         n_heads=2, truncation=TruncationConfig(strategy="punct",
                                                                max_seg_len=6))
    monkeypatch.setattr(model_mod, "CHUNK_BYTES", model_mod.PASS_BYTES + 3_000)
    model = SwipeModel.create(config)
    n_chunks = sum(len(list(model.chunks(corpus.split_docs(split))))
                   for split in ("train", "dev"))
    assert n_chunks > 2
    calls = []
    bucket_ids = hashing.ngram_bucket_ids

    def spy(*args, **kwargs):
        calls.append(1)
        return bucket_ids(*args, **kwargs)

    monkeypatch.setattr(hashing, "ngram_bucket_ids", spy)
    for epochs in (1, 3):
        calls.clear()
        train(corpus, SwipeModel.create(config), TrainConfig(epochs=epochs, batch_size=4))
        assert len(calls) == n_chunks, epochs


def test_an_epoch_block_holds_chunk_bytes_and_its_offsets(monkeypatch):
    # the split's ids are several times the budget, so a second copy of them
    # would show; an epoch gathers a block at a time
    docs = _sentence_docs(np.random.default_rng(7), 600)
    model = SwipeModel.create(ModelConfig(
        labels=("a", "b"), n_buckets=97, dim=4, ngram_orders=(1, 2, 3),
        truncation=TruncationConfig(strategy="punct", max_seg_len=6)))
    split = _packed(model, docs)
    budget = 32 << 10
    monkeypatch.setattr(model_mod, "CHUNK_BYTES", budget)
    assert split.inputs.ids.nbytes > 4 * budget
    doc_ids, order = [doc.id for doc in docs], np.random.default_rng(1).permutation(len(docs))
    offsets = []
    take = Batch.take

    def spy(self, chosen):
        block = take(self, chosen)
        offsets.append(block.inputs.offsets.nbytes + block.offsets.nbytes)
        return block

    monkeypatch.setattr(Batch, "take", spy)
    tracemalloc.start()
    try:
        for epoch in range(2):  # the first fills numpy's and the interpreter's caches
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _, batch in packed_steps(split, doc_ids, order, 8):
                del batch
            extra = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # a block's ids and gather index within the budget; its bag and document
    # offsets with the temporaries that build them within 4 times their
    # bytes; 4 KiB of Python objects (views, names, the epoch's block list)
    assert len(offsets) > 8
    assert extra <= budget + 4 * max(offsets) + (4 << 10), (extra, max(offsets))


def test_training_memory_peak_is_that_of_its_widest_document():
    # hashing builds a (tokens x widest token) byte matrix per call, so one
    # 20,000-byte token hashed with the whole split would take tens of MiB
    rng = np.random.default_rng(0)
    docs = [Document(id=f"s{i}", labels=(("a",), ("b",))[i % 2],
                     units=tuple(" ".join(f"w{rng.integers(50)}" for _ in range(8))
                                 for _ in range(2)))
            for i in range(60)]
    wide = Document(id="wide", units=("see " + "x" * 20_000 + " here", "ok"), labels=("a",))
    docs.insert(30, wide)
    corpus = Corpus(docs, LabelVocab(names=("a", "b"), task_kind=TASK_MULTILABEL))
    model = SwipeModel.create(ModelConfig(labels=("a", "b"), n_buckets=64, dim=4,
                                          truncation=TruncationConfig(strategy="structure")))
    tracemalloc.start()
    try:
        model.featurize(wide)
        alone = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        train(corpus, model, TrainConfig(epochs=1, batch_size=16))
        training = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert training <= alone + (1 << 20), (training, alone)


def _toy_corpus(dev=False):
    # four linearly separable one-segment documents, and one dev document
    vectors = {
        "p1": np.array([[1.0, 1.0]]),
        "p2": np.array([[1.0, -1.0]]),
        "n1": np.array([[-1.0, 1.0]]),
        "n2": np.array([[-1.0, -1.0]]),
    }
    docs = [
        Document(id="p1", text="x", labels=("pos",)),
        Document(id="p2", text="x", labels=("pos",)),
        Document(id="n1", text="x", labels=()),
        Document(id="n2", text="x", labels=()),
    ]
    if dev:
        docs.append(Document(id="p3", text="x", labels=("pos",), split="dev"))
        vectors["p3"] = np.array([[1.0, 1.0]])
    corpus = Corpus(documents=docs, vocab=LabelVocab(("pos",), TASK_MULTILABEL))
    return corpus, vectors


def _epoch_params(monkeypatch):
    """Copies of the model's parameters as each epoch's dev scoring sees them."""
    seen = []

    def spy(model, batches, gold):
        seen.append({name: a.copy() for name, a in model.params.items()})
        return evaluate_split(model, batches, gold)

    monkeypatch.setattr(train_mod, "evaluate_split", spy)
    return seen


class TestTrainLoop:
    def test_separable_toy_loss_below_threshold(self):
        corpus, vectors = _toy_corpus()
        model = _precomputed_model(vectors, labels=("pos",), pooling=Pooling.SUM)
        result = train(corpus, model, TrainConfig(
            epochs=500, base_lr=0.2, batch_size=4, seed=0))
        assert result.metrics[-1]["train_loss"] < 0.01
        assert result.metrics[-1]["step"] == 500

    def test_empty_train_split_rejected(self):
        corpus, vectors = _toy_corpus()
        docs = [d for d in corpus.documents]
        docs = [Document(id=d.id, text=d.text, labels=d.labels, split="test") for d in docs]
        corpus = Corpus(documents=docs, vocab=corpus.vocab)
        model = _precomputed_model(vectors, labels=("pos",))
        with pytest.raises(ValidationError):
            train(corpus, model, TrainConfig(epochs=1))

    def test_deterministic_same_seed(self):
        corpus, vectors = _toy_corpus()
        runs = []
        for _ in range(2):
            model = _precomputed_model(vectors, labels=("pos",), seed=4)
            result = train(corpus, model, TrainConfig(epochs=20, base_lr=0.05,
                                                      batch_size=2, seed=9))
            runs.append(result.metrics)
        assert repr(runs[0]) == repr(runs[1])  # nan-tolerant exact comparison
        assert abs(runs[0][-1]["train_loss"] - runs[1][-1]["train_loss"]) < 1e-9

    def test_best_dev_snapshot_restored(self, monkeypatch):
        corpus, vectors = _toy_corpus(dev=True)
        model = _precomputed_model(vectors, labels=("pos",), pooling=Pooling.SUM)
        seen = _epoch_params(monkeypatch)
        result = train(corpus, model, TrainConfig(epochs=30, base_lr=0.2,
                                                  batch_size=4, seed=0))
        assert result.best_metric == max(r["dev_metric"] for r in result.metrics)
        assert result.best_metric == 1.0
        assert result.model is model
        for name, array in model.params.items():
            np.testing.assert_array_equal(array, seen[result.best_epoch - 1][name])

    def test_no_dev_split_keeps_last_epoch(self, monkeypatch):
        corpus, vectors = _toy_corpus()
        model = _precomputed_model(vectors, labels=("pos",), pooling=Pooling.SUM)
        initial = {name: a.copy() for name, a in model.params.items()}
        seen = _epoch_params(monkeypatch)
        result = train(corpus, model, TrainConfig(epochs=3, base_lr=0.2,
                                                  batch_size=2, seed=0))
        assert result.best_epoch == 3
        assert result.best_metric == -math.inf
        assert all(math.isnan(row["dev_metric"]) for row in result.metrics)
        assert not np.array_equal(model.params["head.bias"], initial["head.bias"])
        for name, array in model.params.items():
            np.testing.assert_array_equal(array, seen[-1][name])

    def test_trained_model_scores_the_best_metric_on_its_dev_split(self):
        # on this seed the third of six epochs is best and the last scores less
        corpus, _ = generate_synthetic(SyntheticSpec(num_docs=40, segments_per_doc=(2, 4),
                                                     seed=4))
        corpus = split_corpus(corpus, (0.6, 0.4, 0.0), seed=4)
        model = SwipeModel.create(ModelConfig(
            labels=corpus.vocab.names, task_kind=corpus.vocab.task_kind,
            truncation=TruncationConfig(strategy="structure"), n_buckets=64, dim=4,
            init_seed=4))
        trained = weakref.ref(model.params["encoder.table"])  # stepped in place, then replaced
        result = train(corpus, model, TrainConfig(epochs=6, base_lr=0.3, batch_size=4,
                                                  seed=4))
        assert result.best_epoch < 6 and result.metrics[-1]["dev_metric"] < result.best_metric
        assert trained() is None  # the label table cache does not keep it alive
        dev = corpus.split_docs("dev")
        batches = [model.encoder.featurize(chunk) for chunk in model.chunks(dev)]
        assert evaluate_split(model, batches, model.vocab.gold(dev)) == result.best_metric
        _assert_predicts_as_a_fresh_copy(model, dev)

    def test_precomputed_training_stacks_no_split(self, monkeypatch):
        # each dev chunk is batched where an epoch scores it, never held stacked
        corpus, vectors = _toy_corpus(dev=True)
        model = _precomputed_model(vectors, labels=("pos",), pooling=Pooling.SUM)

        def no_stack(self, chunk):
            raise AssertionError("train must not featurize a split into held batches")

        monkeypatch.setattr(VectorEncoder, "featurize", no_stack)
        result = train(corpus, model, TrainConfig(epochs=2, base_lr=0.2, batch_size=2))
        assert all(row["dev_metric"] in (0.0, 1.0) for row in result.metrics)

    def test_metrics_csv_layout(self, tmp_path):
        rows = [{"epoch": 1, "step": 2, "lr": 0.5, "train_loss": 0.25, "dev_metric": 1.0}]
        path = tmp_path / "metrics.csv"
        write_metrics_csv(rows, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "epoch,step,lr,train_loss,dev_metric"
        assert lines[1] == "1,2,0.5,0.25,1.0"


#: A hash-encoder config whose other fields are all off their defaults.
NON_DEFAULT_CONFIG = ModelConfig(
    labels=("x", "y", "z"), task_kind=TASK_MULTILABEL, pooling=Pooling.GATED_SUM,
    truncation=TruncationConfig(strategy="punct", window_len=20, overlap=3,
                                max_seg_len=9, sentence_terminators=frozenset(";.")),
    n_buckets=128, dim=12, ngram_orders=(1, 3), hash_seed=7, interaction_layers=2,
    n_heads=3, ff_dim=24, max_positions=16, init_seed=5,
)


class TestCheckpoint:
    def test_round_trip_bit_exact_predictions(self, tmp_path):
        corpus, vectors = _toy_corpus()
        model = _precomputed_model(vectors, labels=("pos",), pooling=Pooling.GATED_MAX)
        train(corpus, model, TrainConfig(epochs=5, base_lr=0.05, batch_size=4, seed=0))
        path = tmp_path / "model.ckpt"
        model.save(path)
        loaded = SwipeModel.load(path)
        loaded.attach_vectors(model.precomputed)
        for doc in corpus.documents:
            a = model.predict(doc)
            b = loaded.predict(doc)
            np.testing.assert_array_equal(a.scores, b.scores)
            np.testing.assert_array_equal(a.seg_scores, b.seg_scores)
        assert loaded.train_config == model.train_config

    def test_save_is_deterministic(self, tmp_path):
        corpus, vectors = _toy_corpus()
        model = _precomputed_model(vectors, labels=("pos",))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        model.save(p1)
        model.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_config_bytes_are_pinned(self):
        config = NON_DEFAULT_CONFIG
        header = json.dumps(config.to_meta(), sort_keys=True)
        assert header == (
            '{"dim": 12, "encoder_mode": "hash", "ff_dim": 24, "hash_seed": 7, '
            '"init_seed": 5, "interaction_layers": 2, "labels": ["x", "y", "z"], '
            '"max_positions": 16, "n_buckets": 128, "n_heads": 3, "ngram_orders": [1, 3], '
            '"pooling": "gated_sum", "task_kind": "multi-label", "truncation": '
            '{"max_seg_len": 9, "overlap": 3, "sentence_terminators": [".", ";"], '
            '"strategy": "punct", "window_len": 20}}'
        )
        assert ModelConfig.from_meta(json.loads(header)) == config
        train_meta = TrainConfig(epochs=3, base_lr=0.25, batch_size=4, seed=9).to_meta()
        assert json.dumps(train_meta, sort_keys=True) == (
            '{"base_lr": 0.25, "batch_size": 4, "beta1": 0.9, "beta2": 0.999, '
            '"epochs": 3, "epsilon": 1e-08, "seed": 9}'
        )

    @pytest.mark.parametrize("config, digest", [
        (NON_DEFAULT_CONFIG, "fc194464423c0e46e682b30375ec578f9ca6dc8ee7b56d32831bb13771be6dae"),
        (ModelConfig(labels=("a", "b", "c"), encoder_mode=ENCODER_PRECOMPUTED, dim=7,
                     init_seed=2),
         "6385214bf5b68b8d91ec043e7ddc6f1f4f23c9e5a66faeb31e2ca0969e8cda99"),
    ], ids=["hash-interaction", "precomputed"])
    def test_created_parameter_bytes_are_pinned(self, config, digest):
        # SHA-256 over each parameter's name, shape and little-endian float32
        # bytes, in order; a change means `create` draws other initial values
        sha = hashlib.sha256()
        for name, array in SwipeModel.create(config).params.items():
            assert array.dtype == np.float32, name
            sha.update(f"{name} {array.shape}\n".encode())
            sha.update(np.ascontiguousarray(array, "<f4").tobytes())
        assert sha.hexdigest() == digest

    def test_hash_mode_round_trip(self, tmp_path):
        config = ModelConfig(labels=("a", "b"), task_kind=TASK_MULTICLASS,
                             pooling=Pooling.MAX,
                             truncation=TruncationConfig(strategy="punct", max_seg_len=8),
                             n_buckets=64, dim=8, interaction_layers=1, n_heads=2,
                             init_seed=11)
        model = SwipeModel.create(config)
        path = tmp_path / "m.ckpt"
        model.save(path)
        loaded = SwipeModel.load(path)
        assert loaded.config == config
        doc = Document(id="d", text="Some words here. And more there.", labels=("a",))
        np.testing.assert_array_equal(
            model.predict(doc).seg_scores, loaded.predict(doc).seg_scores
        )
