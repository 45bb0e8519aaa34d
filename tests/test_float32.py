"""float32 parameters, passes and optimizer state, and the version-2 container.

A created or loaded model holds float32 arrays, and every op keeps its
inputs' dtype, so a pass over a float32 model is float32 throughout: the
dtype audit records every tensor a pass makes, every gradient it accumulates
and every float array the ops hand to numpy, temporaries included, over a
taped training step and a tape-free pass, for a flat max, a flat gated, a
two-layer interaction and a precomputed-vector model. A float64 copy of each
model runs the same ops in float64 and gives the same scores within float32
rounding.
"""

import hashlib
import json

import numpy as np
import pytest

from swipe import autodiff as ad
from swipe.corpus import TASK_MULTILABEL, Document
from swipe.encoder import SegmentMatrix
from swipe.errors import FormatError
from swipe.head import Pooling
from swipe.model import (
    ENCODER_PRECOMPUTED,
    Batch,
    ModelConfig,
    SwipeModel,
    load_precomputed,
    write_precomputed,
)
from swipe.train import ModelState, TrainConfig, adam_step, backward_batch
from swipe.truncate import TruncationConfig

CASES = {
    "flat-max": dict(pooling=Pooling.MAX, interaction_layers=0),
    "flat-gated": dict(pooling=Pooling.GATED_SUM, interaction_layers=0),
    "interaction-2": dict(pooling=Pooling.GATED_MAX, interaction_layers=2),
    "vectors": dict(pooling=Pooling.GATED_MAX, interaction_layers=1,
                    encoder_mode=ENCODER_PRECOMPUTED),
}


def _case(name, seed=0):
    """A model of case `name` and six documents of 1-6 segments for it."""
    rng = np.random.default_rng(seed)
    config = ModelConfig(labels=("a", "b", "c"), task_kind=TASK_MULTILABEL,
                         truncation=TruncationConfig(strategy="structure"),
                         n_buckets=64, dim=8, ngram_orders=(1, 2), init_seed=seed,
                         **CASES[name])
    model = SwipeModel.create(config)

    def unit():
        return " ".join(f"w{rng.integers(30)}" for _ in range(rng.integers(1, 6)))

    docs = [Document(id=f"d{i}", units=tuple(unit() for _ in range(m)), labels=("abc"[i % 3],))
            for i, m in enumerate([1, 3, 3, 6, 2, 4])]
    if config.encoder_mode == ENCODER_PRECOMPUTED:
        model.attach_vectors({doc.id: SegmentMatrix(doc.id, rng.normal(size=(len(doc.units), 8)))
                              for doc in docs})
    return model, docs


class _RecordingNumpy:
    """numpy as `swipe.autodiff` sees it during an audit: every function,
    ufunc and ufunc method records the dtype of each float array handed to
    it (alone or in a list or tuple) as ("numpy", dtype), then runs as is.
    Types (`np.float32`, `np.ndarray`) and constants are numpy's own."""

    def __init__(self, target, seen):
        self._target, self._seen = target, seen

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if isinstance(attr, type) or not callable(attr):
            return attr
        return _RecordingNumpy(attr, self._seen)

    def __call__(self, *args, **kwargs):
        for arg in (*args, *kwargs.values()):
            for a in arg if isinstance(arg, (list, tuple)) else (arg,):
                if isinstance(a, np.ndarray) and a.dtype.kind == "f":
                    self._seen.append(("numpy", a.dtype))
        return self._target(*args, **kwargs)


def _audit(monkeypatch) -> list[tuple[str, np.dtype]]:
    """Record the dtype of every tensor made, every gradient accumulated and
    every float array an op hands to numpy (its temporaries included)."""
    seen = []
    init, accumulate = ad.Tensor.__init__, ad.Tensor._accumulate

    def made(self, data, requires_grad=False):
        init(self, data, requires_grad)
        seen.append(("tensor", self.data.dtype))

    def accumulated(self, grad):
        seen.append(("grad", (grad.values if isinstance(grad, ad.RowSparse) else grad).dtype))
        accumulate(self, grad)

    monkeypatch.setattr(ad.Tensor, "__init__", made)
    monkeypatch.setattr(ad.Tensor, "_accumulate", accumulated)
    monkeypatch.setattr(ad, "np", _RecordingNumpy(np, seen))
    return seen


@pytest.mark.parametrize("name", CASES)
def test_a_taped_step_and_its_adam_update_are_float32(name, monkeypatch):
    model, docs = _case(name)
    batch = Batch.of([model.featurize(doc) for doc in docs])
    state = ModelState(model=model, config=TrainConfig(base_lr=0.01, epochs=1), total_steps=4)
    seen = _audit(monkeypatch)
    _, grads = backward_batch(model, batch, model.vocab.gold(docs))
    assert {kind for kind, _ in seen} == {"tensor", "grad", "numpy"}
    assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}, seen
    assert grads.keys() == model.params.keys()
    for grad in grads.values():
        assert (grad.values if isinstance(grad, ad.RowSparse) else grad).dtype == np.float32
    adam_step(state, grads, 1)
    for arrays in (model.params, state.adam_m, state.adam_v, state.scratch):
        assert arrays and all(a.dtype == np.float32 for a in arrays.values())


@pytest.mark.parametrize("name", CASES)
def test_a_tape_free_pass_and_its_predictions_are_float32(name, monkeypatch):
    model, docs = _case(name)
    seen = _audit(monkeypatch)
    preds = [pred for _, _, pred in model.predict_many(docs)]
    assert {kind for kind, _ in seen} == {"tensor", "numpy"}
    assert {dtype for _, dtype in seen} == {np.dtype(np.float32)}, seen
    if not model.config.interaction_layers:
        assert model.label_table(model.tensors()).dtype == np.float32
    for pred in preds:
        arrays = [a for a in (pred.scores, pred.seg_scores, pred.gates) if a is not None]
        assert all(a.dtype == np.float32 for a in arrays)
        record = pred.to_record(model.vocab.names)  # float32 values as Python floats
        assert all(type(entry["y"]) is float for entry in record["per_label"])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", CASES)
def test_float32_scores_agree_with_a_float64_copy(float64_copy, name, seed):
    model, docs = _case(name, seed)
    wide = float64_copy(model)
    for (_, _, got), (_, _, want) in zip(model.predict_many(docs), wide.predict_many(docs)):
        assert want.scores.dtype == np.float64
        scale = np.abs(want.seg_scores).max()
        np.testing.assert_allclose(got.scores, want.scores, rtol=1e-5, atol=1e-6 * scale)
        np.testing.assert_allclose(got.seg_scores, want.seg_scores, rtol=1e-5,
                                   atol=1e-6 * scale)


def _container(path) -> tuple[dict, bytes]:
    line, payload = path.read_bytes().split(b"\n", 1)
    return json.loads(line), payload


def test_a_checkpoint_is_version_2_float32_with_the_payload_sha256(tmp_path):
    model = SwipeModel.create(ModelConfig(labels=("a", "b"), n_buckets=4096, dim=32))
    path = tmp_path / "m.ckpt"
    model.save(path)
    header, payload = _container(path)
    assert (header["version"], header["dtype"]) == (2, "float32")
    assert header["sha256"] == hashlib.sha256(payload).hexdigest()
    assert [t["name"] for t in header["tensors"]] == ["encoder.table", "head.weight",
                                                     "head.bias"]
    # the 4096 x 32 table's payload is 512 KiB, half its float64 size
    assert len(payload) == 4096 * 32 * 4 + 2 * 32 * 4 + 2 * 4
    loaded = SwipeModel.load(path)
    for name, array in model.params.items():
        assert loaded.params[name].dtype == np.float32
        assert loaded.params[name].tobytes() == array.tobytes()


def test_a_sidecar_is_version_2_float32_and_rounds_float64_rows(tmp_path):
    rows = np.random.default_rng(0).normal(size=(3, 5))
    path = tmp_path / "v.bin"
    write_precomputed({"d": SegmentMatrix("d", rows)}, path)
    header, payload = _container(path)
    assert (header["version"], header["dtype"]) == (2, "float32")
    assert header["sha256"] == hashlib.sha256(payload).hexdigest()
    assert payload == rows.astype("<f4").tobytes()
    assert load_precomputed(path)["d"].rows.dtype == np.float32


def test_rows_past_the_float32_range_are_refused():
    with pytest.raises(FormatError, match="non-finite"):
        SegmentMatrix("d", np.array([[1e39, 0.0]]))
