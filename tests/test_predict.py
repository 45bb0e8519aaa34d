"""Chunked inference: `SwipeModel.predict_many` against one document at a time."""

import collections
import io
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swipe import hashing
from swipe import model as model_mod
from swipe.corpus import Document, TASK_MULTICLASS, TASK_MULTILABEL
from swipe.encoder import SegmentMatrix
from swipe.errors import FormatError, ValidationError
from swipe.head import Pooling
from swipe.model import ENCODER_HASH, ENCODER_PRECOMPUTED, ModelConfig, SwipeModel
from swipe.truncate import Segment, TruncationConfig

WORDS = ["the", "a", "café", "東京", "🙂", "straße", "word", "x1", "über", "ok"]


def _docs(rng, n_docs, max_segments=6, single=()):
    """Random documents; those whose index is in `single` have one segment."""
    docs = []
    for i in range(n_docs):
        m = 1 if i in single else rng.integers(1, max_segments + 1)
        units = tuple(" ".join(str(w) for w in rng.choice(WORDS, size=rng.integers(1, 9)))
                      for _ in range(m))
        docs.append(Document(id=f"d{i}", units=units, labels=("a",)))
    return docs


def _model(seed, pooling, layers, task, encoder_mode, docs, dim=4):
    rng = np.random.default_rng(seed)
    config = ModelConfig(
        labels=("a", "b", "c"), task_kind=task, pooling=pooling,
        truncation=TruncationConfig(strategy="structure"), encoder_mode=encoder_mode,
        n_buckets=64, dim=dim, interaction_layers=layers, n_heads=2, ff_dim=8,
        init_seed=seed,
    )
    model = SwipeModel.create(config)
    model.params["head.bias"] = rng.normal(size=3)  # scores on both sides of zero
    model.params["head.gate_bias"] = rng.normal(size=3)
    if encoder_mode == ENCODER_PRECOMPUTED:
        model.attach_vectors({d.id: SegmentMatrix(doc_id=d.id,
                                                  rows=rng.normal(size=(len(d.units), dim)))
                              for d in docs})
    return model


def _same_bits(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _forward_calls(model):
    """Count `model.forward` calls through a wrapper on the instance."""
    calls = []
    forward = model.forward

    def counted(batch, params):
        calls.append(len(batch.offsets) - 1)  # documents in this forward
        return forward(batch, params)

    model.forward = counted
    return calls


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_docs=st.integers(1, 8),
    pooling=st.sampled_from(list(Pooling)),
    layers=st.integers(0, 2),
    task=st.sampled_from([TASK_MULTICLASS, TASK_MULTILABEL]),
    encoder_mode=st.sampled_from([ENCODER_HASH, ENCODER_PRECOMPUTED]),
    # from one document per chunk (0) up to the whole corpus in one chunk
    budget=st.one_of(st.just(0), st.integers(0, 20_000), st.just(10**9)),
    single=st.sets(st.integers(0, 7)),
)
def test_chunked_predictions_equal_per_document_predictions_bit_for_bit(
        seed, n_docs, pooling, layers, task, encoder_mode, budget, single):
    docs = _docs(np.random.default_rng(seed), n_docs, single=single)
    model = _model(seed, pooling, layers, task, encoder_mode, docs)
    singles = [model.predict(doc) for doc in docs]
    calls = _forward_calls(model)
    with (mock.patch.object(model_mod, "CHUNK_BYTES", budget),
          mock.patch.object(model_mod, "build_prediction",
                            wraps=model_mod.build_prediction) as builds):
        chunked = list(model.predict_many(docs))
    assert builds.call_count == len(calls)  # one chunk-wide build per forward
    assert [doc for doc, _, _ in chunked] == docs
    for (doc, segments, got), want in zip(chunked, singles):
        assert (segments is None) == (encoder_mode == ENCODER_PRECOMPUTED)
        assert got.doc_id == want.doc_id == doc.id
        for field in ("scores", "bits", "seg_scores", "seg_bits", "gates", "key_segments"):
            assert _same_bits(getattr(got, field), getattr(want, field)), (doc.id, field)
        assert got.pred_class == want.pred_class
    if budget == 0:
        assert calls == [1] * n_docs
    elif budget == 10**9:
        assert calls == [n_docs]


def _same_arrays(a, b) -> bool:
    """Two features of one kind hold arrays of the same dtypes and bits."""
    arrays = [(x, y) for x, y in zip(vars(a).values(), vars(b).values())
              if isinstance(x, np.ndarray)]
    return type(a) is type(b) and bool(arrays) and all(
        x.dtype == y.dtype and _same_bits(x, y) for x, y in arrays)


@pytest.mark.parametrize("layers", [0, 1])
@pytest.mark.parametrize("encoder_mode", [ENCODER_HASH, ENCODER_PRECOMPUTED])
def test_featurize_chunks_batches_equal_batches_of_per_document_features(
        encoder_mode, layers, monkeypatch):
    rng = np.random.default_rng(4)
    docs = _docs(rng, 30, max_segments=4)
    big = Document(id="big", labels=("a",), units=tuple(f"w{k} ok" for k in range(400)))
    docs.insert(12, big)
    model = _model(4, Pooling.GATED_MAX, layers, TASK_MULTILABEL, encoder_mode, docs)
    monkeypatch.setattr(model_mod, "CHUNK_BYTES", 8_000)  # "big" needs more on its own
    chunks = [(chunk, model.encoder.featurize(chunk)) for chunk in model.chunks(docs)]
    assert [doc for chunk, _ in chunks for doc, _ in chunk] == docs
    assert [[doc.id for doc, _ in chunk] for chunk, _ in chunks if big in dict(chunk)] \
        == [["big"]]
    assert max(len(chunk) for chunk, _ in chunks) > 1  # the budget does group documents
    for chunk, batch in chunks:
        want = model_mod.Batch.of([model.featurize(doc) for doc, _ in chunk])
        assert _same_arrays(batch.inputs, want.inputs)
        assert _same_bits(batch.offsets, want.offsets)
        assert batch.inputs.doc_id == want.inputs.doc_id
    for doc, segments, got in model.predict_many(docs):
        assert (segments is None) == (encoder_mode == ENCODER_PRECOMPUTED)
        want = model.predict(doc)
        for field in ("scores", "seg_scores", "gates", "key_segments"):
            assert _same_bits(getattr(got, field), getattr(want, field)), (doc.id, field)


@pytest.mark.parametrize("layers", [0, 1])
def test_a_document_whose_scores_are_not_finite_is_named(layers):
    docs = _docs(np.random.default_rng(3), 4)
    model = _model(3, Pooling.GATED_MAX, layers, TASK_MULTILABEL, ENCODER_PRECOMPUTED, docs)
    model.precomputed["d2"].rows[...] = 1e308  # finite, but its scores overflow
    with pytest.raises(ValidationError, match="^document 'd2' holds a NaN or an infinity"):
        list(model.predict_many(docs))


def test_predict_many_uses_the_truncation_it_is_given():
    docs = [Document(id="t", text="one two three four five six seven", labels=("a",))]
    model = _model(0, Pooling.MAX, 0, TASK_MULTILABEL, ENCODER_HASH, [])
    window = TruncationConfig(strategy="auto", window_len=3, overlap=0)
    (_, segments, pred), = model.predict_many(docs, window)
    assert [seg.tokens for seg in segments] == [("one", "two", "three"),
                                                ("four", "five", "six"), ("seven",)]
    assert pred.m == 3


def _exact_chunk_bytes(segments, dim, orders=(1, 2), layers=0, heads=2, ff_dim=8):
    """Bytes of the embedding gather, of the hashing byte matrix and of the
    interaction layers' activations: per segment 12 x dim + 2 x ff_dim floats,
    per document of m segments 3 x heads x m^2 floats, per layer."""
    tokens = [tok for seg in segments for tok in seg.tokens]
    ngrams = sum(max(len(seg.tokens) - k + 1, 0) for seg in segments for k in orders)
    per_doc = collections.Counter(seg.doc_id for seg in segments).values()
    activations = layers * 8 * (len(segments) * (12 * dim + 2 * ff_dim)
                                + sum(3 * heads * m * m for m in per_doc))
    width = min(max(len(tok.encode()) for tok in tokens), hashing.WIDTH_CAP)
    return ngrams * dim * 8 + len(tokens) * width + activations


_TOKENS = st.sampled_from([*WORDS, "é" * 20, "東" * 30, "x" * (hashing.WIDTH_CAP + 1)])


@settings(max_examples=200, deadline=None)
@given(orders=st.sampled_from([(1,), (1, 2), (2, 3), (1, 3)]), dim=st.integers(1, 16),
       docs=st.lists(st.lists(st.lists(_TOKENS, min_size=1, max_size=5), min_size=1,
                              max_size=4), min_size=1, max_size=4))
def test_hash_chunk_size_bounds_the_exact_chunk_bytes(orders, dim, docs):
    # segments of 1 token are shorter than orders 2 and 3, and tokens run from
    # one byte to past WIDTH_CAP, in up to four bytes per character
    model = SwipeModel.create(ModelConfig(labels=("a", "b"), n_buckets=16, dim=dim,
                                          ngram_orders=orders))
    chunk = [(Document(id=f"d{i}", text="x", labels=("a",)),
              [Segment(f"d{i}", k, tuple(tokens)) for k, tokens in enumerate(doc)])
             for i, doc in enumerate(docs)]
    sizes = [model.encoder.chunk_size(doc, segments) for doc, segments in chunk]
    assert [m for m, _ in sizes] == [len(doc) for doc in docs]
    segments = [seg for _, doc_segments in chunk for seg in doc_segments]
    assert sum(size for _, size in sizes) >= _exact_chunk_bytes(segments, dim, orders)


def _chunks(model, docs, monkeypatch):
    """Each hashing call's segments, as `predict_many` makes them."""
    seen = []
    featurize = model_mod.featurize_segments

    def spy(segments, params):
        seen.append(list(segments))
        return featurize(segments, params)

    monkeypatch.setattr(model_mod, "featurize_segments", spy)
    assert len(list(model.predict_many(docs))) == len(docs)
    return seen


def test_chunks_stay_within_the_budget_and_a_very_long_token_shares_a_chunk(monkeypatch):
    # the hashing byte matrix is at most WIDTH_CAP bytes wide, so a 300 kB
    # token counts as one capped row and its document joins a chunk
    rng = np.random.default_rng(1)
    docs = _docs(rng, 300, max_segments=12)
    url = "https://example.org/" + "x" * 300_000
    docs.insert(150, Document(id="long", units=("see " + url + " here", "ok"), labels=("a",)))
    model = _model(1, Pooling.MAX, 0, TASK_MULTILABEL, ENCODER_HASH, docs, dim=32)
    chunks = _chunks(model, docs, monkeypatch)
    doc_ids = [sorted({seg.doc_id for seg in chunk}) for chunk in chunks]
    assert ["long"] not in doc_ids and any("long" in ids for ids in doc_ids)
    assert sum(len(ids) for ids in doc_ids) == len(docs)
    shared = [chunk for chunk, ids in zip(chunks, doc_ids) if len(ids) > 1]
    assert len(shared) >= 2  # the budget does group documents
    for chunk in shared:
        assert _exact_chunk_bytes(chunk, dim=32) <= model_mod.CHUNK_BYTES


def test_interaction_chunks_stay_within_the_budget(monkeypatch):
    docs = _docs(np.random.default_rng(2), 200, max_segments=24, single=range(0, 200, 5))
    model = _model(2, Pooling.GATED_SUM, 2, TASK_MULTILABEL, ENCODER_HASH, docs, dim=32)
    chunks = _chunks(model, docs, monkeypatch)
    sizes = [len({seg.doc_id for seg in chunk}) for chunk in chunks]
    assert sum(sizes) == len(docs) and max(sizes) >= 4  # the budget does group documents
    for chunk, size in zip(chunks, sizes):
        if size > 1:
            assert _exact_chunk_bytes(chunk, dim=32, layers=2) <= model_mod.CHUNK_BYTES


class TestLoad:
    def _saved(self, tmp_path, **overrides):
        config = ModelConfig(labels=("a", "b"), n_buckets=16, dim=4, **overrides)
        model = SwipeModel.create(config)
        path = tmp_path / "m.ckpt"
        model.save(path)
        return model, path

    @pytest.mark.parametrize("overrides", [
        {}, {"encoder_mode": ENCODER_PRECOMPUTED},
        {"interaction_layers": 2, "ff_dim": 6, "max_positions": 5},
    ])
    def test_load_reads_parameters_without_drawing_new_ones(self, tmp_path, monkeypatch,
                                                            overrides):
        model, path = self._saved(tmp_path, **overrides)

        def no_draws(*args, **kwargs):
            raise AssertionError("load must not draw parameters")

        monkeypatch.setattr(SwipeModel, "create", no_draws)
        loaded = SwipeModel.load(path)
        assert loaded.config == model.config
        want, got = model.params, loaded.params
        assert list(got) == list(want)
        for name, array in got.items():
            assert type(array) is np.ndarray and array.dtype == np.float64
            assert array.tobytes() == want[name].tobytes(), name
        if model.config.interaction_layers:
            assert loaded.config.n_heads == model.config.n_heads
            assert "interaction.positions" in got

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name, at", [("encoder.table", 0), ("head.bias", 1)])
    def test_non_finite_payload_is_rejected_naming_the_tensor(self, tmp_path, value, name, at):
        model, path = self._saved(tmp_path)
        header, payload = path.read_bytes().split(b"\n", 1)
        start = 0
        for tensor_name, array in model.params.items():
            if tensor_name == name:
                break
            start += array.nbytes
        payload = bytearray(payload)
        payload[start + 8 * at:start + 8 * (at + 1)] = np.array([value], "<f8").tobytes()
        path.write_bytes(header + b"\n" + bytes(payload))
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: tensor {name} holds {value} at flat index {at}")):
            SwipeModel.load(path)

    @pytest.mark.parametrize("kind", ["checkpoint", "vectors sidecar"])
    def test_header_line_is_read_up_to_the_cap(self, tmp_path, monkeypatch, kind):
        if kind == "checkpoint":
            _, path = self._saved(tmp_path)
            load = SwipeModel.load
        else:
            path = tmp_path / "v.bin"
            model_mod.write_precomputed({"d": SegmentMatrix("d", np.ones((2, 3)))}, path)
            load = model_mod.load_precomputed
        line = path.read_bytes().split(b"\n", 1)[0] + b"\n"
        monkeypatch.setattr(model_mod, "HEADER_BYTES", len(line))
        load(path)  # a header line of exactly the cap is read
        monkeypatch.setattr(model_mod, "HEADER_BYTES", len(line) - 1)
        with pytest.raises(FormatError, match=re.escape(
                f"{path}: bad {kind} header: no newline in its first {len(line) - 1} bytes")):
            load(path)

    def test_short_read_is_a_truncated_tensor(self):
        assert model_mod._read_tensor(io.BytesIO(bytes(16)), "t", (2,)).tolist() == [0.0, 0.0]
        with pytest.raises(FormatError, match="truncated tensor t"):
            model_mod._read_tensor(io.BytesIO(bytes(12)), "t", (2,))
