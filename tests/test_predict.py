"""Chunked inference: `SwipeModel.predict_many` against one document at a time."""

import hashlib
import io
import json
import re
import tracemalloc
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
        n_buckets=64, dim=dim, interaction_layers=layers, n_heads=2,
        ff_dim=8 if layers else None, init_seed=seed,
    )
    model = SwipeModel.create(config)
    # scores on both sides of zero
    model.params["head.bias"] = rng.normal(size=3).astype(np.float32)
    if pooling.gated:
        model.params["head.gate_bias"] = rng.normal(size=3).astype(np.float32)
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


def _encode_calls(monkeypatch):
    """Count dim-wide encodes: `encode_features` (hash) and `VectorEncoder.encode`."""
    calls = []
    for owner, name in ((model_mod, "encode_features"), (model_mod.VectorEncoder, "encode")):
        def spy(*args, _name=name, _wrapped=getattr(owner, name)):
            calls.append(_name)
            return _wrapped(*args)
        monkeypatch.setattr(owner, name, spy)
    return calls


def _taped(model, docs):
    """The documents' batch and the training-style taped forward over it."""
    batch = model_mod.Batch.of([model.featurize(doc) for doc in docs])
    return batch, model.forward(batch, model.tensors(requires_grad=True))


@pytest.mark.parametrize("task", [TASK_MULTICLASS, TASK_MULTILABEL])
@pytest.mark.parametrize("pooling", list(Pooling))
def test_flat_taped_and_tape_free_passes_agree_bit_for_bit(pooling, task, monkeypatch):
    encodes = _encode_calls(monkeypatch)
    for seed in range(6):
        docs = _docs(np.random.default_rng(seed), 10)
        # dim 2 < L = 3 < 2L, and dim 8 above both
        model = _model(seed, pooling, 0, task, ENCODER_HASH, docs, dim=2 + 6 * (seed % 2))
        batch, taped = _taped(model, docs)
        assert taped.doc_scores.requires_grad
        free = model.forward(batch, model.tensors())
        assert not free.doc_scores.requires_grad
        for field in ("doc_scores", "seg_scores", "gates", "pooled_rows"):
            got, want = getattr(free, field), getattr(taped, field)
            assert _same_bits(None if got is None else got.data,
                              None if want is None else want.data), (seed, field)
        assert _same_bits(free.pool_argmax, taped.pool_argmax)
        # and so every prediction, chunk by chunk, equals the taped pass
        bounds = batch.offsets.tolist()
        for b, ((_, _, pred), lo, hi) in enumerate(zip(model.predict_many(docs), bounds,
                                                        bounds[1:])):
            assert _same_bits(pred.scores, taped.doc_scores.data[b]), (seed, b)
            assert _same_bits(pred.seg_scores, taped.seg_scores.data[lo:hi].T), (seed, b)
    assert encodes == []  # a flat hashed model never encodes dim-wide


@pytest.mark.parametrize("layers, encoder_mode", [
    (0, ENCODER_HASH), (1, ENCODER_HASH), (0, ENCODER_PRECOMPUTED), (1, ENCODER_PRECOMPUTED)])
def test_only_a_flat_hashed_model_skips_the_dim_wide_encode(layers, encoder_mode,
                                                           monkeypatch):
    docs = _docs(np.random.default_rng(5), 6)
    model = _model(5, Pooling.GATED_SUM, layers, TASK_MULTILABEL, encoder_mode, docs)
    encodes = _encode_calls(monkeypatch)
    list(model.predict_many(docs))
    flat_hashed = encoder_mode == ENCODER_HASH and not layers
    assert bool(encodes) != flat_hashed
    encodes.clear()
    _taped(model, docs)
    want = "encode_features" if encoder_mode == ENCODER_HASH else "encode"
    assert encodes == ([] if flat_hashed else [want])


def test_the_label_table_is_built_once_for_every_chunk_and_document(monkeypatch):
    docs = _docs(np.random.default_rng(6), 12)
    model = _model(6, Pooling.GATED_MAX, 0, TASK_MULTILABEL, ENCODER_HASH, docs)
    builds = []
    einsum = np.einsum

    def counted(*args, **kwargs):
        builds.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(model_mod.np, "einsum", counted)
    monkeypatch.setattr(model_mod, "CHUNK_BYTES", 0)  # one chunk per document
    assert len(list(model.predict_many(docs))) == len(docs)
    for doc in docs:
        model.predict(doc)
    assert builds == ["nd,ld->nl"]
    assert model.label_table(model.tensors()).shape == (64, 6)  # (n_buckets, 2L) when gated


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
    # room for any two of the other documents past a chunk's fixed charge;
    # "big" needs more on its own
    small = max(model.doc_bytes(doc, model.encoder.segments(doc, model.config.truncation))
                for doc in docs if doc is not big)
    monkeypatch.setattr(model_mod, "CHUNK_BYTES", model_mod.PASS_BYTES + 2 * small)
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
    model.precomputed["d2"].rows[...] = 3e38  # finite, but its scores overflow
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


def _exact_chunk_bytes(segments, dim, orders=(1, 2)):
    """Bytes of the embedding gather (float32 rows) and of the hashing byte matrix."""
    tokens = [tok for seg in segments for tok in seg.tokens]
    ngrams = sum(max(len(seg.tokens) - k + 1, 0) for seg in segments for k in orders)
    width = min(max(len(tok.encode()) for tok in tokens), hashing.WIDTH_CAP)
    return ngrams * dim * 4 + len(tokens) * width


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


@pytest.mark.parametrize("orders", [(1,), (1, 2), (1, 2, 3)])
def test_a_small_dim_token_is_charged_what_hashing_holds(orders):
    # at dim 1 and two labels the gather's charge is below what hashing holds
    # per token; segments as short as the orders allow and one token as wide
    # as the byte matrix are its worst case
    model = SwipeModel.create(ModelConfig(labels=("a", "b"), n_buckets=64, dim=1,
                                          ngram_orders=orders))
    tokens = [WORDS[i % len(WORDS)] for i in range(3000)]
    tokens[7] = "z" * hashing.WIDTH_CAP
    k = max(orders)
    doc = Document(id="d", text="x", labels=("a",))
    segments = [Segment("d", j, tuple(tokens[i:i + k]))
                for j, i in enumerate(range(0, len(tokens), k))]
    model.encoder.featurize([(doc, segments[:2])])  # one-time allocations
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        model.encoder.featurize([(doc, segments)])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= model.encoder.chunk_size(doc, segments)[1]


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


def _pass_peaks(model, docs):
    """(documents, bytes charged, tracemalloc peak of a tape-free featurize
    plus `_predictions`) of each chunk `predict_many` scores."""
    peaks = []
    for chunk in model.chunks(docs):
        charged = model_mod.PASS_BYTES + sum(model.doc_bytes(doc, segments)
                                             for doc, segments in chunk)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            model._predictions(model.encoder.featurize(chunk), [doc.id for doc, _ in chunk])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        peaks.append((len(chunk), charged, peak))
    return peaks


def test_interaction_chunks_stay_within_the_budget():
    docs = _docs(np.random.default_rng(2), 200, max_segments=24, single=range(0, 200, 5))
    model = _model(2, Pooling.GATED_SUM, 2, TASK_MULTILABEL, ENCODER_HASH, docs, dim=32)
    peaks = _pass_peaks(model, docs)
    assert sum(n for n, _, _ in peaks) == len(docs)
    assert max(n for n, _, _ in peaks) >= 4  # the budget does group documents
    for n, charged, peak in peaks:
        if n > 1:
            assert peak <= charged <= model_mod.CHUNK_BYTES


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), layers=st.integers(1, 3), heads=st.integers(1, 4),
       head_dim=st.sampled_from([1, 2, 8]), ff_dim=st.integers(4, 64),
       pooling=st.sampled_from(list(Pooling)),
       segments=st.lists(st.integers(1, 40), min_size=2, max_size=8))
def test_a_chunk_pass_holds_at_most_its_charge(seed, layers, heads, head_dim, ff_dim,
                                               pooling, segments):
    rng = np.random.default_rng(seed)
    docs = [Document(id=f"d{i}", labels=("a",), units=tuple(
                " ".join(rng.choice(WORDS, size=rng.integers(1, 9))) for _ in range(m)))
            for i, m in enumerate(segments)]
    model = SwipeModel.create(ModelConfig(
        labels=("a", "b", "c"), task_kind=TASK_MULTILABEL, pooling=pooling,
        truncation=TruncationConfig(strategy="structure"), n_buckets=64,
        dim=heads * head_dim, interaction_layers=layers, n_heads=heads, ff_dim=ff_dim,
        init_seed=seed))
    for n, charged, peak in _pass_peaks(model, docs):
        if n > 1:
            assert peak <= charged <= model_mod.CHUNK_BYTES


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), dim=st.integers(1, 8), data=st.data(),
       pooling=st.sampled_from(list(Pooling)),
       segments=st.lists(st.integers(1, 40), min_size=2, max_size=8))
def test_a_flat_chunk_pass_holds_at_most_its_charge(seed, dim, data, pooling, segments):
    # the label table is L or 2L wide, which can exceed dim
    n_labels = data.draw(st.integers(2, dim + 4), label="n_labels")
    rng = np.random.default_rng(seed)
    docs = [Document(id=f"d{i}", labels=("l0",), units=tuple(
                " ".join(rng.choice(WORDS, size=rng.integers(1, 9))) for _ in range(m)))
            for i, m in enumerate(segments)]
    model = SwipeModel.create(ModelConfig(
        labels=tuple(f"l{i}" for i in range(n_labels)), task_kind=TASK_MULTILABEL,
        pooling=pooling, truncation=TruncationConfig(strategy="structure"), n_buckets=64,
        dim=dim, init_seed=seed))
    model.label_table(model.tensors())  # held once per model, not per chunk
    for n, charged, peak in _pass_peaks(model, docs):
        if n > 1:
            assert peak <= charged <= model_mod.CHUNK_BYTES


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
            assert type(array) is np.ndarray and array.dtype == np.float32
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
        payload[start + 4 * at:start + 4 * (at + 1)] = np.array([value], "<f4").tobytes()
        # the edit is hashed into the header: the checksum holds, the value is refused
        header = json.loads(header)
        header["sha256"] = hashlib.sha256(payload).hexdigest()
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(payload))
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

    @pytest.mark.parametrize("piece", [1, 7, model_mod.HEADER_PIECE])
    def test_header_line_is_read_whole_in_pieces(self, tmp_path, monkeypatch, piece):
        model, path = self._saved(tmp_path)
        monkeypatch.setattr(model_mod, "HEADER_PIECE", piece)
        loaded = SwipeModel.load(path)
        assert loaded.config == model.config
        assert all(loaded.params[name].tobytes() == array.tobytes()
                   for name, array in model.params.items())

    def test_a_header_without_newline_is_refused_holding_about_its_size(self, tmp_path):
        path = tmp_path / "v.bin"
        path.write_bytes(b"x" * (16 << 20))
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=re.escape(
                    f"{path}: bad vectors sidecar header: no newline in its first {16 << 20} "
                    "bytes")):
                model_mod.load_precomputed(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * (16 << 20)

    def test_short_read_is_a_truncated_tensor(self):
        sha = hashlib.sha256()
        got = model_mod._read_tensor(io.BytesIO(bytes(8)), "t", (2,), sha)
        assert got.tolist() == [0.0, 0.0] and got.dtype == np.float32
        assert sha.hexdigest() == hashlib.sha256(bytes(8)).hexdigest()
        with pytest.raises(FormatError, match="truncated tensor t"):
            model_mod._read_tensor(io.BytesIO(bytes(6)), "t", (2,), hashlib.sha256())
