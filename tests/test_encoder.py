import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from swipe import autodiff as ad
from swipe import hashing
from swipe import model as model_mod
from swipe.encoder import (
    HASH_SEED,
    SegmentMatrix,
    encode_features,
    featurize_segments,
    interact_tensor,
)
from swipe.errors import ConfigError, FormatError, ValidationError
from swipe.model import (
    ENCODER_PRECOMPUTED,
    ModelConfig,
    load_precomputed,
    parameter_shapes,
    write_precomputed,
)
from swipe.truncate import Segment


def _segments(token_lists, doc_id="d"):
    return [
        Segment(doc_id=doc_id, index=k, tokens=tuple(toks))
        for k, toks in enumerate(token_lists)
    ]


def _hash_encoder(n_buckets, dim, ngram_orders=(1, 2), init_seed=0):
    """A hash-encoder config and its "encoder.table", drawn by
    `default_rng(init_seed)` with std 1/sqrt(dim)."""
    config = ModelConfig(labels=("a", "b"), n_buckets=n_buckets, dim=dim,
                         ngram_orders=ngram_orders)
    table = np.random.default_rng(init_seed).normal(0.0, 1.0 / np.sqrt(dim),
                                                    size=(n_buckets, dim))
    return config, {"encoder.table": ad.Tensor(table, requires_grad=True)}


def _interaction(num_layers, dim, n_heads=2, init_seed=0):
    """An interaction config and its "interaction.*" tensors, drawn by one
    `default_rng(init_seed)` in `parameter_shapes` order: a layer's weights
    with std 1/sqrt(rows), gains one and biases zero."""
    config = ModelConfig(labels=("a", "b"), encoder_mode=ENCODER_PRECOMPUTED, dim=dim,
                         interaction_layers=num_layers, n_heads=n_heads)
    rng = np.random.default_rng(init_seed)
    params = {}
    for name, shape in parameter_shapes(config):
        if not name.startswith("interaction."):
            continue
        if len(shape) == 1:
            data = np.ones(shape) if name.endswith("gain") else np.zeros(shape)
        else:
            data = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
        params[name] = ad.Tensor(data, requires_grad=True)
    return config, params


def _layer_norm(x, gain, bias, eps=1e-5):
    centered = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((centered**2).mean(axis=-1, keepdims=True) + eps)
    return gain.data * (centered * inv_std) + bias.data


def _interaction_alone(x, params, config):
    """One document's interaction layers in plain numpy, attention head by head."""
    m, dim = x.shape
    head_dim = dim // config.n_heads
    for i in range(config.interaction_layers):
        p = {name: params[f"interaction.{i}.{name}"] for name in model_mod.LAYER_PARAMS}
        h = _layer_norm(x, p["ln1_gain"], p["ln1_bias"])
        q, k, v = h @ p["wq"].data, h @ p["wk"].data, h @ p["wv"].data
        ctx = np.empty_like(x)
        for head in range(config.n_heads):
            cols = slice(head * head_dim, (head + 1) * head_dim)
            scores = (q[:, cols] @ k[:, cols].T) * (1.0 / np.sqrt(head_dim))
            e = np.exp(scores - scores.max(axis=-1, keepdims=True))
            ctx[:, cols] = (e / e.sum(axis=-1, keepdims=True)) @ v[:, cols]
        x = x + ctx @ p["wo"].data
        hidden = _layer_norm(x, p["ln2_gain"], p["ln2_bias"]) @ p["ff_in"].data
        x = x + (hidden * (hidden > 0)) @ p["ff_out"].data
    return _layer_norm(x, params["interaction.final_gain"], params["interaction.final_bias"])


def _whole(rows):
    """Offsets of a batch of one document that owns every row of `rows`."""
    return np.array([0, len(rows)])


class TestSegmentMatrix:
    def test_requires_2d(self):
        with pytest.raises(FormatError):
            SegmentMatrix(doc_id="d", rows=np.zeros(3))

    def test_rejects_non_finite(self):
        with pytest.raises(FormatError):
            SegmentMatrix(doc_id="d", rows=np.array([[1.0, np.inf]]))


class TestHashEncoder:
    def test_single_bucket_row_equals_that_embedding(self):
        # with one bucket, every n-gram hits bucket 0: mean of identical rows
        config, params = _hash_encoder(n_buckets=1, dim=4, init_seed=0)
        out = encode_features(featurize_segments(_segments([["a", "b", "c"], ["d"]]), config),
                              params).data
        np.testing.assert_allclose(out[0], params["encoder.table"].data[0])
        np.testing.assert_allclose(out[1], params["encoder.table"].data[0])

    def test_zero_table_gives_zero_rows(self):
        config, params = _hash_encoder(n_buckets=64, dim=4, init_seed=0)
        params["encoder.table"].data = np.zeros_like(params["encoder.table"].data)
        feats = featurize_segments(_segments([["a", "b"], ["c", "d", "e"]]), config)
        np.testing.assert_array_equal(encode_features(feats, params).data, np.zeros((2, 4)))

    def test_rows_match_standalone_hash_and_average_oracle(self):
        # oracle recomputes the same contract with its own loop
        config, params = _hash_encoder(n_buckets=97, dim=4, ngram_orders=(1, 2), init_seed=1)
        token_lists = [["the", "cat", "sat"], ["on", "the", "mat", "."]]
        out = encode_features(featurize_segments(_segments(token_lists), config), params).data
        for k, tokens in enumerate(token_lists):
            grams = [tuple(tokens[i:i + n]) for n in (1, 2)
                     for i in range(len(tokens) - n + 1)]
            rows = []
            for gram in grams:
                h = hashing.hash64(b"\x1f".join(t.encode() for t in gram), HASH_SEED)
                rows.append(params["encoder.table"].data[h % 97])
            np.testing.assert_allclose(out[k], np.mean(rows, axis=0), atol=1e-12)

    def test_differentiable_wrt_table(self):
        config, params = _hash_encoder(n_buckets=16, dim=3, init_seed=2)
        table = params["encoder.table"]
        feats = featurize_segments(_segments([["a", "b"], ["c"]]), config)
        ad.embedding_bag_mean(table, feats.ids, feats.offsets).backward()
        assert table.grad is not None
        assert np.any(ad.dense(table.grad) != 0)

    def test_empty_segment_list_rejected(self):
        config, _ = _hash_encoder(n_buckets=16, dim=3)
        with pytest.raises(ConfigError):
            featurize_segments([], config)

    def test_segment_shorter_than_every_order_rejected(self):
        # its bag would be empty: no n-gram of order 2 or 3 fits in one token
        config, _ = _hash_encoder(n_buckets=16, dim=3, ngram_orders=(3, 2))
        segments = _segments([["a", "b", "c"], ["a", "b"], ["solo"]], doc_id="d7")
        with pytest.raises(ValidationError, match=(
                r"^document 'd7': segment 2 has 1 token\(s\), fewer than the smallest "
                r"n-gram order 2, so it has no n-grams$")):
            featurize_segments(segments, config)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), orders=st.sampled_from([(1,), (2,), (1, 2), (2, 3), (1, 2, 3)]),
       buckets=st.integers(1, 10**6))
def test_featurize_equals_one_kernel_call_per_segment(data, orders, buckets):
    # a chunk's one kernel call lays its ids out as concatenated per-segment
    # calls, and its bags are the per-segment n-gram counts, accumulated
    token = st.text(alphabet="ab\u00e9\u4e2d_ ", min_size=1, max_size=4)
    n_segments = data.draw(st.integers(1, 300))
    token_lists = data.draw(st.lists(st.lists(token, min_size=orders[0], max_size=orders[0] + 3),
                                     min_size=n_segments, max_size=n_segments))
    config = ModelConfig(labels=("a", "b"), n_buckets=buckets, dim=4, ngram_orders=orders)
    feats = featurize_segments(_segments(token_lists), config)
    per_segment = [hashing.ngram_bucket_ids(toks, buckets, orders, HASH_SEED)
                   for toks in token_lists]
    counts = [sum(max(len(toks) - k + 1, 0) for k in orders) for toks in token_lists]
    assert feats.ids.dtype == np.int64 and feats.offsets.dtype == np.int64
    np.testing.assert_array_equal(feats.ids, np.concatenate(per_segment))
    np.testing.assert_array_equal(feats.offsets, np.cumsum([0, *counts]))
    assert [len(ids) for ids in per_segment] == counts


@st.composite
def _sidecars(draw) -> dict[str, SegmentMatrix]:
    """1-4 documents with any ids (non-ASCII included), 1-5 rows each, one
    h in 1-8, and finite float32 entries (-0.0 and subnormals included)."""
    h = draw(st.integers(1, 8))
    ids = draw(st.lists(st.text(max_size=6), min_size=1, max_size=4, unique=True))
    cell = st.floats(allow_nan=False, allow_infinity=False, width=32)
    return {doc_id: SegmentMatrix(doc_id=doc_id, rows=draw(
                hnp.arrays(np.float32, (draw(st.integers(1, 5)), h), elements=cell)))
            for doc_id in ids}


class TestPrecomputed:
    @settings(max_examples=60, deadline=None)
    @given(mats=_sidecars(), extra=st.sampled_from([-0.0, 1e-45, -1.1754944e-38]))
    def test_round_trip(self, tmp_path_factory, mats, extra):
        """Every id, row and bit comes back, in the order written."""
        first = next(iter(mats.values()))
        first.rows[0, 0] = extra
        path = tmp_path_factory.mktemp("sidecar") / "vectors.bin"
        write_precomputed(mats, path)
        loaded = load_precomputed(path)
        assert list(loaded) == list(mats)
        for doc_id, mat in mats.items():
            assert loaded[doc_id].doc_id == doc_id
            assert loaded[doc_id].rows.shape == mat.rows.shape
            assert loaded[doc_id].rows.tobytes() == mat.rows.tobytes()

    def test_load_checks_each_array_finite_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        mats = {f"d{i}": SegmentMatrix(doc_id=f"d{i}", rows=rng.normal(size=(1 + i, 5)))
                for i in range(4)}
        path = tmp_path / "vectors.bin"
        write_precomputed(mats, path)
        checked = []
        isfinite = np.isfinite

        def counted(x, *args, **kwargs):
            checked.append(x)
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)
        loaded = load_precomputed(path)
        monkeypatch.undo()
        for doc_id, mat in loaded.items():
            assert sum(x is mat.rows for x in checked) == 1, doc_id
            assert mat.rows.tobytes() == mats[doc_id].rows.tobytes()
        assert len(checked) == len(mats)
        # stacking checked matrices checks nothing again
        monkeypatch.setattr(np, "isfinite", counted)
        SegmentMatrix.concat(list(loaded.values()))
        assert len(checked) == len(mats)

    def test_dimension_mismatch_rejected(self, tmp_path):
        """Mixed h is refused at write time: as h=4 with rows 1, 2, 1 the
        payload size would match and b's second row would hold c's bytes."""
        mats = {doc_id: SegmentMatrix(doc_id=doc_id, rows=np.ones(shape))
                for doc_id, shape in (("a", (1, 4)), ("b", (2, 2)), ("c", (1, 8)))}
        path = tmp_path / "vectors.bin"
        with pytest.raises(FormatError, match=r"document 'b' \(h=2\).*h=4"):
            write_precomputed(mats, path)
        assert not path.exists()

    def test_doc_id_that_is_no_string_rejected(self, tmp_path):
        path = tmp_path / "vectors.bin"
        with pytest.raises(FormatError, match="document 3 .*string id"):
            write_precomputed({"3": SegmentMatrix(doc_id=3, rows=np.ones((1, 2)))}, path)
        assert not path.exists()


class TestInteraction:
    def test_zero_layers_is_identity(self):
        config, params = _interaction(num_layers=0, dim=8)
        rows = np.random.default_rng(0).normal(size=(3, 8))
        out = interact_tensor(ad.Tensor(rows), params, config, _whole(rows)).data
        np.testing.assert_array_equal(out, rows)

    def test_single_row_shape_preserved_and_finite(self):
        config, params = _interaction(num_layers=2, dim=8, n_heads=2, init_seed=1)
        rows = np.random.default_rng(1).normal(size=(1, 8))
        out = interact_tensor(ad.Tensor(rows), params, config, _whole(rows)).data
        assert out.shape == (1, 8)
        assert np.all(np.isfinite(out))

    def test_permutation_equivariance_without_positions(self):
        rng = np.random.default_rng(7)
        config, params = _interaction(num_layers=2, dim=8, n_heads=2, init_seed=3)
        rows = rng.normal(size=(5, 8))
        perm = rng.permutation(5)
        out = interact_tensor(ad.Tensor(rows), params, config, _whole(rows)).data
        out_perm = interact_tensor(ad.Tensor(rows[perm]), params, config, _whole(rows)).data
        np.testing.assert_allclose(out_perm, out[perm], atol=1e-6)

    def test_dim_mismatch_rejected(self):
        config, params = _interaction(num_layers=1, dim=8, n_heads=2)
        with pytest.raises(ConfigError):
            interact_tensor(ad.Tensor(np.zeros((2, 4))), params, config, np.array([0, 2]))

    def test_heads_must_divide_dim(self):
        with pytest.raises(ConfigError):
            ModelConfig(labels=("a", "b"), dim=6, interaction_layers=1, n_heads=4)

    @pytest.mark.parametrize("sizes", [[1], [3], [1, 1, 1], [2, 2, 2], [4, 1, 2, 1, 4, 3]])
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_ragged_batch_matches_each_document_alone_bit_for_bit(self, sizes, n_heads):
        config, params = _interaction(num_layers=2, dim=8, n_heads=n_heads,
                                      init_seed=len(sizes))
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        rows = np.random.default_rng(n_heads).normal(size=(offsets[-1], 8))
        out = interact_tensor(ad.Tensor(rows), params, config, offsets).data
        for start, stop in zip(offsets, offsets[1:]):
            alone = _interaction_alone(rows[start:stop], params, config)
            assert out[start:stop].tobytes() == alone.tobytes(), (start, stop)

    def test_differentiable_end_to_end(self):
        config, params = _interaction(num_layers=1, dim=4, n_heads=2, init_seed=0)
        x = ad.Tensor(np.random.default_rng(0).normal(size=(3, 4)), requires_grad=True)
        interact_tensor(x, params, config, np.array([0, 3])).backward()
        assert x.grad is not None and np.all(np.isfinite(x.grad))
        assert params["interaction.0.wq"].grad is not None
