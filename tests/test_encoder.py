import itertools

import numpy as np
import pytest

from swipe import autodiff as ad
from swipe import encoder, hashing
from swipe import model as model_mod
from swipe.encoder import (
    SegmentMatrix,
    encode_features,
    featurize_segments,
    interact_tensor,
    load_precomputed,
    write_precomputed,
)
from swipe.errors import ConfigError, FormatError
from swipe.model import ENCODER_PRECOMPUTED, ModelConfig, parameter_shapes
from swipe.truncate import Segment


def _segments(token_lists, doc_id="d"):
    return [
        Segment(doc_id=doc_id, index=k, tokens=tuple(toks))
        for k, toks in enumerate(token_lists)
    ]


def _hash_encoder(n_buckets, dim, ngram_orders=(1, 2), hash_seed=0, init_seed=0):
    """A hash-encoder config and its "encoder.table", drawn by
    `default_rng(init_seed)` with std 1/sqrt(dim)."""
    config = ModelConfig(labels=("a", "b"), n_buckets=n_buckets, dim=dim,
                         ngram_orders=ngram_orders, hash_seed=hash_seed)
    table = np.random.default_rng(init_seed).normal(0.0, 1.0 / np.sqrt(dim),
                                                    size=(n_buckets, dim))
    return config, {"encoder.table": ad.Tensor(table, requires_grad=True)}


def _interaction(num_layers, dim, n_heads=2, max_positions=None, init_seed=0):
    """An interaction config and its "interaction.*" tensors, drawn by one
    `default_rng(init_seed)` in `parameter_shapes` order: a layer's weights
    with std 1/sqrt(rows), positions with std 1/sqrt(dim), gains one and
    biases zero."""
    config = ModelConfig(labels=("a", "b"), encoder_mode=ENCODER_PRECOMPUTED, dim=dim,
                         interaction_layers=num_layers, n_heads=n_heads,
                         max_positions=max_positions)
    rng = np.random.default_rng(init_seed)
    params = {}
    for name, shape in parameter_shapes(config):
        if not name.startswith("interaction."):
            continue
        if len(shape) == 1:
            data = np.ones(shape) if name.endswith("gain") else np.zeros(shape)
        else:
            std = 1.0 / np.sqrt(dim if name.endswith("positions") else shape[0])
            data = rng.normal(0.0, std, size=shape)
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
    if "interaction.positions" in params:
        x = x + params["interaction.positions"].data[:m]
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
        config, params = _hash_encoder(n_buckets=97, dim=4, ngram_orders=(1, 2),
                                       hash_seed=5, init_seed=1)
        token_lists = [["the", "cat", "sat"], ["on", "the", "mat", "."]]
        out = encode_features(featurize_segments(_segments(token_lists), config), params).data
        for k, tokens in enumerate(token_lists):
            grams = [tuple(tokens[i:i + n]) for n in (1, 2)
                     for i in range(len(tokens) - n + 1)]
            rows = []
            for gram in grams:
                h = hashing.hash64(b"\x1f".join(t.encode() for t in gram), 5)
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


class TestPrecomputed:
    def test_round_trip(self, tmp_path):
        mats = {
            "a": SegmentMatrix(doc_id="a", rows=np.arange(6, dtype=float).reshape(3, 2)),
            "b": SegmentMatrix(doc_id="b", rows=np.ones((1, 2))),
        }
        path = tmp_path / "vectors.jsonl"
        write_precomputed(mats, path)
        loaded = load_precomputed(path)
        assert set(loaded) == {"a", "b"}
        np.testing.assert_array_equal(loaded["a"].rows, mats["a"].rows)
        assert loaded["a"].m == 3 and loaded["a"].h == 2

    def test_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text('{"h": 2}\n{"doc_id": "a", "vectors": [[1.0, 2.0], [1.0, 2.0, 3.0]]}\n')
        with pytest.raises(FormatError, match="dimension"):
            load_precomputed(path)

    def test_empty_file_empty_map(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text("")
        assert load_precomputed(path) == {}

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text('{"doc_id": "a", "vectors": [[1.0]]}\n')
        with pytest.raises(FormatError, match="declare h"):
            load_precomputed(path)

    def test_non_numeric_entry_names_line(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        path.write_text('{"h": 2}\n{"doc_id": "a", "vectors": [["x", 1]]}\n')
        with pytest.raises(FormatError, match=r"vectors\.jsonl:2: non-numeric"):
            load_precomputed(path)

    @pytest.mark.parametrize("text, line", [
        ('{"h": "x"}\n', 1),
        ('{"h": 0}\n', 1),
        ('[2]\n', 1),
        ('{"h": 2}\n[1, 2]\n', 2),
        ('{"h": 2}\n{"vectors": [[1, 2]]}\n', 2),
    ])
    def test_malformed_header_or_record_names_line(self, tmp_path, text, line):
        path = tmp_path / "vectors.jsonl"
        path.write_text(text)
        with pytest.raises(FormatError, match=rf"vectors\.jsonl:{line}: "):
            load_precomputed(path)

    @pytest.mark.parametrize("bad", ["null", "true", "1.0", "[1]", '{"a": 2}'])
    def test_doc_id_neither_string_nor_integer_names_line(self, tmp_path, bad):
        path = tmp_path / "vectors.jsonl"
        path.write_text('{"h": 1}\n{"doc_id": 3, "vectors": [[1]]}\n')
        assert list(load_precomputed(path)) == ["3"]
        path.write_text(f'{{"h": 1}}\n{{"doc_id": {bad}, "vectors": [[1]]}}\n')
        with pytest.raises(FormatError, match=r"vectors\.jsonl:2: 'doc_id' must be a string"):
            load_precomputed(path)


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

    def test_positions_break_equivariance_and_cap_length(self):
        rng = np.random.default_rng(7)
        config, params = _interaction(num_layers=1, dim=8, n_heads=2,
                                      max_positions=4, init_seed=3)
        rows = rng.normal(size=(3, 8))
        out = interact_tensor(ad.Tensor(rows), params, config, _whole(rows)).data
        swapped = rows[[1, 0, 2]]
        out_swapped = interact_tensor(ad.Tensor(swapped), params, config, _whole(rows)).data
        assert not np.allclose(out_swapped, out[[1, 0, 2]], atol=1e-6)
        with pytest.raises(ConfigError, match="positional"):
            interact_tensor(ad.Tensor(rng.normal(size=(5, 8))), params, config,
                            np.array([0, 5]))

    def test_dim_mismatch_rejected(self):
        config, params = _interaction(num_layers=1, dim=8, n_heads=2)
        with pytest.raises(ConfigError):
            interact_tensor(ad.Tensor(np.zeros((2, 4))), params, config, np.array([0, 2]))

    def test_heads_must_divide_dim(self):
        with pytest.raises(ConfigError):
            ModelConfig(labels=("a", "b"), dim=6, interaction_layers=1, n_heads=4)

    @pytest.mark.parametrize("sizes", [[5], [1, 3, 2], [2, 2, 2, 2], [6, 1, 1, 4], [1] * 9])
    def test_slabs_stack_documents_by_segment_count(self, sizes):
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        gather, slabs = encoder._slabs(offsets)
        order = sorted(range(len(sizes)), key=lambda b: sizes[b])  # stable
        rows = [r for b in order for r in range(offsets[b], offsets[b + 1])]
        if order == list(range(len(sizes))):
            assert gather is None
        else:
            assert gather.tolist() == rows
        runs = [(len(list(run)), m) for m, run in itertools.groupby(sorted(sizes))]
        assert slabs == runs

    @pytest.mark.parametrize("sizes", [[1], [3], [1, 1, 1], [2, 2, 2], [4, 1, 2, 1, 4, 3]])
    @pytest.mark.parametrize("n_heads, positions", [(1, None), (2, None), (4, None), (2, 6)])
    def test_ragged_batch_matches_each_document_alone_bit_for_bit(self, sizes, n_heads,
                                                                 positions):
        config, params = _interaction(num_layers=2, dim=8, n_heads=n_heads,
                                      max_positions=positions, init_seed=len(sizes))
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
