"""Finite-difference checks for every primitive in the tape engine."""

import itertools

import numpy as np
import pytest

from swipe import autodiff as ad
from swipe.train import grad_check


def numeric_grad(fn, arrays, index, h=1e-6):
    """Central differences of scalar fn() w.r.t. arrays[index], elementwise."""
    arr = arrays[index]
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    grad_flat = grad.reshape(-1)
    for j in range(flat.size):
        orig = flat[j]
        flat[j] = orig + h
        up = fn()
        flat[j] = orig - h
        down = fn()
        flat[j] = orig
        grad_flat[j] = (up - down) / (2 * h)
    return grad


def check_op(build, shapes, seed=0, atol=1e-6, rtol=1e-5):
    """build(tensors) -> scalar Tensor; compare backward to finite differences."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(0, 1.0, size=s) for s in shapes]
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    for t, a in zip(tensors, arrays):
        t.data = a  # share so numeric_grad perturbations are visible
    out = build(tensors)
    out.backward()
    for i in range(len(arrays)):
        fd = numeric_grad(lambda: build([ad.Tensor(a) for a in arrays]).item(), arrays, i)
        got = tensors[i].grad
        assert got is not None
        np.testing.assert_allclose(got, fd, atol=atol, rtol=rtol)


def _dot(t, weights):
    """Scalar sum of `t` times the constant `weights` (broadcast to `t`'s
    shape): `t` flattened to one row, then `linear` against the weights."""
    row = np.broadcast_to(np.asarray(weights, dtype=float), t.shape).reshape(1, -1)
    total = ad.linear(ad.reshape(t, row.shape), ad.Tensor(row), ad.Tensor(np.zeros(1)))
    return ad.reshape(total, ())


def test_dot_reduces_to_the_weighted_sum_with_its_gradient():
    rng = np.random.default_rng(11)
    weights = rng.normal(size=(3, 4))
    check_op(lambda ts: _dot(ts[0], weights), [(3, 4)])
    x = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    out = _dot(x, weights)
    assert out.shape == () and out.item() == pytest.approx(float((x.data * weights).sum()))
    out.backward()
    np.testing.assert_array_equal(x.grad, weights)


def test_add_mul_broadcasting():
    check_op(
        lambda ts: _dot(ad.mul(ad.add(ts[0], ts[1]), ts[2]), 1.0),
        [(3, 4), (4,), (3, 4)],
    )


def _times(a, s):
    """`a` times the constant `s`: a product with a tensor that needs no grad."""
    return ad.mul(a, ad.Tensor(s))


def test_sub_and_scale():
    # a - b is spelled add(a, mul(b, -1)); there is no separate sub or scale op
    check_op(
        lambda ts: _dot(_times(ad.add(ts[0], _times(ts[1], -1.0)), 2.5), 1.0),
        [(2, 3), (2, 3)],
    )


def test_linear_matches_loop_oracle():
    rng = np.random.default_rng(2)
    x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(4, 3)), rng.normal(size=4)
    out = ad.linear(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b))
    expected = np.zeros((5, 4))
    for m in range(5):
        for label in range(4):
            acc = b[label]
            for d in range(3):
                acc += x[m, d] * w[label, d]
            expected[m, label] = acc
    np.testing.assert_allclose(out.data, expected, rtol=1e-14, atol=1e-14)


def test_linear_grad_check():
    rng = np.random.default_rng(3)
    params = {name: ad.Tensor(rng.normal(size=shape), requires_grad=True)
              for name, shape in (("x", (6, 4)), ("w", (3, 4)), ("b", (3,)))}
    weights = rng.normal(size=(6, 3))

    def fn():
        out = ad.linear(params["x"], params["w"], params["b"])
        return _dot(ad.sigmoid(out), weights), None

    report = grad_check(fn, params, tolerance=1e-6)
    assert report.passed and report.n_checked == 24 + 12 + 3, report.failures[:3]


def test_linear_rows_do_not_depend_on_the_row_count():
    rng = np.random.default_rng(4)
    x, w, b = rng.normal(size=(300, 32)), rng.normal(size=(4, 32)), rng.normal(size=4)
    full = ad.linear(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b)).data
    for start, stop in ((0, 1), (7, 8), (5, 42), (100, 299), (0, 300)):
        part = ad.linear(ad.Tensor(x[start:stop]), ad.Tensor(w), ad.Tensor(b)).data
        assert part.tobytes() == full[start:stop].tobytes(), (start, stop)


def _slab_layout(sizes):
    """Row bounds of documents of `sizes` rows stacked in order, and their slabs
    (the sizes must already be grouped into runs of equal length)."""
    bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
    slabs = [(len(list(run)), m) for m, run in itertools.groupby(sizes)]
    return bounds, slabs


def _attention_alone(q, k, v, n_heads):
    """One document's attention in plain numpy, head by head."""
    head_dim = q.shape[1] // n_heads
    out = np.empty_like(q)
    for h in range(n_heads):
        cols = slice(h * head_dim, (h + 1) * head_dim)
        scores = (q[:, cols] @ k[:, cols].T) * (1.0 / np.sqrt(head_dim))
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        out[:, cols] = (e / e.sum(axis=-1, keepdims=True)) @ v[:, cols]
    return out


# 1-row documents, several of one length, mixed lengths
SLAB_SIZES = [[1], [4], [1, 1, 1], [3, 3, 3, 3], [1, 1, 2, 5, 5, 7]]


@pytest.mark.parametrize("sizes", SLAB_SIZES)
@pytest.mark.parametrize("n_heads", [1, 2, 4])
def test_slab_ops_match_each_document_alone_bit_for_bit(sizes, n_heads):
    rng = np.random.default_rng(len(sizes) + n_heads)
    bounds, slabs = _slab_layout(sizes)
    x, w = rng.normal(size=(bounds[-1], 8)), rng.normal(size=(8, 12))
    q, k, v = rng.normal(size=(3, bounds[-1], 8))
    product = ad.slab_matmul(ad.Tensor(x), ad.Tensor(w), slabs).data
    attention = ad.slab_attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), slabs, n_heads).data
    for start, stop in zip(bounds, bounds[1:]):
        rows = slice(start, stop)
        assert product[rows].tobytes() == (x[rows] @ w).tobytes(), (start, stop)
        alone = _attention_alone(q[rows], k[rows], v[rows], n_heads)
        assert attention[rows].tobytes() == alone.tobytes(), (start, stop)


def test_slab_attention_weights_sum_to_one_and_stay_finite():
    # rows of v all equal: any convex combination of them is that row
    _, slabs = _slab_layout([1, 3, 3])
    q = np.array([[1e4, 0.0]] * 7)
    k = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 0.0]] + [[2.0, 1.0]] * 3)
    v = np.tile([[0.25, -2.0]], (7, 1))
    out = ad.slab_attention(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), slabs, 1).data
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, v, rtol=1e-15)


def test_slab_ops_grad_check_on_three_documents():
    # documents of 1, 2 and 2 rows: a one-row slab and a two-document slab
    _, slabs = _slab_layout([1, 2, 2])
    rng = np.random.default_rng(9)
    params = {name: ad.Tensor(rng.normal(size=shape), requires_grad=True)
              for name, shape in (("x", (5, 4)), ("wq", (4, 4)), ("wk", (4, 4)),
                                  ("wv", (4, 4)), ("wo", (4, 3)))}
    weights = rng.normal(size=(5, 3))

    def fn():
        q, k, v = (ad.slab_matmul(params["x"], params[name], slabs) for name in ("wq", "wk", "wv"))
        out = ad.slab_matmul(ad.slab_attention(q, k, v, slabs, 2), params["wo"], slabs)
        return _dot(ad.sigmoid(out), weights), None

    report = grad_check(fn, params, tolerance=1e-6)
    assert report.passed and report.n_checked == 20 + 3 * 16 + 12, report.failures[:3]


def test_slab_ops_rows_do_not_depend_on_the_document_count():
    rng = np.random.default_rng(10)
    for m, n in ((1, 3), (1, 128), (3, 3), (7, 128)):
        x, w = rng.normal(size=(60 * m, 32)), rng.normal(size=(32, n))
        qkv = [ad.Tensor(rng.normal(size=(60 * m, 32))) for _ in range(3)]
        full = ad.slab_matmul(ad.Tensor(x), ad.Tensor(w), [(60, m)]).data
        attention = ad.slab_attention(*qkv, [(60, m)], 2).data
        for first, last in ((0, 1), (7, 8), (5, 42), (0, 60)):
            rows = slice(first * m, last * m)
            part = ad.slab_matmul(ad.Tensor(x[rows]), ad.Tensor(w), [(last - first, m)]).data
            assert part.tobytes() == full[rows].tobytes(), (m, n, first, last)
            part = ad.slab_attention(*(ad.Tensor(t.data[rows]) for t in qkv),
                                     [(last - first, m)], 2).data
            assert part.tobytes() == attention[rows].tobytes(), (m, first, last)


def test_reshape():
    check_op(lambda ts: _dot(ad.mul(ad.reshape(ts[0], (6, 2)), ts[1]), 1.0),
             [(3, 2, 2), (6, 2)])


def test_sigmoid_relu():
    check_op(lambda ts: _dot(ad.sigmoid(ts[0]), 1.0), [(4, 3)])
    # keep inputs away from the relu kink
    rng = np.random.default_rng(1)
    arr = rng.normal(0, 1, size=(4, 3))
    arr[np.abs(arr) < 0.05] = 0.5
    tensor = ad.Tensor(arr, requires_grad=True)
    tensor.data = arr
    ad.relu(tensor).backward()  # the gradient of the sum of every entry
    fd = numeric_grad(lambda: float(np.sum(np.maximum(arr, 0))), [arr], 0)
    np.testing.assert_allclose(tensor.grad, fd, atol=1e-6)


def _ragged_data(rng, n_blocks, n_cols, ties):
    """Random blocks of 1-5 rows (some of one row); `ties` draws small integers."""
    counts = rng.integers(1, 6, size=n_blocks)
    counts[0] = 1
    offsets = np.concatenate(([0], np.cumsum(counts)))
    shape = (int(offsets[-1]), n_cols)
    data = rng.integers(-2, 3, size=shape).astype(float) if ties else rng.normal(size=shape)
    return data, offsets


def _loop_max(data, offsets):
    """Brute-force per-block max and first maximizing row."""
    values = np.empty((len(offsets) - 1, data.shape[1]))
    rows = np.empty(values.shape, dtype=np.int64)
    for b in range(len(offsets) - 1):
        for j in range(data.shape[1]):
            best = offsets[b]
            for r in range(offsets[b], offsets[b + 1]):
                if data[r, j] > data[best, j]:
                    best = r
            values[b, j], rows[b, j] = data[best, j], best
    return values, rows


def test_ragged_max_matches_loop_oracle_and_routes_ties_to_first_row():
    rng = np.random.default_rng(5)
    for _ in range(50):
        data, offsets = _ragged_data(rng, int(rng.integers(1, 6)), 3, ties=True)
        x = ad.Tensor(data, requires_grad=True)
        out, argmax = ad.ragged_max(x, offsets)
        values, rows = _loop_max(data, offsets)
        np.testing.assert_array_equal(out.data, values)
        np.testing.assert_array_equal(argmax, rows)
        weights = rng.normal(size=values.shape)
        out.backward(weights)
        expected = np.zeros_like(data)
        for b in range(len(offsets) - 1):
            for j in range(data.shape[1]):
                expected[rows[b, j], j] = weights[b, j]
        np.testing.assert_array_equal(x.grad, expected)


def test_ragged_max_nan_block_reports_a_row_of_that_block():
    data = np.array([[1.0], [np.nan], [2.0], [0.0]])
    out, argmax = ad.ragged_max(ad.Tensor(data), np.array([0, 2, 4]))
    assert np.isnan(out.data[0, 0]) and out.data[1, 0] == 2.0
    assert argmax[0, 0] in (0, 1) and argmax[1, 0] == 2
    one, argmax = ad.ragged_max(ad.Tensor(data[:2]), np.array([0, 2]))
    assert np.isnan(one.data[0, 0]) and argmax[0, 0] in (0, 1)


def test_ragged_sum_matches_loop_oracle():
    rng = np.random.default_rng(6)
    for _ in range(50):
        data, offsets = _ragged_data(rng, int(rng.integers(1, 6)), 3, ties=False)
        out = ad.ragged_sum(ad.Tensor(data), offsets)
        for b in range(len(offsets) - 1):
            acc = np.zeros(3)
            for r in range(offsets[b], offsets[b + 1]):
                acc = acc + data[r]
            np.testing.assert_allclose(out.data[b], acc, rtol=1e-15, atol=1e-15)


def test_ragged_pools_give_each_block_the_bits_it_gets_alone():
    rng = np.random.default_rng(8)
    for _ in range(50):
        data, offsets = _ragged_data(rng, int(rng.integers(2, 6)), 3, ties=False)
        data = data * 10.0 ** rng.integers(-3, 4, size=data.shape)  # rounding differs by order
        sums = ad.ragged_sum(ad.Tensor(data), offsets).data
        maxes, argmax = ad.ragged_max(ad.Tensor(data), offsets)
        for b in range(len(offsets) - 1):
            block = data[offsets[b]:offsets[b + 1]]
            alone = np.array([0, len(block)])
            assert ad.ragged_sum(ad.Tensor(block), alone).data[0].tobytes() == sums[b].tobytes()
            one, one_argmax = ad.ragged_max(ad.Tensor(block), alone)
            np.testing.assert_array_equal(one.data[0], maxes.data[b])
            np.testing.assert_array_equal(one_argmax[0] + offsets[b], argmax[b])


@pytest.mark.parametrize("blocks", [1, 4])
@pytest.mark.parametrize("op", ["max", "sum"])
def test_ragged_pooling_grad_check(op, blocks):
    rng = np.random.default_rng(7)
    data, offsets = _ragged_data(rng, blocks, 3, ties=False)
    if blocks == 1:
        data, offsets = rng.normal(size=(5, 3)), np.array([0, 5])
    x = ad.Tensor(data, requires_grad=True)
    weights = rng.normal(size=(blocks, 3))

    def fn():
        if op == "max":
            pooled, argmax = ad.ragged_max(x, offsets)
            signature = tuple(argmax.ravel().tolist())
        else:
            pooled, signature = ad.ragged_sum(x, offsets), None
        return _dot(ad.sigmoid(pooled), weights), signature

    report = grad_check(fn, {"x": x}, tolerance=1e-6)
    assert report.passed and report.n_checked == data.size, report.failures[:3]


@pytest.mark.parametrize("offsets", [[0, 2, 2, 4], [0, 3], [1, 4], [0, 2, 5]])
def test_ragged_offsets_must_split_every_row_into_non_empty_blocks(offsets):
    x = ad.Tensor(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="ragged offsets"):
        ad.ragged_sum(x, np.array(offsets))
    with pytest.raises(ValueError, match="ragged offsets"):
        ad.ragged_max(x, np.array(offsets))


def test_take_rows_accumulates_duplicates():
    table = ad.Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
    ad.take_rows(table, np.array([1, 1, 3])).backward()
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_array_equal(table.grad, expected)


def test_embedding_bag_mean_forward_and_grad():
    rng = np.random.default_rng(0)
    table_data = rng.normal(0, 1, size=(6, 4))
    ids = np.array([0, 2, 2, 5, 1])
    offsets = np.array([0, 3, 5])

    table = ad.Tensor(table_data, requires_grad=True)
    table.data = table_data
    out = ad.embedding_bag_mean(table, ids, offsets)
    np.testing.assert_allclose(out.data[0], table_data[[0, 2, 2]].mean(axis=0))
    np.testing.assert_allclose(out.data[1], table_data[[5, 1]].mean(axis=0))

    weights = rng.normal(0, 1, size=(2, 4))
    ad.embedding_bag_mean(table, ids, offsets).backward(weights)
    assert isinstance(table.grad, ad.RowSparse)
    assert table.grad.rows.tolist() == [0, 1, 2, 5]  # each touched row once, sorted
    fd = numeric_grad(
        lambda: float(
            (np.ascontiguousarray(
                np.stack([table_data[[0, 2, 2]].mean(0), table_data[[5, 1]].mean(0)])
            ) * weights).sum()
        ),
        [table_data],
        0,
    )
    np.testing.assert_allclose(ad.dense(table.grad), fd, atol=1e-6)


def test_embedding_bag_row_sparse_grad_matches_dense_loop():
    rng = np.random.default_rng(1)
    table = ad.Tensor(rng.normal(size=(50, 3)), requires_grad=True)
    ids = rng.integers(0, 50, size=40)
    offsets = np.array([0, 1, 9, 25, 40])
    g = rng.normal(size=(4, 3))
    ad.embedding_bag_mean(table, ids, offsets).backward(g)
    expected = np.zeros((50, 3))
    for b in range(4):
        for i in ids[offsets[b]:offsets[b + 1]]:
            expected[i] += g[b] / (offsets[b + 1] - offsets[b])
    np.testing.assert_array_equal(table.grad.rows, np.unique(ids))
    # summed in another order than the loop: equal up to a few ulps
    np.testing.assert_allclose(ad.dense(table.grad), expected, rtol=1e-14, atol=1e-16)


def test_row_sparse_grads_accumulate_densely():
    table = ad.Tensor(np.ones((5, 2)), requires_grad=True)
    twice = ad.add(ad.embedding_bag_mean(table, np.array([1]), np.array([0, 1])),
                   ad.embedding_bag_mean(table, np.array([1, 3]), np.array([0, 2])))
    twice.backward()
    expected = np.zeros((5, 2))
    expected[1], expected[3] = 1.5, 0.5
    np.testing.assert_array_equal(table.grad, expected)


def test_embedding_bag_empty_bag_rejected():
    table = ad.Tensor(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        ad.embedding_bag_mean(table, np.array([0]), np.array([0, 0, 1]))


def test_layer_norm_grad_all_inputs():
    check_op(
        lambda ts: _dot(ad.mul(ad.layer_norm(ts[0], ts[1], ts[2]), ts[3]), 1.0),
        [(3, 6), (6,), (6,), (3, 6)],
    )


def test_layer_norm_normalizes():
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.normal(3, 5, size=(4, 8)))
    out = ad.layer_norm(x, ad.Tensor(np.ones(8)), ad.Tensor(np.zeros(8)))
    np.testing.assert_allclose(out.data.mean(axis=-1), 0, atol=1e-9)
    np.testing.assert_allclose(out.data.std(axis=-1), 1, atol=1e-3)


def _loop_mean(rows_loss, x, gold):
    """Mean of `rows_loss` over batches of one row of `x` and its `gold` entry."""
    return sum(rows_loss(ad.Tensor(x[i:i + 1]), gold[i:i + 1]).item()
               for i in range(len(x))) / len(x)


def test_softmax_cross_entropy_batch_is_mean_of_rows():
    rng = np.random.default_rng(2)
    x, gold = rng.normal(size=(4, 3)), np.array([0, 2, 2, 1])
    batched = ad.softmax_cross_entropy(ad.Tensor(x), gold).item()
    assert batched == pytest.approx(_loop_mean(ad.softmax_cross_entropy, x, gold), rel=1e-14)
    check_op(lambda ts: ad.softmax_cross_entropy(ts[0], gold), [(4, 3)])
    with pytest.raises(ValueError):
        ad.softmax_cross_entropy(ad.Tensor(x), gold[:3])


def test_bce_batch_is_mean_of_rows():
    rng = np.random.default_rng(3)
    x, t = rng.normal(size=(4, 3)), rng.integers(0, 2, size=(4, 3)).astype(float)
    batched = ad.bce_with_logits_mean(ad.Tensor(x), t).item()
    assert batched == pytest.approx(_loop_mean(ad.bce_with_logits_mean, x, t), rel=1e-14)
    check_op(lambda ts: ad.bce_with_logits_mean(ts[0], t), [(4, 3)])


def test_softmax_cross_entropy_values_and_grad():
    loss = ad.softmax_cross_entropy(ad.Tensor([[0.0, 0.0]]), [0])
    np.testing.assert_allclose(loss.item(), np.log(2))
    check_op(lambda ts: ad.softmax_cross_entropy(ts[0], [2]), [(1, 5)])
    with pytest.raises(ValueError):
        ad.softmax_cross_entropy(ad.Tensor([[0.0, 0.0]]), [2])


@pytest.mark.parametrize("logits, gold", [
    ([0.0, 0.0], 0),          # 1-D logits are not a batch
    ([0.0, 0.0], [0]),
    ([[0.0, 0.0]], 0),        # nor is a bare gold index
    ([[[0.0, 0.0]]], [0]),
])
def test_softmax_cross_entropy_takes_only_batches(logits, gold):
    with pytest.raises(ValueError, match=r"expected \(B, L\) logits and \(B,\) gold"):
        ad.softmax_cross_entropy(ad.Tensor(logits), gold)


def test_bce_with_logits_values_and_grad():
    loss = ad.bce_with_logits_mean(ad.Tensor([0.0, 0.0]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(loss.item(), np.log(2))
    big = ad.bce_with_logits_mean(ad.Tensor([1e4]), np.array([1.0]))
    assert np.isfinite(big.item()) and big.item() < 1e-12
    check_op(
        lambda ts: ad.bce_with_logits_mean(ts[0], np.array([1.0, 0.0, 1.0])),
        [(3,)],
    )


def test_grad_accumulates_across_reuses():
    x = ad.Tensor(np.array([2.0]), requires_grad=True)
    y = ad.mul(x, x)  # x used twice
    y.backward()
    np.testing.assert_allclose(x.grad, [4.0])


def test_no_tape_without_requires_grad():
    a = ad.Tensor(np.ones((2, 2)))
    b = ad.Tensor(np.ones((2, 2)))
    out = ad.mul(a, b)
    assert out._backward is None and not out.requires_grad


def test_diamond_graph_topological_order():
    # f = (x*y) + (x+y); both branches feed one node; gradients must not double-count
    x = ad.Tensor(np.array([3.0]), requires_grad=True)
    y = ad.Tensor(np.array([5.0]), requires_grad=True)
    f = ad.add(ad.mul(x, y), ad.add(x, y))
    f.backward()
    np.testing.assert_allclose(x.grad, [6.0])  # y + 1
    np.testing.assert_allclose(y.grad, [4.0])  # x + 1
