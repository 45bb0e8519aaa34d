"""Finite-difference checks for every primitive in the tape engine."""

import numpy as np
import pytest

from swipe import autodiff as ad


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


def test_add_mul_broadcasting():
    check_op(
        lambda ts: ad.sum_along(ad.mul(ad.add(ts[0], ts[1]), ts[2])),
        [(3, 4), (4,), (3, 4)],
    )


def test_sub_and_scale():
    # a - b is spelled add(a, scale(b, -1)); there is no separate sub op
    check_op(
        lambda ts: ad.sum_along(ad.scale(ad.add(ts[0], ad.scale(ts[1], -1.0)), 2.5)),
        [(2, 3), (2, 3)],
    )


def test_matmul_2d():
    check_op(
        lambda ts: ad.sum_along(ad.matmul(ts[0], ts[1])),
        [(3, 4), (4, 2)],
    )


def test_matmul_batched():
    check_op(
        lambda ts: ad.sum_along(ad.matmul(ts[0], ts[1])),
        [(2, 3, 4), (2, 4, 3)],
    )


def test_matmul_shape_mismatch():
    a = ad.Tensor(np.zeros((2, 3, 4)))
    b = ad.Tensor(np.zeros((3, 4, 4)))
    with pytest.raises(ValueError):
        ad.matmul(a, b)


def test_transpose_reshape():
    check_op(
        lambda ts: ad.sum_along(
            ad.mul(ad.reshape(ad.transpose(ts[0], (1, 0, 2)), (6, 2)), ts[1])
        ),
        [(3, 2, 2), (6, 2)],
    )


def test_sigmoid_relu():
    check_op(lambda ts: ad.sum_along(ad.sigmoid(ts[0])), [(4, 3)])
    # keep inputs away from the relu kink
    rng = np.random.default_rng(1)
    arr = rng.normal(0, 1, size=(4, 3))
    arr[np.abs(arr) < 0.05] = 0.5
    tensor = ad.Tensor(arr, requires_grad=True)
    tensor.data = arr
    out = ad.sum_along(ad.relu(tensor))
    out.backward()
    fd = numeric_grad(lambda: float(np.sum(np.maximum(arr, 0))), [arr], 0)
    np.testing.assert_allclose(tensor.grad, fd, atol=1e-6)


def test_softmax_rows_sum_to_one_and_grad():
    check_op(
        lambda ts: ad.sum_along(ad.mul(ad.softmax(ts[0], axis=-1), ts[1])),
        [(3, 5), (3, 5)],
    )
    s = ad.softmax(ad.Tensor(np.array([[1e4, 0.0, -1e4]])), axis=-1)
    assert np.all(np.isfinite(s.data))
    np.testing.assert_allclose(s.data.sum(axis=-1), 1.0)


def test_sum_mean_axes():
    # a mean is spelled scale(sum_along(...), 1 / count)
    check_op(lambda ts: ad.sum_along(ad.scale(ad.sum_along(ts[0], axis=0), 1 / 3)), [(3, 4)])
    check_op(
        lambda ts: ad.scale(ad.sum_along(ad.sum_along(ts[0], axis=1, keepdims=True)), 1 / 3),
        [(3, 4)],
    )


def test_max_along_routes_gradient_to_first_argmax():
    data = np.array([[1.0, 3.0, 3.0], [2.0, 1.0, 0.0]])
    x = ad.Tensor(data, requires_grad=True)
    out, argmax = ad.max_along(x, axis=1)
    assert list(argmax) == [1, 0]  # tie at row 0 resolves to the lowest index
    out.backward(np.array([1.0, 1.0]))
    expected = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    np.testing.assert_array_equal(x.grad, expected)


def test_max_along_gradient_matches_fd_away_from_ties():
    rng = np.random.default_rng(3)
    arr = rng.normal(0, 2, size=(4, 5))
    check_shapes = [arr.shape]

    def build(ts):
        out, _ = ad.max_along(ts[0], axis=1)
        return ad.sum_along(out)

    tensors = [ad.Tensor(arr, requires_grad=True)]
    tensors[0].data = arr
    build(tensors).backward()
    fd = numeric_grad(lambda: build([ad.Tensor(arr)]).item(), [arr], 0)
    np.testing.assert_allclose(tensors[0].grad, fd, atol=1e-6)
    assert check_shapes  # silence linters


def test_take_rows_accumulates_duplicates():
    table = ad.Tensor(np.arange(12, dtype=float).reshape(4, 3), requires_grad=True)
    out = ad.take_rows(table, np.array([1, 1, 3]))
    ad.sum_along(out).backward()
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
    loss = ad.sum_along(ad.mul(ad.embedding_bag_mean(table, ids, offsets), ad.Tensor(weights)))
    loss.backward()
    fd = numeric_grad(
        lambda: float(
            (np.ascontiguousarray(
                np.stack([table_data[[0, 2, 2]].mean(0), table_data[[5, 1]].mean(0)])
            ) * weights).sum()
        ),
        [table_data],
        0,
    )
    np.testing.assert_allclose(table.grad, fd, atol=1e-6)


def test_embedding_bag_empty_bag_rejected():
    table = ad.Tensor(np.zeros((3, 2)))
    with pytest.raises(ValueError):
        ad.embedding_bag_mean(table, np.array([0]), np.array([0, 0, 1]))


def test_layer_norm_grad_all_inputs():
    check_op(
        lambda ts: ad.sum_along(ad.mul(ad.layer_norm(ts[0], ts[1], ts[2]), ts[3])),
        [(3, 6), (6,), (6,), (3, 6)],
    )


def test_layer_norm_normalizes():
    rng = np.random.default_rng(0)
    x = ad.Tensor(rng.normal(3, 5, size=(4, 8)))
    out = ad.layer_norm(x, ad.Tensor(np.ones(8)), ad.Tensor(np.zeros(8)))
    np.testing.assert_allclose(out.data.mean(axis=-1), 0, atol=1e-9)
    np.testing.assert_allclose(out.data.std(axis=-1), 1, atol=1e-3)


def test_softmax_cross_entropy_values_and_grad():
    loss = ad.softmax_cross_entropy(ad.Tensor([0.0, 0.0]), 0)
    np.testing.assert_allclose(loss.item(), np.log(2))
    check_op(lambda ts: ad.softmax_cross_entropy(ts[0], 2), [(5,)])
    with pytest.raises(ValueError):
        ad.softmax_cross_entropy(ad.Tensor([0.0, 0.0]), 2)


def test_bce_with_logits_values_and_grad():
    loss = ad.bce_with_logits_mean(ad.Tensor([0.0, 0.0]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(loss.item(), np.log(2))
    big = ad.bce_with_logits_mean(ad.Tensor([1e4]), np.array([1.0]))
    assert np.isfinite(big.item()) and big.item() < 1e-12
    check_op(
        lambda ts: ad.bce_with_logits_mean(ts[0], np.array([1.0, 0.0, 1.0])),
        [(3,)],
    )


def test_add_n():
    check_op(
        lambda ts: ad.sum_along(ad.add_n([ts[0], ts[1], ts[0]])),
        [(2, 2), (2, 2)],
    )


def test_grad_accumulates_across_reuses():
    x = ad.Tensor(np.array([2.0]), requires_grad=True)
    y = ad.mul(x, x)  # x used twice
    y.backward()
    np.testing.assert_allclose(x.grad, [4.0])


def test_no_tape_without_requires_grad():
    a = ad.Tensor(np.ones((2, 2)))
    b = ad.Tensor(np.ones((2, 2)))
    out = ad.matmul(a, b)
    assert out._backward is None and not out.requires_grad


def test_diamond_graph_topological_order():
    # f = (x*y) + (x+y); both branches feed one node; gradients must not double-count
    x = ad.Tensor(np.array([3.0]), requires_grad=True)
    y = ad.Tensor(np.array([5.0]), requires_grad=True)
    f = ad.add(ad.mul(x, y), ad.add(x, y))
    f.backward()
    np.testing.assert_allclose(x.grad, [6.0])  # y + 1
    np.testing.assert_allclose(y.grad, [4.0])  # x + 1
