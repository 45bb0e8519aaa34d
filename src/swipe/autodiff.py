"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery for this package: float64 tensors, a tape built by the
op functions below, and `Tensor.backward()` running the tape in reverse
topological order. Ops are free functions; each returns a new `Tensor` whose
`_backward` closure maps the output gradient to parent gradients.

Conventions:

* everything is float64; integer index arrays ride along as plain numpy
* gradients accumulate into `Tensor.grad` (None until first touched)
* ops skip tape construction when no input requires grad; the model's
  parameters always require grad, so `SwipeModel.forward` builds a tape even
  at prediction time
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad=None) -> None:
        """Accumulate gradients of `self` into every upstream tensor."""
        if grad is None:
            grad = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            for parent, parent_grad in node._backward(node.grad):
                parent._accumulate(parent_grad)

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64)
        else:
            self.grad = self.grad + grad

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ez = np.exp(x[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        return ((a, _unbroadcast(g, a.data.shape)), (b, _unbroadcast(g, b.data.shape)))

    return _make(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        return (
            (a, _unbroadcast(g * b.data, a.data.shape)),
            (b, _unbroadcast(g * a.data, b.data.shape)),
        )

    return _make(a.data * b.data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    def backward(g):
        return ((a, g * s),)

    return _make(a.data * s, (a,), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; operands must be 2-D, or stacked with equal batch dims."""
    if a.data.ndim != b.data.ndim or (
        a.data.ndim > 2 and a.data.shape[:-2] != b.data.shape[:-2]
    ):
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")

    def backward(g):
        return (
            (a, g @ np.swapaxes(b.data, -1, -2)),
            (b, np.swapaxes(a.data, -1, -2) @ g),
        )

    return _make(a.data @ b.data, (a, b), backward)


def transpose(a: Tensor, axes=None) -> Tensor:
    axes = tuple(axes) if axes is not None else tuple(reversed(range(a.data.ndim)))
    inverse = tuple(np.argsort(axes))

    def backward(g):
        return ((a, g.transpose(inverse)),)

    return _make(a.data.transpose(axes), (a,), backward)


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        return ((a, g.reshape(a.data.shape)),)

    return _make(a.data.reshape(shape), (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    out = _stable_sigmoid(a.data)

    def backward(g):
        return ((a, g * out * (1.0 - out)),)

    return _make(out, (a,), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        return ((a, g * mask),)

    return _make(a.data * mask, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((a, (g - inner) * out),)

    return _make(out, (a,), backward)


def sum_along(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def backward(g):
        if axis is None:
            return ((a, np.broadcast_to(g, a.data.shape).copy()),)
        g_exp = g if keepdims else np.expand_dims(g, axis)
        return ((a, np.broadcast_to(g_exp, a.data.shape).copy()),)

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def max_along(a: Tensor, axis: int) -> tuple[Tensor, np.ndarray]:
    """Max over one axis; also returns the argmax indices.

    Ties: numpy argmax picks the first (lowest-index) maximizer, which is
    where the whole subgradient flows.
    """
    indices = a.data.argmax(axis=axis)
    values = np.take_along_axis(a.data, np.expand_dims(indices, axis), axis=axis).squeeze(axis)

    def backward(g):
        grad = np.zeros_like(a.data)
        np.put_along_axis(grad, np.expand_dims(indices, axis), np.expand_dims(g, axis), axis=axis)
        return ((a, grad),)

    return _make(values, (a,), backward), indices


def take_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    indices = np.asarray(indices, dtype=np.int64)

    def backward(g):
        grad = np.zeros_like(a.data)
        np.add.at(grad, indices, g)
        return ((a, grad),)

    return _make(a.data[indices], (a,), backward)


def embedding_bag_mean(table: Tensor, ids: np.ndarray, offsets: np.ndarray) -> Tensor:
    """Mean of table rows per bag; bag b spans ids[offsets[b]:offsets[b+1]].

    Every bag must be non-empty. This is the whole hashed-n-gram encoder
    forward: one output row per segment.
    """
    ids = np.asarray(ids, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = np.diff(offsets)
    if np.any(counts <= 0):
        raise ValueError("embedding_bag_mean: empty bag")
    gathered = table.data[ids]
    sums = np.add.reduceat(gathered, offsets[:-1], axis=0)
    out = sums / counts[:, None]

    def backward(g):
        per_row = np.repeat(g / counts[:, None], counts, axis=0)
        grad = np.zeros_like(table.data)
        np.add.at(grad, ids, per_row)
        return ((table, grad),)

    return _make(out, (table,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std
    out = gain.data * x_hat + bias.data

    def backward(g):
        h = x.data.shape[-1]
        d_hat = g * gain.data
        dx = inv_std * (
            d_hat
            - d_hat.mean(axis=-1, keepdims=True)
            - x_hat * (d_hat * x_hat).mean(axis=-1, keepdims=True)
        )
        reduce_axes = tuple(range(x.data.ndim - 1))
        return (
            (x, dx),
            (gain, (g * x_hat).sum(axis=reduce_axes)),
            (bias, g.sum(axis=reduce_axes)),
        )

    return _make(out, (x, gain, bias), backward)


def softmax_cross_entropy(logits: Tensor, gold: int) -> Tensor:
    """Stable softmax cross-entropy of a 1-D logit vector vs a gold index."""
    x = logits.data
    if not 0 <= gold < x.shape[0]:
        raise ValueError(f"gold index {gold} out of range for {x.shape[0]} labels")
    m = x.max()
    lse = m + np.log(np.exp(x - m).sum())
    loss = lse - x[gold]

    def backward(g):
        p = np.exp(x - lse)
        p[gold] -= 1.0
        return ((logits, g * p),)

    return _make(loss, (logits,), backward)


def bce_with_logits_mean(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over labels of binary cross-entropy between sigmoid(logit) and target."""
    x = logits.data
    t = np.asarray(targets, dtype=np.float64)
    per_label = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    loss = per_label.mean()

    def backward(g):
        return ((logits, g * (_stable_sigmoid(x) - t) / x.shape[0]),)

    return _make(loss, (logits,), backward)


def add_n(tensors: list[Tensor]) -> Tensor:
    """Sum of same-shaped tensors as a single tape node."""
    def backward(g):
        return tuple((t, g) for t in tensors)

    return _make(sum(t.data for t in tensors), tuple(tensors), backward)
