"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery for this package: float64 tensors, a tape built by the
op functions below, and `Tensor.backward()` running the tape in reverse
topological order. Ops are free functions; each returns a new `Tensor` whose
`_backward` closure maps the output gradient to parent gradients.

Conventions:

* everything is float64; integer index arrays ride along as plain numpy
* gradients accumulate into `Tensor.grad` (None until first touched), and
  only into tensors that require grad; a gradient may share memory with
  another tensor's, so no code updates one in place
* the embedding bag's table gradient is row-sparse: a `RowSparse` holding
  the summed gradient of each touched row, so a training step never builds
  a dense table-sized gradient (`dense` expands one where a caller needs it)
* ragged batches: documents' rows are stacked and `offsets` (B+1
  boundaries) say which rows belong to which document; `ragged_max` and
  `ragged_sum` pool per document, and both losses take (B, L) logits, one
  row per document, and return the batch mean
* ops skip tape construction when no input requires grad, so a forward
  over grad-free tensors of the parameters (`SwipeModel.tensors()`, used by
  inference and dev scoring) records no tape, and an activation is freed as
  soon as nothing refers to it; a training step's forward runs on tensors
  that require grad, made for that one pass
* forward values do not depend on how many rows share a call: `linear`
  reduces with einsum's own loops, not BLAS (whose rounding of a row varies
  with the row count; a one-row product even takes another BLAS routine);
  `slab_matmul` and `slab_attention` take documents of equal length as one
  stacked product per slab, so each document gets the BLAS calls, shapes
  and last-axis reductions it gets alone; `ragged_sum` and `ragged_max`
  reduce with `reduceat` for one block or many. A document scores the same
  bits alone (a batch of one) or inside any batch
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
        self._accumulate(np.array(grad, dtype=np.float64))
        for node in reversed(order):
            if node._backward is None or node.grad is None:
                continue
            for parent, parent_grad in node._backward(node.grad):
                if parent.requires_grad:
                    parent._accumulate(parent_grad)

    def _accumulate(self, grad) -> None:
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = dense(self.grad) + dense(grad)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class RowSparse:
    """Gradient of a 2-D table that is zero outside `rows`.

    `rows` is sorted and unique; `values[i]` is the gradient of row `rows[i]`.
    """

    __slots__ = ("rows", "values", "shape")

    def __init__(self, rows: np.ndarray, values: np.ndarray, shape: tuple[int, int]):
        self.rows = rows
        self.values = values
        self.shape = shape

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows] = self.values
        return out


def dense(grad):
    """`grad` as a plain array (a `RowSparse` expanded; anything else as is)."""
    return grad.to_dense() if isinstance(grad, RowSparse) else grad


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
        return tuple((t, _unbroadcast(g, t.data.shape)) for t in (a, b) if t.requires_grad)

    return _make(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def backward(g):
        return (
            (a, _unbroadcast(g * b.data, a.data.shape)),
            (b, _unbroadcast(g * a.data, b.data.shape)),
        )

    return _make(a.data * b.data, (a, b), backward)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map `x @ w.T + b` of (M, D) rows by an (L, D) weight and (L,) bias.

    Each output row is computed from its input row alone, with the same
    rounding whatever M is (see the module docstring).
    """

    def backward(g):
        return ((x, g @ w.data), (w, g.T @ x.data), (b, g.sum(axis=0)))

    return _make(np.einsum("md,ld->ml", x.data, w.data) + b.data, (x, w, b), backward)


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


def _blocks(offsets: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(first row, row count) of each block; every block must be non-empty."""
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = offsets[1:] - offsets[:-1]
    if offsets[0] != 0 or offsets[-1] != n_rows or counts.min() <= 0:
        raise ValueError(f"ragged offsets {offsets.tolist()} do not split {n_rows} rows "
                         "into non-empty blocks")
    return offsets[:-1], counts


def ragged_max(a: Tensor, offsets: np.ndarray) -> tuple[Tensor, np.ndarray]:
    """Column-wise max over each block of rows of a 2-D tensor; block b spans
    rows offsets[b]:offsets[b+1].

    Returns the (B, columns) maxima and, per block and column, the row of the
    first (lowest-index) maximizer, which is where the whole subgradient
    flows. A block whose maximum is NaN reports a row of that block.
    """
    n = a.data.shape[0]
    starts, counts = _blocks(offsets, n)
    values = np.maximum.reduceat(a.data, starts, axis=0)
    # rows below their block's maximum are pushed past every real row index
    rows = np.where(a.data < values.repeat(counts, axis=0), n, np.arange(n)[:, None])
    argmax = np.minimum.reduceat(rows, starts, axis=0)

    def backward(g):
        grad = np.zeros_like(a.data)
        np.put_along_axis(grad, argmax, g, axis=0)
        return ((a, grad),)

    return _make(values, (a,), backward), argmax


def ragged_sum(a: Tensor, offsets: np.ndarray) -> Tensor:
    """Sum over each block of rows; block b spans rows offsets[b]:offsets[b+1]."""
    starts, counts = _blocks(offsets, a.data.shape[0])
    values = np.add.reduceat(a.data, starts, axis=0)

    def backward(g):
        return ((a, np.repeat(g, counts, axis=0)),)

    return _make(values, (a,), backward)


def take_rows(a: Tensor, indices: np.ndarray) -> Tensor:
    indices = np.asarray(indices, dtype=np.int64)

    def backward(g):
        grad = np.zeros_like(a.data)
        np.add.at(grad, indices, g)
        return ((a, grad),)

    return _make(a.data[indices], (a,), backward)


def _slab_rows(slabs) -> list[tuple[slice, int, int]]:
    """(rows, documents, rows per document) of each slab, slabs stacked in order."""
    out, start = [], 0
    for n_docs, m in slabs:
        out.append((slice(start, start + n_docs * m), n_docs, m))
        start += n_docs * m
    return out


def slab_matmul(x: Tensor, w: Tensor, slabs) -> Tensor:
    """Row product `x @ w` of (M, D) rows by a (D, N) weight, taken slab by slab.

    `slabs` lists (documents, rows per document) of consecutive row groups
    that cover `x`; a slab of G documents of m rows is one stacked
    (G, m, D) @ (D, N) product, so each document's rows get the same BLAS
    call as the document alone (see the module docstring).
    """
    out = np.empty((x.data.shape[0], w.data.shape[1]))
    for rows, n_docs, m in _slab_rows(slabs):
        np.matmul(x.data[rows].reshape(n_docs, m, -1), w.data,
                  out=out[rows].reshape(n_docs, m, -1))

    def backward(g):
        return ((x, g @ w.data.T), (w, x.data.T @ g))

    return _make(out, (x, w), backward)


def slab_attention(q: Tensor, k: Tensor, v: Tensor, slabs, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention within each document.

    `q`, `k` and `v` are (M, D) rows laid out as `slab_matmul`'s `slabs`
    say; each row attends over the rows of its own document only. A slab of
    G documents of m rows is a stacked (G, heads, m, m) score matrix and
    softmax, so no score between two documents is ever computed. Returns the
    (M, D) attention output, heads concatenated per row.
    """
    dim = q.data.shape[1]
    head_dim = dim // n_heads
    scale = 1.0 / np.sqrt(head_dim)
    slab_rows = _slab_rows(slabs)

    def split(a: np.ndarray, slab) -> np.ndarray:  # (G, heads, m, head_dim) view
        rows, n_docs, m = slab
        return a[rows].reshape(n_docs, m, n_heads, head_dim).transpose(0, 2, 1, 3)

    def merge(out: np.ndarray, slab, heads: np.ndarray) -> None:
        out[slab[0]] = heads.transpose(0, 2, 1, 3).reshape(-1, dim)

    out, probs = np.empty_like(q.data), []
    for slab in slab_rows:
        scores = (split(q.data, slab) @ split(k.data, slab).swapaxes(-1, -2)) * scale
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs.append(e / e.sum(axis=-1, keepdims=True))
        merge(out, slab, probs[-1] @ split(v.data, slab))

    def backward(g):
        dq, dk, dv = np.empty_like(q.data), np.empty_like(k.data), np.empty_like(v.data)
        for slab, p in zip(slab_rows, probs):
            qs, ks, vs, gs = (split(a, slab) for a in (q.data, k.data, v.data, g))
            dp = gs @ vs.swapaxes(-1, -2)
            ds = (dp - (dp * p).sum(axis=-1, keepdims=True)) * p * scale
            merge(dq, slab, ds @ ks)
            merge(dk, slab, ds.swapaxes(-1, -2) @ qs)
            merge(dv, slab, p.swapaxes(-1, -2) @ gs)
        return ((q, dq), (k, dk), (v, dv))

    return _make(out, (q, k, v), backward)


def embedding_bag_mean(table: Tensor, ids: np.ndarray, offsets: np.ndarray) -> Tensor:
    """Mean of table rows per bag; bag b spans ids[offsets[b]:offsets[b+1]].

    Every bag must be non-empty and every id a row of the table, in
    [0, rows). This is the whole hashed-n-gram encoder forward: one output
    row per segment. The table's gradient is a `RowSparse` over the ids it
    saw: each touched row sums its occurrences' rows in occurrence order.

    The backward sorts the ids stably in the narrowest unsigned dtype that
    holds every row index, which numpy sorts by radix up to 65,536 rows, and
    sums each id's occurrences along the last axis of one contiguous
    (dim, occurrences) block; `reduceat` adds a segment's elements one by
    one along either axis, so the sums are those of a row-wise reduction.
    """
    ids = np.asarray(ids, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = offsets[1:] - offsets[:-1]
    if (counts <= 0).any():
        raise ValueError("embedding_bag_mean: empty bag")
    gathered = table.data[ids]
    sums = np.add.reduceat(gathered, offsets[:-1], axis=0)
    out = sums / counts[:, None]

    def backward(g):
        sort_type = np.min_scalar_type(max(table.data.shape[0] - 1, 0))
        order = np.argsort(ids.astype(sort_type), kind="stable")
        sorted_ids = ids[order]
        first = np.flatnonzero(np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1])))
        bags = np.repeat(np.arange(len(counts)), counts)[order]
        per_id = np.take((g / counts[:, None]).T, bags, axis=1)  # (dim, occurrences)
        # back to (touched rows, dim) in C order, which Adam's row scatter reads fastest
        values = np.ascontiguousarray(np.add.reduceat(per_id, first, axis=1).T)
        return ((table, RowSparse(sorted_ids[first], values, table.data.shape)),)

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


def softmax_cross_entropy(logits: Tensor, gold) -> Tensor:
    """Mean over documents of the stable softmax cross-entropy vs the gold index.

    `logits` holds one row per document, (B, L), and `gold` one index per
    document, (B,).
    """
    x = logits.data
    gold = np.asarray(gold, dtype=np.int64)
    if x.ndim != 2 or gold.shape != (x.shape[0],):
        raise ValueError(f"expected (B, L) logits and (B,) gold, got {x.shape} and {gold.shape}")
    if np.any((gold < 0) | (gold >= x.shape[1])):
        raise ValueError(f"gold index {gold.tolist()} out of range for {x.shape[1]} labels")
    docs = np.arange(x.shape[0])
    m = x.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(x - m).sum(axis=1, keepdims=True))
    loss = (lse[:, 0] - x[docs, gold]).mean()

    def backward(g):
        p = np.exp(x - lse)
        p[docs, gold] -= 1.0
        return ((logits, g / x.shape[0] * p),)

    return _make(loss, (logits,), backward)


def bce_with_logits_mean(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean over documents and labels of binary cross-entropy between
    sigmoid(logit) and target; `targets` has the shape of `logits`."""
    x = logits.data
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != x.shape:
        raise ValueError(f"targets shape {t.shape} != logits shape {x.shape}")
    per_label = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    loss = per_label.mean()

    def backward(g):
        return ((logits, g * (_stable_sigmoid(x) - t) / x.size),)

    return _make(loss, (logits,), backward)
