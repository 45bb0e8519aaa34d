"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery for this package: float tensors, a tape built by the
op functions below, and `Tensor.backward()` running the tape in reverse
topological order. Ops are free functions; each returns a new `Tensor` whose
`_backward` closure maps the output gradient to parent gradients.

Conventions:

* dtype-generic: a tensor keeps the float dtype it is given (float32 for a
  model's parameters and passes, float64 for the gradient check's copy), and
  every op computes its output, temporaries and gradients in its inputs'
  dtype; a scalar factor is a Python float, which under NEP 50 does not
  widen a float32 array as a numpy float64 would. Integer index arrays
  ride along as plain numpy, and counts are cast to the rows' dtype before
  they divide them
* gradients accumulate into `Tensor.grad` (None until first touched), and
  only into tensors that require grad; a gradient may share memory with
  another tensor's, so no code updates one in place
* the bag ops' table gradient is row-sparse: a `RowSparse` holding the
  summed gradient of each touched row, so a training step never builds a
  dense table-sized gradient (`dense` expands one where a caller needs it)
* ragged batches: documents' rows are stacked and `offsets` (B+1
  boundaries) say which rows belong to which document; `ragged_max` and
  `ragged_sum` pool per document and `doc_matmul` and `doc_attention` run
  one document at a time, each checking that the offsets cover its rows
  (`_doc_rows`); both losses take (B, L) logits, one row per document, and
  return the batch mean
* ops skip tape construction when no input requires grad, so a forward
  over grad-free tensors of the parameters (`SwipeModel.tensors()`, used by
  inference and dev scoring) records no tape, and an activation is freed as
  soon as nothing refers to it; a training step's forward runs on tensors
  that require grad, made for that one pass
* forward values do not depend on how many rows share a call:
  `project_rows` reduces with einsum's own loops, not BLAS (whose rounding
  of a row varies with the row count; a one-row product even takes another
  BLAS routine);
  `doc_matmul` and `doc_attention` give each document the 2-D BLAS calls,
  shapes and last-axis reductions it gets alone; `bag_means`, `ragged_sum` and
  `ragged_max` reduce with `reduceat` for one block or many. A document
  scores the same bits alone (a batch of one) or inside any batch. A flat
  hashed model scores a tape-free pass by `bag_means` over its label table
  (`SwipeModel.label_table`, the whole embedding table projected by
  `project_rows`) and a taped one by `label_bag_means`, which projects only
  the touched rows by `project_rows` and then takes the same `bag_means`, so
  the two agree bit for bit
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np


#: Most bytes of rows `_gather_sums` gathers at once (a group larger than
#: this is gathered whole).
GATHER_BYTES = 256 << 10


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
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
        self._accumulate(np.array(grad, dtype=self.data.dtype))
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
        out = np.zeros(self.shape, self.values.dtype)
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


def project_rows(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`x @ w.T` of (N, D) rows by an (L, D) weight, by einsum's own loops:
    each output row is computed from its input row alone, with the same
    rounding whatever N is (see the module docstring). `linear`,
    `label_bag_means` and `SwipeModel.label_table` all project by it, which
    is what keeps taped and tape-free flat scores the same bits."""
    return np.einsum("nd,ld->nl", x, w)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map `x @ w.T + b` of (M, D) rows by an (L, D) weight and (L,) bias,
    projected by `project_rows`."""

    def backward(g):
        return ((x, g @ w.data), (w, g.T @ x.data), (b, g.sum(axis=0)))

    return _make(project_rows(x.data, w.data) + b.data, (x, w, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        return ((a, g.reshape(a.data.shape)),)

    return _make(a.data.reshape(shape), (a,), backward)


def concat(tensors: Sequence[Tensor]) -> Tensor:
    """The tensors stacked along axis 0 (one tensor is itself)."""
    if len(tensors) == 1:
        return tensors[0]
    cuts = np.cumsum([t.data.shape[0] for t in tensors[:-1]])

    def backward(g):
        return tuple(zip(tensors, np.split(g, cuts)))

    return _make(np.concatenate([t.data for t in tensors]), tuple(tensors), backward)


def columns(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns start:stop of a 2-D tensor (all of them are the tensor itself)."""
    if (start, stop) == (0, a.data.shape[1]):
        return a

    def backward(g):
        grad = np.zeros_like(a.data)
        grad[:, start:stop] = g
        return ((a, grad),)

    return _make(a.data[:, start:stop], (a,), backward)


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


def _doc_rows(offsets: np.ndarray, n_rows: int) -> list[slice]:
    """The rows of each block of a ragged batch of `n_rows` rows; there must
    be a block, and every block must be non-empty. The check runs on Python
    ints: a document-at-a-time op makes it on every call, and on a batch's
    few offsets numpy's reductions cost several times as much."""
    bounds = np.asarray(offsets).tolist()
    rows = list(map(slice, bounds[:-1], bounds[1:]))
    if not rows or bounds[0] != 0 or bounds[-1] != n_rows or any(r.start >= r.stop for r in rows):
        raise ValueError(f"ragged offsets {bounds} do not split {n_rows} rows "
                         "into non-empty blocks")
    return rows


def _blocks(offsets: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """(first row, row count) of each block, checked by `_doc_rows`."""
    _doc_rows(offsets, n_rows)
    offsets = np.asarray(offsets, dtype=np.int64)
    return offsets[:-1], offsets[1:] - offsets[:-1]


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


def doc_matmul(x: Tensor, w: Tensor, offsets: np.ndarray) -> Tensor:
    """Row product `x @ w` of (M, D) rows by a (D, N) weight, one document at
    a time: document b's rows offsets[b]:offsets[b+1] are one 2-D product,
    the BLAS call the document gets alone (see the module docstring).
    """
    out = np.empty((x.data.shape[0], w.data.shape[1]), np.result_type(x.data, w.data))
    for rows in _doc_rows(offsets, x.data.shape[0]):
        np.matmul(x.data[rows], w.data, out=out[rows])

    def backward(g):
        return ((x, g @ w.data.T), (w, x.data.T @ g))

    return _make(out, (x, w), backward)


def doc_attention(q: Tensor, k: Tensor, v: Tensor, offsets: np.ndarray, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention within each document.

    `q`, `k` and `v` are (M, D) rows of a ragged batch; each row attends over
    the rows of its own document only. Document b is one (heads, m, m) score
    matrix and softmax, the one it gets alone, so no score between two
    documents is ever computed. Returns the (M, D) attention output, heads
    concatenated per row.
    """
    dim = q.data.shape[1]
    head_dim = dim // n_heads
    scale = 1.0 / math.sqrt(head_dim)  # a Python float keeps float32 rows float32
    docs = _doc_rows(offsets, q.data.shape[0])

    def split(a: np.ndarray, rows: slice) -> np.ndarray:  # (heads, m, head_dim) view
        return a[rows].reshape(-1, n_heads, head_dim).transpose(1, 0, 2)

    def merge(out: np.ndarray, rows: slice, heads: np.ndarray) -> None:
        out[rows] = heads.transpose(1, 0, 2).reshape(-1, dim)

    out, probs = np.empty_like(q.data), []
    for rows in docs:
        scores = (split(q.data, rows) @ split(k.data, rows).swapaxes(-1, -2)) * scale
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs.append(e / e.sum(axis=-1, keepdims=True))
        merge(out, rows, probs[-1] @ split(v.data, rows))

    def backward(g):
        dq, dk, dv = np.empty_like(q.data), np.empty_like(k.data), np.empty_like(v.data)
        for rows, p in zip(docs, probs):
            qs, ks, vs, gs = (split(a, rows) for a in (q.data, k.data, v.data, g))
            dp = gs @ vs.swapaxes(-1, -2)
            ds = (dp - (dp * p).sum(axis=-1, keepdims=True)) * p * scale
            merge(dq, rows, ds @ ks)
            merge(dk, rows, ds.swapaxes(-1, -2) @ qs)
            merge(dv, rows, p.swapaxes(-1, -2) @ gs)
        return ((q, dq), (k, dk), (v, dv))

    return _make(out, (q, k, v), backward)


def _sort_ids(ids: np.ndarray, n_rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A stable sort of `ids`, rows of an `n_rows`-row table: (the order that
    sorts them, the rows they touch, sorted and unique, and the offsets of
    each touched row's occurrences in that order, one more than the rows).

    Sorted in the narrowest unsigned dtype that holds every row index, which
    numpy sorts by radix up to 65,536 rows."""
    order = np.argsort(ids.astype(np.min_scalar_type(max(n_rows - 1, 0))), kind="stable")
    sorted_ids = ids[order]
    first = np.flatnonzero(np.concatenate(([True], sorted_ids[1:] != sorted_ids[:-1])))
    return order, sorted_ids[first], np.append(first, len(ids))


def _gather_sums(rows: np.ndarray, index: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per group k, the sum of `rows[index[offsets[k]:offsets[k+1]]]`, each
    group non-empty: the package's one gather-and-`reduceat`. `bag_means`
    sums table rows per bag with it, and the bag ops' backwards sum each
    touched row's gradient over its occurrences.

    Groups are gathered a run of whole groups at a time, so that no more
    than `GATHER_BYTES` of rows (or one group's) exist at once. `reduceat`
    sums a group from its own rows only (sequentially up to 8 rows and
    pairwise beyond, on numpy 2.4), so the bits do not depend on where the
    runs split.
    """
    step = max(GATHER_BYTES // (rows.itemsize * rows.shape[1]), 1)  # rows per run
    sums = np.empty((len(offsets) - 1, rows.shape[1]), rows.dtype)
    start = 0
    while start < len(sums):
        # the groups that fit in `step` rows from this one, at least this one
        stop = max(int(np.searchsorted(offsets, offsets[start] + step, "right")) - 1,
                   start + 1)
        first = offsets[start]
        np.add.reduceat(np.take(rows, index[first:offsets[stop]], axis=0),
                        offsets[start:stop] - first, axis=0, out=sums[start:stop])
        start = stop
    return sums


def _touched_grad(g: np.ndarray, counts: np.ndarray, order: np.ndarray,
                  runs: np.ndarray) -> np.ndarray:
    """Each touched row's gradient, `g / count` of its bag summed over its
    occurrences in sorted order (`_sort_ids`): (touched rows, g's width)."""
    bags = np.repeat(np.arange(len(counts)), counts)[order]
    return _gather_sums(g / counts.astype(g.dtype)[:, None], bags, runs)


def embedding_bag_mean(table: Tensor, ids: np.ndarray, offsets: np.ndarray) -> Tensor:
    """Mean of table rows per bag; bag b spans ids[offsets[b]:offsets[b+1]].

    Every bag must be non-empty and every id a row of the table, in
    [0, rows). This is the hashed-n-gram encoder forward of a model with
    interaction layers: one output row per segment (`bag_means`); the
    backward never reads the gathered rows. The table's gradient is a
    `RowSparse` over the ids it saw: the ids are sorted stably
    (`_sort_ids`) and each touched row sums its occurrences' rows in
    occurrence order (`_gather_sums`).
    """
    ids = np.asarray(ids, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = offsets[1:] - offsets[:-1]
    out = bag_means(table.data, ids, offsets)

    def backward(g):
        order, rows, runs = _sort_ids(ids, table.data.shape[0])
        values = _touched_grad(g, counts, order, runs)
        return ((table, RowSparse(rows, values, table.data.shape)),)

    return _make(out, (table,), backward)


def label_bag_means(table: Tensor, weight: Tensor, ids: np.ndarray,
                    offsets: np.ndarray) -> Tensor:
    """Mean per bag of the table rows projected by `weight`: row b is the
    mean over bag b's ids of `table[id] @ weight.T`, (bags, W) for a (W, dim)
    weight; bags and ids as `embedding_bag_mean` takes them. This is a flat
    hashed model's training forward up to the head biases.

    The forward sorts the ids (`_sort_ids`), projects only the touched rows
    by `project_rows`, as `SwipeModel.label_table` projects the whole table,
    and takes `bag_means` of them, so the bits are those of `bag_means` over
    the label table.
    The backward sums each touched row's `g / count` in label space
    (`_touched_grad`), R: the table's gradient is the `RowSparse` R @ weight
    and the weight's R.T @ the touched rows, so nothing dim wide is gathered
    or reduced per occurrence.
    """
    ids = np.asarray(ids, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    counts = offsets[1:] - offsets[:-1]
    order, rows, runs = _sort_ids(ids, table.data.shape[0])
    local = np.empty_like(ids)  # each id's index among the touched rows
    local[order] = np.repeat(np.arange(len(rows)), np.diff(runs))
    touched = np.take(table.data, rows, axis=0)
    out = bag_means(project_rows(touched, weight.data), local, offsets)

    def backward(g):
        per_row = _touched_grad(g, counts, order, runs)
        return ((table, RowSparse(rows, per_row @ weight.data, table.data.shape)),
                (weight, per_row.T @ touched))

    return _make(out, (table, weight), backward)


def bag_means(table: np.ndarray, ids: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each bag's mean of `table` rows; bag b spans ids[offsets[b]:offsets[b+1]]
    and must be non-empty. `embedding_bag_mean` takes it over the embedding
    table, `label_bag_means` over the touched rows projected to label space,
    and a flat hashed model's tape-free pass over its label table
    (`SwipeModel.label_table`); the sums are `_gather_sums`'."""
    counts = offsets[1:] - offsets[:-1]
    if (counts <= 0).any():
        raise ValueError("bag_means: empty bag")
    sums = _gather_sums(table, ids, offsets)
    sums /= counts.astype(sums.dtype)[:, None]
    return sums


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
    t = np.asarray(targets, dtype=x.dtype)
    if t.shape != x.shape:
        raise ValueError(f"targets shape {t.shape} != logits shape {x.shape}")
    per_label = np.maximum(x, 0.0) - x * t + np.log1p(np.exp(-np.abs(x)))
    loss = per_label.mean()

    def backward(g):
        return ((logits, g * (_stable_sigmoid(x) - t) / x.size),)

    return _make(loss, (logits,), backward)
