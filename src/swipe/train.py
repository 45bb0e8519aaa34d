"""Supervised training of encoder + head, and the gradient-check oracle.

Cross-entropy losses (softmax for multi-class, per-label logistic for
multi-label, both threshold-consistent with the strict-zero document bit),
Adam with bias correction, and a learning rate that decays linearly from
`base_lr` to zero over the planned number of steps.

Each split is featurized once, before the first step, in the chunks inference
uses (`SwipeModel.chunks`, one hashing call per chunk). A hashed train split
is held packed, one `model.Batch` of all its documents (`Batch.concat`, which
holds the chunks' arrays and their packed copy at once for a moment), and
each epoch gathers its permuted documents a block of whole steps at a time
(`packed_steps`): one `np.take` of the block's ids and one cumsum of its bag
lengths, each step a view of its block. A block's ids and their gather
index stay within `model.CHUNK_BYTES` (a step over it is a block alone), so
an epoch adds at most that plus a few times the block's offsets (8 bytes per
segment and document, and the temporaries that build them) to the split it
holds. The hashed dev chunks' batches are built once and scored every epoch.
Precomputed vectors are used as attached, never stacked: each step's batch
and each epoch's dev chunks are `Batch.of` of them, built just before they
run. Each epoch scores each dev chunk by one tape-free forward over its
`model.Batch`; a flat hashed model scores it, as inference does, through its
cached label table (`SwipeModel.label_table`), which `adam_step` invalidates
by bumping `SwipeModel.version`, as `train` does when it restores the best
epoch. A training step is one forward and
one backward over the whole ragged batch, on tensors that wrap the model's
arrays for that pass only (`SwipeModel.tensors`). A flat hashed model's
step projects only the table rows its batch touches into label space
(`autodiff.label_bag_means`), so its scores have the bits of the label-table
pass, and takes the table's gradient in label space; a model with
interaction layers encodes dim wide. The hash encoder's table gradient
arrives row-sparse (`autodiff.RowSparse`, one summed row per touched
bucket), and Adam is lazy for it: a step updates the moments and parameters
of the touched rows only, so its cost follows the batch, not `n_buckets`.
Dense gradients (every other parameter) update moments and parameters in
place through work arrays kept per parameter. Parameters, gradients, Adam
moments and work arrays all keep the parameters' dtype (float32 for a
created or loaded model); the gradient check alone runs in float64.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from swipe import autodiff as ad
from swipe import model as swipe_model
from swipe.config import TrainConfig
from swipe.corpus import Corpus, TASK_MULTICLASS
from swipe.errors import TrainingError, ValidationError
from swipe.hashing import derive_seed
from swipe.model import Batch, SwipeModel


def doc_loss(model: SwipeModel, batch: Batch, gold: np.ndarray,
             params: dict[str, ad.Tensor]) -> tuple[ad.Tensor, tuple | None]:
    """Mean loss over a batch, forward with the tensors `params`, plus its
    pooling signature (for kink detection).

    `gold` is the batch's (B, L) 0/1 gold matrix, one row per document of
    `batch`; the one 1 of a multi-class row marks the gold label.
    """
    out = model.forward(batch, params)
    if model.config.task_kind == TASK_MULTICLASS:
        return ad.softmax_cross_entropy(out.doc_scores, gold.argmax(axis=1)), out.signature()
    return ad.bce_with_logits_mean(out.doc_scores, gold), out.signature()


def backward_batch(
    model: SwipeModel, batch: Batch, gold: np.ndarray
) -> tuple[float, dict[str, np.ndarray | ad.RowSparse]]:
    """Mean batch loss and the gradient of each parameter the pass reaches.

    One forward and one backward over the whole ragged batch against its
    (B, L) gold matrix, on tensors made for this pass (`model.tensors`), so
    no gradient outlives it. The encoder table's gradient is an `ad.RowSparse`;
    a parameter no gradient reaches gets no entry.
    """
    params = model.tensors(requires_grad=True)
    total, _ = doc_loss(model, batch, gold, params)
    value = total.item()
    if not math.isfinite(value):
        raise TrainingError(f"non-finite loss {value!r} on documents {batch.inputs.doc_id}")
    total.backward()
    return value, {name: t.grad for name, t in params.items() if t.grad is not None}


@dataclass
class ModelState:
    """Model plus optimizer accumulators, each moment of its parameter's
    shape and dtype (one pair per parameter the model has: an ungated model
    has no gate tensors, so no moments for them).

    `scratch` holds one work buffer per parameter, made at its first Adam
    step and kept (see `work`), so a step allocates nothing once the buffers
    have reached their size: a dense gradient's buffer holds two arrays of
    its parameter's shape, a row-sparse gradient's five rows for each row it
    touches.
    """

    model: SwipeModel
    config: TrainConfig
    total_steps: int
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)
    scratch: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        for name, param in self.model.params.items():
            self.adam_m.setdefault(name, np.zeros_like(param))
            self.adam_v.setdefault(name, np.zeros_like(param))

    def work(self, name: str, count: int, n_rows: int) -> list[np.ndarray]:
        """`count` contiguous work arrays of `n_rows` rows shaped like the
        rows of parameter `name`: views of its kept buffer, remade when it
        has fewer arrays or rows."""
        buf = self.scratch.get(name)
        if buf is None or buf.shape[0] < count or buf.shape[1] < n_rows:
            param = self.model.params[name]
            buf = self.scratch[name] = np.empty((count, n_rows, *param.shape[1:]), param.dtype)
        return list(buf[:count, :n_rows])


def learning_rate(config: TrainConfig, step: int, total_steps: int) -> float:
    """Linear decay from base_lr to zero at step == total_steps."""
    return config.base_lr * max(0.0, 1.0 - step / total_steps)


def adam_step(state: ModelState, grads: dict[str, np.ndarray | ad.RowSparse],
              step: int) -> float:
    """Bias-corrected Adam update, in place; returns the learning rate used.

    Only the parameters `grads` names are updated, as `backward_batch` gives
    them; every other parameter and its moments keep their bits. A parameter
    no pass reaches so keeps zero moments, on which a zero gradient would
    leave it unchanged too.

    A dense gradient updates its whole parameter. A `RowSparse` gradient
    updates only its rows (lazy Adam, as TF-Addons `LazyAdam` and PyTorch
    `SparseAdam`): their parameter and moment rows are taken into work
    arrays, updated there, and scattered back. Rows it does not touch, and
    their moments, keep their bits, so a row's moments decay only on the
    steps that touch it; bias correction uses the global `step` all the
    same. The step's cost follows the rows touched, not the table's size.

    Either way the arithmetic is `_adam_update`'s, whose operation order
    follows the textbook expressions noted there, so every updated value is
    bit-identical to them. Only the updated values are checked for
    finiteness: nothing else changed, and all was finite after the last step.
    """
    cfg = state.config
    state.model.version += 1  # the arrays change in place below
    lr = learning_rate(cfg, step, state.total_steps)
    correction1 = 1 - cfg.beta1**step
    correction2 = 1 - cfg.beta2**step
    for name, g in grads.items():
        param, m, v = state.model.params[name], state.adam_m[name], state.adam_v[name]
        if isinstance(g, ad.RowSparse):
            rows = g.rows
            param_rows, m_rows, v_rows, num, den = state.work(name, 5, len(rows))
            for array, out in ((param, param_rows), (m, m_rows), (v, v_rows)):
                # 'wrap' reads each row the scatter below writes (a negative
                # row counts from the end), without the copy 'raise' buffers
                # `out` through; a row out of range still raises at the scatter
                np.take(array, rows, axis=0, out=out, mode="wrap")
            _adam_update(cfg, lr, correction1, correction2, param_rows, m_rows, v_rows,
                         g.values, num, den)
            m[rows], v[rows], param[rows] = m_rows, v_rows, param_rows
            updated = param_rows
        else:
            _adam_update(cfg, lr, correction1, correction2, param, m, v, g,
                         *state.work(name, 2, len(param)))
            updated = param
        if not np.isfinite(updated).all():
            raise TrainingError(f"non-finite parameter {name!r} after step {step}")
    return lr


def _adam_update(cfg: TrainConfig, lr: float, correction1: float, correction2: float,
                 param: np.ndarray, m: np.ndarray, v: np.ndarray, g: np.ndarray,
                 num: np.ndarray, den: np.ndarray) -> None:
    """One Adam update of `param`, `m` and `v` by the gradient `g`, all of
    one shape, in place; `num` and `den` are work arrays of that shape."""
    # m = beta1 * m + (1 - beta1) * g;  v = beta2 * v + (1 - beta2) * g * g
    np.multiply(m, cfg.beta1, out=m)
    np.add(m, np.multiply(g, 1 - cfg.beta1, out=num), out=m)
    np.multiply(v, cfg.beta2, out=v)
    np.multiply(g, 1 - cfg.beta2, out=num)
    np.add(v, np.multiply(num, g, out=num), out=v)
    # param -= lr * (m / correction1) / (sqrt(v / correction2) + epsilon)
    np.multiply(np.divide(m, correction1, out=num), lr, out=num)
    np.add(np.sqrt(np.divide(v, correction2, out=den), out=den), cfg.epsilon, out=den)
    np.subtract(param, np.divide(num, den, out=num), out=param)


# -- gradient checking -------------------------------------------------------

#: Relative error denominators are floored here so coordinates whose true
#: gradient is ~0 are judged on an absolute scale of tol * floor, which sits
#: safely above central-difference noise for smooth float64 losses (the check
#: always runs in float64; see `grad_check`).
GRAD_CHECK_FLOOR = 1e-3


@dataclass
class GradCheckReport:
    max_rel_error: float
    n_checked: int
    n_excluded: int
    failures: list[tuple[str, int, float, float, float]]  # name, flat idx, analytic, fd, rel
    tolerance: float

    @property
    def passed(self) -> bool:
        return not self.failures


def grad_check(
    fn,
    params: dict[str, ad.Tensor],
    tolerance: float = 1e-4,
    base_step: float = 1e-4,
    analytic: dict[str, np.ndarray] | None = None,
) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    `fn` rebuilds the forward pass from the current parameter data and
    returns (loss tensor, signature). The signature is any hashable marker of
    the non-smooth branch taken (max-pooling argmaxes); a coordinate whose
    perturbation changes the signature crosses a kink, so its finite
    difference is meaningless and it is excluded rather than compared.

    Per-coordinate step: base_step * (1 + |value|).

    The check runs in float64 whatever the model's dtype: each tensor of
    `params` holds a float64 copy of its data while the check runs, so `fn`,
    which reads them, runs the same ops on a float64 copy of the model, and
    the steps and tolerance above suit it. The model's own arrays are never
    perturbed, and each tensor gets its own data and gradient back when the
    check ends.
    """
    originals = {name: (tensor.data, tensor.grad) for name, tensor in params.items()}
    try:
        for tensor in params.values():
            tensor.data = tensor.data.astype(np.float64)
        return _grad_check_float64(fn, params, tolerance, base_step, analytic)
    finally:
        for name, tensor in params.items():
            tensor.data, tensor.grad = originals[name]


def _grad_check_float64(fn, params, tolerance, base_step, analytic) -> GradCheckReport:
    if analytic is None:
        for tensor in params.values():
            tensor.zero_grad()
        loss, _ = fn()
        loss.backward()
        analytic = {
            name: (np.zeros_like(t.data) if t.grad is None else np.array(ad.dense(t.grad)))
            for name, t in params.items()
        }
    _, base_sig = fn()
    max_rel = 0.0
    n_checked = 0
    n_excluded = 0
    failures = []
    for name, tensor in params.items():
        flat = tensor.data.reshape(-1)
        grad_flat = analytic[name].reshape(-1)
        for j in range(flat.shape[0]):
            original = flat[j]
            step = base_step * (1.0 + abs(original))
            flat[j] = original + step
            loss_plus, sig_plus = fn()
            flat[j] = original - step
            loss_minus, sig_minus = fn()
            flat[j] = original
            if sig_plus != base_sig or sig_minus != base_sig:
                n_excluded += 1
                continue
            fd = (loss_plus.item() - loss_minus.item()) / (2.0 * step)
            rel = abs(fd - grad_flat[j]) / max(abs(fd), abs(grad_flat[j]), GRAD_CHECK_FLOOR)
            n_checked += 1
            max_rel = max(max_rel, rel)
            if rel > tolerance:
                failures.append((name, j, float(grad_flat[j]), float(fd), float(rel)))
    return GradCheckReport(
        max_rel_error=max_rel,
        n_checked=n_checked,
        n_excluded=n_excluded,
        failures=failures,
        tolerance=tolerance,
    )


# -- training loop -----------------------------------------------------------

@dataclass
class TrainResult:
    model: SwipeModel                 # holds the best epoch's parameters
    best_epoch: int
    best_metric: float                # -inf when there is no dev split
    metrics: list[dict]               # rows: epoch, step, lr, train_loss, dev_metric


def exact_match(task_kind: str, scores: np.ndarray, gold: np.ndarray) -> np.ndarray:
    """Which rows of the (B, L) document scores match their (B, L) gold
    matrix: the argmax label is the gold one (multi-class), or every bit
    (score > 0) equals its gold bit (multi-label)."""
    if task_kind == TASK_MULTICLASS:
        return scores.argmax(axis=1) == gold.argmax(axis=1)
    return np.all((scores > 0) == (gold > 0), axis=1)


def evaluate_split(model: SwipeModel, batches: Iterable[Batch], gold: np.ndarray) -> float:
    """Exact-match share (see `exact_match`) of the documents of `batches`,
    whose gold rows `gold` holds in the same order; each batch is scored by
    one tape-free forward, through the label table on a flat hashed model,
    as `predict` scores it. nan when there are no batches."""
    params = model.tensors()
    scores = [model.forward(batch, params).doc_scores.data for batch in batches]
    if not scores:
        return float("nan")
    scores = np.concatenate(scores)
    return int(exact_match(model.config.task_kind, scores, gold).sum()) / len(scores)


def packed_steps(split: Batch, doc_ids: Sequence[str], order: np.ndarray,
                 batch_size: int) -> Iterator[tuple[np.ndarray, Batch]]:
    """(documents, batch) of each step of an epoch over the packed hashed
    `split`, whose documents `doc_ids` names: documents order[s:s +
    batch_size] for s = 0, batch_size, ..., each batch named by its
    documents' ids and equal, array for array, to `Batch.of` of their own
    features.

    The documents are gathered a block of whole steps at a time
    (`Batch.take`), each step a view of its block (`Batch.view`). A block
    closes before a step would take its ids, with the index that gathers
    them, past `model.CHUNK_BYTES`; a step over it is a block alone. So an
    epoch holds one block at a time besides the split, when the caller lets
    go of each step's batch before it asks for the next.
    """
    for chosen in _blocks(split, order, batch_size):
        block = split.take(chosen)
        for start in range(0, len(chosen), batch_size):
            docs = chosen[start:start + batch_size]
            yield docs, block.view(start, start + len(docs),
                                   " ".join(doc_ids[i] for i in docs.tolist()))
        del block  # freed before the next block is gathered


def _blocks(split: Batch, order: np.ndarray, batch_size: int) -> list[np.ndarray]:
    """`order` cut into the blocks of whole steps of `packed_steps`."""
    bags, docs = split.inputs.offsets, split.offsets
    sizes = bags[docs[1:]] - bags[docs[:-1]]  # n-gram ids per document
    starts = range(0, len(order), batch_size)
    budget = swipe_model.CHUNK_BYTES // (2 * split.inputs.ids.itemsize)
    cuts, held = [], 0
    for start, size in zip(starts, np.add.reduceat(sizes[order], starts).tolist()):
        if held and held + size > budget:
            cuts.append(start)
            held = 0
        held += size
    return np.split(order, cuts)


def train(corpus: Corpus, model: SwipeModel, config: TrainConfig) -> TrainResult:
    """Train on the corpus train split, and leave in `model.params` the best
    dev epoch's parameters, or the last epoch's when there is no dev split.

    Deterministic under (config.seed, model init): batch order comes from a
    dedicated shuffle stream and every reduction runs in a fixed order.
    """
    train_docs = corpus.split_docs("train")
    if not train_docs:
        raise ValidationError("train split is empty")
    dev_docs = corpus.split_docs("dev")
    vectors = model.precomputed
    if vectors is None:
        split = Batch.concat([model.encoder.featurize(chunk)
                              for chunk in model.chunks(train_docs)])
        doc_ids = [doc.id for doc in train_docs]
        dev = [model.encoder.featurize(chunk) for chunk in model.chunks(dev_docs)]
    else:  # the attached arrays, batched where each is used, never held stacked
        feats = [vectors[doc.id] for doc in train_docs]
        dev = [[vectors[doc.id] for doc, _ in chunk] for chunk in model.chunks(dev_docs)]
    train_gold, dev_gold = model.vocab.gold(train_docs), model.vocab.gold(dev_docs)

    n_batches = math.ceil(len(train_docs) / config.batch_size)
    state = ModelState(model=model, config=config,
                       total_steps=config.epochs * n_batches)
    model.train_config = config
    rng = np.random.default_rng(derive_seed("train-shuffle", config.seed))

    best = TrainResult(model=model, best_epoch=0, best_metric=-math.inf, metrics=[])
    best_params = model.params
    step = 0
    lr = config.base_lr
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_docs))
        if vectors is None:
            steps = packed_steps(split, doc_ids, order, config.batch_size)
        else:
            cuts = range(config.batch_size, len(order), config.batch_size)
            steps = ((chosen, Batch.of([feats[i] for i in chosen]))
                     for chosen in np.split(order, cuts))
        epoch_loss = 0.0
        for chosen, batch in steps:
            loss_value, grads = backward_batch(model, batch, train_gold[chosen])
            del batch  # a hashed step's block is freed before the next is gathered
            step += 1
            lr = adam_step(state, grads, step)
            epoch_loss += loss_value * len(chosen)
        epoch_loss /= len(train_docs)
        dev_metric = evaluate_split(model, dev if vectors is None else map(Batch.of, dev),
                                    dev_gold)
        best.metrics.append(
            {"epoch": epoch, "step": step, "lr": lr,
             "train_loss": epoch_loss, "dev_metric": dev_metric}
        )
        if not dev_docs or dev_metric > best.best_metric:
            best.best_epoch = epoch
            best_params = {name: array.copy() for name, array in model.params.items()}
            if dev_docs:
                best.best_metric = dev_metric
    model.params = best_params
    model.version += 1
    return best


def write_metrics_csv(rows: list[dict], path) -> None:
    """Training log; float formatting via repr, so identical runs match byte-wise."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "step", "lr", "train_loss", "dev_metric"])
        for row in rows:
            writer.writerow(
                [row["epoch"], row["step"], repr(float(row["lr"])),
                 repr(float(row["train_loss"])), repr(float(row["dev_metric"]))]
            )
