"""Supervised training of encoder + head, and the gradient-check oracle.

Cross-entropy losses (softmax for multi-class, per-label logistic for
multi-label, both threshold-consistent with the strict-zero document bit),
Adam with bias correction, and a learning rate that decays linearly from
`base_lr` to zero over the planned number of steps.

Each split is featurized once, before the first step, in the chunks inference
uses (`SwipeModel.chunks`, one hashing call per chunk), and the model's
encoder splits each chunk into per-document features (`split_features`).
Each epoch scores each dev chunk by one forward over its `model.Batch`, built
just before. A training step is one forward and one backward over the whole
ragged batch, on tensors that wrap the model's arrays for that pass only
(`SwipeModel.tensors`). The hash encoder's table gradient arrives row-sparse
(`autodiff.RowSparse`, one summed row per touched bucket), and Adam updates
moments and parameters in place through preallocated work arrays. Its
semantics stay dense: every row's moments decay every step, touched or not.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from swipe import autodiff as ad
from swipe.config import TrainConfig
from swipe.corpus import Corpus, Document, TASK_MULTICLASS
from swipe.errors import TrainingError, ValidationError
from swipe.hashing import derive_seed
from swipe.model import Batch, Features, SwipeModel


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
    """Mean batch loss and its gradients for every trainable parameter.

    One forward and one backward over the whole ragged batch against its
    (B, L) gold matrix, on tensors made for this pass (`model.tensors`), so
    no gradient outlives it. The encoder table's gradient is an `ad.RowSparse`;
    parameters that do not participate in the forward pass (e.g. gate
    weights under ungated pooling) get zero gradients, so every parameter
    has one.
    """
    params = model.tensors(requires_grad=True)
    total, _ = doc_loss(model, batch, gold, params)
    value = total.item()
    if not math.isfinite(value):
        raise TrainingError(f"non-finite loss {value!r} on documents {batch.inputs.doc_id}")
    total.backward()
    grads = {
        name: (np.zeros_like(t.data) if t.grad is None else t.grad)
        for name, t in params.items()
    }
    return value, grads


@dataclass
class ModelState:
    """Model plus optimizer accumulators.

    `scratch` holds two work arrays per parameter, so an Adam step allocates
    nothing.
    """

    model: SwipeModel
    config: TrainConfig
    total_steps: int
    adam_m: dict[str, np.ndarray] = field(default_factory=dict)
    adam_v: dict[str, np.ndarray] = field(default_factory=dict)
    scratch: dict[str, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)

    def __post_init__(self):
        for name, param in self.model.params.items():
            self.adam_m.setdefault(name, np.zeros_like(param))
            self.adam_v.setdefault(name, np.zeros_like(param))
            self.scratch.setdefault(name, (np.empty_like(param), np.empty_like(param)))


def learning_rate(config: TrainConfig, step: int, total_steps: int) -> float:
    """Linear decay from base_lr to zero at step == total_steps."""
    return config.base_lr * max(0.0, 1.0 - step / total_steps)


def adam_step(state: ModelState, grads: dict[str, np.ndarray | ad.RowSparse],
              step: int) -> float:
    """Standard bias-corrected Adam update, in place; returns the learning rate used.

    `grads` holds a gradient for every parameter, as `backward_batch` gives.

    Every parameter, moment and work array is updated through `out=`, in the
    same operation order as the textbook expressions noted alongside, so the
    result is bit-identical to them. A `RowSparse` gradient is zero outside
    its rows: there the moments only decay, as they would for a dense zero.
    """
    cfg = state.config
    lr = learning_rate(cfg, step, state.total_steps)
    correction1 = 1 - cfg.beta1**step
    correction2 = 1 - cfg.beta2**step
    for name, param in state.model.params.items():
        g = grads[name]
        m, v = state.adam_m[name], state.adam_v[name]
        num, den = state.scratch[name]
        # m = beta1 * m + (1 - beta1) * g;  v = beta2 * v + (1 - beta2) * g * g
        np.multiply(m, cfg.beta1, out=m)
        np.multiply(v, cfg.beta2, out=v)
        if isinstance(g, ad.RowSparse):
            m[g.rows] += (1 - cfg.beta1) * g.values
            v[g.rows] += (1 - cfg.beta2) * g.values * g.values
        else:
            np.add(m, np.multiply(g, 1 - cfg.beta1, out=num), out=m)
            np.multiply(g, 1 - cfg.beta2, out=num)
            np.add(v, np.multiply(num, g, out=num), out=v)
        # param -= lr * (m / correction1) / (sqrt(v / correction2) + epsilon)
        np.multiply(np.divide(m, correction1, out=num), lr, out=num)
        np.add(np.sqrt(np.divide(v, correction2, out=den), out=den), cfg.epsilon, out=den)
        np.subtract(param, np.divide(num, den, out=num), out=param)
        if not np.isfinite(param).all():
            raise TrainingError(f"non-finite parameter {name!r} after step {step}")
    return lr


# -- gradient checking -------------------------------------------------------

#: Relative error denominators are floored here so coordinates whose true
#: gradient is ~0 are judged on an absolute scale of tol * floor, which sits
#: safely above central-difference noise for smooth float64 losses.
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
    """
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
    one tape-free forward. nan when there are no batches."""
    params = model.tensors()
    scores = [model.forward(batch, params).doc_scores.data for batch in batches]
    if not scores:
        return float("nan")
    scores = np.concatenate(scores)
    return int(exact_match(model.config.task_kind, scores, gold).sum()) / len(scores)


def split_features(model: SwipeModel, docs: Sequence[Document]) -> list[Features]:
    """Every document's features, in order, as `model.featurize` gives them:
    each chunk (`SwipeModel.chunks`) split by the model's encoder, into views
    of the chunk's hashed arrays (one hashing call per chunk) or the attached
    vectors themselves.
    """
    return [feats for chunk in model.chunks(docs) for feats in model.encoder.split(chunk)]


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
    train_feats = split_features(model, train_docs)
    dev_chunks = [model.encoder.split(chunk) for chunk in model.chunks(dev_docs)]
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
        epoch_loss = 0.0
        for b in range(n_batches):
            chosen = order[b * config.batch_size:(b + 1) * config.batch_size]
            batch = Batch.of([train_feats[i] for i in chosen])
            loss_value, grads = backward_batch(model, batch, train_gold[chosen])
            step += 1
            lr = adam_step(state, grads, step)
            epoch_loss += loss_value * len(chosen)
        epoch_loss /= len(train_docs)
        dev_metric = evaluate_split(model, (Batch.of(feats) for feats in dev_chunks), dev_gold)
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
