"""Which program functions the traced run wraps, and the per-layer metrics.

Layers are the modules of `src/swipe/`. Each target is wrapped where its
callers look it up (e.g. `swipe.model.truncate`, not `swipe.truncate.truncate`),
so the wrapper sees every call made through that name. Span names are
`<layer>.<function>`; the benchmark's own spans are `bench.<operation>`.

Every self time and count is reported per traced cycle: a cycle runs a fixed
amount of work, so these numbers do not depend on how many cycles fitted in
the run. Times are corrected for host contention like the end-to-end times.
"""

from __future__ import annotations

import statistics

from tracer import Span, Target, self_times

LAYERS = ("corpus", "truncate", "hashing", "encoder", "head", "autodiff",
          "model", "train", "evaluate", "cli")


def _in_step(tracer) -> bool:
    return tracer.active["train.backward_batch"] > 0


def _on_make(tracer, args, kwargs, out) -> None:
    if out.requires_grad and _in_step(tracer):
        tracer.count("autodiff.tape_nodes")


def _on_embedding_bag(tracer, args, kwargs, out) -> None:
    table = args[0] if args else kwargs["table"]
    if table.requires_grad and _in_step(tracer):
        tracer.count("encoder.table_grad_bytes", table.data.nbytes)


def _on_hash(tracer, args, kwargs, ids) -> None:
    tracer.count("hashing.ngrams", len(ids))
    if "hashed_tokens" in tracer.scratch:
        tracer.scratch["hashed_tokens"].append(args[0] if args else kwargs["tokens"])


def _on_truncate(tracer, args, kwargs, segments) -> None:
    tracer.count("truncate.tokens", sum(len(s.tokens) for s in segments))


TARGETS = [
    Target("swipe.cli:main", "cli.main"),
    Target("swipe.cli:train", "train.train"),
    Target("swipe.cli:truncate", "truncate.truncate", hook=_on_truncate),
    Target("swipe.corpus:load_documents", "corpus.load_documents"),
    Target("swipe.corpus:load_jsonl", "corpus.load_jsonl"),
    Target("swipe.corpus:load_key_map", "corpus.load_key_map"),
    Target("swipe.model:truncate", "truncate.truncate", hook=_on_truncate),
    Target("swipe.truncate:tokenize_with_spans", "truncate.tokenize_with_spans"),
    Target("swipe.truncate:tokenize", "truncate.tokenize"),
    Target("swipe.hashing:ngram_bucket_ids", "hashing.ngram_bucket_ids", hook=_on_hash),
    Target("swipe.model:featurize_segments", "encoder.featurize_segments"),
    Target("swipe.model:encode_features", "encoder.encode_features"),
    Target("swipe.model:interact_tensor", "encoder.interact_tensor"),
    Target("swipe.model:scores_tensor", "head.scores_tensor"),
    Target("swipe.model:gates_tensor", "head.gates_tensor"),
    Target("swipe.model:pool_tensor", "head.pool_tensor"),
    Target("swipe.model:build_prediction", "head.build_prediction"),
    Target("swipe.autodiff:_make", "autodiff.make", timed=False, hook=_on_make),
    Target("swipe.autodiff:embedding_bag_mean", "autodiff.embedding_bag_mean",
           timed=False, hook=_on_embedding_bag),
    Target("swipe.autodiff:Tensor.backward", "autodiff.backward"),
    Target("swipe.model:SwipeModel.predict", "model.predict"),
    Target("swipe.model:SwipeModel.predict_features", "model.predict_features"),
    Target("swipe.model:SwipeModel.featurize", "model.featurize"),
    Target("swipe.model:SwipeModel.forward", "model.forward"),
    Target("swipe.model:SwipeModel.save", "model.save"),
    Target("swipe.model:SwipeModel.load", "model.load"),
    Target("swipe.train:doc_loss", "train.doc_loss"),
    Target("swipe.train:backward_batch", "train.backward_batch"),
    Target("swipe.train:adam_step", "train.adam_step"),
    Target("swipe.train:evaluate_split", "train.evaluate_split"),
    Target("swipe.evaluate:classification_eval", "evaluate.classification_eval"),
    Target("swipe.evaluate:segment_labeling_eval", "evaluate.segment_labeling_eval"),
    Target("swipe.evaluate:key_segment_recovery", "evaluate.key_segment_recovery"),
]

# Self time per cycle of these functions, in seconds.
FUNCTION_SELF_S = (
    "hashing.ngram_bucket_ids", "truncate.truncate", "truncate.tokenize_with_spans",
    "corpus.load_documents", "encoder.featurize_segments", "encoder.encode_features",
    "encoder.interact_tensor", "head.scores_tensor", "head.gates_tensor",
    "head.pool_tensor", "head.build_prediction", "autodiff.backward",
    "train.backward_batch", "train.adam_step", "train.evaluate_split",
    "evaluate.classification_eval", "evaluate.segment_labeling_eval",
)

# name -> (ROADMAP item it targets or None, what it counts); units and
# directions are in BENCHMARK.json.
PER_LAYER = {
    **{f"{layer}.self_s": (None, f"self time of the {layer} layer per cycle")
       for layer in LAYERS},
    **{f"{fn}.self_s": (None, f"self time of {fn} per cycle") for fn in FUNCTION_SELF_S},
    "hashing.ngrams": (4, "n-gram ids hashed per cycle"),
    "hashing.ngrams_per_s": (4, "n-grams hashed / ngram_bucket_ids self time"),
    "hashing.repeat_share": (4, "tokens already hashed earlier in one `swipe predict` "
                                "pass / tokens hashed in it"),
    "truncate.tokens": (2, "tokens in truncated segments per cycle"),
    "truncate.calls_per_doc": (2, "truncate calls / documents, under `swipe explain`"),
    "model.forward.calls_per_doc": (2, "SwipeModel.forward calls / test documents, "
                                       "under `swipe eval --keymap`"),
    "encoder.table_grad_bytes_per_step": (3, "embedding-bag backward calls x table bytes "
                                             "/ Adam steps"),
    "autodiff.tape_nodes_per_step": (3, "tape nodes built inside backward_batch / Adam steps"),
    "train.steps": (3, "Adam steps per cycle"),
    "train.step_ms_p50": (3, "backward_batch start to adam_step end, median"),
    "train.step_ms_p99": (3, "the same, 99th percentile"),
    "model.save_ms": (None, "SwipeModel.save duration, median"),
    "model.load_ms": (None, "SwipeModel.load duration, median"),
    "trace_overhead": (None, "traced / untraced cycle time, medians of corrected times"),
}


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default), 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def repeat_share(token_lists) -> tuple[int, int]:
    """(tokens seen before in the sequence, tokens in total)."""
    seen: set[str] = set()
    repeats = total = 0
    for tokens in token_lists:
        for token in tokens:
            total += 1
            if token in seen:
                repeats += 1
            else:
                seen.add(token)
    return repeats, total


def _step_ms(spans: list[Span], scale: dict[int, float]) -> list[float]:
    """Pair each backward_batch with the adam_step that follows it."""
    out, opened = [], None
    for span in sorted(spans, key=lambda s: s.start):
        if span.name == "train.backward_batch":
            opened = span.start
        elif span.name == "train.adam_step" and opened is not None:
            out.append((span.end - opened) * 1000.0 * scale[span.sid])
            opened = None
    return out


def per_layer_metrics(tracer, cycles: int, op_docs: dict[str, int],
                      repeat: tuple[int, int], overhead: float,
                      slowdowns: dict[int, float]) -> tuple[dict, dict]:
    """Every PER_LAYER metric from the spans and counters of `cycles` traced cycles.

    Returns the metrics and, for each ratio, the base it is taken over. A
    metric whose layer did not run reads 0. `op_docs` maps each benchmark
    operation to the documents it processes per cycle. Times are divided by
    the contention slowdown measured around their top-level span
    (`slowdowns`, keyed by that span's id), as the end-to-end times are.
    """
    spans = sorted(tracer.spans, key=lambda s: s.sid)  # parents open first
    root: dict[int, int] = {}
    for span in spans:
        root[span.sid] = root[span.parent] if span.parent is not None else span.sid
    scale = {sid: 1.0 / slowdowns.get(top, 1.0) for sid, top in root.items()}
    selfs = self_times(spans)
    by_name: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for span in spans:
        by_name[span.name] = by_name.get(span.name, 0.0) + selfs[span.sid] * scale[span.sid]
        durations.setdefault(span.name, []).append((span.end - span.start) * scale[span.sid])

    def total(key: str, op: str | None = None) -> float:
        return sum(v for (o, k), v in tracer.counters.items()
                   if k == key and (op is None or o == op))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v for name, v in by_name.items() if name.split(".", 1)[0] == layer
        ) / cycles
    for fn in FUNCTION_SELF_S:
        out[f"{fn}.self_s"] = by_name.get(fn, 0.0) / cycles
    steps = total("train.adam_step.calls")
    ngrams = total("hashing.ngrams")
    out["hashing.ngrams"] = ngrams / cycles
    out["hashing.ngrams_per_s"] = ratio(ngrams, by_name.get("hashing.ngram_bucket_ids", 0.0))
    out["hashing.repeat_share"] = ratio(*repeat)
    out["truncate.tokens"] = total("truncate.tokens") / cycles
    out["truncate.calls_per_doc"] = ratio(
        total("truncate.truncate.calls", "explain"), op_docs.get("explain", 0) * cycles)
    out["model.forward.calls_per_doc"] = ratio(
        total("model.forward.calls", "eval"), op_docs.get("eval", 0) * cycles)
    out["encoder.table_grad_bytes_per_step"] = ratio(total("encoder.table_grad_bytes"), steps)
    out["autodiff.tape_nodes_per_step"] = ratio(total("autodiff.tape_nodes"), steps)
    out["train.steps"] = steps / cycles
    step_ms = _step_ms(spans, scale)
    out["train.step_ms_p50"] = percentile(step_ms, 50)
    out["train.step_ms_p99"] = percentile(step_ms, 99)
    out["model.save_ms"] = statistics.median(durations.get("model.save", [0.0])) * 1000.0
    out["model.load_ms"] = statistics.median(durations.get("model.load", [0.0])) * 1000.0
    out["trace_overhead"] = overhead
    bases = {
        "hashing.ngrams_per_s": f"{by_name.get('hashing.ngram_bucket_ids', 0.0)} s of hashing",
        "hashing.repeat_share": f"{repeat[1]} tokens",
        "truncate.calls_per_doc": f"{op_docs.get('explain', 0) * cycles} documents explained",
        "model.forward.calls_per_doc": f"{op_docs.get('eval', 0) * cycles} documents evaluated",
        "encoder.table_grad_bytes_per_step": f"{steps} steps",
        "autodiff.tape_nodes_per_step": f"{steps} steps",
        "train.step_ms_p50": f"{len(step_ms)} steps",
        "train.step_ms_p99": f"{len(step_ms)} steps",
    }
    return out, bases
