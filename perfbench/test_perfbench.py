"""Tests of the benchmark itself: seeded inputs, span arithmetic, smoke runs.

Run from the repository root with `python3 -m pytest perfbench`.
"""

from __future__ import annotations

import json
import sys
import types

import pytest

import corpora
import layers
import run as bench
from tracer import Span, Target, Tracer, self_times
from workloads import WORKLOADS, Run

# The workloads the benchmark promises to run.
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
LISTED = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs_and_another_seed_does_not(name, tmp_path):
    make = WORKLOADS[name].corpus
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        corpora.write_inputs(make(seed, False), tmp_path / label, predict_split="test")
    for file in ("corpus.jsonl", "keymap.jsonl", "predict.jsonl"):
        assert (tmp_path / "a" / file).read_bytes() == (tmp_path / "b" / file).read_bytes()
    assert (tmp_path / "a" / "corpus.jsonl").read_bytes() != \
        (tmp_path / "c" / "corpus.jsonl").read_bytes()


def test_interact_segment_counts_are_skewed_toward_short_documents():
    corpus = WORKLOADS["train-interact"].corpus(5, False)
    for split in corpora.SPLITS:
        counts = sorted(len(corpus.unit_tokens[i]) for i in corpus.split_ids(split))
        assert counts[0] == 4 and counts[-1] >= 23
        assert counts[len(counts) // 2] <= 10                 # half are short
        assert 0.05 < sum(c >= 20 for c in counts) / len(counts) < 0.2


def test_longtext_tokens_match_the_program_tokenizer():
    bench.import_program()
    from swipe.truncate import tokenize

    corpus = corpora.longtext(3, n_docs=20)
    for record in corpus.records:
        assert tokenize(record["text"]) == corpus.tokens[record["id"]]
    multibyte = sum(len(t.encode()) > len(t) for toks in corpus.tokens.values() for t in toks)
    assert multibyte > 0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None),
        Span(1, "a", 1.0, 4.0, 0),
        Span(2, "b", 3.0, 6.0, 0),     # overlaps a: the union 1..6 counts once
        Span(3, "c", 2.0, 3.0, 1),     # grandchild: only a loses it
        Span(4, "d", 9.0, 12.0, 0),    # runs past the parent: clipped at 10
    ]
    assert self_times(spans) == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})


def _fake_module(monkeypatch):
    module = types.ModuleType("fake_prog")

    def inner(x):
        return x + 1

    def outer(x):
        return module.inner(x) * 2

    class Thing:
        def method(self):
            return "m"

        @classmethod
        def build(cls):
            return cls()

    module.inner, module.outer, module.Thing = inner, outer, Thing
    monkeypatch.setitem(sys.modules, "fake_prog", module)
    return module


def test_tracer_records_nested_spans_and_restores_the_originals(monkeypatch):
    module = _fake_module(monkeypatch)
    originals = (module.inner, module.outer, vars(module.Thing)["build"])
    ticks = iter(range(100))
    seen = []
    tracer = Tracer([
        Target("fake_prog:outer", "prog.outer"),
        Target("fake_prog:inner", "prog.inner", hook=lambda t, a, k, r: seen.append(r)),
        Target("fake_prog:Thing.build", "prog.build"),
        Target("fake_prog:gone", "prog.gone"),
        Target("no_such_module:f", "prog.f"),
    ], clock=lambda: float(next(ticks)))
    tracer.install()
    assert module.outer(1) == 4
    assert isinstance(module.Thing.build(), module.Thing)
    tracer.uninstall()

    assert (module.inner, module.outer, vars(module.Thing)["build"]) == originals
    assert tracer.absent == ["fake_prog:gone", "no_such_module:f"]
    assert seen == [2]
    outer, inner = sorted((s for s in tracer.spans if s.name != "prog.build"),
                          key=lambda s: s.start)
    assert (outer.name, inner.name, inner.parent) == ("prog.outer", "prog.inner", outer.sid)
    assert self_times(tracer.spans)[outer.sid] == 2.0  # 0..3 minus inner 1..2
    assert tracer.counters[(None, "prog.inner.calls")] == 1


@pytest.mark.parametrize("name", LISTED)
def test_small_run_passes_every_check(name):
    report = bench.benchmark(name, seed=11, seconds=0, trace=False, small=True)
    assert report["failures"] == []
    assert report["attempted"] > 0 and report["failed"] == 0
    assert set(report["end_to_end"]) == set(bench.units("end_to_end"))
    assert all(v > 0 for v in report["end_to_end"].values())


@pytest.mark.parametrize("name", LISTED)
def test_small_traced_run_reports_every_per_layer_metric(name):
    report = bench.benchmark(name, seed=11, seconds=0, trace=True, small=True)
    assert report["failed"] == 0
    assert report["absent"] == []
    metrics = report["per_layer"]
    assert set(metrics) == set(bench.units("per_layer")) == set(layers.PER_LAYER)
    assert metrics["trace_overhead"] > 0 and metrics["cli.self_s"] > 0
    assert metrics["hashing.ngrams"] > 0 and 0 < metrics["hashing.repeat_share"] < 1
    assert metrics["truncate.calls_per_doc"] > 0 and metrics["model.forward.calls_per_doc"] > 0
    trains_in_cycle = not WORKLOADS[name].train_in_setup
    assert (metrics["train.steps"] > 0) == trains_in_cycle
    assert (metrics["encoder.table_grad_bytes_per_step"] > 0) == trains_in_cycle


def _record_for(run, doc_id):
    m = len(run.segments(doc_id))
    per_label = []
    for i, label in enumerate(run.corpus.labels):
        scores = [float((k * 7 + i * 3) % 5 - 2) for k in range(m)]
        per_label.append({
            "label": label, "y": max(scores), "bit": int(max(scores) > 0),
            "key_segment": scores.index(max(scores)),
            "positive_segments": [k for k, s in enumerate(scores) if s > 0],
            "segment_scores": scores,
        })
    best = max(per_label, key=lambda e: e["y"])["label"]
    return {"doc_id": doc_id, "labels": [best], "per_label": per_label}


@pytest.mark.parametrize("corrupt", [
    lambda e: e.update(bit=1 - e["bit"]),
    lambda e: e.update(key_segment=len(e["segment_scores"])),
    lambda e: e.update(positive_segments=e["positive_segments"][1:] or [0]),
    lambda e: e.update(y=e["y"] + 1.0),
    lambda e: e["segment_scores"].pop(),
])
def test_record_checks_catch_a_corrupted_entry(corrupt, tmp_path):
    run = Run(WORKLOADS["predict-longtext"], seed=3, small=True, work=tmp_path)
    run.corpus = WORKLOADS["predict-longtext"].corpus(3, True)
    doc_id = run.corpus.split_ids("test")[0]
    assert run._check_record(doc_id, _record_for(run, doc_id)) is None
    bad = _record_for(run, doc_id)
    corrupt(bad["per_label"][0])
    assert run._check_record(doc_id, bad) is not None
