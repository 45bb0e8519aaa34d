"""The three workloads: inputs, the commands each cycle runs, and output checks.

Every command is driven in-process through `swipe.cli.main`, exactly as a
user would type it. A cycle runs a fixed amount of work; its operations are:

* ``train``   - `swipe train` (skipped where the checkpoint is trained in set-up)
* ``eval``    - `swipe eval --keymap` on the test split
* ``loop``    - `SwipeModel.predict` per test document on the loaded
  checkpoint, each call timed on its own
* ``predict`` - `swipe predict` on the unlabelled test documents
* ``explain`` - `swipe explain` on the same documents
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import corpora


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Callable[[int, bool], corpora.Corpus]  # (seed, small) -> corpus
    task: str
    model_flags: tuple[str, ...]
    epochs: int
    lr: float
    train_in_setup: bool = False
    window: int | None = None          # auto truncation window, None = structure
    max_pooling: bool = True
    quality_floor: dict = field(default_factory=dict)  # eval key -> minimum


def _flat_corpus(seed: int, small: bool) -> corpora.Corpus:
    # No smaller size: the quality floor needs ~300 training documents.
    return corpora.planted_units(seed, n_docs=600, n_labels=3, segments=(8, 8))


def _interact_corpus(seed: int, small: bool) -> corpora.Corpus:
    return corpora.planted_units(seed, n_docs=40 if small else 400, n_labels=3,
                                 segments=(4, 24))


def _long_corpus(seed: int, small: bool) -> corpora.Corpus:
    return corpora.longtext(seed, n_docs=40 if small else 320, window=16)


_HASH_FLAGS = ("--ngram-orders", "1,2", "--dim", "32", "--buckets", "4096")

# Why each workload exists, and which metric each layer should move on it,
# is recorded in METRICS.md and BENCHMARK.json.

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="train-flat",
            corpus=_flat_corpus,
            task="multi-label",
            model_flags=("--truncate", "structure", "--pooling", "max",
                         "--interaction-layers", "0", *_HASH_FLAGS),
            epochs=10,
            lr=0.1,
            # Over 70 seeds (1001-1040, 2001-2030) test micro-F1 was
            # 0.946-0.995 and key recovery 0.948-1.0; each floor sits about
            # 0.1 below its minimum and far above chance (recovery ~1/8).
            quality_floor={"micro_f1": 0.85, "key_segment_recovery": 0.85},
        ),
        Workload(
            name="train-interact",
            corpus=_interact_corpus,
            task="multi-label",
            model_flags=("--truncate", "structure", "--pooling", "gated_max",
                         "--interaction-layers", "2", "--heads", "2", *_HASH_FLAGS),
            epochs=3,
            lr=0.01,
            max_pooling=False,
        ),
        Workload(
            name="predict-longtext",
            corpus=_long_corpus,
            task="multi-class",
            model_flags=("--truncate", "auto", "--window-len", "16", "--overlap", "0",
                         "--pooling", "max", "--interaction-layers", "0", *_HASH_FLAGS),
            epochs=3,
            lr=0.05,
            train_in_setup=True,
            window=16,
        ),
    )
}


class Checks:
    """Counts attempted operations and the ones that failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    """One workload's inputs on disk plus the operations of one cycle."""

    def __init__(self, workload: Workload, seed: int, small: bool, work: Path):
        self.w = workload
        self.seed = seed
        self.small = small  # smoke-test inputs: fewer documents
        self.work = work
        self.corpus: corpora.Corpus | None = None  # set by the first set-up
        self.data: Path | None = None              # that set-up's input files
        self.setup_digest: str | None = None
        self.ckpt = work / "model.ckpt"
        self.checks = Checks()
        self.digests: dict[str, str] = {}   # first cycle's output digests
        self.quality: dict[str, float] = {}
        self.loop_ms: list[float] = []     # latencies of the last loop
        self.first_y: dict[str, dict[str, float]] = {}  # doc -> label -> first y seen

    # -- set-up -----------------------------------------------------------------

    def setup(self, cli_main, index: int) -> dict[str, float]:
        """Generate and write the inputs (and train, where set-up trains).

        Returns the timings of this set-up: total seconds and, where set-up
        trains, the train command's seconds.
        """
        t0 = time.perf_counter()
        corpus = self.w.corpus(self.seed, self.small)
        data = self.work / f"setup{index}"
        corpora.write_inputs(corpus, data, predict_split="test")
        timings = {}
        if self.w.train_in_setup:
            timings["train_s"] = self.train(cli_main, data)
        timings["setup_s"] = time.perf_counter() - t0
        digest = sha256(data / "corpus.jsonl")
        if self.corpus is None:
            self.corpus, self.data, self.setup_digest = corpus, data, digest
        self.checks.op(digest == self.setup_digest, "set-up inputs differ between set-ups")
        return timings

    @property
    def op_docs(self) -> dict[str, int]:
        """Documents each operation processes (train: documents x epochs)."""
        n_test = len(self.corpus.split_ids("test"))
        return {"train": len(self.corpus.split_ids("train")) * self.w.epochs,
                "eval": n_test, "predict": n_test, "explain": n_test, "loop": n_test}

    def ops(self) -> list[str]:
        names = ["eval", "loop", "predict", "explain"]
        return names if self.w.train_in_setup else ["train", *names]

    # -- commands ---------------------------------------------------------------

    def _cli(self, cli_main, argv) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                code = cli_main([str(a) for a in argv])
            except Exception:  # a crash is a failed operation, not a dead benchmark
                traceback.print_exc()
                code = -1
        return code, out.getvalue()

    def train(self, cli_main, data: Path) -> float:
        argv = ["train", "--corpus", data / "corpus.jsonl", "--task", self.w.task,
                *self.w.model_flags, "--epochs", self.w.epochs, "--lr", self.w.lr,
                "--batch-size", 16, "--seed", 5,  # README's seed: one model init
                "--metrics", self.work / "metrics.csv", "--out", self.ckpt]
        t0 = time.perf_counter()
        code, log = self._cli(cli_main, argv)
        elapsed = time.perf_counter() - t0
        problem = f"exit {code}: {log[-300:]}"
        if code == 0:
            rows = (self.work / "metrics.csv").read_text().splitlines()
            problem = None if len(rows) == self.w.epochs + 1 else f"{len(rows)} metrics rows"
        self._record("train", problem, self.ckpt)
        return elapsed

    def run_op(self, name: str, cli_main, loader) -> float:
        """Run one operation of the cycle; returns its wall time in seconds."""
        if name == "train":
            return self.train(cli_main, self.data)
        if name == "loop":
            return self._loop(*loader)
        out = self.work / f"{name}.out"
        if name == "eval":
            argv = ["eval", "--checkpoint", self.ckpt, "--corpus", self.data / "corpus.jsonl",
                    "--keymap", self.data / "keymap.jsonl", "--split", "test", "--out", out]
        else:
            argv = [name, "--checkpoint", self.ckpt, "--corpus", self.data / "predict.jsonl",
                    "--out", out]
        t0 = time.perf_counter()
        code, log = self._cli(cli_main, argv)
        elapsed = time.perf_counter() - t0
        problem = f"exit {code}: {log[-300:]}"
        if code == 0:
            try:
                problem = self._check_eval(out) if name == "eval" else self._check_records(
                    out, explain=name == "explain")
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                problem = f"malformed output: {exc!r}"
        self._record(name, problem, out)
        return elapsed

    def predict_memory(self, probe: Path) -> dict[str, float]:
        """`swipe predict` in a fresh process (`probe`, memprobe.py): its RSS
        just before the command, its peak, and `predict_rss_mb`, the growth."""
        out = self.work / "probe.out"
        argv = [sys.executable, probe, self.ckpt, self.data / "predict.jsonl", out]
        try:
            proc = subprocess.run([str(a) for a in argv], capture_output=True, text=True,
                                  timeout=120)
            result = json.loads(proc.stdout.splitlines()[-1])
            problem = None if proc.returncode == 0 and result["exit"] == 0 else \
                f"exit {proc.returncode}/{result['exit']}: {proc.stderr[-300:]}"
        except (subprocess.SubprocessError, IndexError, ValueError, KeyError) as exc:
            result, problem = {}, f"memory probe failed: {exc!r}"
        # Same checkpoint and documents, so the records must equal the cycles'.
        self._record("predict", problem, out)
        if problem is not None:
            return {"predict_rss_mb": 0.0}
        return {**result, "predict_rss_mb": result["rss_peak_mb"] - result["rss_before_mb"]}

    def _loop(self, load_model, load_documents) -> float:
        self.loop_ms = []
        t0 = time.perf_counter()
        model = load_model(self.ckpt)
        docs = load_documents(self.data / "predict.jsonl")
        clock = time.perf_counter
        for doc in docs:
            try:
                start = clock()
                pred = model.predict(doc)
                self.loop_ms.append((clock() - start) * 1000.0)
                problem = self._check_record(doc.id, pred.to_record(model.vocab.names))
            except Exception as exc:  # counted, and the loop goes on
                problem = repr(exc)
            self.checks.op(problem is None, f"loop {doc.id}: {problem}")
        return time.perf_counter() - t0

    # -- checks -----------------------------------------------------------------

    def _record(self, name: str, problem: str | None, output: Path) -> None:
        """One operation: its check result, then byte-identity with cycle 1."""
        if problem is None:
            digest = sha256(output)
            if self.digests.setdefault(name, digest) != digest:
                problem = "output differs from the first cycle's"
        self.checks.op(problem is None, f"{name}: {problem}")

    def segments(self, doc_id: str) -> list[str]:
        """Expected text of every segment, as `swipe explain` joins tokens."""
        if self.w.window is None:
            return [" ".join(u) for u in self.corpus.unit_tokens[doc_id]]
        toks, n = self.corpus.tokens[doc_id], self.w.window
        return [" ".join(toks[i:i + n]) for i in range(0, len(toks), n)]

    def _check_entry(self, entry: dict, m: int) -> str | None:
        scores = entry["segment_scores"]
        if len(scores) != m:
            return f"{len(scores)} segment scores, expected {m}"
        if entry["bit"] != int(entry["y"] > 0):
            return f"bit {entry['bit']} disagrees with y={entry['y']}"
        if not 0 <= entry["key_segment"] < m:
            return f"key_segment {entry['key_segment']} outside [0, {m})"
        if entry["positive_segments"] != [k for k, s in enumerate(scores) if s > 0]:
            return "positive_segments are not the strictly positive segment scores"
        if self.w.max_pooling and entry["y"] != max(scores):
            return f"max-pooled y={entry['y']} is not the max segment score"
        return None

    def _check_records(self, path: Path, explain: bool) -> str | None:
        expected = self.corpus.split_ids("test")
        lines = path.read_text(encoding="utf-8").splitlines()
        if len(lines) != len(expected):
            return f"{len(lines)} records for {len(expected)} documents"
        for doc_id, line in zip(expected, lines):
            problem = self._check_record(doc_id, json.loads(line), explain)
            if problem is not None:
                return problem
        return None

    def _check_record(self, doc_id: str, rec: dict, explain: bool = False) -> str | None:
        """Check one prediction record; the first problem found, or None."""
        if rec["doc_id"] != doc_id:
            return f"record for {rec['doc_id']} where {doc_id} was expected"
        if {e["label"] for e in rec["per_label"]} != set(self.corpus.labels):
            return f"{doc_id}: per_label does not cover the labels"
        segs = self.segments(doc_id)
        scored = self.first_y.setdefault(doc_id, {})
        for entry in rec["per_label"]:
            problem = self._check_entry(entry, len(segs))
            if problem is None and explain and \
                    entry["key_segment_text"] != segs[entry["key_segment"]]:
                problem = "key_segment_text is not the key segment's text"
            if problem is None and scored.setdefault(entry["label"], entry["y"]) != entry["y"]:
                problem = "y differs between the CLI and SwipeModel.predict"
            if problem is not None:
                return f"{doc_id}/{entry['label']}: {problem}"
        bits = [e["label"] for e in rec["per_label"] if e["bit"]]
        if self.w.task == "multi-label" and sorted(rec["labels"]) != sorted(bits):
            return f"{doc_id}: labels are not the set bits"
        if self.w.task == "multi-class" and len(rec["labels"]) != 1:
            return f"{doc_id}: multi-class record without exactly one label"
        return None

    def _check_eval(self, path: Path) -> str | None:
        report = json.loads(path.read_text())
        if report.get("n_docs") != len(self.corpus.split_ids("test")):
            return f"n_docs {report.get('n_docs')} is not the test split size"
        for key in ("accuracy", "micro_f1", "macro_f1", "segment_micro_f1",
                    "key_segment_recovery"):
            value = report.get(key)
            if not isinstance(value, float) or not 0.0 <= value <= 1.0:
                return f"{key}={value!r} is not a share"
            self.quality[key] = value
        for key, floor in self.w.quality_floor.items():
            if report[key] < floor:
                return f"{key}={report[key]} below the floor {floor}: task not learned"
        return None
