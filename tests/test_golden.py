"""Golden output digests: every CLI output stays byte-identical.

A fixed-seed set of swipe commands runs in-process through `swipe.cli.main`
and writes checkpoints (with their headers), metrics CSVs, predictions,
explanations, eval reports and sufficiency rows. The SHA-256 of each file
must match `golden/cli_outputs.sha256`. The commands cover max / gated_sum +
2 interaction layers / gated_max + 1 layer / sum + 1 layer with 4 heads, the
precomputed --vectors path, and plain text with multi-byte tokens under auto
and punct truncation with n-gram orders 1,2,3.

The rule: a change that alters any output bytes re-pins the digests in the
same commit (the failure message lists each changed file with its new
digest) and says in CHANGES.md why the bytes changed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from swipe.cli import main
from swipe.corpus import Corpus, Document, LabelVocab, write_jsonl
from swipe.encoder import SegmentMatrix
from swipe.model import write_precomputed

PINNED = Path(__file__).parent / "golden" / "cli_outputs.sha256"


def swipe(*args) -> None:
    argv = [str(a) for a in args]
    assert main(argv) == 0, argv


def _write_vector_corpus(out: Path) -> None:
    """Frozen precomputed segment vectors: a seeded corpus and sidecar."""
    rng = np.random.default_rng(0)
    docs, mats = [], {}
    for i in range(40):
        doc_id, label = f"v{i}", "ab"[i % 2]
        split = "train" if i < 30 else ("dev" if i < 35 else "test")
        docs.append(Document(id=doc_id, text="placeholder", labels=(label,), split=split))
        rows = rng.normal(size=(1 + i % 4, 6)) + (1.0 if label == "a" else -1.0)
        mats[doc_id] = SegmentMatrix(doc_id=doc_id, rows=rows)
    write_jsonl(Corpus(documents=docs, vocab=LabelVocab(("a", "b"), "multi-class")),
                out / "vec.corpus.jsonl")
    write_precomputed(mats, out / "vec.vectors.bin")


def _write_text_corpus(out: Path) -> None:
    """Plain text with multi-byte tokens (dotted capital I, accents, CJK, emoji)."""
    rng = np.random.default_rng(0)
    filler = ["the", "a", "café", "İstanbul", "naïve", "東京", "日本語", "🙂", "straße",
              "word", "text", "über", "ok", "δ", "x1"]
    keys = {"north": ["fjörd", "雪"], "south": ["señor", "🌴"]}
    with open(out / "text.corpus.jsonl", "w", encoding="utf-8") as fh:
        for i in range(48):
            label = "north" if i % 2 else "south"
            words = [str(w) for w in rng.choice(filler, size=int(rng.integers(20, 60)))]
            for at in rng.integers(0, len(words), size=2):
                words[at] = str(rng.choice(keys[label]))
            sentences = [" ".join(words[j:j + 7]) + str(rng.choice([".", "!", "?"]))
                         for j in range(0, len(words), 7)]
            split = "train" if i < 32 else ("dev" if i < 40 else "test")
            fh.write(json.dumps({"id": f"t{i}", "text": " ".join(sentences),
                                 "labels": [label], "split": split},
                                ensure_ascii=False) + "\n")


def run_commands(out: Path) -> None:
    """Write every golden output file under `out`."""
    data = out / "data"
    swipe("synth", "--docs", 120, "--labels", 2, "--segments-per-doc", 6,
          "--filler-vocab", 50, "--seed", 13, "--out", data)
    corpus, keymap = data / "corpus.jsonl", data / "keymap.jsonl"

    for pooling, layers in (("max", 0), ("gated_sum", 2), ("gated_max", 1)):
        name = f"{out}/{pooling}-{layers}"
        swipe("train", "--corpus", corpus, "--task", "multi-label",
              "--truncate", "structure", "--pooling", pooling,
              "--interaction-layers", layers, "--buckets", 512, "--dim", 16,
              "--epochs", 3, "--lr", 0.05, "--seed", 5, "--out", f"{name}.ckpt")
        for cmd in ("predict", "explain"):
            swipe(cmd, "--checkpoint", f"{name}.ckpt", "--corpus", corpus,
                  "--out", f"{name}.{cmd}.jsonl")
        swipe("eval", "--checkpoint", f"{name}.ckpt", "--corpus", corpus,
              "--keymap", keymap, "--split", "test", "--out", f"{name}.eval.json")

    # Header fields no other run sets: sum pooling and 4 heads.
    name = f"{out}/sum-1"
    swipe("train", "--corpus", corpus, "--task", "multi-label", "--truncate", "structure",
          "--pooling", "sum", "--interaction-layers", 1, "--heads", 4, "--buckets", 256,
          "--dim", 16, "--epochs", 2, "--lr", 0.05, "--seed", 9, "--out", f"{name}.ckpt")
    swipe("predict", "--checkpoint", f"{name}.ckpt", "--corpus", corpus,
          "--out", f"{name}.predict.jsonl")

    swipe("sufficiency", "--checkpoint", out / "max-0.ckpt", "--corpus", corpus,
          "--lengths", "4,8", "--probe-epochs", 2, "--seed", 3,
          "--out", out / "max-0.sufficiency.json")

    _write_vector_corpus(out)
    vec, vec_args = out / "vec", ["--corpus", out / "vec.corpus.jsonl",
                                  "--vectors", out / "vec.vectors.bin"]
    swipe("train", *vec_args, "--task", "multi-class", "--pooling", "gated_sum",
          "--interaction-layers", 1, "--epochs", 4, "--lr", 0.1, "--seed", 0,
          "--out", f"{vec}.ckpt")
    for cmd in ("predict", "explain"):
        swipe(cmd, "--checkpoint", f"{vec}.ckpt", *vec_args, "--out", f"{vec}.{cmd}.jsonl")
    swipe("eval", "--checkpoint", f"{vec}.ckpt", *vec_args, "--split", "test",
          "--out", f"{vec}.eval.json")

    # Cut plain text by a sliding window and by sentences.
    _write_text_corpus(out)
    text = out / "text.corpus.jsonl"
    for label, flags in (("auto", ["--truncate", "auto", "--window-len", 16, "--overlap", 4]),
                         ("punct", ["--truncate", "punct", "--max-seg-len", 12])):
        name = f"{out}/text-{label}"
        swipe("train", "--corpus", text, "--task", "multi-class", *flags,
              "--ngram-orders", "1,2,3", "--buckets", 512, "--dim", 16, "--epochs", 3,
              "--lr", 0.05, "--seed", 2, "--out", f"{name}.ckpt")
        for cmd in ("predict", "explain"):
            swipe(cmd, "--checkpoint", f"{name}.ckpt", "--corpus", text,
                  "--out", f"{name}.{cmd}.jsonl")
        swipe("eval", "--checkpoint", f"{name}.ckpt", "--corpus", text, "--split", "test",
              "--out", f"{name}.eval.json")


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every file under `out`, keyed by its relative POSIX path."""
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*")) if path.is_file()
    }


def read_pinned() -> dict[str, str]:
    """`sha256sum`-style lines: digest, two spaces, relative path."""
    pinned = {}
    for line in PINNED.read_text(encoding="utf-8").splitlines():
        digest, _, name = line.partition("  ")
        pinned[name] = digest
    return pinned


def test_cli_outputs_match_pinned_digests(tmp_path):
    run_commands(tmp_path)
    got, pinned = digests(tmp_path), read_pinned()
    changed = [f"{got[name]}  {name}" for name in sorted(got) if got[name] != pinned.get(name)]
    missing = [name for name in sorted(pinned) if name not in got]
    assert not changed and not missing, (
        "CLI outputs differ from golden/cli_outputs.sha256; re-pin with these lines "
        "and say why in CHANGES.md:\n" + "\n".join(changed)
        + "".join(f"\nno longer written: {name}" for name in missing)
    )
