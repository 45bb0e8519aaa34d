#!/bin/sh
# Run a fixed-seed set of swipe commands and keep every file they write.
#
# Run it in two checkouts and compare the two output directories with
# `diff -r`: an empty diff means a change left every CLI output byte-identical
# (checkpoints, metrics CSVs, predictions, explanations, eval reports,
# sufficiency rows), across max / gated_sum + 2 interaction layers /
# gated_max + 1 layer / sum + 1 layer with 4 heads, ff_dim and positional
# embeddings, the precomputed --vectors path, and plain text with multi-byte
# tokens under auto and punct truncation with n-gram orders 1,2,3.
#
# Usage, from the root of a checkout:  sh benchmarks/cli_outputs.sh OUT_DIR
set -eu
out=$1
mkdir -p "$out"
export PYTHONPATH=src

swipe() { python3 -m swipe.cli "$@" > /dev/null; }

data=$out/data
swipe synth --docs 120 --labels 2 --segments-per-doc 6 --filler-vocab 50 \
    --seed 13 --out "$data"

for run in max:0 gated_sum:2 gated_max:1; do
    pooling=${run%:*}
    layers=${run#*:}
    name=$out/$pooling-$layers
    swipe train --corpus "$data/corpus.jsonl" --task multi-label \
        --truncate structure --pooling "$pooling" --interaction-layers "$layers" \
        --buckets 512 --dim 16 --epochs 3 --lr 0.05 --seed 5 --out "$name.ckpt"
    swipe predict --checkpoint "$name.ckpt" --corpus "$data/corpus.jsonl" \
        --out "$name.predict.jsonl"
    swipe explain --checkpoint "$name.ckpt" --corpus "$data/corpus.jsonl" \
        --out "$name.explain.jsonl"
    swipe eval --checkpoint "$name.ckpt" --corpus "$data/corpus.jsonl" \
        --keymap "$data/keymap.jsonl" --split test --out "$name.eval.json"
done

# Header fields no other run sets: sum pooling, 4 heads, ff_dim, positions.
name=$out/sum-positions
swipe train --corpus "$data/corpus.jsonl" --task multi-label --truncate structure \
    --pooling sum --interaction-layers 1 --heads 4 --ff-dim 24 --positions on \
    --max-positions 32 --buckets 256 --dim 16 --epochs 2 --lr 0.05 --seed 9 \
    --out "$name.ckpt"
swipe predict --checkpoint "$name.ckpt" --corpus "$data/corpus.jsonl" \
    --out "$name.predict.jsonl"

swipe sufficiency --checkpoint "$out/max-0.ckpt" --corpus "$data/corpus.jsonl" \
    --lengths 4,8 --probe-epochs 2 --seed 3 --out "$out/max-0.sufficiency.json"

# Frozen precomputed segment vectors: a seeded corpus and sidecar.
python3 - "$out" <<'EOF'
import sys

import numpy as np

from swipe.corpus import Corpus, Document, LabelVocab, write_jsonl
from swipe.encoder import SegmentMatrix, write_precomputed

out = sys.argv[1]
rng = np.random.default_rng(0)
docs, mats = [], {}
for i in range(40):
    doc_id, label = f"v{i}", "ab"[i % 2]
    split = "train" if i < 30 else ("dev" if i < 35 else "test")
    docs.append(Document(id=doc_id, text="placeholder", labels=(label,), split=split))
    rows = rng.normal(size=(1 + i % 4, 6)) + (1.0 if label == "a" else -1.0)
    mats[doc_id] = SegmentMatrix(doc_id=doc_id, rows=rows)
write_jsonl(Corpus(documents=docs, vocab=LabelVocab(("a", "b"), "multi-class")),
            f"{out}/vec.corpus.jsonl")
write_precomputed(mats, f"{out}/vec.vectors.jsonl")
EOF
vec=$out/vec
swipe train --corpus "$vec.corpus.jsonl" --task multi-class --vectors "$vec.vectors.jsonl" \
    --pooling gated_sum --interaction-layers 1 --epochs 4 --lr 0.1 --seed 0 --out "$vec.ckpt"
for cmd in predict explain; do
    swipe "$cmd" --checkpoint "$vec.ckpt" --corpus "$vec.corpus.jsonl" \
        --vectors "$vec.vectors.jsonl" --out "$vec.$cmd.jsonl"
done
swipe eval --checkpoint "$vec.ckpt" --corpus "$vec.corpus.jsonl" \
    --vectors "$vec.vectors.jsonl" --split test --out "$vec.eval.json"

# Plain text with multi-byte tokens (dotted capital I, accents, CJK, emoji),
# cut by a sliding window and by sentences.
python3 - "$out" <<'EOF'
import json
import sys

import numpy as np

out = sys.argv[1]
rng = np.random.default_rng(0)
filler = ["the", "a", "café", "İstanbul", "naïve", "東京", "日本語", "🙂", "straße",
          "word", "text", "über", "ok", "δ", "x1"]
keys = {"north": ["fjörd", "雪"], "south": ["señor", "🌴"]}
with open(f"{out}/text.corpus.jsonl", "w", encoding="utf-8") as fh:
    for i in range(48):
        label = "north" if i % 2 else "south"
        words = [str(w) for w in rng.choice(filler, size=int(rng.integers(20, 60)))]
        for at in rng.integers(0, len(words), size=2):
            words[at] = str(rng.choice(keys[label]))
        sentences = [" ".join(words[j:j + 7]) + str(rng.choice([".", "!", "?"]))
                     for j in range(0, len(words), 7)]
        split = "train" if i < 32 else ("dev" if i < 40 else "test")
        fh.write(json.dumps({"id": f"t{i}", "text": " ".join(sentences),
                             "labels": [label], "split": split}, ensure_ascii=False) + "\n")
EOF
text=$out/text.corpus.jsonl
for run in "auto:--truncate auto --window-len 16 --overlap 4" \
           "punct:--truncate punct --max-seg-len 12"; do
    name=$out/text-${run%%:*}
    # ${run#*:} holds several flags and is split on purpose.
    swipe train --corpus "$text" --task multi-class ${run#*:} --ngram-orders 1,2,3 \
        --buckets 512 --dim 16 --epochs 3 --lr 0.05 --seed 2 --out "$name.ckpt"
    for cmd in predict explain; do
        swipe "$cmd" --checkpoint "$name.ckpt" --corpus "$text" --out "$name.$cmd.jsonl"
    done
    swipe eval --checkpoint "$name.ckpt" --corpus "$text" --split test --out "$name.eval.json"
done
