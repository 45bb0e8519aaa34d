"""Seeded input generators for the benchmark workloads.

Everything here depends only on the workload seed and the Python standard
library, so a change to the program under test can never change its inputs.
Each generator returns a `Corpus`: JSONL-ready document records (with their
split tags), the ground-truth key map, and, for every document, the exact
token list its text or units tokenize to. The token lists let the output
checks rebuild the text of any segment without calling the program.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

SPLITS = ("train", "dev", "test")
VOCABULARY_SEED = 20230404

# Lowercase alphabets with no case folding surprises: every word drawn from
# them is its own lowercase form and a single `[^\W_]+` token.
_ASCII = "abcdefghijklmnopqrstuvwxyz"
_MULTIBYTE_ALPHABETS = (
    "aeiouéèêëàâäïîôöùûüçñøåæœß",        # Latin with diacritics (mixed widths)
    "αβγδεζηθικλμνξοπρστυφχψω",          # Greek, 2 bytes each
    "абвгдежзийклмнопрстуфхцчшщыэюя",    # Cyrillic, 2 bytes each
    "".join(chr(c) for c in range(0x4E00, 0x4E00 + 400)),  # CJK, 3 bytes each
)


@dataclass
class Corpus:
    """Generated documents plus everything the output checks need."""

    records: list[dict]                 # JSONL records: id, text|units, labels, split
    tokens: dict[str, list[str]]        # doc id -> tokens of text (or of all units)
    unit_tokens: dict[str, list[list[str]]]  # doc id -> tokens per unit (structure docs)
    key_map: list[dict]                 # {"doc_id", "label", "key_segments"}
    labels: tuple[str, ...]

    def split_ids(self, split: str) -> list[str]:
        return [r["id"] for r in self.records if r["split"] == split]


def _assign_splits(rng: random.Random, n: int, fractions) -> list[str]:
    counts = [int(f * n) for f in fractions]
    counts[0] += n - sum(counts)
    tags = [s for s, c in zip(SPLITS, counts) for _ in range(c)]
    rng.shuffle(tags)
    return tags


def _log_uniform(lo: int, hi: int):
    """`values_for` of n evenly spaced log-uniform quantiles in [lo, hi].

    Most values are near `lo` and a few near `hi`: for (4, 24) about half are
    at most 10 and about a tenth are 20 or more.
    """
    return lambda n: [round(lo * (hi / lo) ** ((k + 0.5) / n)) for k in range(n)]


def _per_split(rng: random.Random, tags: list[str], values_for) -> list:
    """One value per document; `values_for(n)` gives the n values of a split.

    Each split gets its own full set of values in random order, so every
    split has the same spread of document sizes whatever the seed.
    """
    out = [None] * len(tags)
    for split in SPLITS:
        index = [i for i, tag in enumerate(tags) if tag == split]
        values = values_for(len(index))
        rng.shuffle(values)
        for i, value in zip(index, values):
            out[i] = value
    return out


def planted_units(
    seed: int,
    n_docs: int,
    n_labels: int,
    segments: tuple[int, int],
    tokens_per_segment: tuple[int, int] = (6, 12),
    key_vocab: int = 20,
    filler_vocab: int = 50,
    fractions=(0.5, 0.1, 0.4),
) -> Corpus:
    """Multi-label planted-key corpus of pre-segmented documents.

    Unit counts are log-uniform quantiles over `segments` within each split,
    so most documents are short and a few are long. Each
    positive (document, label) pair owns exactly one key unit whose first
    token comes from the label's exclusive vocabulary (later tokens are a 50/50
    mix of exclusive and filler words); every other unit is filler only.
    """
    rng = random.Random(seed)
    labels = tuple(f"label{i}" for i in range(n_labels))
    tags = _assign_splits(rng, n_docs, fractions)
    lo, hi = segments
    counts = _per_split(rng, tags, _log_uniform(lo, hi))
    records, tokens, unit_tokens, key_map = [], {}, {}, []
    for d in range(n_docs):
        doc_id = f"doc{d:05d}"
        m = counts[d]
        positives = rng.sample(range(n_labels), rng.randint(1, min(n_labels, m)))
        key_units = dict(zip(rng.sample(range(m), len(positives)), positives))
        units = []
        for k in range(m):
            label = key_units.get(k)
            toks = []
            for t in range(rng.randint(*tokens_per_segment)):
                if label is not None and (t == 0 or rng.random() < 0.5):
                    toks.append(f"key{label}w{rng.randrange(key_vocab)}")
                else:
                    toks.append(f"fill{rng.randrange(filler_vocab)}")
            units.append(toks)
        records.append({
            "id": doc_id,
            "units": [" ".join(u) for u in units],
            "labels": [labels[i] for i in sorted(positives)],
            "split": tags[d],
        })
        tokens[doc_id] = [t for u in units for t in u]
        unit_tokens[doc_id] = units
        for k, label in sorted(key_units.items()):
            key_map.append({"doc_id": doc_id, "label": labels[label], "key_segments": [k]})
    return Corpus(records, tokens, unit_tokens, key_map, labels)


def zipf_vocabulary(rng: random.Random, size: int, multibyte_share: float) -> list[str]:
    """`size` distinct lowercase words in Zipf rank order.

    A `multibyte_share` of the entries, spread evenly over the ranks, are
    drawn from non-ASCII alphabets so their UTF-8 encoding is multi-byte.
    """
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        if rng.random() < multibyte_share:
            alphabet = rng.choice(_MULTIBYTE_ALPHABETS)
            length = rng.randint(1, 4) if ord(alphabet[0]) > 0x3000 else rng.randint(2, 9)
        else:
            alphabet, length = _ASCII, rng.randint(2, 10)
        word = "".join(rng.choice(alphabet) for _ in range(length))
        if word not in seen and word.isascii() == (alphabet is _ASCII):
            seen.add(word)
            words.append(word)
    return words


def longtext(
    seed: int,
    n_docs: int,
    n_labels: int = 4,
    length: tuple[int, int] = (100, 800),
    vocab_size: int = 20000,
    zipf_s: float = 1.07,
    multibyte_share: float = 0.2,
    keys_per_doc: int = 2,
    key_vocab: int = 30,
    window: int = 16,
    fractions=(0.4, 0.08, 0.52),
) -> Corpus:
    """Multi-class plain-text corpus with log-uniform lengths.

    Within each split the lengths are the split's evenly spaced log-uniform
    quantiles, shuffled. Filler words follow a Zipf law over a vocabulary
    that is the same for every seed (hashing cost grows with bytes per token,
    which a per-seed vocabulary would shift by +-13%); each document
    carries `keys_per_doc` words of its class's exclusive vocabulary at random
    token positions. With auto truncation at `window` tokens (no overlap), a
    key at token position p lies in segment p // window, which is the key map.

    The text is synthetic and its parameters are assumptions, not measurements
    of any real corpus: the 20,000-word vocabulary, the exponent 1.07 (English
    word frequencies are usually reported as Zipfian with an exponent near 1,
    e.g. Piantadosi 2014, Psychon. Bull. Rev. 21:1112) and the 20% share of
    multi-byte words. The token repeat rate they give is a property of this
    text only.
    """
    rng = random.Random(seed)
    labels = tuple(f"topic{i}" for i in range(n_labels))
    vocab = zipf_vocabulary(random.Random(VOCABULARY_SEED), vocab_size, multibyte_share)
    cum_weights, total = [], 0.0
    for rank in range(1, vocab_size + 1):
        total += rank ** -zipf_s
        cum_weights.append(total)
    tags = _assign_splits(rng, n_docs, fractions)
    lo, hi = length
    lengths = _per_split(rng, tags, _log_uniform(lo, hi))
    records, tokens, key_map = [], {}, []
    for d in range(n_docs):
        doc_id = f"long{d:05d}"
        n = lengths[d]
        label = rng.randrange(n_labels)
        toks = rng.choices(vocab, cum_weights=cum_weights, k=n)
        positions = sorted(rng.sample(range(n), keys_per_doc))
        for p in positions:
            toks[p] = f"k{label}x{rng.randrange(key_vocab)}"
        records.append({
            "id": doc_id,
            "text": " ".join(toks),
            "labels": [labels[label]],
            "split": tags[d],
        })
        tokens[doc_id] = toks
        key_map.append({
            "doc_id": doc_id,
            "label": labels[label],
            "key_segments": sorted({p // window for p in positions}),
        })
    return Corpus(records, tokens, {}, key_map, labels)


def write_jsonl(rows, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, ensure_ascii=False) + "\n")


def write_inputs(corpus: Corpus, out_dir: Path, predict_split: str) -> None:
    """corpus.jsonl (tagged), keymap.jsonl, and predict.jsonl (unlabelled docs)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    write_jsonl(corpus.records, out_dir / "corpus.jsonl")
    write_jsonl(corpus.key_map, out_dir / "keymap.jsonl")
    unlabelled = (
        {k: v for k, v in r.items() if k not in ("labels", "split")}
        for r in corpus.records if r["split"] == predict_split
    )
    write_jsonl(unlabelled, out_dir / "predict.jsonl")
