"""Data model, JSONL ingestion, splitting, and the synthetic oracle corpus.

JSONL record layout (one document per line):

    {"id": str, "text": str or "units": [str, ...],
     "labels": [str, ...], "split": "train"|"dev"|"test" (optional)}

The synthetic generator plants one key segment per positive (document, label)
pair, built from a label-exclusive vocabulary, and returns the ground-truth
key map used by the explanation metrics. The key map sidecar is JSONL:
``{"doc_id": str, "label": str, "key_segments": [int, ...]}``.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from swipe.errors import ConfigError, ParseError, ValidationError

TASK_MULTICLASS = "multi-class"
TASK_MULTILABEL = "multi-label"
TASK_KINDS = (TASK_MULTICLASS, TASK_MULTILABEL)
SPLITS = ("train", "dev", "test")

KeyMap = dict[tuple[str, str], tuple[int, ...]]


@dataclass(frozen=True)
class Document:
    id: str
    text: str = ""
    units: tuple[str, ...] | None = None
    labels: tuple[str, ...] = ()
    split: str | None = None

    def __post_init__(self):
        if not self.text and not self.units:
            raise ValidationError(f"document {self.id!r}: empty text and no units")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError(f"document {self.id!r}: duplicate labels")
        if self.split is not None and self.split not in SPLITS:
            raise ValidationError(f"document {self.id!r}: bad split {self.split!r}")

    def full_text(self) -> str:
        """Text fed to auto/punct truncation; units joined with spaces."""
        return self.text if self.text else " ".join(self.units)

    def effective_split(self) -> str:
        """Documents without an explicit split tag count as train."""
        return self.split if self.split is not None else "train"


@dataclass(frozen=True)
class LabelVocab:
    names: tuple[str, ...]
    task_kind: str

    def __post_init__(self):
        if self.task_kind not in TASK_KINDS:
            raise ValidationError(f"unknown task kind: {self.task_kind!r}")
        if len(set(self.names)) != len(self.names):
            raise ValidationError("label names must be unique")
        minimum = 2 if self.task_kind == TASK_MULTICLASS else 1
        if len(self.names) < minimum:
            raise ValidationError(
                f"{self.task_kind} needs >= {minimum} labels, got {len(self.names)}"
            )

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValidationError(f"unknown label {name!r}") from None

    def bits(self, labels) -> np.ndarray:
        """0/1 indicator vector over the vocabulary, int8 (a loss casts it to
        its logits' dtype)."""
        out = np.zeros(len(self.names), dtype=np.int8)
        for name in labels:
            out[self.index(name)] = 1
        return out

    def gold(self, docs) -> np.ndarray:
        """(documents, labels) 0/1 int8 gold matrix: row i is `bits` of docs[i]'s labels."""
        return np.array([self.bits(doc.labels) for doc in docs],
                        dtype=np.int8).reshape(len(docs), len(self))


@dataclass
class Corpus:
    documents: list[Document]
    vocab: LabelVocab
    _by_id: dict[str, Document] = field(init=False, repr=False)

    def __post_init__(self):
        self._by_id = {}
        for doc in self.documents:
            if doc.id in self._by_id:
                raise ValidationError(f"duplicate document id {doc.id!r}")
            self._by_id[doc.id] = doc
            if self.vocab.task_kind == TASK_MULTICLASS and len(doc.labels) != 1:
                raise ValidationError(
                    f"document {doc.id!r}: multi-class documents need exactly "
                    f"one label, got {len(doc.labels)}"
                )
            for name in doc.labels:
                if name not in self.vocab.names:
                    raise ValidationError(f"document {doc.id!r}: unknown label {name!r}")

    def __len__(self) -> int:
        return len(self.documents)

    def get(self, doc_id: str) -> Document:
        return self._by_id[doc_id]

    def split_docs(self, split: str) -> list[Document]:
        return [d for d in self.documents if d.effective_split() == split]


def build_vocab(documents, task_kind: str) -> LabelVocab:
    """Label vocabulary in first-seen order, frozen at load time."""
    names = dict.fromkeys(name for doc in documents for name in doc.labels)
    return LabelVocab(names=tuple(names), task_kind=task_kind)


def _utf8_string(value) -> bool:
    """A string UTF-8 can encode: one that holds no lone surrogate, such as
    JSON's "\\ud800". Only non-ASCII strings are encoded to find out."""
    if not isinstance(value, str):
        return False
    if value.isascii():
        return True
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def record_key(raw: dict, key: str) -> str:
    """`raw[key]` as an id or label: a string as is, an integer as its decimal
    string. Anything else (null, bool, float, array, object) raises TypeError,
    so no id is ever read as the Python spelling of a JSON value."""
    value = raw[key]
    if isinstance(value, str):
        return value
    if type(value) is int:
        return str(value)
    raise TypeError(f"{key!r} must be a string or an integer, got {json.dumps(value)}")


_scan_value = json.decoder.JSONDecoder().scan_once
_skip_whitespace = json.decoder.WHITESPACE.match


def _json_value(line: str):
    """`json.loads(line)` through one call of json's scanner. A line that is
    not one JSON value between JSON whitespace goes to `json.loads` itself,
    which raises json's own error for it."""
    try:
        value, end = _scan_value(line, _skip_whitespace(line).end())
        if _skip_whitespace(line, end).end() == len(line):
            return value
    except (StopIteration, ValueError):
        pass
    return json.loads(line)


def jsonl_records(path) -> Iterator[tuple[int, dict]]:
    """(line number, record) for each non-blank line of a JSONL file; a line
    that is not UTF-8 or not a JSON object raises ParseError at its path:line."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8")
                if not line.strip():
                    continue
                raw = _json_value(line)
            except UnicodeDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: not valid UTF-8") from exc
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from exc
            if not isinstance(raw, dict):
                raise ParseError(f"{path}:{lineno}: record must be a JSON object")
            yield lineno, raw


def iter_documents(path) -> Iterator[Document]:
    """Each JSONL document of `path`, checked, as it is read; a bad line
    raises at its path:line when the reader reaches it."""
    for lineno, raw in jsonl_records(path):
        if "id" not in raw:
            raise ParseError(f"{path}:{lineno}: record must be an object with an 'id'")
        try:
            doc_id = record_key(raw, "id")
        except TypeError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
        text, units, labels = raw.get("text", ""), raw.get("units"), raw.get("labels", [])
        if not (isinstance(text, str) and isinstance(labels, list)
                and (units is None or isinstance(units, list))):
            raise ParseError(
                f"{path}:{lineno}: 'text' must be a string, 'units' and 'labels' arrays")
        strings = [text, *(units or ()), *labels]
        try:
            ascii_only = "".join(strings).isascii()
        except TypeError:  # a non-string unit or label
            ascii_only = False
        if not ascii_only and not all(map(_utf8_string, strings)):
            raise ParseError(f"{path}:{lineno}: 'text', 'units' and 'labels' must hold strings "
                             "that UTF-8 can encode (no lone surrogates)")
        try:
            yield Document(id=doc_id, text=text, labels=tuple(labels),
                           units=tuple(units) if units is not None else None,
                           split=raw.get("split"))
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc


def load_documents(path) -> list[Document]:
    """Every document of `path`, without building a vocabulary."""
    return list(iter_documents(path))


def load_jsonl(path, task_kind: str) -> Corpus:
    """Load a JSONL corpus; the vocabulary is the union of observed labels."""
    documents = load_documents(path)
    return Corpus(documents=documents, vocab=build_vocab(documents, task_kind))


def write_jsonl(corpus: Corpus, path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for doc in corpus.documents:
            rec: dict = {"id": doc.id}
            if doc.text:
                rec["text"] = doc.text
            if doc.units is not None:
                rec["units"] = list(doc.units)
            rec["labels"] = list(doc.labels)
            if doc.split is not None:
                rec["split"] = doc.split
            fh.write(json.dumps(rec, ensure_ascii=False) + "\n")


def split_corpus(corpus: Corpus, fractions: tuple[float, float, float], seed: int) -> Corpus:
    """Assign train/dev/test tags to documents lacking an explicit one.

    Counts follow the fractions via largest-remainder rounding; assignment is
    a seeded shuffle. Explicit tags are preserved untouched.
    """
    if not all(f >= 0 for f in fractions):  # NaN included
        raise ValidationError(f"fractions must be numbers >= 0, got {fractions}")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValidationError(f"fractions must sum to 1, got {fractions}")
    untagged = [d.id for d in corpus.documents if d.split is None]
    n = len(untagged)
    base = [int(np.floor(f * n)) for f in fractions]
    remainder = n - sum(base)
    order = sorted(range(3), key=lambda i: (fractions[i] * n) - base[i], reverse=True)
    for i in order[:remainder]:
        base[i] += 1
    rng = np.random.default_rng(seed)
    shuffled = [untagged[i] for i in rng.permutation(n)]
    assignment = dict(zip(shuffled, (split for split, count in zip(SPLITS, base)
                                     for _ in range(count))))
    documents = [
        replace(d, split=assignment[d.id]) if d.id in assignment else d
        for d in corpus.documents
    ]
    return Corpus(documents=documents, vocab=corpus.vocab)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of the planted-key-segment corpus generator."""

    num_docs: int = 500
    num_labels: int = 2
    segments_per_doc: tuple[int, int] = (8, 8)
    key_vocab_per_label: int = 20
    filler_vocab: int = 200
    tokens_per_segment: tuple[int, int] = (6, 12)
    task_kind: str = TASK_MULTILABEL
    seed: int = 13

    def __post_init__(self):
        if self.key_vocab_per_label < 1 or self.filler_vocab < 1:
            raise ConfigError(
                "key_vocab_per_label and filler_vocab must be >= 1 so the "
                "exclusive vocabularies stay disjoint and non-empty"
            )
        if self.num_docs < 1:
            raise ConfigError("num_docs must be >= 1")
        if self.num_labels < (2 if self.task_kind == TASK_MULTICLASS else 1):
            raise ConfigError(f"too few labels for {self.task_kind}")
        for lo, hi in (self.segments_per_doc, self.tokens_per_segment):
            if lo < 1 or hi < lo:
                raise ConfigError(f"bad range ({lo}, {hi})")


def _key_token(label_index: int, j: int) -> str:
    return f"key{label_index}w{j}"


def _filler_token(j: int) -> str:
    return f"fill{j}"


def generate_synthetic(spec: SyntheticSpec) -> tuple[Corpus, KeyMap]:
    """Planted-key corpus plus its ground-truth (doc, label) -> key segments.

    Every positive pair gets exactly one key segment whose first token comes
    from that label's exclusive vocabulary (remaining tokens are a 50/50 mix
    of exclusive and filler words); all other segments are filler-only, so a
    segment mentions label-i vocabulary iff it is a key segment for label i.
    """
    rng = np.random.default_rng(spec.seed)
    label_names = tuple(f"label{i}" for i in range(spec.num_labels))
    vocab = LabelVocab(names=label_names, task_kind=spec.task_kind)
    seg_lo, seg_hi = spec.segments_per_doc
    tok_lo, tok_hi = spec.tokens_per_segment

    documents = []
    key_map: KeyMap = {}
    for d in range(spec.num_docs):
        doc_id = f"doc{d:05d}"
        n_segments = int(rng.integers(seg_lo, seg_hi + 1))
        if spec.task_kind == TASK_MULTICLASS:
            positives = [int(rng.integers(0, spec.num_labels))]
        else:
            k = 1 + int(rng.integers(0, min(spec.num_labels, n_segments)))
            positives = [int(i) for i in rng.choice(spec.num_labels, size=k, replace=False)]
        key_positions = {
            int(pos): lab
            for pos, lab in zip(rng.choice(n_segments, size=len(positives), replace=False), positives)
        }
        units = []
        for k_seg in range(n_segments):
            n_tokens = int(rng.integers(tok_lo, tok_hi + 1))
            label_here = key_positions.get(k_seg)
            tokens = []
            for t in range(n_tokens):
                if label_here is not None and (
                    t == 0 or rng.random() < 0.5
                ):
                    tokens.append(_key_token(label_here, int(rng.integers(0, spec.key_vocab_per_label))))
                else:
                    tokens.append(_filler_token(int(rng.integers(0, spec.filler_vocab))))
            units.append(" ".join(tokens))
        documents.append(
            Document(
                id=doc_id,
                units=tuple(units),
                labels=tuple(label_names[i] for i in positives),
            )
        )
        for pos, lab in key_positions.items():
            key_map[(doc_id, label_names[lab])] = (pos,)
    return Corpus(documents=documents, vocab=vocab), key_map


def write_key_map(key_map: KeyMap, path) -> None:
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for (doc_id, label), segments in key_map.items():
            rec = {"doc_id": doc_id, "label": label, "key_segments": list(segments)}
            fh.write(json.dumps(rec) + "\n")


def load_key_map(path, labels) -> KeyMap:
    """Key map records by (doc_id, label); a record whose label is not in
    `labels` raises ParseError at its line, as a malformed one does."""
    known = set(labels)
    key_map: KeyMap = {}
    for lineno, raw in jsonl_records(path):
        try:
            segments = raw["key_segments"]
            if not isinstance(segments, list) or any(type(k) is not int or k < 0
                                                     for k in segments):
                raise TypeError("key_segments must be an array of non-negative integers, "
                                f"got {segments!r}")
            doc_id, label = record_key(raw, "doc_id"), record_key(raw, "label")
            if label not in known:
                raise ValueError(f"unknown label {label!r}")
            key_map[(doc_id, label)] = tuple(segments)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}:{lineno}: bad key map record: {exc}") from exc
    return key_map
