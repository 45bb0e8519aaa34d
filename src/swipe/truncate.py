"""Split long documents into ordered segments.

Three strategies:

* ``auto``      - fixed-length sliding window over tokens, optional overlap
* ``punct``     - sentence split at terminator punctuation, greedy merge up
                  to a token cap
* ``structure`` - one segment per pre-segmented unit (e.g. dialogue turn)
"""

from __future__ import annotations

import re
from typing import NamedTuple

from swipe.config import TruncationConfig
from swipe.corpus import Document
from swipe.errors import ValidationError

# Alphanumeric runs stay together; every other non-space character (and the
# underscore) becomes a standalone token.
_TOKEN_RE = re.compile(r"[^\W_]+|[^\w\s]|_", re.UNICODE)

EMPTY_UNIT_TOKEN = "<empty>"


class Segment(NamedTuple):
    """One truncated piece of a document."""

    doc_id: str
    index: int
    tokens: tuple[str, ...]


def tokenize(text: str) -> list[str]:
    """Lowercased whitespace/punctuation tokenization. Deterministic.

    Equal to `[t.lower() for t in _TOKEN_RE.findall(text)]`: tokens are
    matched on the original text and lowered one by one, so lowering cannot
    split a word (`İstanbul` lowers to `i`, U+0307 COMBINING DOT ABOVE and
    `stanbul`, which is not alphanumeric, yet it is one token).

    `str.split` splits at the `str.isspace` characters, which are `re`'s
    `\\s`, and a word that is all `str.isalnum` (`re`'s `[^\\W_]`) is one
    alphanumeric run. Lowering maps no character into or out of whitespace
    and none that is not alphanumeric to an alphanumeric one, so when every
    lowered word is alphanumeric, each is its original word's one token,
    lowered (a capital sigma's lowercase depends on its neighbours, but not
    across whitespace), and the regex is skipped. `tests/test_truncate.py`
    checks these facts over every code point.
    """
    words = text.lower().split()
    if all(map(str.isalnum, words)):
        return words
    return [token.lower() for token in _TOKEN_RE.findall(text)]


def truncate(doc: Document, cfg: TruncationConfig) -> list[Segment]:
    """Dispatch to the configured strategy."""
    if cfg.strategy == "auto":
        return truncate_auto(doc, cfg)
    if cfg.strategy == "punct":
        return truncate_punct(doc, cfg)
    return truncate_struct(doc, cfg)


def _make_segments(doc_id, runs, tokens) -> list[Segment]:
    return [
        Segment(doc_id, k, tuple(tokens[start:end]))
        for k, (start, end) in enumerate(runs)
    ]


def truncate_auto(doc: Document, cfg: TruncationConfig) -> list[Segment]:
    """Sliding window of `window_len` tokens advancing by window - overlap.

    One segment per stride position below the token count, so trailing
    windows shrink as they run out of tokens.
    """
    tokens = tokenize(doc.full_text())
    if not tokens:
        raise ValidationError(f"document {doc.id!r} produced no tokens")
    stride = cfg.window_len - cfg.overlap
    runs = [
        (start, min(start + cfg.window_len, len(tokens)))
        for start in range(0, len(tokens), stride)
    ]
    return _make_segments(doc.id, runs, tokens)


def _sentence_runs(tokens: list[str], terminators: frozenset[str]) -> list[tuple[int, int]]:
    """Half-open [start, end) token runs, one per sentence."""
    runs = []
    start = 0
    for i, tok in enumerate(tokens):
        if tok in terminators:
            runs.append((start, i + 1))
            start = i + 1
    if start < len(tokens):
        runs.append((start, len(tokens)))
    return runs


def truncate_punct(doc: Document, cfg: TruncationConfig) -> list[Segment]:
    """Sentence split, then greedy merge while staying <= max_seg_len tokens.

    A single sentence longer than the cap is hard-split at max_seg_len; its
    chunks are never merged with neighbouring sentences.
    """
    tokens = tokenize(doc.full_text())
    if not tokens:
        raise ValidationError(f"document {doc.id!r} produced no tokens")
    pieces: list[tuple[int, int]] = []
    buf: tuple[int, int] | None = None
    for start, end in _sentence_runs(tokens, cfg.sentence_terminators):
        if end - start > cfg.max_seg_len:
            if buf is not None:
                pieces.append(buf)
                buf = None
            while end - start > cfg.max_seg_len:
                pieces.append((start, start + cfg.max_seg_len))
                start += cfg.max_seg_len
            pieces.append((start, end))
        elif buf is None:
            buf = (start, end)
        elif end - buf[0] <= cfg.max_seg_len:
            buf = (buf[0], end)
        else:
            pieces.append(buf)
            buf = (start, end)
    if buf is not None:
        pieces.append(buf)
    return _make_segments(doc.id, pieces, tokens)


def truncate_struct(doc: Document, cfg: TruncationConfig) -> list[Segment]:
    """One segment per structural unit, order preserved.

    A unit that tokenizes to nothing is kept as a single reserved token so
    segment indices stay aligned with unit-level annotations.
    """
    if not doc.units:
        raise ValidationError(
            f"document {doc.id!r} has no structural units; "
            "use the auto or punct strategy instead"
        )
    segments = []
    for k, unit in enumerate(doc.units):
        tokens = tokenize(unit) or [EMPTY_UNIT_TOKEN]
        segments.append(Segment(doc.id, k, tuple(tokens)))
    return segments
