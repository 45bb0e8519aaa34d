import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swipe.corpus import Document
from swipe.errors import ConfigError, ValidationError
from swipe.truncate import (
    _TOKEN_RE,
    EMPTY_UNIT_TOKEN,
    TruncationConfig,
    tokenize,
    truncate,
    truncate_auto,
    truncate_punct,
    truncate_struct,
)


class TestTokenize:
    def test_punctuation_becomes_standalone_tokens(self):
        assert tokenize("The cat sat.") == ["the", "cat", "sat", "."]

    def test_empty(self):
        assert tokenize("") == []

    def test_whitespace_collapse(self):
        assert tokenize("A  b\tc") == ["a", "b", "c"]

    def test_dotted_capital_i_is_one_token(self):
        # "İ".lower() is "i" + U+0307 (combining dot above), which is not
        # alphanumeric; the word is matched before it is lowered, so it stays whole
        assert tokenize("İstanbul") == ["i\u0307stanbul"]
        assert tokenize("İstanbul, İzmir.") == ["i\u0307stanbul", ",", "i\u0307zmir", "."]

    def test_tokens_are_lowered_one_by_one(self):
        # a final sigma is one that ends its token, whatever follows the token
        assert tokenize("ΟΔΟΣ.Α ΟΔΟΣ") == ["οδος", ".", "α", "οδος"]


# Characters where `str.split`/`str.isalnum` and the regex could part ways:
# a capital whose lowercase is two code points, the separators U+001C-U+001F,
# NEL, NBSP, the line separator and the ideographic space, the underscore,
# numerals that are not decimal digits, a combining accent, CJK and digits;
# and where lowering the text and lowering each token could: capital sigma,
# whose lowercase depends on its neighbours, a modifier letter and an
# apostrophe (both skipped when those neighbours are read) and the Kelvin
# sign, whose lowercase is ASCII.
_TRICKY = ("İ\u0307\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000_²½\u0301東京ß"
           "ΣΑσς\u02b0'\u212a0123456789 \t\n.-aZ")


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet=st.one_of(st.sampled_from(_TRICKY), st.characters())))
def test_tokenize_equals_the_regex_with_each_token_lowered(text):
    assert tokenize(text) == [token.lower() for token in _TOKEN_RE.findall(text)]


def test_lowering_keeps_what_tokenize_relies_on_for_every_code_point():
    # the facts `tokenize`'s docstring names, on this interpreter's Unicode
    # database: lowering maps no character into or out of whitespace, none
    # that is not alphanumeric to an alphanumeric string; and a capital
    # sigma, lowered by what surrounds it, never looks past whitespace
    for c in map(chr, range(0x110000)):
        if c.isspace():
            assert ("ΑΣ" + c + "Α").lower().split() == ["ας", "α"], hex(ord(c))
        low = c.lower()
        if low == c:
            continue
        assert not any(map(str.isspace, (c, *low))), hex(ord(c))
        assert c.isalnum() or not low.isalnum(), hex(ord(c))


class TestConfig:
    def test_overlap_must_be_below_window(self):
        with pytest.raises(ConfigError):
            TruncationConfig(strategy="auto", window_len=4, overlap=4)

    def test_unknown_strategy(self):
        with pytest.raises(ConfigError):
            TruncationConfig(strategy="bert")

    def test_defaults(self):
        cfg = TruncationConfig()
        assert cfg.window_len == 64 and cfg.overlap == 0


def _doc(text):
    return Document(id="d", text=text, labels=("x",))


class TestAuto:
    def test_no_overlap_sizes(self):
        doc = _doc(" ".join(f"w{i}" for i in range(10)))
        segs = truncate_auto(doc, TruncationConfig(window_len=4, overlap=0))
        assert [len(s.tokens) for s in segs] == [4, 4, 2]

    def test_overlap_positions(self):
        # 10 tokens, window 4, stride 2 -> starts at 0,2,4,6,8
        doc = _doc(" ".join(f"w{i}" for i in range(10)))
        segs = truncate_auto(doc, TruncationConfig(window_len=4, overlap=2))
        assert len(segs) == 5
        assert [s.tokens[0] for s in segs] == ["w0", "w2", "w4", "w6", "w8"]

    def test_short_document_single_segment(self):
        segs = truncate_auto(_doc("a b c"), TruncationConfig(window_len=4))
        assert len(segs) == 1 and segs[0].tokens == ("a", "b", "c")

    def test_indices_contiguous(self):
        doc = _doc(" ".join(f"w{i}" for i in range(23)))
        segs = truncate_auto(doc, TruncationConfig(window_len=5, overlap=1))
        assert [s.index for s in segs] == list(range(len(segs)))

    def test_coverage_with_overlap_zero_is_exact(self):
        doc = _doc("one two three. four five six seven")
        segs = truncate_auto(doc, TruncationConfig(window_len=3, overlap=0))
        flat = [t for s in segs for t in s.tokens]
        assert flat == tokenize(doc.text)

    def test_empty_tokenization_rejected(self):
        with pytest.raises(ValidationError):
            truncate_auto(_doc("   "), TruncationConfig(window_len=4))


@settings(max_examples=60, deadline=None)
@given(
    n_tokens=st.integers(1, 60),
    window=st.integers(1, 12),
    overlap_frac=st.floats(0, 0.99),
)
def test_auto_coverage_superset(n_tokens, window, overlap_frac):
    overlap = int(window * overlap_frac) % window
    stride = window - overlap
    doc = _doc(" ".join(f"w{i}" for i in range(n_tokens)))
    segs = truncate_auto(doc, TruncationConfig(window_len=window, overlap=overlap))
    covered = {t for s in segs for t in s.tokens}
    assert covered == set(tokenize(doc.text))
    assert len(segs) == len(range(0, n_tokens, stride))
    for k, seg in enumerate(segs):
        assert len(seg.tokens) == min(window, n_tokens - k * stride)


class TestPunct:
    def test_no_merge_when_pairs_exceed_cap(self):
        segs = truncate_punct(_doc("A b. C d. E f."), TruncationConfig(max_seg_len=4))
        assert [list(s.tokens) for s in segs] == [
            ["a", "b", "."], ["c", "d", "."], ["e", "f", "."]]

    def test_greedy_merge(self):
        segs = truncate_punct(_doc("A b. C d. E f."), TruncationConfig(max_seg_len=6))
        assert [list(s.tokens) for s in segs] == [
            ["a", "b", ".", "c", "d", "."], ["e", "f", "."]]

    def test_long_sentence_hard_split(self):
        doc = _doc(" ".join(f"w{i}" for i in range(10)))
        segs = truncate_punct(doc, TruncationConfig(max_seg_len=4))
        assert [len(s.tokens) for s in segs] == [4, 4, 2]

    def test_no_terminator_is_one_sentence(self):
        segs = truncate_punct(_doc("a b c d"), TruncationConfig(max_seg_len=10))
        assert len(segs) == 1

    def test_concat_reproduces_tokenized_document(self):
        text = "First one. Then two! Finally three? done"
        segs = truncate_punct(_doc(text), TruncationConfig(max_seg_len=5))
        flat = [t for s in segs for t in s.tokens]
        assert flat == tokenize(text)

    def test_hard_split_chunks_do_not_merge_with_next_sentence(self):
        doc = _doc(" ".join(f"w{i}" for i in range(5)) + ". a b.")
        segs = truncate_punct(doc, TruncationConfig(max_seg_len=4))
        # 6-token sentence splits [4, 2]; the trailing 3-token sentence stays alone
        assert [len(s.tokens) for s in segs] == [4, 2, 3]


class TestStruct:
    def test_one_segment_per_unit(self):
        doc = Document(id="d", units=("hello there", "ok", "bye now", "yes", "no"),
                       labels=("x",))
        segs = truncate_struct(doc, TruncationConfig(strategy="structure"))
        assert [s.index for s in segs] == [0, 1, 2, 3, 4]
        assert segs[0].tokens == ("hello", "there")

    def test_empty_unit_keeps_alignment(self):
        doc = Document(id="d", units=("hello", "  ", "bye"), labels=("x",))
        segs = truncate_struct(doc, TruncationConfig(strategy="structure"))
        assert len(segs) == 3
        assert segs[1].tokens == (EMPTY_UNIT_TOKEN,)

    def test_missing_units_rejected(self):
        with pytest.raises(ValidationError):
            truncate_struct(_doc("plain text"), TruncationConfig(strategy="structure"))


def test_dispatch_matches_strategies():
    doc = Document(id="d", text="a b. c d.", units=("a b", "c d"), labels=("x",))
    assert truncate(doc, TruncationConfig(strategy="auto", window_len=3))[0].tokens == ("a", "b", ".")
    assert len(truncate(doc, TruncationConfig(strategy="structure"))) == 2
    assert len(truncate(doc, TruncationConfig(strategy="punct", max_seg_len=3))) == 2


def test_determinism():
    doc = _doc("Some long text. With more sentences! And a question? yes")
    cfg = TruncationConfig(strategy="punct", max_seg_len=5)
    assert truncate(doc, cfg) == truncate(doc, cfg)
