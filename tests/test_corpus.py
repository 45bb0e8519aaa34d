import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swipe.corpus import (
    Corpus,
    Document,
    LabelVocab,
    SyntheticSpec,
    TASK_MULTICLASS,
    TASK_MULTILABEL,
    generate_synthetic,
    iter_documents,
    jsonl_records,
    load_jsonl,
    load_key_map,
    record_key,
    split_corpus,
    write_jsonl,
    write_key_map,
)
from swipe.errors import ConfigError, ParseError, ValidationError
from swipe.truncate import tokenize


def _write(tmp_path, lines, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


class TestLoad:
    def test_first_seen_label_order(self, tmp_path):
        path = _write(tmp_path, [
            json.dumps({"id": "1", "text": "x", "labels": ["a"]}),
            json.dumps({"id": "2", "text": "y", "labels": ["b"]}),
            json.dumps({"id": "3", "text": "z", "labels": ["a"]}),
        ])
        corpus = load_jsonl(path, TASK_MULTICLASS)
        assert corpus.vocab.names == ("a", "b")
        assert len(corpus.vocab) == 2

    def test_empty_text_and_units_rejected(self, tmp_path):
        path = _write(tmp_path, [json.dumps({"id": "1", "text": "", "labels": ["a"]})])
        with pytest.raises(ValidationError):
            load_jsonl(path, TASK_MULTILABEL)

    def test_multiclass_needs_exactly_one_label(self, tmp_path):
        path = _write(tmp_path, [
            json.dumps({"id": "1", "text": "x", "labels": ["a", "b"]}),
            json.dumps({"id": "2", "text": "y", "labels": ["b"]}),
        ])
        with pytest.raises(ValidationError):
            load_jsonl(path, TASK_MULTICLASS)

    def test_malformed_line_names_line_number(self, tmp_path):
        path = _write(tmp_path, [
            json.dumps({"id": "1", "text": "x", "labels": ["a"]}),
            "{not json",
        ])
        with pytest.raises(ParseError, match=":2"):
            load_jsonl(path, TASK_MULTILABEL)

    @pytest.mark.parametrize("name, record", [
        ("corpus.jsonl", {"id": "1", "units": "hello world", "labels": ["a"]}),
        ("corpus.jsonl", {"id": "1", "text": "x", "labels": "ab"}),
        ("corpus.jsonl", {"id": "1", "text": ["alpha", "beta"], "labels": ["a"]}),
        ("corpus.jsonl", {"id": "1", "text": None, "labels": ["a"]}),
        ("keymap.jsonl", {"doc_id": "1", "label": "a", "key_segments": "12"}),
        ("keymap.jsonl", {"doc_id": "1", "label": "a", "key_segments": [1.5]}),
        ("keymap.jsonl", {"doc_id": "1", "label": "a", "key_segments": [0, -1]}),
        ("keymap.jsonl", {"doc_id": "1", "label": "zzz", "key_segments": [0]}),
    ])
    def test_wrongly_typed_field_names_line(self, tmp_path, name, record):
        path = _write(tmp_path, ["", json.dumps(record)], name)
        with pytest.raises(ParseError, match=rf"{name}:2: "):
            if name == "keymap.jsonl":
                load_key_map(path, ("a",))
            else:
                load_jsonl(path, TASK_MULTILABEL)

    @pytest.mark.parametrize("record", [
        {"id": "1", "text": "hello \ud800 world", "labels": ["a"]},
        {"id": "1", "units": ["caf\u00e9", "\udfff"], "labels": ["a"]},
        {"id": "1", "text": "x", "labels": ["\ud800"]},
        {"id": "1", "units": [1, {"a": 2}, None], "labels": ["a"]},
        {"id": "1", "text": "x", "labels": ["a", 1]},
    ])
    def test_non_string_or_unencodable_entry_names_line(self, tmp_path, record):
        path = _write(tmp_path, ["", json.dumps(record)])
        with pytest.raises(ParseError, match=r"corpus\.jsonl:2: .*must hold strings"):
            load_jsonl(path, TASK_MULTILABEL)

    @pytest.mark.parametrize("bad", [None, True, 1.0, [1], {"a": 2}])
    def test_id_neither_string_nor_integer_names_line(self, tmp_path, bad):
        good = {"id": 7, "text": "x", "labels": ["a"]}
        path = _write(tmp_path, [json.dumps(good)])
        assert [doc.id for doc in load_jsonl(path, TASK_MULTILABEL).documents] == ["7"]
        path = _write(tmp_path, [json.dumps(good), json.dumps({**good, "id": bad})])
        with pytest.raises(ParseError, match=r"corpus\.jsonl:2: 'id' must be a string or"):
            load_jsonl(path, TASK_MULTILABEL)

    @pytest.mark.parametrize("key", ["doc_id", "label"])
    @pytest.mark.parametrize("bad", [None, False, 2.5, ["d"], {"a": 2}])
    def test_key_map_id_or_label_neither_string_nor_integer_names_line(self, tmp_path, key,
                                                                       bad):
        good = {"doc_id": 3, "label": 1, "key_segments": [0]}
        path = _write(tmp_path, [json.dumps(good)], "keymap.jsonl")
        assert load_key_map(path, ("1",)) == {("3", "1"): (0,)}
        path = _write(tmp_path, [json.dumps(good), json.dumps({**good, key: bad})],
                      "keymap.jsonl")
        with pytest.raises(ParseError, match=rf"keymap\.jsonl:2: .*'{key}' must be a string"):
            load_key_map(path, ("1",))

    def test_non_ascii_strings_load_unchanged(self, tmp_path):
        record = {"id": "1", "units": ["caf\u00e9", "\U0001f600 \u0130stanbul"],
                  "labels": ["\u00e9t\u00e9"]}
        path = _write(tmp_path, [json.dumps(record)])
        doc = load_jsonl(path, TASK_MULTILABEL).documents[0]
        assert doc.units == tuple(record["units"]) and doc.labels == ("\u00e9t\u00e9",)

    def test_duplicate_id_rejected(self, tmp_path):
        path = _write(tmp_path, [
            json.dumps({"id": "1", "text": "x", "labels": ["a"]}),
            json.dumps({"id": "1", "text": "y", "labels": ["a"]}),
        ])
        with pytest.raises(ValidationError, match="duplicate"):
            load_jsonl(path, TASK_MULTILABEL)

    def test_missing_split_defaults_to_train(self, tmp_path):
        path = _write(tmp_path, [json.dumps({"id": "1", "text": "x", "labels": ["a"]})])
        corpus = load_jsonl(path, TASK_MULTILABEL)
        assert corpus.documents[0].split is None
        assert corpus.documents[0].effective_split() == "train"

    def test_round_trip_exact(self, tmp_path):
        docs = [
            Document(id="a", text="Some text.", labels=("x", "y"), split="test"),
            Document(id="b", units=("turn one", "turn two"), labels=("y",)),
            Document(id="c", text="more", labels=()),
        ]
        corpus = Corpus(documents=docs, vocab=LabelVocab(("x", "y"), TASK_MULTILABEL))
        path = tmp_path / "out.jsonl"
        write_jsonl(corpus, path)
        loaded = load_jsonl(path, TASK_MULTILABEL)
        assert loaded.documents == docs
        assert loaded.vocab == corpus.vocab


class TestVocab:
    def test_unique_names(self):
        with pytest.raises(ValidationError):
            LabelVocab(("a", "a"), TASK_MULTILABEL)

    def test_multiclass_needs_two(self):
        with pytest.raises(ValidationError):
            LabelVocab(("a",), TASK_MULTICLASS)

    def test_bits(self):
        vocab = LabelVocab(("a", "b", "c"), TASK_MULTILABEL)
        assert list(vocab.bits(("c", "a"))) == [1.0, 0.0, 1.0]
        with pytest.raises(ValidationError):
            vocab.index("nope")
        docs = [Document(id="1", text="x", labels=("c", "a")),
                Document(id="2", text="x", labels=())]
        assert vocab.gold(docs).tolist() == [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
        assert vocab.gold([]).shape == (0, 3)


class TestSplit:
    def _corpus(self, n):
        docs = [Document(id=f"d{i}", text="t", labels=("a",)) for i in range(n)]
        return Corpus(documents=docs, vocab=LabelVocab(("a",), TASK_MULTILABEL))

    def test_counts_forced_by_fractions(self):
        out = split_corpus(self._corpus(100), (0.8, 0.1, 0.1), seed=7)
        assert len(out.split_docs("train")) == 80
        assert len(out.split_docs("dev")) == 10
        assert len(out.split_docs("test")) == 10

    def test_deterministic(self):
        a = split_corpus(self._corpus(50), (0.6, 0.2, 0.2), seed=7)
        b = split_corpus(self._corpus(50), (0.6, 0.2, 0.2), seed=7)
        assert [d.split for d in a.documents] == [d.split for d in b.documents]
        c = split_corpus(self._corpus(50), (0.6, 0.2, 0.2), seed=8)
        assert [d.split for d in a.documents] != [d.split for d in c.documents]

    def test_explicit_tags_preserved(self):
        docs = [Document(id=f"d{i}", text="t", labels=("a",)) for i in range(20)]
        docs[3] = Document(id="d3", text="t", labels=("a",), split="test")
        corpus = Corpus(documents=docs, vocab=LabelVocab(("a",), TASK_MULTILABEL))
        out = split_corpus(corpus, (1.0, 0.0, 0.0), seed=0)
        assert out.get("d3").split == "test"
        assert all(d.split == "train" for d in out.documents if d.id != "d3")

    @pytest.mark.parametrize("fractions", [(1.2, -0.1, -0.1), (0.5, 0.5, float("nan"))])
    def test_a_fraction_not_at_least_zero_is_rejected(self, fractions):
        with pytest.raises(ValidationError, match=">= 0"):
            split_corpus(self._corpus(10), fractions, seed=0)

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValidationError):
            split_corpus(self._corpus(10), (0.5, 0.2, 0.2), seed=0)


class TestSynthetic:
    def test_generator_soundness_exhaustive_scan(self):
        # a segment mentions label-i key vocabulary iff the key map says so
        spec = SyntheticSpec(num_docs=200, num_labels=2, seed=13)
        corpus, key_map = generate_synthetic(spec)
        for doc in corpus.documents:
            for i, label in enumerate(corpus.vocab.names):
                keys = set(key_map.get((doc.id, label), ()))
                for k, unit in enumerate(doc.units):
                    has_key_token = any(
                        tok.startswith(f"key{i}w") for tok in tokenize(unit)
                    )
                    assert has_key_token == (k in keys), (doc.id, label, k)

    def test_every_positive_pair_has_a_key_segment(self):
        spec = SyntheticSpec(num_docs=200, num_labels=3, seed=13)
        corpus, key_map = generate_synthetic(spec)
        for doc in corpus.documents:
            for label in doc.labels:
                assert len(key_map[(doc.id, label)]) >= 1

    def test_key_map_entry_implies_document_label(self):
        spec = SyntheticSpec(num_docs=100, num_labels=2, seed=5)
        corpus, key_map = generate_synthetic(spec)
        for (doc_id, label) in key_map:
            assert label in corpus.get(doc_id).labels

    def test_deterministic_under_seed(self):
        spec = SyntheticSpec(num_docs=50, num_labels=2, seed=21)
        a_corpus, a_map = generate_synthetic(spec)
        b_corpus, b_map = generate_synthetic(spec)
        assert a_corpus.documents == b_corpus.documents
        assert a_map == b_map

    def test_multiclass_mode_single_label(self):
        spec = SyntheticSpec(num_docs=50, num_labels=3, seed=2,
                             task_kind=TASK_MULTICLASS)
        corpus, _ = generate_synthetic(spec)
        assert all(len(d.labels) == 1 for d in corpus.documents)

    def test_bad_vocab_counts_rejected(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(key_vocab_per_label=0)
        with pytest.raises(ConfigError):
            SyntheticSpec(filler_vocab=0)

    def test_key_map_sidecar_round_trip(self, tmp_path):
        spec = SyntheticSpec(num_docs=40, num_labels=2, seed=3)
        corpus, key_map = generate_synthetic(spec)
        path = tmp_path / "keymap.jsonl"
        write_key_map(key_map, path)
        assert load_key_map(path, corpus.vocab.names) == key_map


# -- the JSONL readers against json.loads ---------------------------------------

def _reference_records(path):
    """`jsonl_records` as `json.loads` reads each line."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line = line.decode("utf-8")
                if not line.strip():
                    continue
                raw = json.loads(line)
            except UnicodeDecodeError:
                raise ParseError(f"{path}:{lineno}: not valid UTF-8") from None
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from None
            if not isinstance(raw, dict):
                raise ParseError(f"{path}:{lineno}: record must be a JSON object")
            yield lineno, raw


def _reference_documents(path):
    """`iter_documents` over `_reference_records`, checking each string alone."""
    for lineno, raw in _reference_records(path):
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
        for value in [text, *(units or ()), *labels]:
            try:
                value.encode("utf-8")
            except (AttributeError, UnicodeEncodeError):
                raise ParseError(
                    f"{path}:{lineno}: 'text', 'units' and 'labels' must hold strings "
                    "that UTF-8 can encode (no lone surrogates)") from None
        try:
            yield Document(id=doc_id, text=text, labels=tuple(labels),
                           units=tuple(units) if units is not None else None,
                           split=raw.get("split"))
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc


def _outcome(read):
    """The list `read()` gives, or the type and text of what it raises."""
    try:
        return list(read())
    except (ParseError, ValidationError) as exc:
        return type(exc).__name__, str(exc)


_STRINGS = st.text(st.sampled_from(["a", "b", " ", "é", "\u3000", "\U0001f600", '"',
                                    "\\", "\x00", "\ud800", "\udfff"]), max_size=5)
_DOCUMENTS = st.fixed_dictionaries(
    {"id": st.one_of(_STRINGS, st.integers(-3, 3), st.none())},
    optional={"text": st.one_of(_STRINGS, st.none()),
              "units": st.one_of(st.lists(st.one_of(_STRINGS, st.integers(0, 2), st.none()),
                                          max_size=3), _STRINGS),
              "labels": st.lists(st.one_of(st.sampled_from(["a", "b", "a"]), _STRINGS,
                                           st.integers(0, 1)), max_size=3),
              "split": st.sampled_from(["train", "test", "nope"])})
_KEY_RECORDS = st.fixed_dictionaries(
    {"doc_id": st.one_of(st.sampled_from(["d0", "d1"]), st.integers(0, 2), st.booleans()),
     "label": st.one_of(st.sampled_from(["a", "b", "zz"]), _STRINGS),
     "key_segments": st.one_of(st.lists(st.integers(-1, 9), max_size=3),
                               st.lists(st.floats(allow_nan=True), max_size=1), st.text())})


def _jsonl(records):
    """Lines (bytes, no line end) around the records drawn: JSON as written,
    padded, broken or replaced by the edge cases of the JSON reader."""
    line = st.one_of(records.map(json.dumps),
                     records.map(lambda r: json.dumps(r, ensure_ascii=False)),
                     records.map(lambda r: f" \t{json.dumps(r, indent=1)} "))
    edge = st.sampled_from([
        "", "   ", "\t", "\u3000", "\x0b",  # blank lines are skipped
        '\ufeff{"id": "bom", "text": "x"}',  # Unexpected UTF-8 BOM
        " \ufeff{}", "{} x", '{"id": "x", "text": "y"}{"id": "z"}', "{}{}",
        "[1]", "1", '"text"', "null", "NaN", "-Infinity",
        '{"id": "n", "text": "x", "labels": [], "score": NaN}',
        '{"doc_id": "d0", "label": "a", "key_segments": [Infinity]}',
        '{"id": "s", "text": "\\ud800"}', '{"id": "s", "units": ["ok", "\\udfff"]}',
        '{"id": "s", "text": "x", "labels": ["\\ud800\\udc00", "\\udc00"]}',
        '{"id": "s", "units": [1, null]}', '{"id": "truncated", ', "{not json",
        '{"a": 1e999}', '{"a": 1, "a": 2}',
    ])
    encoded = st.one_of(line, edge).map(lambda text: text.encode("utf-8", "surrogatepass"))
    broken = st.sampled_from([b"\xff\xfe{}", b'{"id": "\xc3"}', b"\xef\xbb\xbf{}"])
    return st.tuples(st.lists(st.one_of(encoded, broken), max_size=6),
                     st.sampled_from([b"\n", b"\r\n", b"\r"]), st.booleans())


def _write_lines(path, drawn):
    lines, ending, last_ended = drawn
    data = ending.join(lines) + (ending if last_ended and lines else b"")
    path.write_bytes(data)
    return path


@settings(max_examples=300, deadline=None)
@given(drawn=_jsonl(_DOCUMENTS))
def test_readers_of_documents_match_json_loads_line_by_line(tmp_path_factory, drawn):
    path = _write_lines(tmp_path_factory.mktemp("jsonl") / "corpus.jsonl", drawn)
    assert _outcome(lambda: jsonl_records(path)) == _outcome(lambda: _reference_records(path))
    assert _outcome(lambda: iter_documents(path)) == _outcome(lambda: _reference_documents(path))


@settings(max_examples=300, deadline=None)
@given(drawn=_jsonl(_KEY_RECORDS))
def test_key_map_reader_matches_json_loads_line_by_line(tmp_path_factory, drawn):
    path = _write_lines(tmp_path_factory.mktemp("jsonl") / "keymap.jsonl", drawn)
    assert _outcome(lambda: jsonl_records(path)) == _outcome(lambda: _reference_records(path))
    with mock.patch("swipe.corpus.jsonl_records", _reference_records):
        expected = _outcome(lambda: load_key_map(path, ("a", "b")).items())
    assert _outcome(lambda: load_key_map(path, ("a", "b")).items()) == expected
