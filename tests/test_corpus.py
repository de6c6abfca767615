import dataclasses
import gc
import hashlib
import json
import os
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import pairtune.corpus
from pairtune.corpus import (
    BY_CLASS,
    CorpusError,
    LabeledExample,
    RANDOM_BY_EXAMPLE,
    SplitSpec,
    VectorTable,
    load_corpus,
    load_vectors,
    split_corpus,
    write_corpus,
    write_vectors,
)

from pairtune.synthetic import synthetic_corpus

from conftest import make_corpus, write_jsonl


class TestLoadCorpus:
    def test_four_line_file_two_classes(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [
            ("t1", "alpha one", "a"),
            ("t2", "alpha two", "a"),
            ("t3", "beta one", "b"),
            ("t4", "beta two", "b"),
        ])
        corpus = load_corpus(path)
        assert corpus.n_classes == 2
        assert [len(v) for v in corpus.class_index.values()] == [2, 2]
        assert [ex.id for ex in corpus.examples] == ["t1", "t2", "t3", "t4"]
        assert corpus.dataset_id == "c"

    def test_duplicate_id_error_names_id(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [
            ("t1", "x", "a"), ("t1", "y", "b"),
        ])
        with pytest.raises(CorpusError, match="duplicate id 't1'"):
            load_corpus(path)

    def test_empty_text_rejected_not_skipped(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [
            ("t1", "x", "a"), ("t2", "   ", "b"),
        ])
        with pytest.raises(CorpusError, match="empty text"):
            load_corpus(path)

    def test_fewer_than_two_classes(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [("t1", "x", "a"), ("t2", "y", "a")])
        with pytest.raises(CorpusError, match="at least 2"):
            load_corpus(path)

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "t1", "text": "x", "label": "a"}\nnot json\n')
        with pytest.raises(CorpusError, match=r":2: invalid JSON"):
            load_corpus(path)

    def test_missing_field_carries_line_number(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "t1", "label": "a"}\n')
        with pytest.raises(CorpusError, match=r":1: missing field 'text'"):
            load_corpus(path)

    def test_delimited_text_with_reordered_header(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("label\tid\ttext\na\tt1\thello there\nb\tt2\tbye now\n")
        corpus = load_corpus(path)
        assert corpus.examples[0].text == "hello there"
        assert corpus.examples[1].class_label == "b"

    def test_delimited_field_count_mismatch(self, tmp_path):
        path = tmp_path / "c.tsv"
        path.write_text("id\ttext\tlabel\nt1\thello\ta\nt2\tmissing-label\n")
        with pytest.raises(CorpusError, match=r":3: expected 3 fields, got 2"):
            load_corpus(path)

    def test_crisis_scale_corpus_has_eleven_classes(self, tmp_path):
        # 23,000 records spread over 11 event labels
        rows = [
            (f"t{i}", f"event text {i}", f"event{i % 11}") for i in range(23_000)
        ]
        corpus = load_corpus(write_jsonl(tmp_path / "crisis.jsonl", rows))
        assert corpus.n_classes == 11
        assert len(corpus) == 23_000

    def test_unicode_text_stored_as_given(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(
            json.dumps({"id": "t1", "text": "Grüße ☔", "label": "a"}, ensure_ascii=False)
            + "\n"
            + json.dumps({"id": "t2", "text": "ok", "label": "b"})
            + "\n",
            encoding="utf-8",
        )
        corpus = load_corpus(path)
        assert corpus.examples[0].text == "Grüße ☔"


class TestLeanExamples:
    """A loaded example is slotted and shares its class's label string."""

    def test_an_example_has_no_instance_dict(self, tmp_path):
        path = write_jsonl(tmp_path / "c.jsonl", [("t1", "x", "a"), ("t2", "y", "b")])
        for ex in (load_corpus(path).examples[0], LabeledExample("t", "x", "a", "d")):
            assert not hasattr(ex, "__dict__")
            with pytest.raises(AttributeError):
                object.__setattr__(ex, "note", 1)
            with pytest.raises(TypeError):
                weakref.ref(ex)

    @pytest.mark.parametrize("suffix", [".jsonl", ".tsv"])
    def test_same_class_examples_share_one_label_string(self, tmp_path, suffix):
        # Labels longer than one character, which the interpreter does not cache.
        rows = [(f"t{i}", f"text {i}", f"label-{i % 3}") for i in range(12)]
        path = tmp_path / f"c{suffix}"
        write_corpus(make_corpus("c", rows), path)
        corpus = load_corpus(path)
        for label, members in corpus.class_index.items():
            assert {id(corpus.examples[i].class_label) for i in members} == {id(label)}
        assert len({id(ex.class_label) for ex in corpus.examples}) == 3

    def test_equality_hashing_and_replace_behave_as_before(self):
        ex = LabeledExample(id="t1", text="x", class_label="a", dataset_id="d")
        assert [f.name for f in dataclasses.fields(LabeledExample)] == [
            "id", "text", "class_label", "dataset_id"
        ]
        twin = LabeledExample("t1", "x", "".join(["a"]), "d")
        assert twin == ex and hash(twin) == hash(ex) and len({ex, twin}) == 1
        assert ex != LabeledExample("t1", "x", "b", "d")
        assert ex != ("t1", "x", "a", "d")
        moved = dataclasses.replace(ex, text="y")
        assert moved == LabeledExample("t1", "y", "a", "d") and ex.text == "x"
        with pytest.raises(dataclasses.FrozenInstanceError):
            ex.text = "z"
        assert repr(ex) == (
            "LabeledExample(id='t1', text='x', class_label='a', dataset_id='d')"
        )

    def test_load_holds_under_310_bytes_per_example(self, tmp_path):
        # 10,000 examples of 100 classes, 8 tokens each. Bytes the loaded
        # corpus holds per example on CPython 3.11: 374 with a per-instance
        # __dict__ and a label string per example, 334 with slots alone, 321
        # with shared labels alone, 281 with both.
        path = tmp_path / "c.jsonl"
        write_corpus(synthetic_corpus("c", 100, 100, n_groups=100, seed=1), path)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            corpus = load_corpus(path)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(corpus) == 10_000
        assert held / len(corpus) < 310, held / len(corpus)


class TestRoundTrip:
    def test_jsonl_round_trip_identical(self, tmp_path):
        corpus = make_corpus("d", [
            ("t1", "some text, with commas", "a"),
            ("t2", 'quotes "inside"', "a"),
            ("t3", "tabs\tand newlines are fine in json", "b"),
        ])
        path = tmp_path / "out.jsonl"
        write_corpus(corpus, path)
        back = load_corpus(path, dataset_id="d")
        assert back.examples == corpus.examples
        assert back.class_index == corpus.class_index

    def test_tsv_round_trip_identical(self, tmp_path):
        corpus = make_corpus("d", [("t1", "plain text", "a"), ("t2", "more", "b")])
        path = tmp_path / "out.tsv"
        write_corpus(corpus, path)
        back = load_corpus(path, dataset_id="d")
        assert back.examples == corpus.examples
        assert back.class_index == corpus.class_index

    def test_tsv_rejects_embedded_tabs(self, tmp_path):
        corpus = make_corpus("d", [("t1", "has\ttab", "a"), ("t2", "ok", "b")])
        with pytest.raises(CorpusError, match="tab or newline"):
            write_corpus(corpus, tmp_path / "out.tsv")

    def test_tsv_rejects_embedded_carriage_return(self, tmp_path):
        # The reader decodes "\r" as a line break, so such a row cannot load.
        corpus = make_corpus("d", [("t1", "has\rcr", "a"), ("t2", "ok", "b")])
        with pytest.raises(CorpusError, match="tab or newline"):
            write_corpus(corpus, tmp_path / "out.tsv")
        assert not (tmp_path / "out.tsv").exists()


class TestSplitCorpus:
    def test_random_split_8_2_and_reproducible(self):
        corpus = make_corpus("d", [
            (f"t{i}", f"text {i}", "a" if i % 2 == 0 else "b") for i in range(10)
        ])
        spec = SplitSpec(mode=RANDOM_BY_EXAMPLE, fraction=0.8, seed=42)
        train1, test1 = split_corpus(corpus, spec)
        train2, test2 = split_corpus(corpus, spec)
        assert len(train1) == 8 and len(test1) == 2
        assert [e.id for e in train1.examples] == [e.id for e in train2.examples]
        assert [e.id for e in test1.examples] == [e.id for e in test2.examples]
        # the two sides partition the input
        ids = {e.id for e in train1.examples} | {e.id for e in test1.examples}
        assert ids == {e.id for e in corpus.examples}

    def test_by_class_split_401_100(self):
        rows = []
        for c in range(501):
            rows.append((f"t{c}a", f"text {c} a", f"class{c}"))
            rows.append((f"t{c}b", f"text {c} b", f"class{c}"))
        corpus = make_corpus("events", rows)
        train, test = split_corpus(
            corpus, SplitSpec(mode=BY_CLASS, fraction=0.8, seed=7)
        )
        assert train.n_classes == 401
        assert test.n_classes == 100
        assert set(train.class_index).isdisjoint(test.class_index)

    def test_by_class_explicit_test_classes(self):
        corpus = make_corpus("d", [
            ("t1", "x", "a"), ("t2", "y", "b"), ("t3", "z", "c"), ("t4", "w", "d"),
        ])
        train, test = split_corpus(
            corpus, SplitSpec(mode=BY_CLASS, test_classes=["c", "d"])
        )
        assert sorted(train.class_index) == ["a", "b"]
        assert sorted(test.class_index) == ["c", "d"]

    def test_two_class_corpus_cannot_split_by_class(self):
        corpus = make_corpus("d", [("t1", "x", "a"), ("t2", "y", "b")])
        with pytest.raises(CorpusError, match="fewer than 2 classes"):
            split_corpus(corpus, SplitSpec(mode=BY_CLASS, test_classes=["b"]))

    def test_random_split_invalid_fraction(self):
        corpus = make_corpus("d", [("t1", "x", "a"), ("t2", "y", "b")])
        with pytest.raises(CorpusError, match="between 0 and 1"):
            split_corpus(corpus, SplitSpec(mode=RANDOM_BY_EXAMPLE, fraction=1.5))

    def test_random_split_leaving_one_class_side_fails(self):
        corpus = make_corpus("d", [
            ("t1", "x", "a"), ("t2", "y", "a"), ("t3", "z", "a"), ("t4", "w", "b"),
        ])
        # a 3/1 split leaves the single-example side with one class
        with pytest.raises(CorpusError, match="invalid (train|test) side"):
            split_corpus(corpus, SplitSpec(mode=RANDOM_BY_EXAMPLE, fraction=0.75, seed=0))

    def test_by_class_split_is_seed_stable(self):
        rows = [(f"t{c}", f"text {c}", f"class{c % 10}") for c in range(50)]
        corpus = make_corpus("d", rows)
        spec = SplitSpec(mode=BY_CLASS, fraction=0.6, seed=123)
        first = split_corpus(corpus, spec)
        second = split_corpus(corpus, spec)
        assert [e.id for e in first[0].examples] == [e.id for e in second[0].examples]
        assert sorted(first[1].class_index) == sorted(second[1].class_index)


class TestVectors:
    def test_load_three_rows_dim_four(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("dim=4\na\t1\t2\t3\t4\nb\t0\t0\t1\t0\nc\t-1\t0.5\t2\t3\n")
        table = load_vectors(path)
        assert table.dim == 4
        assert len(table) == 3
        np.testing.assert_array_equal(table["b"], [0, 0, 1, 0])

    def test_dimension_mismatch_names_row(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("dim=4\na\t1\t2\t3\t4\nb\t1\t2\t3\n")
        with pytest.raises(CorpusError, match=r":3: expected 4 values, got 3"):
            load_vectors(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("dim=2\na\t1\t2\na\t3\t4\n")
        with pytest.raises(CorpusError, match="duplicate id 'a'"):
            load_vectors(path)

    def test_non_finite_value(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("dim=2\na\t1\tnan\n")
        with pytest.raises(CorpusError, match="non-finite"):
            load_vectors(path)

    def test_512_dim_export(self, tmp_path):
        rng = np.random.default_rng(0)
        table = VectorTable(dim=512, entries={
            f"t{i}": rng.normal(size=512) for i in range(5)
        })
        path = tmp_path / "use.tsv"
        write_vectors(table, path)
        back = load_vectors(path)
        assert back.dim == 512
        assert len(back) == 5

    @pytest.mark.parametrize("text,expected", [
        ("dim=2\na\t1_0\t2\n", {"a": [10.0, 2.0]}),
        ("dim=1\na\t\u0661\u0662\n", {"a": [12.0]}),
        ("dim=2\r\na\t1\t2\r\nb\t3\t4\r\n", {"a": [1.0, 2.0], "b": [3.0, 4.0]}),
        ("dim=2\n\n  \na\t1\t2\n\n", {"a": [1.0, 2.0]}),
        ("dim=2\n\t1\t2\n", {"": [1.0, 2.0]}),
        ("dim=3\n", {}),
        ("dim=1\na\t5\nb\t-1e-310\n", {"a": [5.0], "b": [-1e-310]}),
        ("dim=2\na\t 1e5 \t\u00a0.5", {"a": [1e5, 0.5]}),
    ], ids=["underscore", "arabic-indic-digits", "crlf", "blank-lines", "empty-id",
            "header-only", "dim-1", "padded-no-final-newline"])
    def test_loads_what_float_accepts(self, tmp_path, text, expected):
        path = tmp_path / "v.tsv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = load_vectors(path)
        assert list(table.entries) == list(expected)
        for key, values in expected.items():
            assert table[key].tobytes() == np.array(values).tobytes()

    @pytest.mark.parametrize("text,message", [
        ("dim=2\na\t1\t2\nb\t1\n", ":3: expected 2 values, got 1"),
        ("dim=3\na\t1\t2\nb\t3\t4\n", ":2: expected 3 values, got 2"),
        ("dim=1\nab\n", ":2: expected 1 values, got 0"),
        ("dim=1\na\t1\na\t2\n", ":3: duplicate id 'a'"),
        ("dim=2\na\t1\tnan\n", ":2: non-finite value for id 'a'"),
        ("dim=2\na\t1\n\nb\t-inf\t2\n", ":2: expected 2 values, got 1"),
        ("dim=2\na\t1\t2\nb\tinf\t2\n", ":3: non-finite value for id 'b'"),
        ("dim=2\na\t1\tx\nb\t1\n", ":2: non-numeric value"),
        ("dim=2\na\t1\t2\nb\tnan\t1\nc\t1\t2\t3\n", ":3: non-finite value for id 'b'"),
        ("dim=1\na\t\n", ":2: non-numeric value"),
        ("dim=2\na\t\x1c1\t2\n", ":2: non-numeric value"),
        ("dim=x\na\t1\n", ":1: expected a 'dim=<N>' header"),
        ("dim=\u00b2\na\t1\n", ":1: expected a 'dim=<N>' header"),
    ], ids=["wrong-count", "same-wrong-count-everywhere", "no-tab", "duplicate", "nan", "count-before-inf", "inf",
            "first-error-wins", "non-finite-before-count", "dim-1-empty-value",
            "file-separator", "bad-header", "superscript-digit-header"])
    def test_first_error_in_line_order(self, tmp_path, text, message):
        path = tmp_path / "v.tsv"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CorpusError) as err:
                load_vectors(path)
        assert str(err.value).startswith(f"{path}{message}")

    def test_vectors_are_row_views_of_one_matrix(self, tmp_path):
        path = tmp_path / "v.tsv"
        path.write_text("dim=2\na\t1\t2\nb\t3\t4\n")
        rows = list(load_vectors(path).entries.values())
        assert rows[0].base is not None and all(row.base is rows[0].base for row in rows)

    def test_round_trip_nine_significant_digits(self, tmp_path):
        rng = np.random.default_rng(1)
        table = VectorTable(dim=8, entries={
            f"t{i}": rng.normal(size=8) * 10.0 ** rng.integers(-6, 6) for i in range(20)
        })
        path = tmp_path / "v.tsv"
        write_vectors(table, path)
        back = load_vectors(path)
        for key, vec in table.entries.items():
            np.testing.assert_allclose(back[key], vec, rtol=5e-9, atol=0)

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("bad", ["a\tb", "a\nb", "a\rb"], ids=["tab", "newline", "cr"])
    def test_id_the_reader_cannot_split_is_refused(self, tmp_path, bad, existing):
        path = tmp_path / "v.tsv"
        if existing:
            path.write_text("previous\n")
        table = VectorTable(dim=1, entries={"ok": np.ones(1), bad: np.zeros(1)})
        with pytest.raises(CorpusError, match="tab or line break"):
            write_vectors(table, path)
        assert path.read_text() == "previous\n" if existing else not path.exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("vec", [[0.5, np.nan], [np.inf, 1.0], [1.0, 2.0, 3.0], [1.0], [[1.0, 2.0]]],
                             ids=["nan", "inf", "3-values", "1-value", "2-d"])
    def test_vector_the_reader_would_refuse_is_not_written(self, tmp_path, vec, existing):
        # load_vectors refuses a non-finite value and a row of another width.
        path = tmp_path / "v.tsv"
        if existing:
            path.write_text("previous\n")
        table = VectorTable(dim=2, entries={"ok": np.ones(2), "bad": np.array(vec)})
        with pytest.raises(CorpusError, match="vector for id 'bad' is not 2 finite values"):
            write_vectors(table, path)
        assert path.read_text() == "previous\n" if existing else not path.exists()

    def test_next_line_and_line_separator_ids_round_trip(self, tmp_path):
        path = tmp_path / "v.tsv"
        write_vectors(VectorTable(dim=1, entries={"a\x85b": np.ones(1), "c\u2028d": np.zeros(1)}),
                      path)
        assert list(load_vectors(path).entries) == ["a\x85b", "c\u2028d"]


def copy_path(path):
    return path.with_name(f".{path.name}.pairtune.npz")


def load_from_copy(path, monkeypatch):
    """load_vectors with the text parser disabled, so only a copy can serve it."""
    def no_parse(p):
        raise AssertionError(f"{p} was parsed")

    with monkeypatch.context() as m:
        m.setattr(pairtune.corpus, "_parse_vectors", no_parse)
        return load_vectors(path)


def assert_same_table(got, want):
    assert got.dim == want.dim
    assert list(got.entries) == list(want.entries)
    for key, vec in want.entries.items():
        assert got[key].tobytes() == vec.tobytes(), key


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestVectorCopy:
    """The binary copy that load_vectors keeps beside a parsed vector file."""

    @pytest.mark.parametrize("text", [
        None,
        "dim=2\na\t1_0\t-0.0\n\t١\t5e-324\na\x00\t2\t3\n\xe9\x85\t-1e308\t.5\n",
    ], ids=["loadtxt", "by-line"])
    def test_cached_load_equals_the_text_parse_bit_for_bit(self, tmp_path, monkeypatch, text):
        path = tmp_path / "v.tsv"
        if text is None:
            rng = np.random.default_rng(3)
            entries = {f"e{i}": rng.normal(size=64) * 10.0 ** rng.integers(-300, 300)
                       for i in range(50, 0, -1)}
            write_vectors(VectorTable(dim=64, entries=entries), path)
        else:
            path.write_bytes(text.encode("utf-8"))
        parsed = load_vectors(path)
        assert copy_path(path).is_file() and len(parsed) >= 3
        cached = load_from_copy(path, monkeypatch)
        assert_same_table(cached, parsed)
        assert parsed.sha256 == cached.sha256 == sha256_of(path)

    def test_first_load_stores_the_parsed_matrix_without_stacking_it_again(self, tmp_path):
        # 2 MB of values, so that the digest's 1 MiB reads do not set the peak.
        path = tmp_path / "v.tsv"
        rng = np.random.default_rng(4)
        write_vectors(VectorTable(dim=256, entries={f"e{i}": rng.normal(size=256)
                                                    for i in range(1000)}), path)
        matrix = 1000 * 256 * 8
        tracemalloc.start()
        try:
            load_vectors(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert copy_path(path).is_file()
        # The parsed matrix and the one buffer np.savez writes it through;
        # stacking the table's rows into a new matrix makes three.
        assert peak < 2.5 * matrix, peak / matrix

    def test_header_only_file_round_trips(self, tmp_path, monkeypatch):
        path = tmp_path / "v.tsv"
        path.write_text("dim=3\n")
        load_vectors(path)
        table = load_from_copy(path, monkeypatch)
        assert table.dim == 3 and table.entries == {}

    def test_rewrite_at_the_same_size_and_mtime_invalidates_the_copy(self, tmp_path, monkeypatch):
        path = tmp_path / "v.tsv"
        path.write_text("dim=2\na\t1\t2\nb\t3\t4\n")
        load_vectors(path)
        stat = path.stat()
        path.write_text("dim=2\na\t1\t2\nb\t3\t5\n")
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert (path.stat().st_size, path.stat().st_mtime_ns) == (stat.st_size, stat.st_mtime_ns)
        np.testing.assert_array_equal(load_vectors(path)["b"], [3.0, 5.0])
        np.testing.assert_array_equal(load_from_copy(path, monkeypatch)["b"], [3.0, 5.0])

    def test_file_rewritten_during_the_parse_gets_no_copy(self, tmp_path, monkeypatch):
        path = tmp_path / "v.tsv"
        path.write_text("dim=2\na\t1\t2\n")
        parse = pairtune.corpus._parse_vectors

        def parse_then_rewrite(p):
            table = parse(p)
            path.write_text("dim=2\na\t1\t2\nb\t3\t4\n")
            return table

        monkeypatch.setattr(pairtune.corpus, "_parse_vectors", parse_then_rewrite)
        table = load_vectors(path)
        assert list(table.entries) == ["a"] and table.sha256 is None
        assert not copy_path(path).exists()

    @staticmethod
    def _truncated(copy, digest):
        data = copy.read_bytes()
        copy.write_bytes(data[: len(data) // 2])

    @staticmethod
    def _stored(copy, digest, ids="a\nb", values=((1.0, 2.0), (3.0, 4.0)), dim=2,
                format=pairtune.corpus._COPY_FORMAT):
        members = {} if format is None else {"format": format}
        np.savez(copy, sha256=digest, dim=dim, values=np.array(values),
                 ids=np.frombuffer(ids.encode(), dtype=np.uint8), **members)

    @pytest.mark.parametrize("damage", [
        _truncated,
        lambda copy, digest: TestVectorCopy._stored(copy, "0" * 64, values=((9.0, 9.0), (9.0, 9.0))),
        lambda copy, digest: TestVectorCopy._stored(copy, digest, values=((1.0,), (3.0,))),
        lambda copy, digest: TestVectorCopy._stored(copy, digest, values=((1.0, 2.0),)),
        lambda copy, digest: TestVectorCopy._stored(copy, digest, values=((1.0, np.nan), (3.0, 4.0))),
        lambda copy, digest: TestVectorCopy._stored(copy, digest, ids="a\na"),
        lambda copy, digest: TestVectorCopy._stored(copy, digest, dim=(2, 2)),
        lambda copy, digest: copy.write_bytes(b"not a copy"),
        lambda copy, digest: TestVectorCopy._stored(copy, digest, values=((9.0, 9.0), (9.0, 9.0)),
                                                    format=pairtune.corpus._COPY_FORMAT + 1),
        lambda copy, digest: TestVectorCopy._stored(copy, digest, values=((9.0, 9.0), (9.0, 9.0)),
                                                    format=None),
    ], ids=["truncated", "other-digest", "wrong-width", "wrong-rows", "non-finite",
            "duplicate-id", "array-dim", "not-a-zip", "other-format", "no-format"])
    def test_malformed_copy_is_ignored_and_replaced(self, tmp_path, monkeypatch, damage):
        path = tmp_path / "v.tsv"
        path.write_text("dim=2\na\t1\t2\nb\t3\t4\n")
        want = load_vectors(path)
        damage(copy_path(path), sha256_of(path))
        assert_same_table(load_vectors(path), want)
        assert_same_table(load_from_copy(path, monkeypatch), want)

    @staticmethod
    def _owned_by(monkeypatch, uid, path):
        """Make os.fstat report ``uid`` as the owner of the file at ``path``."""
        fstat = os.fstat

        def fake(fd):
            st = fstat(fd)
            if os.path.samestat(st, os.stat(path)):
                return os.stat_result(tuple(st)[:4] + (uid,) + tuple(st)[5:])
            return st

        monkeypatch.setattr(pairtune.corpus.os, "fstat", fake)

    def test_copy_owned_by_another_user_is_ignored_and_replaced(self, tmp_path, monkeypatch):
        path = tmp_path / "v.tsv"
        path.write_text("dim=2\na\t1\t2\nb\t3\t4\n")
        want = load_vectors(path)
        self._stored(copy_path(path), sha256_of(path), values=((9.0, 9.0), (9.0, 9.0)))
        foreign = max(os.getuid(), path.stat().st_uid) + 1
        with monkeypatch.context() as m:
            self._owned_by(m, foreign, copy_path(path))
            assert_same_table(load_vectors(path), want)
        assert_same_table(load_from_copy(path, monkeypatch), want)

    def test_copy_owned_by_the_files_owner_serves_another_user(self, tmp_path, monkeypatch):
        path = tmp_path / "v.tsv"
        path.write_text("dim=2\na\t1\t2\nb\t3\t4\n")
        want = load_vectors(path)
        assert copy_path(path).stat().st_uid == path.stat().st_uid
        monkeypatch.setattr(pairtune.corpus.os, "getuid", lambda: path.stat().st_uid + 1)
        assert_same_table(load_from_copy(path, monkeypatch), want)

    def test_failing_copy_write_still_returns_the_table(self, tmp_path, monkeypatch):
        path = tmp_path / "v.tsv"
        path.write_text("dim=2\na\t1\t2\nb\t3\t4\n")

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied", str(dst))

        monkeypatch.setattr(pairtune.corpus.os, "replace", refuse)
        table = load_vectors(path)
        assert list(table.entries) == ["a", "b"] and table.sha256 == sha256_of(path)
        assert [p.name for p in tmp_path.iterdir()] == ["v.tsv"]

    @pytest.mark.parametrize("text", ["dim=2\na\t1\t2\nb\t1\n", "dim=2\na\t1\tnan\n", "dim=x\n"],
                             ids=["wrong-count", "non-finite", "bad-header"])
    def test_file_that_fails_to_parse_leaves_no_copy(self, tmp_path, text):
        path = tmp_path / "v.tsv"
        path.write_text(text)
        with pytest.raises(CorpusError, match=rf"^{re.escape(str(path))}:\d+: "):
            load_vectors(path)
        assert [p.name for p in tmp_path.iterdir()] == ["v.tsv"]
