import json
import warnings

import numpy as np
import pytest

from pairtune.corpus import (
    BY_CLASS,
    CorpusError,
    RANDOM_BY_EXAMPLE,
    SplitSpec,
    VectorTable,
    load_corpus,
    load_vectors,
    split_corpus,
    write_corpus,
    write_vectors,
)

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

    def test_next_line_and_line_separator_ids_round_trip(self, tmp_path):
        path = tmp_path / "v.tsv"
        write_vectors(VectorTable(dim=1, entries={"a\x85b": np.ones(1), "c\u2028d": np.zeros(1)}),
                      path)
        assert list(load_vectors(path).entries) == ["a\x85b", "c\u2028d"]
