"""Property tests: write -> load round trips and byte-mutation fuzzing of loaders.

A written file loads back to what was written (bitwise, or at the format's
stated precision), and writing the loaded value again gives the same bytes.

A mutated file may load or may be rejected, but only with the documented
data error types; any other exception is a loader bug. A mutated vector file
must load exactly as the straight-line per-line parser below loads it.
Examples are derandomized and bounded so the suite stays fast and repeatable.
"""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from pairtune.corpus import (
    DELIMITED_TEXT,
    JSON_LINES,
    CorpusError,
    VectorTable,
    load_corpus,
    load_vectors,
    open_text,
    write_corpus,
    write_vectors,
)
from pairtune.encoder import (
    FROZEN_PROJECTION,
    STORAGE_BINARY,
    STORAGE_TEXT,
    TRAINABLE,
    UNK_TOKEN,
    EncoderConfig,
    EncoderParams,
    Vocabulary,
    build_vocab,
    init_encoder_params,
    load_model,
    load_vocab,
    save_model,
    save_vocab,
)
from pairtune.episodes import EpisodeError, PairSet, load_pairs, write_pairs
from pairtune.evaluation import REPORT_HEADER, DeltaReport, emit_report, parse_report
from pairtune.synthetic import synthetic_corpus

from conftest import make_corpus

FUZZ = settings(
    max_examples=150,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
# Round trips write (and fsync) every drawn file, so they draw fewer examples.
ROUND_TRIP = settings(FUZZ, max_examples=50)

# Ids and dataset names the tab-separated dump can carry: no tab, no line break.
NAMES = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n\r"),
    min_size=1,
    max_size=6,
)


@st.composite
def pair_sets(draw):
    """Corpora with distinct dataset ids, and a PairSet whose pairs stay within one."""
    dataset_ids = draw(st.lists(NAMES, min_size=1, max_size=3, unique=True))
    corpora, spans = [], []
    for ds in dataset_ids:
        ids = draw(st.lists(NAMES, min_size=2, max_size=5, unique=True))
        rows = [(ex_id, "text", f"class{k % 2}") for k, ex_id in enumerate(ids)]
        start = sum(len(c) for c in corpora)
        corpora.append(make_corpus(ds, rows))
        spans.append((start, start + len(ids)))
    triples = []
    for _ in range(draw(st.integers(1, 12))):
        lo, hi = draw(st.sampled_from(spans))
        triples.append((draw(st.integers(lo, hi - 1)), draw(st.integers(lo, hi - 1)),
                        draw(st.integers(0, 1))))
    a, b, target = np.array(triples, dtype=np.intp).T
    examples = [ex for c in corpora for ex in c.examples]
    return corpora, PairSet(examples, a, b, target)


@FUZZ
@given(pair_sets())
def test_pair_dump_round_trip(tmp_path, drawn):
    corpora, pairs = drawn
    path = tmp_path / "pairs.tsv"
    write_pairs(pairs, path)
    back = load_pairs(path, corpora)
    assert back.examples == pairs.examples
    for name in ("a", "b", "target"):
        np.testing.assert_array_equal(getattr(back, name), getattr(pairs, name))


# Finite float64 values, always including the extremes a text payload must carry.
EXTREMES = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
FLOATS = st.one_of(st.sampled_from(EXTREMES), st.floats(allow_nan=False, allow_infinity=False))

# Ids with characters that text readers could take for line breaks but must not.
LINE_BREAKS = "\t\n\r"
SAFE_IDS = st.text(
    alphabet=st.one_of(
        st.characters(blacklist_categories=("Cs",), blacklist_characters=LINE_BREAKS),
        st.sampled_from("\x85\u2028\x0b\x1c "),
    ),
    max_size=5,
)


@st.composite
def id_lists(draw, min_size=0, max_size=5):
    """Distinct ids, of which one may hold a tab or line break, which a
    tab-separated line cannot carry."""
    ids = draw(st.lists(SAFE_IDS, min_size=min_size, max_size=max_size, unique=True))
    bad = draw(st.sampled_from(["", *LINE_BREAKS]))
    if ids and bad:
        k = draw(st.integers(0, len(ids) - 1))
        pos = draw(st.integers(0, len(ids[k])))
        ids[k] = ids[k][:pos] + bad + ids[k][pos:]
    return ids


def splits_lines(value: str) -> bool:
    return any(c in value for c in LINE_BREAKS)


@pytest.mark.parametrize("mode", [TRAINABLE, FROZEN_PROJECTION])
@pytest.mark.parametrize("storage", [STORAGE_BINARY, STORAGE_TEXT])
@ROUND_TRIP
@given(data=st.data())
def test_model_round_trip_is_bitwise(tmp_path, mode, storage, data):
    dims = {name: data.draw(st.integers(1, 3)) for name in ("d", "h", "d_out")}
    vocab = None
    if mode == TRAINABLE:
        tokens = data.draw(st.lists(st.text(alphabet=st.characters(blacklist_categories=("Cs",))),
                                    max_size=4, unique=True))
        vocab = Vocabulary.from_tokens([UNK_TOKEN] + [t for t in tokens if t != UNK_TOKEN],
                                       data.draw(st.integers(1, 3)))
        config = EncoderConfig(mode=mode, d_tok=dims["d"], h=dims["h"], d_out=dims["d_out"])
    else:
        config = EncoderConfig(mode=mode, d_in=dims["d"], h=dims["h"], d_out=dims["d_out"])
    params = EncoderParams.zeros(config, vocab.size if vocab is not None else None)
    n = params.flat.size
    params.flat[...] = data.draw(st.lists(FLOATS, min_size=n, max_size=n))
    path, again = tmp_path / "m.ptm", tmp_path / "again.ptm"
    save_model(path, config, params, vocab, storage=storage)
    config2, params2, vocab2 = load_model(path)
    assert config2 == config and vocab2 == vocab
    assert params2.flat.tobytes() == params.flat.tobytes()
    save_model(again, config2, params2, vocab2, storage=storage)
    assert again.read_bytes() == path.read_bytes()


@ROUND_TRIP
@given(texts=st.lists(st.text(alphabet=st.characters(blacklist_categories=("Cs",))),
                      min_size=2, max_size=6),
       min_count=st.integers(1, 3))
def test_vocab_round_trip(tmp_path, texts, min_count):
    rows = [(f"e{i}", f"{text} w{i % 3}", f"c{i % 2}") for i, text in enumerate(texts)]
    vocab = build_vocab(make_corpus("d", rows), min_count=min_count)
    path = tmp_path / "vocab.txt"
    save_vocab(vocab, path)
    back = load_vocab(path)
    assert back.token_to_index == vocab.token_to_index and back.min_count == vocab.min_count


@ROUND_TRIP
@given(dim=st.integers(1, 3), data=st.data())
def test_vector_file_round_trip_at_nine_digits(tmp_path, dim, data):
    ids = data.draw(id_lists())
    values = [np.array(data.draw(st.lists(FLOATS, min_size=dim, max_size=dim))) for _ in ids]
    table = VectorTable(dim=dim, entries=dict(zip(ids, values)))
    path, again = tmp_path / "v.tsv", tmp_path / "again.tsv"
    path.unlink(missing_ok=True)  # tmp_path is shared by all examples
    if any(map(splits_lines, ids)):
        with pytest.raises(CorpusError, match="tab or line break"):
            write_vectors(table, path)
        assert not path.exists()
        return
    write_vectors(table, path)
    back = load_vectors(path)
    assert back.dim == dim and list(back.entries) == ids
    for ex_id, vec in table.entries.items():
        assert back[ex_id].tobytes() == np.array([float(f"{v:.9g}") for v in vec]).tobytes()
    write_vectors(back, again)
    assert again.read_bytes() == path.read_bytes()


@ROUND_TRIP
@given(data=st.data())
def test_pair_dump_refuses_ids_that_split_lines(tmp_path, data):
    dataset_id, *ids = data.draw(id_lists(min_size=4, max_size=4))
    corpus = make_corpus(dataset_id, [(ex_id, "t", f"c{k % 2}") for k, ex_id in enumerate(ids)])
    a = np.array(data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=4)))
    pairs = PairSet(corpus.examples, a, (a + 1) % 3, np.zeros_like(a))
    written = [corpus.examples[k] for k in np.concatenate([pairs.a, pairs.b])]
    path = tmp_path / "pairs.tsv"
    path.unlink(missing_ok=True)  # tmp_path is shared by all examples
    if any(splits_lines(ex.id) or splits_lines(ex.dataset_id) for ex in written):
        with pytest.raises(CorpusError, match="tab or line break"):
            write_pairs(pairs, path)
        assert not path.exists()
    else:
        write_pairs(pairs, path)
        back = load_pairs(path, corpus)
        assert [back.a.tolist(), back.b.tolist()] == [pairs.a.tolist(), pairs.b.tolist()]


@ROUND_TRIP
@given(rows=st.lists(st.tuples(NAMES, NAMES, st.integers(0, 10**9),
                               st.lists(FLOATS, min_size=5, max_size=5)),
                     min_size=1, max_size=4))
def test_report_round_trip_at_nine_digits(tmp_path, rows):
    path = tmp_path / "r.tsv"
    emit_report([(model, test, DeltaReport(n, 0, 0, *values))
                 for model, test, n, values in rows], path)
    parsed = parse_report(path)
    assert len(parsed) == len(rows)
    for row, (model, test, n, values) in zip(parsed, rows):
        assert (row["model"], row["test_set"], row["n_pairs"]) == (model, test, n)
        for key, v in zip(REPORT_HEADER[3:], values):
            assert np.float64(row[key]).tobytes() == np.float64(float(f"{v:.9g}")).tobytes()


@st.composite
def mutations(draw, blob: bytes) -> bytes:
    """Up to four byte replacements, insertions or deletions, or a truncation."""
    data = bytearray(blob)
    if draw(st.booleans()):
        return bytes(data[: draw(st.integers(0, len(data)))])
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, max(len(data) - 1, 0)))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.integers(0, 255))
        if op == "insert":
            data.insert(pos, byte)
        elif data and op == "replace":
            data[pos] = byte
        elif data:
            del data[pos]
    return bytes(data)


def fuzz_loader(tmp_path, data, blob, load, errors):
    path = tmp_path / "fuzzed"
    path.write_bytes(data.draw(mutations(blob)))
    try:
        load(path)
    except errors:
        pass


def small_corpus():
    return synthetic_corpus("syn", 3, 4, n_groups=3, group_size=4, tokens_per_example=3, seed=0)


@FUZZ
@given(data=st.data())
def test_fuzzed_pair_dump_loads_or_raises_data_error(tmp_path, data):
    corpus = small_corpus()
    path = tmp_path / "pairs.tsv"
    a = np.array([0, 1, 4, 9])
    write_pairs(PairSet(corpus.examples, a, a[::-1].copy(), np.array([1, 0, 0, 1])), path)
    fuzz_loader(tmp_path, data, path.read_bytes(), lambda p: load_pairs(p, corpus),
                (CorpusError, EpisodeError))


@FUZZ
@given(data=st.data())
def test_fuzzed_vocab_loads_or_raises_data_error(tmp_path, data):
    path = tmp_path / "vocab.txt"
    save_vocab(build_vocab(small_corpus()), path)
    fuzz_loader(tmp_path, data, path.read_bytes(), load_vocab, CorpusError)


@pytest.mark.parametrize("mode", [TRAINABLE, FROZEN_PROJECTION])
@pytest.mark.parametrize("storage", [STORAGE_BINARY, STORAGE_TEXT])
@FUZZ
@given(data=st.data())
def test_fuzzed_model_loads_or_raises_data_error(tmp_path, mode, storage, data):
    path = tmp_path / "m.ptm"
    if mode == TRAINABLE:
        vocab = build_vocab(make_corpus("d", [("1", "a b", "x"), ("2", "c", "y")]))
        config = EncoderConfig(mode=TRAINABLE, d_tok=2, h=2, d_out=2)
        params = init_encoder_params(config, vocab_size=vocab.size, seed=0)
    else:
        vocab = None
        config = EncoderConfig(mode=FROZEN_PROJECTION, d_in=2, h=2, d_out=2)
        params = init_encoder_params(config, seed=0)
    save_model(path, config, params, vocab, storage=storage)
    fuzz_loader(tmp_path, data, path.read_bytes(), load_model, CorpusError)


@pytest.mark.parametrize("fmt,name", [(JSON_LINES, "c.jsonl"), (DELIMITED_TEXT, "c.tsv")])
@FUZZ
@given(data=st.data())
def test_fuzzed_corpus_loads_or_raises_data_error(tmp_path, fmt, name, data):
    path = tmp_path / name
    write_corpus(small_corpus(), path)
    fuzz_loader(tmp_path, data, path.read_bytes(),
                lambda p: load_corpus(p, format=fmt), CorpusError)


def reference_load_vectors(path):
    """The per-line vector parser that load_vectors must agree with: every
    value through float(), checks in line order."""
    p = Path(path)
    if not p.is_file():
        raise CorpusError(f"no such vector file: {p}")
    with open_text(p) as f:
        header = f.readline().strip()
        if not header.startswith("dim=") or not header[4:].isdecimal():
            raise CorpusError(f"{p}:1: expected a 'dim=<N>' header, got '{header}'")
        dim = int(header[4:])
        if dim < 1:
            raise CorpusError(f"{p}:1: dim must be positive")
        entries = {}
        for lineno, line in enumerate(f, start=2):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != dim + 1:
                raise CorpusError(
                    f"{p}:{lineno}: expected {dim} values, got {len(fields) - 1}"
                )
            ex_id = fields[0]
            if ex_id in entries:
                raise CorpusError(f"{p}:{lineno}: duplicate id '{ex_id}'")
            try:
                vec = np.array([float(v) for v in fields[1:]], dtype=np.float64)
            except ValueError:
                raise CorpusError(f"{p}:{lineno}: non-numeric value") from None
            if not np.all(np.isfinite(vec)):
                raise CorpusError(f"{p}:{lineno}: non-finite value for id '{ex_id}'")
            entries[ex_id] = vec
    return VectorTable(dim=dim, entries=entries)


def vector_outcome(load, path):
    """(dim, ids in order, each vector's bytes) or (exception type, message);
    a warning counts as an exception."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = load(path)
        except Exception as err:
            return type(err), str(err)
    return table.dim, list(table.entries), [np.asarray(v, dtype=np.float64).tobytes()
                                            for v in table.entries.values()]


# Text that float() and np.loadtxt may read differently, spliced in whole.
SNIPPETS = ["_", "\x1c", "\x1f", "\x0b", " ", "\u00a0", "\u3000", "\u0661", "\u00b2",
            "nan", "inf", "-", "e", ".", "\t", "\n", "\r", "\r\n", ""]


@st.composite
def vector_file_mutations(draw, blob: bytes) -> bytes:
    """Byte mutations of a vector file, or one snippet spliced into it."""
    if draw(st.booleans()):
        return draw(mutations(blob))
    pos = draw(st.integers(0, len(blob)))
    snippet = draw(st.sampled_from(SNIPPETS)).encode("utf-8")
    return blob[:pos] + snippet + blob[pos + draw(st.integers(0, 2)):]


@pytest.mark.parametrize("dim", [1, 3])
@FUZZ
@given(data=st.data())
def test_fuzzed_vectors_load_as_the_per_line_parser_does(tmp_path, dim, data):
    rng = np.random.default_rng(dim)
    values = rng.normal(size=(4, dim)) * 10.0 ** rng.integers(-5, 5, size=(4, 1))
    path = tmp_path / "v.tsv"
    write_vectors(VectorTable(dim=dim, entries={f"e{i}": v for i, v in enumerate(values)}), path)
    path.write_bytes(data.draw(vector_file_mutations(path.read_bytes())))
    assert vector_outcome(load_vectors, path) == vector_outcome(reference_load_vectors, path)
