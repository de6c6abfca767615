"""Property tests: pair-dump round trips and byte-mutation fuzzing of loaders.

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
    EncoderConfig,
    build_vocab,
    init_encoder_params,
    load_model,
    load_vocab,
    save_model,
    save_vocab,
)
from pairtune.episodes import EpisodeError, PairSet, load_pairs, write_pairs
from pairtune.synthetic import synthetic_corpus

from conftest import make_corpus

FUZZ = settings(
    max_examples=150,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

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
