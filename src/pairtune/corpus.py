"""Labeled text corpora: loading, validation, splitting, and vector tables.

The canonical interchange format is json-lines with one object per line and
string fields ``id``, ``text``, ``label``. Tab-separated text with a header
row is accepted as a convenience; json-lines is the lossless choice because
tweets routinely contain commas and quotes.
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

JSON_LINES = "json-lines"
DELIMITED_TEXT = "delimited-text"

_FORMAT_BY_SUFFIX = {
    ".jsonl": JSON_LINES,
    ".json": JSON_LINES,
    ".tsv": DELIMITED_TEXT,
    ".txt": DELIMITED_TEXT,
}

RANDOM_BY_EXAMPLE = "random-by-example"
BY_CLASS = "by-class"


class CorpusError(Exception):
    """Malformed corpus or vector file, or an invalid split request."""


@dataclass(frozen=True, slots=True)
class LabeledExample:
    """One text item with its class label and source-dataset tag. Slotted:
    an instance has no ``__dict__``, so it takes no other attribute and no
    weak reference."""

    id: str
    text: str
    class_label: str
    dataset_id: str


@dataclass
class Corpus:
    """An ordered collection of labeled examples plus a label -> indices map.

    Immutable after construction by convention; safe to share across
    concurrent readers.
    """

    dataset_id: str
    examples: list[LabeledExample]
    class_index: dict[str, list[int]]

    @classmethod
    def from_examples(cls, dataset_id: str, examples: list[LabeledExample]) -> "Corpus":
        """Build and validate a corpus; raises CorpusError on any violation."""
        seen: set[str] = set()
        index: dict[str, list[int]] = {}
        for i, ex in enumerate(examples):
            if ex.id in seen:
                raise CorpusError(f"duplicate id '{ex.id}'")
            seen.add(ex.id)
            if not ex.text.strip():
                raise CorpusError(f"empty text for id '{ex.id}'")
            index.setdefault(ex.class_label, []).append(i)
        if len(index) < 2:
            raise CorpusError(
                f"corpus '{dataset_id}' has {len(index)} class(es); at least 2 required"
            )
        return cls(dataset_id=dataset_id, examples=list(examples), class_index=index)

    def classes(self) -> list[str]:
        """Class labels in first-seen order."""
        return list(self.class_index)

    @property
    def n_classes(self) -> int:
        return len(self.class_index)

    def __len__(self) -> int:
        return len(self.examples)


@dataclass
class SplitSpec:
    """How to split one corpus in two.

    ``random-by-example`` shuffles examples and assigns ``fraction`` of them
    to the first (train) side. ``by-class`` keeps whole classes together:
    either ``test_classes`` lists the labels for the second side explicitly,
    or ``fraction`` is the share of classes kept on the first side.
    """

    mode: str
    fraction: float | None = None
    test_classes: list[str] | None = None
    seed: int = 0


@dataclass
class VectorTable:
    """Precomputed embeddings keyed by example id, all of one dimension.
    ``sha256`` is the hex digest of the file the table was loaded from, or
    None for a table built in memory or from a file that changed while it
    was parsed."""

    dim: int
    entries: dict[str, np.ndarray] = field(default_factory=dict)
    sha256: str | None = None

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, example_id: str) -> bool:
        return example_id in self.entries

    def __getitem__(self, example_id: str) -> np.ndarray:
        return self.entries[example_id]


@contextmanager
def open_text(path):
    """Open a UTF-8 text file for reading; bytes that do not decode raise a
    CorpusError naming the file."""
    try:
        with open(path, encoding="utf-8") as f:
            yield f
    except UnicodeDecodeError:
        raise CorpusError(f"{path}: not valid UTF-8 text") from None


@contextmanager
def atomic_write(path, encoding: str | None = None):
    """Open a temp file beside ``path``, binary or, given an ``encoding``,
    text; when the block completes the file is flushed to disk and replaces
    ``path``. A block that raises leaves ``path`` as it was and removes the
    temp file. A failed open, write or replace raises an OSError that names
    ``path``, not the temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb" if encoding is None else "w", encoding=encoding) as f:
            yield f
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException as err:
        tmp.unlink(missing_ok=True)
        if isinstance(err, OSError) and err.errno is not None:
            raise OSError(err.errno, err.strerror, str(path)) from None
        raise


def _detect_format(path: Path, format: str | None) -> str:
    if format is not None:
        if format not in (JSON_LINES, DELIMITED_TEXT):
            raise CorpusError(f"unknown corpus format '{format}'")
        return format
    detected = _FORMAT_BY_SUFFIX.get(path.suffix.lower())
    if detected is None:
        raise CorpusError(
            f"cannot infer format from '{path.name}'; pass format="
            f"'{JSON_LINES}' or '{DELIMITED_TEXT}'"
        )
    return detected


def load_corpus(path, format: str | None = None, dataset_id: str | None = None) -> Corpus:
    """Load a labeled corpus from a json-lines or tab-separated file.

    The format is inferred from the file suffix unless given explicitly.
    ``dataset_id`` defaults to the file stem. Record order is preserved and
    every record is validated; parse errors carry the offending line number.
    """
    p = Path(path)
    if not p.is_file():
        raise CorpusError(f"no such corpus file: {p}")
    fmt = _detect_format(p, format)
    ds = dataset_id if dataset_id is not None else p.stem

    records = (
        _read_json_lines(p) if fmt == JSON_LINES else _read_delimited(p)
    )
    # Every example of a class holds its first record's label string, so the
    # corpus keeps one string per class, not one per example.
    labels: dict[str, str] = {}
    examples = [
        LabeledExample(id=ex_id, text=text, class_label=labels.setdefault(label, label),
                       dataset_id=ds)
        for ex_id, text, label in records
    ]
    try:
        return Corpus.from_examples(ds, examples)
    except CorpusError as err:
        raise CorpusError(f"{p}: {err}") from None


def _read_json_lines(path: Path):
    out = []
    with open_text(path) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as err:
                raise CorpusError(f"{path}:{lineno}: invalid JSON: {err.msg}") from None
            if not isinstance(rec, dict):
                raise CorpusError(f"{path}:{lineno}: expected a JSON object")
            out.append(_record_fields(path, lineno, rec))
    return out


def _read_delimited(path: Path):
    with open_text(path) as f:
        lines = f.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise CorpusError(f"{path}: empty file")
    header = lines[0].split("\t")
    try:
        cols = {name: header.index(name) for name in ("id", "text", "label")}
    except ValueError:
        raise CorpusError(
            f"{path}:1: header must contain 'id', 'text' and 'label' columns"
        ) from None
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split("\t")
        if len(fields) != len(header):
            raise CorpusError(
                f"{path}:{lineno}: expected {len(header)} fields, got {len(fields)}"
            )
        out.append((fields[cols["id"]], fields[cols["text"]], fields[cols["label"]]))
    return out


def _record_fields(path: Path, lineno: int, rec: dict) -> tuple[str, str, str]:
    values = []
    for name in ("id", "text", "label"):
        if name not in rec:
            raise CorpusError(f"{path}:{lineno}: missing field '{name}'")
        value = rec[name]
        if not isinstance(value, str):
            raise CorpusError(f"{path}:{lineno}: field '{name}' must be a string")
        values.append(value)
    return tuple(values)


def write_corpus(corpus: Corpus, path, format: str | None = None) -> None:
    """Write a corpus so that load_corpus reproduces it exactly."""
    p = Path(path)
    fmt = _detect_format(p, format)
    with atomic_write(p, encoding="utf-8") as f:
        if fmt == JSON_LINES:
            for ex in corpus.examples:
                f.write(json.dumps(
                    {"id": ex.id, "text": ex.text, "label": ex.class_label},
                    ensure_ascii=False,
                ))
                f.write("\n")
        else:
            f.write("id\ttext\tlabel\n")
            for ex in corpus.examples:
                for value in (ex.id, ex.text, ex.class_label):
                    # tab-separated rows cannot carry these losslessly
                    if "\t" in value or "\n" in value or "\r" in value:
                        raise CorpusError(
                            f"value for id '{ex.id}' contains a tab or newline; "
                            f"use the {JSON_LINES} format"
                        )
                f.write(f"{ex.id}\t{ex.text}\t{ex.class_label}\n")


def split_corpus(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus]:
    """Partition a corpus into (train, test) per the split spec.

    Both sides must come out as valid corpora (non-empty, >= 2 classes);
    by-class mode additionally guarantees disjoint class sets. The same seed
    reproduces the identical split.
    """
    if spec.mode == RANDOM_BY_EXAMPLE:
        train_idx, test_idx = _split_random(corpus, spec)
    elif spec.mode == BY_CLASS:
        train_idx, test_idx = _split_by_class(corpus, spec)
    else:
        raise CorpusError(f"unknown split mode '{spec.mode}'")

    sides = []
    for name, idx in (("train", train_idx), ("test", test_idx)):
        if not idx:
            raise CorpusError(f"split leaves the {name} side with 0 examples")
        examples = [corpus.examples[i] for i in sorted(idx)]
        try:
            sides.append(Corpus.from_examples(corpus.dataset_id, examples))
        except CorpusError as err:
            raise CorpusError(f"split leaves an invalid {name} side: {err}") from None
    return sides[0], sides[1]


def _split_random(corpus: Corpus, spec: SplitSpec) -> tuple[list[int], list[int]]:
    if spec.fraction is None or not 0.0 < spec.fraction < 1.0:
        raise CorpusError("random-by-example split needs a fraction strictly between 0 and 1")
    n = len(corpus)
    n_train = int(n * spec.fraction + 0.5)
    if n_train < 1 or n_train > n - 1:
        raise CorpusError(f"fraction {spec.fraction} leaves one side of {n} examples empty")
    perm = np.random.default_rng(spec.seed).permutation(n)
    return [int(i) for i in perm[:n_train]], [int(i) for i in perm[n_train:]]


def _split_by_class(corpus: Corpus, spec: SplitSpec) -> tuple[list[int], list[int]]:
    labels = corpus.classes()
    if spec.test_classes is not None:
        test_set = set(spec.test_classes)
        unknown = test_set - set(labels)
        if unknown:
            raise CorpusError(f"unknown class label(s) in split: {sorted(unknown)}")
        train_labels = [lab for lab in labels if lab not in test_set]
    elif spec.fraction is not None:
        if not 0.0 < spec.fraction < 1.0:
            raise CorpusError("by-class split fraction must be strictly between 0 and 1")
        k = len(labels)
        n_train = int(k * spec.fraction + 0.5)
        perm = np.random.default_rng(spec.seed).permutation(k)
        train_labels = [labels[int(i)] for i in sorted(perm[:n_train])]
        test_set = {labels[int(i)] for i in perm[n_train:]}
    else:
        raise CorpusError("by-class split needs a fraction or an explicit class list")

    if len(train_labels) < 2 or len(test_set) < 2:
        raise CorpusError(
            f"by-class split leaves a side with fewer than 2 classes "
            f"({len(train_labels)} train / {len(test_set)} test)"
        )
    train_idx, test_idx = [], []
    for i, ex in enumerate(corpus.examples):
        (test_idx if ex.class_label in test_set else train_idx).append(i)
    return train_idx, test_idx


def file_sha256(path) -> str:
    """The hex sha256 of a file's bytes, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load_vectors(path) -> VectorTable:
    """Load precomputed vectors: a "dim=<N>" header then id<TAB>floats rows.

    Values are read exactly as ``float()`` reads them. One pass over the
    lines skips blank ones, splits off and checks each id, and hands the
    value text to one ``np.loadtxt`` call; the field count is checked on
    the matrix it returns, whose rows become the table's vectors. A file
    that this rejects, or whose values are not all finite, is read again
    line by line: that raises the first error in line order, or loads the
    values that only ``float()`` accepts (``1_0``, non-ASCII digits).

    A file is parsed once per version. After a successful parse the table
    is also written, atomically, to a binary copy beside the file,
    ``.<name>.pairtune.npz``: an uncompressed ``np.savez`` of the copy
    format, the file's sha256, ``dim``, the ids in file order and the
    (n, dim) float64 matrix. Every load first streams the file's sha256
    (kept as the table's ``sha256``); when the copy holds that digest, this
    version's copy format and a well-formed table, and is owned by the
    current user or by the file's owner, the table comes from the copy, bit
    for bit the parse's. Any other copy is ignored and rewritten. A copy
    that cannot be written (say, in a read-only directory) is skipped. A
    file that changed while it was parsed gets no copy, and its table's
    ``sha256`` is None. Deleting a copy is always safe.
    """
    p = Path(path)
    if not p.is_file():
        raise CorpusError(f"no such vector file: {p}")
    version = file_version(p)
    digest = file_sha256(p)
    copy = p.with_name(f".{p.name}.pairtune.npz")
    # Whoever owns the file could put any values in it, so their copy adds no
    # trust; a copy planted by anyone else is never read.
    table = _read_copy(copy, digest, {p.stat().st_uid, os.getuid()})
    if table is None:
        table, values = _parse_vectors(p)
        # The digest was taken before the parse, so it may not be this content's.
        if file_version(p) != version:
            return table
        try:
            _write_copy(copy, digest, table, values)
        except OSError:
            pass
    table.sha256 = digest
    return table


def file_version(path) -> tuple[int, int, int] | None:
    """A file's inode, size and modification time, which a write or a
    replacement changes; None when the file cannot be stat'ed."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    return st.st_ino, st.st_size, st.st_mtime_ns


# The copy format, stored in each copy; bump it whenever the text parse
# would give some file another table, so older copies are parsed again.
_COPY_FORMAT = 1


def _read_copy(copy: Path, digest: str, owners: set[int]) -> VectorTable | None:
    """The table that ``_write_copy`` stored at ``copy`` for a file of this
    sha256, or None when the copy is missing, stale, malformed, of another
    copy format or owned by a user not in ``owners``."""
    try:
        with open(copy, "rb") as f:
            if os.fstat(f.fileno()).st_uid not in owners:
                return None
            with np.load(f, allow_pickle=False) as z:
                if z["format"].item() != _COPY_FORMAT or z["sha256"].item() != digest:
                    return None
                dim, ids, values = int(z["dim"]), z["ids"], z["values"]
        if ids.dtype != np.uint8 or values.dtype != np.float64 or values.ndim != 2:
            return None
        id_text = ids.tobytes().decode("utf-8")
    except (OSError, ValueError, KeyError, EOFError, TypeError, zipfile.BadZipFile):
        return None
    # Ids hold no line break, so one "\n"-joined text carries them all; an
    # empty text is one empty id, or none in a table of no rows.
    ids = id_text.split("\n") if id_text or len(values) else []
    entries = dict(zip(ids, values))
    if (dim < 1 or values.shape != (len(ids), dim) or len(entries) != len(ids)
            or not np.isfinite(values).all()):
        return None
    return VectorTable(dim=dim, entries=entries)


def _write_copy(copy: Path, digest: str, table: VectorTable, values: np.ndarray | None) -> None:
    """Store ``table`` at ``copy``. ``values`` is the (n, dim) matrix whose
    rows are the table's vectors, or None to stack them into one."""
    if values is None:
        values = np.array(list(table.entries.values()), dtype=np.float64)
    ids = np.frombuffer("\n".join(table.entries).encode("utf-8"), dtype=np.uint8)
    with atomic_write(copy) as f:
        np.savez(f, format=_COPY_FORMAT, sha256=digest, dim=table.dim, ids=ids,
                 values=values.reshape(len(table), table.dim))


def _parse_vectors(p: Path) -> tuple[VectorTable, np.ndarray | None]:
    """``load_vectors``' text parser: one ``np.loadtxt`` pass, or the
    line-by-line reader when that fails. Returns the table and, after a
    ``loadtxt`` pass that read rows, the matrix that holds its vectors."""
    try:
        with open_text(p) as f:
            dim = _vector_dim(p, f)
            ids: dict[str, None] = {}
            texts = _value_texts(f, ids)
            first = next(texts, None)
            if first is None:
                return VectorTable(dim=dim), None
            values = np.loadtxt(
                chain([first], texts), delimiter="\t", comments=None, dtype=np.float64, ndmin=2
            )
        if values.shape == (len(ids), dim) and np.isfinite(values).all():
            return VectorTable(dim=dim, entries=dict(zip(ids, values))), values
    except (CorpusError, ValueError):
        pass
    return _load_vectors_by_line(p), None


def _value_texts(f, ids: dict[str, None]):
    r"""Yield the value text of each non-blank line, adding its id to ``ids``.

    Raises CorpusError for a repeated id, and for text that np.loadtxt
    would read otherwise than float(): an empty one, which it skips as a
    blank line, or one holding a character that it strips as whitespace
    and float() does not. float() strips only ASCII space, \t, \n, \v, \f
    and \r, so "\x1c1" would load.
    """
    for line in f:
        if not line.strip():
            continue
        ex_id, _, text = line.partition("\t")
        if (ex_id in ids or text in ("", "\n")
                or "\x1c" in text or "\x1d" in text or "\x1e" in text or "\x1f" in text):
            raise CorpusError("a line for the line-by-line reader")
        ids[ex_id] = None
        yield text


def _vector_dim(p: Path, f) -> int:
    header = f.readline().strip()
    if not header.startswith("dim=") or not header[4:].isdecimal():
        raise CorpusError(f"{p}:1: expected a 'dim=<N>' header, got '{header}'")
    dim = int(header[4:])
    if dim < 1:
        raise CorpusError(f"{p}:1: dim must be positive")
    return dim


def _load_vectors_by_line(p: Path) -> VectorTable:
    """``load_vectors``' error path: every value through ``float()``, and
    the first error in line order raised."""
    with open_text(p) as f:
        dim = _vector_dim(p, f)
        entries: dict[str, np.ndarray] = {}
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


def check_field(value: str, name: str = "id") -> None:
    """Refuse a value holding a tab or line break, on which readers split lines."""
    if "\t" in value or "\n" in value or "\r" in value:
        raise CorpusError(f"{name} {value!r} holds a tab or line break; "
                          "a tab-separated file cannot carry it")


def write_vectors(table: VectorTable, path) -> None:
    """Write a vector table; values round-trip at 9 significant digits. Ids
    are checked by ``check_field`` before anything is written."""
    for ex_id in table.entries:
        check_field(ex_id)
    with atomic_write(path, encoding="utf-8") as f:
        f.write(f"dim={table.dim}\n")
        for ex_id, vec in table.entries.items():
            f.write(ex_id)
            for v in vec:
                f.write(f"\t{v:.9g}")
            f.write("\n")
