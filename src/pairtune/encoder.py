"""A differentiable sentence encoder with hand-rolled backpropagation.

Two modes behind one interface:

* ``trainable``: token embeddings, mean pooling, then a two-layer ReLU
  projection; everything trains from scratch.
* ``frozen-projection``: a fixed input vector (e.g. exported from an
  external sentence encoder) feeding the same trainable projection.

Forward pass for pooled input ``m``::

    z = W2 @ relu(W1 @ m + b1) + b2
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .corpus import Corpus, CorpusError, LabeledExample, VectorTable, atomic_write, open_text

TRAINABLE = "trainable"
FROZEN_PROJECTION = "frozen-projection"

UNK_TOKEN = "<unk>"

# Only these characters are trimmed from token edges, so mentions, hashtags
# and URLs survive whole.
_EDGE_PUNCT = ".,;:!?\"'()[]{}<>`“”‘’…"

_MODEL_MAGIC = "PAIRTUNE-MODEL 1"
_HEADER_KEYS = ("storage", "mode", "d_tok", "d_in", "h", "d_out")
STORAGE_BINARY = "binary"
STORAGE_TEXT = "text"


def tokenize(text: str) -> list[str]:
    """Lowercase, split on whitespace and trim edge punctuation per token.

    Never returns an empty list: blank input yields ``[UNK_TOKEN]``.
    """
    tokens = []
    for raw in text.lower().split():
        tok = raw.strip(_EDGE_PUNCT)
        if tok:
            tokens.append(tok)
    return tokens or [UNK_TOKEN]


def _positive_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


@dataclass
class Vocabulary:
    """Token -> contiguous index map with the unknown token at index 0."""

    token_to_index: dict[str, int]
    min_count: int = 1

    @classmethod
    def from_tokens(cls, tokens, min_count) -> "Vocabulary":
        """Validate a stored vocabulary: distinct strings with UNK first, and an
        integer min_count >= 1. Raises CorpusError otherwise."""
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise CorpusError("vocabulary must be a list of strings")
        if not tokens or tokens[0] != UNK_TOKEN:
            raise CorpusError(f"vocabulary must start with '{UNK_TOKEN}'")
        token_to_index = {tok: i for i, tok in enumerate(tokens)}
        if len(token_to_index) != len(tokens):
            raise CorpusError("vocabulary repeats a token")
        if not _positive_int(min_count):
            raise CorpusError(f"min_count must be an integer >= 1, got {min_count!r}")
        return cls(token_to_index=token_to_index, min_count=min_count)

    @property
    def size(self) -> int:
        return len(self.token_to_index)

    def lookup(self, tokens: list[str]) -> np.ndarray:
        """Map tokens to indices; unknown tokens map to the UNK index 0."""
        return np.array([self.token_to_index.get(t, 0) for t in tokens], dtype=np.intp)

    def token_list(self) -> list[str]:
        """Tokens in index order."""
        ordered = sorted(self.token_to_index.items(), key=lambda kv: kv[1])
        return [tok for tok, _ in ordered]


def check_min_count(min_count) -> None:
    """``build_vocab``'s rule for min_count, for callers that check it first."""
    if not _positive_int(min_count):
        raise ValueError("min_count must be a positive integer")


def build_vocab(corpora, min_count: int = 1) -> Vocabulary:
    """Count tokens over one or more corpora and keep those seen >= min_count.

    Indices are deterministic: descending frequency, ties broken
    lexicographically, with UNK fixed at index 0.
    """
    check_min_count(min_count)
    if isinstance(corpora, Corpus):
        corpora = [corpora]
    counts: Counter[str] = Counter()
    n_examples = 0
    for corpus in corpora:
        for ex in corpus.examples:
            counts.update(tokenize(ex.text))
            n_examples += 1
    if n_examples == 0:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    kept = [t for t, c in counts.items() if c >= min_count and t != UNK_TOKEN]
    # Lexicographic first, then a stable descending count sort (reverse=True
    # keeps ties in order): the (-count, token) order without a key tuple per token.
    kept.sort()
    kept.sort(key=counts.__getitem__, reverse=True)
    return Vocabulary.from_tokens([UNK_TOKEN] + kept, min_count)


def save_vocab(vocab: Vocabulary, path) -> None:
    """Write one token per line under a min_count header. A token holding a
    line break is refused before anything is written."""
    tokens = vocab.token_list()
    for tok in tokens:
        if "\n" in tok or "\r" in tok:
            raise CorpusError(f"token {tok!r} holds a line break; a vocabulary file cannot carry it")
    with atomic_write(path, encoding="utf-8") as f:
        f.write(f"min_count={vocab.min_count}\n")
        for tok in tokens:
            f.write(tok + "\n")


def load_vocab(path) -> Vocabulary:
    p = Path(path)
    with open_text(p) as f:
        header = f.readline().strip()
        if not header.startswith("min_count="):
            raise CorpusError(f"{p}:1: expected a 'min_count=<N>' header")
        try:
            min_count = int(header.split("=", 1)[1])
        except ValueError:
            raise CorpusError(f"{p}:1: min_count must be an integer, got {header!r}") from None
        tokens = [line.rstrip("\n") for line in f]
    try:
        return Vocabulary.from_tokens(tokens, min_count)
    except CorpusError as err:
        raise CorpusError(f"{p}: {err}") from None


@dataclass(frozen=True)
class EncoderConfig:
    """Mode and layer dimensions of the encoder."""

    mode: str = TRAINABLE
    d_tok: int = 16
    d_in: int | None = None
    h: int = 64
    d_out: int = 512

    def __post_init__(self):
        if self.mode not in (TRAINABLE, FROZEN_PROJECTION):
            raise ValueError(f"unknown encoder mode '{self.mode}'")
        if self.mode == FROZEN_PROJECTION and not _positive_int(self.d_in):
            raise ValueError("frozen-projection mode needs an integer d_in >= 1")
        for name in ("d_tok", "h", "d_out"):
            if not _positive_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer >= 1")

    @property
    def d_in_eff(self) -> int:
        """Width of the pooled input feeding the projection."""
        return self.d_tok if self.mode == TRAINABLE else self.d_in


def _param_layout(config: EncoderConfig, vocab_size: int | None = None) -> list:
    """A parameter set's (name, shape) pairs, in ``flat`` and model-payload order."""
    layout = []
    if config.mode == TRAINABLE:
        if vocab_size is None or vocab_size < 1:
            raise ValueError("trainable mode needs vocab_size >= 1")
        layout.append(("E", (vocab_size, config.d_tok)))
    return layout + [
        ("W1", (config.h, config.d_in_eff)),
        ("b1", (config.h,)),
        ("W2", (config.d_out, config.h)),
        ("b2", (config.d_out,)),
    ]


class EncoderParams:
    """All trainable parameters of one encoder: the single set shared by both
    Siamese branches, and also the naive trainer's classification head.

    ``config`` is the EncoderConfig the set was built from, so a set alone
    says its mode and widths. ``E`` is the token embedding table (trainable
    mode only, None otherwise). The present arrays are C-contiguous views
    into one float64 vector, ``flat``, laid out by ``layout``, which is
    derived from ``config`` and ``vocab_size`` (E's rows), so an optimizer
    step, a gradient reset or a finiteness check is one pass over one vector.
    ``zeros`` builds a set from its config; ``copy`` and ``zeros_like`` reuse
    a set's config. Assign into an array (``params.W1[...] = ...``), never
    rebind it. A gradient accumulator is made by ``zeros_like``.
    """

    E: np.ndarray | None
    W1: np.ndarray
    b1: np.ndarray
    W2: np.ndarray
    b2: np.ndarray

    def __init__(self, config: EncoderConfig, vocab_size: int | None, flat: np.ndarray) -> None:
        """Make ``flat`` this set's vector and each (name, shape) of
        ``_param_layout(config, vocab_size)`` a view into it, in order."""
        self.config, self.vocab_size, self.flat, self.E = config, vocab_size, flat, None
        self.layout = _param_layout(config, vocab_size)
        lo = 0
        for name, shape in self.layout:
            hi = lo + math.prod(shape)
            setattr(self, name, flat[lo:hi].reshape(shape))
            lo = hi

    @classmethod
    def zeros(cls, config: EncoderConfig, vocab_size: int | None = None) -> "EncoderParams":
        """A zeroed set laid out by ``_param_layout(config, vocab_size)``."""
        size = sum(math.prod(shape) for _, shape in _param_layout(config, vocab_size))
        return cls(config, vocab_size, np.zeros(size))

    def as_dict(self) -> dict[str, np.ndarray]:
        """Live references to the present arrays, keyed by name, in layout order."""
        return {name: getattr(self, name) for name, _ in self.layout}

    def copy(self) -> "EncoderParams":
        return EncoderParams(self.config, self.vocab_size, self.flat.copy())

    def zeros_like(self) -> "EncoderParams":
        return EncoderParams(self.config, self.vocab_size, np.zeros_like(self.flat))


def init_encoder_params(
    config: EncoderConfig, vocab_size: int | None = None, seed: int = 0
) -> EncoderParams:
    """Seeded init: weights uniform in +-1/sqrt(fan_in), E in +-0.1, biases 0."""
    params = EncoderParams.zeros(config, vocab_size)
    rng = np.random.default_rng(seed)
    if params.E is not None:
        params.E[...] = rng.uniform(-0.1, 0.1, size=params.E.shape)
    for W in (params.W1, params.W2):
        lim = 1.0 / np.sqrt(W.shape[1])
        W[...] = rng.uniform(-lim, lim, size=W.shape)
    return params


def identity_projection(dim: int) -> EncoderParams:
    """Frozen-projection encoder that reproduces its input vector exactly.

    Stacking [I; -I] before the ReLU and [I, -I] after it gives
    relu(m) - relu(-m) == m, so the output equals the input bit for bit.
    """
    config = EncoderConfig(mode=FROZEN_PROJECTION, d_in=dim, h=2 * dim, d_out=dim)
    params = EncoderParams.zeros(config)
    # Each block is written in place, with no dim x dim temporary. The -I
    # blocks hold -0.0 off their diagonals, as np.negative(np.eye(dim)) does.
    params.W1[dim:] = -0.0
    params.W2[:, dim:] = -0.0
    for block, one in ((params.W1[:dim], 1.0), (params.W1[dim:], -1.0),
                       (params.W2[:, :dim], 1.0), (params.W2[:, dim:], -1.0)):
        np.fill_diagonal(block, one)
    return params


@dataclass
class InputTable:
    """Encoder inputs of a list of examples as arrays; row i is example i.

    Trainable mode is CSR: row i's token indices are
    ``tokens[offsets[i]:offsets[i + 1]]``. Frozen mode holds ``vectors``, an
    object array of references to each row's (d_in,) vector, so a table
    never copies the vectors it is built from. ``take`` gathers a batch;
    ``encode_batch`` embeds one.
    """

    tokens: np.ndarray | None = None
    offsets: np.ndarray | None = None
    vectors: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.vectors) if self.vectors is not None else len(self.offsets) - 1

    def take(self, rows: np.ndarray) -> "InputTable":
        """The table of ``rows``, in that order (repeats allowed)."""
        if self.vectors is not None:
            return InputTable(vectors=self.vectors[rows])
        starts = self.offsets[rows]
        lengths = self.offsets[rows + 1] - starts
        offsets = np.zeros(len(rows) + 1, dtype=np.intp)
        np.cumsum(lengths, out=offsets[1:])
        # Position k of the batch reads tokens[starts[row] + k - offsets[row]].
        positions = np.repeat(starts - offsets[:-1], lengths) + np.arange(offsets[-1])
        return InputTable(tokens=self.tokens[positions], offsets=offsets)


def input_table(config: EncoderConfig, xs) -> InputTable:
    """Pack per-example inputs (token index sequences, or input vectors in
    frozen mode) into one InputTable, checking each input once."""
    if config.mode == TRAINABLE:
        lengths = np.fromiter(map(np.size, xs), dtype=np.intp, count=len(xs))
        if not lengths.all():
            raise ValueError("trainable mode needs non-empty token index sequences")
        # The leading empty array makes zero inputs valid and others 1-D.
        tokens = np.concatenate([np.empty(0, dtype=np.intp), *xs], dtype=np.intp)
        offsets = np.zeros(len(xs) + 1, dtype=np.intp)
        np.cumsum(lengths, out=offsets[1:])
        return InputTable(tokens=tokens, offsets=offsets)
    vectors = np.empty(len(xs), dtype=object)
    for i, x in enumerate(xs):
        vectors[i] = vec = np.asarray(x, dtype=np.float64)
        if vec.shape != (config.d_in,):
            raise ValueError(
                f"expected input vectors of length {config.d_in}, got shape {vec.shape}"
            )
    return InputTable(vectors=vectors)


@dataclass
class BatchForward:
    """Forward intermediates of one ``project`` call, kept for its backward.

    ``encode_batch`` adds ``tokens`` and ``lengths``, the batch's flat token
    indices and tokens per example (trainable mode only, None otherwise).
    """

    M: np.ndarray
    H: np.ndarray
    tokens: np.ndarray | None = None
    lengths: np.ndarray | None = None


def _hidden(params: EncoderParams, M: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The hidden layer of every row of M: ``relu(M @ W1.T + b1)``, written
    into ``out`` when given, else into a new array."""
    A = np.matmul(M, params.W1.T, out=out)
    A += params.b1
    # np.maximum, unlike np.where(A > 0, A, 0), lets a NaN reach the loss check.
    return np.maximum(A, 0.0, out=out)


def project(params: EncoderParams, M: np.ndarray) -> tuple[np.ndarray, BatchForward]:
    """The two-layer ReLU projection of every row of M, as two matrix products:
    ``Z = relu(M @ W1.T + b1) @ W2.T + b2``."""
    H = _hidden(params, M)
    Z = H @ params.W2.T
    Z += params.b2
    return Z, BatchForward(M=M, H=H)


def project_backward(
    params: EncoderParams, fwd: BatchForward, dZ: np.ndarray, grad: EncoderParams
) -> np.ndarray:
    """Accumulate d(sum_i dZ[i] . Z[i]) over W1, b1, W2 and b2 into ``grad``,
    taking the ReLU subgradient at 0 as 0. Returns dA, the gradient at the
    pre-activation; callers that need the input's gradient take dA @ W1."""
    grad.W2 += dZ.T @ fwd.H
    grad.b2 += dZ.sum(axis=0)
    dA = dZ @ params.W2
    # H > 0 exactly where the pre-activation A > 0, NaN and -0.0 included.
    dA *= fwd.H > 0.0
    grad.W1 += dA.T @ fwd.M
    grad.b1 += dA.sum(axis=0)
    return dA


def check_tokens(params: EncoderParams, table: InputTable) -> None:
    """Raise IndexError for a token index of ``table`` outside [0, len(E)): -1 would read E[-1]."""
    tokens, E = table.tokens, params.E
    if E is not None and tokens.size and not 0 <= tokens.min() <= tokens.max() < len(E):
        raise IndexError(f"token index out of range for {len(E)} embedding rows")


def _pool(params: EncoderParams, batch: InputTable):
    """The batch's pooled inputs M and, in trainable mode, its tokens per
    example (None in frozen mode), after ``check_tokens``."""
    check_tokens(params, batch)
    if params.E is not None:
        lengths = np.diff(batch.offsets)
        M = np.add.reduceat(params.E[batch.tokens], batch.offsets[:-1], axis=0)
        M /= lengths[:, None]
        return M, lengths
    return _stacked(batch), None


def _stacked(batch: InputTable) -> np.ndarray:
    """A frozen-mode batch's input vectors as the rows of one matrix."""
    return np.concatenate(batch.vectors, dtype=np.float64).reshape(len(batch), -1)


def encode_batch(params: EncoderParams, batch: InputTable) -> tuple[np.ndarray, BatchForward]:
    """Embed a gathered batch at once; row i of Z is the embedding of row i.

    Trainable mode pools every row's token embeddings with one
    ``np.add.reduceat`` over the flat token indices; frozen mode stacks the
    rows' vectors. ``project`` then runs over the pooled batch.
    """
    M, lengths = _pool(params, batch)
    Z, fwd = project(params, M)
    fwd.tokens, fwd.lengths = batch.tokens, lengths
    return Z, fwd


# Kept because benchmarks/child.py's traced run wraps it by name.
def encode(params: EncoderParams, x) -> np.ndarray:
    """Embed one input (token indices or a fixed vector): ``encode_batch`` on one row."""
    return encode_batch(params, input_table(params.config, [x]))[0][0]


@dataclass
class TokenRows:
    """A batch's gradient of the embedding table E as token rows.

    ``index`` holds flat element indices into ``E.reshape(-1)``, d_tok per
    token position in batch order, and ``values`` the matching gradient
    entries. Adding ``values`` at ``index`` with ``np.add.at``, in order, into
    a zeroed array of E's ``shape`` gives E's dense gradient; repeated tokens
    accumulate. No E-sized array is made.
    """

    index: np.ndarray
    values: np.ndarray
    shape: tuple[int, int]


def add_token_rows(grad: EncoderParams, rows: TokenRows | None) -> None:
    """Add token rows into ``grad.E`` (nothing in frozen mode, where rows are None)."""
    if rows is None:
        return
    # One 1-D add.at over flat element indices is several times faster
    # than a row-wise add.at; it needs a contiguous accumulator to view.
    if not grad.E.flags.c_contiguous:
        raise ValueError("the embedding gradient must be C-contiguous")
    np.add.at(grad.E.reshape(-1), rows.index, rows.values)


def encode_batch_backward(
    params: EncoderParams, fwd: BatchForward, dZ: np.ndarray, grad: EncoderParams
) -> TokenRows | None:
    """Accumulate d(sum_i dZ[i] . Z[i]) over W1, b1, W2 and b2 into ``grad``
    for one batch, and return E's gradient as ``TokenRows`` (None in frozen
    mode); ``grad.E``, if ``grad`` has one, is left untouched.

    ``project_backward`` handles the projection. In trainable mode each
    token position then contributes 1/n_tokens of its example's pooled
    gradient to its embedding row: the rows hold one entry per position and
    column, which ``add_token_rows`` or ``optimizer_step`` adds up.
    """
    dA = project_backward(params, fwd, dZ, grad)
    if params.E is None:
        return None
    dM = dA @ params.W1
    dM /= fwd.lengths[:, None]
    d = params.config.d_tok
    index = (fwd.tokens[:, None] * d + np.arange(d)).ravel()
    return TokenRows(index, np.repeat(dM, fwd.lengths, axis=0).ravel(), params.E.shape)


# Kept because benchmarks/child.py's traced run wraps it by name.
def encode_backward(
    params: EncoderParams, x, upstream: np.ndarray, grad: EncoderParams
) -> EncoderParams:
    """Accumulate d(upstream . z)/d(theta) into ``grad`` for input ``x``,
    ``grad.E`` included: ``encode_batch_backward`` on one row."""
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != (params.config.d_out,):
        raise ValueError(f"upstream gradient must have shape ({params.config.d_out},)")
    _, fwd = encode_batch(params, input_table(params.config, [x]))
    add_token_rows(grad, encode_batch_backward(params, fwd, upstream[None, :], grad))
    return grad


def make_input_fn(
    config: EncoderConfig,
    vocab: Vocabulary | None = None,
    vectors: dict[str, VectorTable] | VectorTable | None = None,
):
    """Return ``prepare(examples)``, the InputTable whose row i is the encoder
    input of examples[i]: its token indices, or its stored vector in frozen
    mode. ``vectors`` may be one table or a dataset_id -> table map, and
    every table must match the encoder's d_in.
    """
    if config.mode == TRAINABLE:
        if vocab is None:
            raise ValueError("trainable mode needs a vocabulary")
        index = vocab.token_to_index.get

        def prepare(examples) -> InputTable:
            # One flat list of indices; unknown tokens map to UNK's index 0.
            tokens, lengths = [], []
            for ex in examples:
                toks = tokenize(ex.text)
                lengths.append(len(toks))
                tokens.extend(map(index, toks, repeat(0)))
            offsets = np.zeros(len(lengths) + 1, dtype=np.intp)
            np.cumsum(lengths, out=offsets[1:])
            return InputTable(tokens=np.array(tokens, dtype=np.intp), offsets=offsets)

        return prepare

    if vectors is None:
        raise ValueError("frozen-projection mode needs vector table(s)")
    tables = vectors if isinstance(vectors, dict) else None
    for table in tables.values() if tables is not None else [vectors]:
        if table.dim != config.d_in:
            raise ValueError(
                f"vector table dim {table.dim} does not match encoder d_in {config.d_in}"
            )

    def vector_of(example: LabeledExample):
        table = tables[example.dataset_id] if tables is not None else vectors
        if example.id not in table:
            raise CorpusError(f"no vector for example id '{example.id}'")
        return table[example.id]

    return lambda examples: input_table(config, [vector_of(ex) for ex in examples])


# Bytes of the widest per-row array of one make_embedder block: 64 rows of
# 512-d float64. Twice that raised frozen 512-d peak RSS by ~2 MiB.
EMBED_BLOCK_BYTES = 64 * 512 * 8


def embed_block_rows(config: EncoderConfig) -> int:
    """Rows per ``make_embedder`` block: as many as fit EMBED_BLOCK_BYTES in
    the block's widest float64 row, the pooled input (d_in_eff), the hidden
    row (h) or the output row (min(d_out, h + 1)); at least one."""
    width = max(config.d_in_eff, config.h, min(config.d_out, config.h + 1))
    return max(1, EMBED_BLOCK_BYTES // (8 * width))


def _eval_head(params: EncoderParams) -> tuple[np.ndarray, np.ndarray]:
    """The output layer that eval applies to the hidden activations:
    ``(W2, b2)`` when d_out <= h + 1, else ``(R[:, :h], R[:, h])`` for the
    R of a QR factorisation of [W2 | b2], whose R.T @ R is its Gram matrix."""
    h = params.config.h
    if params.config.d_out <= h + 1:
        return params.W2, params.b2
    R = np.linalg.qr(np.column_stack([params.W2, params.b2]), mode="r")
    return R[:, :h], R[:, h]


def _is_identity(params: EncoderParams) -> bool:
    """Whether ``params`` is exactly ``identity_projection(d_in)``, checked
    entry by entry: frozen mode, h == 2 * d_in, d_out == d_in, all-zero b1
    and b2, W1 == [I; -I] and W2 == [I, -I]. The mode and widths are
    compared first, so a model of any other shape is rejected before any
    array is read."""
    c = params.config
    d = c.d_in
    if c.mode != FROZEN_PROJECTION or c.h != 2 * d or c.d_out != d:
        return False
    if params.b1.any() or params.b2.any():
        return False
    W1, W2, i = params.W1, params.W2, np.arange(d)
    # With 2d nonzeros each, the 4d signed unit entries below are all of them.
    return bool(
        np.count_nonzero(W1) == np.count_nonzero(W2) == 2 * d
        and (W1[i, i] == 1.0).all() and (W1[d + i, i] == -1.0).all()
        and (W2[i, i] == 1.0).all() and (W2[i, d + i] == -1.0).all()
    )


def make_embedder(params: EncoderParams):
    """Return ``embed(inputs)``: the matrix whose row i embeds row i of the
    InputTable ``inputs`` in an orthonormal basis of the span of the last
    layer's [W2 | b2]. Rows are min(d_out, h + 1) wide and keep every norm
    and inner product of the d_out-wide embeddings. The output layer is
    built once here, so one ``make_embedder`` serves every test set.

    Each embedding is z = [W2 | b2] @ [a; 1] for the hidden activations a.
    Factor [W2 | b2] = Q @ R with Q's h + 1 columns orthonormal; then
    z = Q @ y for y = R @ [a; 1], and z_i . z_j = y_i . y_j. R comes from
    ``np.linalg.qr(..., mode="r")``, a Householder QR that never forms Q or
    the Gram matrix and needs no rank tolerance. When d_out <= h + 1 the
    rows are ``encode_batch``'s, bit for bit.

    ``embed`` pools and projects the rows forward only, ``embed_block_rows``
    at a time: ``_hidden`` and then the output layer of ``_eval_head``, each
    block written with ``out=`` into one workspace allocated per call (token
    gather, pooled inputs, hidden rows) and into its rows of the result.
    These are ``encode_batch``'s operations in its order, so a row depends
    only on the size of its block, and only a short last block rounds
    differently. A block's tokens are gathered and pooled in runs of rows
    whose tokens fit EMBED_BLOCK_BYTES as d_tok-wide float64 rows (a longer
    row alone), which gives each pooled row the bytes of a whole-block gather.

    An exact ``identity_projection`` (``_is_identity``) has no head: its
    rows are the input vectors themselves, and its embedder holds no
    reference to ``params``, so the 4 * d_in**2 floats can be freed as soon
    as it is built. In that network every product with a zero weight is
    +-0 and at most one of relu(m) and relu(-m) is nonzero, so its outputs
    equal its inputs except for the sign of zero entries, which no norm or
    inner product sees.
    """
    if _is_identity(params):
        return _stacked
    W2, b2 = _eval_head(params)
    step, E = embed_block_rows(params.config), params.E
    # Tokens per gather: d_tok-wide float64 rows within EMBED_BLOCK_BYTES.
    cap = 0 if E is None else max(1, EMBED_BLOCK_BYTES // (8 * E.shape[1]))

    def embed(inputs: InputTable) -> np.ndarray:
        n = len(inputs)
        cuts = np.append(np.arange(0, n, step), n)
        Y = np.empty((n, len(b2)))
        M = np.empty((min(n, step), params.config.d_in_eff))
        H = np.empty((len(M), params.config.h))
        if E is not None:
            # np.take below clips, so an index E lacks must be refused here.
            check_tokens(params, inputs)
            offsets, tokens = inputs.offsets, inputs.tokens
            counts = np.diff(offsets)
            lengths = counts.astype(np.float64)
            # A run's gather is at most cap tokens or one row, and at most a block.
            longest = min(np.diff(offsets[cuts]).max(initial=0), max(cap, counts.max(initial=0)))
            G = np.empty((longest, E.shape[1]))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            m, h = M[: hi - lo], H[: hi - lo]
            if E is None:
                np.concatenate(inputs.vectors[lo:hi], out=m.reshape(-1))
            else:
                r = lo
                while r < hi:
                    # The most rows from r whose tokens fit cap, and one at least.
                    fit = np.searchsorted(offsets[r + 1 : hi + 1], offsets[r] + cap, side="right")
                    s = r + max(1, fit)
                    t0, t1 = offsets[r], offsets[s]
                    # mode="raise" would gather into a fresh copy of the output.
                    g = np.take(E, tokens[t0:t1], axis=0, out=G[: t1 - t0], mode="clip")
                    np.add.reduceat(g, offsets[r:s] - t0, axis=0, out=m[r - lo : s - lo])
                    r = s
                m /= lengths[lo:hi, None]
            y = np.matmul(_hidden(params, m, out=h), W2.T, out=Y[lo:hi])
            y += b2
        return Y

    return embed


def save_model(
    path, params: EncoderParams, vocab: Vocabulary | None = None, storage: str = STORAGE_BINARY
) -> None:
    """Write the model file: magic line, JSON header from ``params.config``,
    then parameter payload.

    Binary payload is row-major little-endian float64 and round-trips
    bit-exactly; text payload stores one row per line using shortest
    round-trip decimal representations. A trainable set needs the
    vocabulary that indexes the rows of its ``E``.
    """
    if storage not in (STORAGE_BINARY, STORAGE_TEXT):
        raise ValueError(f"unknown storage '{storage}'")
    config = params.config
    if params.E is not None and vocab is None:
        raise ValueError("trainable models must be saved with their vocabulary")
    if params.E is not None and vocab.size != len(params.E):
        raise ValueError(f"vocabulary of {vocab.size} tokens does not fit E's {len(params.E)} rows")
    header = {
        "storage": storage,
        "mode": config.mode,
        "d_tok": config.d_tok,
        "d_in": config.d_in,
        "h": config.h,
        "d_out": config.d_out,
        "vocab": vocab.token_list() if vocab is not None else None,
        "min_count": vocab.min_count if vocab is not None else None,
    }
    arrays = params.as_dict()
    with atomic_write(path) as f:
        f.write((_MODEL_MAGIC + "\n").encode("utf-8"))
        f.write((json.dumps(header, sort_keys=True, ensure_ascii=False) + "\n").encode("utf-8"))
        for name, shape in params.layout:
            arr = arrays[name]
            if arr.shape != shape:
                raise ValueError(f"parameter '{name}' has shape {arr.shape}, expected {shape}")
            if storage == STORAGE_BINARY:
                # On a little-endian host this is arr itself, so its buffer is written uncopied.
                f.write(np.ascontiguousarray(arr, dtype="<f8"))
            else:
                for row in np.atleast_2d(arr):
                    f.write((" ".join(repr(float(v)) for v in row) + "\n").encode("utf-8"))


def load_model(path) -> tuple[EncoderParams, Vocabulary | None]:
    """Read a model file back as (params, vocab), with the header's config
    as ``params.config``; inverse of save_model."""
    p = Path(path)
    blob = p.read_bytes()
    first_nl = blob.find(b"\n")
    second_nl = blob.find(b"\n", first_nl + 1)
    if first_nl < 0 or second_nl < 0:
        raise CorpusError(f"{p}: truncated model file")
    if blob[:first_nl].decode("utf-8", errors="replace") != _MODEL_MAGIC:
        raise CorpusError(f"{p}: not a model file (bad magic line)")
    try:
        header = json.loads(blob[first_nl + 1 : second_nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise CorpusError(f"{p}: malformed model header") from None
    if not isinstance(header, dict):
        raise CorpusError(f"{p}: malformed model header")
    missing = [key for key in _HEADER_KEYS if key not in header]
    if missing:
        raise CorpusError(f"{p}: model header is missing {', '.join(missing)}")

    try:
        config = EncoderConfig(
            mode=header["mode"],
            d_tok=header["d_tok"] or 1,
            d_in=header["d_in"],
            h=header["h"],
            d_out=header["d_out"],
        )
    except (TypeError, ValueError) as err:
        raise CorpusError(f"{p}: bad model header: {err}") from None
    vocab = None
    if header.get("vocab") is not None:
        try:
            vocab = Vocabulary.from_tokens(header["vocab"], header.get("min_count"))
        except CorpusError as err:
            raise CorpusError(f"{p}: {err}") from None
    if config.mode == TRAINABLE and vocab is None:
        raise CorpusError(f"{p}: trainable model is missing its vocabulary")

    vocab_size = vocab.size if vocab is not None else None
    payload = memoryview(blob)[second_nl + 1 :]
    binary = header["storage"] == STORAGE_BINARY
    if binary:
        have, unit = len(payload), "bytes"
    elif header["storage"] == STORAGE_TEXT:
        try:
            lines = str(payload, "utf-8").splitlines()
        except UnicodeDecodeError:
            raise CorpusError(f"{p}: text payload is not UTF-8") from None
        have, unit = len(lines), "lines"
    else:
        raise CorpusError(f"{p}: unknown storage '{header['storage']}'")
    # Size checks come before allocation: 8 bytes per value, or a text line per row.
    end = 0
    for name, shape in _param_layout(config, vocab_size):
        end += 8 * math.prod(shape) if binary else math.prod(shape[:-1])
        if end > have:
            raise CorpusError(f"{p}: payload too short for parameter '{name}'")
    if end != have:
        raise CorpusError(f"{p}: {have - end} trailing payload {unit}")

    params = EncoderParams.zeros(config, vocab_size)
    arrays = params.as_dict()
    if binary:
        params.flat[...] = np.frombuffer(payload, dtype="<f8")
    else:
        lines = iter(lines)
        for name, arr in arrays.items():
            for row, line in zip(np.atleast_2d(arr), lines):
                try:
                    values = [float(v) for v in line.split()]
                except ValueError:
                    raise CorpusError(f"{p}: non-numeric value in parameter '{name}'") from None
                if len(values) != len(row):
                    raise CorpusError(f"{p}: wrong number of values for parameter '{name}'")
                row[...] = values
    for name, arr in arrays.items():
        if not np.all(np.isfinite(arr)):
            raise CorpusError(f"{p}: non-finite values in parameter '{name}'")
    return params, vocab
