"""Both finetuning regimes plus the optimizer.

The Siamese trainer runs every pair member through one shared parameter
set, scores the pair with cosine similarity, and regresses that score onto
a binary target with a squared-error loss. The naive trainer attaches a
classification head, a frozen-projection encoder over the embeddings, and
trains with softmax cross-entropy; callers discard the head and keep the
finetuned encoder.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus
from .episodes import PairSet
# encode and encode_backward are not called here; benchmarks/child.py's traced
# run wraps them by name in this module.
from .encoder import (  # noqa: F401
    FROZEN_PROJECTION,
    EncoderConfig,
    EncoderParams,
    InputTable,
    TokenRows,
    add_token_rows,
    check_tokens,
    encode,
    encode_backward,
    encode_batch,
    encode_batch_backward,
    init_encoder_params,
    input_table,
    project,
    project_backward,
)


class NumericError(Exception):
    """A training or evaluation quantity stopped being finite."""


def _check_steps(cfg) -> None:
    """The epoch, batch and step-size rules both trainers' configs share."""
    if cfg.epochs < 0 or cfg.batch_size < 1 or not 0 < cfg.learning_rate < math.inf:
        raise ValueError("epochs >= 0, batch_size >= 1 and a finite learning_rate > 0 required")


@dataclass
class SiameseConfig:
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-3
    target_same: float = 1.0
    target_diff: float = 0.0
    epsilon_norm: float = 1e-12
    seed: int = 0

    def __post_init__(self):
        _check_steps(self)
        if not (-1.0 <= self.target_diff < self.target_same <= 1.0):
            raise ValueError("targets must lie in [-1, 1] with target_same > target_diff")


@dataclass
class NaiveConfig:
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-3
    hidden_dim: int = 128
    seed: int = 0

    def __post_init__(self):
        _check_steps(self)
        if self.hidden_dim < 1:
            raise ValueError("hidden_dim must be >= 1")


def init_head_params(d_out: int, hidden_dim: int, n_classes: int, seed: int = 0) -> EncoderParams:
    """The classification head: a frozen-projection encoder from embeddings to logits."""
    config = EncoderConfig(mode=FROZEN_PROJECTION, d_in=d_out, h=hidden_dim, d_out=n_classes)
    return init_encoder_params(config, seed=seed)


# Elements per block of the Adam step: one 256 KiB block of each of p, g, m,
# v and the scratch array (5 x 256 KiB) stays in a 2 MiB L2 cache.
ADAM_BLOCK = 32768
# Adam's moment decay rates and epsilon: Kingma & Ba's defaults (arXiv:1412.6980).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Adam moment accumulators mirroring the parameter shapes, plus one
    scratch block that ``optimizer_step`` reuses instead of allocating."""

    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    scratch: np.ndarray = field(init=False, repr=False, default_factory=lambda: np.empty(ADAM_BLOCK))

    @classmethod
    def for_params(cls, params: dict[str, np.ndarray]) -> "OptimizerState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
        )


def table_block(shape: tuple[int, int]) -> int:
    """Elements of the gradient block through which ``optimizer_step`` walks
    an embedding table of ``shape``: as many whole rows as fit ADAM_BLOCK
    (at least one), and no more than the table holds."""
    rows, width = shape
    return min(rows, max(1, ADAM_BLOCK // width)) * width


def optimizer_step(
    params: dict[str, np.ndarray],
    grads: dict,
    state: OptimizerState,
    learning_rate: float,
    *,
    batch_size: int = 1,
) -> tuple[dict[str, np.ndarray], OptimizerState]:
    """One bias-corrected Adam update; parameter arrays change in place.

    ``grads`` hold sums over a batch of ``batch_size`` items: the update
    uses their mean and leaves ``grads`` zeroed for the next batch. The step
    is Kingma & Ba's folded form (arXiv:1412.6980, section 2, after
    Algorithm 1): both bias corrections fold into the step size and epsilon,
    and the batch mean folds into the moment weights, so ``m`` and ``v`` stay
    the textbook moments. Each array is walked in ADAM_BLOCK-element blocks
    through the state's scratch block; every element sees the same operations
    in the same order whatever the block size.

    A gradient is an array shaped like its parameter, or, for a flat vector
    that starts with an embedding table E, a pair ``(rows, g)``: ``rows`` are
    the batch's ``TokenRows`` of E, and ``g`` holds one ``table_block`` of
    gradient followed by the dense gradient of the elements after E. E is
    walked one row-aligned block at a time: that block's token occurrences are
    added with ``np.add.at``, in batch order, into the zeroed block of ``g``,
    which then takes the update and is zeroed again. Every element of E so
    gets the additions it would get in a zeroed dense gradient, in the same
    order, and then the same update. The last block of E sits at the end of
    ``g``'s block, so it and the elements after E are walked as one array: a
    table that fits one block takes the step a dense gradient would.
    """
    state.t += 1
    r2 = math.sqrt(1.0 - ADAM_BETA2**state.t)
    step_size = learning_rate * r2 / (1.0 - ADAM_BETA1**state.t)
    eps_hat = ADAM_EPS * r2
    a1 = (1.0 - ADAM_BETA1) / batch_size
    a2 = (1.0 - ADAM_BETA2) / (batch_size * batch_size)

    def walk(p, g, m, v):
        for lo in range(0, p.size, ADAM_BLOCK):
            hi = lo + ADAM_BLOCK
            gb, mb, vb = g[lo:hi], m[lo:hi], v[lo:hi]
            tmp = state.scratch[: len(gb)]
            mb *= ADAM_BETA1
            np.multiply(a1, gb, out=tmp)
            mb += tmp
            vb *= ADAM_BETA2
            np.multiply(gb, gb, out=tmp)
            tmp *= a2
            vb += tmp
            # p -= step_size * m / (sqrt(v) + eps_hat), one operation at a time.
            np.sqrt(vb, out=tmp)
            tmp += eps_hat
            np.divide(mb, tmp, out=tmp)
            tmp *= step_size
            p[lo:hi] -= tmp
            gb.fill(0.0)

    for name, g in grads.items():
        if name not in params:
            raise ValueError(f"gradient for unknown parameter '{name}'")
        p = params[name]
        rows, g = g if isinstance(g, tuple) else (None, g)
        if rows is None:
            table = block = last = 0
            mismatch = g.shape != p.shape
        else:
            table, block = math.prod(rows.shape), table_block(rows.shape)
            last = (table - 1) // block * block  # where E's last block starts
            mismatch = g.size != p.size - table + block
        if mismatch:
            raise ValueError(f"shape mismatch for '{name}': {g.shape} vs {p.shape}")
        arrays = (p, g, state.m[name], state.v[name])
        if not all(a.flags.c_contiguous for a in arrays):
            raise ValueError(f"'{name}', its gradient and its moments must be C-contiguous")
        p, g, m, v = (a.reshape(-1) for a in arrays)
        if last:
            index, values, cuts = _by_block(rows, block, last)
            for k, lo in enumerate(range(0, last, block)):
                hi = lo + block
                np.add.at(g[:block], index[cuts[k] : cuts[k + 1]] - lo, values[cuts[k] : cuts[k + 1]])
                walk(p[lo:hi], g[:block], m[lo:hi], v[lo:hi])
            # The last block's gradient ends where the block of storage does.
            np.add.at(g, index[cuts[-1] :] - (table - block), values[cuts[-1] :])
            p, g, m, v = p[last:], g[block - (table - last) :], m[last:], v[last:]
        elif rows is not None:
            np.add.at(g, rows.index, rows.values)
        walk(p, g, m, v)
    return params, state


def _by_block(rows, block: int, last: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """``rows`` grouped by the ``block``-element block of E they fall in,
    in batch order within each group: ``(index, values, cuts)``, where the
    group of block k is ``[cuts[k]:cuts[k + 1]]`` and that of the last
    block, which starts at element ``last`` > 0, runs from ``cuts[-1]``."""
    width = rows.shape[1]
    # A block holds whole rows, so a token position's width entries share
    # one, and its first index says which. Keys in their smallest integer
    # type make the stable sort a radix sort.
    key = (rows.index[::width] // block).astype(np.min_scalar_type(last // block))
    order = np.argsort(key, kind="stable")
    cuts = np.searchsorted(key[order], np.arange(last // block + 1)) * width
    index = np.take(rows.index.reshape(-1, width), order, axis=0).ravel()
    values = np.take(rows.values.reshape(-1, width), order, axis=0).ravel()
    return index, values, cuts.tolist()


def siamese_loss(sim, target):
    """Squared error against the binary target: ((sim-t)^2, 2(sim-t)).

    Element-wise on arrays, so it scores a whole batch of similarities.
    """
    r = sim - target
    return r * r, 2.0 * r


@dataclass
class TrainingReport:
    """Per-epoch mean loss trajectory."""

    epoch_losses: list[float] = field(default_factory=list)


def siamese_batch_backward(
    params: EncoderParams,
    batch: InputTable,
    targets,
    epsilon_norm: float,
    grad: EncoderParams,
) -> tuple[np.ndarray, TokenRows | None]:
    """Per-pair losses of a batch and E's gradient as token rows; the rest
    of their summed gradient joins ``grad`` (see ``encode_batch_backward``).

    ``batch`` holds 2B rows: pair i is (row i, row B + i). All 2B members go
    through one ``encode_batch`` call. When a norm sits at the epsilon guard
    it is constant, so its branch of the cosine's quotient rule drops out.
    """
    n = len(batch) // 2
    Z, fwd = encode_batch(params, batch)
    za, zb = Z[:n], Z[n:]
    nu = np.linalg.norm(za, axis=1)
    nv = np.linalg.norm(zb, axis=1)
    gu = np.maximum(nu, epsilon_norm)
    gv = np.maximum(nv, epsilon_norm)
    sim = np.einsum("ij,ij->i", za, zb) / (gu * gv)
    losses, dsim = siamese_loss(sim, np.asarray(targets, dtype=np.float64))
    cross = (dsim / (gu * gv))[:, None]
    self_u = np.where(nu > epsilon_norm, dsim * sim / (gu * gu), 0.0)[:, None]
    self_v = np.where(nv > epsilon_norm, dsim * sim / (gv * gv), 0.0)[:, None]
    dZ = np.concatenate([cross * zb - self_u * za, cross * za - self_v * zb])
    return losses, encode_batch_backward(params, fwd, dZ, grad)


# Kept because benchmarks/child.py's traced run wraps it by name.
def siamese_pair_backward(
    params: EncoderParams,
    xa,
    xb,
    target: float,
    epsilon_norm: float,
    grad: EncoderParams,
) -> float:
    """Loss of one pair, whose gradient joins ``grad``, ``grad.E`` included:
    ``siamese_batch_backward`` on one pair."""
    batch = input_table(params.config, [xa, xb])
    losses, rows = siamese_batch_backward(params, batch, [target], epsilon_norm, grad)
    add_token_rows(grad, rows)
    return float(losses[0])


def naive_batch_backward(
    params: EncoderParams,
    head: EncoderParams,
    batch: InputTable,
    target_indices,
    egrad: EncoderParams,
    hgrad: EncoderParams,
) -> tuple[np.ndarray, TokenRows | None]:
    """Per-row cross-entropy losses of a batch and E's gradient as token
    rows; the other gradients join the accumulators.

    The head projects the batch's embeddings to logits; the embeddings'
    gradient is the head's pre-activation gradient times ``head.W1``.
    """
    Z, fwd = encode_batch(params, batch)
    logits, head_fwd = project(head, Z)
    losses, dlogits = softmax_cross_entropy(logits, target_indices)
    dA = project_backward(head, head_fwd, dlogits, hgrad)
    return losses, encode_batch_backward(params, fwd, dA @ head.W1, egrad)


# Kept because benchmarks/child.py's traced run wraps it by name.
def naive_example_backward(
    params: EncoderParams,
    head: EncoderParams,
    x,
    target_index: int,
    egrad: EncoderParams,
    hgrad: EncoderParams,
) -> float:
    """Loss of one example, whose gradients join ``egrad`` (``egrad.E``
    included) and ``hgrad``: ``naive_batch_backward`` on one row."""
    batch = input_table(params.config, [x])
    losses, rows = naive_batch_backward(params, head, batch, [target_index], egrad, hgrad)
    add_token_rows(egrad, rows)
    return float(losses[0])


def _encoder_gradient(params: EncoderParams) -> tuple[np.ndarray, EncoderParams]:
    """An encoder's zeroed gradient storage for ``optimizer_step`` and the
    accumulator of its projection (W1, b1, W2 and b2), which views it.

    Frozen mode: ``zeros_like()`` and its ``flat``. Trainable mode holds no
    E-sized array: the storage is one ``table_block`` for E's token rows
    followed by the arrays after E, and the accumulator is the
    frozen-projection set of the encoder's widths laid over that tail.
    """
    if params.E is None:
        grad = params.zeros_like()
        return grad.flat, grad
    c = params.config
    block = table_block(params.E.shape)
    storage = np.zeros(block + params.flat.size - params.E.size)
    projection = EncoderConfig(mode=FROZEN_PROJECTION, d_in=c.d_tok, h=c.h, d_out=c.d_out)
    return storage, EncoderParams(projection, None, storage[block:])


def _run_epochs(n_items: int, cfg, params: dict, grads: dict, batch_losses, log) -> TrainingReport:
    """The shared mini-batch loop of both trainers.

    ``params`` maps each parameter group's name to its flat vector and
    ``grads`` to its gradient storage (``_encoder_gradient``'s for the
    encoder). Each epoch reshuffles the item order with the ``cfg.seed``
    stream and walks it in batches. ``batch_losses(batch)`` returns the
    per-item losses of the item indices in ``batch`` and the encoder's
    token rows (None in frozen mode), and adds the rest of their summed
    gradient into ``grads``, which start zeroed; each batch then takes one
    Adam step on the batch-mean gradient, which also re-zeroes ``grads``.
    Every epoch ends by checking that the parameters are still finite.
    """
    rng = np.random.default_rng(cfg.seed)
    opt = OptimizerState.for_params(params)
    report = TrainingReport()
    order = np.arange(n_items)
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        rng.shuffle(order)
        total = 0.0
        for batch_no, lo in enumerate(range(0, n_items, cfg.batch_size)):
            batch = order[lo : lo + cfg.batch_size]
            losses, rows = batch_losses(batch)
            if not np.isfinite(losses).all():
                raise NumericError(f"non-finite loss at epoch {epoch} batch {batch_no}")
            total += float(losses.sum())
            step = grads if rows is None else grads | {"encoder": (rows, grads["encoder"])}
            optimizer_step(params, step, opt, cfg.learning_rate, batch_size=len(batch))
        for name, flat in params.items():
            if not np.isfinite(flat).all():
                raise NumericError(f"non-finite {name} parameters after epoch {epoch}")
        elapsed = time.perf_counter() - started
        mean_loss = total / n_items
        report.epoch_losses.append(mean_loss)
        if log is not None:
            log(f"epoch {epoch + 1}/{cfg.epochs} mean_loss={mean_loss:.6f} elapsed={elapsed:.2f}s")
    return report


def train_siamese(
    params: EncoderParams,
    pairs: PairSet,
    table: InputTable,
    scfg: SiameseConfig,
    log=None,
) -> tuple[EncoderParams, TrainingReport]:
    """Finetune the shared encoder on same/different pairs.

    Gradients from both branches of every pair accumulate into the one
    parameter set; batching and the Adam steps follow ``_run_epochs``.
    Deterministic given the seed.

    Row i of ``table`` is the encoder input of ``pairs.examples[i]``; every
    batch gathers its 2B rows ``pairs.a`` and ``pairs.b`` from it.
    """
    if len(table) != len(pairs.examples):
        raise ValueError(f"input table has {len(table)} rows for {len(pairs.examples)} examples")
    check_tokens(params, table)  # before any step changes params
    if len(pairs) == 0 and scfg.epochs > 0:
        raise ValueError("no training pairs")
    targets = np.where(pairs.target == 1, scfg.target_same, scfg.target_diff)
    storage, grad = _encoder_gradient(params)

    def batch_losses(batch):
        members = table.take(np.concatenate((pairs.a[batch], pairs.b[batch])))
        return siamese_batch_backward(params, members, targets[batch], scfg.epsilon_norm, grad)

    report = _run_epochs(
        len(pairs), scfg, {"encoder": params.flat}, {"encoder": storage}, batch_losses, log
    )
    return params, report


def softmax_cross_entropy(logits: np.ndarray, target_indices) -> tuple[np.ndarray, np.ndarray]:
    """Per-row losses and d(loss)/d(logits) for a batch of logit rows."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    rows = np.arange(len(shifted))
    losses = lse - shifted[rows, target_indices]
    dlogits = np.exp(shifted - lse[:, None])
    dlogits[rows, target_indices] -= 1.0
    return losses, dlogits


def train_naive(
    params: EncoderParams,
    corpus: Corpus,
    table: InputTable,
    ncfg: NaiveConfig,
    log=None,
) -> tuple[EncoderParams, EncoderParams, TrainingReport]:
    """Finetune encoder + classification head on the corpus's class labels.

    Gradients flow through the head into the encoder; row i of ``table`` is
    the encoder input of ``corpus.examples[i]``. Returns the finetuned
    encoder and the head (which callers typically discard).
    """
    if len(table) != len(corpus):
        raise ValueError(f"input table has {len(table)} rows for {len(corpus)} examples")
    check_tokens(params, table)  # before any step changes params
    # stable class -> output index assignment: sorted labels
    label_index = {label: i for i, label in enumerate(sorted(corpus.class_index))}
    head = init_head_params(params.config.d_out, ncfg.hidden_dim, len(label_index), seed=ncfg.seed)
    targets = np.array([label_index[ex.class_label] for ex in corpus.examples], dtype=np.intp)
    storage, egrad = _encoder_gradient(params)
    hgrad = head.zeros_like()

    def batch_losses(batch):
        return naive_batch_backward(params, head, table.take(batch), targets[batch], egrad, hgrad)

    report = _run_epochs(
        len(corpus), ncfg,
        {"encoder": params.flat, "head": head.flat},
        {"encoder": storage, "head": hgrad.flat},
        batch_losses, log,
    )
    return params, head, report
