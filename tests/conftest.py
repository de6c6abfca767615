"""Shared test helpers: independent numeric oracles and corpus builders.

The finite-difference and brute-force helpers here deliberately avoid the
library's backward/metric code paths so they stay independent checks.
"""

from __future__ import annotations

import math

import numpy as np

from pairtune.corpus import Corpus, LabeledExample
from pairtune.encoder import FROZEN_PROJECTION, EncoderConfig, EncoderParams, encode_batch


def make_corpus(dataset_id, rows):
    """Corpus from (id, text, label) triples."""
    examples = [
        LabeledExample(id=r[0], text=r[1], class_label=r[2], dataset_id=dataset_id)
        for r in rows
    ]
    return Corpus.from_examples(dataset_id, examples)


def stack_rows(embed_one, corpus):
    """Row-index embedder for delta_cosine_distance from a per-example function."""
    return lambda rows: np.array([embed_one(corpus.examples[i]) for i in rows], dtype=np.float64)


def write_jsonl(path, rows):
    """Write (id, text, label) triples as a json-lines corpus file."""
    import json

    with open(path, "w", encoding="utf-8") as f:
        for ex_id, text, label in rows:
            f.write(json.dumps({"id": ex_id, "text": text, "label": label}) + "\n")
    return path


def well_scaled_params(params, seed):
    """Redraw parameters at O(1) activation scale.

    Finite differences at step 1e-4 need the forward pass away from the
    cosine's vanishing-norm region and the ReLU kinks; the production init
    is deliberately tiny, so gradient-check tests rescale.
    """
    rng = np.random.default_rng(seed)
    if params.E is not None:
        params.E[...] = rng.normal(size=params.E.shape)
    params.W1[...] = rng.normal(size=params.W1.shape) / np.sqrt(params.W1.shape[1])
    params.b1[...] = rng.normal(size=params.b1.shape) * 0.2
    params.W2[...] = rng.normal(size=params.W2.shape) / np.sqrt(params.W2.shape[1])
    params.b2[...] = rng.normal(size=params.b2.shape) * 0.2
    return params


# (offset, weight) pairs, offsets in steps, and the divisor of two stencils:
# central differences (error O(step^2)) and the five-point stencil (O(step^4)).
CENTRAL = (((1, 1.0), (-1, -1.0)), 2.0)
FIVE_POINT = (((2, -1.0), (1, 8.0), (-1, -8.0), (-2, 1.0)), 12.0)


def finite_difference_gradients(
    loss_fn, arrays: dict[str, np.ndarray], step: float = 1e-4, stencil=CENTRAL
):
    """Finite differences of a scalar loss over every array entry: entry i's
    derivative is sum(w * loss(x_i + k * step)) / (divisor * step) over the
    stencil's (k, w) pairs.

    Perturbs the live arrays in place and restores them, so ``loss_fn``
    must recompute the loss from those arrays on every call.
    """
    points, divisor = stencil
    grads = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            total = 0.0
            for k, w in points:
                flat[i] = orig + k * step
                total += w * loss_fn()
            flat[i] = orig
            gflat[i] = total / (divisor * step)
        grads[name] = g
    return grads


# fd_conditioned's distance, in steps, between every ReLU pre-activation and its kink.
KINK_MARGIN_STEPS = 100.0


def fd_conditioned(params, batch, head=None, step: float = 1e-4) -> bool:
    """Whether finite differences at ``step`` (up to two steps from each
    entry) can resolve the gradient of a loss over ``batch``: every ReLU
    pre-activation lies at least KINK_MARGIN_STEPS steps from its kink, so
    no step crosses one, and no part of the loss is flat except to rounding. Without a head
    the batch is Siamese (pair i is rows i and n/2 + i): no pair's
    embeddings are equal, where the cosine is 1 whatever the parameters, and
    every embedding is at least 0.1 long, away from the cosine's
    vanishing-norm region. With a head, its hidden layer is active on some
    row, or the encoder gets no gradient to check.
    """
    Z, fwd = encode_batch(params, batch)
    layers = [(fwd.M, params)] + ([(Z, head)] if head is not None else [])
    pre = [X @ p.W1.T + p.b1 for X, p in layers]
    if min(np.abs(A).min() for A in pre) < KINK_MARGIN_STEPS * step:
        return False
    if head is not None:
        return bool((pre[-1] > 0).any())
    n = len(Z) // 2
    return not (Z[:n] == Z[n:]).all(axis=1).any() and np.linalg.norm(Z, axis=1).min() >= 0.1


def redraw_kinked_units(X, layer, draw_unit, step: float, tries: int = 100) -> bool:
    """Redraw each hidden unit j of ``layer`` (row j of W1 and entry j of
    b1), by ``draw_unit(j)``, while its pre-activation ``X @ W1[j] + b1[j]``
    lies within KINK_MARGIN_STEPS steps of the ReLU kink on some row of X.
    The units of a layer are drawn independently and each one's margin
    depends on its own row only, so a unit redrawn until it clears has the
    distribution that redrawing the whole layer until every unit clears
    would give, at a fraction of the draws. False when a unit fails
    ``tries`` checks in a row."""
    for j in range(len(layer.b1)):
        for _ in range(tries):
            if np.abs(X @ layer.W1[j] + layer.b1[j]).min() >= KINK_MARGIN_STEPS * step:
                break
            draw_unit(j)
        else:
            return False
    return True


def identity_reference(dim):
    """The exact identity projection from d_in = dim, built with dim x dim
    temporaries: [I; -I] before the ReLU and [I, -I] after it, each -I made
    by ``np.negative(np.eye(dim))``, so it holds -0.0 off its diagonal."""
    config = EncoderConfig(mode=FROZEN_PROJECTION, d_in=dim, h=2 * dim, d_out=dim)
    params = EncoderParams.zeros(config)
    eye = np.eye(dim)
    params.W1[:dim] = eye
    params.W1[dim:] = np.negative(eye)
    params.W2[:, :dim] = eye
    params.W2[:, dim:] = np.negative(eye)
    return params


# The oracle below rounds in another order than the library's batched
# products, so its rows agree with theirs to this tolerance, not bit for bit.
FORWARD_RTOL = FORWARD_ATOL = 1e-12


def straight_line_forward(params, x, head=None):
    """One input's encoder output, written out row by row without the
    library's kernels: the mean of its tokens' embedding rows, summed in a
    Python loop (its fixed vector in frozen mode), then relu(W1 @ m + b1),
    then the output layer ``head`` = (W2, b2), by default the model's own."""
    if params.E is not None:
        m = np.zeros(params.E.shape[1])
        for t in x:
            m = m + params.E[t]
        m = m / len(x)
    else:
        m = np.asarray(x, dtype=np.float64)
    hidden = np.maximum(params.W1 @ m + params.b1, 0.0)
    W2, b2 = (params.W2, params.b2) if head is None else head
    return W2 @ hidden + b2


def pair_cosine_loss(Z, targets, epsilon_norm):
    """Summed squared error of each pair's cosine similarity against its
    target, written out pair by pair: pair i is rows i and len(Z) // 2 + i."""
    n = len(Z) // 2
    total = 0.0
    for u, v, target in zip(Z[:n], Z[n:], targets):
        nu = max(math.sqrt(float(u @ u)), epsilon_norm)
        nv = max(math.sqrt(float(v @ v)), epsilon_norm)
        total += (float(u @ v) / (nu * nv) - target) ** 2
    return total


def cross_entropy_loss(logits, target_indices):
    """Summed softmax cross-entropy of logit rows, written out row by row."""
    total = 0.0
    for row, y in zip(logits, target_indices):
        shifted = row - row.max()
        total += math.log(float(np.sum(np.exp(shifted)))) - float(shifted[y])
    return total


def encoder_and_head(encoder, head) -> dict[str, np.ndarray]:
    """An encoder's and a naive head's arrays in one dict.

    Both groups name their arrays W1, b1, W2 and b2, so the head's keys get
    a ``head.`` prefix; the assert shows no array was dropped by a clash.
    """
    arrays = encoder.as_dict() | {f"head.{k}": v for k, v in head.as_dict().items()}
    assert len(arrays) == len(encoder.as_dict()) + len(head.as_dict())
    return arrays


def dense_table_gradient(rows):
    """E's dense gradient from a batch's token rows, built apart from the
    library: ``rows.values`` added at ``rows.index`` with ``np.add.at`` into
    a zeroed array of E's shape."""
    dense = np.zeros(rows.shape)
    np.add.at(dense.reshape(-1), rows.index, rows.values)
    return dense


def with_table_gradient(arrays: dict, rows) -> dict:
    """A gradient dict whose "E" entry is replaced by the densified token
    rows (unchanged when ``rows`` is None, as in frozen mode). The batch
    backward must have left the accumulator's own E at zero."""
    if rows is None:
        return arrays
    assert not arrays["E"].any()
    return arrays | {"E": dense_table_gradient(rows)}


def max_relative_error(analytic: dict, numeric: dict, abs_floor: float = 1e-8) -> float:
    """Largest element-wise relative error between two gradient dicts."""
    worst = 0.0
    for name, num in numeric.items():
        ana = analytic[name]
        denom = np.maximum(np.maximum(np.abs(ana), np.abs(num)), abs_floor)
        worst = max(worst, float((np.abs(ana - num) / denom).max()))
    return worst


def brute_force_delta(corpus, vector_for_id):
    """Exhaustive all-distinct-pairs distance gap, via plain Python loops.

    Returns (delta, mean_diff, mean_same) over every unordered example pair.
    """

    def cos_dist(u, v):
        dot = sum(x * y for x, y in zip(u, v))
        nu = math.sqrt(sum(x * x for x in u))
        nv = math.sqrt(sum(y * y for y in v))
        return 1.0 - dot / (max(nu, 1e-12) * max(nv, 1e-12))

    same, diff = [], []
    examples = corpus.examples
    for i in range(len(examples)):
        for j in range(i + 1, len(examples)):
            d = cos_dist(vector_for_id[examples[i].id], vector_for_id[examples[j].id])
            if examples[i].class_label == examples[j].class_label:
                same.append(d)
            else:
                diff.append(d)
    mean_same = sum(same) / len(same)
    mean_diff = sum(diff) / len(diff)
    return mean_diff - mean_same, mean_diff, mean_same
