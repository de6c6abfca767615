"""Cosine-distance-gap evaluation over class-balanced sampled pairs.

The metric is the mean cosine distance of different-class pairs minus the
mean cosine distance of same-class pairs; larger means better class
separation. Pairs come from the same class-balanced sampler used for
training episodes, so every class contributes equally regardless of size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import Corpus, atomic_write, check_field
from .episodes import EpisodeSpec, PairSet, generate_episodes, same_pair_count
from .training import NumericError


@dataclass
class EvalSpec:
    n_pairs: int = 5000
    same_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.same_fraction < 1.0:
            raise ValueError("same_fraction must be strictly between 0 and 1")
        # The gap needs at least one pair of each kind.
        n_same = same_pair_count(self.n_pairs, self.same_fraction)
        if not 1 <= n_same < self.n_pairs:
            raise ValueError(
                f"n_pairs {self.n_pairs} at same_fraction {self.same_fraction} gives {n_same} "
                f"same-class and {self.n_pairs - n_same} different-class pairs; need >= 1 of each"
            )


@dataclass
class DeltaReport:
    """Distance-gap result: per-kind pair counts, means, standard errors."""

    n_pairs: int
    s_count: int
    d_count: int
    mean_same_distance: float
    mean_diff_distance: float
    same_stderr: float
    diff_stderr: float
    delta: float


EPSILON_NORM = 1e-12

# Bytes of each of the two gathered member blocks that one step scores: 504
# pairs of make_embedder's 65-wide rows at h 64, or 64 pairs of 512-d rows.
# Blocks of 128 KiB or 512 KiB each scored as fast or slower at widths 16-512.
PAIR_BLOCK_BYTES = 256 * 1024


# Kept because benchmarks/child.py's traced run wraps it by name.
def cosine_distance(u, v, epsilon_norm: float = EPSILON_NORM) -> float:
    """1 - u.v / (max(|u|, eps) * max(|v|, eps)): 0 for aligned vectors, 1
    whenever either vector is 0, and 2 for opposite ones."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"length mismatch: {u.shape} vs {v.shape}")
    gu = max(float(np.linalg.norm(u)), epsilon_norm)
    gv = max(float(np.linalg.norm(v)), epsilon_norm)
    return 1.0 - float(u @ v / (gu * gv))


def _stderr(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def eval_pairs(test_corpus: Corpus, spec: EvalSpec) -> PairSet:
    """A test set's spec.n_pairs sampled pairs, on which every model is scored."""
    quotas = {test_corpus.dataset_id: spec.n_pairs}
    return generate_episodes([test_corpus], EpisodeSpec(quotas, spec.same_fraction, spec.seed))


def delta_cosine_distance(embed, inputs, pairs: PairSet) -> DeltaReport:
    """The distance gap over ``pairs``, as drawn by ``eval_pairs``.

    ``embed(inputs)``, as made by ``make_embedder(params)``, runs once and
    returns one row per row of ``inputs``, the table of ``pairs.examples``;
    ``pairs.a`` and ``pairs.b`` are rows of it. The rows may be of any width
    that keeps the embeddings' norms and inner products, as ``make_embedder``'s
    narrowed rows do. Pairs score by ``cosine_distance``'s formula, as many at
    a time as fill two PAIR_BLOCK_BYTES buffers, allocated once per call, with
    their members' rows.
    """
    Z = np.asarray(embed(inputs), dtype=np.float64)
    if len(Z) != len(pairs.examples):
        raise ValueError(f"embed returned {len(Z)} rows for {len(pairs.examples)} examples")
    squares = np.einsum("ij,ij->i", Z, Z)
    # Only a row whose sum of squares is non-finite can hold a non-finite entry.
    suspect = np.flatnonzero(~np.isfinite(squares))
    bad = suspect[~np.isfinite(Z[suspect]).all(axis=1)]
    if bad.size:
        raise NumericError(f"non-finite embedding for example id '{pairs.examples[bad[0]].id}'")
    norms = np.maximum(np.sqrt(squares), EPSILON_NORM)

    dist = np.empty(len(pairs))
    step = max(1, PAIR_BLOCK_BYTES // (8 * Z.shape[1]))
    U = np.empty((min(step, len(pairs)), Z.shape[1]))
    V = np.empty_like(U)
    for lo in range(0, len(pairs), step):
        ia, ib = pairs.a[lo : lo + step], pairs.b[lo : lo + step]
        # Every index is a row of Z, so clipping moves none; mode="raise"
        # would gather into a fresh copy of the buffer.
        u = np.take(Z, ia, axis=0, out=U[: len(ia)], mode="clip")
        v = np.take(Z, ib, axis=0, out=V[: len(ia)], mode="clip")
        d = np.einsum("ij,ij->i", u, v, out=dist[lo : lo + step])
        d /= norms[ia] * norms[ib]
        np.subtract(1.0, d, out=d)

    same = pairs.target == 1
    same_arr, diff_arr = dist[same], dist[~same]
    mean_same, mean_diff = float(same_arr.mean()), float(diff_arr.mean())
    return DeltaReport(
        n_pairs=len(pairs),
        s_count=int(same_arr.size),
        d_count=int(diff_arr.size),
        mean_same_distance=mean_same,
        mean_diff_distance=mean_diff,
        same_stderr=_stderr(same_arr),
        diff_stderr=_stderr(diff_arr),
        delta=mean_diff - mean_same,
    )


REPORT_HEADER = (
    "model",
    "test_set",
    "n_pairs",
    "mean_same",
    "mean_diff",
    "same_stderr",
    "diff_stderr",
    "delta",
)


def emit_report(rows, path) -> None:
    """Write (model_name, test_name, DeltaReport) rows as a TSV table.

    Floats carry 9 significant digits and parse back via parse_report. Names
    are checked by ``check_field`` before anything is written.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no report rows to write")
    for model_name, test_name, _ in rows:
        check_field(model_name, "model name")
        check_field(test_name, "test set name")
    with atomic_write(path, encoding="utf-8") as f:
        f.write("\t".join(REPORT_HEADER) + "\n")
        for model_name, test_name, report in rows:
            f.write(
                f"{model_name}\t{test_name}\t{report.n_pairs}"
                f"\t{report.mean_same_distance:.9g}\t{report.mean_diff_distance:.9g}"
                f"\t{report.same_stderr:.9g}\t{report.diff_stderr:.9g}"
                f"\t{report.delta:.9g}\n"
            )


def parse_report(path) -> list[dict]:
    """Read an emit_report file back into per-row dicts."""
    with open(path, encoding="utf-8") as f:
        lines = [line.rstrip("\n") for line in f if line.strip()]
    if not lines or tuple(lines[0].split("\t")) != REPORT_HEADER:
        raise ValueError(f"{path}: not a report file")
    out = []
    for line in lines[1:]:
        fields = line.split("\t")
        if len(fields) != len(REPORT_HEADER):
            raise ValueError(f"{path}: malformed row: {line!r}")
        row = dict(zip(REPORT_HEADER, fields))
        row["n_pairs"] = int(row["n_pairs"])
        for key in ("mean_same", "mean_diff", "same_stderr", "diff_stderr", "delta"):
            row[key] = float(row[key])
        out.append(row)
    return out
