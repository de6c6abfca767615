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

from .corpus import Corpus
from .episodes import EpisodeSpec, generate_episodes
from .training import NumericError, cosine_similarity


@dataclass
class EvalSpec:
    n_pairs: int = 5000
    same_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.n_pairs < 2:
            raise ValueError("n_pairs must be >= 2")
        if not 0.0 < self.same_fraction < 1.0:
            raise ValueError("same_fraction must be strictly between 0 and 1")


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


def cosine_distance(u, v, epsilon_norm: float = 1e-12) -> float:
    """1 - cosine similarity; 0 for aligned vectors, 2 for opposite ones."""
    return 1.0 - cosine_similarity(u, v, epsilon_norm)


def _stderr(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1) / math.sqrt(values.size))


def delta_cosine_distance(encode_fn, test_corpus: Corpus, spec: EvalSpec) -> DeltaReport:
    """Estimate the distance gap on spec.n_pairs sampled pairs.

    Each distinct example is embedded once. Deterministic given the seed.
    """
    pairs = generate_episodes(
        [test_corpus],
        EpisodeSpec(
            quotas={test_corpus.dataset_id: spec.n_pairs},
            same_fraction=spec.same_fraction,
            seed=spec.seed,
        ),
    )

    embedded: dict[int, np.ndarray] = {}
    for i in pairs.referenced().tolist():
        example = pairs.examples[i]
        z = embedded[i] = np.asarray(encode_fn(example), dtype=np.float64)
        if not np.all(np.isfinite(z)):
            raise NumericError(f"non-finite embedding for example id '{example.id}'")

    same, diff = [], []
    for i, j, t in zip(pairs.a.tolist(), pairs.b.tolist(), pairs.target.tolist()):
        (same if t == 1 else diff).append(cosine_distance(embedded[i], embedded[j]))

    same_arr = np.array(same, dtype=np.float64)
    diff_arr = np.array(diff, dtype=np.float64)
    mean_same = float(same_arr.mean()) if same_arr.size else 0.0
    mean_diff = float(diff_arr.mean()) if diff_arr.size else 0.0
    return DeltaReport(
        n_pairs=spec.n_pairs,
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

    Floats carry 9 significant digits and parse back via parse_report.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no report rows to write")
    with open(path, "w", encoding="utf-8") as f:
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
