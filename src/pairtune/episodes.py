"""Balanced same-class / different-class pair generation.

Pairs are sampled class-first: a same-pair draws a class uniformly among
those with at least two examples, then two distinct members; a
different-pair draws an unordered class pair uniformly, then one member
from each. Different-class pairs never cross datasets. Pairs may repeat
across the sequence; the emitted order is a seeded shuffle over all
datasets' pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus, LabeledExample, open_text


class EpisodeError(Exception):
    """Invalid pair-generation request for the given corpora."""


@dataclass
class PairSet:
    """Pairs as index arrays over one example table.

    Pair i is (examples[a[i]], examples[b[i]]) with target[i] 1 for a
    same-class pair and 0 otherwise. Both members come from the dataset
    examples[a[i]].dataset_id.
    """

    examples: list[LabeledExample]
    a: np.ndarray
    b: np.ndarray
    target: np.ndarray

    def __len__(self) -> int:
        return len(self.target)

    def referenced(self) -> np.ndarray:
        """Sorted indices of the examples that some pair uses, each once."""
        # A mask rather than np.unique, which imports numpy.ma on first use.
        used = np.zeros(len(self.examples), dtype=bool)
        used[self.a] = True
        used[self.b] = True
        return np.flatnonzero(used)


@dataclass
class EpisodeSpec:
    """Per-dataset pair quotas, the same-pair share, and the RNG seed."""

    quotas: dict[str, int] = field(default_factory=dict)
    same_fraction: float = 0.5
    seed: int = 0


def same_pair_count(quota: int, same_fraction: float) -> int:
    """Number of same-class pairs in a quota (round half up)."""
    return int(quota * same_fraction + 0.5)


def generate_episodes(corpora, spec: EpisodeSpec) -> PairSet:
    """Generate exactly spec.quotas[d] pairs for each quota'd dataset d.

    The example table is every corpus's examples in order. Deterministic
    given the seed; the same seed yields the identical pair sequence.
    """
    if isinstance(corpora, Corpus):
        corpora = [corpora]
    if not 0.0 < spec.same_fraction < 1.0:
        raise EpisodeError("same_fraction must be strictly between 0 and 1")
    by_id: dict[str, Corpus] = {}
    for corpus in corpora:
        if corpus.dataset_id in by_id:
            raise EpisodeError(f"duplicate dataset id '{corpus.dataset_id}'")
        by_id[corpus.dataset_id] = corpus
    unknown = set(spec.quotas) - set(by_id)
    if unknown:
        raise EpisodeError(f"quota names unknown dataset(s): {sorted(unknown)}")
    for ds, quota in spec.quotas.items():
        if quota < 1:
            raise EpisodeError(f"quota for '{ds}' must be >= 1, got {quota}")

    rng = np.random.default_rng(spec.seed)
    examples: list[LabeledExample] = []
    triples: list[tuple[int, int, int]] = []
    for corpus in corpora:
        if corpus.dataset_id in spec.quotas:
            quota = spec.quotas[corpus.dataset_id]
            triples += _dataset_pairs(corpus, len(examples), quota, spec, rng)
        examples += corpus.examples
    order = rng.permutation(len(triples))
    a, b, target = np.array(triples, dtype=np.intp).reshape(-1, 3)[order].T
    return PairSet(examples, a, b, target)


def _dataset_pairs(corpus: Corpus, offset: int, quota: int, spec: EpisodeSpec, rng):
    """(a, b, target) triples for one dataset, indexing its examples from offset."""
    ds = corpus.dataset_id
    labels = corpus.classes()
    if len(labels) < 2:
        raise EpisodeError(f"dataset '{ds}' has fewer than 2 classes")
    buckets = {lab: corpus.class_index[lab] for lab in labels}
    eligible = [lab for lab in labels if len(buckets[lab]) >= 2]

    n_same = same_pair_count(quota, spec.same_fraction)
    n_diff = quota - n_same
    if n_same > 0 and not eligible:
        raise EpisodeError(
            f"dataset '{ds}' has no class with >= 2 examples; same-pairs impossible"
        )

    out = []
    for _ in range(n_same):
        bucket = buckets[eligible[rng.integers(len(eligible))]]
        i = int(rng.integers(len(bucket)))
        j = int(rng.integers(len(bucket) - 1))
        if j >= i:  # two distinct members, uniform without replacement
            j += 1
        out.append((offset + bucket[i], offset + bucket[j], 1))
    for _ in range(n_diff):
        ca = int(rng.integers(len(labels)))
        cb = int(rng.integers(len(labels) - 1))
        if cb >= ca:
            cb += 1
        bucket_a, bucket_b = buckets[labels[ca]], buckets[labels[cb]]
        a = bucket_a[rng.integers(len(bucket_a))]
        b = bucket_b[rng.integers(len(bucket_b))]
        out.append((offset + a, offset + b, 0))
    return out


def write_pairs(pairs: PairSet, path) -> None:
    """Dump pairs as "<dataset>\\t<id_a>\\t<id_b>\\t<target>" lines."""
    examples = pairs.examples
    with open(path, "w", encoding="utf-8") as f:
        for i, j, t in zip(pairs.a.tolist(), pairs.b.tolist(), pairs.target.tolist()):
            a = examples[i]
            f.write(f"{a.dataset_id}\t{a.id}\t{examples[j].id}\t{t}\n")


def load_pairs(path, corpora) -> PairSet:
    """Replay a pair dump against the corpora it was generated from.

    The example table is every corpus's examples in order, as in
    generate_episodes.
    """
    if isinstance(corpora, Corpus):
        corpora = [corpora]
    examples = [ex for c in corpora for ex in c.examples]
    lookup = {(ex.dataset_id, ex.id): i for i, ex in enumerate(examples)}
    p = Path(path)
    triples: list[tuple[int, int, int]] = []
    with open_text(p) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.strip():
                continue
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 4:
                raise EpisodeError(f"{p}:{lineno}: expected 4 tab-separated fields")
            ds, id_a, id_b, target = fields
            if target not in ("0", "1"):
                raise EpisodeError(f"{p}:{lineno}: target must be 0 or 1")
            try:
                triples.append((lookup[(ds, id_a)], lookup[(ds, id_b)], int(target)))
            except KeyError as err:
                raise EpisodeError(f"{p}:{lineno}: unknown example {err.args[0]}") from None
    if not triples:
        raise EpisodeError(f"{p}: no pairs")
    a, b, target = np.array(triples, dtype=np.intp).reshape(-1, 3).T
    return PairSet(examples, a, b, target)
