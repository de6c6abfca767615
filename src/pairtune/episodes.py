"""Balanced same-class / different-class pair generation.

Pairs are sampled class-first: a same-pair draws a class uniformly among
those with at least two examples, then two distinct members; a
different-pair draws an ordered pair of distinct classes uniformly, then
one member from each. Each dataset's pairs are drawn as whole index
arrays, and different-class pairs never cross datasets. Pairs may repeat
across the sequence; the emitted order is a seeded shuffle over all
datasets' pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .corpus import Corpus, LabeledExample, atomic_write, check_field, open_text


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

    def compact(self) -> "PairSet":
        """The same pairs over a table of only the examples they reference, in
        table order, so preparing its ``examples`` prepares no unused one; one
        inverse-index array renumbers ``a`` and ``b``."""
        ref = self.referenced()
        row = np.empty(len(self.examples), dtype=np.intp)
        row[ref] = np.arange(len(ref))
        return PairSet([self.examples[i] for i in ref], row[self.a], row[self.b], self.target)


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
    parts = [np.empty((3, 0), dtype=np.intp)]
    for corpus in corpora:
        if corpus.dataset_id in spec.quotas:
            quota = spec.quotas[corpus.dataset_id]
            parts.append(_dataset_pairs(corpus, len(examples), quota, spec, rng))
        examples += corpus.examples
    pairs = np.concatenate(parts, axis=1)
    a, b, target = pairs[:, rng.permutation(pairs.shape[1])]
    return PairSet(examples, a, b, target)


def check_quota(corpus: Corpus, quota: int, same_fraction: float) -> None:
    """Raise EpisodeError unless ``corpus`` can give ``quota`` pairs at
    ``same_fraction``: different-class pairs need two classes, and
    same-class pairs a class of two or more examples. Reads only the class
    sizes, so a run can check every quota it will draw before it draws any."""
    ds = corpus.dataset_id
    if corpus.n_classes < 2:
        raise EpisodeError(f"dataset '{ds}' has fewer than 2 classes")
    if same_pair_count(quota, same_fraction) > 0 and not any(
        len(members) >= 2 for members in corpus.class_index.values()
    ):
        raise EpisodeError(
            f"dataset '{ds}' has no class with >= 2 examples; same-pairs impossible"
        )


def _dataset_pairs(corpus: Corpus, offset: int, quota: int, spec: EpisodeSpec, rng):
    """(3, quota) rows a, b, target for one dataset, indexing its examples from offset."""
    check_quota(corpus, quota, spec.same_fraction)
    buckets = list(corpus.class_index.values())
    # Every member index, grouped by class: class c owns members[start[c]:start[c] + size[c]].
    members = np.concatenate(buckets, dtype=np.intp) + offset
    size = np.array([len(bucket) for bucket in buckets], dtype=np.intp)
    start = np.cumsum(size) - size
    eligible = np.flatnonzero(size >= 2)

    n_same = same_pair_count(quota, spec.same_fraction)
    n_diff = quota - n_same
    c = eligible[rng.integers(len(eligible), size=n_same)]
    i = rng.integers(size[c])
    j = rng.integers(size[c] - 1)
    j += j >= i  # two distinct members, uniform without replacement
    ca = rng.integers(len(buckets), size=n_diff)
    cb = rng.integers(len(buckets) - 1, size=n_diff)
    cb += cb >= ca
    a = np.concatenate([start[c] + i, start[ca] + rng.integers(size[ca])])
    b = np.concatenate([start[c] + j, start[cb] + rng.integers(size[cb])])
    target = np.repeat(np.array([1, 0], dtype=np.intp), [n_same, n_diff])
    return np.stack([members[a], members[b], target])


def write_pairs(pairs: PairSet, path) -> None:
    """Dump pairs as "<dataset>\\t<id_a>\\t<id_b>\\t<target>" lines. The ids are
    checked by ``check_field`` before anything is written."""
    examples = pairs.examples
    for k in pairs.referenced():
        check_field(examples[k].dataset_id, "dataset id")
        check_field(examples[k].id)
    with atomic_write(path, encoding="utf-8") as f:
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
