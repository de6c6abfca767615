from collections import Counter

import numpy as np
import pytest

from pairtune.corpus import Corpus, CorpusError
from pairtune.episodes import (
    EpisodeError,
    EpisodeSpec,
    PairSet,
    check_quota,
    generate_episodes,
    load_pairs,
    same_pair_count,
    write_pairs,
)
from pairtune.synthetic import synthetic_corpus

from conftest import make_corpus


def members(pairs):
    """(example_a, example_b, target) for every pair, in order."""
    ex = pairs.examples
    return [
        (ex[i], ex[j], t)
        for i, j, t in zip(pairs.a.tolist(), pairs.b.tolist(), pairs.target.tolist())
    ]


def id_triples(pairs):
    return [(a.id, b.id, t) for a, b, t in members(pairs)]


def balanced_corpus(dataset_id="d", n_classes=4, per_class=25):
    rows = []
    for c in range(n_classes):
        for i in range(per_class):
            rows.append((f"{dataset_id}-{c}-{i}", f"text {c} {i}", f"class{c}"))
    return make_corpus(dataset_id, rows)


class TestQuotas:
    def test_single_dataset_70k_splits_35k_35k(self):
        corpus = balanced_corpus()
        pairs = generate_episodes(
            corpus, EpisodeSpec(quotas={"d": 70_000}, same_fraction=0.5, seed=1)
        )
        assert len(pairs) == 70_000
        counts = Counter(pairs.target.tolist())
        assert counts[1] == 35_000
        assert counts[0] == 35_000

    def test_seven_datasets_10k_each(self):
        corpora = [balanced_corpus(f"d{i}", n_classes=3, per_class=10) for i in range(7)]
        quotas = {c.dataset_id: 10_000 for c in corpora}
        pairs = generate_episodes(corpora, EpisodeSpec(quotas=quotas, seed=2))
        assert len(pairs) == 70_000
        by_ds = Counter(a.dataset_id for a, _, _ in members(pairs))
        assert all(by_ds[f"d{i}"] == 10_000 for i in range(7))

    def test_same_pair_rounding(self):
        assert same_pair_count(70_000, 0.5) == 35_000
        assert same_pair_count(7, 0.5) == 4
        assert same_pair_count(10, 0.3) == 3


class TestSamplingRules:
    def test_singleton_class_never_in_same_pairs(self):
        corpus = make_corpus("d", [
            ("x1", "lone", "x"),
            ("y1", "one", "y"), ("y2", "two", "y"), ("y3", "three", "y"),
        ])
        pairs = generate_episodes(corpus, EpisodeSpec(quotas={"d": 400}, seed=3))
        for a, b, t in members(pairs):
            if t == 1:
                assert a.class_label == "y"
                assert b.class_label == "y"

    def test_pair_invariants_hold_by_relabeling(self):
        corpus = balanced_corpus(n_classes=5, per_class=7)
        label = {ex.id: ex.class_label for ex in corpus.examples}
        pairs = generate_episodes(corpus, EpisodeSpec(quotas={"d": 2_000}, seed=4))
        for a, b, t in members(pairs):
            assert a.id != b.id
            assert a.dataset_id == b.dataset_id == "d"
            if t == 1:
                assert label[a.id] == label[b.id]
            else:
                assert label[a.id] != label[b.id]

    def test_different_pairs_stay_within_dataset(self):
        corpora = [balanced_corpus("a"), balanced_corpus("b")]
        pairs = generate_episodes(
            corpora, EpisodeSpec(quotas={"a": 500, "b": 500}, seed=5)
        )
        for a, b, _ in members(pairs):
            assert a.dataset_id == b.dataset_id

    def test_same_class_balance_within_five_sigma(self):
        k = 4
        corpus = balanced_corpus(n_classes=k, per_class=30)
        pairs = generate_episodes(
            corpus, EpisodeSpec(quotas={"d": 200_000}, same_fraction=0.5, seed=6)
        )
        same = [a for a, _, t in members(pairs) if t == 1]
        assert len(same) >= 100_000
        counts = Counter(a.class_label for a in same)
        n = len(same)
        expected = n / k
        sigma = np.sqrt(n * (1 / k) * (1 - 1 / k))
        for c in range(k):
            assert abs(counts[f"class{c}"] - expected) < 5 * sigma

    def test_draws_uniform_within_five_sigma_over_unequal_classes(self):
        sizes = {"one": 1, "two": 2, "three": 3, "ten": 10, "forty": 40}
        corpus = make_corpus("d", [
            (f"{label}-{i}", f"text {i}", label)
            for label, size in sizes.items() for i in range(size)
        ])
        pairs = generate_episodes(
            corpus, EpisodeSpec(quotas={"d": 60_000}, same_fraction=0.5, seed=12)
        )
        same = [(a, b) for a, b, t in members(pairs) if t == 1]
        diff = [(a, b) for a, b, t in members(pairs) if t == 0]
        assert len(same) == len(diff) == 30_000

        eligible = [label for label, size in sizes.items() if size >= 2]
        assert_uniform([a.class_label for a, _ in same], eligible)
        three = [f"three-{i}" for i in range(3)]
        assert_uniform(
            [(a.id, b.id) for a, b in same if a.class_label == "three"],
            [(x, y) for x in three for y in three if x != y],
        )
        assert_uniform(
            [(a.class_label, b.class_label) for a, b in diff],
            [(x, y) for x in sizes for y in sizes if x != y],
        )
        assert_uniform(
            [a.id for a, _ in same + diff if a.class_label == "forty"],
            [f"forty-{i}" for i in range(40)],
        )


def assert_uniform(observed, categories):
    """Every category's count lies within 5 sigma of an equal share, and no other value occurs."""
    counts = Counter(observed)
    assert set(counts) <= set(categories), set(counts) - set(categories)
    n, p = len(observed), 1 / len(categories)
    sigma = np.sqrt(n * p * (1 - p))
    for category in categories:
        assert abs(counts[category] - n * p) < 5 * sigma, (category, counts[category], n * p)


class TestDeterminism:
    def test_same_seed_identical_sequence(self):
        corpus = balanced_corpus()
        spec = EpisodeSpec(quotas={"d": 1_000}, seed=7)
        first = generate_episodes(corpus, spec)
        second = generate_episodes(corpus, spec)
        assert id_triples(first) == id_triples(second)

    def test_different_seeds_differ(self):
        corpus = balanced_corpus()
        first = generate_episodes(corpus, EpisodeSpec(quotas={"d": 1_000}, seed=8))
        second = generate_episodes(corpus, EpisodeSpec(quotas={"d": 1_000}, seed=9))
        assert id_triples(first) != id_triples(second)


class TestErrors:
    def test_quota_names_unknown_dataset(self):
        corpus = balanced_corpus("d")
        with pytest.raises(EpisodeError, match="unknown dataset"):
            generate_episodes(corpus, EpisodeSpec(quotas={"nope": 10}))

    def test_no_class_with_two_examples(self):
        corpus = make_corpus("d", [("x1", "a", "x"), ("y1", "b", "y")])
        with pytest.raises(EpisodeError, match="same-pairs impossible"):
            generate_episodes(corpus, EpisodeSpec(quotas={"d": 10}))

    def test_check_quota_raises_what_drawing_the_quota_raises(self):
        one_per_class = make_corpus("d", [("x1", "a", "x"), ("y1", "b", "y")])
        one_class = Corpus("d", one_per_class.examples, {"x": [0, 1]})
        for corpus, quota in ((one_per_class, 10), (one_class, 10)):
            with pytest.raises(EpisodeError) as drawn:
                generate_episodes(corpus, EpisodeSpec(quotas={"d": quota}))
            with pytest.raises(EpisodeError) as checked:
                check_quota(corpus, quota, 0.5)
            assert str(checked.value) == str(drawn.value)
        # A quota with no same-class pair needs no class of two.
        check_quota(one_per_class, 1, 0.4)
        assert len(generate_episodes(one_per_class, EpisodeSpec({"d": 1}, 0.4))) == 1
        check_quota(balanced_corpus(), 10, 0.5)

    def test_zero_quota_rejected(self):
        corpus = balanced_corpus()
        with pytest.raises(EpisodeError, match=">= 1"):
            generate_episodes(corpus, EpisodeSpec(quotas={"d": 0}))

    def test_bad_same_fraction(self):
        corpus = balanced_corpus()
        with pytest.raises(EpisodeError, match="same_fraction"):
            generate_episodes(corpus, EpisodeSpec(quotas={"d": 10}, same_fraction=1.0))

    def test_duplicate_dataset_ids(self):
        with pytest.raises(EpisodeError, match="duplicate dataset id"):
            generate_episodes(
                [balanced_corpus("d"), balanced_corpus("d")],
                EpisodeSpec(quotas={"d": 10}),
            )


class TestPairDump:
    def test_dump_format_and_replay(self, tmp_path):
        corpus = synthetic_corpus("syn", 3, 10, n_groups=3, seed=0)
        pairs = generate_episodes(corpus, EpisodeSpec(quotas={"syn": 50}, seed=10))
        path = tmp_path / "pairs.tsv"
        write_pairs(pairs, path)

        lines = path.read_text().splitlines()
        assert len(lines) == 50
        ds, id_a, id_b, target = lines[0].split("\t")
        assert ds == "syn" and target in ("0", "1")

        replayed = load_pairs(path, corpus)
        assert id_triples(replayed) == id_triples(pairs)

    def test_replay_unknown_example(self, tmp_path):
        corpus = synthetic_corpus("syn", 3, 5, n_groups=3, seed=0)
        path = tmp_path / "pairs.tsv"
        path.write_text("syn\tmissing\tsyn-c000-0000\t1\n")
        with pytest.raises(EpisodeError, match="unknown example"):
            load_pairs(path, corpus)

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize("where,bad", [("dataset", "a\tb"), ("id_a", "a\nb"), ("id_b", "a\rb")])
    def test_id_the_reader_cannot_split_is_refused(self, tmp_path, where, bad, existing):
        ids = {"id_a": bad, "id_b": "y"} if where != "id_b" else {"id_a": "x", "id_b": bad}
        corpus = make_corpus(bad if where == "dataset" else "d",
                             [(ids["id_a"], "t", "p"), (ids["id_b"], "t", "q"), ("z", "t", "q")])
        pairs = PairSet(corpus.examples, np.array([2, 0]), np.array([1, 1]), np.array([1, 0]))
        path = tmp_path / "pairs.tsv"
        if existing:
            path.write_text("previous\n")
        with pytest.raises(CorpusError, match="tab or line break"):
            write_pairs(pairs, path)
        assert path.read_text() == "previous\n" if existing else not path.exists()


class TestCompact:
    """compact()'s a and b against a binary search of the sorted referenced() indices."""

    @staticmethod
    def assert_matches_searchsorted(pairs):
        ref, compact = pairs.referenced(), pairs.compact()
        assert compact.examples == [pairs.examples[i] for i in ref]
        assert compact.a.tobytes() == np.searchsorted(ref, pairs.a).tobytes()
        assert compact.b.tobytes() == np.searchsorted(ref, pairs.b).tobytes()
        assert (ref[compact.a] == pairs.a).all() and (ref[compact.b] == pairs.b).all()
        assert compact.target is pairs.target

    @pytest.mark.parametrize("seed", range(6))
    def test_random_pair_sets_with_repeated_pairs(self, seed):
        rng = np.random.default_rng(seed)
        corpus = synthetic_corpus("syn", 4, int(rng.integers(2, 12)), n_groups=4, seed=seed)
        k = int(rng.integers(1, 40))
        a, b = rng.integers(len(corpus), size=(2, k))
        repeat = rng.integers(k, size=k)  # every pair drawn again, in a shuffled order
        a, b = np.concatenate([a, a[repeat]]), np.concatenate([b, b[repeat]])
        self.assert_matches_searchsorted(PairSet(corpus.examples, a, b, np.zeros(2 * k, dtype=np.intp)))

    def test_sampled_pairs(self):
        corpus = synthetic_corpus("syn", 5, 8, n_groups=5, seed=1)
        self.assert_matches_searchsorted(
            generate_episodes(corpus, EpisodeSpec(quotas={"syn": 300}, seed=2))
        )

    def test_one_class_pair_table(self):
        # One same-class pair whose members skip the table's middle example.
        corpus = make_corpus("d", [("x", "t", "p"), ("y", "t", "q"), ("z", "t", "p")])
        pairs = PairSet(corpus.examples, np.array([2]), np.array([0]), np.array([1]))
        self.assert_matches_searchsorted(pairs)
        compact = pairs.compact()
        assert [ex.id for ex in compact.examples] == ["x", "z"]
        assert compact.a.tolist() == [1] and compact.b.tolist() == [0]
