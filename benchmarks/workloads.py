"""The benchmark's workloads and their seeded input generator.

Every workload runs two experiment configs through ``run_experiment``:

* ``main``: ORIG, NAIVE and SIAMESE on train set A (the program accepts
  NAIVE and SIAMESE only with exactly one train set);
* ``all``: ALL on train sets A and B, so ALL is multi-dataset.

Both configs evaluate on the same test sets, which share A's classes.
Train set B is another domain: the same group geometry over its own token
namespace. The workloads differ in sizes and encoder mode, so that a
different stage dominates each one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pairtune.corpus import VectorTable, write_corpus, write_vectors
from pairtune.synthetic import synthetic_corpus

MODELS_MAIN = ("ORIG", "NAIVE", "SIAMESE")
MODELS_ALL = ("ALL",)
CONFIG_MODELS = (MODELS_MAIN, MODELS_ALL)
SAME_FRACTION = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    encoder: dict
    classes: int
    examples_per_class: int
    n_groups: int
    group_size: int
    groups_per_class: int
    tokens_per_example: int
    domain_noise: float
    test_sets: int
    test_examples_per_class: int
    siamese_pairs: int
    all_pairs_per_dataset: int
    siamese_epochs: int
    naive_epochs: int
    eval_pairs: int
    learning_rate: float
    naive_learning_rate: float
    # Frozen-projection mode over vector files of this width when set.
    vector_dim: int | None = None
    # The paper's claim, SIAMESE delta > ORIG delta, is checked here.
    claim_siamese_beats_orig: bool = False

    @property
    def frozen(self) -> bool:
        return self.vector_dim is not None

    @property
    def models(self) -> tuple[str, ...]:
        return MODELS_MAIN + MODELS_ALL


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-dims",
            why=(
                "paper encoder dims 16/64/512 with 8k-16k-type vocabularies: "
                "training dominates, with the width-512 backward and the dense "
                "Adam update over the whole embedding table"
            ),
            encoder={"d_tok": 16, "h": 64, "d_out": 512},
            classes=6,
            examples_per_class=250,
            n_groups=500,
            group_size=20,
            groups_per_class=1,
            tokens_per_example=20,
            domain_noise=0.5,
            test_sets=1,
            test_examples_per_class=40,
            siamese_pairs=2000,
            all_pairs_per_dataset=600,
            siamese_epochs=2,
            naive_epochs=1,
            eval_pairs=2000,
            learning_rate=0.01,
            naive_learning_rate=0.01,
            claim_siamese_beats_orig=True,
        ),
        Workload(
            name="desk-dims",
            why=(
                "small dims 12/24/24 and a few hundred types: per-example "
                "interpreter overhead dominates, while Adam over E and BLAS "
                "threading are negligible"
            ),
            encoder={"d_tok": 12, "h": 24, "d_out": 24},
            classes=6,
            examples_per_class=200,
            n_groups=6,
            group_size=50,
            groups_per_class=1,
            tokens_per_example=8,
            domain_noise=0.1,
            test_sets=1,
            test_examples_per_class=40,
            siamese_pairs=3000,
            all_pairs_per_dataset=1000,
            siamese_epochs=3,
            naive_epochs=3,
            eval_pairs=2000,
            learning_rate=0.01,
            naive_learning_rate=0.01,
            claim_siamese_beats_orig=True,
        ),
        Workload(
            name="eval-wide",
            why=(
                "200-class test sets and many eval pairs with token-sized "
                "training: corpus loading, vocab, pair sampling and the "
                "forward-only eval path dominate"
            ),
            encoder={"d_tok": 16, "h": 64, "d_out": 512},
            classes=200,
            examples_per_class=4,
            n_groups=200,
            group_size=5,
            groups_per_class=1,
            tokens_per_example=8,
            domain_noise=0.1,
            test_sets=2,
            test_examples_per_class=20,
            siamese_pairs=1024,
            all_pairs_per_dataset=512,
            siamese_epochs=1,
            naive_epochs=1,
            eval_pairs=8000,
            learning_rate=0.0001,
            naive_learning_rate=0.0001,
        ),
        Workload(
            name="frozen-512",
            why=(
                "frozen projection over 512-d vector files: the only workload "
                "that parses vector files and runs the encoder without E"
            ),
            encoder={"mode": "frozen-projection", "h": 64, "d_out": 512},
            classes=10,
            examples_per_class=100,
            n_groups=10,
            group_size=20,
            groups_per_class=1,
            tokens_per_example=12,
            domain_noise=0.1,
            test_sets=1,
            test_examples_per_class=50,
            siamese_pairs=1500,
            all_pairs_per_dataset=500,
            siamese_epochs=2,
            naive_epochs=4,
            eval_pairs=10000,
            learning_rate=0.004,
            naive_learning_rate=0.01,
            vector_dim=512,
        ),
    )
}


def _corpus(w: Workload, dataset_id: str, namespace: str, per_class: int, seed: int):
    return synthetic_corpus(
        dataset_id,
        w.classes,
        per_class,
        n_groups=w.n_groups,
        group_size=w.group_size,
        groups_per_class=w.groups_per_class,
        tokens_per_example=w.tokens_per_example,
        domain_noise=w.domain_noise,
        token_namespace=namespace,
        seed=seed,
    )


def _vectors(corpus, token_vectors: dict, offset: np.ndarray) -> VectorTable:
    """Per example: the mean of its tokens' random vectors plus one shared offset.

    This stands in for a pretrained sentence encoder: class structure comes
    from shared tokens, and the common offset makes raw cosine distances
    small, as in real anisotropic embedding spaces.
    """
    table = VectorTable(dim=offset.size)
    for ex in corpus.examples:
        tokens = ex.text.split()
        table.entries[ex.id] = np.mean([token_vectors[t] for t in tokens], axis=0) + offset
    return table


def generate(w: Workload, seed: int, out_dir) -> list[Path]:
    """Write the workload's corpora, vector files and experiment configs.

    The same (workload, seed) gives byte-identical files. Returns the config
    paths in run order; each config's ``out_dir`` is set by the runner.
    """
    if seed < 0:
        raise ValueError("seed must be >= 0")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = seed * 16  # each seed owns 16 generator streams
    corpora = {
        "train_a": _corpus(w, "train_a", "a", w.examples_per_class, base + 1),
        "train_b": _corpus(w, "train_b", "b", w.examples_per_class, base + 2),
    }
    tests = [f"test{i + 1}" for i in range(w.test_sets)]
    for i, name in enumerate(tests):
        corpora[name] = _corpus(w, name, "a", w.test_examples_per_class, base + 3 + i)
    paths = {}
    for name, corpus in corpora.items():
        paths[name] = out / f"{name}.jsonl"
        write_corpus(corpus, paths[name])

    vector_paths = {}
    if w.frozen:
        rng = np.random.default_rng(base + 15)
        offset = rng.normal(size=w.vector_dim) * 0.5 / np.sqrt(w.vector_dim)
        token_vectors: dict[str, np.ndarray] = {}
        for corpus in corpora.values():
            for ex in corpus.examples:
                for tok in ex.text.split():
                    if tok not in token_vectors:
                        token_vectors[tok] = rng.normal(size=w.vector_dim) / np.sqrt(w.vector_dim)
        for name, corpus in corpora.items():
            vector_paths[name] = out / f"{name}.vec.tsv"
            write_vectors(_vectors(corpus, token_vectors, offset), vector_paths[name])

    def config(name: str, models, train_sets) -> Path:
        cfg = {
            "name": f"{w.name}-{name}",
            "train_sets": [str(paths[t]) for t in train_sets],
            "test_sets": [str(paths[t]) for t in tests],
            "models": list(models),
            "seed": seed,
            "encoder": w.encoder,
            "siamese": {"epochs": w.siamese_epochs, "learning_rate": w.learning_rate},
            "naive": {"epochs": w.naive_epochs, "learning_rate": w.naive_learning_rate},
            "episodes": {
                "siamese_pairs": w.siamese_pairs,
                "all_pairs_per_dataset": w.all_pairs_per_dataset,
                "same_fraction": SAME_FRACTION,
            },
            "eval": {"n_pairs": w.eval_pairs, "same_fraction": SAME_FRACTION},
        }
        if w.frozen:
            cfg["train_vectors"] = [str(vector_paths[t]) for t in train_sets]
            cfg["test_vectors"] = [str(vector_paths[t]) for t in tests]
        path = out / f"{name}.config.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return path

    return [
        config("main", CONFIG_MODELS[0], ["train_a"]),
        config("all", CONFIG_MODELS[1], ["train_a", "train_b"]),
    ]
