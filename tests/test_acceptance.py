"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines. The end-to-end criteria run on seeded synthetic corpora at
small encoder sizes; the heaviest one (criterion 6) trains on the default
per-dataset pair quotas for the full default epoch count.
"""

import math
import time
from collections import Counter
from functools import partial

import numpy as np
import pytest

from pairtune.cli import (
    DEFAULT_ALL_PAIRS_PER_DATASET,
    DEFAULT_EVAL_PAIRS,
    DEFAULT_SIAMESE_PAIRS,
    EXIT_OK,
    default_experiment_config,
    main,
)
from pairtune.corpus import RANDOM_BY_EXAMPLE, SplitSpec, split_corpus
from pairtune.encoder import (
    FROZEN_PROJECTION,
    TRAINABLE,
    EncoderConfig,
    build_vocab,
    encode_batch,
    init_encoder_params,
    input_table,
    make_embedder,
    make_input_fn,
    project,
)
from pairtune.episodes import EpisodeSpec, generate_episodes
from pairtune.evaluation import EvalSpec, cosine_distance, delta_cosine_distance, eval_pairs
from pairtune.synthetic import synthetic_corpus
from pairtune.training import (
    NaiveConfig,
    SiameseConfig,
    init_head_params,
    naive_batch_backward,
    siamese_batch_backward,
    train_naive,
    train_siamese,
)

from conftest import (
    FIVE_POINT,
    brute_force_delta,
    cross_entropy_loss,
    encoder_and_head,
    fd_conditioned,
    finite_difference_gradients,
    make_corpus,
    max_relative_error,
    pair_cosine_loss,
    redraw_kinked_units,
    stack_rows,
    well_scaled_params,
    with_table_gradient,
)


# Seeds 1, 7 and 11 fail with central differences at step 1e-4, whose error
# on the smallest gradient entries exceeds the bound; 2024 is the
# criterion's original seed. CI runs check_criterion_1 at seeds 0-23.
CRITERION_1_SEEDS = (1, 7, 11, 2024)
CRITERION_1_STEP = 1e-3


def check_criterion_1(seed: int) -> tuple[float, float, int]:
    """Criterion 1 over one seed's draws: 20 configs each trainable and
    frozen, every gradient checked by the five-point stencil at step 1e-3
    on draws that ``fd_conditioned`` passes at that step, after
    ``redraw_kinked_units`` has redrawn the hidden units it would reject.
    Asserts the 1e-4 relative bound and returns the worst siamese and naive
    errors and the number of draws."""
    rng = np.random.default_rng(seed)
    worst_siamese = 0.0
    worst_naive = 0.0
    n_configs = 20
    # A head whose hidden layer is dead on every row gives class c the bias
    # gradient n_examples / n_classes - count(c). Over 2 to 4 classes, 5
    # examples keep that from being exactly 0, where the finite difference
    # would see only rounding.
    n_pairs, n_examples = 3, 5
    draws = 0
    fd = partial(finite_difference_gradients, step=CRITERION_1_STEP, stencil=FIVE_POINT)

    for mode in (TRAINABLE, FROZEN_PROJECTION):
        checked = 0
        while checked < n_configs:
            draws += 1
            vocab_size = int(rng.integers(2, 11))
            d_tok = int(rng.integers(1, 6))
            h = int(rng.integers(1, 6))
            d_out = int(rng.integers(2, 6))
            n_classes = int(rng.integers(2, 5))
            hidden = int(rng.integers(1, 6))
            if mode == TRAINABLE:
                config = EncoderConfig(mode=mode, d_tok=d_tok, h=h, d_out=d_out)
                xs = [rng.integers(0, vocab_size, size=rng.integers(1, 5))
                      for _ in range(2 * n_pairs + n_examples)]
            else:
                config = EncoderConfig(mode=mode, d_in=d_tok, h=h, d_out=d_out)
                xs = list(rng.normal(size=(2 * n_pairs + n_examples, d_tok)))
            params = init_encoder_params(config, vocab_size=vocab_size, seed=draws)
            well_scaled_params(params, seed=1000 + draws)
            head = init_head_params(d_out, hidden, n_classes, seed=2000 + draws)
            pairs = input_table(config, xs[: 2 * n_pairs])
            examples = input_table(config, xs[2 * n_pairs :])
            # Redraw the hidden units whose ReLUs sit near a kink on some row,
            # each from the distribution well_scaled_params or
            # init_head_params drew it from: the encoder's over every pooled
            # row, then the head's over the example embeddings.
            unit_rng = np.random.default_rng(3000 + draws)
            lim = 1.0 / np.sqrt(d_out)

            def draw_encoder_unit(j):
                params.W1[j] = unit_rng.normal(size=params.W1.shape[1]) / np.sqrt(params.W1.shape[1])
                params.b1[j] = unit_rng.normal() * 0.2

            def draw_head_unit(j):
                head.W1[j] = unit_rng.uniform(-lim, lim, size=d_out)

            pooled = encode_batch(params, input_table(config, xs))[1].M
            if not (redraw_kinked_units(pooled, params, draw_encoder_unit, CRITERION_1_STEP)
                    and redraw_kinked_units(encode_batch(params, examples)[0], head,
                                            draw_head_unit, CRITERION_1_STEP)):
                continue
            targets = rng.integers(0, 2, size=n_pairs).astype(np.float64)
            ys = rng.integers(0, n_classes, size=n_examples)
            # A draw that finite differences cannot resolve checks nothing.
            if not (fd_conditioned(params, pairs, step=CRITERION_1_STEP)
                    and fd_conditioned(params, examples, head, step=CRITERION_1_STEP)):
                continue
            checked += 1

            # (a) squared error over cosine similarity of a batch of pairs
            grad = params.zeros_like()
            _, rows = siamese_batch_backward(params, pairs, targets, 1e-12, grad)

            def siamese_scalar_loss():
                return pair_cosine_loss(encode_batch(params, pairs)[0], targets, 1e-12)

            numeric = fd(siamese_scalar_loss, params.as_dict())
            analytic = with_table_gradient(grad.as_dict(), rows)
            worst_siamese = max(worst_siamese, max_relative_error(analytic, numeric))

            # (b) softmax cross-entropy through the classification head
            egrad = params.zeros_like()
            hgrad = head.zeros_like()
            _, rows = naive_batch_backward(params, head, examples, ys, egrad, hgrad)
            analytic = with_table_gradient(encoder_and_head(egrad, hgrad), rows)

            def naive_scalar_loss():
                logits = project(head, encode_batch(params, examples)[0])[0]
                return cross_entropy_loss(logits, ys)

            numeric = fd(naive_scalar_loss, encoder_and_head(params, head))
            assert list(numeric) == list(analytic) == ["E"] * (mode == TRAINABLE) + [
                "W1", "b1", "W2", "b2", "head.W1", "head.b1", "head.W2", "head.b2"
            ]
            worst_naive = max(worst_naive, max_relative_error(analytic, numeric))

    assert worst_siamese < 1e-4, f"seed {seed}: siamese-loss gradient mismatch {worst_siamese:.2e}"
    assert worst_naive < 1e-4, f"seed {seed}: cross-entropy gradient mismatch {worst_naive:.2e}"
    return worst_siamese, worst_naive, draws


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    results = [check_criterion_1(seed) for seed in CRITERION_1_SEEDS]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1 (gradient correctness): PASS "
        f"[seeds {', '.join(map(str, CRITERION_1_SEEDS))}: 20 configs each trainable and frozen "
        f"per seed ({sum(r[2] for r in results)} drawn), batches of 3 pairs and 5 examples, "
        f"five-point differences at step {CRITERION_1_STEP:g}, max rel err siamese "
        f"{max(r[0] for r in results):.2e}, naive {max(r[1] for r in results):.2e}, {elapsed:.1f}s]"
    )


def test_criterion_2_metric_oracle_equivalence():
    started = time.perf_counter()
    corpus = make_corpus("hex", [
        ("a1", "one", "A"), ("a2", "two", "A"), ("a3", "three", "A"),
        ("b1", "four", "B"), ("b2", "five", "B"), ("b3", "six", "B"),
    ])
    angles = {"a1": -10.0, "a2": 0.0, "a3": 10.0, "b1": 80.0, "b2": 90.0, "b3": 100.0}
    vectors = {
        k: np.array([math.cos(math.radians(t)), math.sin(math.radians(t))])
        for k, t in angles.items()
    }

    exhaustive, _, _ = brute_force_delta(corpus, vectors)
    report = delta_cosine_distance(
        stack_rows(lambda ex: vectors[ex.id]), corpus.examples,
        eval_pairs(corpus, EvalSpec(n_pairs=5000, seed=17)),
    )
    gap = abs(report.delta - exhaustive)
    elapsed = time.perf_counter() - started
    assert gap < 0.02, f"sampled {report.delta:.4f} vs exhaustive {exhaustive:.4f}"
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 2 (metric oracle equivalence): PASS "
        f"[sampled {report.delta:.5f}, exhaustive {exhaustive:.5f}, "
        f"gap {gap:.5f}, {elapsed:.1f}s]"
    )


def test_criterion_3_distance_unit_identities():
    assert cosine_distance([3.0, 4.0], [3.0, 4.0]) == 0.0
    assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == 1.0
    assert cosine_distance([2.0, 0.0], [-5.0, 0.0]) == 2.0

    scale = 7.3
    for u, v in (
        ([3.0, 4.0], [3.0, 4.0]),
        ([1.0, 0.0], [0.0, 1.0]),
        ([2.0, 0.0], [-5.0, 0.0]),
        ([1.0, 0.0], [-1.0, 0.0]),
    ):
        u, v = np.array(u), np.array(v)
        base = cosine_distance(u, v)
        assert cosine_distance(scale * u, v) == base
        assert cosine_distance(u, scale * v) == base
        assert cosine_distance(scale * u, scale * v) == base
    print(
        "\nACCEPTANCE 3 (distance unit identities): PASS "
        "[0/1/2 exact; distance bit-identical under x7.3 scaling]"
    )


def test_criterion_4_siamese_separability_end_to_end():
    started = time.perf_counter()
    corpus = synthetic_corpus(
        "sep4", 4, 150, n_groups=4, group_size=100, groups_per_class=1,
        tokens_per_example=5, seed=11,
    )
    train, held = split_corpus(
        corpus, SplitSpec(mode=RANDOM_BY_EXAMPLE, fraction=0.8, seed=11)
    )
    vocab = build_vocab(train)
    config = EncoderConfig(mode=TRAINABLE, d_tok=8, h=16, d_out=16)
    params = init_encoder_params(config, vocab_size=vocab.size, seed=7)
    input_fn = make_input_fn(config, vocab=vocab)
    held_inputs = input_fn(held.examples)
    held_pairs = eval_pairs(held, EvalSpec(seed=99))

    untrained = delta_cosine_distance(make_embedder(params), held_inputs, held_pairs)
    assert abs(untrained.delta) < 0.1, f"untrained delta {untrained.delta:.4f}"

    pairs = generate_episodes(train, EpisodeSpec(quotas={"sep4": 2000}, seed=5))
    assert len(pairs) == 2000
    params, report = train_siamese(
        params, pairs, input_fn(train.examples), SiameseConfig(epochs=30, seed=13)
    )
    trained = delta_cosine_distance(make_embedder(params), held_inputs, held_pairs)
    elapsed = time.perf_counter() - started
    assert trained.delta > 0.5, f"trained delta {trained.delta:.4f}"
    assert elapsed < 300.0
    print(
        f"\nACCEPTANCE 4 (siamese separability): PASS "
        f"[delta {untrained.delta:+.4f} -> {trained.delta:+.4f}, "
        f"final loss {report.epoch_losses[-1]:.5f}, {elapsed:.1f}s]"
    )


def test_criterion_5_generalization_to_unseen_classes():
    started = time.perf_counter()
    train_combos = [(0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (1, 3), (4, 6), (5, 7)]
    unseen_combos = [(0, 3), (1, 2), (4, 7), (5, 6)]
    train = synthetic_corpus(
        "gen-train", 8, 150, n_groups=8, group_size=30, groups_per_class=2,
        tokens_per_example=8, class_groups=train_combos, seed=21,
    )
    unseen = synthetic_corpus(
        "gen-unseen", 4, 80, n_groups=8, group_size=30, groups_per_class=2,
        tokens_per_example=8, class_offset=8, class_groups=unseen_combos, seed=22,
    )

    vocab = build_vocab(train)
    config = EncoderConfig(mode=TRAINABLE, d_tok=12, h=24, d_out=24)
    base = init_encoder_params(config, vocab_size=vocab.size, seed=3)
    input_fn = make_input_fn(config, vocab=vocab)
    train_inputs = input_fn(train.examples)
    unseen_inputs = input_fn(unseen.examples)
    unseen_pairs = eval_pairs(unseen, EvalSpec(n_pairs=3000, seed=77))

    orig = delta_cosine_distance(make_embedder(base), unseen_inputs, unseen_pairs)

    pairs = generate_episodes(train, EpisodeSpec(quotas={"gen-train": 3000}, seed=31))
    siam_params, _ = train_siamese(
        base.copy(), pairs, train_inputs, SiameseConfig(epochs=30, seed=32)
    )
    siam = delta_cosine_distance(make_embedder(siam_params), unseen_inputs, unseen_pairs)

    naive_params, _head, _ = train_naive(
        base.copy(), train, train_inputs, NaiveConfig(epochs=30, seed=33)
    )
    naive = delta_cosine_distance(make_embedder(naive_params), unseen_inputs, unseen_pairs)

    elapsed = time.perf_counter() - started
    assert siam.delta - orig.delta >= 0.2, (
        f"SIAMESE {siam.delta:.4f} vs ORIG {orig.delta:.4f}"
    )
    assert naive.delta > orig.delta, (
        f"NAIVE {naive.delta:.4f} vs ORIG {orig.delta:.4f}"
    )

    # stronger claim, reported but non-fatal within one standard error
    se_siam = math.sqrt(siam.same_stderr**2 + siam.diff_stderr**2)
    se_naive = math.sqrt(naive.same_stderr**2 + naive.diff_stderr**2)
    combined_se = math.sqrt(se_siam**2 + se_naive**2)
    gap = siam.delta - naive.delta
    if gap > 0:
        stronger = f"holds (gap {gap:+.4f})"
    elif -gap <= combined_se:
        stronger = f"within one stderr (gap {gap:+.4f}, se {combined_se:.4f}); flagged, non-fatal"
    else:
        pytest.fail(
            f"SIAMESE trails NAIVE beyond one stderr: gap {gap:+.4f}, se {combined_se:.4f}"
        )
    print(
        f"\nACCEPTANCE 5 (generalization to unseen classes): PASS "
        f"[ORIG {orig.delta:+.4f}, NAIVE {naive.delta:+.4f}, SIAMESE {siam.delta:+.4f}; "
        f"SIAMESE>NAIVE {stronger}; {elapsed:.1f}s]"
    )


def test_criterion_6_all_model_balance():
    started = time.perf_counter()
    splits = {}
    for i in range(3):
        ds = f"task{i}"
        corpus = synthetic_corpus(
            ds, 4, 150, n_groups=4, group_size=40, groups_per_class=1,
            tokens_per_example=8, token_namespace=ds, seed=100 + i,
        )
        splits[ds] = split_corpus(
            corpus, SplitSpec(mode=RANDOM_BY_EXAMPLE, fraction=0.8, seed=100 + i)
        )

    trains = [tr for tr, _ in splits.values()]
    vocab = build_vocab(trains)
    config = EncoderConfig(mode=TRAINABLE, d_tok=12, h=24, d_out=24)
    base = init_encoder_params(config, vocab_size=vocab.size, seed=5)
    input_fn = make_input_fn(config, vocab=vocab)

    quotas = {tr.dataset_id: DEFAULT_ALL_PAIRS_PER_DATASET for tr in trains}
    pairs = generate_episodes(trains, EpisodeSpec(quotas=quotas, seed=51))
    counts = Counter(pairs.examples[i].dataset_id for i in pairs.a)
    assert counts == {ds: DEFAULT_ALL_PAIRS_PER_DATASET for ds in splits}, counts

    all_params, _ = train_siamese(
        base.copy(), pairs, input_fn(pairs.examples), SiameseConfig(seed=52)
    )

    espec = EvalSpec(n_pairs=3000, seed=53)
    margins = {}
    for ds, (_, test) in splits.items():
        inputs, test_pairs = input_fn(test.examples), eval_pairs(test, espec)
        orig = delta_cosine_distance(make_embedder(base), inputs, test_pairs)
        allm = delta_cosine_distance(make_embedder(all_params), inputs, test_pairs)
        margins[ds] = (orig.delta, allm.delta)
        assert allm.delta > orig.delta, (
            f"{ds}: ALL {allm.delta:.4f} does not beat ORIG {orig.delta:.4f}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    detail = ", ".join(
        f"{ds} {orig:+.3f}->{allm:+.3f}" for ds, (orig, allm) in margins.items()
    )
    print(
        f"\nACCEPTANCE 6 (ALL-model balance): PASS "
        f"[{DEFAULT_ALL_PAIRS_PER_DATASET} pairs x {len(splits)} datasets, "
        f"{detail}, {elapsed:.1f}s]"
    )


def test_criterion_7_determinism_byte_identical(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    assert main([
        "gen-synthetic", "--out", str(corpus_path), "--classes", "3",
        "--examples-per-class", "30", "--groups", "3", "--seed", "1",
    ]) == EXIT_OK

    small = ["--d-tok", "8", "--hidden-width", "16", "--d-out", "8",
             "--epochs", "2", "--pairs", "200", "--seed", "9"]
    models = []
    for name in ("m1.ptm", "m2.ptm"):
        out = tmp_path / name
        assert main(["train", "--mode", "SIAMESE", "--train", str(corpus_path),
                     "--out", str(out)] + small) == EXIT_OK
        models.append(out.read_bytes())
    assert models[0] == models[1]

    reports = []
    for name in ("r1.tsv", "r2.tsv"):
        out = tmp_path / name
        assert main(["eval", "--model", str(tmp_path / "m1.ptm"),
                     "--test", str(corpus_path), "--n-pairs", "150",
                     "--seed", "4", "--out", str(out)]) == EXIT_OK
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    print(
        "\nACCEPTANCE 7 (determinism): PASS "
        "[repeated train and eval runs are byte-identical]"
    )


def test_criterion_8_default_plumbing():
    cfg = default_experiment_config()
    assert DEFAULT_SIAMESE_PAIRS == 70_000
    assert cfg["episodes"]["siamese_pairs"] == 70_000
    assert DEFAULT_ALL_PAIRS_PER_DATASET == 10_000
    assert cfg["episodes"]["all_pairs_per_dataset"] == 10_000
    assert SiameseConfig().epochs == 30
    assert NaiveConfig().epochs == 30
    assert cfg["siamese"]["epochs"] == 30
    assert cfg["naive"]["epochs"] == 30
    assert DEFAULT_EVAL_PAIRS == 5_000
    assert EvalSpec().n_pairs == 5_000
    assert cfg["eval"]["n_pairs"] == 5_000
    assert EncoderConfig().d_out == 512
    assert cfg["encoder"]["d_out"] == 512
    assert NaiveConfig().hidden_dim == 128
    assert cfg["naive"]["hidden_dim"] == 128
    print(
        "\nACCEPTANCE 8 (default plumbing): PASS "
        "[70000 single-task pairs, 10000 per-dataset, 30 epochs, "
        "5000 eval pairs, 512-d output, 128-d naive hidden]"
    )
