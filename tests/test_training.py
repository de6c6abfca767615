import math
import tracemalloc

import numpy as np
import pytest

from pairtune.corpus import SplitSpec, RANDOM_BY_EXAMPLE, VectorTable, split_corpus
from pairtune.encoder import (
    FROZEN_PROJECTION,
    TRAINABLE,
    EncoderConfig,
    TokenRows,
    build_vocab,
    encode,
    encode_batch,
    init_encoder_params,
    input_table,
    make_embedder,
    make_input_fn,
    project,
)
from pairtune.episodes import EpisodeSpec, PairSet, generate_episodes
from pairtune.evaluation import EvalSpec, cosine_distance, delta_cosine_distance, eval_pairs
from pairtune.synthetic import synthetic_corpus
from pairtune.training import (
    ADAM_BLOCK,
    NaiveConfig,
    NumericError,
    OptimizerState,
    SiameseConfig,
    init_head_params,
    naive_batch_backward,
    naive_example_backward,
    optimizer_step,
    siamese_batch_backward,
    siamese_loss,
    siamese_pair_backward,
    table_block,
    train_naive,
    train_siamese,
)

from conftest import (
    cross_entropy_loss,
    dense_table_gradient,
    encoder_and_head,
    finite_difference_gradients,
    make_corpus,
    max_relative_error,
    pair_cosine_loss,
    well_scaled_params,
    with_table_gradient,
)


class TestCosineSimilarity:
    """The similarity that the Siamese loss regresses, read through
    ``cosine_distance``, which is 1 minus it."""

    def test_identical_unit_vectors(self):
        assert cosine_distance([1.0, 0.0], [1.0, 0.0]) == 0.0

    def test_orthogonal(self):
        assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_opposite(self):
        assert cosine_distance([1.0, 0.0], [-1.0, 0.0]) == 2.0

    def test_zero_vector_gives_exactly_zero(self):
        assert cosine_distance([0.0, 0.0], [3.0, 4.0]) == 1.0
        assert cosine_distance([0.0, 0.0], [0.0, 0.0]) == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            cosine_distance([1.0, 0.0], [1.0, 0.0, 0.0])


class TestSiameseLoss:
    def test_perfect_match(self):
        assert siamese_loss(1.0, 1.0) == (0.0, 0.0)

    def test_unit_gap(self):
        loss, dloss = siamese_loss(0.0, 1.0)
        assert loss == 1.0 and dloss == -2.0

    def test_direct_evaluation(self):
        loss, dloss = siamese_loss(0.3, 0.0)
        assert math.isclose(loss, 0.09) and math.isclose(dloss, 0.6)


def reference_adam_step(p, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam as Kingma & Ba's Algorithm 1 writes it, on the batch-mean
    gradient ``g``: bias-corrected moments, then the step, one whole-array
    operation at a time."""
    c1 = 1.0 - b1**t
    c2 = 1.0 - b2**t
    m *= b1
    tmp = np.multiply(1.0 - b1, g)
    m += tmp
    v *= b2
    np.multiply(1.0 - b2, g, out=tmp)
    tmp *= g
    v += tmp
    step = np.divide(m, c1)
    step *= lr
    np.divide(v, c2, out=tmp)
    np.sqrt(tmp, out=tmp)
    tmp += eps
    step /= tmp
    p -= step


def folded_adam_step(p, g, m, v, t, lr, batch_size=1, b1=0.9, b2=0.999, eps=1e-8):
    """Straight-line per-array Adam in the folded form, on the summed
    gradient ``g`` of ``batch_size`` items, one whole-array operation at a
    time in the order the blocked optimizer_step must keep."""
    r2 = math.sqrt(1.0 - b2**t)
    step_size = lr * r2 / (1.0 - b1**t)
    eps_hat = eps * r2
    m *= b1
    tmp = np.multiply((1.0 - b1) / batch_size, g)
    m += tmp
    v *= b2
    np.multiply(g, g, out=tmp)
    tmp *= (1.0 - b2) / (batch_size * batch_size)
    v += tmp
    np.sqrt(v, out=tmp)
    tmp += eps_hat
    np.divide(m, tmp, out=tmp)
    tmp *= step_size
    p -= tmp


def drawn_gradients(rng, params):
    """Gradients at a drawn scale in 1e-6..1e2, with 30% of "big"'s rows zero
    (rows no item of the batch touched)."""
    drawn = {k: rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 3) for k, p in params.items()}
    drawn["big"][rng.random(len(drawn["big"])) < 0.3] = 0.0
    return drawn


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = OptimizerState.for_params(params)
        before = params["w"].copy()
        for _ in range(5):
            optimizer_step(params, {"w": np.zeros(3)}, state, 1e-3)
        assert np.array_equal(params["w"], before)
        assert not state.m["w"].any() and not state.v["w"].any()

    def test_first_step_magnitude_is_learning_rate(self):
        params = {"w": np.array([0.5])}
        state = OptimizerState.for_params(params)
        optimizer_step(params, {"w": np.array([1.0])}, state, 1e-3)
        # bias-corrected first step: delta = -lr * g / (|g| + eps)
        assert abs(params["w"][0] - (0.5 - 1e-3)) < 1e-10
        assert state.t == 1

    def test_ten_step_quadratic_matches_reference(self):
        # independent straight-line Adam on f(x) = (x - 3)^2
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        x_ref, m, v = 0.0, 0.0, 0.0
        reference = []
        for t in range(1, 11):
            g = 2.0 * (x_ref - 3.0)
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            x_ref -= lr * m_hat / (math.sqrt(v_hat) + eps)
            reference.append(x_ref)

        params = {"x": np.array([0.0])}
        state = OptimizerState.for_params(params)
        trajectory = []
        for _ in range(10):
            g = 2.0 * (params["x"] - 3.0)
            optimizer_step(params, {"x": g}, state, lr)
            trajectory.append(float(params["x"][0]))
        np.testing.assert_allclose(trajectory, reference, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("batch_size", [None, 7], ids=["default", "scale-and-zero"])
    def test_blocked_step_is_bitwise_equal_to_reference(self, batch_size):
        rng = np.random.default_rng(0)
        n = 3 * ADAM_BLOCK + 80  # three full blocks and a ragged fourth
        params = {"big": rng.normal(size=(n // 16, 16)), "small": rng.normal(size=5)}
        grads = {k: np.zeros_like(p) for k, p in params.items()}
        ref = {k: p.copy() for k, p in params.items()}
        ref_m = {k: np.zeros_like(p) for k, p in params.items()}
        ref_v = {k: np.zeros_like(p) for k, p in params.items()}
        state = OptimizerState.for_params(params)
        kwargs = {} if batch_size is None else {"batch_size": batch_size}
        for t in range(1, 26):
            drawn = drawn_gradients(rng, params)
            for k, g in grads.items():
                g[...] = drawn[k]
            optimizer_step(params, grads, state, 1e-2, **kwargs)
            for k, p in params.items():
                folded_adam_step(ref[k], drawn[k], ref_m[k], ref_v[k], t, 1e-2, **kwargs)
                assert p.tobytes() == ref[k].tobytes(), (t, k)
                assert state.m[k].tobytes() == ref_m[k].tobytes(), (t, k)
                assert state.v[k].tobytes() == ref_v[k].tobytes(), (t, k)
                assert not grads[k].any()

    @pytest.mark.parametrize("batch_size", [1, 7, 32])
    def test_folded_step_matches_algorithm_one_within_tolerance(self, batch_size):
        rng = np.random.default_rng(batch_size)
        params = {"big": rng.normal(size=(512, 16)), "small": rng.normal(size=5)}
        ref = {k: p.copy() for k, p in params.items()}
        ref_m = {k: np.zeros_like(p) for k, p in params.items()}
        ref_v = {k: np.zeros_like(p) for k, p in params.items()}
        state = OptimizerState.for_params(params)
        for t in range(1, 26):
            drawn = drawn_gradients(rng, params)
            optimizer_step(params, {k: g.copy() for k, g in drawn.items()}, state, 1e-2,
                           batch_size=batch_size)
            for k, p in params.items():
                reference_adam_step(ref[k], drawn[k] / batch_size, ref_m[k], ref_v[k], t, 1e-2)
                np.testing.assert_allclose(p, ref[k], rtol=0, atol=1e-14)
                for ours, theirs in ((state.m[k], ref_m[k]), (state.v[k], ref_v[k])):
                    scale = np.abs(theirs).max()
                    np.testing.assert_allclose(ours, theirs, rtol=0, atol=1e-14 * scale)

    def test_step_allocates_nothing(self):
        params = {"w": np.random.default_rng(0).normal(size=3 * ADAM_BLOCK)}
        grads = {"w": np.ones_like(params["w"])}
        state = OptimizerState.for_params(params)
        tracemalloc.start()
        try:
            optimizer_step(params, grads, state, 1e-3, batch_size=7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ADAM_BLOCK * 8 // 4, peak  # a quarter of one block

    @pytest.mark.parametrize("d_tok", [12, 16])
    @pytest.mark.parametrize("blocks", ["one", "whole", "ragged"])
    def test_token_rows_step_is_bitwise_equal_to_the_dense_step(self, d_tok, blocks):
        # 12 does not divide ADAM_BLOCK; E spans one block, three whole ones,
        # or two and a few rows.
        per_block = ADAM_BLOCK // d_tok
        vocab = {"one": per_block - 3, "whole": 3 * per_block, "ragged": 2 * per_block + 7}[blocks]
        shape, tail = (vocab, d_tok), 37
        rng = np.random.default_rng(vocab)
        params = {"enc": rng.normal(size=vocab * d_tok + tail)}
        dense_params = {"enc": params["enc"].copy()}
        state, dense_state = OptimizerState.for_params(params), OptimizerState.for_params(dense_params)
        storage = np.zeros(table_block(shape) + tail)
        # The rows on each side of every block edge, and E's first and last.
        edges = [r for k in range(1, vocab // per_block + 1) for r in (k * per_block - 1, k * per_block)]
        edges = [r for r in edges if r < vocab] + [0, vocab - 1]
        for t in range(1, 6):
            # Batch rows with tokens repeated within a row ([9] * 6) and across
            # rows (the edges twice, token 9 again).
            members = [rng.integers(0, vocab, size=20) for _ in range(12)] + [
                [9] * 6, edges, edges[::-1] + [9], rng.integers(0, 4, size=30)
            ]
            tokens = np.concatenate(members)
            index = (tokens[:, None] * d_tok + np.arange(d_tok)).ravel()
            # Mixed scales, so the order of additions shows in the bits.
            values = rng.normal(size=index.size) * 10.0 ** rng.integers(-4, 4, size=index.size)
            rows = TokenRows(index, values, shape)
            storage[-tail:] = rng.normal(size=tail)
            dense = np.concatenate([dense_table_gradient(rows).ravel(), storage[-tail:]])
            optimizer_step(params, {"enc": (rows, storage)}, state, 1e-2, batch_size=16)
            optimizer_step(dense_params, {"enc": dense}, dense_state, 1e-2, batch_size=16)
            assert params["enc"].tobytes() == dense_params["enc"].tobytes(), t
            assert state.m["enc"].tobytes() == dense_state.m["enc"].tobytes(), t
            assert state.v["enc"].tobytes() == dense_state.v["enc"].tobytes(), t
            assert not storage.any(), t

    def test_token_rows_need_one_block_and_the_tail_of_gradient(self):
        shape = (3 * ADAM_BLOCK // 16, 16)
        params = {"enc": np.zeros(shape[0] * 16 + 5)}
        rows = TokenRows(np.arange(16), np.ones(16), shape)
        state = OptimizerState.for_params(params)
        for size in (ADAM_BLOCK + 4, ADAM_BLOCK + 6, params["enc"].size):
            with pytest.raises(ValueError, match="shape mismatch"):
                optimizer_step(params, {"enc": (rows, np.zeros(size))}, state, 1e-3)

    def test_non_contiguous_parameter_is_rejected(self):
        params = {"w": np.zeros((3, 4)).T}
        state = OptimizerState.for_params({"w": np.zeros((4, 3))})
        with pytest.raises(ValueError, match="C-contiguous"):
            optimizer_step(params, {"w": np.zeros((4, 3))}, state, 1e-3)

    def test_shape_mismatch(self):
        params = {"w": np.zeros(3)}
        state = OptimizerState.for_params(params)
        with pytest.raises(ValueError, match="shape mismatch"):
            optimizer_step(params, {"w": np.zeros(4)}, state, 1e-3)

    def test_unknown_parameter(self):
        params = {"w": np.zeros(3)}
        state = OptimizerState.for_params(params)
        with pytest.raises(ValueError, match="unknown parameter"):
            optimizer_step(params, {"q": np.zeros(3)}, state, 1e-3)


def two_class_corpus():
    return make_corpus("toy", [
        ("a1", "red crimson", "warm"),
        ("a2", "red scarlet", "warm"),
        ("b1", "blue navy", "cold"),
        ("b2", "blue azure", "cold"),
    ])


def one_pair(corpus, i, j, target):
    """A PairSet holding the single pair (examples[i], examples[j])."""
    return PairSet(corpus.examples, np.array([i]), np.array([j]), np.array([target]))


def pair_batch(pairs, input_fn):
    """The 2B-row table of B pairs that ``siamese_batch_backward`` takes:
    pair i is rows i and B + i."""
    return input_fn([pairs.examples[i] for i in np.concatenate((pairs.a, pairs.b)).tolist()])


def setup_for(corpus, mode, seed):
    """(corpus, params, input_fn) of a seeded 3/4/3 encoder over
    ``corpus``: over its vocabulary in trainable mode, over drawn 3-d
    vectors in frozen mode."""
    if mode == TRAINABLE:
        vocab = build_vocab(corpus)
        config = EncoderConfig(mode=TRAINABLE, d_tok=3, h=4, d_out=3)
        params = init_encoder_params(config, vocab_size=vocab.size, seed=seed)
        return corpus, params, make_input_fn(config, vocab=vocab)
    rng = np.random.default_rng(seed)
    table = VectorTable(dim=3, entries={ex.id: rng.normal(size=3) for ex in corpus.examples})
    config = EncoderConfig(mode=FROZEN_PROJECTION, d_in=3, h=4, d_out=3)
    params = init_encoder_params(config, seed=seed)
    return corpus, params, make_input_fn(config, vectors=table)


def toy_setup(seed=0, mode=TRAINABLE):
    return setup_for(two_class_corpus(), mode, seed)


class TestTrainSiamese:
    def test_zero_epochs_is_a_no_op(self):
        corpus, params, input_fn = toy_setup()
        pairs = generate_episodes(corpus, EpisodeSpec(quotas={"toy": 10}, seed=1))
        before = {k: v.copy() for k, v in params.as_dict().items()}
        out, report = train_siamese(params, pairs, input_fn(pairs.examples),
                                    SiameseConfig(epochs=0, seed=1))
        assert report.epoch_losses == []
        for k, v in out.as_dict().items():
            assert np.array_equal(v, before[k])

    def test_single_step_is_adam_transform_of_pair_gradient(self):
        corpus, params, input_fn = toy_setup(seed=5)
        well_scaled_params(params, seed=50)
        # One batch of three pairs (six rows): one different, two same.
        pairs = PairSet(corpus.examples, np.array([0, 1, 3]), np.array([2, 0, 2]),
                        np.array([0, 1, 1]))
        scfg = SiameseConfig(epochs=1, batch_size=3, seed=9)
        targets = np.where(pairs.target == 1, scfg.target_same, scfg.target_diff)
        batch = pair_batch(pairs, input_fn)

        # analytic batch gradient, verified against finite differences
        start = params.copy()
        grad = start.zeros_like()
        _, rows = siamese_batch_backward(start, batch, targets, scfg.epsilon_norm, grad)
        analytic = with_table_gradient(grad.as_dict(), rows)

        def batch_loss():
            return pair_cosine_loss(encode_batch(start, batch)[0], targets,
                                    scfg.epsilon_norm)

        numeric = finite_difference_gradients(batch_loss, start.as_dict())
        assert max_relative_error(analytic, numeric) < 1e-4

        # the trainer's parameter delta equals the first-step Adam transform
        # of the batch-mean gradient
        trained, _ = train_siamese(params, pairs, input_fn(pairs.examples), scfg)
        for name, g in analytic.items():
            g = g / len(pairs)
            expected = start.as_dict()[name] - scfg.learning_rate * g / (np.abs(g) + 1e-8)
            np.testing.assert_allclose(
                trained.as_dict()[name], expected, rtol=0, atol=1e-12
            )

    def test_full_pair_loss_gradient_matches_finite_differences(self):
        for mode in (TRAINABLE, FROZEN_PROJECTION):
            corpus, params, input_fn = toy_setup(seed=11, mode=mode)
            well_scaled_params(params, seed=51)
            pairs = generate_episodes(corpus, EpisodeSpec(quotas={"toy": 4}, seed=2))
            eps = 1e-12
            batch = pair_batch(pairs, input_fn)
            targets = pairs.target.astype(np.float64)
            grad = params.zeros_like()
            _, rows = siamese_batch_backward(params, batch, targets, eps, grad)
            analytic = with_table_gradient(grad.as_dict(), rows)

            def total_loss():
                return pair_cosine_loss(encode_batch(params, batch)[0], targets, eps)

            numeric = finite_difference_gradients(total_loss, params.as_dict())
            assert max_relative_error(analytic, numeric) < 1e-4, mode

    @pytest.mark.parametrize("rows", [slice(1, None), [0, 1, 2, 3, 0]], ids=["short", "long"])
    def test_table_of_the_wrong_length_is_refused(self, rows):
        corpus, params, input_fn = toy_setup()
        pairs = generate_episodes(corpus, EpisodeSpec(quotas={"toy": 4}, seed=1))
        table = input_fn(corpus.examples).take(np.arange(len(corpus))[rows])
        before = params.flat.copy()
        with pytest.raises(ValueError, match=f"{len(table)} rows for 4 examples"):
            train_siamese(params, pairs, table, SiameseConfig(epochs=1, seed=1))
        assert np.array_equal(params.flat, before)

    @pytest.mark.parametrize("trainer", ["siamese", "naive"])
    def test_a_step_allocates_no_dense_embedding_gradient(self, trainer):
        # E spans four Adam blocks; the batch touches rows in each of them.
        config = EncoderConfig(mode=TRAINABLE, d_tok=16, h=4, d_out=4)
        params = init_encoder_params(config, vocab_size=4 * ADAM_BLOCK // 16, seed=1)
        corpus = two_class_corpus()
        table = input_table(config, [[0, 3000, 8191], [5000, 5000, 2], [1, 2], [7000, 6000]])
        tracemalloc.start()
        try:
            if trainer == "siamese":
                pairs = PairSet(corpus.examples, np.array([0, 1]), np.array([2, 3]), np.array([0, 1]))
                train_siamese(params, pairs, table, SiameseConfig(epochs=1, batch_size=2, seed=1))
            else:
                train_naive(params, corpus, table, NaiveConfig(epochs=1, batch_size=4, hidden_dim=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # Adam's m and v are two vectors of the encoder's size; a dense
        # gradient would be a third, E.nbytes of it at least. What a step
        # adds is two ADAM_BLOCK scratch blocks and small arrays.
        assert peak - 2 * params.flat.nbytes < params.E.nbytes, peak

    def test_weight_sharing_single_parameter_object(self):
        corpus, params, input_fn = toy_setup()
        pairs = generate_episodes(corpus, EpisodeSpec(quotas={"toy": 8}, seed=3))
        out, _ = train_siamese(params, pairs, input_fn(pairs.examples),
                               SiameseConfig(epochs=1, seed=3))
        assert out is params

    def test_pair_order_symmetry(self):
        corpus, params, input_fn = toy_setup(seed=21)
        scfg = SiameseConfig(epochs=1, batch_size=1, seed=4)
        table = input_fn(corpus.examples)
        p_ab, _ = train_siamese(params.copy(), one_pair(corpus, 1, 3, 0), table, scfg)
        p_ba, _ = train_siamese(params.copy(), one_pair(corpus, 3, 1, 0), table, scfg)
        for x, y in zip(p_ab.as_dict().values(), p_ba.as_dict().values()):
            np.testing.assert_allclose(x, y, rtol=0, atol=1e-12)

    def test_determinism_bitwise(self):
        corpus, params, input_fn = toy_setup(seed=8)
        pairs = generate_episodes(corpus, EpisodeSpec(quotas={"toy": 40}, seed=5))
        scfg = SiameseConfig(epochs=3, batch_size=8, seed=6)
        p1, r1 = train_siamese(params.copy(), pairs, input_fn(pairs.examples), scfg)
        p2, r2 = train_siamese(params.copy(), pairs, input_fn(pairs.examples), scfg)
        for x, y in zip(p1.as_dict().values(), p2.as_dict().values()):
            assert np.array_equal(x, y)
        assert r1.epoch_losses == r2.epoch_losses

    def test_non_finite_loss_aborts_with_location(self):
        corpus, params, input_fn = toy_setup()
        params.W1[0, 0] = np.nan
        pairs = generate_episodes(corpus, EpisodeSpec(quotas={"toy": 4}, seed=7))
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="epoch 0 batch 0"):
                train_siamese(params, pairs, input_fn(pairs.examples),
                              SiameseConfig(epochs=1, seed=7))

    def test_separable_two_class_end_to_end(self):
        corpus = synthetic_corpus("sep2", 2, 120, n_groups=2, group_size=60,
                                  groups_per_class=1, tokens_per_example=6, seed=31)
        train, held = split_corpus(
            corpus, SplitSpec(mode=RANDOM_BY_EXAMPLE, fraction=0.8, seed=31)
        )
        vocab = build_vocab(train)
        config = EncoderConfig(mode=TRAINABLE, d_tok=8, h=16, d_out=16)
        params = init_encoder_params(config, vocab_size=vocab.size, seed=32)
        input_fn = make_input_fn(config, vocab=vocab)
        pairs = generate_episodes(train, EpisodeSpec(quotas={"sep2": 2_000}, seed=33))
        params, report = train_siamese(params, pairs, input_fn(pairs.examples),
                                       SiameseConfig(epochs=30, seed=34))
        assert report.epoch_losses[-1] < 0.05
        assert report.epoch_losses[-1] < report.epoch_losses[0]
        result = delta_cosine_distance(
            make_embedder(params), input_fn(held.examples),
            eval_pairs(held, EvalSpec(n_pairs=2_000, seed=35)),
        )
        assert result.delta > 0.5


def three_class_setup(seed=0, mode=TRAINABLE):
    corpus = make_corpus("tri", [
        ("a1", "sun hot bright", "day"),
        ("a2", "sun warm light", "day"),
        ("b1", "moon cold dark", "night"),
        ("b2", "moon dim stars", "night"),
        ("c1", "rain wet grey", "storm"),
        ("c2", "rain wind grey", "storm"),
    ])
    return setup_for(corpus, mode, seed)


class TestTrainNaive:
    def test_zero_epochs_is_a_no_op(self):
        corpus, params, input_fn = three_class_setup()
        before = {k: v.copy() for k, v in params.as_dict().items()}
        out, head, report = train_naive(params, corpus, input_fn(corpus.examples),
                                        NaiveConfig(epochs=0, seed=1))
        assert report.epoch_losses == []
        for k, v in out.as_dict().items():
            assert np.array_equal(v, before[k])
        assert head.W2.shape == (3, 128)

    def test_full_loss_gradient_matches_finite_differences(self):
        for mode in (TRAINABLE, FROZEN_PROJECTION):
            corpus, params, input_fn = three_class_setup(seed=17, mode=mode)
            well_scaled_params(params, seed=52)
            head = init_head_params(params.config.d_out, hidden_dim=4, n_classes=3, seed=18)
            labels = sorted(corpus.class_index)
            batch = input_fn(corpus.examples)
            ys = [labels.index(ex.class_label) for ex in corpus.examples]

            egrad = params.zeros_like()
            hgrad = head.zeros_like()
            _, rows = naive_batch_backward(params, head, batch, ys, egrad, hgrad)
            analytic = with_table_gradient(encoder_and_head(egrad, hgrad), rows)

            arrays = encoder_and_head(params, head)
            assert list(arrays) == list(analytic) == ["E"] * (mode == TRAINABLE) + [
                "W1", "b1", "W2", "b2", "head.W1", "head.b1", "head.W2", "head.b2"
            ]

            def total_loss():
                logits = project(head, encode_batch(params, batch)[0])[0]
                return cross_entropy_loss(logits, ys)

            numeric = finite_difference_gradients(total_loss, arrays)
            assert max_relative_error(analytic, numeric) < 1e-4, mode

    def test_head_init_keeps_its_draws(self):
        # Seeded NAIVE outputs depend on this stream: the hidden layer, then
        # the logit layer, each uniform in +-1/sqrt(fan_in), and zero biases.
        head = init_head_params(d_out=6, hidden_dim=5, n_classes=3, seed=19)
        rng = np.random.default_rng(19)
        W1 = rng.uniform(-1.0 / np.sqrt(6), 1.0 / np.sqrt(6), size=(5, 6))
        W2 = rng.uniform(-1.0 / np.sqrt(5), 1.0 / np.sqrt(5), size=(3, 5))
        expected = np.concatenate([W1.ravel(), np.zeros(5), W2.ravel(), np.zeros(3)])
        assert head.E is None
        assert head.flat.tobytes() == expected.tobytes()

    def test_determinism_bitwise(self):
        corpus, params, input_fn = three_class_setup(seed=2)
        ncfg = NaiveConfig(epochs=3, batch_size=2, hidden_dim=5, seed=3)
        p1, h1, _ = train_naive(params.copy(), corpus, input_fn(corpus.examples), ncfg)
        p2, h2, _ = train_naive(params.copy(), corpus, input_fn(corpus.examples), ncfg)
        for x, y in zip(p1.as_dict().values(), p2.as_dict().values()):
            assert np.array_equal(x, y)
        for x, y in zip(h1.as_dict().values(), h2.as_dict().values()):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("rows", [slice(1, None), [0, 1, 2, 3, 4, 5, 0]],
                             ids=["short", "long"])
    def test_table_of_the_wrong_length_is_refused(self, rows):
        corpus, params, input_fn = three_class_setup()
        table = input_fn(corpus.examples).take(np.arange(len(corpus))[rows])
        before = params.flat.copy()
        with pytest.raises(ValueError, match=f"{len(table)} rows for 6 examples"):
            train_naive(params, corpus, table, NaiveConfig(epochs=1, seed=1))
        assert np.array_equal(params.flat, before)

    def test_non_finite_loss_aborts(self):
        corpus, params, input_fn = three_class_setup()
        params.W2[0, 0] = np.inf
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="epoch 0 batch 0"):
                train_naive(params, corpus, input_fn(corpus.examples),
                            NaiveConfig(epochs=1, seed=4))

    def test_nan_pre_activation_aborts(self):
        # A NaN must survive both ReLUs to reach the loss check; a ReLU
        # written as where(a > 0, a, 0) would turn it into a finite 0.
        corpus, params, input_fn = three_class_setup()
        params.W1[0, 0] = np.nan
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="epoch 0 batch 0"):
                train_naive(params, corpus, input_fn(corpus.examples),
                            NaiveConfig(epochs=1, seed=4))

    def test_separable_corpus_reaches_high_accuracy(self):
        corpus = synthetic_corpus("cls2", 2, 80, n_groups=2, group_size=40,
                                  groups_per_class=1, tokens_per_example=6, seed=41)
        vocab = build_vocab(corpus)
        config = EncoderConfig(mode=TRAINABLE, d_tok=8, h=16, d_out=16)
        params = init_encoder_params(config, vocab_size=vocab.size, seed=42)
        input_fn = make_input_fn(config, vocab=vocab)
        params, head, report = train_naive(params, corpus, input_fn(corpus.examples),
                                           NaiveConfig(epochs=30, hidden_dim=32, seed=43))
        labels = sorted(corpus.class_index)
        logits = project(head, encode_batch(params, input_fn(corpus.examples))[0])[0]
        correct = sum(
            labels[k] == ex.class_label for k, ex in zip(np.argmax(logits, axis=1), corpus.examples)
        )
        assert correct / len(corpus) >= 0.95
        assert report.epoch_losses[-1] < report.epoch_losses[0]


def batch_setup(mode, seed):
    """Eight well-scaled inputs with repeated tokens, a one-token example and
    one input whose output is exactly zero, so its norm sits at the guard."""
    if mode == TRAINABLE:
        config = EncoderConfig(mode=TRAINABLE, d_tok=4, h=6, d_out=5)
        params = well_scaled_params(init_encoder_params(config, vocab_size=9, seed=seed), seed)
        params.E[8] = 0.0
        xs = [[1, 1, 3], [2], [8], [4, 5, 4, 4], [0, 7], [6, 3, 2], [5], [7, 7]]
    else:
        config = EncoderConfig(mode=FROZEN_PROJECTION, d_in=4, h=6, d_out=5)
        params = well_scaled_params(init_encoder_params(config, seed=seed), seed)
        xs = list(np.random.default_rng(seed).normal(size=(8, 4)))
        xs[2] = np.zeros(4)
    # zero biases make the zero input's output exactly zero
    params.b1[...] = 0.0
    params.b2[...] = 0.0
    return params, xs


def relative_error(batched: dict, summed: dict) -> float:
    """Largest absolute difference per array, relative to that array's largest entry."""
    return max(
        float(np.abs(batched[k] - summed[k]).max() / max(np.abs(summed[k]).max(), 1e-300))
        for k in summed
    )


@pytest.mark.parametrize("mode", [TRAINABLE, FROZEN_PROJECTION])
class TestBatchKernel:
    def test_siamese_batch_equals_sum_of_pairs(self, mode):
        params, xs = batch_setup(mode, seed=61)
        xa, xb = xs, xs[3:] + xs[:3]
        targets = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 0.0, 1.0, 0.0])
        eps = 1e-12
        assert np.linalg.norm(encode(params, xs[2])) < eps

        batched = params.zeros_like()
        batch = input_table(params.config, xa + xb)
        losses, rows = siamese_batch_backward(params, batch, targets, eps, batched)
        summed = params.zeros_like()
        single = [
            siamese_pair_backward(params, a, b, t, eps, summed)
            for a, b, t in zip(xa, xb, targets)
        ]
        np.testing.assert_allclose(losses, single, rtol=1e-12, atol=0)
        batched = with_table_gradient(batched.as_dict(), rows)
        assert relative_error(batched, summed.as_dict()) <= 1e-12

    def test_naive_batch_equals_sum_of_examples(self, mode):
        params, xs = batch_setup(mode, seed=62)
        head = init_head_params(params.config.d_out, hidden_dim=7, n_classes=3, seed=63)
        ys = [0, 2, 1, 1, 0, 2, 2, 1]

        eb, hb = params.zeros_like(), head.zeros_like()
        losses, rows = naive_batch_backward(params, head, input_table(params.config, xs), ys, eb, hb)
        es, hs = params.zeros_like(), head.zeros_like()
        single = [
            naive_example_backward(params, head, x, y, es, hs)
            for x, y in zip(xs, ys)
        ]
        np.testing.assert_allclose(losses, single, rtol=1e-12, atol=0)
        batched = with_table_gradient(encoder_and_head(eb, hb), rows)
        assert relative_error(batched, encoder_and_head(es, hs)) <= 1e-12


@pytest.mark.parametrize("token", ["-1", "len(E)"])
def test_token_index_outside_the_embedding_table_is_refused(token):
    # Numpy reads -1 as E[-1]; the rule is [0, len(E)) wherever E is read.
    corpus = synthetic_corpus("tok", 3, 8, n_groups=3, seed=1)
    vocab = build_vocab(corpus)
    config = EncoderConfig(mode=TRAINABLE, d_tok=4, h=6, d_out=5)
    params = init_encoder_params(config, vocab_size=vocab.size, seed=1)
    table = make_input_fn(config, vocab=vocab)(corpus.examples)
    # The last example's last token; a trainer refuses it before its first
    # step, whichever batch holds it.
    table.tokens[-1] = -1 if token == "-1" else len(params.E)
    last = len(corpus) - 1
    pairs = generate_episodes(corpus, EpisodeSpec(quotas={"tok": 60}, seed=2))
    assert (pairs.a == last).any() or (pairs.b == last).any()
    before = params.flat.copy()
    match = f"token index out of range for {vocab.size} embedding rows"
    with pytest.raises(IndexError, match=match):
        encode_batch(params, table)
    with pytest.raises(IndexError, match=match):
        train_siamese(params, pairs, table, SiameseConfig(epochs=1, batch_size=4, seed=3))
    assert params.flat.tobytes() == before.tobytes()
    with pytest.raises(IndexError, match=match):
        train_naive(params, corpus, table, NaiveConfig(epochs=1, batch_size=4, hidden_dim=4, seed=3))
    assert params.flat.tobytes() == before.tobytes()
