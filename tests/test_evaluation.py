import dataclasses
import math
import statistics

import numpy as np
import pytest

import pairtune.encoder
import pairtune.evaluation
from pairtune.corpus import CorpusError, VectorTable
from pairtune.encoder import (
    FROZEN_PROJECTION,
    TRAINABLE,
    EncoderConfig,
    InputTable,
    build_vocab,
    embed_block_rows,
    encode_batch,
    identity_projection,
    init_encoder_params,
    make_embedder,
    make_input_fn,
    tokenize,
)
from pairtune.episodes import EpisodeSpec, generate_episodes
from pairtune.evaluation import (
    DeltaReport,
    EvalSpec,
    cosine_distance,
    delta_cosine_distance,
    emit_report,
    eval_pairs,
    parse_report,
)
from pairtune.synthetic import synthetic_corpus
from pairtune.training import NumericError

from conftest import brute_force_delta, make_corpus, stack_rows


class TestCosineDistance:
    def test_identical_direction_is_exactly_zero(self):
        assert cosine_distance([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_orthogonal_is_exactly_one(self):
        assert cosine_distance([1.0, 0.0], [0.0, 1.0]) == 1.0

    def test_antipodal_is_exactly_two(self):
        assert cosine_distance([2.0, 0.0], [-5.0, 0.0]) == 2.0

    def test_positive_scaling_preserves_similarity_bitwise(self):
        pairs = [
            ([3.0, 4.0], [3.0, 4.0]),
            ([1.0, 0.0], [0.0, 1.0]),
            ([2.0, 0.0], [-5.0, 0.0]),
            ([1.0, 0.0], [math.cos(math.pi / 6), math.sin(math.pi / 6)]),
        ]
        for u, v in pairs:
            u, v = np.array(u), np.array(v)
            base = cosine_distance(u, v)
            assert cosine_distance(7.3 * u, v) == base
            assert cosine_distance(u, 7.3 * v) == base
            assert cosine_distance(7.3 * u, 7.3 * v) == base

    def test_scaling_invariance_on_random_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = rng.normal(size=6)
            v = rng.normal(size=6)
            assert math.isclose(
                cosine_distance(7.3 * u, 7.3 * v),
                cosine_distance(u, v),
                rel_tol=0,
                abs_tol=1e-12,
            )


def two_class_six_examples():
    corpus = make_corpus("hex", [
        ("a1", "one", "A"), ("a2", "two", "A"), ("a3", "three", "A"),
        ("b1", "four", "B"), ("b2", "five", "B"), ("b3", "six", "B"),
    ])
    # class A hugs 0 degrees, class B hugs 90 degrees
    angles = {
        "a1": -10.0, "a2": 0.0, "a3": 10.0,
        "b1": 80.0, "b2": 90.0, "b3": 100.0,
    }
    vectors = {
        ex_id: np.array([math.cos(math.radians(t)), math.sin(math.radians(t))])
        for ex_id, t in angles.items()
    }
    return corpus, vectors


class TestDeltaCosineDistance:
    def test_constant_embedding_gives_zero_delta(self):
        corpus, _ = two_class_six_examples()
        fixed = np.array([3.0, 4.0])
        report = delta_cosine_distance(
            stack_rows(lambda ex: fixed), corpus.examples, eval_pairs(corpus, EvalSpec(n_pairs=200, seed=1))
        )
        assert report.mean_same_distance == 0.0
        assert report.mean_diff_distance == 0.0
        assert report.delta == 0.0

    def test_perfectly_separated_classes_give_delta_one(self):
        corpus, _ = two_class_six_examples()
        axes = {"A": np.array([1.0, 0.0]), "B": np.array([0.0, 1.0])}
        report = delta_cosine_distance(
            stack_rows(lambda ex: axes[ex.class_label]), corpus.examples,
            eval_pairs(corpus, EvalSpec(n_pairs=500, seed=2)),
        )
        assert report.delta == 1.0

    def test_counts_partition_n_pairs(self):
        corpus, vectors = two_class_six_examples()
        report = delta_cosine_distance(
            stack_rows(lambda ex: vectors[ex.id]), corpus.examples,
            eval_pairs(corpus, EvalSpec(n_pairs=101, same_fraction=0.3, seed=3)),
        )
        assert report.s_count + report.d_count == 101
        assert report.s_count == 30  # round(101 * 0.3)

    def test_sampled_delta_matches_exhaustive_oracle(self):
        corpus, vectors = two_class_six_examples()
        exhaustive, _, _ = brute_force_delta(corpus, vectors)
        report = delta_cosine_distance(
            stack_rows(lambda ex: vectors[ex.id]), corpus.examples,
            eval_pairs(corpus, EvalSpec(n_pairs=5000, seed=4))
        )
        assert abs(report.delta - exhaustive) < 0.02

    def test_sampling_convergence_within_three_stderr(self):
        # 24 examples, 3 equal classes, arbitrary fixed embeddings
        rng = np.random.default_rng(5)
        rows = [
            (f"e{c}{i}", f"text {c} {i}", f"class{c}")
            for c in range(3) for i in range(8)
        ]
        corpus = make_corpus("conv", rows)
        vectors = {
            ex.id: rng.normal(size=5) + 2.0 * np.eye(5)[int(ex.class_label[-1])]
            for ex in corpus.examples
        }
        exhaustive, _, _ = brute_force_delta(corpus, vectors)
        report = delta_cosine_distance(
            stack_rows(lambda ex: vectors[ex.id]), corpus.examples,
            eval_pairs(corpus, EvalSpec(n_pairs=5000, seed=6))
        )
        se = math.sqrt(report.same_stderr**2 + report.diff_stderr**2)
        assert abs(report.delta - exhaustive) <= 3.0 * se

    def test_delta_monotone_in_between_class_angle(self):
        corpus, _ = two_class_six_examples()
        deltas = []
        for theta in (0.0, 30.0, 60.0, 90.0):
            axes = {
                "A": np.array([1.0, 0.0]),
                "B": np.array([math.cos(math.radians(theta)), math.sin(math.radians(theta))]),
            }
            report = delta_cosine_distance(
                stack_rows(lambda ex: axes[ex.class_label]), corpus.examples,
                eval_pairs(corpus, EvalSpec(n_pairs=400, seed=7))
            )
            expected = 1.0 - math.cos(math.radians(theta))
            assert abs(report.delta - expected) < 1e-12
            deltas.append(report.delta)
        assert all(b >= a for a, b in zip(deltas, deltas[1:]))

    def test_delta_invariant_under_positive_scaling_bitwise(self):
        corpus, _ = two_class_six_examples()
        # same-class members share a direction but not a magnitude, so every
        # pair similarity is an exact 0 or 1 and scaling cancels bit for bit
        magnitude = {"a1": 1.0, "a2": 2.0, "a3": 4.0, "b1": 1.0, "b2": 3.0, "b3": 5.0}
        axis = {"A": np.array([1.0, 0.0]), "B": np.array([0.0, 1.0])}

        def embed(ex):
            return magnitude[ex.id] * axis[ex.class_label]

        def embed_scaled(ex):
            return 7.3 * embed(ex)

        pairs = eval_pairs(corpus, EvalSpec(n_pairs=600, seed=8))
        base = delta_cosine_distance(stack_rows(embed), corpus.examples, pairs)
        scaled = delta_cosine_distance(stack_rows(embed_scaled), corpus.examples, pairs)
        assert scaled.delta == base.delta
        assert scaled.mean_same_distance == base.mean_same_distance
        assert scaled.mean_diff_distance == base.mean_diff_distance

    def test_non_finite_embedding_rejected(self):
        corpus, vectors = two_class_six_examples()
        bad = dict(vectors)
        bad["a2"] = np.array([np.nan, 1.0])
        with pytest.raises(NumericError, match="a2"):
            delta_cosine_distance(
                stack_rows(lambda ex: bad[ex.id]), corpus.examples,
                eval_pairs(corpus, EvalSpec(n_pairs=50, seed=9))
            )

    def test_eval_pairs_are_the_specs_draw_from_one_test_set(self):
        corpus, vectors = two_class_six_examples()
        spec = EvalSpec(n_pairs=101, same_fraction=0.3, seed=3)
        pairs = eval_pairs(corpus, spec)
        drawn = generate_episodes([corpus], EpisodeSpec(quotas={"hex": 101}, same_fraction=0.3, seed=3))
        assert pairs.examples == corpus.examples
        for name in ("a", "b", "target"):
            assert np.array_equal(getattr(pairs, name), getattr(drawn, name)), name
        report = delta_cosine_distance(stack_rows(lambda ex: vectors[ex.id]), corpus.examples, pairs)
        assert report.n_pairs == len(pairs) == 101

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="n_pairs"):
            EvalSpec(n_pairs=1)
        with pytest.raises(ValueError, match="same_fraction"):
            EvalSpec(n_pairs=10, same_fraction=0.0)
        # Rounding would leave no same-class or no different-class pair to average.
        for n_pairs, same_fraction in [(2, 0.1), (2, 0.9), (10, 0.04), (10, 0.96)]:
            with pytest.raises(ValueError, match="n_pairs"):
                EvalSpec(n_pairs=n_pairs, same_fraction=same_fraction)

    @pytest.mark.parametrize("n_pairs,same_fraction", [(2, 0.5), (3, 0.2), (10, 0.05), (10, 0.94)])
    def test_smallest_specs_score_one_pair_of_each_kind_or_more(self, n_pairs, same_fraction):
        corpus, vectors = two_class_six_examples()
        report = delta_cosine_distance(
            stack_rows(lambda ex: vectors[ex.id]), corpus.examples,
            eval_pairs(corpus, EvalSpec(n_pairs=n_pairs, same_fraction=same_fraction, seed=5)),
        )
        assert report.s_count >= 1 and report.d_count >= 1
        assert report.delta == report.mean_diff_distance - report.mean_same_distance


def reference_report(embed_one, corpus, spec):
    """Distance gap by a plain per-pair loop over per-example embeddings."""
    pairs = generate_episodes([corpus], EpisodeSpec(
        quotas={corpus.dataset_id: spec.n_pairs}, same_fraction=spec.same_fraction, seed=spec.seed,
    ))
    same, diff = [], []
    for i, j, t in zip(pairs.a.tolist(), pairs.b.tolist(), pairs.target.tolist()):
        u, v = embed_one(pairs.examples[i]), embed_one(pairs.examples[j])
        gu = max(math.sqrt(float(u @ u)), 1e-12)
        gv = max(math.sqrt(float(v @ v)), 1e-12)
        (same if t == 1 else diff).append(1.0 - float(u @ v) / (gu * gv))
    return pairs, same, diff


class TestBatchedEvalMatchesReference:
    """The batched embedder and vectorised scoring against a per-pair loop.

    The reference encodes each example with its own straight-line forward
    pass, not encode_batch, so it checks the chunked embedding as well.
    """

    def setup_case(self, kind):
        corpus = synthetic_corpus("ref", 5, 60, n_groups=5, seed=1)
        rng = np.random.default_rng(2)
        # A narrow kind's d_out exceeds h + 1, so eval rows are h + 1 wide.
        if kind.startswith("trainable"):
            vocab = build_vocab(corpus)
            h, d_out = (3, 9) if kind == "trainable-narrow" else (6, 5)
            config = EncoderConfig(mode=TRAINABLE, d_tok=4, h=h, d_out=d_out)
            params = init_encoder_params(config, vocab_size=vocab.size, seed=3)
            params.E[...] = rng.normal(size=params.E.shape)
            params.b2[...] = rng.normal(size=d_out)

            def embed_one(ex):
                m = params.E[vocab.lookup(tokenize(ex.text))].mean(axis=0)
                return params.W2 @ np.maximum(params.W1 @ m + params.b1, 0.0) + params.b2

            return corpus, embed_one, make_embedder(params), make_input_fn(config, vocab=vocab), params
        table = VectorTable(dim=6, entries={ex.id: rng.normal(size=6) for ex in corpus.examples})
        if kind == "identity-orig":
            params = identity_projection(6)
            prepare = make_input_fn(params.config, vectors=table)
            return corpus, lambda ex: table[ex.id], make_embedder(params), prepare, params
        h, d_out = (4, 11) if kind == "frozen-narrow" else (7, 5)
        config = EncoderConfig(mode=FROZEN_PROJECTION, d_in=6, h=h, d_out=d_out)
        params = init_encoder_params(config, seed=4)
        params.b2[...] = rng.normal(size=d_out)

        def embed_one(ex):
            return params.W2 @ np.maximum(params.W1 @ table[ex.id] + params.b1, 0.0) + params.b2

        return corpus, embed_one, make_embedder(params), make_input_fn(config, vectors=table), params

    @pytest.mark.parametrize(
        "kind", ["trainable", "frozen", "identity-orig", "trainable-narrow", "frozen-narrow"]
    )
    def test_report_matches_per_pair_loop(self, monkeypatch, kind):
        # Budgets of a few rows, so that embedding and scoring each run
        # several blocks and a short last one.
        monkeypatch.setattr(pairtune.encoder, "EMBED_BLOCK_BYTES", 8 * 64)
        monkeypatch.setattr(pairtune.evaluation, "PAIR_BLOCK_BYTES", 8 * 256)
        corpus, embed_one, embed, prepare, params = self.setup_case(kind)
        spec = EvalSpec(n_pairs=333, same_fraction=0.4, seed=5)
        pairs, same, diff = reference_report(embed_one, corpus, spec)
        n_ref, step = pairs.referenced().size, embed_block_rows(params.config)
        assert n_ref > step and n_ref % step, (n_ref, step)
        pair_step = 256 // embed(prepare(corpus.examples[:1])).shape[1]
        assert spec.n_pairs > pair_step and spec.n_pairs % pair_step, pair_step

        compact = eval_pairs(corpus, spec).compact()
        report = delta_cosine_distance(embed, prepare(compact.examples), compact)
        assert (report.s_count, report.d_count) == (len(same), len(diff))
        expected = {
            "mean_same_distance": statistics.fmean(same),
            "mean_diff_distance": statistics.fmean(diff),
            "same_stderr": statistics.stdev(same) / math.sqrt(len(same)),
            "diff_stderr": statistics.stdev(diff) / math.sqrt(len(diff)),
            "delta": statistics.fmean(diff) - statistics.fmean(same),
        }
        for name, value in expected.items():
            assert abs(getattr(report, name) - value) <= 1e-12, name

    @pytest.mark.parametrize("kind", ["trainable", "frozen", "identity-orig"])
    def test_eval_embeds_the_prepared_table_without_gathering_rows(self, monkeypatch, kind):
        corpus, embed_one, embed, prepare, _ = self.setup_case(kind)
        spec = EvalSpec(n_pairs=333, same_fraction=0.4, seed=5)
        _, same, diff = reference_report(embed_one, corpus, spec)
        pairs = eval_pairs(corpus, spec).compact()
        inputs = prepare(pairs.examples)

        def no_take(self, rows):
            raise AssertionError("eval gathered rows with InputTable.take")

        monkeypatch.setattr(InputTable, "take", no_take)
        report = delta_cosine_distance(embed, inputs, pairs)
        assert (report.s_count, report.d_count) == (len(same), len(diff))
        assert abs(report.delta - (statistics.fmean(diff) - statistics.fmean(same))) <= 1e-12

    @pytest.mark.parametrize("kind", ["trainable-narrow", "frozen", "identity-orig"])
    def test_report_bytes_do_not_depend_on_the_pair_block_size(self, monkeypatch, kind):
        corpus, _, embed, prepare, _ = self.setup_case(kind)
        pairs = eval_pairs(corpus, EvalSpec(n_pairs=333, same_fraction=0.4, seed=5)).compact()
        inputs = prepare(pairs.examples)
        width = embed(inputs).shape[1]
        reports = []
        # One pair per block, 7 (the last one short), the default, and all in one.
        for budget in (8 * width, 8 * 7 * width, pairtune.evaluation.PAIR_BLOCK_BYTES,
                       8 * (len(pairs) + 1) * width):
            monkeypatch.setattr(pairtune.evaluation, "PAIR_BLOCK_BYTES", budget)
            reports.append(repr(dataclasses.astuple(delta_cosine_distance(embed, inputs, pairs))))
        assert reports == reports[:1] * 4


def test_embed_that_returns_another_row_count_is_refused():
    corpus = synthetic_corpus("rows", 3, 10, n_groups=3, seed=1)
    pairs = eval_pairs(corpus, EvalSpec(n_pairs=40, seed=1))
    with pytest.raises(ValueError, match=r"embed returned \d+ rows for \d+ examples"):
        delta_cosine_distance(lambda examples: np.ones((len(examples) - 1, 3)), pairs.examples, pairs)


@pytest.mark.parametrize("d", [5, 64, 512])
def test_identity_orig_scored_on_its_inputs_matches_the_network(d):
    """make_embedder scores an exact identity_projection on its input
    vectors; encode_batch runs its 2d-wide ReLU network. Only the signs of
    zero entries may differ, so magnitudes, Gram matrices and every report
    field are equal."""
    corpus = synthetic_corpus("idn", 4, 15, n_groups=4, seed=1)
    rng = np.random.default_rng(d)
    X = rng.normal(size=(len(corpus), d))
    X[rng.random(X.shape) < 0.2] = 0.0
    X[rng.random(X.shape) < 0.2] = -0.0
    X[0], X[1] = 0.0, -0.0  # all-zero rows score at distance 1 from everything
    assert np.signbit(X[X == 0.0]).any() and not np.signbit(X[X == 0.0]).all()
    table = VectorTable(dim=d, entries={ex.id: x for ex, x in zip(corpus.examples, X)})
    params = identity_projection(d)
    inputs = make_input_fn(params.config, vectors=table)(corpus.examples)

    def network(inputs):
        return encode_batch(params, inputs)[0]

    embed = make_embedder(params)
    Z, N = embed(inputs), network(inputs)
    assert Z.tobytes() == X.tobytes()
    assert np.abs(Z).tobytes() == np.abs(N).tobytes()
    assert (Z @ Z.T).tobytes() == (N @ N.T).tobytes()
    pairs = eval_pairs(corpus, EvalSpec(n_pairs=400, same_fraction=0.5, seed=3))
    shortcut = delta_cosine_distance(embed, inputs, pairs)
    reference = delta_cosine_distance(network, inputs, pairs)
    for field in dataclasses.fields(DeltaReport):
        assert getattr(shortcut, field.name) == getattr(reference, field.name), field.name

def report_fixture(seed=0):
    rng = np.random.default_rng(seed)
    mean_same = float(rng.uniform(0, 0.5))
    mean_diff = float(rng.uniform(0.5, 1.5))
    return DeltaReport(
        n_pairs=5000,
        s_count=2500,
        d_count=2500,
        mean_same_distance=mean_same,
        mean_diff_distance=mean_diff,
        same_stderr=float(rng.uniform(0, 0.01)),
        diff_stderr=float(rng.uniform(0, 0.01)),
        delta=mean_diff - mean_same,
    )


class TestReportFile:
    def test_single_row(self, tmp_path):
        path = tmp_path / "r.tsv"
        emit_report([("SIAMESE", "test-a", report_fixture())], path)
        rows = parse_report(path)
        assert len(rows) == 1
        assert rows[0]["model"] == "SIAMESE"
        assert rows[0]["test_set"] == "test-a"

    def test_four_models_two_test_sets_give_eight_rows(self, tmp_path):
        path = tmp_path / "r.tsv"
        rows_in = [
            (model, test, report_fixture(seed=i))
            for i, (model, test) in enumerate(
                (m, t) for m in ("ORIG", "NAIVE", "SIAMESE", "ALL") for t in ("t1", "t2")
            )
        ]
        emit_report(rows_in, path)
        assert len(parse_report(path)) == 8

    def test_round_trip_nine_significant_digits(self, tmp_path):
        path = tmp_path / "r.tsv"
        reports = [(f"m{i}", "t", report_fixture(seed=i)) for i in range(10)]
        emit_report(reports, path)
        for row, (_, _, original) in zip(parse_report(path), reports):
            assert math.isclose(row["delta"], original.delta, rel_tol=5e-9)
            assert math.isclose(row["mean_same"], original.mean_same_distance, rel_tol=5e-9)

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no report rows"):
            emit_report([], tmp_path / "r.tsv")

    @pytest.mark.parametrize("model,test", [("a\tb", "t"), ("m", "t\nu"), ("m\r", "t")])
    def test_name_the_parser_cannot_read_is_refused_before_writing(self, tmp_path, model, test):
        path = tmp_path / "r.tsv"
        rows = [("ok", "t", report_fixture()), (model, test, report_fixture(seed=1))]
        with pytest.raises(CorpusError, match="holds a tab or line break"):
            emit_report(rows, path)
        assert not path.exists()
        emit_report(rows[:1], path)
        before = path.read_bytes()
        with pytest.raises(CorpusError):
            emit_report(rows, path)
        assert path.read_bytes() == before
