import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pairtune
import pairtune.cli
import pairtune.corpus
import pairtune.encoder
import pairtune.evaluation
from pairtune.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    SEED_EVAL,
    _write_loss_curve,
    default_experiment_config,
    load_experiment_config,
    main,
    run_experiment,
)
from pairtune.corpus import Corpus, VectorTable, load_corpus, write_corpus, write_vectors
from pairtune.encoder import (
    FROZEN_PROJECTION,
    TRAINABLE,
    EncoderConfig,
    build_vocab,
    init_encoder_params,
    load_model,
    load_vocab,
    save_model,
    save_vocab,
)
from pairtune.episodes import EpisodeSpec, generate_episodes, write_pairs
from pairtune.evaluation import DeltaReport, emit_report, parse_report
from pairtune.training import TrainingReport


def run(*argv):
    return main([str(a) for a in argv])


def gen_corpus(path, *, classes=3, per_class=30, groups=None, seed=0, extra=()):
    argv = [
        "gen-synthetic", "--out", path,
        "--classes", classes, "--examples-per-class", per_class,
        "--groups", groups if groups is not None else classes,
        "--group-size", 20, "--tokens-per-example", 6, "--seed", seed,
    ]
    argv += list(extra)
    assert run(*argv) == EXIT_OK
    return path


class TestGenSynthetic:
    def test_writes_loadable_corpus(self, tmp_path):
        path = gen_corpus(tmp_path / "syn.jsonl", classes=4, per_class=10, groups=4)
        corpus = load_corpus(path)
        assert corpus.n_classes == 4
        assert len(corpus) == 40

    def test_split_output(self, tmp_path):
        train = tmp_path / "train.jsonl"
        test = tmp_path / "test.jsonl"
        assert run(
            "gen-synthetic", "--out", train, "--test-out", test,
            "--test-fraction", 0.2, "--classes", 3, "--examples-per-class", 20,
            "--groups", 3, "--seed", 1,
        ) == EXIT_OK
        assert len(load_corpus(train)) == 48
        assert len(load_corpus(test)) == 12

    def test_missing_test_out_is_usage_error(self, tmp_path):
        assert run(
            "gen-synthetic", "--out", tmp_path / "x.jsonl", "--test-fraction", 0.2,
            "--classes", 3, "--examples-per-class", 5, "--groups", 3,
        ) == EXIT_USAGE

    @pytest.mark.parametrize("fraction", ["0", "1.0", "1.5", "-0.2", "nan"])
    def test_test_fraction_out_of_range_is_usage_error(self, tmp_path, capsys, fraction):
        assert run(
            "gen-synthetic", "--out", tmp_path / "x.jsonl", "--test-out", tmp_path / "y.jsonl",
            "--test-fraction", fraction, "--classes", 3, "--examples-per-class", 5, "--groups", 3,
        ) == EXIT_USAGE
        assert f"--test-fraction must be strictly between 0 and 1, got {float(fraction)}" in (
            capsys.readouterr().err
        )
        assert list(tmp_path.iterdir()) == []

    def test_test_out_without_test_fraction_is_usage_error(self, tmp_path, capsys):
        assert run(
            "gen-synthetic", "--out", tmp_path / "x.jsonl", "--test-out", tmp_path / "y.jsonl",
            "--classes", 3, "--examples-per-class", 5, "--groups", 3,
        ) == EXIT_USAGE
        assert "--test-out needs --test-fraction" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestBuildVocab:
    def test_vocab_file(self, tmp_path):
        corpus = gen_corpus(tmp_path / "c.jsonl")
        out = tmp_path / "vocab.txt"
        assert run("build-vocab", "--train", corpus, "--out", out) == EXIT_OK
        vocab = load_vocab(out)
        assert vocab.size > 1


class TestGenPairs:
    def test_pair_dump_counts(self, tmp_path):
        c1 = gen_corpus(tmp_path / "c1.jsonl", seed=1, extra=("--namespace", "c1"))
        c2 = gen_corpus(tmp_path / "c2.jsonl", seed=2, extra=("--namespace", "c2"))
        out = tmp_path / "pairs.tsv"
        assert run(
            "gen-pairs", "--train", c1, "--train", c2,
            "--pairs-per-dataset", 50, "--seed", 3, "--out", out,
        ) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 100
        assert sum(1 for l in lines if l.startswith("c1\t")) == 50

    def test_id_with_a_tab_is_data_error_and_writes_no_dump(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        rows = [("x\t0", "a b", "p"), ("x1", "c d", "p"), ("y0", "e f", "q"), ("y1", "g", "q")]
        corpus.write_text("".join(json.dumps({"id": i, "text": t, "label": l}) + "\n"
                                  for i, t, l in rows))
        out = tmp_path / "pairs.tsv"
        capsys.readouterr()
        assert run("gen-pairs", "--train", corpus, "--pairs", 40, "--out", out) == EXIT_DATA
        assert_one_line_error(capsys, repr("x\t0"))
        assert not out.exists()

    def test_uneven_total_is_usage_error(self, tmp_path):
        c1 = gen_corpus(tmp_path / "c1.jsonl", seed=1)
        c2 = gen_corpus(tmp_path / "c2.jsonl", seed=2, extra=("--namespace", "x"))
        assert run(
            "gen-pairs", "--train", c1, "--train", c2,
            "--pairs", 101, "--out", tmp_path / "p.tsv",
        ) == EXIT_USAGE


# A run that replays a --pairs-in dump takes no pair count.
SMALL_REPLAY = ("--d-tok", 8, "--hidden-width", 16, "--d-out", 8, "--epochs", 2, "--seed", 9)
SMALL_TRAIN = SMALL_REPLAY + ("--pairs", 200)


class TestTrainCommand:
    def test_siamese_round_trip_and_determinism(self, tmp_path):
        corpus = gen_corpus(tmp_path / "c.jsonl")
        m1 = tmp_path / "m1.ptm"
        m2 = tmp_path / "m2.ptm"
        curve = tmp_path / "loss.tsv"
        assert run("train", "--mode", "SIAMESE", "--train", corpus,
                   "--out", m1, "--loss-curve", curve, *SMALL_TRAIN) == EXIT_OK
        assert run("train", "--mode", "SIAMESE", "--train", corpus,
                   "--out", m2, *SMALL_TRAIN) == EXIT_OK
        assert m1.read_bytes() == m2.read_bytes()
        params, vocab = load_model(m1)
        assert params.config.d_out == 8
        assert curve.read_text().startswith("epoch\tmean_loss\n")
        assert len(curve.read_text().splitlines()) == 3

    def test_naive_training(self, tmp_path):
        corpus = gen_corpus(tmp_path / "c.jsonl")
        out = tmp_path / "m.ptm"
        assert run("train", "--mode", "NAIVE", "--train", corpus, "--out", out,
                   "--d-tok", 8, "--hidden-width", 16, "--d-out", 8,
                   "--epochs", 2, "--hidden-dim", 16, "--seed", 4) == EXIT_OK
        assert out.exists()

    def test_naive_with_two_train_sets_is_usage_error(self, tmp_path):
        c1 = gen_corpus(tmp_path / "c1.jsonl", seed=1)
        c2 = gen_corpus(tmp_path / "c2.jsonl", seed=2, extra=("--namespace", "x"))
        assert run("train", "--mode", "NAIVE", "--train", c1, "--train", c2,
                   "--out", tmp_path / "m.ptm") == EXIT_USAGE

    def test_all_mode_trains_on_every_dataset(self, tmp_path):
        c1 = gen_corpus(tmp_path / "c1.jsonl", seed=1, extra=("--namespace", "c1"))
        c2 = gen_corpus(tmp_path / "c2.jsonl", seed=2, extra=("--namespace", "c2"))
        out = tmp_path / "all.ptm"
        assert run("train", "--mode", "ALL", "--train", c1, "--train", c2,
                   "--out", out, "--d-tok", 8, "--hidden-width", 16, "--d-out", 8,
                   "--epochs", 1, "--pairs-per-dataset", 50, "--seed", 5) == EXIT_OK
        assert out.exists()

    def test_pair_replay(self, tmp_path):
        corpus = gen_corpus(tmp_path / "c.jsonl")
        pairs = tmp_path / "pairs.tsv"
        assert run("gen-pairs", "--train", corpus, "--pairs", 200,
                   "--seed", 11, "--out", pairs) == EXIT_OK
        out = tmp_path / "m.ptm"
        assert run("train", "--mode", "SIAMESE", "--train", corpus,
                   "--pairs-in", pairs, "--out", out,
                   "--d-tok", 8, "--hidden-width", 16, "--d-out", 8,
                   "--epochs", 1, "--seed", 11) == EXIT_OK

    def test_missing_corpus_is_data_error(self, tmp_path):
        assert run("train", "--mode", "SIAMESE", "--train", tmp_path / "nope.jsonl",
                   "--out", tmp_path / "m.ptm") == EXIT_DATA

    def test_unwritable_out_names_the_target(self, tmp_path, capsys, monkeypatch):
        # Without the up-front directory check the run trains and then fails
        # inside the model's atomic write, which must name the target.
        monkeypatch.setattr(pairtune.cli, "_check_out_dirs", lambda args: None)
        corpus = gen_corpus(tmp_path / "c.jsonl", per_class=20)
        model = tmp_path / "missing" / "m.ptm"
        capsys.readouterr()
        assert run("train", "--mode", "SIAMESE", "--train", corpus, "--out", model,
                   "--d-tok", 8, "--hidden-width", 16, "--d-out", 8,
                   "--epochs", 1, "--pairs", 20) == EXIT_DATA
        err = capsys.readouterr().err.splitlines()[-1]  # after the epoch progress lines
        assert err.startswith("i/o error: ") and f"'{model}'" in err, err
        assert ".tmp" not in err, err
        assert not (tmp_path / "missing").exists()

    def test_divergent_learning_rate_is_numeric_failure(self, tmp_path):
        corpus = gen_corpus(tmp_path / "c.jsonl")
        import numpy as np
        with np.errstate(all="ignore"):
            code = run("train", "--mode", "SIAMESE", "--train", corpus,
                       "--out", tmp_path / "m.ptm",
                       "--d-tok", 8, "--hidden-width", 16, "--d-out", 8,
                       "--epochs", 2, "--pairs", 100,
                       "--learning-rate", 1e200, "--seed", 6)
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize("argv", [
        ("--mode", "SIAMESE", "--learning-rate", "inf", "--pairs", 20),
        ("--mode", "NAIVE", "--learning-rate", "nan", "--batch-size", 64),
    ], ids=["siamese-inf", "naive-nan"])
    def test_non_finite_learning_rate_is_usage_error(self, tmp_path, capsys, argv):
        # 60 examples and 20 pairs: one batch, so a bad step is the last one.
        corpus = gen_corpus(tmp_path / "c.jsonl", per_class=20)
        model = tmp_path / "m.ptm"
        capsys.readouterr()
        assert run("train", "--train", corpus, "--out", model, *argv,
                   "--d-tok", 8, "--hidden-width", 16, "--d-out", 8, "--epochs", 1) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("invalid value: ") and "learning_rate" in err, err
        assert not model.exists()

    @pytest.mark.parametrize("argv", [
        ("gen-pairs", "--same-fraction", 1.0, "--pairs", 20),
        ("train", "--mode", "SIAMESE", "--same-fraction", 0, "--pairs", 20),
    ], ids=["gen-pairs-1.0", "train-0"])
    def test_out_of_range_same_fraction_is_usage_error(self, tmp_path, capsys, argv):
        # The train set does not exist: the flag must fail before any file is read.
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(*argv, "--train", tmp_path / "missing.jsonl", "--out", out) == EXIT_USAGE
        assert_one_line_error(capsys, "--same-fraction", kind="config")
        assert not out.exists()

    @pytest.mark.parametrize("argv,prefix,word", [
        (("gen-pairs", "--pairs", 0), "config error: ", "--pairs"),
        (("gen-pairs", "--pairs-per-dataset", 0), "config error: ", "--pairs-per-dataset"),
        (("train", "--mode", "SIAMESE", "--pairs", -3), "config error: ", "--pairs"),
        (("train", "--mode", "SIAMESE", "--learning-rate", -1), "invalid value: ", "learning_rate"),
        (("train", "--mode", "SIAMESE", "--d-out", 0), "invalid value: ", "d_out"),
        (("train", "--mode", "SIAMESE", "--vectors", "missing.vec", "--hidden-width", 0),
         "invalid value: ", "h must"),
        (("train", "--mode", "NAIVE", "--hidden-dim", 0), "invalid value: ", "hidden_dim"),
        (("train", "--mode", "SIAMESE", "--min-count", 0), "invalid value: ", "min_count"),
        (("build-vocab", "--min-count", 0), "invalid value: ", "min_count"),
        (("gen-pairs", "--train", "missing2.jsonl", "--pairs", 101), "config error: ", "split"),
        (("train", "--mode", "ALL", "--train", "missing2.jsonl", "--pairs", 101),
         "config error: ", "split"),
        (("train", "--mode", "SIAMESE", "--vectors", "a.vec", "--vectors", "b.vec"),
         "config error: ", "--vectors"),
        (("gen-pairs", "--seed", -3), "config error: ", "--seed"),
        (("train", "--mode", "SIAMESE", "--seed", -1), "config error: ", "--seed"),
    ], ids=["gen-pairs-pairs", "gen-pairs-per-dataset", "train-pairs", "train-learning-rate",
            "train-d-out", "train-frozen-hidden-width", "train-hidden-dim", "train-min-count",
            "build-vocab-min-count", "gen-pairs-uneven-pairs", "train-uneven-pairs",
            "train-vectors-count", "gen-pairs-negative-seed", "train-negative-seed"])
    def test_bad_numeric_flag_is_usage_error(self, tmp_path, capsys, argv, prefix, word):
        # The train set does not exist: the flag must fail before any file is read.
        out = tmp_path / "out"
        capsys.readouterr()
        assert run(*argv, "--train", tmp_path / "missing.jsonl", "--out", out) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(prefix) and len(err.splitlines()) == 1 and word in err, err
        assert not out.exists()

    def test_frozen_model_with_vectors_of_another_width_is_data_error(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path / "c.jsonl", classes=3, per_class=5)
        ids = [ex.id for ex in load_corpus(corpus).examples]
        train_vec, test_vec = tmp_path / "train.vec", tmp_path / "test.vec"
        write_vectors(VectorTable(dim=3, entries={i: np.arange(3.0) for i in ids}), train_vec)
        write_vectors(VectorTable(dim=2, entries={i: np.ones(2) for i in ids}), test_vec)
        model, out = tmp_path / "m.ptm", tmp_path / "r.tsv"
        assert run("train", "--mode", "SIAMESE", "--train", corpus, "--vectors", train_vec,
                   "--hidden-width", 4, "--d-out", 3, "--epochs", 1, "--pairs", 20,
                   "--out", model) == EXIT_OK
        capsys.readouterr()
        assert run("eval", "--model", model, "--vectors", test_vec, "--test", corpus,
                   "--n-pairs", 20, "--out", out) == EXIT_DATA
        assert_one_line_error(capsys, test_vec.name, "width 2", "d_in=3")
        assert not out.exists()

    def test_trainable_model_with_vectors_fails_before_they_are_read(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path / "c.jsonl")
        model, out = tmp_path / "m.ptm", tmp_path / "r.tsv"
        assert run("train", "--mode", "SIAMESE", "--train", corpus,
                   "--out", model, *SMALL_TRAIN) == EXIT_OK
        capsys.readouterr()
        assert run("eval", "--model", model, "--vectors", tmp_path / "missing.vec",
                   "--test", corpus, "--n-pairs", 20, "--out", out) == EXIT_USAGE
        assert_one_line_error(capsys, "--vectors", kind="config")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("--mode", "SIAMESE", "--pairs", 20),
        ("--mode", "NAIVE", "--batch-size", 64),
    ], ids=["siamese", "naive"])
    def test_non_finite_last_step_is_numeric_failure(self, tmp_path, capsys, monkeypatch, argv):
        # 60 examples and 20 pairs: one batch, so the poisoned step is the last one.
        import pairtune.training as training
        backward = training.encode_batch_backward

        def inf_gradient(params, fwd, dZ, grad):
            backward(params, fwd, dZ, grad)
            grad.b2[0] = np.inf
            return grad

        monkeypatch.setattr(training, "encode_batch_backward", inf_gradient)
        corpus = gen_corpus(tmp_path / "c.jsonl", per_class=20)
        model = tmp_path / "m.ptm"
        capsys.readouterr()
        with np.errstate(invalid="ignore"):
            code = run("train", "--train", corpus, "--out", model, *argv,
                       "--d-tok", 8, "--hidden-width", 16, "--d-out", 8, "--epochs", 1)
        assert code == EXIT_NUMERIC
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: ") and "encoder parameters" in err, err
        assert not model.exists()

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert run("train", "--mode", "SIAMESE", "--no-such-flag") == EXIT_USAGE

    def test_vocab_with_vectors_is_usage_error(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path / "c.jsonl")
        vectors = tmp_path / "c.vec"
        ids = [ex.id for ex in load_corpus(corpus).examples]
        write_vectors(VectorTable(dim=3, entries={i: np.ones(3) for i in ids}), vectors)
        capsys.readouterr()
        assert run("train", "--mode", "SIAMESE", "--train", corpus, "--vectors", vectors,
                   "--vocab", tmp_path / "no-such-vocab.txt", "--out", tmp_path / "m.ptm",
                   *SMALL_TRAIN) == EXIT_USAGE
        assert_one_line_error(capsys, "--vocab", kind="config")

    def test_naive_with_pairs_in_is_usage_error(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path / "c.jsonl")
        capsys.readouterr()
        assert run("train", "--mode", "NAIVE", "--train", corpus,
                   "--pairs-in", tmp_path / "no-such-pairs.tsv", "--out", tmp_path / "m.ptm",
                   "--d-tok", 8, "--hidden-width", 16, "--d-out", 8, "--epochs", 1) == EXIT_USAGE
        assert_one_line_error(capsys, "--pairs-in", kind="config")

    @pytest.mark.parametrize("argv,word", [
        (("--mode", "NAIVE", "--pairs", 100), "NAIVE"),
        (("--mode", "NAIVE", "--pairs-per-dataset", 100), "NAIVE"),
        (("--mode", "SIAMESE", "--pairs-in", "missing.tsv", "--pairs", 100), "--pairs-in"),
        (("--mode", "ALL", "--pairs-in", "missing.tsv", "--pairs-per-dataset", 50), "--pairs-in"),
    ], ids=["naive-pairs", "naive-pairs-per-dataset", "replay-pairs", "replay-pairs-per-dataset"])
    def test_pair_count_that_samples_nothing_is_usage_error(self, tmp_path, capsys, argv, word):
        # The train set does not exist: the flag must fail before any file is read.
        out = tmp_path / "m.ptm"
        capsys.readouterr()
        code = run("train", "--train", tmp_path / "missing.jsonl", *argv, "--out", out)
        assert code == EXIT_USAGE
        assert_one_line_error(capsys, f"{argv[-2]} does not apply", word, kind="config")
        assert not out.exists()


class TestEvalCommand:
    def test_one_model_two_test_sets(self, tmp_path):
        train = gen_corpus(tmp_path / "train.jsonl", seed=1)
        t1 = gen_corpus(tmp_path / "t1.jsonl", seed=2)
        t2 = gen_corpus(tmp_path / "t2.jsonl", seed=3)
        model = tmp_path / "m.ptm"
        assert run("train", "--mode", "SIAMESE", "--train", train,
                   "--out", model, *SMALL_TRAIN) == EXIT_OK
        report = tmp_path / "r.tsv"
        assert run("eval", "--model", model, "--test", t1, "--test", t2,
                   "--n-pairs", 100, "--seed", 7, "--out", report) == EXIT_OK
        rows = parse_report(report)
        assert len(rows) == 2
        assert [r["test_set"] for r in rows] == ["t1", "t2"]

    def test_eval_is_byte_deterministic(self, tmp_path):
        train = gen_corpus(tmp_path / "train.jsonl", seed=1)
        model = tmp_path / "m.ptm"
        assert run("train", "--mode", "SIAMESE", "--train", train,
                   "--out", model, *SMALL_TRAIN) == EXIT_OK
        r1, r2 = tmp_path / "r1.tsv", tmp_path / "r2.tsv"
        for out in (r1, r2):
            assert run("eval", "--model", model, "--test", train,
                       "--n-pairs", 120, "--seed", 8, "--out", out) == EXIT_OK
        assert r1.read_bytes() == r2.read_bytes()

    def test_orig_over_identical_vectors_gives_zero_delta(self, tmp_path):
        test = gen_corpus(tmp_path / "t.jsonl", classes=3, per_class=5)
        corpus = load_corpus(test)
        vec_path = tmp_path / "v.tsv"
        with open(vec_path, "w") as f:
            f.write("dim=4\n")
            for ex in corpus.examples:
                f.write(f"{ex.id}\t3\t4\t0\t0\n")
        report = tmp_path / "r.tsv"
        assert run("eval", "--orig", "--vectors", vec_path, "--test", test,
                   "--n-pairs", 100, "--seed", 9, "--out", report) == EXIT_OK
        rows = parse_report(report)
        assert rows[0]["model"] == "ORIG"
        assert rows[0]["delta"] == 0.0

    def test_one_vector_file_serves_every_test_set(self, tmp_path, monkeypatch):
        tests = [gen_corpus(tmp_path / f"t{i}.jsonl", classes=3, per_class=8, seed=i) for i in (1, 2)]
        ids = [[ex.id for ex in load_corpus(test).examples] for test in tests]
        rng = np.random.default_rng(0)
        entries = {i: rng.normal(size=4) for i in dict.fromkeys(ids[0] + ids[1])}
        shared = tmp_path / "shared.vec"
        write_vectors(VectorTable(dim=4, entries=entries), shared)
        per_set = []
        for test, test_ids in zip(tests, ids):
            path = test.with_suffix(".vec")
            write_vectors(VectorTable(dim=4, entries={i: entries[i] for i in test_ids}), path)
            per_set += ["--test", test, "--vectors", path]
        loads = []
        load_vectors = pairtune.cli.load_vectors

        def counting_load_vectors(path):
            loads.append(path)
            return load_vectors(path)

        monkeypatch.setattr(pairtune.cli, "load_vectors", counting_load_vectors)
        argv = ("eval", "--orig", "--n-pairs", 100, "--seed", 4)
        one, many = tmp_path / "one.tsv", tmp_path / "many.tsv"
        assert run(*argv, "--test", tests[0], "--test", tests[1], "--vectors", shared,
                   "--out", one) == EXIT_OK
        assert loads == [str(shared)]
        assert run(*argv, *per_set, "--out", many) == EXIT_OK
        assert len(parse_report(one)) == 2
        assert one.read_bytes() == many.read_bytes()

    def test_orig_without_vectors_is_usage_error(self, tmp_path):
        test = gen_corpus(tmp_path / "t.jsonl")
        assert run("eval", "--orig", "--test", test,
                   "--out", tmp_path / "r.tsv") == EXIT_USAGE

    @pytest.mark.parametrize("argv,prefix,word", [
        (("--same-fraction", 0), "config error: ", "--same-fraction"),
        (("--same-fraction", 1.5), "config error: ", "--same-fraction"),
        (("--n-pairs", 1), "invalid value: ", "n_pairs"),
        (("--hidden-width", 0), "invalid value: ", "h must"),
        (("--d-out", 0), "invalid value: ", "d_out"),
        (("--model-name", "a\tb"), "config error: ", "--model-name"),
        (("--model-name", "a\nb"), "config error: ", "--model-name"),
        (("--vectors", "missing2.vec"), "config error: ", "--vectors"),
        (("--n-pairs", 2, "--same-fraction", 0.1), "invalid value: ", "n_pairs"),
        (("--n-pairs", 2, "--same-fraction", 0.9), "invalid value: ", "n_pairs"),
        (("--hidden-width", 3), "config error: ", "--hidden-width"),
        (("--seed", -4), "config error: ", "--seed"),
    ], ids=["same-fraction-0", "same-fraction-1.5", "n-pairs-1", "hidden-width-0", "d-out-0",
            "model-name-tab", "model-name-newline", "vectors-count", "no-same-pair",
            "no-diff-pair", "hidden-width-without-d-out", "negative-seed"])
    def test_bad_flag_fails_before_any_file_is_read(self, tmp_path, capsys, argv, prefix, word):
        out = tmp_path / "r.tsv"
        capsys.readouterr()
        assert run("eval", "--orig", "--vectors", tmp_path / "missing.vec",
                   "--test", tmp_path / "missing.jsonl", *argv, "--out", out) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(prefix) and len(err.splitlines()) == 1 and word in err, err
        assert not out.exists()

    def test_hidden_width_of_an_identity_orig_is_refused(self, tmp_path, capsys):
        # With --d-out equal to the vectors' width, ORIG is the identity and
        # has no hidden width to set; any other --d-out takes the flag.
        test = gen_corpus(tmp_path / "t.jsonl", classes=3, per_class=5)
        ids = [ex.id for ex in load_corpus(test).examples]
        rng = np.random.default_rng(2)
        vec = tmp_path / "v.vec"
        write_vectors(VectorTable(dim=4, entries={i: rng.normal(size=4) for i in ids}), vec)
        argv = ("eval", "--orig", "--test", test, "--vectors", vec, "--hidden-width", 3)
        out = tmp_path / "r.tsv"
        capsys.readouterr()
        assert run(*argv, "--d-out", 4, "--out", out) == EXIT_USAGE
        assert_one_line_error(capsys, "--hidden-width", "width 4", kind="config")
        assert not out.exists()
        assert run(*argv, "--d-out", 5, "--out", out) == EXIT_OK

    @pytest.mark.parametrize("argv,prefix,word", [
        (("--same-fraction", 0), "config error: ", "--same-fraction"),
        (("--n-pairs", 1), "invalid value: ", "n_pairs"),
        (("--model-name", "a\tb"), "config error: ", "--model-name"),
        (("--vectors", "a.vec", "--vectors", "b.vec"), "config error: ", "--vectors"),
        (("--d-out", 7), "config error: ", "--d-out"),
        (("--hidden-width", 3), "config error: ", "--hidden-width"),
        (("--seed", -4), "config error: ", "--seed"),
    ], ids=["same-fraction-0", "n-pairs-1", "model-name-tab", "vectors-count", "d-out",
            "hidden-width", "negative-seed"])
    def test_bad_model_flag_fails_before_any_file_is_read(self, tmp_path, capsys, argv, prefix,
                                                          word):
        # --d-out and --hidden-width shape only --orig's surrogate; a model sets its own.
        out = tmp_path / "r.tsv"
        capsys.readouterr()
        assert run("eval", "--model", tmp_path / "missing.ptm",
                   "--test", tmp_path / "missing.jsonl", *argv, "--out", out) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(prefix) and len(err.splitlines()) == 1 and word in err, err
        assert not out.exists()

    def test_frozen_model_with_vectors_of_another_width_is_data_error(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path / "c.jsonl", classes=3, per_class=5)
        ids = [ex.id for ex in load_corpus(corpus).examples]
        train_vec, test_vec = tmp_path / "train.vec", tmp_path / "test.vec"
        write_vectors(VectorTable(dim=3, entries={i: np.arange(3.0) for i in ids}), train_vec)
        write_vectors(VectorTable(dim=2, entries={i: np.ones(2) for i in ids}), test_vec)
        model, out = tmp_path / "m.ptm", tmp_path / "r.tsv"
        assert run("train", "--mode", "SIAMESE", "--train", corpus, "--vectors", train_vec,
                   "--hidden-width", 4, "--d-out", 3, "--epochs", 1, "--pairs", 20,
                   "--out", model) == EXIT_OK
        capsys.readouterr()
        assert run("eval", "--model", model, "--vectors", test_vec, "--test", corpus,
                   "--n-pairs", 20, "--out", out) == EXIT_DATA
        assert_one_line_error(capsys, test_vec.name, "width 2", "d_in=3")
        assert not out.exists()

    def test_trainable_model_with_vectors_fails_before_they_are_read(self, tmp_path, capsys):
        corpus = gen_corpus(tmp_path / "c.jsonl")
        model, out = tmp_path / "m.ptm", tmp_path / "r.tsv"
        assert run("train", "--mode", "SIAMESE", "--train", corpus,
                   "--out", model, *SMALL_TRAIN) == EXIT_OK
        capsys.readouterr()
        assert run("eval", "--model", model, "--vectors", tmp_path / "missing.vec",
                   "--test", corpus, "--n-pairs", 20, "--out", out) == EXIT_USAGE
        assert_one_line_error(capsys, "--vectors", kind="config")
        assert not out.exists()


def rewrite_model(path, edit_header=None, edit_payload=None):
    """Rewrite a saved .ptm file through header and payload edit functions."""
    magic, header, payload = path.read_bytes().split(b"\n", 2)
    fields = json.loads(header)
    if edit_header is not None:
        edit_header(fields)
    if edit_payload is not None:
        payload = edit_payload(payload)
    path.write_bytes(magic + b"\n" + json.dumps(fields).encode() + b"\n" + payload)


def assert_one_line_error(capsys, *words, kind="data"):
    err = capsys.readouterr().err
    assert err.startswith(f"{kind} error: ") and len(err.splitlines()) == 1, err
    for word in words:
        assert word in err


class TestMalformedInputs:
    def train_model(self, tmp_path, *extra):
        corpus = gen_corpus(tmp_path / "c.jsonl")
        model = tmp_path / "m.ptm"
        assert run("train", "--mode", "SIAMESE", "--train", corpus,
                   "--out", model, *SMALL_TRAIN, *extra) == EXIT_OK
        return corpus, model

    def eval_model(self, tmp_path, corpus, model):
        return run("eval", "--model", model, "--test", corpus,
                   "--n-pairs", 50, "--out", tmp_path / "r.tsv")

    @pytest.mark.parametrize("edit, words", [
        (lambda h: h.pop("mode"), ["missing mode"]),
        (lambda h: h.update(vocab=5), ["list of strings"]),
        (lambda h: h.update(vocab="abc"), ["list of strings"]),
        (lambda h: h.update(min_count="x"), ["min_count"]),
    ], ids=["missing-mode", "vocab-not-a-list", "vocab-a-string", "non-integer-min_count"])
    def test_bad_model_header_is_data_error(self, tmp_path, capsys, edit, words):
        corpus, model = self.train_model(tmp_path)
        rewrite_model(model, edit_header=edit)
        capsys.readouterr()
        assert self.eval_model(tmp_path, corpus, model) == EXIT_DATA
        assert_one_line_error(capsys, *words)

    def test_text_model_with_non_numeric_value_is_data_error(self, tmp_path, capsys):
        corpus, model = self.train_model(tmp_path, "--format", "text")
        rewrite_model(model, edit_payload=lambda b: b"oops " + b.split(b" ", 1)[1])
        capsys.readouterr()
        assert self.eval_model(tmp_path, corpus, model) == EXIT_DATA
        assert_one_line_error(capsys, "non-numeric value in parameter 'E'")

    @pytest.mark.parametrize("edit, word", [
        (lambda lines: ["min_count=x\n"] + lines[1:], "min_count"),
        (lambda lines: ["min_count=0\n"] + lines[1:], "min_count"),
        (lambda lines: lines[:2] + [lines[3]] + lines[3:], "repeats a token"),
    ], ids=["non-integer-min_count", "zero-min_count", "repeated-token"])
    def test_bad_vocab_file_is_data_error(self, tmp_path, capsys, edit, word):
        corpus = gen_corpus(tmp_path / "c.jsonl")
        vocab = tmp_path / "vocab.txt"
        assert run("build-vocab", "--train", corpus, "--out", vocab) == EXIT_OK
        vocab.write_text("".join(edit(vocab.read_text().splitlines(keepends=True))))
        capsys.readouterr()
        assert run("train", "--mode", "SIAMESE", "--train", corpus, "--vocab", vocab,
                   "--out", tmp_path / "m.ptm", *SMALL_TRAIN) == EXIT_DATA
        assert_one_line_error(capsys, word)

    @pytest.mark.parametrize("damaged", ["corpus", "vectors", "vocab", "pairs", "empty-pairs"])
    def test_undecodable_or_empty_input_is_data_error(self, tmp_path, capsys, damaged):
        corpus = gen_corpus(tmp_path / "c.jsonl", classes=3, per_class=5)
        vectors = tmp_path / "v.tsv"
        ids = [ex.id for ex in load_corpus(corpus).examples]
        write_vectors(VectorTable(dim=2, entries={i: np.ones(2) for i in ids}), vectors)
        vocab = tmp_path / "vocab.txt"
        assert run("build-vocab", "--train", corpus, "--out", vocab) == EXIT_OK
        pairs = tmp_path / "pairs.tsv"
        assert run("gen-pairs", "--train", corpus, "--pairs", 20, "--out", pairs) == EXIT_OK
        flags = {
            "corpus": (corpus, []),
            "vectors": (vectors, ["--vectors", vectors]),
            "vocab": (vocab, ["--vocab", vocab]),
            "pairs": (pairs, ["--pairs-in", pairs]),
            "empty-pairs": (pairs, ["--pairs-in", pairs]),
        }
        path, extra = flags[damaged]
        blob = path.read_bytes()
        path.write_bytes(b"" if damaged == "empty-pairs" else blob[:20] + b"\xff" + blob[20:])
        small = SMALL_REPLAY if damaged.endswith("pairs") else SMALL_TRAIN
        capsys.readouterr()
        assert run("train", "--mode", "SIAMESE", "--train", corpus, *extra,
                   "--out", tmp_path / "m.ptm", *small) == EXIT_DATA
        assert_one_line_error(capsys, path.name)


def run_with_blas_threads(threads, *argv):
    """Run ``python -m pairtune ARGV`` in a fresh process with OPENBLAS_NUM_THREADS set."""
    src = str(Path(pairtune.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-m", "pairtune", *map(str, argv)],
                   env=env, check=True, capture_output=True)


def test_model_bytes_do_not_depend_on_blas_thread_count(tmp_path):
    # The determinism contract covers the OpenBLAS thread count: the batched
    # kernel's matrix products are large enough (64 x 64 x 512) for OpenBLAS
    # to split them across two threads, and the model must not change.
    corpus = gen_corpus(tmp_path / "c.jsonl")
    models = []
    for threads in ("1", "2"):
        out = tmp_path / f"m{threads}.ptm"
        run_with_blas_threads(threads, "train", "--mode", "SIAMESE", "--train", corpus,
                              "--out", out, "--d-tok", 16, "--hidden-width", 64, "--d-out", 512,
                              "--epochs", 2, "--pairs", 512, "--seed", 3)
        models.append(out.read_bytes())
    assert models[0] == models[1]


def test_eval_report_does_not_depend_on_blas_thread_count(tmp_path):
    # Eval embeds in 64-row chunks. With d_out above h + 1 its rows are h + 1
    # wide, so at 16/64/512 the last layer's product is only 64 x 64 x 65;
    # the frozen 512/64/512 model's first layer (64 x 512 x 64) is large
    # enough for OpenBLAS to split across threads.
    corpus = gen_corpus(tmp_path / "c.jsonl", classes=4, per_class=100)
    loaded = load_corpus(corpus)
    config = EncoderConfig(mode=TRAINABLE, d_tok=16, h=64, d_out=512)
    vocab = build_vocab(loaded)
    params = init_encoder_params(config, vocab_size=vocab.size, seed=2)
    save_model(tmp_path / "m.ptm", params, vocab)
    frozen = EncoderConfig(mode=FROZEN_PROJECTION, d_in=512, h=64, d_out=512)
    save_model(tmp_path / "f.ptm", init_encoder_params(frozen, seed=2))
    rng = np.random.default_rng(3)
    entries = {ex.id: rng.normal(size=512) for ex in loaded.examples}
    write_vectors(VectorTable(dim=512, entries=entries), tmp_path / "f.vec")
    for name, extra in (("m", []), ("f", ["--vectors", tmp_path / "f.vec"])):
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"{name}{threads}.tsv"
            run_with_blas_threads(threads, "eval", "--model", tmp_path / f"{name}.ptm", *extra,
                                  "--test", corpus, "--n-pairs", 3000, "--seed", 4, "--out", out)
            reports.append(out.read_bytes())
        assert reports[0] == reports[1], name


def experiment_config(tmp_path, **overrides):
    train = gen_corpus(tmp_path / "train.jsonl", classes=4, per_class=40, groups=4, seed=1)
    t1 = gen_corpus(tmp_path / "t1.jsonl", classes=4, per_class=15, groups=4, seed=2)
    t2 = gen_corpus(tmp_path / "t2.jsonl", classes=4, per_class=15, groups=4, seed=3)
    cfg = {
        "name": "tiny",
        "train_sets": [str(train)],
        "test_sets": [str(t1), str(t2)],
        "models": ["ORIG", "NAIVE", "SIAMESE", "ALL"],
        "seed": 5,
        "out_dir": str(tmp_path / "run"),
        "encoder": {"d_tok": 8, "h": 16, "d_out": 8},
        "siamese": {"epochs": 2},
        "naive": {"epochs": 2, "hidden_dim": 16},
        "episodes": {"siamese_pairs": 200, "all_pairs_per_dataset": 100},
        "eval": {"n_pairs": 100},
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


class TestExperimentCommand:
    def test_four_models_two_test_sets_eight_rows(self, tmp_path):
        config, cfg = experiment_config(tmp_path)
        assert run("experiment", "--config", config) == EXIT_OK
        out_dir = tmp_path / "run"
        rows = parse_report(out_dir / "consolidated.tsv")
        assert len(rows) == 8
        assert [r["model"] for r in rows] == [
            "ORIG", "ORIG", "NAIVE", "NAIVE", "SIAMESE", "SIAMESE", "ALL", "ALL",
        ]
        for model in cfg["models"]:
            assert (out_dir / f"{model}.ptm").exists()
        assert not (out_dir / "INCOMPLETE").exists()
        metadata = json.loads((out_dir / "metadata.json").read_text())
        assert "untrained surrogate" in metadata["orig_note"]

    def test_rerun_reproduces_outputs_byte_for_byte(self, tmp_path):
        config, cfg = experiment_config(tmp_path)
        assert run("experiment", "--config", config) == EXIT_OK
        out_dir = tmp_path / "run"
        snapshot = {
            p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
        }
        assert run("experiment", "--config", config) == EXIT_OK
        for p in sorted(out_dir.iterdir()):
            assert p.read_bytes() == snapshot[p.name], p.name

    def test_each_test_example_is_tokenized_once(self, tmp_path, monkeypatch):
        config, cfg = experiment_config(tmp_path)
        # A marker token makes every test text distinct from every other text.
        tests = []
        for path in cfg["test_sets"]:
            corpus = load_corpus(path)
            examples = [replace(ex, text=f"{ex.text} {ex.dataset_id}-{ex.id}")
                        for ex in corpus.examples]
            tests.append(Corpus.from_examples(corpus.dataset_id, examples))
            write_corpus(tests[-1], path)
        calls = Counter()
        tokenize = pairtune.encoder.tokenize

        def counting_tokenize(text):
            calls[text] += 1
            return tokenize(text)

        monkeypatch.setattr(pairtune.encoder, "tokenize", counting_tokenize)
        run_experiment(load_experiment_config(config))
        texts = [ex.text for test in tests for ex in test.examples]
        assert len(cfg["models"]) == 4 and len(tests) == 2
        assert [calls[t] for t in texts] == [1] * len(texts)
        assert len(parse_report(tmp_path / "run" / "consolidated.tsv")) == 8

    def test_run_prepares_train_inputs_once_and_draws_eval_pairs_once_per_test_set(
        self, tmp_path, monkeypatch
    ):
        # Every variant trains on one table, and every model is scored on each
        # test set's one draw of eval pairs.
        config, cfg = experiment_config(tmp_path)
        prepared = Counter()
        make_input_fn = pairtune.cli.make_input_fn

        def counting_make_input_fn(*args):
            prepare = make_input_fn(*args)

            def counting_prepare(examples):
                prepared.update((ex.dataset_id, ex.id) for ex in examples)
                return prepare(examples)

            return counting_prepare

        draws = []
        generate_episodes = pairtune.evaluation.generate_episodes

        def counting_generate_episodes(corpora, spec):
            draws.append(dict(spec.quotas))
            return generate_episodes(corpora, spec)

        monkeypatch.setattr(pairtune.cli, "make_input_fn", counting_make_input_fn)
        monkeypatch.setattr(pairtune.evaluation, "generate_episodes", counting_generate_episodes)
        run_experiment(load_experiment_config(config))
        train = load_corpus(cfg["train_sets"][0])
        assert cfg["models"] == ["ORIG", "NAIVE", "SIAMESE", "ALL"]
        assert [prepared["train", ex.id] for ex in train.examples] == [1] * len(train)
        assert draws == [{"t1": 100}, {"t2": 100}]
        assert len(parse_report(tmp_path / "run" / "consolidated.tsv")) == 8

    def test_empty_models_is_usage_error(self, tmp_path):
        config, _ = experiment_config(tmp_path, models=[])
        assert run("experiment", "--config", config) == EXIT_USAGE

    def test_unknown_config_field_is_usage_error(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"no_such_field": 1}))
        assert run("experiment", "--config", config_path) == EXIT_USAGE

    @pytest.mark.parametrize("section,field,value", [
        ("episodes", "siamese_pairs", 200.0),
        ("episodes", "all_pairs_per_dataset", 100.0),
        ("siamese", "epochs", 2.0),
        ("siamese", "batch_size", "32"),
        ("naive", "epochs", 2.0),
        ("naive", "batch_size", True),
        ("naive", "hidden_dim", 16.0),
        ("eval", "n_pairs", 50.0),
        (None, "seed", 5.0),
        (None, "siamese", 5),
        ("siamese", "learning_rate", "x"),
        ("siamese", "learning_rate", True),
        ("siamese", "target_same", "1"),
        ("episodes", "same_fraction", "x"),
        ("eval", "same_fraction", None),
        (None, "test_sets", [5]),
        (None, "train_sets", "a.jsonl"),
    ])
    def test_mistyped_field_is_config_error(self, tmp_path, capsys, section, field, value):
        config, cfg = experiment_config(tmp_path)
        if section is None:
            cfg[field] = value
        else:
            cfg[section][field] = value
        config.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run("experiment", "--config", config) == EXIT_USAGE
        assert_one_line_error(capsys, field, repr(value), kind="config")

    @pytest.mark.parametrize("section,field,value", [
        ("eval", "n_pairs", 1),
        ("eval", "same_fraction", 1.0),
        ("eval", "same_fraction", 0.001),
        ("eval", "same_fraction", 0.999),
        ("siamese", "learning_rate", -1),
        ("siamese", "learning_rate", float("nan")),
        ("siamese", "target_same", -0.5),
        ("naive", "learning_rate", float("inf")),
        ("naive", "hidden_dim", 0),
        ("episodes", "same_fraction", 1.0),
        ("episodes", "siamese_pairs", 0),
        ("episodes", "all_pairs_per_dataset", 0),
        ("encoder", "d_tok", 0),
        ("encoder", "h", 0),
        ("encoder", "d_out", 0),
        ("encoder", "min_count", 0),
        (None, "seed", -1),
    ])
    def test_bad_section_value_fails_before_training(self, tmp_path, capsys, section, field, value):
        config, cfg = experiment_config(tmp_path)
        (cfg if section is None else cfg[section])[field] = value
        config.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run("experiment", "--config", config) == EXIT_USAGE
        assert_one_line_error(capsys, section or field, kind="config")
        assert not (tmp_path / "run").exists()
        assert not list(tmp_path.rglob("*.ptm"))

    @pytest.mark.parametrize("field", ["h", "d_out"])
    def test_bad_frozen_encoder_width_fails_before_training(self, tmp_path, capsys, field):
        # The vector files do not exist: the value must fail before any file is read.
        config, cfg = experiment_config(
            tmp_path,
            encoder={"mode": "frozen-projection", "h": 16, "d_out": 8, field: 0},
            train_vectors=[str(tmp_path / "train.vec")],
            test_vectors=[str(tmp_path / "t1.vec"), str(tmp_path / "t2.vec")],
        )
        capsys.readouterr()
        assert run("experiment", "--config", config) == EXIT_USAGE
        assert_one_line_error(capsys, "encoder", field, kind="config")
        assert not (tmp_path / "run").exists()

    def test_encoder_d_in_is_config_error(self, tmp_path, capsys):
        config, cfg = experiment_config(tmp_path)
        cfg["encoder"]["d_in"] = 99
        config.write_text(json.dumps(cfg))
        capsys.readouterr()
        assert run("experiment", "--config", config) == EXIT_USAGE
        assert_one_line_error(capsys, "encoder.d_in", kind="config")

    def test_missing_train_set_is_data_error(self, tmp_path):
        config, _ = experiment_config(tmp_path, train_sets=[str(tmp_path / "gone.jsonl")])
        assert run("experiment", "--config", config) == EXIT_DATA

    def test_failed_run_leaves_incomplete_marker(self, tmp_path):
        config, cfg = experiment_config(tmp_path, train_sets=[str(tmp_path / "gone.jsonl")])
        assert run("experiment", "--config", config) == EXIT_DATA
        marker = tmp_path / "run" / "INCOMPLETE"
        assert marker.exists()
        assert "failed" in marker.read_text()


@pytest.mark.parametrize("frozen", [False, True], ids=["trainable", "frozen"])
def test_train_command_matches_experiment_variants(tmp_path, frozen):
    config, cfg = experiment_config(tmp_path, seed=7, models=["NAIVE", "SIAMESE", "ALL"])
    vectors = []
    if frozen:
        paths = cfg["train_sets"] + cfg["test_sets"]
        vec = [str(vector_file(Path(p).with_suffix(".vec"), p)) for p in paths]
        cfg.update(encoder={"mode": "frozen-projection", "h": 16, "d_out": 8},
                   train_vectors=vec[:1], test_vectors=vec[1:])
        config.write_text(json.dumps(cfg))
        vectors = ["--vectors", vec[0]]
    assert run("experiment", "--config", config) == EXIT_OK
    run_dir = tmp_path / "run"
    quota_flags = {
        "NAIVE": ["--hidden-dim", 16],
        "SIAMESE": ["--pairs", 200],
        "ALL": ["--pairs-per-dataset", 100],
    }
    for mode, extra in quota_flags.items():
        model, curve = tmp_path / f"{mode}.ptm", tmp_path / f"{mode}.losses.tsv"
        assert run("train", "--mode", mode, "--train", cfg["train_sets"][0], *vectors,
                   "--d-tok", 8, "--hidden-width", 16, "--d-out", 8, "--epochs", 2,
                   "--seed", 7, *extra, "--out", model, "--loss-curve", curve) == EXIT_OK
        assert model.read_bytes() == (run_dir / model.name).read_bytes(), mode
        assert curve.read_bytes() == (run_dir / curve.name).read_bytes(), mode


def test_eval_orig_matches_experiment_orig_rows(tmp_path):
    tests = [gen_corpus(tmp_path / f"t{i}.jsonl", classes=3, per_class=8, seed=i) for i in (1, 2)]
    rng = np.random.default_rng(0)
    vectors = []
    for test in tests:
        path = test.with_suffix(".vec")
        ids = [ex.id for ex in load_corpus(test).examples]
        write_vectors(VectorTable(dim=4, entries={i: rng.normal(size=4) for i in ids}), path)
        vectors.append(path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "test_sets": [str(t) for t in tests],
        "test_vectors": [str(v) for v in vectors],
        "models": ["ORIG"],
        "seed": 3,
        "out_dir": str(tmp_path / "run"),
        "encoder": {"mode": "frozen-projection", "d_out": 4},
        "eval": {"n_pairs": 200},
    }))
    assert run("experiment", "--config", config) == EXIT_OK
    report = tmp_path / "orig.tsv"
    argv = ["eval", "--orig", "--n-pairs", 200, "--seed", 3 + SEED_EVAL, "--out", report]
    for test, vec in zip(tests, vectors):
        argv += ["--test", test, "--vectors", vec]
    assert run(*argv) == EXIT_OK
    assert report.read_bytes() == (tmp_path / "run" / "consolidated.tsv").read_bytes()



def test_frozen_experiment_rows_match_standalone_eval_of_each_model(tmp_path):
    # d_out equals the vectors' width, so ORIG is the identity projection,
    # scored on its input vectors; planted zeros of both signs test that.
    config, cfg = experiment_config(tmp_path, seed=2)
    rng = np.random.default_rng(1)
    vectors = []
    for path in cfg["train_sets"] + cfg["test_sets"]:
        ids = [ex.id for ex in load_corpus(path).examples]
        X = rng.normal(size=(len(ids), 6))
        X[rng.random(X.shape) < 0.2] = 0.0
        X[rng.random(X.shape) < 0.2] = -0.0
        vectors.append(str(Path(path).with_suffix(".vec")))
        write_vectors(VectorTable(dim=6, entries=dict(zip(ids, X))), vectors[-1])
    cfg.update(encoder={"mode": "frozen-projection", "h": 16, "d_out": 6},
               train_vectors=vectors[:1], test_vectors=vectors[1:])
    config.write_text(json.dumps(cfg))
    assert run("experiment", "--config", config) == EXIT_OK
    run_dir = tmp_path / "run"
    consolidated = (run_dir / "consolidated.tsv").read_text().splitlines(keepends=True)
    standalone = consolidated[:1]
    for model in cfg["models"]:
        report = tmp_path / f"eval-{model}.tsv"
        argv = ["eval", "--model", run_dir / f"{model}.ptm", "--model-name", model,
                "--n-pairs", 100, "--seed", cfg["seed"] + SEED_EVAL, "--out", report]
        for test, vec in zip(cfg["test_sets"], vectors[1:]):
            argv += ["--test", test, "--vectors", vec]
        assert run(*argv) == EXIT_OK
        standalone += report.read_text().splitlines(keepends=True)[1:]
    assert standalone == consolidated

def vector_file(path, corpus_path, drop=None):
    """Write 3-d vectors for every example of a corpus file except ``drop``."""
    ids = [ex.id for ex in load_corpus(corpus_path).examples if ex.id != drop]
    rng = np.random.default_rng(len(ids))
    write_vectors(VectorTable(dim=3, entries={i: rng.normal(size=3) for i in ids}), path)
    return path


@pytest.mark.parametrize("command", ["experiment", "train", "eval"])
def test_missing_vector_fails_before_any_output(tmp_path, capsys, command):
    train = gen_corpus(tmp_path / "train.jsonl", per_class=10, seed=1)
    test = gen_corpus(tmp_path / "test.jsonl", per_class=6, seed=2)
    short = train if command == "train" else test  # the corpus whose vector file lacks one id
    missing = load_corpus(short).examples[-1].id
    train_vec = vector_file(tmp_path / "train.vec", train, drop=missing if short == train else None)
    test_vec = vector_file(tmp_path / "test.vec", test, drop=missing if short == test else None)
    out = tmp_path / "out"
    out.mkdir()
    argv = {
        "train": ("train", "--mode", "SIAMESE", "--train", train, "--vectors", train_vec,
                  "--out", out / "m.ptm", "--hidden-width", 4, "--d-out", 3,
                  "--epochs", 1, "--pairs", 20),
        "eval": ("eval", "--orig", "--test", test, "--vectors", test_vec,
                 "--n-pairs", 20, "--out", out / "r.tsv"),
    }
    if command == "experiment":
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "train_sets": [str(train)], "test_sets": [str(test)],
            "train_vectors": [str(train_vec)], "test_vectors": [str(test_vec)],
            "out_dir": str(out), "encoder": {"mode": "frozen-projection", "h": 4, "d_out": 3},
            "siamese": {"epochs": 1}, "naive": {"epochs": 1, "hidden_dim": 4},
            "episodes": {"siamese_pairs": 20, "all_pairs_per_dataset": 20},
            "eval": {"n_pairs": 20},
        }))
        argv[command] = ("experiment", "--config", config)
    capsys.readouterr()
    assert run(*argv[command]) == EXIT_DATA
    assert_one_line_error(capsys, f"no vector for example id '{missing}'",
                          short.with_suffix(".vec").name)
    assert not list(out.glob("*.ptm")) and not list(out.glob("*.tsv"))


@pytest.mark.parametrize("command, flag", [
    ("gen-synthetic", "--out"), ("gen-synthetic", "--test-out"), ("build-vocab", "--out"),
    ("gen-pairs", "--out"), ("train", "--out"), ("train", "--loss-curve"), ("eval", "--out"),
])
def test_missing_output_directory_fails_before_any_input_is_read(tmp_path, capsys, command, flag):
    # The inputs do not exist either: a command that read them first would
    # fail on them, and one that wrote an earlier output would leave it.
    nope, out = tmp_path / "nope.jsonl", tmp_path / "out.tsv"
    synthetic = ("--classes", 3, "--examples-per-class", 5, "--groups", 3)
    argv = {
        ("gen-synthetic", "--out"): synthetic,
        ("gen-synthetic", "--test-out"): ("--out", out, "--test-fraction", 0.2, *synthetic),
        ("build-vocab", "--out"): ("--train", nope),
        ("gen-pairs", "--out"): ("--train", nope),
        ("train", "--out"): ("--mode", "SIAMESE", "--train", nope),
        ("train", "--loss-curve"): ("--mode", "SIAMESE", "--train", nope, "--out", out),
        ("eval", "--out"): ("--orig", "--test", nope, "--vectors", tmp_path / "nope.vec"),
    }[command, flag]
    missing = tmp_path / "missing" / "x.tsv"
    capsys.readouterr()
    assert run(command, *argv, flag, missing) == EXIT_DATA
    assert_one_line_error(capsys, f"'{missing}'", kind="i/o")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["gen-synthetic", "experiment"])
def test_negative_seed_flag_fails_before_any_file_is_read(tmp_path, capsys, command):
    # gen-pairs, train and eval have their cases in their commands' flag tests.
    argv = {
        "gen-synthetic": ("--out", tmp_path / "c.jsonl", "--classes", 3,
                          "--examples-per-class", 5, "--groups", 3),
        "experiment": ("--config", tmp_path / "missing.json", "--out-dir", tmp_path / "run"),
    }[command]
    capsys.readouterr()
    assert run(command, *argv, "--seed", -2) == EXIT_USAGE
    assert_one_line_error(capsys, "--seed must be >= 0, got -2", kind="config")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["eval", "gen-synthetic"])
def test_config_error_comes_before_missing_output_directory(tmp_path, capsys, command):
    # The flags are checked first (exit 1); only then the output directories.
    missing = tmp_path / "missing" / "x.tsv"
    argv = {
        "eval": ("--model", tmp_path / "m.ptm", "--test", tmp_path / "t.jsonl", "--d-out", 7,
                 "--out", missing),
        "gen-synthetic": ("--out", tmp_path / "c.jsonl", "--test-out", missing,
                          "--classes", 3, "--examples-per-class", 5, "--groups", 3),
    }[command]
    capsys.readouterr()
    assert run(command, *argv) == EXIT_USAGE
    assert_one_line_error(capsys, kind="config")
    assert list(tmp_path.iterdir()) == []


class _InterruptedFile:
    """A file whose first write lands on disk and then raises."""

    def __init__(self, f):
        self._f = f

    def write(self, data):
        self._f.write(data)
        self._f.flush()
        raise RuntimeError("interrupted write")

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


def _writers(tmp_path):
    """Each output writer as (file name, function writing that file into a directory)."""
    corpus_path = gen_corpus(tmp_path / "c.jsonl", classes=3, per_class=5)
    corpus = load_corpus(corpus_path)
    pairs = generate_episodes(corpus, EpisodeSpec(quotas={"c": 10}, seed=1))
    report = DeltaReport(10, 5, 5, 0.1, 0.2, 0.01, 0.01, 0.1)
    config = EncoderConfig(mode=TRAINABLE, d_tok=2, h=2, d_out=2)
    vocab = build_vocab(corpus)
    params = init_encoder_params(config, vocab_size=vocab.size, seed=0)
    table = VectorTable(dim=2, entries={"a": np.ones(2), "b": np.zeros(2)})
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "test_sets": [str(corpus_path)],
        "test_vectors": [str(vector_file(tmp_path / "c.vec", corpus_path))],
        "models": ["ORIG"], "encoder": {"mode": "frozen-projection", "d_out": 3},
        "eval": {"n_pairs": 20},
    }))

    def orig_experiment(out_dir):
        run_experiment(dict(load_experiment_config(config_path), out_dir=str(out_dir)))

    return {
        "vectors": ("v.vec", lambda d: write_vectors(table, d / "v.vec")),
        "corpus-jsonl": ("c.jsonl", lambda d: write_corpus(corpus, d / "c.jsonl")),
        "corpus-tsv": ("c.tsv", lambda d: write_corpus(corpus, d / "c.tsv")),
        "vocab": ("vocab.txt", lambda d: save_vocab(vocab, d / "vocab.txt")),
        "pairs": ("pairs.tsv", lambda d: write_pairs(pairs, d / "pairs.tsv")),
        "report": ("r.tsv", lambda d: emit_report([("M", "c", report)], d / "r.tsv")),
        "loss-curve": ("l.tsv", lambda d: _write_loss_curve(
            d / "l.tsv", TrainingReport(epoch_losses=[0.5, 0.25]))),
        "model": ("m.ptm", lambda d: save_model(d / "m.ptm", params, vocab)),
        "metadata": ("metadata.json", orig_experiment),
    }


WRITERS = ["vectors", "corpus-jsonl", "corpus-tsv", "vocab", "pairs", "report",
           "loss-curve", "model", "metadata"]


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("writer", WRITERS)
def test_interrupted_writer_leaves_no_partial_file(tmp_path, monkeypatch, writer, existing):
    name, write = _writers(tmp_path)[writer]
    out = tmp_path / "out"
    out.mkdir()
    target = out / name
    if existing:
        target.write_bytes(b"previous contents\n")
    real_open = open

    def interrupting_open(path, mode="r", *args, **kwargs):
        f = real_open(path, mode, *args, **kwargs)
        return _InterruptedFile(f) if "w" in mode and Path(path).name.startswith(f".{name}.") else f

    monkeypatch.setattr(pairtune.corpus, "open", interrupting_open, raising=False)
    with pytest.raises(RuntimeError, match="interrupted write"):
        write(out)
    if existing:
        assert target.read_bytes() == b"previous contents\n"
    else:
        assert not target.exists()
    assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


@pytest.mark.parametrize("writer", [w for w in WRITERS if w != "metadata"])
def test_writer_into_missing_directory_names_the_target(tmp_path, writer):
    # An experiment makes its own output directory; every other writer
    # fails to open its temporary file, and the error names the target.
    name, write = _writers(tmp_path)[writer]
    missing = tmp_path / "missing"
    with pytest.raises(OSError) as err:
        write(missing)
    assert err.value.filename == str(missing / name) and ".tmp" not in str(err.value)
    assert not missing.exists()


class TestDefaults:
    def test_default_config_snapshot(self):
        cfg = default_experiment_config()
        assert cfg["episodes"]["siamese_pairs"] == 70_000
        assert cfg["episodes"]["all_pairs_per_dataset"] == 10_000
        assert cfg["siamese"]["epochs"] == 30
        assert cfg["naive"]["epochs"] == 30
        assert cfg["naive"]["hidden_dim"] == 128
        assert cfg["encoder"]["d_out"] == 512
        assert cfg["eval"]["n_pairs"] == 5_000
