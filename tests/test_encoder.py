import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pairtune.encoder

from pairtune.corpus import CorpusError, VectorTable
from pairtune.encoder import (
    EMBED_CHUNK,
    FROZEN_PROJECTION,
    STORAGE_BINARY,
    STORAGE_TEXT,
    TRAINABLE,
    UNK_TOKEN,
    EncoderConfig,
    EncoderParams,
    Vocabulary,
    build_vocab,
    encode,
    encode_backward,
    encode_batch,
    encode_batch_backward,
    identity_projection,
    init_encoder_params,
    input_table,
    load_model,
    load_vocab,
    make_embedder,
    make_input_fn,
    save_model,
    save_vocab,
    tokenize,
)
from pairtune.synthetic import synthetic_corpus
from pairtune.training import init_head_params

from conftest import finite_difference_gradients, make_corpus, max_relative_error


class TestTokenize:
    def test_edge_punctuation_stripped(self):
        assert tokenize("Flu season, again!") == ["flu", "season", "again"]

    def test_blank_input_yields_unk_surrogate(self):
        assert tokenize("   ") == [UNK_TOKEN]
        assert tokenize("") == [UNK_TOKEN]
        assert tokenize("... !!!") == [UNK_TOKEN]

    def test_mentions_hashtags_urls_kept_whole(self):
        assert tokenize("@user http://t.co/x #flu") == ["@user", "http://t.co/x", "#flu"]

    def test_unicode_whitespace_and_quotes(self):
        assert tokenize("“hello” world…") == ["hello", "world"]


class TestVocabulary:
    def test_min_count_two_keeps_only_repeated(self):
        corpus = make_corpus("d", [("t1", "a b", "x"), ("t2", "a c", "y")])
        vocab = build_vocab(corpus, min_count=2)
        assert vocab.token_to_index == {UNK_TOKEN: 0, "a": 1}

    def test_frequency_then_lexicographic_order(self):
        corpus = make_corpus("d", [("t1", "a b", "x"), ("t2", "a c", "y")])
        vocab = build_vocab(corpus, min_count=1)
        assert vocab.token_to_index == {UNK_TOKEN: 0, "a": 1, "b": 2, "c": 3}

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(counts=st.dictionaries(st.text(alphabet="abc", min_size=1, max_size=3),
                                  st.integers(1, 4), max_size=30),
           min_count=st.integers(1, 3))
    def test_order_is_descending_count_then_token(self, counts, min_count):
        # Few distinct counts over many tokens: most tokens tie on count.
        # Text k holds each token seen more than k times, so a token occurs
        # counts[token] times; a text of only "." is <unk>, which is never kept.
        texts = [" ".join(tok for tok, c in counts.items() if c > k) or "." for k in range(4)]
        corpus = make_corpus("d", [(f"t{k}", text, f"c{k % 2}") for k, text in enumerate(texts)])
        kept = [tok for tok, c in counts.items() if c >= min_count]
        expected = [UNK_TOKEN] + sorted(kept, key=lambda t: (-counts[t], t))
        assert build_vocab(corpus, min_count=min_count).token_list() == expected

    def test_deterministic_across_runs(self):
        corpus = make_corpus("d", [
            ("t1", "red green blue", "x"), ("t2", "blue red cyan", "y"),
        ])
        assert build_vocab(corpus).token_to_index == build_vocab(corpus).token_to_index

    def test_unknown_tokens_map_to_zero(self):
        vocab = Vocabulary(token_to_index={UNK_TOKEN: 0, "a": 1})
        np.testing.assert_array_equal(vocab.lookup(["a", "zzz", "a"]), [1, 0, 1])

    def test_multi_corpus_counts(self):
        c1 = make_corpus("d1", [("t1", "a a", "x"), ("t2", "b", "y")])
        c2 = make_corpus("d2", [("u1", "b", "x"), ("u2", "c", "y")])
        vocab = build_vocab([c1, c2], min_count=2)
        assert set(vocab.token_to_index) == {UNK_TOKEN, "a", "b"}

    def test_save_load_round_trip(self, tmp_path):
        corpus = make_corpus("d", [("t1", "a b c", "x"), ("t2", "a", "y")])
        vocab = build_vocab(corpus)
        save_vocab(vocab, tmp_path / "vocab.txt")
        back = load_vocab(tmp_path / "vocab.txt")
        assert back.token_to_index == vocab.token_to_index
        assert back.min_count == vocab.min_count

    @pytest.mark.parametrize("token", ["a\nb", "c\rd", "e\r\n"])
    def test_save_refuses_a_token_with_a_line_break(self, tmp_path, token):
        # Written as is, the token would load back as several tokens.
        vocab = Vocabulary.from_tokens([UNK_TOKEN, "x", token], 1)
        path = tmp_path / "vocab.txt"
        with pytest.raises(CorpusError, match=re.escape(repr(token))):
            save_vocab(vocab, path)
        assert not path.exists()
        path.write_text("before\n")
        with pytest.raises(CorpusError):
            save_vocab(vocab, path)
        assert path.read_text() == "before\n"


def tiny_trainable(vocab_size=6, d_tok=3, h=4, d_out=3, seed=0):
    config = EncoderConfig(mode=TRAINABLE, d_tok=d_tok, h=h, d_out=d_out)
    return init_encoder_params(config, vocab_size=vocab_size, seed=seed)


def encode_rows(params, xs):
    """``encode_batch`` over the rows packed from per-example inputs ``xs``."""
    return encode_batch(params, input_table(params.config, xs))[0]


def probe_gradients(params, xs, probe):
    """The gradient of sum(probe * Z) for the batch of ``xs``: its analytic
    value from ``encode_batch_backward`` and its finite differences."""
    batch = input_table(params.config, xs)
    _, fwd = encode_batch(params, batch)
    grad = encode_batch_backward(params, fwd, probe, params.zeros_like())

    def loss():
        return float(np.sum(probe * encode_batch(params, batch)[0]))

    return grad.as_dict(), finite_difference_gradients(loss, params.as_dict())


class TestEncodeForward:
    def test_zero_params_give_zero_output(self):
        params = tiny_trainable()
        for arr in params.as_dict().values():
            arr[...] = 0.0
        np.testing.assert_array_equal(encode_rows(params, [[1, 2, 3], [0], [4, 5]]),
                                      np.zeros((3, 3)))

        fconfig = EncoderConfig(mode=FROZEN_PROJECTION, d_in=4, h=3, d_out=2)
        fparams = init_encoder_params(fconfig, seed=0)
        for arr in fparams.as_dict().values():
            arr[...] = 0.0
        np.testing.assert_array_equal(
            encode_rows(fparams, [[1.0, 2.0, 3.0, 4.0], -np.ones(4), np.arange(4.0)]),
            np.zeros((3, 2)),
        )

    def test_single_token_pools_to_its_embedding_row(self):
        # [I; -I] / [I, -I] around the ReLU makes the projection an exact
        # identity, exposing the pooled vector at the output.
        d = 3
        config = EncoderConfig(mode=TRAINABLE, d_tok=d, h=2 * d, d_out=d)
        rng = np.random.default_rng(5)
        eye = np.eye(d)
        params = EncoderParams.zeros(config, vocab_size=7)
        params.E[...] = rng.normal(size=(7, d))
        params.W1[...] = np.vstack([eye, -eye])
        params.W2[...] = np.hstack([eye, -eye])
        Z = encode_rows(params, [[4], [1], [6]])
        np.testing.assert_array_equal(Z, params.E[[4, 1, 6]])

    def test_two_token_forward_matches_straight_line_oracle(self):
        config = EncoderConfig(mode=TRAINABLE, d_tok=2, h=2, d_out=2)
        params = EncoderParams.zeros(config, vocab_size=3)
        params.E[...] = [[0.1, -0.2], [0.3, 0.4], [-0.5, 0.6]]
        params.W1[...] = [[0.2, -0.1], [0.7, 0.4]]
        params.b1[...] = [0.05, -0.3]
        params.W2[...] = [[1.5, -0.6], [0.2, 0.9]]
        params.b2[...] = [-0.1, 0.25]
        tokens = [1, 2]

        # independent straight-line evaluation of the same formula
        m = [0.0, 0.0]
        for t in tokens:
            for k in range(2):
                m[k] += params.E[t][k]
        m = [v / len(tokens) for v in m]
        a = [
            params.W1[0][0] * m[0] + params.W1[0][1] * m[1] + params.b1[0],
            params.W1[1][0] * m[0] + params.W1[1][1] * m[1] + params.b1[1],
        ]
        hid = [max(v, 0.0) for v in a]
        expected = [
            params.W2[0][0] * hid[0] + params.W2[0][1] * hid[1] + params.b2[0],
            params.W2[1][0] * hid[0] + params.W2[1][1] * hid[1] + params.b2[1],
        ]

        Z = encode_rows(params, [tokens, [0], [2, 2, 1]])
        np.testing.assert_allclose(Z[0], expected, rtol=1e-12)

    def test_encode_is_pure(self):
        params = tiny_trainable(seed=3)
        xs = [[0, 2, 5], [1], [4, 4]]
        first = encode_rows(params, xs)
        second = encode_rows(params, xs)
        assert np.array_equal(first, second)

    def test_frozen_dimension_mismatch(self):
        config = EncoderConfig(mode=FROZEN_PROJECTION, d_in=4, h=3, d_out=2)
        params = init_encoder_params(config, seed=1)
        with pytest.raises(ValueError, match="length 4"):
            encode(params, [1.0, 2.0, 3.0])

    def test_frozen_mode_has_no_embedding_table(self):
        config = EncoderConfig(mode=FROZEN_PROJECTION, d_in=2, h=3, d_out=2)
        params = init_encoder_params(config, seed=1)
        assert params.E is None
        assert "E" not in params.as_dict()
        grad = params.zeros_like()
        assert type(grad) is EncoderParams and grad.E is None

    def test_identity_projection_is_exact(self):
        params = identity_projection(5)
        vecs = np.array([[0.3, -1.2, 0.0, 7.5, -0.25], [-2.0, 0.5, 1.5, -0.75, 3.0],
                         [1.0, 1.0, -1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(encode_rows(params, list(vecs)), vecs)


class TestEncodeBackward:
    def test_zero_upstream_leaves_accumulator_unchanged(self):
        params = tiny_trainable(seed=2)
        batch = input_table(params.config, [[1, 4], [0], [2, 2, 5]])
        _, fwd = encode_batch(params, batch)
        grad = encode_batch_backward(params, fwd, np.zeros((3, 3)), params.zeros_like())
        for arr in grad.as_dict().values():
            assert not arr.any()

    def test_scalar_probe_matches_finite_differences_trainable(self):
        params = tiny_trainable(seed=7)
        rng = np.random.default_rng(11)
        xs = [[0, 3, 3, 5], [1], [2, 4]]
        probe = rng.normal(size=(len(xs), params.config.d_out))
        analytic, numeric = probe_gradients(params, xs, probe)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_scalar_probe_matches_finite_differences_frozen(self):
        config = EncoderConfig(mode=FROZEN_PROJECTION, d_in=4, h=5, d_out=3)
        params = init_encoder_params(config, seed=9)
        rng = np.random.default_rng(13)
        probe = rng.normal(size=(3, 3))
        xs = list(rng.normal(size=(3, 4)))
        analytic, numeric = probe_gradients(params, xs, probe)
        assert max_relative_error(analytic, numeric) < 1e-4

    def test_repeated_token_accumulates_full_pooled_gradient(self):
        # mean-pooling over [t, t] equals the single-token pool, so the
        # two half-contributions must sum to the single-token gradient
        params = tiny_trainable(seed=4)
        upstream = np.random.default_rng(1).normal(size=(3, 3))
        grads = []
        for first in ([5, 5], [5]):
            _, fwd = encode_batch(params, input_table(params.config, [first, [1, 2], [3]]))
            grads.append(encode_batch_backward(params, fwd, upstream, params.zeros_like()))
        g_repeat, g_single = grads
        np.testing.assert_allclose(g_repeat.E, g_single.E, rtol=0, atol=1e-15)

    def test_upstream_shape_checked(self):
        params = tiny_trainable()
        grad = params.zeros_like()
        with pytest.raises(ValueError, match="shape"):
            encode_backward(params, [1], np.zeros(5), grad)


class TestGradientCheckProperty:
    def test_random_small_configs(self):
        rng = np.random.default_rng(42)
        for trial in range(5):
            vocab_size = int(rng.integers(2, 11))
            d_tok = int(rng.integers(1, 6))
            h = int(rng.integers(1, 6))
            d_out = int(rng.integers(1, 6))
            config = EncoderConfig(mode=TRAINABLE, d_tok=d_tok, h=h, d_out=d_out)
            params = init_encoder_params(config, vocab_size=vocab_size, seed=trial)
            xs = [rng.integers(0, vocab_size, size=rng.integers(1, 6)) for _ in range(3)]
            probe = rng.normal(size=(len(xs), d_out))
            analytic, numeric = probe_gradients(params, xs, probe)
            assert max_relative_error(analytic, numeric) < 1e-4


def param_groups():
    params = tiny_trainable()
    frozen = init_encoder_params(EncoderConfig(mode=FROZEN_PROJECTION, d_in=5, h=4, d_out=3), seed=1)
    head = init_head_params(d_out=3, hidden_dim=4, n_classes=2, seed=2)
    return {"trainable": params, "frozen": frozen, "head": head}


class TestParamGroupLayout:
    @pytest.mark.parametrize("kind", ["trainable", "frozen", "head"])
    @pytest.mark.parametrize("make", ["init", "copy", "zeros_like"])
    def test_fields_are_contiguous_views_of_one_flat_vector(self, kind, make):
        group = param_groups()[kind]
        group = group if make == "init" else getattr(group, make)()
        arrays = group.as_dict()
        assert group.flat.ndim == 1 and group.flat.dtype == np.float64
        assert group.flat.flags.c_contiguous
        lo = 0
        for name, arr in arrays.items():
            assert arr.flags.c_contiguous, name
            assert arr.base is group.flat, name
            assert arr.ctypes.data == group.flat[lo:].ctypes.data, name
            lo += arr.size
        assert lo == group.flat.size

    @pytest.mark.parametrize("kind", ["trainable", "frozen", "head"])
    @pytest.mark.parametrize("make", ["copy", "zeros_like"])
    def test_copy_and_zeros_like_share_no_memory(self, kind, make):
        group = param_groups()[kind]
        made = getattr(group, make)()
        assert not np.shares_memory(made.flat, group.flat)
        for name, arr in made.as_dict().items():
            assert not np.shares_memory(arr, group.flat), name
            assert arr.shape == getattr(group, name).shape
        if make == "copy":
            assert np.array_equal(made.flat, group.flat)
        else:
            assert not made.flat.any()

    @pytest.mark.parametrize("kind", ["trainable", "frozen", "head"])
    def test_copy_and_zeros_like_keep_the_config(self, kind):
        group = param_groups()[kind]
        for made in (group.copy(), group.zeros_like()):
            assert made.config is group.config and made.layout == group.layout
        # Sets made from one another share their config, so none may change it.
        with pytest.raises(dataclasses.FrozenInstanceError):
            group.config.h = 1

    def test_as_dict_keeps_field_order(self):
        groups = param_groups()
        assert list(groups["trainable"].as_dict()) == ["E", "W1", "b1", "W2", "b2"]
        assert list(groups["frozen"].as_dict()) == ["W1", "b1", "W2", "b2"]
        assert list(groups["head"].as_dict()) == ["W1", "b1", "W2", "b2"]
        for group in groups.values():
            assert list(group.copy().as_dict()) == list(group.as_dict())
            assert list(group.zeros_like().as_dict()) == list(group.as_dict())


class TestInit:
    def test_seeded_and_bounded(self):
        config = EncoderConfig(mode=TRAINABLE, d_tok=8, h=16, d_out=8)
        p1 = init_encoder_params(config, vocab_size=20, seed=5)
        p2 = init_encoder_params(config, vocab_size=20, seed=5)
        for a, b in zip(p1.as_dict().values(), p2.as_dict().values()):
            assert np.array_equal(a, b)
        assert np.abs(p1.E).max() <= 0.1
        assert np.abs(p1.W1).max() <= 1.0 / np.sqrt(config.d_tok)
        assert np.abs(p1.W2).max() <= 1.0 / np.sqrt(config.h)
        assert not p1.b1.any() and not p1.b2.any()

    def test_different_seeds_differ(self):
        config = EncoderConfig(mode=TRAINABLE, d_tok=4, h=4, d_out=4)
        p1 = init_encoder_params(config, vocab_size=10, seed=1)
        p2 = init_encoder_params(config, vocab_size=10, seed=2)
        assert not np.array_equal(p1.W1, p2.W1)


class TestModelFile:
    def test_binary_round_trip_bit_exact(self, tmp_path):
        corpus = make_corpus("d", [("t1", "a b c d", "x"), ("t2", "e f g", "y")])
        vocab = build_vocab(corpus)
        config = EncoderConfig(mode=TRAINABLE, d_tok=5, h=7, d_out=6)
        params = init_encoder_params(config, vocab_size=vocab.size, seed=3)
        path = tmp_path / "m.ptm"
        save_model(path, params, vocab)
        params2, vocab2 = load_model(path)
        assert params2.config == config
        assert vocab2.token_to_index == vocab.token_to_index
        for a, b in zip(params.as_dict().values(), params2.as_dict().values()):
            assert np.array_equal(a, b)
        # re-saving the loaded model reproduces the file byte for byte
        path2 = tmp_path / "m2.ptm"
        save_model(path2, params2, vocab2)
        assert path.read_bytes() == path2.read_bytes()
        # The payload is flat's values as little-endian float64, in layout order,
        # also from an array that is big-endian or not C-ordered.
        assert path.read_bytes().endswith(params.flat.astype("<f8").tobytes())
        params2.W1 = np.asfortranarray(params.W1.astype(">f8"))
        save_model(path2, params2, vocab2)
        assert path.read_bytes() == path2.read_bytes()

    def test_text_round_trip_exact_values(self, tmp_path):
        config = EncoderConfig(mode=FROZEN_PROJECTION, d_in=3, h=4, d_out=2)
        params = init_encoder_params(config, seed=8)
        path = tmp_path / "m.ptm"
        save_model(path, params, storage=STORAGE_TEXT)
        params2, _ = load_model(path)
        for a, b in zip(params.as_dict().values(), params2.as_dict().values()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("existing", [True, False], ids=["over-a-model", "new-path"])
    def test_failed_write_leaves_no_partial_file(self, tmp_path, existing):
        params = tiny_trainable()
        vocab = Vocabulary.from_tokens([UNK_TOKEN, "a", "b", "c", "d", "e"], 1)
        path = tmp_path / "m.ptm"
        if existing:
            save_model(path, params, vocab)
        before = path.read_bytes() if existing else None
        # b2 comes last in the payload, so the write fails after E, W1, b1 and W2.
        bad = params.copy()
        bad.b2 = np.zeros(params.config.d_out + 1)
        with pytest.raises(ValueError, match="'b2'"):
            save_model(path, bad, vocab)
        assert sorted(tmp_path.iterdir()) == ([path] if existing else [])
        if existing:
            assert path.read_bytes() == before

    @pytest.mark.parametrize("storage", [STORAGE_BINARY, STORAGE_TEXT])
    @pytest.mark.parametrize("mode", [TRAINABLE, FROZEN_PROJECTION])
    def test_config_survives_round_trip(self, tmp_path, mode, storage):
        if mode == TRAINABLE:
            vocab = Vocabulary.from_tokens([UNK_TOKEN, "a", "b", "c"], 2)
            params = tiny_trainable(vocab_size=vocab.size, d_tok=2, h=5, d_out=3, seed=1)
        else:
            vocab = None
            params = init_encoder_params(
                EncoderConfig(mode=FROZEN_PROJECTION, d_in=3, h=5, d_out=2), seed=1
            )
        path = tmp_path / "m.ptm"
        save_model(path, params, vocab, storage=storage)
        loaded, _ = load_model(path)
        assert loaded.config == params.config and loaded.layout == params.layout

    @pytest.mark.parametrize("n_tokens", [None, 5, 7], ids=["none", "fewer", "more"])
    def test_vocabulary_must_index_every_embedding_row(self, tmp_path, n_tokens):
        params = tiny_trainable()  # six rows of E
        vocab = None
        message = "saved with their vocabulary"
        if n_tokens is not None:
            vocab = Vocabulary.from_tokens([UNK_TOKEN] + [f"t{i}" for i in range(1, n_tokens)], 1)
            message = f"vocabulary of {n_tokens} tokens does not fit E's 6 rows"
        path = tmp_path / "m.ptm"
        with pytest.raises(ValueError, match=message):
            save_model(path, params, vocab)
        assert not path.exists()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ptm"
        path.write_bytes(b"NOT-A-MODEL\n{}\n")
        with pytest.raises(CorpusError, match="magic"):
            load_model(path)

    def test_truncated_payload(self, tmp_path):
        config = EncoderConfig(mode=FROZEN_PROJECTION, d_in=3, h=4, d_out=2)
        params = init_encoder_params(config, seed=8)
        path = tmp_path / "m.ptm"
        save_model(path, params)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CorpusError, match="payload too short"):
            load_model(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda h, rows: ({k: v for k, v in h.items() if k != "h"}, rows), "missing h"),
        (lambda h, rows: ([h], rows), "malformed model header"),
        (lambda h, rows: (dict(h, d_out="wide"), rows), "bad model header"),
        (lambda h, rows: (h, [b"1.0 x 2.0"] + rows[1:]), "non-numeric value in parameter 'W1'"),
        (lambda h, rows: (h, [rows[0] + b" 0.5"] + rows[1:]), "wrong number of values"),
        (lambda h, rows: (h, [b"\xff"] + rows[1:]), "not UTF-8"),
    ])
    def test_malformed_text_model_is_corpus_error(self, tmp_path, edit, message):
        config = EncoderConfig(mode=FROZEN_PROJECTION, d_in=3, h=4, d_out=2)
        path = tmp_path / "m.ptm"
        save_model(path, init_encoder_params(config, seed=8), storage=STORAGE_TEXT)
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        header, rows = edit(json.loads(header), payload.split(b"\n"))
        path.write_bytes(b"\n".join([magic, json.dumps(header).encode(), *rows]))
        with pytest.raises(CorpusError, match=message):
            load_model(path)


class TestParamLayout:
    def test_zeros_lays_out_views_of_one_zeroed_vector(self):
        config = EncoderConfig(mode=TRAINABLE, d_tok=3, h=4, d_out=2)
        params = EncoderParams.zeros(config, vocab_size=5)
        shapes = {name: a.shape for name, a in params.as_dict().items()}
        assert list(shapes.items()) == [
            ("E", (5, 3)), ("W1", (4, 3)), ("b1", (4,)), ("W2", (2, 4)), ("b2", (2,)),
        ]
        assert params.flat.shape == (15 + 12 + 4 + 8 + 2,) and not params.flat.any()
        for a in params.as_dict().values():
            assert a.flags.c_contiguous and np.shares_memory(a, params.flat)
        frozen = EncoderParams.zeros(EncoderConfig(mode=FROZEN_PROJECTION, d_in=3, h=4, d_out=2))
        assert frozen.E is None and list(frozen.as_dict()) == ["W1", "b1", "W2", "b2"]

    @pytest.mark.parametrize("vocab_size", [None, 0])
    def test_trainable_layout_needs_a_vocabulary(self, vocab_size):
        config = EncoderConfig(mode=TRAINABLE, d_tok=3, h=4, d_out=2)
        for build in (EncoderParams.zeros, init_encoder_params):
            with pytest.raises(ValueError, match="vocab_size >= 1"):
                build(config, vocab_size)

    @pytest.mark.parametrize("storage", [STORAGE_BINARY, STORAGE_TEXT])
    def test_header_wider_than_payload_fails_before_allocating(self, tmp_path, storage):
        # 10**15 x 4 float64 values cannot be allocated, so only a size check
        # made before allocation turns this into a data error.
        config = EncoderConfig(mode=FROZEN_PROJECTION, d_in=3, h=4, d_out=2)
        path = tmp_path / "m.ptm"
        save_model(path, init_encoder_params(config, seed=8), storage=storage)
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        wide = dict(json.loads(header), d_out=10**15)
        path.write_bytes(b"\n".join([magic, json.dumps(wide).encode(), payload]))
        with pytest.raises(CorpusError, match="payload too short for parameter 'W2'"):
            load_model(path)


class TestInputTable:
    ROWS = np.array([4, 0, 0, 2, 1, 4, 3])

    def test_trainable_gather_equals_per_example_concatenate(self):
        rng = np.random.default_rng(3)
        xs = [rng.integers(0, 50, size=n) for n in (3, 1, 7, 2, 5)]
        params = tiny_trainable(vocab_size=50, d_tok=4, h=5, d_out=3, seed=3)
        batch = input_table(params.config, xs).take(self.ROWS)
        picked = [xs[i] for i in self.ROWS]
        tokens = np.concatenate(picked, dtype=np.intp)
        lengths = np.array([x.size for x in picked])
        assert batch.tokens.tobytes() == tokens.tobytes()
        np.testing.assert_array_equal(np.diff(batch.offsets), lengths)
        _, fwd = encode_batch(params, batch)
        M = np.add.reduceat(params.E[tokens], np.cumsum(lengths) - lengths, axis=0)
        M /= lengths[:, None]
        assert fwd.M.tobytes() == M.tobytes()

    def test_frozen_gather_equals_row_stack_and_copies_no_vector(self):
        config = EncoderConfig(mode=FROZEN_PROJECTION, d_in=4, h=5, d_out=3)
        params = init_encoder_params(config, seed=4)
        xs = list(np.random.default_rng(4).normal(size=(5, 4)))
        table = input_table(config, xs)
        assert all(v is x for v, x in zip(table.vectors, xs))
        _, fwd = encode_batch(params, table.take(self.ROWS))
        stacked = np.array([xs[i] for i in self.ROWS], dtype=np.float64)
        assert fwd.M.tobytes() == stacked.tobytes()

    def test_inputs_are_checked_when_packed(self):
        config = tiny_trainable().config
        with pytest.raises(ValueError, match="non-empty"):
            input_table(config, [[1, 2], []])
        fconfig = EncoderConfig(mode=FROZEN_PROJECTION, d_in=4, h=3, d_out=2)
        with pytest.raises(ValueError, match="length 4"):
            input_table(fconfig, [np.zeros(4), np.zeros(3)])


class TestMakeInputFn:
    def test_trainable_table_equals_per_example_packing(self):
        vocab = build_vocab(make_corpus("v", [("v1", "flu season", "x"), ("v2", "again", "y")]))
        corpus = make_corpus("d", [
            ("t1", "Flu season, again!", "x"),
            ("t2", "... !!!", "y"),  # punctuation only: tokenises to <unk>
            ("t3", "unseen words, flu", "x"),
            ("t4", "season", "y"),
        ])
        config = tiny_trainable(vocab_size=vocab.size).config
        table = make_input_fn(config, vocab=vocab)(corpus.examples)
        packed = input_table(config, [vocab.lookup(tokenize(ex.text)) for ex in corpus.examples])
        assert table.tokens.dtype == packed.tokens.dtype == np.intp
        assert table.tokens.tobytes() == packed.tokens.tobytes()
        assert table.offsets.tobytes() == packed.offsets.tobytes()
        assert table.tokens.tolist() == [2, 3, 1, 0, 0, 0, 2, 3]  # again=1, flu=2, season=3
        assert len(make_input_fn(config, vocab=vocab)([])) == 0

    def test_frozen_table_references_each_example_vector(self):
        corpus = make_corpus("d", [("t1", "a", "x"), ("t2", "b", "y"), ("t3", "c", "x")])
        table = VectorTable(dim=2, entries={ex.id: np.full(2, float(i)) for i, ex in
                                            enumerate(corpus.examples)})
        config = identity_projection(2).config
        inputs = make_input_fn(config, vectors=table)(corpus.examples[::-1])
        assert all(v is table[ex.id] for v, ex in zip(inputs.vectors, corpus.examples[::-1]))


class TestEmbedder:
    @pytest.mark.parametrize(
        "kind", ["trainable", "frozen", "identity-orig", "trainable-narrow", "frozen-narrow"]
    )
    def test_embed_rows_equals_packed_chunks_and_per_row_encode(self, kind):
        corpus = synthetic_corpus("emb", 3, 30, n_groups=3, seed=1)
        rng = np.random.default_rng(6)
        # A narrow kind's d_out exceeds h + 1, so eval rows are h + 1 wide.
        narrow = kind.endswith("-narrow")
        if kind.startswith("trainable"):
            vocab = build_vocab(corpus)
            h, d_out = (4, 12) if narrow else (6, 5)
            params = tiny_trainable(vocab_size=vocab.size, d_tok=4, h=h, d_out=d_out)
            params.E[...] = rng.normal(size=params.E.shape)
            prepare = make_input_fn(params.config, vocab=vocab)
            xs = [vocab.lookup(tokenize(ex.text)) for ex in corpus.examples]
        else:
            table = VectorTable(dim=5, entries={ex.id: rng.normal(size=5) for ex in corpus.examples})
            if kind == "identity-orig":
                params = identity_projection(5)
            else:
                h, d_out = (4, 12) if narrow else (6, 4)
                config = EncoderConfig(mode=FROZEN_PROJECTION, d_in=5, h=h, d_out=d_out)
                params = init_encoder_params(config, seed=2)
            prepare = make_input_fn(params.config, vectors=table)
            xs = [table[ex.id] for ex in corpus.examples]
        # Repeated and unsorted rows spanning more than two chunks.
        rows = rng.integers(0, len(corpus), size=2 * EMBED_CHUNK + 9)
        inputs = prepare(corpus.examples)

        def packed():
            # The same EMBED_CHUNK-row batches packed from per-example inputs.
            return np.concatenate([
                encode_batch(params, input_table(params.config, [xs[i] for i in chunk]))[0]
                for chunk in np.split(rows, range(EMBED_CHUNK, len(rows), EMBED_CHUNK))
            ])

        if not narrow:
            Z, direct = make_embedder(params)(inputs)(rows), packed()
            assert Z.shape == direct.shape and Z.tobytes() == direct.tobytes()
            # A one-row product may round differently from a many-row one.
            expected = np.array([encode(params, xs[i]) for i in rows])
            np.testing.assert_allclose(Z, expected, rtol=0, atol=1e-12)
            return

        def cosine_distances(Z):
            norms = np.maximum(np.sqrt(np.einsum("ij,ij->i", Z, Z)), 1e-12)
            return 1.0 - (Z @ Z.T) / np.outer(norms, norms)

        # Each head below changes the one before it.
        for head in ("random b2", "b2 = 0", "two equal W2 columns", "all-zero W2"):
            if head == "random b2":
                params.b2[...] = rng.normal(size=params.config.d_out)
            elif head == "b2 = 0":
                params.b2[...] = 0.0
            elif head == "two equal W2 columns":
                params.W2[:, 1] = params.W2[:, 2]
            else:
                params.W2[...] = 0.0
            Z, direct = make_embedder(params)(inputs)(rows), packed()
            assert Z.shape == (len(rows), params.config.h + 1), head
            np.testing.assert_allclose(Z @ Z.T, direct @ direct.T, rtol=0, atol=1e-12, err_msg=head)
            np.testing.assert_allclose(
                cosine_distances(Z), cosine_distances(direct), rtol=0, atol=1e-12, err_msg=head
            )
        assert not Z.any() and (cosine_distances(Z) == 1.0).all()

    @pytest.mark.parametrize("mode", [TRAINABLE, FROZEN_PROJECTION])
    @pytest.mark.parametrize("d_out", [5, 12], ids=["unnarrowed", "narrowed"])
    def test_embedder_builds_no_backward_state(self, monkeypatch, mode, d_out):
        # project returns the BatchForward a backward pass reads; eval must not call it.
        corpus = synthetic_corpus("emb", 3, 10, n_groups=3, seed=1)
        rng = np.random.default_rng(7)
        if mode == TRAINABLE:
            vocab = build_vocab(corpus)
            params = tiny_trainable(vocab_size=vocab.size, d_tok=4, h=4, d_out=d_out)
            inputs = make_input_fn(params.config, vocab=vocab)(corpus.examples)
        else:
            config = EncoderConfig(mode=FROZEN_PROJECTION, d_in=5, h=4, d_out=d_out)
            params = init_encoder_params(config, seed=2)
            table = VectorTable(dim=5, entries={ex.id: rng.normal(size=5) for ex in corpus.examples})
            inputs = make_input_fn(params.config, vectors=table)(corpus.examples)
        rows = np.arange(len(corpus))
        expected = make_embedder(params)(inputs)(rows)

        def no_project(*args):
            raise AssertionError("eval called project")

        monkeypatch.setattr(pairtune.encoder, "project", no_project)
        Z = make_embedder(params)(inputs)(rows)
        assert Z.shape == (len(corpus), min(d_out, params.config.h + 1))
        assert Z.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("change", [
        None, "W1 entry at 1 + ulp", "nonzero b1", "nonzero b2", "stray W2 entry",
        "h != 2 d_in", "d_out != d_in", "trainable",
    ])
    def test_only_an_exact_identity_skips_the_network(self, monkeypatch, change):
        d, rng = 4, np.random.default_rng(3)
        h = 2 * d + (change == "h != 2 d_in")
        d_out = d + (change == "d_out != d_in")
        if change == "trainable":
            config = EncoderConfig(mode=TRAINABLE, d_tok=d, h=h, d_out=d_out)
            params = EncoderParams.zeros(config, vocab_size=6)
            params.E[...] = rng.normal(size=params.E.shape)
            inputs = input_table(config, [[1, 4], [0], [2, 2, 5]])
        else:
            config = EncoderConfig(mode=FROZEN_PROJECTION, d_in=d, h=h, d_out=d_out)
            params = EncoderParams.zeros(config)
            inputs = input_table(config, list(rng.normal(size=(3, d))))
        # identity_projection's entries, at whatever h and d_out the config has.
        i = np.arange(d)
        params.W1[i, i], params.W1[d + i, i] = 1.0, -1.0
        params.W2[i, i], params.W2[i, d + i] = 1.0, -1.0
        if change == "W1 entry at 1 + ulp":
            params.W1[2, 2] = np.nextafter(1.0, 2.0)
        elif change == "nonzero b1":
            params.b1[5] = 1e-300
        elif change == "nonzero b2":
            params.b2[0] = -1e-300
        elif change == "stray W2 entry":
            params.W2[1, 0] = 1e-300
        hidden, hidden_calls = pairtune.encoder._hidden, []

        def counting_hidden(params, M):
            hidden_calls.append(len(M))
            return hidden(params, M)

        monkeypatch.setattr(pairtune.encoder, "_hidden", counting_hidden)
        Z = make_embedder(params)(inputs)([0, 1, 2])
        assert hidden_calls == ([] if change is None else [3])
        np.testing.assert_allclose(Z, encode_batch(params, inputs)[0], rtol=0, atol=1e-12)

    def test_trainable_embedder_uses_tokens(self):
        corpus = make_corpus("d", [("t1", "a b", "x"), ("t2", "c", "y")])
        vocab = build_vocab(corpus)
        params = tiny_trainable(vocab_size=vocab.size)
        embed = make_embedder(params)(make_input_fn(params.config, vocab=vocab)(corpus.examples))
        # Three rows: a one-row chunk would round as a matrix-vector product.
        xs = [vocab.lookup(tokens) for tokens in (["a", "b"], ["c"], ["a", "b"])]
        np.testing.assert_array_equal(embed([0, 1, 0]), encode_rows(params, xs))

    def test_frozen_embedder_missing_id(self):
        corpus = make_corpus("d", [("t1", "a", "x"), ("t2", "b", "y")])
        params = identity_projection(2)
        table = VectorTable(dim=2, entries={"t1": np.array([1.0, 0.0])})
        prepare = make_input_fn(params.config, vectors=table)
        embed = make_embedder(params)(prepare(corpus.examples[:1]))
        np.testing.assert_array_equal(embed([0])[0], [1.0, 0.0])
        with pytest.raises(CorpusError, match="no vector for example id 't2'"):
            prepare(corpus.examples[1:])
