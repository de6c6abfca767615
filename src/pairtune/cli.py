"""Command-line pipeline: synthetic data, vocabularies, pairs, training,
evaluation, and the multi-model experiment harness.

Exit codes: 0 success, 1 usage/config error, 2 data error, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import fields
from functools import partial
from pathlib import Path

from . import __version__
from .corpus import (
    CorpusError,
    DELIMITED_TEXT,
    JSON_LINES,
    RANDOM_BY_EXAMPLE,
    SplitSpec,
    VectorTable,
    atomic_write,
    check_field,
    load_corpus,
    load_vectors,
    split_corpus,
    write_corpus,
)
from .encoder import (
    FROZEN_PROJECTION,
    STORAGE_BINARY,
    STORAGE_TEXT,
    TRAINABLE,
    EncoderConfig,
    EncoderParams,
    build_vocab,
    check_min_count,
    identity_projection,
    init_encoder_params,
    load_model,
    load_vocab,
    make_embedder,
    make_input_fn,
    save_model,
    save_vocab,
)
from .episodes import EpisodeError, EpisodeSpec, generate_episodes, load_pairs, write_pairs
from .evaluation import EvalSpec, delta_cosine_distance, emit_report, eval_pairs
from .synthetic import synthetic_corpus
from .training import (
    NaiveConfig,
    NumericError,
    SiameseConfig,
    train_naive,
    train_siamese,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# Experiment-harness defaults.
DEFAULT_SIAMESE_PAIRS = 70_000
DEFAULT_ALL_PAIRS_PER_DATASET = 10_000
DEFAULT_EVAL_PAIRS = 5_000

MODEL_NAMES = ("ORIG", "NAIVE", "SIAMESE", "ALL")

# Stage seeds derived from one master seed, so reruns and standalone
# commands reproduce the experiment's streams.
SEED_INIT = 0
SEED_NAIVE = 1
SEED_SIAMESE_EPISODES = 2
SEED_SIAMESE_TRAIN = 3
SEED_ALL_EPISODES = 4
SEED_ALL_TRAIN = 5
SEED_EVAL = 6

_CORPUS_FORMATS = {
    "jsonl": JSON_LINES,
    "json-lines": JSON_LINES,
    "tsv": DELIMITED_TEXT,
    "delimited-text": DELIMITED_TEXT,
}


class ConfigError(Exception):
    """Invalid command arguments or experiment configuration."""


def _log(message: str) -> None:
    print(message, file=sys.stderr)


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _defaults(cls, **extra) -> dict:
    """A config dataclass's field defaults, minus the seed that the pipeline
    derives from the master seed and the input width that vector files set."""
    return {f.name: f.default for f in fields(cls) if f.name not in ("seed", "d_in")} | extra


def default_experiment_config() -> dict:
    """The full configuration with every default pinned."""
    return {
        "name": "experiment",
        "train_sets": [],
        "test_sets": [],
        "train_vectors": [],
        "test_vectors": [],
        "models": ["ORIG", "NAIVE", "SIAMESE", "ALL"],
        "seed": 0,
        "out_dir": "runs/experiment",
        "model_format": STORAGE_BINARY,
        "encoder": _defaults(EncoderConfig, min_count=1),
        "siamese": _defaults(SiameseConfig),
        "naive": _defaults(NaiveConfig),
        "episodes": {
            "siamese_pairs": DEFAULT_SIAMESE_PAIRS,
            "all_pairs_per_dataset": DEFAULT_ALL_PAIRS_PER_DATASET,
            "same_fraction": 0.5,
        },
        "eval": _defaults(EvalSpec),
    }


def _merge_config(base: dict, override: dict, prefix: str = "") -> dict:
    merged = dict(base)
    for key, value in override.items():
        dotted = f"{prefix}{key}"
        if key not in base:
            raise ConfigError(f"unknown config field '{dotted}'")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{dotted}: expected an object, got {value!r}")
            merged[key] = _merge_config(base[key], value, prefix=f"{dotted}.")
        elif not _has_type_of(base[key], value):
            kind = "list of str" if type(base[key]) is list else type(base[key]).__name__
            raise ConfigError(f"{dotted}: expected {kind}, got {value!r}")
        else:
            merged[key] = value
    return merged


def _has_type_of(default, value) -> bool:
    """A value has its default's type, except that an int may stand for a
    float, a bool counts only where the default is a bool, and a list holds
    strings."""
    if type(default) is list:
        return type(value) is list and all(type(v) is str for v in value)
    if type(default) is float:
        return type(value) in (int, float)
    return type(value) is type(default)


def load_experiment_config(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"no such config file: {p}")
    try:
        user = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"{p}: invalid JSON: {err.msg}") from None
    if not isinstance(user, dict):
        raise ConfigError(f"{p}: config must be a JSON object")
    return _merge_config(default_experiment_config(), user)


def _check_train_sets(variant: str, n_train: int) -> None:
    if variant in ("NAIVE", "SIAMESE") and n_train != 1:
        raise ConfigError(f"{variant} needs exactly one train set, got {n_train}")
    if variant == "ALL" and n_train < 1:
        raise ConfigError("ALL needs at least one train set")


def validate_experiment_config(cfg: dict) -> None:
    models = cfg["models"]
    if not models:
        raise ConfigError("models: list must not be empty")
    unknown = [m for m in models if m not in MODEL_NAMES]
    if unknown:
        raise ConfigError(f"models: unknown model name(s) {unknown}")
    if len(set(models)) != len(models):
        raise ConfigError("models: duplicate entries")
    n_train = len(cfg["train_sets"])
    for model in models:
        _check_train_sets(model, n_train)
    if not cfg["test_sets"]:
        raise ConfigError("test_sets: need at least one test set")
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg['seed']}")
    if cfg["encoder"]["mode"] == FROZEN_PROJECTION:
        if len(cfg["train_vectors"]) != n_train:
            raise ConfigError("train_vectors: need one vector file per train set")
        if len(cfg["test_vectors"]) != len(cfg["test_sets"]):
            raise ConfigError("test_vectors: need one vector file per test set")
    if cfg["model_format"] not in (STORAGE_BINARY, STORAGE_TEXT):
        raise ConfigError(f"model_format: unknown format '{cfg['model_format']}'")
    # The vector files set the encoder's d_in later; any valid width stands in.
    sections = {"encoder": partial(_encoder_config, d_in=1), "siamese": SiameseConfig,
                "naive": NaiveConfig, "eval": EvalSpec}
    for section, make in sections.items():
        try:
            make(**cfg[section])
        except ValueError as err:
            raise ConfigError(f"{section}: {err}") from None
    ep = cfg["episodes"]
    for quota in ("siamese_pairs", "all_pairs_per_dataset"):
        if ep[quota] < 1:
            raise ConfigError(f"episodes.{quota} must be >= 1, got {ep[quota]}")
    _check_fraction(ep["same_fraction"], "episodes.same_fraction")


def _encoder_config(mode, d_tok, h, d_out, min_count, d_in=None) -> EncoderConfig:
    """The EncoderConfig of an "encoder" config section, which in trainable
    mode must also pass build_vocab's min_count rule. Frozen mode reads
    d_in-wide vectors; a check made before the vector files are read passes
    any valid width."""
    if mode == TRAINABLE:
        check_min_count(min_count)
        return EncoderConfig(mode=mode, d_tok=d_tok, h=h, d_out=d_out)
    return EncoderConfig(mode=mode, d_in=d_in, h=h, d_out=d_out)


def _check_fraction(value: float, name: str) -> None:
    if not 0.0 < value < 1.0:
        raise ConfigError(f"{name} must be strictly between 0 and 1, got {value}")


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _load_corpora(paths, format=None):
    corpora = [load_corpus(p, format=format) for p in paths]
    seen = set()
    for corpus in corpora:
        if corpus.dataset_id in seen:
            raise CorpusError(f"duplicate dataset id '{corpus.dataset_id}'")
        seen.add(corpus.dataset_id)
    return corpora


def _check_out_dirs(args) -> None:
    """Refuse an output file whose directory does not exist, with the error that
    writing it would raise: after a command's flag checks, before any input."""
    for flag in ("out", "test_out", "loss_curve"):
        path = getattr(args, flag, None)
        if path is not None and not Path(path).parent.is_dir():
            raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), str(path))


def cmd_gen_synthetic(args) -> None:
    if args.test_fraction is None:
        if args.test_out is not None:
            raise ConfigError("--test-out needs --test-fraction")
    elif args.test_out is None:
        raise ConfigError("--test-fraction needs --test-out")
    else:
        _check_fraction(args.test_fraction, "--test-fraction")
    _check_out_dirs(args)
    corpus = synthetic_corpus(
        args.dataset_id or Path(args.out).stem,
        args.classes,
        args.examples_per_class,
        n_groups=args.groups,
        group_size=args.group_size,
        groups_per_class=args.groups_per_class,
        tokens_per_example=args.tokens_per_example,
        domain_noise=args.domain_noise,
        class_offset=args.class_offset,
        token_namespace=args.namespace,
        seed=args.seed,
    )
    fmt = _CORPUS_FORMATS.get(args.format)
    if args.test_fraction is not None:
        train, test = split_corpus(
            corpus,
            SplitSpec(mode=RANDOM_BY_EXAMPLE, fraction=1.0 - args.test_fraction, seed=args.seed),
        )
        write_corpus(train, args.out, format=fmt)
        write_corpus(test, args.test_out, format=fmt)
        _log(f"wrote {len(train)} examples to {args.out}, {len(test)} to {args.test_out}")
    else:
        write_corpus(corpus, args.out, format=fmt)
        _log(f"wrote {len(corpus)} examples ({corpus.n_classes} classes) to {args.out}")


def cmd_build_vocab(args) -> None:
    check_min_count(args.min_count)
    _check_out_dirs(args)
    corpora = _load_corpora(args.train, format=_CORPUS_FORMATS.get(args.format))
    vocab = build_vocab(corpora, min_count=args.min_count)
    save_vocab(vocab, args.out)
    _log(f"vocabulary of {vocab.size} tokens written to {args.out}")


def _check_pair_flags(args) -> None:
    """At most one of --pairs and --pairs-per-dataset, and each >= 1."""
    if args.pairs is not None and args.pairs_per_dataset is not None:
        raise ConfigError("give either a total pair count or a per-dataset count, not both")
    for flag, value in (("--pairs", args.pairs), ("--pairs-per-dataset", args.pairs_per_dataset)):
        if value is not None and value < 1:
            raise ConfigError(f"{flag} must be >= 1, got {value}")


def _pairs_per_dataset(n_sets: int, pairs, pairs_per_dataset) -> int:
    if pairs_per_dataset is not None:
        return pairs_per_dataset
    if pairs is not None:
        if pairs % n_sets != 0:
            raise ConfigError(f"total pair count {pairs} does not split evenly over {n_sets} datasets")
        return pairs // n_sets
    return DEFAULT_SIAMESE_PAIRS if n_sets == 1 else DEFAULT_ALL_PAIRS_PER_DATASET


def cmd_gen_pairs(args) -> None:
    _check_fraction(args.same_fraction, "--same-fraction")
    _check_pair_flags(args)
    per = _pairs_per_dataset(len(args.train), args.pairs, args.pairs_per_dataset)
    _check_out_dirs(args)
    corpora = _load_corpora(args.train, format=_CORPUS_FORMATS.get(args.format))
    quotas = {c.dataset_id: per for c in corpora}
    spec = EpisodeSpec(quotas=quotas, same_fraction=args.same_fraction, seed=args.seed)
    pairs = generate_episodes(corpora, spec)
    write_pairs(pairs, args.out)
    _log(f"wrote {len(pairs)} pairs ({len(quotas)} dataset(s)) to {args.out}")


def _vector_tables(corpora, paths) -> list[VectorTable]:
    """corpora[i]'s vector table, read from paths[i]. Each distinct file is
    parsed once, all must share one width, and every example of corpora[i]
    must have a vector in its table."""
    loaded = {p: load_vectors(p) for p in dict.fromkeys(paths)}
    dims = {t.dim for t in loaded.values()}
    if len(dims) > 1:
        raise CorpusError(f"vector files disagree on dimension: {sorted(dims)}")
    for corpus, path in zip(corpora, paths):
        for ex in corpus.examples:
            if ex.id not in loaded[path]:
                raise CorpusError(f"{path}: no vector for example id '{ex.id}'")
    return [loaded[p] for p in paths]


def _encoder_and_vocab(enc: dict, tables, corpora, vocab_path=None):
    """A run's (config, vocab) from its "encoder" section: frozen over the
    tables' width when there are tables, else trainable over the vocabulary
    at ``vocab_path`` or one built from ``corpora``."""
    if tables:
        return _encoder_config(**enc, d_in=tables[0].dim), None
    if vocab_path:
        return _encoder_config(**enc), load_vocab(vocab_path)
    return _encoder_config(**enc), build_vocab(corpora, min_count=enc["min_count"])


def _base_params(config: EncoderConfig, vocab, seed: int) -> EncoderParams:
    """The seed-initialised encoder that every variant starts from."""
    vocab_size = vocab.size if vocab is not None else None
    return init_encoder_params(config, vocab_size=vocab_size, seed=seed + SEED_INIT)


def orig_model(base_params: EncoderParams) -> EncoderParams:
    """The untrained ORIG surrogate: an identity projection when the input is
    frozen and d_out == d_in, else the base encoder."""
    config = base_params.config
    if config.mode == FROZEN_PROJECTION and config.d_out == config.d_in:
        return identity_projection(config.d_in)
    return base_params


def train_variant(variant, params, corpora, table, cfg: dict, seed: int, pairs=None):
    """Finetune ``params`` in place as the NAIVE, SIAMESE or ALL variant on
    ``table``, the inputs of every example of ``corpora`` in order.

    ``cfg`` supplies the experiment config's "naive", "siamese" and
    "episodes" sections. SIAMESE samples episodes.siamese_pairs pairs from
    the one train corpus, ALL samples episodes.all_pairs_per_dataset from
    each; ``pairs`` replays a PairSet instead. Each stage's seed is ``seed``
    plus its SEED_* offset. Returns (params, TrainingReport).
    """
    # corpus/pairs and ncfg/scfg go by keyword: benchmarks/child.py reads args 2 and 4, else names.
    if variant == "NAIVE":
        ncfg = NaiveConfig(seed=seed + SEED_NAIVE, **cfg["naive"])
        params, _head, report = train_naive(
            params, corpus=corpora[0], table=table, ncfg=ncfg, log=_log
        )
        _log("classification head discarded; keeping the finetuned encoder")
        return params, report
    ep = cfg["episodes"]
    if variant == "SIAMESE":
        quotas = {corpora[0].dataset_id: ep["siamese_pairs"]}
        episode_seed, train_seed = SEED_SIAMESE_EPISODES, SEED_SIAMESE_TRAIN
    else:
        quotas = {c.dataset_id: ep["all_pairs_per_dataset"] for c in corpora}
        episode_seed, train_seed = SEED_ALL_EPISODES, SEED_ALL_TRAIN
    if pairs is None:
        pairs = generate_episodes(
            corpora,
            EpisodeSpec(quotas=quotas, same_fraction=ep["same_fraction"], seed=seed + episode_seed),
        )
    scfg = SiameseConfig(seed=seed + train_seed, **cfg["siamese"])
    return train_siamese(params, pairs=pairs, table=table, scfg=scfg, log=_log)


def cmd_train(args) -> None:
    mode = args.mode.upper()
    if mode not in ("NAIVE", "SIAMESE", "ALL"):
        raise ConfigError(f"unknown training mode '{args.mode}'")
    _check_train_sets(mode, len(args.train))
    if args.vectors and args.vocab:
        raise ConfigError("--vocab does not apply with --vectors, which has no vocabulary")
    if mode == "NAIVE" and args.pairs_in:
        raise ConfigError("--pairs-in does not apply to NAIVE, which trains on examples")
    for flag, value in (("--pairs", args.pairs), ("--pairs-per-dataset", args.pairs_per_dataset)):
        if value is not None and (mode == "NAIVE" or args.pairs_in):
            why = "to NAIVE, which trains on examples" if mode == "NAIVE" else "with --pairs-in"
            raise ConfigError(f"{flag} does not apply {why}, which samples no pairs")
    _check_fraction(args.same_fraction, "--same-fraction")
    _check_pair_flags(args)
    # The flags fill the same config sections an experiment reads, and
    # those sections' rules run before any file is read.
    cfg = default_experiment_config()
    steps = {"epochs": args.epochs, "batch_size": args.batch_size, "learning_rate": args.learning_rate}
    cfg["naive"].update(steps, hidden_dim=args.hidden_dim)
    cfg["siamese"].update(steps)
    cfg["episodes"]["same_fraction"] = args.same_fraction
    enc = cfg["encoder"]
    enc.update(mode=FROZEN_PROJECTION if args.vectors else TRAINABLE, d_tok=args.d_tok,
               h=args.hidden_width, d_out=args.d_out, min_count=args.min_count)
    NaiveConfig(**cfg["naive"])
    SiameseConfig(**cfg["siamese"])
    _encoder_config(**enc, d_in=1)  # the vector files set d_in later
    if args.vectors and len(args.vectors) != len(args.train):
        raise ConfigError("need one --vectors file per train set")
    if mode != "NAIVE" and not args.pairs_in:
        per = _pairs_per_dataset(len(args.train), args.pairs, args.pairs_per_dataset)
        cfg["episodes"].update(siamese_pairs=per, all_pairs_per_dataset=per)
    if mode == "ALL" and len(args.train) == 1:
        _log("note: ALL with a single train set is equivalent to SIAMESE")
    _check_out_dirs(args)

    corpora = _load_corpora(args.train)
    tables = _vector_tables(corpora, args.vectors or [])
    config, vocab = _encoder_and_vocab(enc, tables, corpora, args.vocab)
    input_fn = make_input_fn(config, vocab, {c.dataset_id: t for c, t in zip(corpora, tables)})
    table = input_fn([ex for c in corpora for ex in c.examples])
    params = _base_params(config, vocab, args.seed)

    pairs = None
    if mode != "NAIVE" and args.pairs_in:
        pairs = load_pairs(args.pairs_in, corpora)
    params, report = train_variant(mode, params, corpora, table, cfg, args.seed, pairs)

    save_model(args.out, params, vocab, storage=args.format)
    _log(f"model written to {args.out}")
    if args.loss_curve:
        _write_loss_curve(args.loss_curve, report)


def _write_loss_curve(path, report) -> None:
    with atomic_write(path, encoding="utf-8") as f:
        f.write("epoch\tmean_loss\n")
        for epoch, loss in enumerate(report.epoch_losses, start=1):
            f.write(f"{epoch}\t{loss:.9g}\n")


def _evaluate(models, tests, input_fn, spec: EvalSpec) -> list:
    """One report row per (model, test set), model-major. ``models`` holds
    (name, params) pairs and ``input_fn`` prepares a test set's inputs. Each
    test set's inputs and ``eval_pairs`` serve every model, and each model's
    embedder, and so its eval head, serves every test set."""
    rows = [[] for _ in models]
    embedders = [make_embedder(params) for _, params in models]
    for test in tests:
        inputs = input_fn(test.examples)
        pairs = eval_pairs(test, spec)
        for model_rows, (name, _), embedder in zip(rows, models, embedders):
            result = delta_cosine_distance(embedder(inputs), pairs)
            model_rows.append((name, test.dataset_id, result))
            _log(f"{name} on {test.dataset_id}: delta={result.delta:.6f}")
    return [row for model_rows in rows for row in model_rows]


def _orig_config(args, dim: int) -> EncoderConfig:
    """``eval --orig``'s encoder over dim-wide vectors; --d-out defaults to
    dim and --hidden-width to 64."""
    d_out = dim if args.d_out is None else args.d_out
    h = 64 if args.hidden_width is None else args.hidden_width
    return EncoderConfig(mode=FROZEN_PROJECTION, d_in=dim, h=h, d_out=d_out)


def cmd_eval(args) -> None:
    _check_fraction(args.same_fraction, "--same-fraction")
    spec = EvalSpec(n_pairs=args.n_pairs, same_fraction=args.same_fraction, seed=args.seed)
    if args.model_name is not None:
        try:
            check_field(args.model_name, "--model-name")
        except CorpusError as err:
            raise ConfigError(str(err)) from None
    if args.model:
        for flag, value in (("--d-out", args.d_out), ("--hidden-width", args.hidden_width)):
            if value is not None:
                raise ConfigError(f"{flag} applies only to --orig; the model file sets its widths")
    elif not args.vectors:
        raise ConfigError("--orig needs --vectors with the test-set embeddings")
    else:
        _orig_config(args, 1)  # the vector files set d_in later
        if args.hidden_width is not None and args.d_out is None:
            raise ConfigError("--hidden-width needs --d-out: without it ORIG is the identity")
    paths = args.vectors or []
    if len(paths) == 1:
        paths = paths * len(args.test)  # one file may serve every test set
    if paths and len(paths) != len(args.test):
        raise ConfigError("--vectors must appear once or once per test set")
    _check_out_dirs(args)
    if args.model:
        params, vocab = load_model(args.model)
        if params.config.mode == FROZEN_PROJECTION and not args.vectors:
            raise ConfigError("a frozen-projection model needs --vectors for the test sets")
        if params.config.mode == TRAINABLE and args.vectors:
            raise ConfigError("--vectors does not apply to a trainable model, which reads text")
    tests = _load_corpora(args.test)
    tables = _vector_tables(tests, paths)

    if args.model:
        name = args.model_name or Path(args.model).stem
        if args.vectors and tables[0].dim != params.config.d_in:
            raise CorpusError(f"{args.vectors[0]}: vectors of width {tables[0].dim} do not fit "
                              f"the model's input width d_in={params.config.d_in}")
    else:
        dim = tables[0].dim
        if args.hidden_width is not None and args.d_out == dim:
            raise ConfigError(f"--hidden-width needs a --d-out other than the vectors' width {dim}: "
                              "at that width ORIG is the identity")
        params = orig_model(_base_params(_orig_config(args, dim), None, args.seed))
        vocab = None
        name = args.model_name or "ORIG"

    input_fn = make_input_fn(params.config, vocab, {t.dataset_id: v for t, v in zip(tests, tables)})
    emit_report(_evaluate([(name, params)], tests, input_fn, spec), args.out)
    _log(f"report written to {args.out}")


def cmd_experiment(args) -> None:
    cfg = load_experiment_config(args.config)
    if args.out_dir is not None:
        cfg["out_dir"] = args.out_dir
    if args.seed is not None:
        cfg["seed"] = args.seed
    run_experiment(cfg)


def run_experiment(cfg: dict) -> Path:
    """Train every requested model, evaluate on every test set, and write
    the consolidated report. Returns the output directory.

    Fails fast on the first error; an INCOMPLETE marker flags partial
    output until the run finishes.
    """
    validate_experiment_config(cfg)
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    marker = out_dir / "INCOMPLETE"
    marker.write_text("experiment in progress\n", encoding="utf-8")
    try:
        _experiment_pipeline(cfg, out_dir)
    except Exception as err:
        marker.write_text(f"experiment failed: {err}\n", encoding="utf-8")
        raise
    marker.unlink()
    return out_dir


def _experiment_pipeline(cfg: dict, out_dir: Path) -> None:
    seed = cfg["seed"]
    enc = cfg["encoder"]

    train_corpora = _load_corpora(cfg["train_sets"])
    test_corpora = _load_corpora(cfg["test_sets"])
    paths = cfg["train_vectors"] + cfg["test_vectors"] if enc["mode"] == FROZEN_PROJECTION else []
    tables = _vector_tables(train_corpora + test_corpora, paths)
    config, vocab = _encoder_and_vocab(enc, tables, train_corpora or test_corpora)
    base_params = _base_params(config, vocab, seed)
    input_fn = make_input_fn(config, vocab, {c.dataset_id: t for c, t in zip(train_corpora, tables)})
    table = input_fn([ex for c in train_corpora for ex in c.examples])

    trained = []
    for model in cfg["models"]:
        _log(f"--- {model} ---")
        report = None
        if model == "ORIG":
            model_params = orig_model(base_params)
            _log("untrained surrogate; no finetuning")
        else:
            model_params, report = train_variant(
                model, base_params.copy(), train_corpora, table, cfg, seed
            )
        trained.append((model, model_params))
        save_model(out_dir / f"{model}.ptm", model_params, vocab, storage=cfg["model_format"])
        if report is not None:
            _write_loss_curve(out_dir / f"{model}.losses.tsv", report)

    eval_spec = EvalSpec(seed=seed + SEED_EVAL, **cfg["eval"])
    test_tables = tables[len(train_corpora):]
    test_fn = make_input_fn(config, vocab, {c.dataset_id: t for c, t in zip(test_corpora, test_tables)})
    rows = _evaluate(trained, test_corpora, test_fn, eval_spec)

    emit_report(rows, out_dir / "consolidated.tsv")
    metadata = {
        "name": cfg["name"],
        "package_version": __version__,
        "config": cfg,
        "orig_note": (
            "ORIG rows come from an untrained surrogate (the seed-initialized "
            "reference encoder, or an identity projection over supplied "
            "vectors), not from a pretrained sentence encoder."
        ),
    }
    with atomic_write(out_dir / "metadata.json", encoding="utf-8") as f:
        f.write(json.dumps(metadata, indent=2, sort_keys=True) + "\n")
    _log(f"consolidated report: {out_dir / 'consolidated.tsv'}")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="pairtune", description=__doc__)
    parser.add_argument("--version", action="version", version=f"pairtune {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="generate a seeded synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--dataset-id", default=None)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--examples-per-class", type=int, required=True)
    p.add_argument("--groups", type=int, required=True)
    p.add_argument("--group-size", type=int, default=20)
    p.add_argument("--groups-per-class", type=int, default=1)
    p.add_argument("--tokens-per-example", type=int, default=8)
    p.add_argument("--domain-noise", type=float, default=0.0)
    p.add_argument("--class-offset", type=int, default=0)
    p.add_argument("--namespace", default="")
    p.add_argument("--test-fraction", type=float, default=None)
    p.add_argument("--test-out", default=None)
    p.add_argument("--format", choices=sorted(_CORPUS_FORMATS), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("build-vocab", help="build a token vocabulary from corpora")
    p.add_argument("--train", action="append", required=True)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--format", choices=sorted(_CORPUS_FORMATS), default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("gen-pairs", help="generate same/different training pairs")
    p.add_argument("--train", action="append", required=True)
    p.add_argument("--pairs", type=int, default=None, help="total pair count")
    p.add_argument("--pairs-per-dataset", type=int, default=None)
    p.add_argument("--same-fraction", type=float, default=0.5)
    p.add_argument("--format", choices=sorted(_CORPUS_FORMATS), default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_pairs)

    p = sub.add_parser("train", help="finetune an encoder (NAIVE, SIAMESE or ALL)")
    p.add_argument("--mode", required=True)
    p.add_argument("--train", action="append", required=True)
    p.add_argument("--vectors", action="append", default=None,
                   help="per-train-set vector files; selects frozen-projection mode")
    p.add_argument("--vocab", default=None, help="reuse a saved vocabulary")
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--d-tok", type=int, default=16)
    p.add_argument("--hidden-width", type=int, default=64, help="encoder hidden width")
    p.add_argument("--d-out", type=int, default=512)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--learning-rate", type=float, default=1e-3)
    p.add_argument("--hidden-dim", type=int, default=128, help="NAIVE head width")
    p.add_argument("--pairs", type=int, default=None)
    p.add_argument("--pairs-per-dataset", type=int, default=None)
    p.add_argument("--pairs-in", default=None, help="replay a gen-pairs dump")
    p.add_argument("--same-fraction", type=float, default=0.5)
    p.add_argument("--loss-curve", default=None, help="write per-epoch losses here")
    p.add_argument("--format", choices=(STORAGE_BINARY, STORAGE_TEXT), default=STORAGE_BINARY)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate model(s) on test sets")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", default=None)
    group.add_argument("--orig", action="store_true",
                       help="untrained surrogate over --vectors embeddings")
    p.add_argument("--vectors", action="append", default=None)
    p.add_argument("--test", action="append", required=True)
    p.add_argument("--n-pairs", type=int, default=DEFAULT_EVAL_PAIRS)
    p.add_argument("--same-fraction", type=float, default=0.5)
    p.add_argument("--d-out", type=int, default=None,
                   help="with --orig: project to this width instead of identity")
    p.add_argument("--hidden-width", type=int, default=None,
                   help="with --orig and a --d-out other than the vectors' width: "
                        "hidden width of the projection (default 64)")
    p.add_argument("--model-name", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("experiment", help="run a configured multi-model experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:  # numpy seeds are >= 0
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        args.func(args)
        return EXIT_OK
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as err:
        print(f"invalid value: {err}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (CorpusError, EpisodeError) as err:
        print(f"data error: {err}", file=sys.stderr)
        return EXIT_DATA
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
