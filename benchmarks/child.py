"""One benchmark repetition in a fresh interpreter.

Usage: python3 child.py JOB.json

The job names the experiment configs, an output directory per config, a
result path and whether to trace. The repetition loads each config with
``load_experiment_config`` and runs it through ``pairtune.cli.run_experiment``,
as ``pairtune experiment`` does. Untraced, only the stage entry points the
end-to-end metrics need are wrapped (a handful of calls per run); traced,
every layer function in ``FINE`` is wrapped as well.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

from tracing import Tracer, totals_by_name

STAGES = ("episodes.generate", "training.train_naive", "training.train_siamese", "evaluation.delta")


def _add(key, value_fn):
    def count(counts, args, kwargs, result):
        counts[key] = counts.get(key, 0) + value_fn(args, kwargs, result)

    return count


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _siamese_pair_epochs(args, kwargs, result):
    return len(_arg(args, kwargs, 2, "pairs")) * _arg(args, kwargs, 4, "scfg").epochs


def _naive_example_epochs(args, kwargs, result):
    return len(_arg(args, kwargs, 2, "corpus")) * _arg(args, kwargs, 4, "ncfg").epochs


def _record_delta(counts, args, kwargs, result):
    counts["eval.pairs"] = counts.get("eval.pairs", 0) + result.n_pairs
    counts.setdefault("eval.reports", []).append([result.n_pairs, result.s_count, result.d_count])


def _max_vocab(counts, args, kwargs, result):
    counts["encoder.vocab_size"] = max(counts.get("encoder.vocab_size", 0), result.size)


def _adam_bytes(args, kwargs, result):
    # Adam reads and writes four float64 arrays per parameter: p, g, m, v.
    return 4 * 8 * sum(p.size for p in _arg(args, kwargs, 0, "params").values())


# (module, attribute, span name, counter) in the order they are wrapped.
COARSE = [
    ("pairtune.cli", "run_experiment", "cli.run_experiment", None),
    ("pairtune.cli", "generate_episodes", "episodes.generate",
     _add("episodes.pairs", lambda a, k, r: len(r))),
    ("pairtune.cli", "train_naive", "training.train_naive",
     _add("naive.example_epochs", _naive_example_epochs)),
    ("pairtune.cli", "train_siamese", "training.train_siamese",
     _add("siamese.pair_epochs", _siamese_pair_epochs)),
    ("pairtune.cli", "delta_cosine_distance", "evaluation.delta", _record_delta),
]
FINE = [
    ("pairtune.cli", "load_corpus", "corpus.load_corpus",
     _add("corpus.examples", lambda a, k, r: len(r))),
    ("pairtune.cli", "load_vectors", "corpus.load_vectors",
     _add("corpus.vector_bytes", lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")))),
    ("pairtune.cli", "build_vocab", "encoder.build_vocab", _max_vocab),
    ("pairtune.cli", "save_model", "encoder.save_model",
     _add("encoder.model_bytes", lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path")))),
    ("pairtune.encoder", "tokenize", "encoder.tokenize", None),
    ("pairtune.encoder", "encode", "encoder.encode", None),
    ("pairtune.training", "encode", "encoder.encode", None),
    ("pairtune.training", "encode_backward", "encoder.encode_backward", None),
    ("pairtune.evaluation", "generate_episodes", "episodes.generate",
     _add("episodes.pairs", lambda a, k, r: len(r))),
    ("pairtune.training", "siamese_pair_backward", "training.pair_step", None),
    ("pairtune.training", "naive_example_backward", "training.naive_step", None),
    ("pairtune.training", "optimizer_step", "training.optimizer_step",
     _add("training.adam_bytes", _adam_bytes)),
    ("pairtune.evaluation", "cosine_distance", "evaluation.cosine_distance", None),
]


def install(tracer: Tracer, traced: bool) -> None:
    """Wrap the stage entry points, plus every layer function when traced."""
    for module, attr, span, count in COARSE + (FINE if traced else []):
        tracer.wrap(importlib.import_module(module), attr, span, count)


def layer_metrics(tracer: Tracer, spans: dict, output_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, keyed by metric name."""
    calls, total_s, self_s = totals_by_name(spans, len(tracer.names))
    idx = {name: i for i, name in enumerate(tracer.names)}
    counts = tracer.counts

    def n(span):
        return int(calls[idx[span]]) if span in idx else 0

    def total(span):
        return float(total_s[idx[span]]) if span in idx else 0.0

    def own(span):
        return float(self_s[idx[span]]) if span in idx else 0.0

    # Distinct embeddings in eval are encode calls made directly under delta.
    delta_encodes = 0
    if "evaluation.delta" in idx and "encoder.encode" in idx:
        name, parent = spans["name"], spans["parent"]
        is_encode = name == idx["encoder.encode"]
        parent_name = name[parent[is_encode]]
        delta_encodes = int(((parent[is_encode] >= 0) & (parent_name == idx["evaluation.delta"])).sum())
    members = 2 * counts.get("eval.pairs", 0)
    steps = n("training.optimizer_step")
    return {
        "corpus.load_corpus.s": total("corpus.load_corpus"),
        "corpus.examples": counts.get("corpus.examples", 0),
        "corpus.load_vectors.s": total("corpus.load_vectors"),
        "corpus.vector_bytes": counts.get("corpus.vector_bytes", 0),
        "encoder.build_vocab.s": total("encoder.build_vocab"),
        "encoder.vocab_size": counts.get("encoder.vocab_size", 0),
        "encoder.tokenize.calls": n("encoder.tokenize"),
        "encoder.tokenize.s": total("encoder.tokenize"),
        "encoder.encode.calls": n("encoder.encode"),
        "encoder.encode.self_s": own("encoder.encode"),
        "encoder.encode_backward.calls": n("encoder.encode_backward"),
        "encoder.encode_backward.self_s": own("encoder.encode_backward"),
        "encoder.save_model.s": total("encoder.save_model"),
        "encoder.model_bytes": counts.get("encoder.model_bytes", 0),
        "episodes.generate.calls": n("episodes.generate"),
        "episodes.generate.s": total("episodes.generate"),
        "episodes.pairs": counts.get("episodes.pairs", 0),
        "training.pair_step.self_s": own("training.pair_step"),
        "training.naive_step.self_s": own("training.naive_step"),
        "training.optimizer_step.calls": steps,
        "training.optimizer_step.self_s": own("training.optimizer_step"),
        "training.adam_bytes_per_step": (
            counts.get("training.adam_bytes", 0) // steps if steps else 0
        ),
        "training.loop.self_s": own("training.train_siamese") + own("training.train_naive"),
        "evaluation.delta.self_s": own("evaluation.delta"),
        "evaluation.cosine_distance.calls": n("evaluation.cosine_distance"),
        "evaluation.cosine_distance.self_s": own("evaluation.cosine_distance"),
        "evaluation.embed_reuse_ratio": 1.0 - delta_encodes / members if members else 0.0,
        "cli.run_experiment.s": total("cli.run_experiment"),
        "cli.self_s": own("cli.run_experiment"),
        "cli.output_bytes": output_bytes,
        "trace.spans": int(spans["name"].size),
    }


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text(encoding="utf-8"))
    import pairtune.cli as cli

    tracer = Tracer(run_id=job["run_id"])
    install(tracer, job["traced"])
    wall_ns = 0
    output_bytes = 0
    try:
        for config_path, out_dir in zip(job["configs"], job["out_dirs"]):
            cfg = cli.load_experiment_config(config_path)
            cfg["out_dir"] = out_dir
            started = time.monotonic_ns()
            cli.run_experiment(cfg)
            wall_ns += time.monotonic_ns() - started
            output_bytes += _dir_bytes(Path(out_dir))
    finally:
        tracer.restore()
    spans = tracer.spans()
    calls, total_s, _ = totals_by_name(spans, len(tracer.names))
    idx = {name: i for i, name in enumerate(tracer.names)}
    stage_starts = [
        int(spans["start"][spans["name"] == idx[s]].min()) for s in STAGES if s in idx and calls[idx[s]]
    ]
    result = {
        "wall_s": wall_ns / 1e9,
        "first_stage_ns": min(stage_starts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train_siamese_s": float(total_s[idx["training.train_siamese"]]),
        "train_naive_s": float(total_s[idx["training.train_naive"]]),
        "delta_s": float(total_s[idx["evaluation.delta"]]),
        "counts": tracer.counts,
    }
    if job["traced"]:
        result["layers"] = layer_metrics(tracer, spans, output_bytes)
        tracer.save(job["spans_path"])
    Path(job["result_path"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
