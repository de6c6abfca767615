"""The pairtune benchmark: one workload, repeated in fresh processes.

Usage, from the root of a source checkout:

    python3 benchmarks/run.py --workload paper-dims --seed 1 --seconds 28 --trace 0

The runner generates the workload's inputs from the seed, then repeats the
experiment in a fresh interpreter (``child.py``) until ``--seconds`` are
used, checks every repetition's outputs, and prints a summary followed by
one JSON line. With ``--trace 0`` the JSON holds the end-to-end metrics
(medians over repetitions); with ``--trace 1`` it alternates untraced and
traced repetitions and holds the per-layer metrics and the tracing
overhead. A detailed record, including the environment, is written to
``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = Path("src")
SPEC = Path("BENCHMARK.json")
OUT_ROOT = Path(".bench_out")
# Every run, its input generation included, ends within this many seconds.
RUN_BUDGET_S = 170.0
MIN_REPS = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
REPORT_COLUMNS = (
    "model", "test_set", "n_pairs", "mean_same", "mean_diff", "same_stderr", "diff_stderr", "delta",
)


class BenchError(Exception):
    """The benchmark cannot run here: not a checkout, or bad arguments."""


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _read(path) -> str | None:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level in ("2", "3") and kind in ("Unified", "Data") and size:
            sizes[f"L{level}"] = size
    return sizes


def _git_commit() -> str | None:
    """HEAD of a git checkout in the working directory, read without git."""
    head = _read(".git/HEAD")
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(f".git/{ref}")
    if loose:
        return loose
    for line in (_read(".git/packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas[k] for k in ("name", "version", "openblas configuration") if k in blas},
        "thread_env": {v: os.environ.get(v, "unset") for v in THREAD_VARS},
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def parse_consolidated(path: Path) -> list[dict]:
    """Rows of a consolidated.tsv, parsed independently of the program."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or tuple(lines[0].split("\t")) != REPORT_COLUMNS:
        raise ValueError("bad header")
    rows = []
    for line in lines[1:]:
        fields = line.split("\t")
        if len(fields) != len(REPORT_COLUMNS):
            raise ValueError(f"malformed row {line!r}")
        row = dict(zip(REPORT_COLUMNS, fields))
        row["n_pairs"] = int(row["n_pairs"])
        for key in REPORT_COLUMNS[3:]:
            row[key] = float(row[key])
        rows.append(row)
    return rows


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(workload, out_dirs, eval_reports, test_names):
    """Check one repetition's outputs against the workload's expectations.

    Returns (first-test-set delta by model, failures, sha256 by output file).
    Each failure is a (model, reason) pair, so failed variant-runs can be
    counted.
    """
    from workloads import CONFIG_MODELS, SAME_FRACTION

    deltas, failures, hashes = {}, [], {}
    rows_by_model = {}
    for models, out in zip(CONFIG_MODELS, map(Path, out_dirs)):
        if (out / "INCOMPLETE").exists():
            failures += [(m, f"INCOMPLETE marker in {out.name}") for m in models]
            continue
        try:
            rows = parse_consolidated(out / "consolidated.tsv")
        except (OSError, ValueError) as err:
            failures += [(m, f"consolidated.tsv unreadable: {err}") for m in models]
            continue
        hashes[f"{out.name}/consolidated.tsv"] = (_sha256(out / "consolidated.tsv"), models)
        if len(rows) != len(models) * len(test_names):
            failures += [(m, f"{len(rows)} report rows, expected {len(models) * len(test_names)}")
                         for m in models]
        for m in models:
            ptm = out / f"{m}.ptm"
            if ptm.is_file():
                hashes[f"{out.name}/{ptm.name}"] = (_sha256(ptm), (m,))
            else:
                failures.append((m, f"no {ptm.name}"))
            mine = [r for r in rows if r["model"] == m]
            if [r["test_set"] for r in mine] != test_names:
                failures.append((m, f"rows for {[r['test_set'] for r in mine]}, expected {test_names}"))
            for r in mine:
                for key in ("delta", "same_stderr", "diff_stderr"):
                    if not math.isfinite(r[key]):
                        failures.append((m, f"non-finite {key} on {r['test_set']}"))
            if mine:
                rows_by_model[m] = mine
                deltas[m] = mine[0]["delta"]

    # delta_cosine_distance runs once per (model, test set), in config order.
    evaluated = [m for models in CONFIG_MODELS for m in models for _ in test_names]
    if len(eval_reports) != len(evaluated):
        failures += [(m, f"{len(eval_reports)} evaluations, expected {len(evaluated)}")
                     for m in dict.fromkeys(evaluated)]
    for model, (n_pairs, s_count, d_count) in zip(evaluated, eval_reports):
        want = int(n_pairs * SAME_FRACTION + 0.5)
        if (s_count, d_count) != (want, n_pairs - want):
            failures.append((model, f"same/diff counts {s_count}/{d_count}, expected {want}/{n_pairs - want}"))

    if workload.claim_siamese_beats_orig and {"SIAMESE", "ORIG"} <= rows_by_model.keys():
        for siam, orig in zip(rows_by_model["SIAMESE"], rows_by_model["ORIG"]):
            if not siam["delta"] > orig["delta"]:
                failures.append(("SIAMESE", f"delta {siam['delta']:.6f} <= ORIG {orig['delta']:.6f} "
                                            f"on {siam['test_set']}"))
    return deltas, failures, hashes


def compare_hashes(hashes: dict, reference: dict) -> list[tuple[str, str]]:
    """Failures for output files whose sha256 differs from repetition 0."""
    failures = []
    for key in sorted(set(hashes) | set(reference)):
        got, want = hashes.get(key), reference.get(key)
        if got is None or want is None or got[0] != want[0]:
            models = (got or want)[1]
            failures += [(m, f"{key} differs from repetition 0") for m in models]
    return failures


# ---------------------------------------------------------------------------
# repetitions
# ---------------------------------------------------------------------------


def run_rep(rep: int, traced: bool, configs: list[Path], run_dir: Path, spans_path: Path,
            timeout: float) -> dict:
    """One repetition in a fresh interpreter; returns its raw record."""
    rep_dir = run_dir / f"rep{rep}"
    rep_dir.mkdir(parents=True)
    job = {
        "run_id": rep,
        "traced": traced,
        "configs": [str(p) for p in configs],
        "out_dirs": [str(rep_dir / p.name.split(".")[0]) for p in configs],
        "result_path": str(rep_dir / "result.json"),
        "spans_path": str(spans_path),
    }
    job_path = rep_dir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.resolve()), str(BENCH_DIR)]))
    record = {"rep": rep, "traced": traced, "out_dirs": job["out_dirs"]}
    with open(rep_dir / "stderr.log", "wb") as err:
        spawned = time.monotonic_ns()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "child.py"), str(job_path)],
                stdout=subprocess.DEVNULL, stderr=err, env=env, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            record["error"] = f"repetition timed out after {timeout:.0f} s"
            return record
    record["process_s"] = (time.monotonic_ns() - spawned) / 1e9
    if proc.returncode != 0:
        tail = (rep_dir / "stderr.log").read_text(encoding="utf-8", errors="replace")[-1500:]
        record["error"] = f"repetition exited {proc.returncode}: {tail}"
        return record
    result = json.loads((rep_dir / "result.json").read_text(encoding="utf-8"))
    counts = result["counts"]
    record.update(
        wall_s=result["wall_s"],
        setup_s=(result["first_stage_ns"] - spawned) / 1e9,
        peak_rss_mb=result["peak_rss_mb"],
        siamese_pairs_per_s=counts["siamese.pair_epochs"] / result["train_siamese_s"],
        naive_examples_per_s=counts["naive.example_epochs"] / result["train_naive_s"],
        eval_pairs_per_s=counts["eval.pairs"] / result["delta_s"],
        eval_reports=counts["eval.reports"],
    )
    if traced:
        record["layers"] = result["layers"]
    return record


def is_traced(rep: int, trace: bool) -> bool:
    """Traced runs alternate untraced and traced repetitions as U T T U U T T U ..."""
    return trace and rep % 4 in (1, 2)


def summarize(values: list[float], lower_is_better: bool) -> dict:
    """Median plus the highest percentile with at least ten runs beyond it."""
    n = len(values)
    out = {"median": statistics.median(values), "n": n, "tail_percentile": None, "tail": None}
    if n > 10:
        p = math.floor(100 * (n - 10) / n)
        ordered = sorted(values, reverse=not lower_is_better)
        out["tail_percentile"] = p
        out["tail"] = ordered[max(0, math.ceil(p / 100 * n) - 1)]
    return out


def load_spec() -> dict:
    if not (SRC / "pairtune" / "cli.py").is_file() or not SPEC.is_file():
        raise BenchError("run from the root of a pairtune checkout (src/pairtune and BENCHMARK.json)")
    return json.loads(SPEC.read_text(encoding="utf-8"))


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Generate inputs, repeat the workload for ``seconds`` and aggregate."""
    began = time.monotonic()
    spec = load_spec()
    if seed < 0 or seconds <= 0:
        raise BenchError("--seed must be >= 0 and --seconds > 0")
    sys.path[:0] = [str(SRC.resolve()), str(BENCH_DIR)]
    from workloads import WORKLOADS, generate

    if workload_name not in WORKLOADS:
        raise BenchError(f"unknown workload '{workload_name}'; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[workload_name]
    label = f"{workload_name}-seed{seed}-trace{int(trace)}"
    run_dir, results = OUT_ROOT / label, OUT_ROOT / "results"
    shutil.rmtree(run_dir, ignore_errors=True)
    results.mkdir(parents=True, exist_ok=True)
    configs = generate(workload, seed, run_dir / "inputs")
    compileall.compile_dir(str(SRC / "pairtune"), quiet=1)
    test_names = [f"test{i + 1}" for i in range(workload.test_sets)]

    records, reference = [], None
    measuring = time.monotonic()
    while True:
        rep = len(records)
        timeout = RUN_BUDGET_S - (time.monotonic() - began)
        record = run_rep(
            rep, is_traced(rep, trace), configs, run_dir, results / f"{label}.spans.npz", timeout
        )
        eval_reports = record.pop("eval_reports", [])
        if "error" in record:
            failures = [(m, record["error"]) for m in workload.models]
        else:
            record["deltas"], failures, hashes = check_outputs(
                workload, record["out_dirs"], eval_reports, test_names
            )
            if reference is None:
                reference = hashes
            else:
                failures += compare_hashes(hashes, reference)
        shutil.rmtree(run_dir / f"rep{rep}", ignore_errors=True)
        record["failures"] = [f"{m}: {why}" for m, why in failures]
        record["failed_variants"] = len({m for m, _ in failures})
        records.append(record)
        if "error" in record:
            break
        longest = max(r["process_s"] for r in records)
        now = time.monotonic()
        if len(records) >= MIN_REPS and (
            now - measuring + longest > seconds or now - began + longest > RUN_BUDGET_S
        ):
            break

    untraced = [r for r in records if "error" not in r and not r["traced"]]
    traced = [r for r in records if "error" not in r and r["traced"]]
    if not untraced or (trace and not traced):
        raise RuntimeError("no repetition completed: " + records[-1].get("error", "unknown error"))

    end_to_end = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        if name.startswith("delta_"):
            model = name.split("_", 1)[1].upper()
            values = [r["deltas"][model] for r in untraced if model in r["deltas"]]
        else:
            values = [r[name] for r in untraced]
        if values:
            end_to_end[name] = {"unit": metric["unit"], **summarize(values, metric["better"] == "lower")}
    attempted = len(records) * len(workload.models)
    failed = sum(r["failed_variants"] for r in records)
    detail = {
        "workload": workload_name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": environment(),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "end_to_end": end_to_end,
        "repetitions": records,
    }
    if trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        layers = {}
        for name in traced[0]["layers"]:
            values = [r["layers"][name] for r in traced]
            counts = all(isinstance(v, int) for v in values) and len(set(values)) == 1
            layers[name] = values[0] if counts else statistics.median(values)
        layers["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced)
            - statistics.median(r["wall_s"] for r in untraced)
        )
        detail["per_layer"] = {name: {"value": v, "unit": units[name]} for name, v in layers.items()}
    detail["detail_path"] = str(results / f"{label}.json")
    Path(detail["detail_path"]).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(run_dir, ignore_errors=True)
    return detail


def report(detail: dict) -> dict:
    """Print the human-readable summary; return the final JSON object."""
    env = detail["environment"]
    print(f"workload {detail['workload']}, seed {detail['seed']}, trace {int(detail['trace'])}: "
          f"{len(detail['repetitions'])} repetitions, failed_ratio {detail['failed_ratio']:.4g} "
          f"({detail['failed']} of {detail['attempted']} variant-runs)")
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    for rec in detail["repetitions"]:
        for failure in rec["failures"]:
            print(f"check failed in repetition {rec['rep']}: {failure}")
    for name, s in detail["end_to_end"].items():
        tail = (f"p{s['tail_percentile']} {s['tail']:.6g}" if s["tail_percentile"] is not None
                else "no percentile has 10 runs beyond it")
        print(f"  {name} = {s['median']:.6g} {s['unit']} (median of {s['n']} runs; {tail})")
    if detail["trace"]:
        for name, m in detail["per_layer"].items():
            print(f"  {name} = {m['value']:.6g} {m['unit']}")
        metrics = detail["per_layer"]
    else:
        metrics = {name: {"value": s["median"], "unit": s["unit"]}
                   for name, s in detail["end_to_end"].items()}
    print(f"detail: {detail['detail_path']}")
    return {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one pairtune benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        detail = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    except RuntimeError as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    print(json.dumps(report(detail)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
