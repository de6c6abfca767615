"""Tests for the benchmark's own code: tracing, inputs, metric names, runs.

Run from the repository root:

    python3 -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from conftest import BENCH_DIR, ROOT
import child
from tracing import Tracer, self_times, totals_by_name
from workloads import WORKLOADS, generate

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E_NAMES = [m["name"] for m in SPEC["end_to_end"]]
LAYER_NAMES = [m["name"] for m in SPEC["per_layer"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_self_time_on_hand_built_span_tree():
    # root [0, 100) has children a [10, 40) and b [50, 90); a has child c
    # [15, 25). Only direct children count against a span's self time.
    start = np.array([0, 10, 15, 50])
    end = np.array([100, 40, 25, 90])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [30, 20, 10, 40]

    spans = {"name": np.array([0, 1, 2, 1]), "start": start, "end": end, "parent": parent}
    calls, total_s, self_s = totals_by_name(spans, 3)
    assert calls.tolist() == [1, 2, 1]
    assert np.allclose(total_s * 1e9, [100, 70, 10])
    assert np.allclose(self_s * 1e9, [30, 60, 10])


def test_tracer_records_nesting_and_counts():
    import types

    mod = types.SimpleNamespace(__name__="fake")
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    with Tracer(run_id=7) as tracer:
        tracer.wrap(mod, "inner", "inner", lambda c, a, k, r: c.update(n=c.get("n", 0) + a[0]))
        tracer.wrap(mod, "outer", "outer")
        assert mod.outer(3) == 8
        assert mod.outer(4) == 10
    spans = tracer.spans()
    names = [tracer.names[i] for i in spans["name"]]
    assert names == ["outer", "inner", "outer", "inner"]
    assert spans["parent"].tolist() == [-1, 0, -1, 2]
    assert (spans["end"] >= spans["start"]).all()
    assert tracer.counts == {"n": 7}


def test_wrappers_restore_originals_after_traced_run(tmp_path):
    targets = {(m, a) for m, a, _, _ in child.COARSE + child.FINE}
    before = {t: getattr(importlib.import_module(t[0]), t[1]) for t in targets}
    configs = generate(WORKLOADS["desk-dims"], 0, tmp_path / "inputs")
    import pairtune.cli as cli

    with Tracer() as tracer:
        child.install(tracer, traced=True)
        assert all(getattr(importlib.import_module(m), a) is not f for (m, a), f in before.items())
        cfg = cli.load_experiment_config(configs[1])
        cfg["out_dir"] = str(tmp_path / "out")
        cfg["siamese"]["epochs"] = 1
        cli.run_experiment(cfg)
    assert all(getattr(importlib.import_module(m), a) is f for (m, a), f in before.items())
    assert tracer.counts["siamese.pair_epochs"] == 2 * WORKLOADS["desk-dims"].all_pairs_per_dataset


def _tree_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_input_generator_is_byte_deterministic_per_seed(name, tmp_path, monkeypatch):
    # Configs name their inputs by the relative path the runner passes in.
    for d, seed in zip("abc", (3, 3, 4)):
        (tmp_path / d).mkdir()
        monkeypatch.chdir(tmp_path / d)
        generate(WORKLOADS[name], seed, "inputs")
    a, b, c = (_tree_bytes(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c


def test_metric_names_are_well_formed_and_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    for name in E2E_NAMES + LAYER_NAMES + list(WORKLOADS):
        assert NAME.fullmatch(name), name
    assert len(set(E2E_NAMES + LAYER_NAMES)) == len(E2E_NAMES) + len(LAYER_NAMES)


def _run(args, cwd, timeout=170):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_of_each_workload(name):
    proc = _run(["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "1"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == LAYER_NAMES
    detail = json.loads((ROOT / ".bench_out/results" / f"{name}-seed1-trace1.json").read_text())
    assert list(detail["end_to_end"]) == E2E_NAMES
    assert all(s["median"] > 0 for s in detail["end_to_end"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(["--workload", "desk-dims", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
