"""The benchmark's own tests: a tiny smoke run and its correctness checks.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from workloads import BUILDERS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.01",
                 "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_traced_rewrite_does_no_elimination():
    proc = bench("--workload", "rewrite", "--seed", "3", "--seconds", "0.01",
                 "--trace", "1", "--tiny")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["exactalg.rref.calls"]["value"] == 0
    assert metrics["confring.reduce_word.calls"]["value"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "work-*", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "pages", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _first_pass(workload, workdir):
    wl = BUILDERS[workload](run.fresh_import(), 5, str(workdir), True)
    loop = run.Loop(wl)
    loop.run_pass()
    assert not loop.failures
    return wl, loop.first


def _index(wl, prefix):
    return next(i for i, op in enumerate(wl.ops) if op.label.startswith(prefix))


def _corrupt_pages(wl, results):
    # E_4 replaced by E_3 of the same torus model: d_3 is nonzero there
    tag = next(op.label.split(" ", 2)[2] for op in wl.ops
               if op.label.startswith("page r=4 torus"))
    results[_index(wl, f"page r=4 {tag}")] = results[_index(wl, f"page r=3 {tag}")]
    return wl.check(results)


def _corrupt_readme(wl, results):
    i = _index(wl, "cli ss page")
    code, stdout = results[i]
    results[i] = (code, stdout.replace("dim 1", "dim 2"))
    return wl.check(results)


def _corrupt_dense(wl, results):
    i = _index(wl, "pure")
    results[i] = dict(results[i], purity=dataclasses.replace(results[i]["purity"], ok=False))
    return wl.check(results)


def _corrupt_models(wl, results):
    i = _index(wl, "kernel_K")
    results[i] = dataclasses.replace(results[i], dims={**results[i].dims, 0: 2})
    return wl.check(results)


def _corrupt_rewrite(wl, results):
    i = next(i for i, op in enumerate(wl.ops)
             if op.label.startswith("normal_form") and not results[i].is_zero())
    results[i] = results[i].scale(2)
    return wl.check(results)


@pytest.mark.parametrize("workload, corrupt", [
    ("pages", _corrupt_pages), ("pages", _corrupt_readme), ("dense", _corrupt_dense),
    ("models", _corrupt_models), ("rewrite", _corrupt_rewrite)])
def test_check_fails_on_a_corrupted_result(workload, corrupt, tmp_path):
    wl, results = _first_pass(workload, tmp_path)
    assert wl.check(dict(results)) == {}
    assert corrupt(wl, dict(results))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_run_times_at_least_100_operations(workload, tmp_path):
    # at least ten latency samples must lie beyond p90
    wl = BUILDERS[workload](run.fresh_import(), 1, str(tmp_path), False)
    assert len(wl.ops) >= 100
