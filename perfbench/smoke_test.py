"""Smoke test of the benchmark on tiny derived configs (n = 64, thin plans).

Run from the repository root:

    python3 -m pytest -q perfbench/smoke_test.py

It is not part of the repository's test suite.  It checks that every
metric named in BENCHMARK.json is emitted with its unit, on every
workload, traced and untraced, and that the benchmark refuses to run
without the evofam sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIGS = ROOT / "src" / "evofam" / "data" / "configs"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
THIN_PLAN = {"time_samples": 8, "moduli_per_ray": 4, "pair_grid": 4,
             "resolvent_pair_grid": 4, "resolvent_moduli": 2, "tau_samples": 2,
             "kato_lambdas": 2, "kato_partitions": 2, "kato_kmax": 2}


@pytest.fixture(scope="module")
def tiny_configs(tmp_path_factory):
    out = tmp_path_factory.mktemp("configs")
    for path in CONFIGS.glob("*.json"):
        config = json.loads(path.read_text())
        config["grid"]["n"] = 64
        config["plans"] = THIN_PLAN
        if "solver" in config:
            config["solver"]["steps"] = 32
        if "transport" in config:
            config["transport"].update(cells=60, refinements=[15, 30, 60])
        (out / path.name).write_text(json.dumps(config))
    return out


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(tiny_configs, workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3",
                     "--seconds", "0.1", "--trace", trace,
                     "--config-dir", str(tiny_configs))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", SPEC["workloads"][0]["name"],
                     "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
