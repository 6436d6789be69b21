"""Guard for the benchmark under bench/, which is kept fixed between its
refreshes: every function it wraps must still exist, and every workload it
declares must still build its instances."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def load_bench_module(name, monkeypatch):
    """bench/<name>.py loaded by file path, as bench/run.py's own imports see it."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(monkeypatch):
    tracing = load_bench_module("tracing", monkeypatch)
    assert tracing.TARGETS
    for layer, fname in tracing.TARGETS:
        target = getattr(importlib.import_module(f"opiniongame.{layer}"), fname, None)
        assert callable(target), f"opiniongame.{layer}.{fname}"


@pytest.mark.parametrize("name", WORKLOADS)
def test_every_workload_builds(monkeypatch, tmp_path, name):
    # the builds check each generated family through solver.spectral_data
    workloads = load_bench_module("workloads", monkeypatch)
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOADS)
    assert workloads.build(name, 0, tmp_path)
