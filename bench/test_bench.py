"""Self-checks of the benchmark itself (not part of the package's suite).

    python3 -m pytest bench/test_bench.py

The traced test runs each workload briefly, about a minute in all.
"""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import PACKAGE_MODULES, TARGETS, Tracer

sys.path.insert(0, os.path.join(run.ROOT, "src"))


def _input_files(name, seed, directory):
    workloads.WORKLOADS[name](seed, str(directory / "in"), str(directory / "out"))
    return {p.name: p.read_bytes() for p in (directory / "in").iterdir()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(tmp_path, name):
    first = _input_files(name, workloads.DEFAULT_SEED, tmp_path / "a")
    assert first == _input_files(name, workloads.DEFAULT_SEED, tmp_path / "b")
    assert first != _input_files(name, workloads.HELDOUT_SEED, tmp_path / "c")


def test_install_patches_every_binding_and_uninstall_restores():
    import wavefields

    modules = [wavefields] + [importlib.import_module(f"wavefields.{m}") for m in PACKAGE_MODULES]
    originals = {}
    for mod_name, attr, _, _ in TARGETS:
        owner = importlib.import_module(f"wavefields.{mod_name}")
        if "." not in attr:
            originals[attr] = getattr(owner, attr)
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    tracer = Tracer()
    tracer.install()
    try:
        for mod in modules:
            for key, value in vars(mod).items():
                assert all(value is not fn for fn in originals.values()), f"{mod.__name__}.{key} not wrapped"
        # names bound by `from .x import y` are the ones a defining-module patch misses
        assert wavefields.engine.current is not originals["current"]
        assert wavefields.scenarios.advance is not originals["advance"]
        assert wavefields.cli.run_scenario is not originals["run_scenario"]
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())


@pytest.fixture(scope="module")
def traced():
    """Per-layer metrics of one short traced invocation per workload."""
    out = {}
    for name in sorted(workloads.WORKLOADS):
        proc = subprocess.run(
            [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", name,
             "--seed", str(workloads.HELDOUT_SEED), "--seconds", "1", "--trace", "1"],
            cwd=run.ROOT, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        out[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


def test_traced_runs_are_correct_and_report_every_layer_metric(traced):
    for name, line in traced.items():
        assert line["correct"] and line["failed"] == 0, name
        assert set(line["metrics"]) == set(run.LAYERS), name


@pytest.mark.parametrize("metric", sorted(run.LAYERS))
def test_layer_metric_records_on_the_workloads_it_moves(traced, metric):
    for name in run.LAYERS[metric][1]:
        assert traced[name]["metrics"][metric]["value"] != 0, f"{metric} recorded nothing on {name}"


def test_cli_self_time_stays_small(traced):
    for name in ("crossing", "snapshots"):
        metrics = traced[name]["metrics"]
        assert 0 < metrics["cli.self_s"]["value"] < 0.05 * metrics["trace.run_s"]["value"]


def test_untraced_work_counts_match_the_trace(traced):
    for name, line in traced.items():
        assert line["metrics"]["engine.meets"]["value"] == workloads.WORKLOADS[name].meets_per_run


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "crossing", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_host_speed_probe_runs_no_program_code():
    code = "import sys, hostspeed; hostspeed.probe(); print(any(m.startswith('wavefields') for m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=run.HERE, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
