"""Checks on the package source itself."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import wavefields

MAX_LINE = 99


def test_no_source_line_is_longer_than_99_characters():
    sources = sorted(Path(wavefields.__file__).parent.glob("*.py"))
    assert sources
    long_lines = [
        f"{path.name}:{number}: {len(line)}"
        for path in sources
        for number, line in enumerate(path.read_text().splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


def test_importing_the_package_loads_no_process_pool():
    # start-up is timed end to end; the snapshot writer forks without a pool
    probe = (
        "import sys, wavefields; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in "
        "('multiprocessing', 'concurrent')))"
    )
    src = str(Path(wavefields.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"


def test_every_traced_target_resolves_in_the_package():
    # the benchmark's tracer wraps these names; one that no longer resolves
    # would make every traced run fail at install
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("wavefields_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    missing = []
    for module, attribute, *_ in tracer.TARGETS:
        owner = importlib.import_module(f"wavefields.{module}")
        for part in attribute.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}.{attribute}")
    assert missing == []
