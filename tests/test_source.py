"""Checks on the package source itself."""

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
