"""Checks on the package source itself."""

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
