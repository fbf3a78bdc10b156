"""Host speed probes: fixed jobs that share no code with wavefields.

The machine the benchmark runs on is shared, and its speed drifts by a
third or more over minutes (NOTES.md, "Bounds and steadiness").  So
every timed run is bracketed by ``probe()``, a fixed job of the same
kinds of work the program does: float formatting into CSV rows in plain
Python, and numpy FFTs over packet rows.  A time is then reported at the
reference host speed, ``wall * REFERENCE_S / probe_s``, where
``probe_s`` is the mean of the probes just before and after it.
Set-up is process start and imports, which drift apart from compute,
so set-up times are bracketed by ``import_probe()`` instead and scaled
by ``IMPORT_REFERENCE_S``.  The probes call nothing in wavefields, so a
change to the program moves the wall time and not the probes.
"""

from __future__ import annotations

import csv
import io
import subprocess
import sys
import time

import numpy as np

# probe() and import_probe() on the reference host at its usual speed:
# 2 vCPUs, Python 3.11, numpy 2.4 (the machine record in NOTES.md).
REFERENCE_S = 0.40
IMPORT_REFERENCE_S = 0.22

_CSV_ROWS = 30_000
_FFT_ROUNDS = 600
_ROWS = np.random.default_rng(0).standard_normal((6, 1024)) + 0j


def probe() -> float:
    """Wall seconds of the fixed reference job."""
    t0 = time.perf_counter()
    writer = csv.writer(io.StringIO(), lineterminator="\n")
    x = 0.123456789
    for _ in range(_CSV_ROWS):
        x = x * 1.0000001 + 1e-9
        writer.writerow((repr(x), repr(-x), "a", repr(2 * x), repr(3 * x), repr(x * x)))
    for _ in range(_FFT_ROUNDS):
        np.fft.ifft(np.fft.fft(_ROWS, axis=1), axis=1)
    return time.perf_counter() - t0


def import_probe() -> float:
    """Wall seconds to start a fresh interpreter that imports numpy."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


def at_reference(wall_s: float, probe_s: float, reference_s: float = REFERENCE_S) -> float:
    """``wall_s`` scaled to the reference host speed."""
    return wall_s * reference_s / probe_s
