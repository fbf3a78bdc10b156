"""Deterministic run output writers.

Identical runs must produce byte-identical files, so everything is written
through one float formatter (17 significant digits, enough to round-trip a
double) with sorted JSON keys and fixed newlines.  ``snapshots.csv`` is
formatted by up to one process per available CPU, to the same bytes.
"""

from __future__ import annotations

import csv
import io
import os
import shutil
import tempfile
from dataclasses import fields

import numpy as np

SNAPSHOT_HEADER = ("t", "x", "index_label", "re", "im", "density")
BOUNDARY_HEADER = ("t", "x12", "crossed_fraction_left", "crossed_fraction_right")


def format_float(value: float) -> str:
    value = float(value)
    if value != value:
        return "NaN"
    if value == float("inf"):
        return "Infinity"
    if value == float("-inf"):
        return "-Infinity"
    return f"{value:.17g}"


def _encode(obj, out: list, indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        out.append("null")
    elif obj is True or obj is False:
        out.append("true" if obj else "false")
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        rendered = format_float(obj)
        # JSON has no literal for non-finite numbers; quote them
        out.append(rendered if rendered[-1].isdigit() else f'"{rendered}"')
    elif isinstance(obj, (complex, np.complexfloating)):
        _encode([obj.real, obj.imag], out, indent)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = sorted(obj.items())
        for i, (key, value) in enumerate(items):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
            out.append(pad + "  ")
            _encode(key, out, indent + 1)
            out.append(": ")
            _encode(value, out, indent + 1)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[\n")
        for i, value in enumerate(seq):
            out.append(pad + "  ")
            _encode(value, out, indent + 1)
            out.append(",\n" if i + 1 < len(seq) else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    out: list = []
    _encode(obj, out, 0)
    return "".join(out) + "\n"


def _format_column(values) -> list[str]:
    values = np.asarray(values, dtype=float)
    fmt = "{:.17g}".format if np.isfinite(values).all() else format_float
    return list(map(fmt, values.tolist()))


def _write_blocks(frames, fh) -> None:
    """Write each block as one string; one with a non-finite value goes through format_float."""
    x_text: dict = {}  # id(x) -> (x, formatted); holding x keeps its id unique
    for t, x, label, field in frames:
        if id(x) not in x_text:
            x_text[id(x)] = (x, _format_column(x))
        values = (field.real, field.imag, np.abs(field) ** 2)
        quoted = io.StringIO()  # the label as csv.writer quotes a field that is not first
        csv.writer(quoted, lineterminator="\n").writerow(("", label))
        head = format_float(t) + ",%s," + quoted.getvalue()[1:-1].replace("%", "%%") + ","
        if all(np.isfinite(v).all() for v in values):
            row, columns = head + "%.17g,%.17g,%.17g\n", [v.tolist() for v in values]
        else:
            row, columns = head + "%s,%s,%s\n", [_format_column(v) for v in values]
        fh.write("".join(map(row.__mod__, zip(x_text[id(x)][1], *columns))))


def write_snapshots_csv(frames, path: str) -> None:
    """One row per grid point of each frame block ``(t, x, label, field)``.

    A forked child formats each frame range after the first (about equal grid
    points, one per CPU) into an unlinked file; the parts are appended in order.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    n = min(cpus or 1, len(frames)) if hasattr(os, "fork") else 1
    points = np.cumsum([0] + [len(x) for _, x, _, _ in frames])
    cuts = np.searchsorted(points, points[-1] * np.arange(1, n) / n)
    bounds = [0, *np.unique(np.clip(cuts, 1, len(frames) - 1)).tolist(), len(frames)]
    pids, parts = [], []  # of each range after the first; a pid leaves once reaped
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            parts.append(tempfile.TemporaryFile("w+", newline="", dir=os.path.dirname(path)))
            pids.append(os.fork())
            if pids[-1] == 0:  # the child leaves through os._exit: no exit handler runs twice
                try:
                    _write_blocks(frames[lo:hi], parts[-1])
                    parts[-1].flush()
                    os._exit(0)
                finally:
                    os._exit(1)
        with open(path, "w", newline="") as fh:
            fh.write(",".join(SNAPSHOT_HEADER) + "\n")
            _write_blocks(frames[: bounds[1]], fh)
            for part in parts:
                if os.waitpid(pids.pop(0), 0)[1]:
                    raise OSError(f"a snapshot worker failed while writing {path}")
                part.seek(0)
                shutil.copyfileobj(part, fh)
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
        for part in parts:
            part.close()


def write_boundary_csv(rows, path: str) -> None:
    columns = np.asarray(rows, dtype=float).reshape(-1, len(BOUNDARY_HEADER)).T
    with open(path, "w", newline="") as fh:
        fh.write(",".join(BOUNDARY_HEADER) + "\n")
        fh.write("".join(map("%s,%s,%s,%s\n".__mod__, zip(*map(_format_column, columns)))))


def config_echo(cfg) -> dict:
    echo = {}
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, complex):
            value = [value.real, value.imag]
        echo[f.name] = value
    return echo


def write_run(result, out_dir: str) -> list[str]:
    """Write one run directory; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    names = ("snapshots.csv", "boundary.csv", "summary.json", "config.json")
    paths = [os.path.join(out_dir, name) for name in names]
    write_snapshots_csv(result.frames, paths[0])
    write_boundary_csv(result.boundary_rows, paths[1])
    for p, blob in zip(paths[2:], (result.summary, config_echo(result.config))):
        with open(p, "w", newline="") as fh:
            fh.write(dumps(blob))
    return paths
