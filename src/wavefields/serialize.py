"""Deterministic run output writers.

Identical runs must produce byte-identical files, so every float is written
as ``format_float`` writes it (``'%.17g'``: 17 significant digits, enough to
round-trip a double) with sorted JSON keys and fixed newlines.  Text is
UTF-8.  ``snapshots.csv`` is formatted by up to one process per available
CPU, to the same bytes.

The CSV files format their floats with ``_format_column``, a numpy kernel
that writes the bytes of ``format_float`` for a whole column at once.  For
``1e-280 < |v| < 1e280`` it scales v by ``10**(16 - k)``, k the decimal
exponent, as ``p + r``: ``p = fl(|v| * hi)`` is an integer (it exceeds
2**53), and r is Dekker's exact error of that product plus ``|v| * lo``,
where ``hi + lo`` is 10**(16 - k) to about 106 bits.  r is off by under
1e-14, so rounding r gives the exact round-half-even 17-digit integer
unless r lies within 1e-6 of a half.  Such a near tie, a scaled value
outside ``[10**16, 10**17)`` (next to a power of ten), a value outside
that range of magnitudes, and a non-finite value go through
``format_float`` one by one; in real runs that is almost never.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import os
import shutil
import tempfile
from dataclasses import fields
from json.encoder import encode_basestring
from types import SimpleNamespace

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
        out.append(encode_basestring(obj))  # json.dumps's escaper with ensure_ascii=False
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


_PAD = 0xFF  # fills the kernel's fixed-width cells; UTF-8 text never holds it
_CELL = 32  # bytes per formatted value: sign, lead, d0, dot | d1..d16 | exponent
_ROWS = 4096  # rows per kernel call, so the scratch arrays stay small
_POW = range(-266, 300)  # the j of the 10**j table: 16 - k for every k of the fast range
_EXP = range(-300, 300)  # the decimal exponents of the layout tables


@functools.cache
def _tables() -> SimpleNamespace:
    """The kernel's lookup tables, built on first use so that importing stays cheap."""
    hi, lo = [], []
    for j in _POW:  # 10**j = num / den; int true division rounds correctly
        num, den = 10 ** max(j, 0), 10 ** max(-j, 0)
        hi.append(num / den)
        n, d = hi[-1].as_integer_ratio()
        lo.append((num * d - n * den) / (den * d))
    hi, lo = np.array(hi), np.array(lo)
    split = hi * 134217729.0  # 2**27 + 1: hi = hh + hl, each with at most 26 bits
    hh = split - (split - hi)
    quads = np.frombuffer("".join(f"{i:04d}" for i in range(10000)).encode(), np.uint8)
    quads = quads.reshape(-1, 4)
    zeros = np.logical_and.accumulate(quads[:, ::-1] == ord("0"), axis=1)[:, ::-1]
    trimmed = np.where(zeros, _PAD, quads)
    # [sign][lead "0.", "0.0", "0.00" or "0.000"][d0][dot], by (lead, sign, d0, dot)
    heads = np.full((5, 2, 10, 2, 8), _PAD, np.uint8)
    heads[:, 1, ..., 0] = ord("-")
    for i in range(1, 5):
        heads[i, ..., 1 : 2 + i] = np.frombuffer(b"0." + b"0" * (i - 1), np.uint8)
    heads[..., 6] = ord("0") + np.arange(10)[:, None]
    heads[0, ..., 1, 7] = ord(".")
    exps = np.full((len(_EXP), 8), _PAD, np.uint8)
    for i, e in enumerate(_EXP):
        if e < -4 or e > 16:  # '%g' writes these in scientific notation
            text = f"e{e:+03d}".encode()
            exps[i, : len(text)] = np.frombuffer(text, np.uint8)
    return SimpleNamespace(
        hi=hi,
        lo=lo,
        hh=hh,
        hl=hi - hh,
        # a group of four digits, then the same without its trailing zeros
        quads=np.concatenate([quads, trimmed]).view(np.uint32).ravel(),
        heads=heads.reshape(-1, 8).view(np.uint64).ravel(),
        lead=np.array([-e if -4 <= e < 0 else 0 for e in _EXP]),
        exps=exps.view(np.uint64).ravel(),
    )


def _format_column(values) -> np.ndarray:
    """``(n, 32)`` uint8: row i holds ``format_float(values[i])``, padded with _PAD bytes."""
    v = np.asarray(values, dtype=float).ravel()
    tab = _tables()
    a = np.abs(v)
    fast = (a > 1e-280) & (a < 1e280)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)  # the decimal exponent, or one off next to 10**k
    j = 16 - k - _POW.start
    # a * 10**(16 - k) = p + r exactly, but for a rounding under 1e-14 in r
    p = a * tab.hi[j]
    split = a * 134217729.0
    ah = split - (split - a)
    al = a - ah
    hh, hl = tab.hh[j], tab.hl[j]
    r = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * tab.lo[j]
    rounded = np.rint(r)
    d = p.astype(np.int64) + rounded.astype(np.int64)
    near_tie = np.abs(np.abs(r - rounded) - 0.5) < 1e-6
    # outside [10**16, 10**17) k was one off, or the rounding carried into a new decade
    ok = fast & ~near_tie & ((p - 1e16) + r >= 0) & (d < 10**17)
    d = np.where(ok, d, 0)  # zeros come out as "0" and "-0"; the rest are overwritten below
    k = np.where(ok, k, 0)
    e = k - _EXP.start
    d0, frac = np.divmod(d, 10**16)
    g1, rest = np.divmod(frac, 10**12)
    g2, rest = np.divmod(rest, 10**8)
    g3, g4 = np.divmod(rest, 10**4)
    # '%g' drops trailing zeros: a group loses its own when every later group is zero
    z3 = g4 == 0
    z2 = z3 & (g3 == 0)
    z1 = z2 & (g2 == 0)
    out = np.empty((len(v), _CELL), np.uint8)
    head = ((tab.lead[e] * 2 + np.signbit(v)) * 10 + d0) * 2 + (frac != 0)
    out.view(np.uint64)[:, 0] = tab.heads[head]
    for col, (g, zeros) in enumerate(((g1, z1), (g2, z2), (g3, z3), (g4, True)), start=2):
        out.view(np.uint32)[:, col] = tab.quads[g + 10000 * zeros]
    out.view(np.uint64)[:, 3] = tab.exps[e]
    # fixed notation with X >= 1: d1..dX, untrimmed, move left over the dot
    for x in np.unique(k[(k > 0) & (k < 17)]).tolist():
        rows = np.flatnonzero(k == x)
        digits = tab.quads[np.stack([g1[rows], g2[rows], g3[rows], g4[rows]], axis=1)]
        out[rows, 7 : 7 + x] = digits.view(np.uint8)[:, :x]
        out[rows, 7 + x] = np.where(frac[rows] % 10 ** (16 - x) != 0, ord("."), _PAD)
    for i in np.flatnonzero(~ok & (v != 0)).tolist():
        text = format_float(v[i]).encode()
        out[i] = _PAD
        out[i, : len(text)] = np.frombuffer(text, np.uint8)
    return out


def _text(values, ends: bytes) -> np.ndarray:
    """``(n, 33 m)`` uint8: each value of the ``(n, m)`` table, then its column's end byte."""
    n, m = values.shape
    out = np.empty((n, m, _CELL + 1), np.uint8)
    out[..., :_CELL] = _format_column(values).reshape(n, m, _CELL)
    out[..., _CELL] = np.frombuffer(ends, np.uint8)
    return out.reshape(n, -1)


@contextlib.contextmanager
def _replacing(path: str):
    """A binary file opened beside ``path`` that replaces it only if the block succeeds."""
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_rows(pieces, fh) -> None:
    """Write the rows of pieces ``(head, x_text, mid, field)`` with one kernel call."""
    fields = np.concatenate([field for *_, field in pieces])
    values = _text(np.stack([fields.real, fields.imag, np.abs(fields) ** 2], axis=1), b",,\n")
    wh = max(len(head) for head, *_ in pieces)
    wm = max(len(mid) for _, _, mid, _ in pieces)
    start = wh + _CELL + 1 + wm  # of the values
    out = np.empty((len(fields), start + values.shape[1]), np.uint8)
    out[:, start:] = values
    row = 0
    for head, x_text, mid, field in pieces:
        block = out[row : row + len(field)]
        block[:, :wh] = np.frombuffer(head.ljust(wh, bytes([_PAD])), np.uint8)
        block[:, wh : start - wm] = x_text
        block[:, start - wm : start] = np.frombuffer(mid.ljust(wm, bytes([_PAD])), np.uint8)
        row += len(field)
    fh.write(out[out != _PAD])


def _write_blocks(frames, fh) -> None:
    """Write the blocks' rows, about _ROWS rows per kernel call."""
    x_text: dict = {}  # (id(x), start) -> (x, formatted); holding x keeps its id unique
    pieces, rows = [], 0
    for t, x, label, field in frames:
        quoted = io.StringIO()  # the label as csv.writer quotes a field that is not first
        csv.writer(quoted, lineterminator="\n").writerow(("", label))
        head, mid = (format_float(t) + ",").encode(), (quoted.getvalue()[1:-1] + ",").encode()
        for lo in range(0, len(x), _ROWS):
            if (id(x), lo) not in x_text:
                x_text[id(x), lo] = (x, _text(np.asarray(x[lo : lo + _ROWS])[:, None], b","))
            pieces.append((head, x_text[id(x), lo][1], mid, field[lo : lo + _ROWS]))
            rows += len(pieces[-1][-1])
            if rows >= _ROWS:
                _write_rows(pieces, fh)
                pieces, rows = [], 0
    if pieces:
        _write_rows(pieces, fh)


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
            parts.append(tempfile.TemporaryFile("w+b", dir=os.path.dirname(path)))
            pids.append(os.fork())
            if pids[-1] == 0:  # the child leaves through os._exit: no exit handler runs twice
                try:
                    _write_blocks(frames[lo:hi], parts[-1])
                    parts[-1].flush()
                    os._exit(0)
                finally:
                    os._exit(1)
        with _replacing(path) as fh:
            fh.write((",".join(SNAPSHOT_HEADER) + "\n").encode())
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
    table = np.asarray(rows, dtype=float).reshape(-1, len(BOUNDARY_HEADER))
    with _replacing(path) as fh:
        fh.write((",".join(BOUNDARY_HEADER) + "\n").encode())
        for lo in range(0, len(table), _ROWS):
            text = _text(table[lo : lo + _ROWS], b",,,\n")
            fh.write(text[text != _PAD])


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
        with _replacing(p) as fh:
            fh.write(dumps(blob).encode())
    return paths
