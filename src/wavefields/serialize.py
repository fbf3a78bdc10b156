"""Deterministic run output writers.

Identical runs must produce byte-identical files, so every float is written
as ``format_float`` writes it (``'%.17g'``: 17 significant digits, enough to
round-trip a double) with sorted JSON keys and fixed newlines.  Text is
UTF-8.  ``snapshots.csv`` is formatted by up to one process per available
CPU and per ``_FORK_ROWS`` grid points, to the same bytes; blocks of one
frame time whose fields hold the same bits share one formatting of their
values.

The CSV files format their floats with ``_format_column``, a numpy kernel
that writes the bytes of ``format_float`` for a whole column at once.  For
finite nonzero ``|v| < 1e280`` it scales v by ``10**(16 - k)``, k the
decimal exponent, as ``p + r``: ``p = fl(|v| * hi)`` is an integer (it
exceeds 2**53), and r is Dekker's exact error of that product plus
``|v| * lo``, where ``hi + lo`` is 10**(16 - k) to about 106 bits (for
k <= -281, 2**-1000 times that, with |v| scaled by the exact 2**1000).
r is off by under 1e-14, so rounding r gives the exact round-half-even
17-digit integer unless r lies within 1e-6 of a half.  Such a near tie,
a scaled value outside ``[10**16, 10**17)`` (next to a power of ten),
``|v| >= 1e280`` and a non-finite value go through ``format_float``.
"""

from __future__ import annotations

import collections
import contextlib
import csv
import functools
import io
import itertools
import os
import shutil
import tempfile
from dataclasses import asdict
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


def _seq(texts, pad: str, brackets: str = "[]") -> str:
    """Encoded ``texts`` as json.dumps(indent=2) lays out a container closed at indent ``pad``."""
    if not texts:
        return brackets
    return f"{brackets[0]}\n{pad}  " + f",\n{pad}  ".join(texts) + f"\n{pad}{brackets[1]}"


def _encode(obj, pad: str) -> str:
    """The JSON text of ``obj`` as json.dumps(indent=2) lays it out at indent ``pad``."""
    if obj is None:
        return "null"
    if obj is True or obj is False:
        return "true" if obj else "false"
    if isinstance(obj, str):
        return encode_basestring(obj)  # json.dumps's escaper with ensure_ascii=False
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        rendered = format_float(obj)
        # JSON has no literal for non-finite numbers; quote them
        return rendered if rendered[-1].isdigit() else f'"{rendered}"'
    if isinstance(obj, (complex, np.complexfloating)):
        return _encode([obj.real, obj.imag], pad)
    if isinstance(obj, dict):
        items = sorted(obj.items())
        for key, _ in items:
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be strings, got {key!r}")
        return _seq([f"{_encode(k, '')}: {_encode(v, pad + '  ')}" for k, v in items], pad, "{}")
    if isinstance(obj, (list, tuple, np.ndarray)):
        return _seq([_encode(value, pad + "  ") for value in obj], pad)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    return _encode(obj, "") + "\n"


_PAD = 0xFF  # fills the kernel's fixed-width cells; UTF-8 text never holds it
_PADS = bytes([_PAD])
_CELL = 32  # bytes per formatted value: sign, lead, d0, dot | d1..d16 | exponent
_ROWS = 4096  # rows per kernel call, so the scratch arrays stay small
_FORK_ROWS = 32768  # least grid points per snapshot process: a fork costs more on fewer
_POW = range(-266, 341)  # the j of the 10**j table: 16 - k for every k of the fast range
_EXP = range(-324, 300)  # the decimal exponents of the layout tables
_TINY = -281  # values of this decimal exponent or less are scaled by 2**1000 first


@functools.cache
def _tables() -> SimpleNamespace:
    """The kernel's lookup tables, built on first use so that importing stays cheap."""
    hi, lo = [], []
    for j in _POW:  # 10**j = num / den, times 2**-1000 for tiny values; int division rounds right
        num, den = 10 ** max(j, 0), 10 ** max(-j, 0) << (1000 if 16 - j <= _TINY else 0)
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
    fast = (a > 0.0) & (a < 1e280)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)  # the decimal exponent, or one off next to 10**k
    a = a * np.where(k > _TINY, 1.0, 2.0**1000)  # exact, and a subnormal comes out normal
    j = 16 - k - _POW.start
    # a * (hi + lo) = p + r exactly, but for a rounding under 1e-14 in r
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
    top = d // 10**8  # d0 and the digits d1..d8; the 8-digit halves fit uint32
    low = (d - top * 10**8).astype(np.uint32)
    top = top.astype(np.uint32)
    d0 = top // 10**8
    mid = top - d0 * 10**8
    g1, g3 = mid // 10**4, low // 10**4
    g2, g4 = mid - g1 * 10**4, low - g3 * 10**4
    # '%g' drops trailing zeros: a group loses its own when every later group is zero
    z3 = g4 == 0
    z2 = z3 & (g3 == 0)
    z1 = z2 & (g2 == 0)
    out = np.empty((len(v), _CELL), np.uint8)
    head = ((tab.lead[e] * 2 + np.signbit(v)) * 10 + d0) * 2 + ((mid | low) != 0)
    out.view(np.uint64)[:, 0] = tab.heads[head]
    for col, (g, zeros) in enumerate(((g1, z1), (g2, z2), (g3, z3), (g4, True)), start=2):
        out.view(np.uint32)[:, col] = tab.quads[g + 10000 * zeros]
    out.view(np.uint64)[:, 3] = tab.exps[e]
    # fixed notation with X >= 1: d1..dX, untrimmed, move left over the dot
    for x in np.unique(k[(k > 0) & (k < 17)]).tolist():
        rows = np.flatnonzero(k == x)
        digits = tab.quads[np.column_stack([g[rows] for g in (g1, g2, g3, g4)])].view(np.uint8)
        out[rows, 7 : 7 + x] = digits[:, :x]
        out[rows, 7 + x] = np.where((digits[:, x:] != ord("0")).any(axis=1), ord("."), _PAD)
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
    """Write the rows of pieces ``(head, x_text, mid, field, slot, first)``, one kernel call.

    The ``first`` piece of a ``slot`` formats its values and leaves their text there for the rest.
    """
    wh = max(len(head) for head, *_ in pieces)
    start = wh + max(x_text.shape[1] + len(mid) for _, x_text, mid, *_ in pieces)  # of the values
    out = np.empty((sum(len(p[3]) for p in pieces), start + 3 * (_CELL + 1)), np.uint8)
    out[:, start + _CELL :: _CELL + 1] = np.frombuffer(b",,\n", np.uint8)
    fields = np.concatenate([f for *_, f, _, first in pieces if first] or [np.empty(0, complex)])
    cells = _format_column(np.stack([fields.real, fields.imag, np.abs(fields) ** 2], axis=1))
    cells, row = cells.reshape(-1, 3, _CELL), 0
    for head, x_text, mid, field, slot, first in pieces:
        block, wx = out[row : row + len(field)], wh + x_text.shape[1]
        block[:, :wh] = np.frombuffer(head.ljust(wh, _PADS), np.uint8)
        block[:, wh:wx] = x_text
        block[:, wx:start] = np.frombuffer(mid.rjust(start - wx, _PADS), np.uint8)
        values = block[:, start:]
        if first:  # the kernel's cells go straight into the row table
            cells_in = values.reshape(-1, 3, _CELL + 1, copy=False)[..., :_CELL]
            cells_in[...], cells = cells[: len(field)], cells[len(field) :]
            if slot is not None:
                slot.append(values.copy())
        else:
            values[...] = slot[0]
        row += len(field)
    fh.write(out.tobytes().translate(None, _PADS))


def _write_blocks(frames, fh) -> None:
    """Write the blocks' rows, about _ROWS rows per kernel call."""
    x_text: dict = {}  # (id(x), start) -> (x, formatted); holding x keeps its id unique
    pieces, rows = [], 0
    for _, frame in itertools.groupby(frames, lambda block: block[0]):
        parts = []  # (head, x_text, mid, field) of each _ROWS rows of the frame's blocks
        for t, x, label, field in frame:
            quoted = io.StringIO()  # the label as csv.writer quotes a field that is not first
            csv.writer(quoted, lineterminator="\n").writerow(("", label))
            head, mid = (format_float(t) + ",").encode(), (quoted.getvalue()[1:-1] + ",").encode()
            for lo in range(0, len(x), _ROWS):
                if (id(x), lo) not in x_text:  # without the columns that are pad in every row
                    text = _text(np.asarray(x[lo : lo + _ROWS])[:, None], b",")
                    x_text[id(x), lo] = (x, text[:, (text != _PAD).any(axis=0)])
                parts.append((head, x_text[id(x), lo][1], mid, field[lo : lo + _ROWS]))
        keys = [(field.dtype, field.tobytes()) for *_, field in parts]  # -0.0, NaNs differ
        uses = collections.Counter(keys)
        slots: dict = {}  # bits that recur in this frame time -> the text of their values
        for part, key in zip(parts, keys):
            first, slot = key not in slots, slots.setdefault(key, []) if uses[key] > 1 else None
            pieces.append((*part, slot, first))
            rows += len(part[3])
            if rows >= _ROWS:
                _write_rows(pieces, fh)
                pieces, rows = [], 0
    if pieces:
        _write_rows(pieces, fh)


def _cut(frames, cut: int) -> int:
    """``cut``, or the nearer end of its frame time if a field of that time repeats across it."""
    same = [i for i, (t, *_) in enumerate(frames) if t == frames[cut][0]]  # a run: in time order
    lo, hi = (same[0], same[-1] + 1) if same else (cut, cut)
    keys = [(frames[i][3].dtype, frames[i][3].tobytes()) for i in range(lo, hi)]
    if (lo, hi) == (0, len(frames)) or set(keys[: cut - lo]).isdisjoint(keys[cut - lo :]):
        return cut  # a single frame time is cut all the same
    return lo if lo and (cut - lo <= hi - cut or hi == len(frames)) else hi


def write_snapshots_csv(frames, path: str) -> None:
    """One row per grid point of each frame block ``(t, x, label, field)``.

    A forked child formats each frame range after the first (about equal grid
    points, one per ``_FORK_ROWS`` of them up to one per CPU, and no field of a
    frame time in two) into an unlinked file; the parts are appended in order.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    points = np.cumsum([0] + [len(x) for _, x, _, _ in frames])
    n = min(cpus or 1, len(frames), max(1, points[-1] // _FORK_ROWS)) if hasattr(os, "fork") else 1
    cuts = np.clip(np.searchsorted(points, points[-1] * np.arange(1, n) / n), 1, len(frames) - 1)
    bounds = [0, *sorted({_cut(frames, cut) for cut in cuts.tolist()}), len(frames)]
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
            fh.write(_text(table[lo : lo + _ROWS], b",,,\n").tobytes().translate(None, _PADS))


def write_run(result, out_dir: str) -> list[str]:
    """Write one run directory; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    names = ("snapshots.csv", "boundary.csv", "summary.json", "config.json")
    paths = [os.path.join(out_dir, name) for name in names]
    write_snapshots_csv(result.frames, paths[0])
    write_boundary_csv(result.boundary_rows, paths[1])
    for p, blob in zip(paths[2:], (result.summary, asdict(result.config))):
        with _replacing(p) as fh:
            fh.write(dumps(blob).encode())
    return paths
