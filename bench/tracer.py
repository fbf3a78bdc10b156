"""Per-layer tracing of wavefields from outside the package.

The tracer wraps public functions of each module and records one span
per call: (name, start, end, parent span, run id).  Modules bind many
of these functions by name (``engine`` does ``from .spatial import
Propagator, current``; ``scenarios`` does ``from .engine import advance,
meet, ...``; ``cli`` binds ``run_scenario`` and ``write_run``), so
wrapping only the defining module would miss those calls.  ``install``
therefore replaces every binding of each target in the package and its
modules, and ``Propagator.step`` on the class itself.

``scenarios._frame`` is the one non-public name wrapped.  It is safe to
wrap because the scenario runners look it up in the module namespace at
call time.

numpy's FFT entry points are wrapped with counters only (no spans),
since every FFT the program makes goes through ``np.fft`` attribute
lookups in ``spatial``.

Spans are kept in memory and written out by ``dump``.  The tracer
assumes wrapped functions are called from one thread; the ensemble
thread pool calls none of them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

PACKAGE_MODULES = (
    "spatial", "boundary", "engine", "memory", "hilbert",
    "ensemble", "scenarios", "serialize", "cli",
)
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft", "irfft")


# --- hooks: generators run around a call, outside its span ------------------


def _rows(counts, args, kwargs):
    psi = np.asarray(args[1])
    steps = kwargs.get("steps", args[2] if len(args) > 2 else 1)
    rows = psi.shape[0] if psi.ndim == 2 else 1
    zero = int(np.count_nonzero(~psi.reshape(rows, -1).any(axis=1)))
    yield
    counts["spatial.row_steps"] += rows * steps
    counts["spatial.zero_row_steps"] += zero * steps


def _steps(counts, args, kwargs):
    state = args[0]
    before = state.step_count
    yield
    counts["engine.steps"] += state.step_count - before


def _occupied(counts, args, kwargs):
    state, a, b = args[0], args[1], args[2]
    for name in (a, b):
        wf = state.wavefields.get(name) if name is not None else None
        if wf is not None:
            counts["boundary.occupied_in"] += sum(1 for p in wf.packets if p.region is None)
    yield


def _cells(counts, args, kwargs):
    transfers = yield
    for t in transfers:
        n_out, n_in = t.matrix.shape
        counts["boundary.transfer_cells"] += n_out * n_in
        counts["boundary.columns"] += n_in


def _ledger_ops(counts, args, kwargs):
    counts["memory.ledger_ops"] += len(args[0].ops)
    yield


def _trials(counts, args, kwargs):
    counts["ensemble.trials"] += args[2]
    yield


def _frame_rows(counts, args, kwargs):
    rows = args[1]
    before = len(rows)
    yield
    counts["scenarios.frame_rows"] += len(rows) - before


def _bytes(counts, args, kwargs):
    paths = yield
    counts["serialize.bytes"] += sum(os.path.getsize(p) for p in paths)


# (module, attribute, span name, hook)
TARGETS = (
    ("spatial", "Propagator.step", "spatial.step", _rows),
    ("spatial", "current", "spatial.current", None),
    ("boundary", "find_initial_boundary", "boundary.law", None),
    ("boundary", "step_boundary_fields", "boundary.law", None),
    ("boundary", "apply_boundary_transfer", "boundary.reindex", None),
    ("boundary", "transfer_matrices_synced", "boundary.transfer", _cells),
    ("boundary", "is_isometry", "boundary.isometry", None),
    ("engine", "advance", "engine.advance", _steps),
    ("engine", "meet", "engine.meet", _occupied),
    ("engine", "total_mass", "engine.total_mass", None),
    ("engine", "validate_against_memory", "engine.validate", None),
    ("memory", "record_interaction", "memory.record", None),
    ("memory", "linearize", "memory.linearize", _ledger_ops),
    ("memory", "synchronize", "memory.synchronize", None),
    ("memory", "derive_state", "memory.derive", None),
    ("hilbert", "apply", "hilbert.apply", None),
    ("hilbert", "expand_product_terms", "hilbert.expand", None),
    ("ensemble", "statistics_report", "ensemble.stats", _trials),
    ("scenarios", "run_scenario", "scenarios.run", None),
    ("scenarios", "_frame", "scenarios.frame", _frame_rows),
    ("serialize", "write_run", "serialize.write", _bytes),
    ("serialize", "write_snapshots_csv", "serialize.snapshots", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Spans and counters of traced runs; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run = 0
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping --

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = tracer.counts[tracer.run]
            around = hook(counts, args, kwargs) if hook else None
            if around is not None:
                next(around)
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, tracer.run)
            if around is not None:
                try:
                    around.send(result)
                except StopIteration:
                    pass
            return result

        return traced

    def _count_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(a, *args, **kwargs):
            counts = tracer.counts[tracer.run]
            counts["spatial.fft_calls"] += 1
            counts["spatial.bytes_computed"] += np.asarray(a).nbytes
            return fn(a, *args, **kwargs)

        return counted

    def install(self) -> None:
        """Wrap every binding of every target, plus numpy's FFTs."""
        import wavefields

        modules = [wavefields] + [importlib.import_module(f"wavefields.{m}") for m in PACKAGE_MODULES]
        for mod_name, attr, name, hook in TARGETS:
            owner = importlib.import_module(f"wavefields.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(vars(cls)[meth], name, hook))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        for fn in FFT_FUNCTIONS:
            self._patch(np.fft, fn, self._count_fft(getattr(np.fft, fn)))

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output --

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def layer_metrics(self, run: int) -> dict[str, float]:
        """Per-layer metrics of one traced run, keyed by metric name."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s is not None and s[4] == run]
        by_index = {i: s for i, s in spans}
        child_time = Counter()
        for _, (_, start, end, parent, _) in spans:
            if parent >= 0:
                child_time[parent] += end - start

        def ancestors(span):
            parent = span[3]
            while parent >= 0:
                yield by_index[parent][0]
                parent = by_index[parent][3]

        busy, own, calls = Counter(), Counter(), Counter()
        norm_audit = 0.0
        linearize_in_meet = 0
        for i, span in spans:
            name, start, end = span[0], span[1], span[2]
            up = set(ancestors(span))
            calls[name] += 1
            own[name] += end - start - child_time[i]
            if name not in up:
                busy[name] += end - start
            if name == "engine.total_mass" and "engine.advance" in up:
                norm_audit += end - start
            if name == "memory.linearize" and "engine.meet" in up:
                linearize_in_meet += 1

        c = self.counts[run]

        def ratio(num, den):
            return num / den if den else 0.0

        meets = calls["engine.meet"]
        return {
            "spatial.step_s": busy["spatial.step"],
            "spatial.row_steps": c["spatial.row_steps"],
            "spatial.zero_row_frac": ratio(c["spatial.zero_row_steps"], c["spatial.row_steps"]),
            "spatial.fft_calls": c["spatial.fft_calls"],
            "spatial.bytes_computed": c["spatial.bytes_computed"],
            "spatial.current_s": busy["spatial.current"],
            "spatial.current_calls": calls["spatial.current"],
            "boundary.law_s": busy["boundary.law"],
            "boundary.reindex_s": busy["boundary.reindex"],
            "boundary.reindex_calls": calls["boundary.reindex"],
            "boundary.transfer_s": busy["boundary.transfer"],
            "boundary.transfer_calls": calls["boundary.transfer"],
            "boundary.transfer_cells": c["boundary.transfer_cells"],
            "boundary.transfer_col_use": ratio(c["boundary.occupied_in"], c["boundary.columns"]),
            "boundary.isometry_s": busy["boundary.isometry"],
            "engine.advance_s": busy["engine.advance"],
            "engine.advance_self_s": own["engine.advance"],
            "engine.steps": c["engine.steps"],
            "engine.norm_audit_s": norm_audit,
            "engine.meet_s": busy["engine.meet"],
            "engine.meet_self_s": own["engine.meet"],
            "engine.meets": meets,
            "engine.validate_s": busy["engine.validate"],
            "memory.record_s": busy["memory.record"],
            "memory.linearize_s": busy["memory.linearize"],
            "memory.linearize_calls": calls["memory.linearize"],
            "memory.linearize_per_meet": ratio(linearize_in_meet, meets),
            "memory.synchronize_s": busy["memory.synchronize"],
            "memory.derive_s": busy["memory.derive"],
            "memory.ledger_ops": c["memory.ledger_ops"],
            "hilbert.apply_s": busy["hilbert.apply"],
            "hilbert.apply_calls": calls["hilbert.apply"],
            "hilbert.expand_s": busy["hilbert.expand"],
            "ensemble.stats_s": busy["ensemble.stats"],
            "ensemble.trials_per_s": ratio(c["ensemble.trials"], busy["ensemble.stats"]),
            "scenarios.run_s": busy["scenarios.run"],
            "scenarios.self_s": own["scenarios.run"],
            "scenarios.frame_s": busy["scenarios.frame"],
            "scenarios.frame_rows": c["scenarios.frame_rows"],
            "serialize.write_s": busy["serialize.write"],
            "serialize.snapshots_s": busy["serialize.snapshots"],
            "serialize.bytes": c["serialize.bytes"],
            "serialize.mb_per_s": ratio(c["serialize.bytes"] / 1e6, busy["serialize.write"]),
            "cli.self_s": own["cli.main"],
        }
