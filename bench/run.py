"""Benchmark of wavefields: one workload per invocation.

    python3 bench/run.py --workload crossing --seed 1 --seconds 38 --trace 0

Run from the root of a checkout.  The workload runs in a fresh child
process (bench/child.py) that imports wavefields from ``src``.  Before
it, SETUP_CHILDREN more children only set up (import and generate the
seeded inputs), so ``setup_s`` is a median.  The report goes to stdout,
and its last line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off.  Their times are scaled to the reference host speed by
the probes of hostspeed.py, because this host's speed drifts; the
report prints the raw wall times next to them.  With ``--trace 1`` they are the per-layer ones from the
traced runs, plus the tracing overhead.  A run counts as failed when
the program exits nonzero, raises, fails one of its own audits, or
disagrees with the benchmark's own checks (see workloads.py).  The exit
code is 0 whenever a result is printed; without a checkout to build
from, or when a child dies, it is nonzero and no result is printed.
NOTES.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
DEADLINE_S = 170.0
SETUP_CHILDREN = 6

END_TO_END_UNITS = {
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "steps_per_s": "steps/s",
    "out_mb_per_s": "MB/s",
    "meets_per_s": "meets/s",
}

# Per-layer metrics: unit, and the workloads whose end-to-end metrics
# the layer should move (NOTES.md has the table with reasons).  On the
# other workloads the metric should stay flat.  cli.self_s moves
# nothing; it checks that the command line's own share stays small.
LAYERS = {
    "spatial.step_s": ("s", ("crossing", "snapshots")),
    "spatial.row_steps": ("count", ("crossing", "snapshots")),
    "spatial.zero_row_frac": ("ratio", ("crossing",)),
    "spatial.fft_calls": ("count", ("crossing", "snapshots")),
    "spatial.bytes_computed": ("B", ("crossing", "snapshots")),
    "spatial.current_s": ("s", ("crossing",)),
    "spatial.current_calls": ("count", ("crossing",)),
    "boundary.law_s": ("s", ("crossing",)),
    "boundary.reindex_s": ("s", ("crossing",)),
    "boundary.reindex_calls": ("count", ("crossing",)),
    "boundary.transfer_s": ("s", ("ledger",)),
    "boundary.transfer_calls": ("count", ("ledger",)),
    "boundary.transfer_cells": ("count", ("ledger",)),
    "boundary.transfer_col_use": ("ratio", ("ledger",)),
    "boundary.isometry_s": ("s", ("ledger",)),
    "engine.advance_s": ("s", ("crossing",)),
    "engine.advance_self_s": ("s", ("crossing",)),
    "engine.steps": ("count", ("crossing",)),
    "engine.norm_audit_s": ("s", ("crossing",)),
    "engine.meet_s": ("s", ("ledger",)),
    "engine.meet_self_s": ("s", ("ledger",)),
    "engine.meets": ("count", ("ledger",)),
    "engine.validate_s": ("s", ("ledger",)),
    "memory.record_s": ("s", ("ledger",)),
    "memory.linearize_s": ("s", ("ledger",)),
    "memory.linearize_calls": ("count", ("ledger",)),
    "memory.linearize_per_meet": ("ratio", ("ledger",)),
    "memory.synchronize_s": ("s", ("ledger",)),
    "memory.derive_s": ("s", ("ledger",)),
    "memory.ledger_ops": ("count", ("ledger",)),
    "hilbert.apply_s": ("s", ("ledger",)),
    "hilbert.apply_calls": ("count", ("ledger",)),
    "hilbert.expand_s": ("s", ("ledger",)),
    "ensemble.stats_s": ("s", ("ledger",)),
    "ensemble.trials_per_s": ("trials/s", ("ledger",)),
    "scenarios.run_s": ("s", ("snapshots",)),
    "scenarios.self_s": ("s", ("snapshots",)),
    "scenarios.frame_s": ("s", ("snapshots",)),
    "scenarios.frame_rows": ("count", ("snapshots",)),
    "serialize.write_s": ("s", ("snapshots",)),
    "serialize.snapshots_s": ("s", ("snapshots",)),
    "serialize.bytes": ("B", ("snapshots",)),
    "serialize.mb_per_s": ("MB/s", ("snapshots",)),
    "cli.self_s": ("s", ()),
    "trace.run_s": ("s", ("crossing", "snapshots", "ledger")),
    "trace.untraced_run_s": ("s", ("crossing", "snapshots", "ledger")),
    "trace.overhead_s": ("s", ("crossing", "snapshots", "ledger")),
}
LAYER_UNITS = {name: unit for name, (unit, _) in LAYERS.items()}


class ChildFailed(Exception):
    pass


def _child(args, deadline: float, setup_only: bool) -> tuple[dict, float]:
    """Run one child to completion; returns its result and setup time."""
    cmd = [
        sys.executable, CHILD, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"child did not finish within {DEADLINE_S:.0f} s") from None
    finally:
        # also on SIGTERM (see main): never leave the child running.  The
        # child removes its work directory when terminated.
        if proc.poll() is None:
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    return result, result["ready_at"] - started


def _timed(result: dict, traced: bool) -> list[dict]:
    """The runs timed into metrics: no warm-up, traced or untraced."""
    return [r for r in result["runs"] if r["traced"] == traced and not r["warmup"]]


def _end_to_end(result: dict, setups: list[tuple[float, float]]) -> dict[str, float]:
    runs = _timed(result, traced=False)
    run_s = statistics.median(r["at_reference_s"] for r in runs)
    ok = [r for r in runs if not r["problems"]] or runs

    def per_run(key):
        return statistics.median(r.get(key, 0) for r in ok)

    return {
        "run_s": run_s,
        "setup_s": statistics.median(hostspeed.at_reference(s, p, hostspeed.IMPORT_REFERENCE_S) for s, p in setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "steps_per_s": per_run("steps") / run_s,
        "out_mb_per_s": per_run("bytes") / 1e6 / run_s,
        "meets_per_s": per_run("meets") / run_s,
    }


def _per_layer(result: dict) -> dict[str, float]:
    layers = result["layers"]
    metrics = {k: float(statistics.median(r[k] for r in layers)) for k in layers[0]}
    plain = statistics.median(r["wall_s"] for r in _timed(result, traced=False))
    traced = statistics.median(r["wall_s"] for r in _timed(result, traced=True))
    metrics.update({"trace.run_s": traced, "trace.untraced_run_s": plain, "trace.overhead_s": traced - plain})
    return metrics


def _quartiles(values) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median {statistics.median(values):.4f}, quartiles {q1:.4f} .. {q3:.4f}"


def _report(args, result: dict, metrics: dict, units: dict, setups: list[tuple[float, float]]) -> None:
    runs = result["runs"]
    failed = [r for r in runs if r["problems"]]
    plain = _timed(result, traced=False)
    print(f"# wavefields benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"# machine: {json.dumps(result['machine'], sort_keys=True)}")
    print(f"# sizes: {json.dumps(result['sizes'], sort_keys=True)}")
    print(f"# inputs sha256: {result['inputs_sha256']}")
    print(f"# runs: {len(runs)} attempted, {len(failed)} failed")
    for r in failed:
        print(f"#   failed: {'; '.join(r['problems'])}")
    print(f"# {len(plain)} untraced runs after a warm-up run")
    print(f"#   wall s: {_quartiles([r['wall_s'] for r in plain])}")
    print(f"#   probe s: {_quartiles([p for r in plain for p in r['probes_s']])} (reference {hostspeed.REFERENCE_S} s)")
    print(f"#   s at reference speed: {_quartiles([r['at_reference_s'] for r in plain])}")
    if not args.trace:
        print(f"# setup_s median of {len(setups)} set-ups, wall s: {', '.join(f'{s:.4f}' for s, _ in setups)}")
        print(f"#   import probe s: {', '.join(f'{p:.4f}' for _, p in setups)} (reference {hostspeed.IMPORT_REFERENCE_S} s)")
    phases = {k for r in plain for k in r["phases"]}
    for phase in sorted(phases):
        values = [r["phases"][phase] for r in plain if phase in r["phases"]]
        if values:
            print(f"# phase {phase}: median {statistics.median(values):.4f} s over {len(values)} runs")
    if "trace_file" in result:
        print(f"# spans written to {result['trace_file']}")
    for name, value in metrics.items():
        print(f"{name:28s} {value:>16.6g} {units[name]}")
    print(f"{'fail_frac':28s} {len(failed) / len(runs):>16.6g} ratio")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="wavefields benchmark, one workload per call")
    parser.add_argument("--workload", required=True, choices=("crossing", "snapshots", "ledger"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "wavefields", "__init__.py")):
        print(f"run.py: no wavefields sources under {ROOT}/src; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        # Set-up times, each with the mean of the import probes on either
        # side; the measuring child's own set-up has only the one before it.
        setups = []
        if not args.trace:
            probe_s = hostspeed.import_probe()
            for _ in range(SETUP_CHILDREN):
                setup = _child(args, deadline, setup_only=True)[1]
                probe_after = hostspeed.import_probe()
                setups.append((setup, (probe_s + probe_after) / 2))
                probe_s = probe_after
        result, setup = _child(args, deadline, setup_only=False)
        if not args.trace:
            setups.append((setup, probe_s))
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics, units = _per_layer(result), LAYER_UNITS
    else:
        metrics, units = _end_to_end(result, setups), END_TO_END_UNITS
    _report(args, result, metrics, units, setups)
    failed = sum(1 for r in result["runs"] if r["problems"])
    line = {
        "correct": failed == 0,
        "attempted": len(result["runs"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
