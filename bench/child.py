"""One workload in a fresh process: set-up, timed runs, checks, result.

Started by run.py.  Imports wavefields from the checkout's ``src``,
generates the seeded inputs, then runs the workload again and again
until the next run would end past ``--seconds``.  The first run is a
warm-up, and host speed probes (hostspeed.py) follow every run and
split the program calls of an untraced run.
Every run is checked; its outputs go to one directory that is removed
after the run.  The
last stdout line is a JSON object that run.py turns into metrics.
With ``--trace 1`` runs alternate untraced and traced, so the tracing
overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def measure(workload, seconds: float, trace: bool) -> tuple[list[dict], object]:
    """Run the workload until the time is spent; returns runs and tracer.

    The first run is a warm-up: it is checked like every run, but not
    timed into any metric.  Each run is followed by a host speed probe,
    so every run has a probe on each side (see hostspeed.py); untraced
    runs also probe between the workload's program calls.
    """
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
    min_runs = 5 if trace else 4
    runs: list[dict] = []
    reference = None
    start = time.perf_counter()
    probe_before = hostspeed.probe()
    while True:
        traced = trace and len(runs) % 2 == 1
        if traced:
            tracer.run = len(runs)
            tracer.install()
        problems: list[str] = []
        phases: dict = {}
        counts: dict = {}
        # Untraced runs also probe between the workload's program calls
        # (the tracer would count the probe's FFTs), so that each piece
        # of the run is scaled by the probes on either side of it.
        probes = [probe_before]
        edges = [time.perf_counter()]

        def pause():
            edges.append(time.perf_counter())
            probes.append(hostspeed.probe())
            edges.append(time.perf_counter())

        try:
            phases = workload.run() if traced else workload.run(pause)
        except Exception:
            problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
        finally:
            edges.append(time.perf_counter())
            if traced:
                tracer.uninstall()
        probes.append(hostspeed.probe())
        probe_before = probes[-1]
        pieces = [b - a for a, b in zip(edges[::2], edges[1::2])]
        wall = sum(pieces)
        at_reference = sum(
            hostspeed.at_reference(piece, (before + after) / 2)
            for piece, before, after in zip(pieces, probes, probes[1:])
        )
        if not problems:
            try:
                problems, counts = workload.check()
                hashes = workload.output_hashes()
                if reference is None:
                    reference = hashes
                elif hashes != reference:
                    changed = sorted(k for k in set(hashes) | set(reference) if hashes.get(k) != reference.get(k))
                    problems.append(f"outputs differ from the first run: {changed}")
            except Exception:
                problems.append(traceback.format_exc(limit=3).strip().splitlines()[-1])
        shutil.rmtree(workload.out_dir, ignore_errors=True)
        runs.append({
            "wall_s": wall, "at_reference_s": at_reference, "probes_s": probes, "traced": traced,
            "warmup": not runs, "problems": problems, "phases": phases, **counts,
        })
        state = "FAILED " + "; ".join(problems) if problems else "ok"
        print(
            f"run {len(runs)}{' traced' if traced else ''}: {wall:.4f} s, {at_reference:.4f} s at reference speed {state}",
            file=sys.stderr, flush=True,
        )
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall_s"] + sum(r["probes_s"][1:]) for r in runs)
        if len(runs) >= min_runs and elapsed + typical > seconds:
            return runs, tracer


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, SRC)
    import numpy as np

    import wavefields
    import workloads

    if os.path.dirname(os.path.abspath(wavefields.__file__)) != os.path.join(SRC, "wavefields"):
        print(f"child: wavefields imported from {wavefields.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"child: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    # On SIGTERM remove the work directory and stop.  Raising SystemExit
    # from the handler would not do: cli.main turns it into a return code.
    signal.signal(signal.SIGTERM, lambda *_: (shutil.rmtree(work_dir, ignore_errors=True), os._exit(143)))
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.seed, os.path.join(work_dir, "inputs"), os.path.join(work_dir, "out")
        )
        ready_at = time.monotonic()
        result = {"ready_at": ready_at, "inputs_sha256": workload.inputs_sha256()}
        if not args.setup_only:
            runs, tracer = measure(workload, args.seconds, bool(args.trace))
            result.update(
                runs=runs,
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                machine={
                    "nproc": workloads.nproc(),
                    "python": platform.python_version(),
                    "numpy": np.__version__,
                    "platform": platform.platform(),
                },
                sizes=workloads.sizes(args.workload),
            )
            if tracer is not None:
                traced = [i for i, r in enumerate(runs) if r["traced"]]
                result["layers"] = [tracer.layer_metrics(i) for i in traced]
                trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
                tracer.dump(trace_path)
                result["trace_file"] = os.path.relpath(trace_path, ROOT)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
