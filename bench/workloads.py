"""Workloads of the wavefields benchmark: seeded inputs, runs and checks.

Every input the program receives is generated from the seed: amplitude
pairs written into ``--config`` files, gate angles and trial seeds.  The
same seed gives byte-identical input files.  Each workload runs the
program through its public interfaces only (``wavefields.cli.main`` and
the package's library functions), looked up at call time so that the
tracer's wrappers see every call.  NOTES.md says why each workload and
each input range was chosen.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import os
import random
import time

import numpy as np

DEFAULT_SEED = 1
HELDOUT_SEED = 8191

# Weight |a|^2 of index 0 in every generated amplitude pair.  Both
# branches keep at least a fifth of the weight, so every scenario check
# is defined (stern_gerlach deflects both ways, the pointer reads both
# outcomes) and every seed steps the same number of packet rows.
WEIGHT_RANGE = (0.2, 0.8)

ORACLE_TOL = 1e-8
LEDGER_TABLE_TOL = 1e-10
VALIDATE_TOL = 1e-8

CROSSING_SCENARIOS = ("two_spin_crossing", "von_neumann")

# stern_gerlach at its default grid: 150 steps on 1024 points.  The
# first frame holds 4 packets (spin branches plus the two path systems
# in basis states); every later frame holds 2 branches per system.
SNAPSHOT_EVERY = 4
SG_STEPS = 150
SG_POINTS = 1024
SG_FIRST_PACKETS = 4
SG_PACKETS = 6

CHAIN = tuple(f"c{i}" for i in range(10))
PAIR = ("p", "q")
PAIR_GATES = 400
LEDGER_BATCH = 100
ADVANCE_STEPS = 20
TRIALS = 10**7
# the 512-point default grid the small scenarios use
LEDGER_GRID = (-32.0, 32.0, 512, 0.01)

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
CZ = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pair(rng: random.Random) -> tuple[complex, complex]:
    w = rng.uniform(*WEIGHT_RANGE)
    a = cmath.rect(math.sqrt(w), rng.uniform(0, 2 * math.pi))
    b = cmath.rect(math.sqrt(1.0 - w), rng.uniform(0, 2 * math.pi))
    return a, b


def _config_text(pairs: list[tuple[complex, complex]], seed: int) -> str:
    lines = [f"seed = {seed}"]
    for i, (a, b) in enumerate(pairs, start=1):
        lines += [f"a{i} = {a!r}", f"b{i} = {b!r}"]
    return "\n".join(lines) + "\n"


def _files_sha256(directory: str) -> dict[str, str]:
    out = {}
    for base, _, names in os.walk(directory):
        for name in names:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def _dir_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _, names in os.walk(directory)
        for name in names
    )


# --- dense tensor-product oracle, independent of the package ---------------


def _dense(amps: dict[str, tuple[complex, complex]]):
    order = list(amps)
    psi = np.array(1.0 + 0j)
    for name in order:
        psi = np.multiply.outer(psi, np.asarray(amps[name], dtype=complex))
    return psi, order


def _dense_apply(psi, order, matrix, targets):
    k = len(targets)
    gate = np.asarray(matrix).reshape((2,) * (2 * k))
    axes = [order.index(t) for t in targets]
    out = np.tensordot(gate, psi, axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


def _dense_table(psi, order, a, b) -> dict[tuple[int, int], float]:
    probs = np.abs(psi) ** 2
    others = tuple(i for i, s in enumerate(order) if s not in (a, b))
    joint = probs.sum(axis=others)
    if order.index(a) > order.index(b):
        joint = joint.T
    return {(i, j): float(joint[i, j]) for i in range(2) for j in range(2)}


def _table_gap(actual: dict, expected: dict) -> float:
    return max(abs(actual.get(k, 0.0) - expected.get(k, 0.0)) for k in set(actual) | set(expected))


def _summary_table(summary: dict, key: str) -> dict[tuple[int, int], float]:
    return {
        tuple(int(p) for p in k.split(",")): float(v)
        for k, v in summary["correlation_tables"][key].items()
    }


# --- workloads --------------------------------------------------------------


class Workload:
    """One seeded workload.  ``run`` is timed; ``check`` is not.

    ``run`` returns phase wall times; ``check`` returns the list of
    problems found (empty when the run is correct) and the run's work
    counts: world steps, meets and output bytes.  ``run`` calls
    ``pause`` between its separate program calls, where the caller may
    do untimed work of its own; a workload of one call never does.
    """

    name = ""
    meets_per_run = 0

    def __init__(self, seed: int, inputs_dir: str, out_dir: str):
        self.inputs_dir = inputs_dir
        self.out_dir = out_dir
        os.makedirs(inputs_dir, exist_ok=True)
        self.rng = random.Random(seed)

    def inputs_sha256(self) -> str:
        h = hashlib.sha256()
        for name, digest in _files_sha256(self.inputs_dir).items():
            h.update(f"{name} {digest}\n".encode())
        return h.hexdigest()

    def _write_input(self, name: str, text: str) -> str:
        path = os.path.join(self.inputs_dir, name)
        with open(path, "w", newline="") as fh:
            fh.write(text)
        return path

    def output_hashes(self) -> dict[str, str]:
        return _files_sha256(self.out_dir)


class _CliWorkload(Workload):
    """Scenarios run through ``wavefields.cli.main`` with ``--out``."""

    def _argvs(self) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def run(self, pause=lambda: None) -> dict[str, float]:
        from wavefields import cli

        phases = {}
        self.exit_codes = {}
        self.console = {}
        for i, (scenario, argv) in enumerate(self._argvs()):
            if i:
                pause()
            sink = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            phases[scenario] = time.perf_counter() - t0
            self.exit_codes[scenario] = code
            self.console[scenario] = sink.getvalue()
        return phases

    def _summary(self, scenario: str, problems: list) -> dict | None:
        code = self.exit_codes.get(scenario)
        if code != 0:
            tail = self.console.get(scenario, "").strip().splitlines()[-3:]
            problems.append(f"{scenario}: exit code {code}: {' | '.join(tail)}")
            return None
        with open(os.path.join(self.out_dir, scenario, "summary.json")) as fh:
            summary = json.load(fh)
        failed = [c["name"] for c in summary["checks"] if not c["passed"]]
        if failed or not summary["passed"]:
            problems.append(f"{scenario}: failed checks {failed}")
        return summary


class Crossing(_CliWorkload):
    """two_spin_crossing then von_neumann, both with seeded amplitudes."""

    name = "crossing"
    meets_per_run = 2  # one crossing meet per scenario

    def __init__(self, seed, inputs_dir, out_dir):
        super().__init__(seed, inputs_dir, out_dir)
        trial_seed = self.rng.randrange(2**31)
        self.pairs = {
            "two_spin_crossing": [_pair(self.rng), _pair(self.rng)],
            "von_neumann": [_pair(self.rng)],
        }
        self.configs = {
            s: self._write_input(f"{s}.cfg", _config_text(self.pairs[s], trial_seed))
            for s in CROSSING_SCENARIOS
        }

    def _argvs(self):
        return [
            (s, ["run", s, "--config", self.configs[s], "--out", os.path.join(self.out_dir, s)])
            for s in CROSSING_SCENARIOS
        ]

    def _expected(self, scenario: str) -> dict[str, dict]:
        if scenario == "two_spin_crossing":
            (a1, b1), (a2, b2) = self.pairs[scenario]
            psi, order = _dense({"1": (a1, b1), "2": (a2, b2)})
            psi = _dense_apply(psi, order, CZ, ("1", "2"))
            return {
                "1,2": _dense_table(psi, order, "1", "2"),
                "2,1": _dense_table(psi, order, "2", "1"),
            }
        ((a1, b1),) = self.pairs[scenario]
        psi, order = _dense({"1": (a1, b1), "2": (1.0, 0.0)})
        psi = _dense_apply(psi, order, CNOT, ("1", "2"))
        return {"2,1": _dense_table(psi, order, "2", "1")}

    def check(self):
        problems: list[str] = []
        steps = 0
        for scenario in CROSSING_SCENARIOS:
            summary = self._summary(scenario, problems)
            if summary is None:
                continue
            steps += summary["steps"]
            links = summary["boundaries"]
            if len(links) != 1 or not links[0]["completed"]:
                problems.append(f"{scenario}: expected one completed crossing, got {links}")
            for key, expected in self._expected(scenario).items():
                gap = _table_gap(_summary_table(summary, key), expected)
                if not gap <= ORACLE_TOL:
                    problems.append(f"{scenario}: table {key} off the dense route by {gap:.3e}")
        return problems, {"steps": steps, "meets": self.meets_per_run, "bytes": _dir_bytes(self.out_dir)}


class Snapshots(_CliWorkload):
    """stern_gerlach with a frame every SNAPSHOT_EVERY steps."""

    name = "snapshots"
    meets_per_run = 2  # fork-path-up and fork-path-down, both instant

    def __init__(self, seed, inputs_dir, out_dir):
        super().__init__(seed, inputs_dir, out_dir)
        trial_seed = self.rng.randrange(2**31)
        self.pair = _pair(self.rng)
        self.config = self._write_input("stern_gerlach.cfg", _config_text([self.pair], trial_seed))

    def _argvs(self):
        out = os.path.join(self.out_dir, "stern_gerlach")
        argv = ["run", "stern_gerlach", "--config", self.config]
        return [("stern_gerlach", argv + ["--snapshot-every", str(SNAPSHOT_EVERY), "--out", out])]

    def check(self):
        problems: list[str] = []
        summary = self._summary("stern_gerlach", problems)
        steps = 0
        if summary is not None:
            steps = summary["steps"]
            if steps != SG_STEPS:
                problems.append(f"stern_gerlach: {steps} steps, expected {SG_STEPS}")
            psi, order = _dense({"s": self.pair, "I": (0.0, 1.0), "II": (1.0, 0.0)})
            psi = _dense_apply(psi, order, CNOT, ("s", "I"))
            psi = _dense_apply(psi, order, CNOT, ("s", "II"))
            for other in ("I", "II"):
                gap = _table_gap(
                    _summary_table(summary, f"s,{other}"), _dense_table(psi, order, "s", other)
                )
                if not gap <= ORACLE_TOL:
                    problems.append(f"stern_gerlach: table s,{other} off the dense route by {gap:.3e}")
            later_frames = math.ceil(SG_STEPS / SNAPSHOT_EVERY)
            expected_rows = SG_POINTS * (SG_FIRST_PACKETS + later_frames * SG_PACKETS)
            with open(os.path.join(self.out_dir, "stern_gerlach", "snapshots.csv"), "rb") as fh:
                rows = fh.read().count(b"\n") - 1
            if rows != expected_rows:
                problems.append(f"snapshots.csv has {rows} rows, expected {expected_rows}")
        return problems, {"steps": steps, "meets": self.meets_per_run, "bytes": _dir_bytes(self.out_dir)}


class Ledger(Workload):
    """GHZ-style CNOT chain, a long two-system ledger, audits and trials.

    Library calls only.  The run writes the two ledgers as memory JSON
    and the trial report, the audit records a user of the ledger keeps.
    """

    name = "ledger"
    meets_per_run = len(CHAIN) - 1 + PAIR_GATES

    def __init__(self, seed, inputs_dir, out_dir):
        super().__init__(seed, inputs_dir, out_dir)
        lo, hi = (math.acos(math.sqrt(w)) for w in reversed(WEIGHT_RANGE))
        self.theta = self.rng.uniform(lo, hi)
        self.p, self.q = _pair(self.rng), _pair(self.rng)
        self.phases = [self.rng.uniform(0, 2 * math.pi) for _ in range(PAIR_GATES // 2)]
        self.trial_seed = self.rng.randrange(2**31)
        doc = {
            "theta": self.theta,
            "p": [[z.real, z.imag] for z in self.p],
            "q": [[z.real, z.imag] for z in self.q],
            "phases": self.phases,
            "trial_seed": self.trial_seed,
        }
        self._write_input("ledger.json", json.dumps(doc, sort_keys=True, indent=1) + "\n")

    def _initial(self) -> dict[str, tuple[complex, complex]]:
        """Initial amplitudes of the chain spins."""
        initial = {name: (1.0, 0.0) for name in CHAIN}
        initial[CHAIN[0]] = (math.cos(self.theta), math.sin(self.theta))
        return initial

    def _gates(self):
        """(matrix, participants, op id) for each pair gate, in order."""
        for k in range(PAIR_GATES):
            if k % 2:
                yield CZ, PAIR, f"cz-{k}"
            else:
                g = k // 2
                phase = np.diag([1.0, np.exp(1j * self.phases[g])])
                yield phase, (PAIR[g % 2],), f"phase-{k}"

    def run(self, pause=lambda: None) -> dict[str, float]:
        import wavefields as wf

        phases = {}
        t0 = time.perf_counter()
        grid = wf.Grid(*LEDGER_GRID)
        state = wf.new_state(grid)
        initial = self._initial()
        initial.update({PAIR[0]: self.p, PAIR[1]: self.q})
        for i, (name, amps) in enumerate(initial.items()):
            wf.add_system(state, name, amps, wf.gaussian_packet(grid, -22.0 + 4.0 * i, 1.0))
        for i, (a, b) in enumerate(zip(CHAIN, CHAIN[1:])):
            wf.meet(state, a, b, wf.Operator(CNOT, (2, 2), (a, b)), f"chain-{i}")
        t1 = time.perf_counter()
        phases["chain"] = t1 - t0
        for k, (matrix, targets, op_id) in enumerate(self._gates()):
            dims = (2,) * len(targets)
            wf.meet(state, targets[0], targets[1] if len(targets) == 2 else None,
                    wf.Operator(matrix, dims, targets), op_id)
            if (k + 1) % LEDGER_BATCH == 0:
                t2 = time.perf_counter()
                phases[f"pair_batch_{(k + 1) // LEDGER_BATCH}"] = t2 - t1
                t1 = t2
        wf.advance(state, ADVANCE_STEPS)
        self.worst = {s: wf.validate_against_memory(state, s, atol=VALIDATE_TOL) for s in initial}
        # only the chain's last spin has met every other one
        self.chain_table = wf.correlation_table(state, CHAIN[-1], CHAIN[0])
        self.pair_table = wf.correlation_table(state, *PAIR)
        self.report = wf.statistics_report("ledger", self.chain_table, TRIALS, self.trial_seed, jobs=nproc())
        os.makedirs(self.out_dir, exist_ok=True)
        for name, text in (
            ("chain_memory.json", wf.memory_to_json(state.wavefields[CHAIN[-1]].memory)),
            ("pair_memory.json", wf.memory_to_json(state.wavefields[PAIR[0]].memory)),
            ("statistics.json", wf.dumps(self.report)),
        ):
            with open(os.path.join(self.out_dir, name), "w", newline="") as fh:
                fh.write(text)
        self.steps = state.step_count
        t2 = time.perf_counter()
        phases["audit_and_trials"] = t2 - t1
        return phases

    def check(self):
        problems: list[str] = []
        for s, worst in self.worst.items():
            if not worst <= VALIDATE_TOL:
                problems.append(f"validate_against_memory({s}) = {worst:.3e}")
        psi, order = _dense(self._initial())
        for a, b in zip(CHAIN, CHAIN[1:]):
            psi = _dense_apply(psi, order, CNOT, (a, b))
        gap = _table_gap(self.chain_table, _dense_table(psi, order, CHAIN[-1], CHAIN[0]))
        if not gap <= LEDGER_TABLE_TOL:
            problems.append(f"chain table off the dense route by {gap:.3e}")
        psi, order = _dense({PAIR[0]: self.p, PAIR[1]: self.q})
        for matrix, targets, _ in self._gates():
            psi = _dense_apply(psi, order, matrix, targets)
        gap = _table_gap(self.pair_table, _dense_table(psi, order, *PAIR))
        if not gap <= LEDGER_TABLE_TOL:
            problems.append(f"pair table off the dense route by {gap:.3e}")
        counts = [f * TRIALS for f in self.report["frequencies"].values()]
        if any(abs(c - round(c)) > 1e-6 for c in counts) or sum(round(c) for c in counts) != TRIALS:
            problems.append(f"trial counts {counts} do not sum to {TRIALS}")
        for name, ops in (("chain_memory.json", len(CHAIN) - 1), ("pair_memory.json", PAIR_GATES)):
            with open(os.path.join(self.out_dir, name)) as fh:
                got = len(json.load(fh)["ops"])
            if got != ops:
                problems.append(f"{name} holds {got} records, expected {ops}")
        return problems, {"steps": self.steps, "meets": self.meets_per_run, "bytes": _dir_bytes(self.out_dir)}


WORKLOADS = {w.name: w for w in (Crossing, Snapshots, Ledger)}


def sizes(name: str) -> dict:
    """Workload sizes recorded next to every result."""
    if name == "crossing":
        return {"scenarios": list(CROSSING_SCENARIOS), "grid_points": 2048, "dt": 0.0125, "amplitude_weight_range": list(WEIGHT_RANGE)}
    if name == "snapshots":
        return {"scenario": "stern_gerlach", "grid_points": SG_POINTS, "steps": SG_STEPS, "snapshot_every": SNAPSHOT_EVERY, "amplitude_weight_range": list(WEIGHT_RANGE)}
    return {
        "chain_spins": len(CHAIN), "pair_gates": PAIR_GATES, "batch": LEDGER_BATCH,
        "grid_points": LEDGER_GRID[2], "advance_steps": ADVANCE_STEPS, "trials": TRIALS, "jobs": nproc(),
    }
