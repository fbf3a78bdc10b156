"""Prepared scenario catalog.

Each runner assembles a scenario from wave-fields and interactions,
drives it to completion, then audits the outcome against the ordinary
tensor-product route and against frozen expectations.  Results carry a
machine-readable summary, optional spatial snapshots, and the boundary
trajectories, so the command line can serialize a run without knowing
any scenario internals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import memory as memory_mod
from .engine import (
    ScenarioState,
    add_system,
    advance,
    branches,
    correlation_table,
    index_distribution,
    meet,
    new_state,
    set_potential,
    total_mass,
    validate_against_memory,
)
from .ensemble import pair_particles, sample_particles, statistics_report
from .hilbert import Ket, Operator, apply, expand_product_terms, reduced_density, state_ket, tensor
from .spatial import Grid, cumulative_mass, gaussian_packet, norm_squared, streamlines

_R = 1.0 / math.sqrt(2.0)
_CROSSING_K0 = 5.0  # packet momentum of the two crossing scenarios
_SMALL_GRID = (-32.0, 32.0, 512, 0.01)  # (x_min, x_max, n_points, dt) of the resting scenarios
_READY = (1.0, 0.0)  # the amplitudes of a system ready to record

# matching tolerances for the frozen algebraic expectations
EXACT_TOL = 1e-10
ORACLE_TOL = 1e-8
Z_LIMIT = 3.0


@dataclass
class ScenarioConfig:
    """User-tunable knobs of a prepared scenario.

    Grid fields left as None fall back to the scenario's own defaults.
    Amplitude pairs must be normalized; they parameterize whichever
    internal states the scenario exposes (see each runner).
    """

    scenario: str
    x_min: float | None = None
    x_max: float | None = None
    n_points: int | None = None
    dt: float | None = None
    a1: complex | None = None
    b1: complex | None = None
    a2: complex | None = None
    b2: complex | None = None
    epsilon: float = 0.1
    trials: int = 0
    seed: int = 7
    snapshot_every: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be nonnegative")
        if not 0.0 < self.epsilon < math.pi / 2.0:
            raise ValueError("epsilon must lie in (0, pi/2)")

    def make_grid(self, x_min: float, x_max: float, n: int, dt: float) -> Grid:
        given = (self.x_min, self.x_max, self.n_points, self.dt)
        return Grid(*(d if g is None else g for g, d in zip(given, (x_min, x_max, n, dt))))

    def pair(self, which: int, default_a: complex, default_b: complex):
        a = getattr(self, f"a{which}")
        b = getattr(self, f"b{which}")
        if a is None and b is None:
            return complex(default_a), complex(default_b)
        if a is None or b is None:
            raise ValueError(f"amplitude pair {which} needs both a{which} and b{which}")
        a, b = complex(a), complex(b)
        if not abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) <= 1e-10:  # NaN fails too
            raise ValueError(f"amplitude pair {which} is not normalized")
        return a, b


@dataclass
class ScenarioResult:
    name: str
    config: ScenarioConfig
    state: ScenarioState | None  # None for a run an engine audit stopped (``aborted``)
    summary: dict
    frames: list  # blocks (t, x, label, field), one per packet per frame
    boundary_rows: list
    passed: bool


class CheckFailure(RuntimeError):
    """A scenario ran but one of its audits failed; carries the result."""

    def __init__(self, result: ScenarioResult):
        failed = [c["name"] for c in result.summary["checks"] if not c["passed"]]
        super().__init__(f"scenario {result.name!r} failed checks: {', '.join(failed)}")
        self.result = result


SCENARIOS: dict = {}  # name -> (runner, blurb), in the order the runners are defined


def _scenario(blurb: str, name: str = ""):
    """Register the runner under ``name``, by default its own name less ``run_``."""

    def register(runner):
        SCENARIOS[name or runner.__name__.removeprefix("run_")] = (runner, blurb)
        return runner

    return register


def _oracle_table(ket: Ket, a: str, b: str) -> dict:
    """Joint (a, b) index probabilities of a reference-route state."""
    out: dict = {}
    for term in expand_product_terms(ket):
        m = term.label_map()
        out[(m[a], m[b])] = out.get((m[a], m[b]), 0.0) + abs(term.coefficient) ** 2
    return out


def _frame(state: ScenarioState, frames: list, prefix: str = "") -> None:
    # one block per packet: time, the grid's x, label system:index, field
    for name in sorted(state.wavefields):
        ordered = sorted(branches(state, name), key=lambda p: (p.region or "", p.index.text()))
        for p in ordered:
            label = f"{prefix}{name}:{p.index.text()}"
            frames.append((state.time, state.grid.x, label, p.field))  # a fresh array


def _world(run: _Run, bounds, systems, sigma: float = 1.5, bases=None):
    """A fresh state on the scenario's grid, which ``run.cfg`` may override.

    ``bounds`` is the default (x_min, x_max, n_points, dt); ``systems``
    lists (name, amplitudes, x0[, k0]) Gaussian packets of width
    ``sigma``; ``bases`` holds index bases set before any system is added.
    """
    grid = run.cfg.make_grid(*bounds)
    # At dx <= sigma the grid sums give a packet's norm within 5e-9 and its width within
    # 1e-7 (Poisson summation); at 1.5 sigma the width is off by 3e-3, at 2 sigma by 7%.
    # Listed only when it fails, as ``resolves``.
    if not grid.dx <= sigma:
        run.check("grid resolves packet widths", False, f"dx {grid.dx:.4g} > sigma {sigma}")
    state = new_state(grid)
    state.index_bases.update(bases or {})
    for name, amplitudes, x0, *k0 in systems:
        add_system(state, name, amplitudes, gaussian_packet(grid, x0, sigma, *k0))
    return state


def _table_json(table: dict) -> dict:
    return {",".join(str(part) for part in k): float(v) for k, v in sorted(table.items())}


@dataclass
class _Run:
    """One run: its configuration, audit checks and snapshot frames, and the audits."""

    cfg: ScenarioConfig
    checks: list = field(default_factory=list)
    frames: list = field(default_factory=list)  # blocks (t, x, label, field)
    extremes: dict = field(default_factory=dict)  # op id -> max |x12| and crossed-level gap

    def check(self, name: str, passed, detail="") -> None:
        self.checks.append({"name": name, "passed": bool(passed), "detail": str(detail)})

    def close(self, name: str, actual: dict, expected: dict, tol=EXACT_TOL, only="") -> None:
        """Check the largest deviation between two outcome tables, missing keys as 0.

        A nonempty ``only`` names a second check: that ``actual`` holds no
        outcome outside the expected ones.
        """
        worst = 0.0
        for k in set(actual) | set(expected):
            worst = max(worst, abs(actual.get(k, 0.0) - expected.get(k, 0.0)))
        self.check(name, worst <= tol, f"{worst:.3e}")
        if only:
            self.check(only, all(k in expected for k in actual), f"keys {sorted(actual)}")

    def shows(self, state: ScenarioState, name: str, system: str, expected: dict) -> None:
        """Check a system's branches: own index and partners to coefficient."""
        packets = state.wavefields[system].packets
        display = {(p.index.own, p.index.partners): complex(p.coefficient) for p in packets}
        near = (abs(display[k] - expected[k]) <= EXACT_TOL for k in expected)
        self.check(name, set(display) == set(expected) and all(near))

    def resolves(self, grid: Grid, k0: float) -> None:
        # A momentum at or past pi/dx aliases and voids the run.  Listed only
        # when it fails, so the summaries of resolved runs stay as they were.
        if abs(k0) >= math.pi / grid.dx:
            detail = f"|k0| {abs(k0)} >= pi/dx {math.pi / grid.dx:.4g}"
            self.check("grid resolves packet momenta", False, detail)

    def rest_audits(self, state: ScenarioState, mass: bool = True) -> None:
        """Unit fluid mass per system (unless not ``mass``), then the memory audit."""
        if mass:
            worst = max(abs(total_mass(state, s) - 1.0) for s in state.wavefields)
            self.check("unit fluid mass per system", worst <= ORACLE_TOL, f"worst {worst:.3e}")
        worst = 0.0
        try:
            for s in sorted(state.wavefields):
                worst = max(worst, validate_against_memory(state, s, atol=ORACLE_TOL))
            self.check("branches match memory-derived expansion", True, f"worst {worst:.3e}")
        except AssertionError as exc:
            self.check("branches match memory-derived expansion", False, exc)

    def evolve(self, state: ScenarioState, steps: int, until=None, each=None) -> None:
        """Advance up to ``steps`` steps, then take the last frame.

        A frame is taken every ``cfg.snapshot_every`` steps while the run
        goes on, and each ``advance`` call runs to the next frame or the
        end.  ``until`` ends the run on the first step it holds, so a
        crossing ends when its boundary completes whatever the cadence;
        ``each`` runs after every step, so it gets one call per step.
        """
        every, done = self.cfg.snapshot_every, 0
        while done < steps:
            end = min(steps, (done // every + 1) * every) if every else steps  # the next frame
            span = 1 if each is not None else end - done
            before = state.step_count
            advance(state, span, until)
            done += state.step_count - before
            if each is not None:
                each()
            if done == steps or (until is not None and until()):
                break
            if every and done % every == 0:
                _frame(state, self.frames)
        _frame(state, self.frames)

    def finish(self, state: ScenarioState, table_pairs=(), extra=None, outcomes=None):
        """The run's result; ``outcomes`` is the table the ensemble trials sample, if any."""
        cfg, name = self.cfg, self.cfg.scenario
        if outcomes is not None and cfg.trials > 0:
            stats = statistics_report(name, outcomes, cfg.trials, cfg.seed)
            zs = [abs(z) for z in stats["z_scores"].values()]
            within = all(z <= Z_LIMIT for z in zs)
            detail = f"max |z| {max(zs, default=0.0):.3f} over {cfg.trials} trials"
            self.check("ensemble frequencies within 3 sigma", within, detail)
            extra = {**(extra or {}), "statistics": stats}
        summary = {
            "scenario": name,
            "time": float(state.time),
            "steps": int(state.step_count),
            "systems": sorted(state.wavefields),
            "index_distributions": {
                s: {str(k): float(v) for k, v in index_distribution(state, s).items()}
                for s in sorted(state.wavefields)
            },
            "correlation_tables": {
                f"{a},{b}": _table_json(correlation_table(state, a, b)) for a, b in table_pairs
            },
            "boundaries": [
                {
                    "left": link.left_system,
                    "right": link.right_system,
                    "op": link.op_id,
                    "completed": not link.active,
                    "final_x12": link.balance.x12,
                    "max_abs_x12": self.extremes[link.op_id][0],
                    "crossed_left": link.balance.crossed_left,
                    "crossed_right": link.balance.crossed_right,
                    "max_crossed_gap": self.extremes[link.op_id][1],
                }
                for link in state.links
            ],
            "checks": self.checks,
        }
        if extra:
            summary.update(extra)
        passed = all(c["passed"] for c in self.checks)
        summary["passed"] = passed
        boundary_rows = [(t, *b[:3]) for link in state.links for t, b in link.trajectory]
        result = ScenarioResult(name, cfg, state, summary, self.frames, boundary_rows, passed)
        if not passed:
            raise CheckFailure(result)
        return result


def _unitary_with_first_column(col0) -> np.ndarray:
    """Any two-spin unitary whose action on |00> is the given column."""
    col0 = np.asarray(col0, dtype=complex)
    cols = [col0 / np.linalg.norm(col0)]
    for e in np.eye(4, dtype=complex):
        v = e.copy()
        for c in cols:
            v -= c * np.vdot(c, v)
        n = np.linalg.norm(v)
        if n > 1e-9:
            cols.append(v / n)
        if len(cols) == 4:
            break
    return np.stack(cols, axis=1)


# the tilted readout basis (columns), 120 degrees from the reference axis
_PHI = np.array([[0.5, math.sqrt(3.0) / 2.0], [math.sqrt(3.0) / 2.0, -0.5]], dtype=complex)
_FLIP = np.array([[0, 1], [1, 0]], dtype=complex)

# gates by name, row-major over their labels in the order ``_gate`` gets them
_GATES = {
    "cnot": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
    "cz": np.diag([1.0, 1.0, 1.0, -1.0]),
    "identity": np.eye(4),
    "splitter": np.array([[1, 0, 0, 0], [0, _R, _R, 0], [0, -_R, _R, 0], [0, 0, 0, 1]]),
    "phi": _PHI,
    "pair_source": _unitary_with_first_column([0.0, _R, -_R, 0.0]),
    "tilted_readout": np.kron(np.outer(_PHI[:, 0], _PHI[:, 0].conj()), np.eye(2))
    + np.kron(np.outer(_PHI[:, 1], _PHI[:, 1].conj()), _FLIP),
}


def _gate(name: str, *labels: str) -> Operator:
    return Operator(np.array(_GATES[name], dtype=complex), (2,) * len(labels), labels)


def _crossing(run: _Run, spin1, spin2, unitary: Operator, op_id: str, frozen=()):
    """Spins 1 and 2 fly at each other through a crossing of ``unitary`` until it completes.

    ``frozen`` holds the spin frozen forms the spin-side and then the
    pointer-side boundary matrix must take, checked before the first step.
    """

    def flat(label, system):  # the label's bits over all its systems, as one flat index
        bits = dict(label.partners, **{system: label.own})
        return int(np.ravel_multi_index([bits[s] for s in sorted(bits)], [2] * len(bits)))

    systems = [("1", spin1, -8.0, _CROSSING_K0), ("2", spin2, 8.0, -_CROSSING_K0)]
    state = _world(run, (-64.0, 64.0, 2048, 0.0125), systems, sigma=1.0)
    _frame(state, run.frames)
    run.resolves(state.grid, _CROSSING_K0)
    try:
        link = meet(state, "1", "2", unitary, op_id, mode="crossing")
    except ValueError as exc:  # as when a grid too coarse puts both packets in one cell
        run.check("crossing opens", False, exc)
        run.finish(state)  # raises CheckFailure, as a check failed
    for side, t, form in zip(("spin", "pointer"), (link.t_left, link.t_right), frozen):
        # the largest gap to the form, which must vanish on the rows the transfer drops
        rows = [flat(label, t.system) for label in t.out_labels]
        cols = form[:, [flat(label, t.system) for label in t.in_labels]]
        held = np.abs(t.matrix - cols[rows]).max()
        gap = float(max(held, np.abs(np.delete(cols, rows, axis=0)).max(initial=0.0)))
        run.check(f"{side}-side boundary matrix is the frozen form", gap <= 1e-12, f"{gap:.3e}")
    cap = int(math.ceil(20.0 / state.grid.dt))
    run.evolve(state, cap, until=lambda: not link.active)
    run.extremes[op_id] = (
        max([abs(b.x12) for _, b in link.trajectory]),
        max([abs(b.crossed_left - b.crossed_right) for _, b in link.trajectory]),
    )
    b, s1, s2 = link.balance, link.left_system, link.right_system  # a stall names what is left
    stall = f"; pre-side mass {s1}={b.pre_left:.3e} {s2}={b.pre_right:.3e}" if link.active else ""
    if link.active:  # and when the larger pre-side mass was lowest
        low = min(link.trajectory, key=lambda step: max(step[1].pre_left, step[1].pre_right))[0]
        stall += f", lowest at t={low:.6g}"
    run.check("crossing completed", not link.active, f"{state.step_count} steps{stall}")
    return state, link


# --- two_spin_crossing ---------------------------------------------------


@_scenario("two moving spins re-index through an equal-flux boundary")
def run_two_spin_crossing(run: _Run) -> ScenarioResult:
    """Two moving spins exchange a phase while passing through a boundary.

    Spins fly at each other, interact through a conditional phase as
    their fluids cross the equal-flux boundary, and separate carrying
    correlated index labels.  Amplitude pairs 1 and 2 set the internal
    states; by symmetry of the shapes the boundary must stay put.
    """
    spin1, spin2 = run.cfg.pair(1, _R, _R), run.cfg.pair(2, _R, _R)
    cz = _gate("cz", "1", "2")
    state, link = _crossing(run, spin1, spin2, cz, "phase-exchange")
    (moved, gap), dx = run.extremes[link.op_id], state.grid.dx
    name = "boundary stays within one cell of the symmetry point"
    run.check(name, moved <= dx, f"max |x12| {moved:.3e}, dx {dx}")
    run.check("crossed fluid levels agree", gap <= 1e-6, f"max gap {gap:.3e}")
    if link.active:  # the audits below need both systems at rest
        return run.finish(state)

    ket = apply(cz, tensor(state_ket("1", spin1), state_ket("2", spin2)))
    table = correlation_table(state, "1", "2")
    name = "joint table matches product-state route"
    run.close(name, table, _oracle_table(ket, "1", "2"), ORACLE_TOL)
    run.rest_audits(state)

    return run.finish(state, [("1", "2"), ("2", "1")], outcomes=table)


# --- three_spin_chain ----------------------------------------------------


@_scenario("chained couplings leave the bystander's field and record untouched")
def run_three_spin_chain(run: _Run) -> ScenarioResult:
    """Chained couplings leave the bystander bit-identical.

    Spin 1 couples to 2, then to 3.  The second interaction must not
    touch system 2 at all: not its packets, not its record.  System 2's
    own correlation view stays the one written by the first coupling.
    """
    s1, s2, s3 = run.cfg.pair(1, 0.6, 0.8), run.cfg.pair(2, _R, _R), _READY
    state = _world(run, _SMALL_GRID, [("1", s1, -6.0), ("2", s2, 0.0), ("3", s3, 6.0)])
    _frame(state, run.frames)

    meet(state, "1", "2", _gate("cz", "1", "2"), "couple-near")
    wf2 = state.wavefields["2"]
    mem, ops = wf2.memory, len(wf2.memory.ops)
    before = [(p.index, complex(p.coefficient), p.field.tobytes()) for p in wf2.packets]
    meet(state, "1", "3", _gate("cnot", "1", "3"), "couple-far")
    after = [(p.index, complex(p.coefficient), p.field.tobytes()) for p in wf2.packets]
    same = state.wavefields["2"] is wf2 and wf2.memory is mem and len(mem.ops) == ops
    run.check("bystander untouched by the far coupling", same and after == before)

    run.evolve(state, 20)

    ket = tensor(tensor(state_ket("1", s1), state_ket("2", s2)), state_ket("3", s3))
    near = apply(_gate("cz", "1", "2"), ket)
    table = correlation_table(state, "1", "3")
    far = _oracle_table(apply(_gate("cnot", "1", "3"), near), "1", "3")
    run.close("far pair table matches product-state route", table, far)
    name = "bystander's view stops at its own last interaction"
    run.close(name, correlation_table(state, "2", "1"), _oracle_table(near, "2", "1"))
    run.rest_audits(state)

    return run.finish(state, [("1", "3"), ("2", "1")], outcomes=table)


# --- von_neumann ---------------------------------------------------------


@_scenario("pointer readout of a flying spin with frozen boundary matrices")
def run_von_neumann(run: _Run) -> ScenarioResult:
    """Pointer readout of a spin through a crossing.

    A spin in a superposition set by amplitude pair 1 flies through a
    ready pointer.  The boundary conditions are frozen by the ready
    state: the joint expansion admits only perfectly correlated terms,
    so the pointer's final index distribution is the spin's weights.
    """
    a1, b1 = run.cfg.pair(1, _R, _R)
    frozen = (
        np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=complex),
        np.array([[a1, 0], [0, a1], [0, b1], [b1, 0]], dtype=complex),
    )
    readout = _gate("cnot", "1", "2")
    state, link = _crossing(run, (a1, b1), _READY, readout, "pointer-readout", frozen)
    if link.active:  # the audits below need both systems at rest
        return run.finish(state)

    aa, bb = abs(a1) ** 2, abs(b1) ** 2
    pointer = index_distribution(state, "2")
    run.close("pointer weights equal spin weights", pointer, {0: aa, 1: bb})
    table = correlation_table(state, "2", "1")
    run.close("pointer and spin indexes perfectly correlated", table, {(0, 0): aa, (1, 1): bb})
    run.rest_audits(state)

    return run.finish(state, [("2", "1")], outcomes=pointer)


# --- bell pair scenarios -------------------------------------------------

# each case's far readout and its expectations: the recorder table, the
# check that no other outcome exists (if any), the signed branches one
# recorder shows, and the system whose index is even odds
_BELL_CASES = {
    "bell_case1": dict(
        far="cnot",
        table=("recorders anticorrelated half-half", {(0, 1): 0.5, (1, 0): 0.5}),
        only="no same-outcome branch exists",
        shown=("near recorder carries the two signed branches", "A", {
            (0, (("1", 0), ("2", 1), ("B", 1))): _R,
            (1, (("1", 1), ("2", 0), ("B", 0))): -_R,
        }),
        odds=("each recorder outcome is even odds", "A"),
    ),
    "bell_case2": dict(
        far="tilted_readout",
        table=(
            "recorder table shows the tilted pattern",
            {(0, 0): 3.0 / 8.0, (0, 1): 1.0 / 8.0, (1, 0): 1.0 / 8.0, (1, 1): 3.0 / 8.0},
        ),
        shown=("far recorder carries the four signed branches", "B", {
            (0, (("1", 0), ("2", 0), ("A", 0))): math.sqrt(3.0 / 8.0),
            (0, (("1", 1), ("2", 0), ("A", 1))): -math.sqrt(1.0 / 8.0),
            (1, (("1", 0), ("2", 1), ("A", 0))): -math.sqrt(1.0 / 8.0),
            (1, (("1", 1), ("2", 1), ("A", 1))): -math.sqrt(3.0 / 8.0),
        }),
        odds=("tilted indexes of the pair are even odds", "2"),
    ),
}


# decorators apply bottom up, so bell_case1 is registered first
@_scenario("tilted-basis pair readout with the three-eighths pattern", "bell_case2")
@_scenario("matched-basis pair readout, recorders disagree every time", "bell_case1")
def run_bell(run: _Run) -> ScenarioResult:
    """Pair readout: recorders A and B read spins 1 and 2 of one source.

    In bell_case1 both read in the reference basis, and the outcomes
    disagree every single time.  In bell_case2 spin 2 is read in a basis
    tilted by 120 degrees, which gives the three-eighths agreement pattern.
    """
    case = _BELL_CASES[run.cfg.scenario]
    systems = [("1", _READY, -2.0), ("2", _READY, 2.0), ("A", _READY, -8.0), ("B", _READY, 8.0)]
    tilted = {"2": _gate("phi", "2")} if case["far"] == "tilted_readout" else None
    state = _world(run, _SMALL_GRID, systems, bases=tilted)
    meet(state, "1", "2", _gate("pair_source", "1", "2"), "pair-source")
    meet(state, "1", "A", _gate("cnot", "1", "A"), "near-readout")
    meet(state, "2", "B", _gate(case["far"], "2", "B"), "far-readout")
    meet(state, "A", "B", _gate("identity", "A", "B"), "record-compare")

    table = correlation_table(state, "A", "B")
    name, expected = case["table"]
    run.close(name, table, expected, only=case.get("only", ""))
    run.shows(state, *case["shown"])
    name, system = case["odds"]
    run.close(name, index_distribution(state, system), {0: 0.5, 1: 0.5})
    run.rest_audits(state)

    _frame(state, run.frames)
    return run.finish(state, [("A", "B")], outcomes=table)


# --- student_demo --------------------------------------------------------

_UP_DOWN = {0: "up", 1: "down"}
# tilted readout eigenstates: index 0 points below the equator, 1 above
_UP_DOWN_B_TILTED = {0: "down", 1: "up"}


@_scenario("eight-particle paired tables for both pair readouts")
def run_student_demo(run: _Run) -> ScenarioResult:
    """Eight-particle paired tables for both pair readouts.

    Both pair scenarios are run, eight fluid particles are drawn per
    recorder (stratified, so the split is the exact Born proportion),
    and partners are paired through the synchronized joint table.  The
    matched case gives eight disagreeing pairs; the tilted case the
    6-to-2 pattern, reported in plain up/down language.
    """
    cfg, n = run.cfg, 8
    sub = replace(cfg, trials=0, snapshot_every=0, out_dir=None)
    anti, split = {(0, 1): 4, (1, 0): 4}, {(0, 0): 3, (0, 1): 1, (1, 0): 1, (1, 1): 3}
    counts, styled = {}, {}
    for case, label, b_words, name, expected in (
        ("bell_case1", "matched", _UP_DOWN, "matched case pairs all disagree", anti),
        ("bell_case2", "tilted", _UP_DOWN_B_TILTED, "tilted case shows the 3-1-1-3 split", split),
    ):
        try:
            state = run_bell(_Run(replace(sub, scenario=case))).state
        except CheckFailure as exc:  # the demo fails with the case's failed checks
            run.checks += [c for c in exc.result.summary["checks"] if not c["passed"]]
            return run.finish(exc.result.state)
        _frame(state, run.frames, prefix=f"{label}.")
        pa = sample_particles(state.wavefields["A"], state.grid, n, cfg.seed)
        pb = sample_particles(state.wavefields["B"], state.grid, n, cfg.seed + 1)
        counts[label] = pair_particles(pa, pb, correlation_table(state, "A", "B")).counts
        styled[label] = {(_UP_DOWN[i], b_words[j]): k for (i, j), k in counts[label].items()}
        run.check(name, counts[label] == expected, f"{sorted(counts[label].items())}")
    run.check(
        "up/down language preserves the pattern",
        styled["matched"] == {("up", "down"): 4, ("down", "up"): 4}
        and styled["tilted"]
        == {("up", "up"): 1, ("down", "down"): 1, ("up", "down"): 3, ("down", "up"): 3},
    )

    extra = {f"{label}_counts": _table_json(counts[label]) for label in counts}
    extra.update({f"{label}_styled": _table_json(styled[label]) for label in styled})
    extra["particles_per_side"] = n
    # the per-case audits already passed inside the sub-runs
    return run.finish(state, extra=extra)


# --- beam_splitter_einstein ----------------------------------------------


@_scenario("one excitation over two detectors that never both fire")
def run_beam_splitter_einstein(run: _Run) -> ScenarioResult:
    """One excitation, two detectors, never a double count.

    A single occupied mode is split evenly over two modes, each watched
    by its own detector.  The detectors' records anticorrelate exactly:
    the excitation is never found on both sides.
    """
    systems = [("I", (0.0, 1.0), -2.0), ("II", _READY, 2.0)]
    state = _world(run, _SMALL_GRID, systems + [("A", _READY, -8.0), ("B", _READY, 8.0)])
    meet(state, "I", "II", _gate("splitter", "I", "II"), "split")
    meet(state, "I", "A", _gate("cnot", "I", "A"), "near-detector")
    meet(state, "II", "B", _gate("cnot", "II", "B"), "far-detector")
    meet(state, "A", "B", _gate("identity", "A", "B"), "record-compare")

    table = correlation_table(state, "A", "B")
    expected = {(1, 0): 0.5, (0, 1): 0.5}
    name, only = "exactly one detector fires, even odds", "no double-count branch exists"
    run.close(name, table, expected, only=only)
    modes = correlation_table(state, "I", "II")
    run.close("the excitation sits in exactly one mode", modes, {(1, 0): 0.5, (0, 1): 0.5})
    shown = {(1, (("B", 0), ("I", 1), ("II", 0))): _R, (0, (("B", 1), ("I", 0), ("II", 1))): _R}
    run.shows(state, "near detector carries the two equal branches", "A", shown)
    run.rest_audits(state)

    _frame(state, run.frames)
    return run.finish(state, [("A", "B"), ("I", "II")], outcomes=table)


# --- stern_gerlach -------------------------------------------------------


@_scenario("spin-conditioned path split with momentum-forked branches")
def run_stern_gerlach(run: _Run) -> ScenarioResult:
    """Spin-conditioned path split with spatially forked branches.

    The spin (amplitude pair 1) flips the occupied path mode per index,
    then each spin branch gets an opposite momentum kick and the
    packets fly apart, one path per index, weights preserved.
    """
    a, b = run.cfg.pair(1, 0.6, 0.8)
    systems = [("s", (a, b), 0.0), ("I", (0.0, 1.0), 0.0), ("II", _READY, 0.0)]
    state = _world(run, (-32.0, 32.0, 1024, 0.01), systems)
    grid = state.grid
    _frame(state, run.frames)
    meet(state, "s", "I", _gate("cnot", "s", "I"), "fork-path-up")
    meet(state, "s", "II", _gate("cnot", "s", "II"), "fork-path-down")

    kick = 6.0
    spin = state.wavefields["s"]
    for i, p in enumerate(spin.packets):  # a kick is a write: each branch's shape is a group
        sign = 1.0 if p.index.own == 0 else -1.0
        spin.write(i, p.field * np.exp(1j * sign * kick * grid.x))

    run.evolve(state, 150)

    aa, bb = abs(a) ** 2, abs(b) ** 2
    up, down = (correlation_table(state, "s", path) for path in ("I", "II"))
    run.close("first path occupied on index 0 only", up, {(0, 1): aa, (1, 0): bb})
    run.close("second path occupied on index 1 only", down, {(0, 0): aa, (1, 1): bb})
    shown = {(0, (("I", 1), ("s", 0))): complex(a), (1, (("I", 0), ("s", 1))): complex(b)}
    run.shows(state, "second path carries the two weighted branches", "II", shown)
    weights = index_distribution(state, "s")
    run.close("spin weights preserved through the fork", weights, {0: aa, 1: bb})

    centroids = {}
    for p in spin.packets:
        dens = np.abs(p.field) ** 2
        centroids[p.index.own] = float(np.dot(grid.x, dens) / dens.sum())
    apart = centroids.get(0, 0.0) > 1.0 and centroids.get(1, 0.0) < -1.0
    run.check("branches deflected to opposite sides", apart, f"{centroids}")
    run.rest_audits(state)

    extra = {"branch_centroids": {str(k): v for k, v in sorted(centroids.items())}}
    return run.finish(state, [("s", "I"), ("s", "II")], extra, weights)


# --- weak_entanglement ---------------------------------------------------


def _weak_state(run: _Run, a, b, eps: float) -> ScenarioState:
    systems = [("c", _READY, -4.0), ("t", _READY, 0.0), ("e", _READY, 4.0)]
    state = _world(run, _SMALL_GRID, systems)
    col0 = [a, b * math.cos(eps), 0.0, b * math.sin(eps)]
    coupling = Operator(_unitary_with_first_column(col0), (2, 2), ("c", "t"))
    meet(state, "c", "t", coupling, "weak-coupling")
    meet(state, "c", "e", _gate("cnot", "c", "e"), "amplify")
    return state


@_scenario("weak-coupling purity loss scaling as the coupling squared")
def run_weak_entanglement(run: _Run) -> ScenarioResult:
    """Purity loss of a weakly coupled target scales quadratically.

    The control's state (amplitude pair 1) leaks into the target with
    strength epsilon and is then amplified by a recorder.  The target's
    reduced state drifts from the ideal superposition by a trace
    distance that falls off as epsilon squared.
    """
    cfg = run.cfg
    a, b = cfg.pair(1, 0.6, 0.8)
    ideal = np.outer([a, b], np.conj([a, b]))
    sweep = (0.1, 0.03, 0.01)
    distances = {}
    worst = 0.0
    for eps in sweep:  # worlds of a run of their own: the run checks its grid once, below
        ket = memory_mod.derive_state(_weak_state(_Run(cfg), a, b, eps).wavefields["t"].memory)
        rho = reduced_density(ket, ["t"])
        td = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - ideal))))
        distances[eps] = td
        worst = max(worst, abs(td - abs(a) * abs(b) * (1.0 - math.cos(eps))))
    run.check("trace distance matches the closed form", worst <= 1e-12, f"worst {worst:.3e}")
    logs = np.log(np.array([distances[e] for e in sweep]))
    slope = float(np.polyfit(np.log(np.array(sweep)), logs, 1)[0])
    run.check("purity loss scales as the square", 1.8 <= slope <= 2.2, f"slope {slope:.4f}")

    state = _weak_state(run, a, b, cfg.epsilon)
    _frame(state, run.frames)
    aa, bb = abs(a) ** 2, abs(b) ** 2
    target = index_distribution(state, "t")
    run.close("target weights unaffected by the coupling", target, {0: aa, 1: bb})
    leak = (abs(b) * math.sin(cfg.epsilon)) ** 2
    control = index_distribution(state, "c")
    run.close("control flips with the leaked weight", control, {0: 1.0 - leak, 1: leak})
    run.rest_audits(state)

    extra = {
        "trace_distances": {str(e): float(d) for e, d in distances.items()},
        "slope": slope,
        "epsilon": cfg.epsilon,
    }
    return run.finish(state, [("c", "e")], extra, control)


# --- tunneling -----------------------------------------------------------


def _plane_wave_transmission(k: float, v0: float, width: float) -> float:
    """Transmission rate of one momentum through a rectangular barrier."""
    e = 0.5 * k * k
    if e <= 0.0:
        return 0.0
    if abs(e - v0) < 1e-12:
        return 1.0 / (1.0 + 0.5 * v0 * width * width)
    if e < v0:
        kappa = math.sqrt(2.0 * (v0 - e))
        s = math.sinh(kappa * width)
        return 1.0 / (1.0 + v0 * v0 * s * s / (4.0 * e * (v0 - e)))
    k2 = math.sqrt(2.0 * (e - v0))
    s = math.sin(k2 * width)
    return 1.0 / (1.0 + v0 * v0 * s * s / (4.0 * e * (e - v0)))


@_scenario("barrier transmission against the momentum-averaged analytic rate")
def run_tunneling(run: _Run) -> ScenarioResult:
    """Single packet on a rectangular barrier, fluid picture audited.

    The transmitted fraction must match the momentum-resolved analytic
    rate averaged over the packet's spectrum, and the fluid
    trajectories seeded across the packet must never cross.
    """
    k0, sigma, x0 = 2.0, 2.0, -15.0
    v0, width = 2.0, 1.0
    state = _world(run, (-64.0, 64.0, 2048, 0.01), [("1", _READY, x0, k0)], sigma)
    grid = state.grid
    barrier = np.where((grid.x >= 0.0) & (grid.x < width), v0, 0.0)
    set_potential(state, "1", barrier)
    wf = state.wavefields["1"]
    initial = wf.packets[0].field  # a view's field is built when read

    _frame(state, run.frames)
    times = [0.0]
    fields = [initial]

    def sample() -> None:
        # the streamlines are integrated from a field sampled every 5 steps
        if state.step_count % 5 == 0:
            times.append(state.time)
            fields.append(wf.packets[0].field)

    run.evolve(state, 1400, each=sample)

    run.resolves(grid, k0)
    final = wf.packets[0].field
    dens_final = np.abs(final) ** 2
    transmitted = float(np.sum(dens_final[grid.x >= width]) * grid.dx)
    reflected = float(np.sum(dens_final[grid.x < 0.0]) * grid.dx)

    spectrum = np.abs(np.fft.fft(initial)) ** 2
    rates = np.array([_plane_wave_transmission(k, v0, width) for k in grid.k])
    analytic = float(np.sum(spectrum * rates) / np.sum(spectrum))
    rel = abs(transmitted - analytic) / analytic
    detail = f"measured {transmitted:.6f}, analytic {analytic:.6f}, rel {rel:.2e}"
    run.check("transmitted fraction matches the momentum-averaged rate", rel <= 0.01, detail)

    drift = abs(norm_squared(final, grid) - 1.0)
    run.check("unit mass conserved through the barrier", drift <= 1e-8, f"{drift:.3e}")

    cum = cumulative_mass(np.abs(initial) ** 2, grid)
    quantiles = np.linspace(0.025, 0.975, 50)
    seeds = np.interp(quantiles * cum[-1], cum, grid.x)
    positions = streamlines(np.array(times), np.array(fields), seeds, grid)
    min_gap = float(np.diff(positions, axis=1).min())
    run.check("fluid trajectories never cross", min_gap >= -1e-9, f"min ordered gap {min_gap:.3e}")
    run.rest_audits(state, mass=False)

    extra = {
        "transmitted": transmitted,
        "reflected": reflected,
        "analytic_transmitted": analytic,
        "barrier": {"height": v0, "width": width},
        "packet": {"k0": k0, "sigma": sigma, "x0": x0},
    }
    outcomes = {"transmitted": transmitted, "reflected": 1.0 - transmitted}
    return run.finish(state, extra=extra, outcomes=outcomes)


def list_scenarios() -> list[tuple[str, str]]:
    return [(name, blurb) for name, (_, blurb) in SCENARIOS.items()]


def aborted(cfg: ScenarioConfig, error: Exception) -> ScenarioResult:
    """The result of a run an engine audit stopped: one failed check, whose detail is the error.

    It holds no frame and no boundary row, so its CSV files hold their headers alone.
    """
    check = {"name": "engine audits pass", "passed": False, "detail": str(error)}
    summary = {"scenario": cfg.scenario, "checks": [check], "passed": False}
    return ScenarioResult(cfg.scenario, cfg, None, summary, [], [], False)


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    try:
        runner, _ = SCENARIOS[cfg.scenario]
    except KeyError:
        raise ValueError(f"unknown scenario {cfg.scenario!r}") from None
    return runner(_Run(cfg))
