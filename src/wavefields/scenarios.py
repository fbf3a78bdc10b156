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
from .spatial import Grid, gaussian_packet, norm_squared, streamlines

_R = 1.0 / math.sqrt(2.0)
_CROSSING_K0 = 5.0  # packet momentum of the two crossing scenarios

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
    jobs: int = 1
    out_dir: str | None = None

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be nonnegative")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if not 0.0 < self.epsilon < math.pi / 2.0:
            raise ValueError("epsilon must lie in (0, pi/2)")

    def make_grid(self, x_min: float, x_max: float, n: int, dt: float) -> Grid:
        return Grid(
            self.x_min if self.x_min is not None else x_min,
            self.x_max if self.x_max is not None else x_max,
            self.n_points if self.n_points is not None else n,
            self.dt if self.dt is not None else dt,
        )

    def pair(self, which: int, default_a: complex, default_b: complex):
        a = getattr(self, f"a{which}")
        b = getattr(self, f"b{which}")
        if a is None and b is None:
            return complex(default_a), complex(default_b)
        if a is None or b is None:
            raise ValueError(f"amplitude pair {which} needs both a{which} and b{which}")
        a, b = complex(a), complex(b)
        if abs(abs(a) ** 2 + abs(b) ** 2 - 1.0) > 1e-10:
            raise ValueError(f"amplitude pair {which} is not normalized")
        return a, b


@dataclass
class ScenarioResult:
    name: str
    config: ScenarioConfig
    state: ScenarioState
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


def _check(records: list, name: str, passed, detail="") -> None:
    records.append({"name": name, "passed": bool(passed), "detail": str(detail)})


def _close(actual: dict, expected: dict, tol: float) -> float:
    """Largest deviation between two outcome tables, missing keys as 0."""
    worst = 0.0
    for k in set(actual) | set(expected):
        worst = max(worst, abs(actual.get(k, 0.0) - expected.get(k, 0.0)))
    return worst


def _frame(state: ScenarioState, frames: list, prefix: str = "") -> None:
    # one block per packet: time, the grid's x, label system:index, field
    for name in sorted(state.wavefields):
        ordered = sorted(branches(state, name), key=lambda p: (p.region or "", p.index.text()))
        for p in ordered:
            label = f"{prefix}{name}:{p.index.text()}"
            frames.append((state.time, state.grid.x, label, p.field.copy()))


def _resolution_check(grid: Grid, k0: float, checks: list) -> None:
    # A momentum at or past pi/dx aliases and voids the run.  Listed only
    # when it fails, so the summaries of resolved runs stay as they were.
    if abs(k0) >= math.pi / grid.dx:
        detail = f"|k0| {abs(k0)} >= pi/dx {math.pi / grid.dx:.4g}"
        _check(checks, "grid resolves packet momenta", False, detail)


def _table_json(table: dict) -> dict:
    return {",".join(str(part) for part in k): float(v) for k, v in sorted(table.items())}


def _packet_centroid(packet, grid: Grid) -> float:
    dens = np.abs(packet.field) ** 2
    return float(np.dot(grid.x, dens) / dens.sum())


def _ensemble_block(cfg: ScenarioConfig, name: str, outcomes: dict, checks: list):
    if cfg.trials <= 0:
        return None
    stats = statistics_report(name, outcomes, cfg.trials, cfg.seed, jobs=cfg.jobs)
    zs = stats["z_scores"].values()
    _check(
        checks,
        "ensemble frequencies within 3 sigma",
        all(abs(z) <= Z_LIMIT for z in zs),
        f"max |z| {max((abs(z) for z in zs), default=0.0):.3f} over {cfg.trials} trials",
    )
    return stats


def _finalize(
    name: str,
    cfg: ScenarioConfig,
    state: ScenarioState,
    checks: list,
    frames: list,
    table_pairs=(),
    extra: dict | None = None,
    outcomes: dict | None = None,
) -> ScenarioResult:
    # ``outcomes`` is the table the ensemble trials sample, if any
    stats = _ensemble_block(cfg, name, outcomes, checks) if outcomes is not None else None
    if stats:
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
                "final_x12": float(link.x12),
                "max_abs_x12": float(max(abs(t[1]) for t in link.trajectory)),
                "crossed_left": float(link.crossed_left),
                "crossed_right": float(link.crossed_right),
                "max_crossed_gap": float(max(abs(t[2] - t[3]) for t in link.trajectory)),
            }
            for link in state.links
        ],
        "checks": checks,
    }
    if extra:
        summary.update(extra)
    passed = all(c["passed"] for c in checks)
    summary["passed"] = passed
    boundary_rows = [
        (float(t), float(x), float(cl), float(cr))
        for link in state.links
        for t, x, cl, cr in link.trajectory
    ]
    result = ScenarioResult(name, cfg, state, summary, frames, boundary_rows, passed)
    if not passed:
        raise CheckFailure(result)
    return result


def _memory_audit(state: ScenarioState, checks: list) -> None:
    worst = 0.0
    try:
        for s in sorted(state.wavefields):
            worst = max(worst, validate_against_memory(state, s, atol=ORACLE_TOL))
        _check(checks, "branches match memory-derived expansion", True, f"worst {worst:.3e}")
    except AssertionError as exc:
        _check(checks, "branches match memory-derived expansion", False, exc)


def _rest_audits(state: ScenarioState, checks: list) -> None:
    """Unit fluid mass per system, then the memory audit."""
    worst = max(abs(total_mass(state, s) - 1.0) for s in state.wavefields)
    _check(checks, "unit fluid mass per system", worst <= ORACLE_TOL, f"worst {worst:.3e}")
    _memory_audit(state, checks)


# two-system gates, row-major over (first label, second label)


def _cnot(control: str, target: str) -> Operator:
    m = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    return Operator(m, (2, 2), (control, target))


def _cz(a: str, b: str) -> Operator:
    return Operator(np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex), (2, 2), (a, b))


def _identity_pair(a: str, b: str) -> Operator:
    return Operator(np.eye(4, dtype=complex), (2, 2), (a, b))


def _unitary_with_first_column(col0, labels) -> Operator:
    """Any unitary whose action on |0..0> is the given column."""
    col0 = np.asarray(col0, dtype=complex)
    d = col0.size
    cols = [col0 / np.linalg.norm(col0)]
    for e in np.eye(d, dtype=complex):
        v = e.copy()
        for c in cols:
            v -= c * np.vdot(c, v)
        n = np.linalg.norm(v)
        if n > 1e-9:
            cols.append(v / n)
        if len(cols) == d:
            break
    dims = (2,) * int(math.log2(d))
    return Operator(np.stack(cols, axis=1), dims, labels)


def _run_crossing(state: ScenarioState, link, cfg: ScenarioConfig, frames: list) -> None:
    """Advance until the boundary completes, snapshotting on cadence."""
    stride = cfg.snapshot_every if cfg.snapshot_every > 0 else 64
    cap = int(math.ceil(20.0 / state.grid.dt))
    while link.active and state.step_count < cap:
        advance(state, stride)
        if cfg.snapshot_every > 0 and link.active:
            _frame(state, frames)


# --- two_spin_crossing ---------------------------------------------------


def run_two_spin_crossing(cfg: ScenarioConfig) -> ScenarioResult:
    """Two moving spins exchange a phase while passing through a boundary.

    Spins fly at each other, interact through a conditional phase as
    their fluids cross the equal-flux boundary, and separate carrying
    correlated index labels.  Amplitude pairs 1 and 2 set the internal
    states; by symmetry of the shapes the boundary must stay put.
    """
    grid = cfg.make_grid(-64.0, 64.0, 2048, 0.0125)
    a1, b1 = cfg.pair(1, _R, _R)
    a2, b2 = cfg.pair(2, _R, _R)
    state = new_state(grid)
    add_system(state, "1", (a1, b1), gaussian_packet(grid, -8.0, 1.0, _CROSSING_K0))
    add_system(state, "2", (a2, b2), gaussian_packet(grid, 8.0, 1.0, -_CROSSING_K0))
    frames: list = []
    _frame(state, frames)
    link = meet(state, "1", "2", _cz("1", "2"), "phase-exchange", mode="crossing")
    _run_crossing(state, link, cfg, frames)
    _frame(state, frames)

    checks: list = []
    _resolution_check(grid, _CROSSING_K0, checks)
    _check(checks, "crossing completed", not link.active, f"{state.step_count} steps")
    traj = np.array(link.trajectory)
    _check(
        checks,
        "boundary stays within one cell of the symmetry point",
        np.abs(traj[:, 1]).max() <= grid.dx,
        f"max |x12| {np.abs(traj[:, 1]).max():.3e}, dx {grid.dx}",
    )
    gap = float(np.abs(traj[:, 2] - traj[:, 3]).max())
    _check(checks, "crossed fluid levels agree", gap <= 1e-6, f"max gap {gap:.3e}")
    if link.active:  # the audits below need both systems at rest
        return _finalize(cfg.scenario, cfg, state, checks, frames)

    ket = apply(_cz("1", "2"), tensor(state_ket("1", (a1, b1)), state_ket("2", (a2, b2))))
    expected = {}
    for term in expand_product_terms(ket):
        m = term.label_map()
        expected[(m["1"], m["2"])] = abs(term.coefficient) ** 2
    table = correlation_table(state, "1", "2")
    diff = _close(table, expected, ORACLE_TOL)
    _check(checks, "joint table matches product-state route", diff <= ORACLE_TOL, f"{diff:.3e}")
    _rest_audits(state, checks)

    return _finalize(
        cfg.scenario, cfg, state, checks, frames, [("1", "2"), ("2", "1")], outcomes=table
    )


# --- three_spin_chain ----------------------------------------------------


def run_three_spin_chain(cfg: ScenarioConfig) -> ScenarioResult:
    """Chained couplings leave the bystander bit-identical.

    Spin 1 couples to 2, then to 3.  The second interaction must not
    touch system 2 at all: not its packets, not its record.  System 2's
    own correlation view stays the one written by the first coupling.
    """
    grid = cfg.make_grid(-32.0, 32.0, 512, 0.01)
    s1 = cfg.pair(1, 0.6, 0.8)
    s2 = cfg.pair(2, _R, _R)
    s3 = (1.0, 0.0)
    state = new_state(grid)
    add_system(state, "1", s1, gaussian_packet(grid, -6.0, 1.5))
    add_system(state, "2", s2, gaussian_packet(grid, 0.0, 1.5))
    add_system(state, "3", s3, gaussian_packet(grid, 6.0, 1.5))
    frames: list = []
    _frame(state, frames)

    meet(state, "1", "2", _cz("1", "2"), "couple-near")
    wf2 = state.wavefields["2"]
    before = [(p.index, complex(p.coefficient), p.field.copy()) for p in wf2.packets]
    mem_before = wf2.memory
    ops_before = len(memory_mod.linearize(wf2.memory))
    meet(state, "1", "3", _cnot("1", "3"), "couple-far")

    checks: list = []
    same_object = state.wavefields["2"] is wf2 and wf2.memory is mem_before
    untouched = (
        same_object
        and len(memory_mod.linearize(wf2.memory)) == ops_before
        and len(wf2.packets) == len(before)
        and all(
            p.index == idx
            and complex(p.coefficient) == c
            and np.array_equal(p.field, f)
            for p, (idx, c, f) in zip(wf2.packets, before)
        )
    )
    _check(checks, "bystander untouched by the far coupling", untouched)

    advance(state, 20)

    ket = tensor(tensor(state_ket("1", s1), state_ket("2", s2)), state_ket("3", s3))
    full = apply(_cnot("1", "3"), apply(_cz("1", "2"), ket))
    exp13, exp21 = {}, {}
    for term in expand_product_terms(full):
        m = term.label_map()
        key = (m["1"], m["3"])
        exp13[key] = exp13.get(key, 0.0) + abs(term.coefficient) ** 2
    for term in expand_product_terms(apply(_cz("1", "2"), ket)):
        m = term.label_map()
        key = (m["2"], m["1"])
        exp21[key] = exp21.get(key, 0.0) + abs(term.coefficient) ** 2
    table = correlation_table(state, "1", "3")
    diff13 = _close(table, exp13, EXACT_TOL)
    _check(checks, "far pair table matches product-state route", diff13 <= EXACT_TOL, f"{diff13:.3e}")
    diff21 = _close(correlation_table(state, "2", "1"), exp21, EXACT_TOL)
    _check(
        checks,
        "bystander's view stops at its own last interaction",
        diff21 <= EXACT_TOL,
        f"{diff21:.3e}",
    )
    _rest_audits(state, checks)
    _frame(state, frames)

    return _finalize(
        cfg.scenario, cfg, state, checks, frames, [("1", "3"), ("2", "1")], outcomes=table
    )


# --- von_neumann ---------------------------------------------------------


def run_von_neumann(cfg: ScenarioConfig) -> ScenarioResult:
    """Pointer readout of a spin through a crossing.

    A spin in a superposition set by amplitude pair 1 flies through a
    ready pointer.  The boundary conditions are frozen by the ready
    state: the joint expansion admits only perfectly correlated terms,
    so the pointer's final index distribution is the spin's weights.
    """
    grid = cfg.make_grid(-64.0, 64.0, 2048, 0.0125)
    a1, b1 = cfg.pair(1, _R, _R)
    state = new_state(grid)
    add_system(state, "1", (a1, b1), gaussian_packet(grid, -8.0, 1.0, _CROSSING_K0))
    add_system(state, "2", (1.0, 0.0), gaussian_packet(grid, 8.0, 1.0, -_CROSSING_K0))
    frames: list = []
    _frame(state, frames)
    link = meet(state, "1", "2", _cnot("1", "2"), "pointer-readout", mode="crossing")

    checks: list = []
    _resolution_check(grid, _CROSSING_K0, checks)
    expected_left = np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=complex)
    expected_right = np.array([[a1, 0], [0, a1], [0, b1], [b1, 0]], dtype=complex)
    dl = float(np.abs(link.t_left.matrix - expected_left).max())
    dr = float(np.abs(link.t_right.matrix - expected_right).max())
    _check(checks, "spin-side boundary matrix is the frozen form", dl <= 1e-12, f"{dl:.3e}")
    _check(checks, "pointer-side boundary matrix is the frozen form", dr <= 1e-12, f"{dr:.3e}")

    _run_crossing(state, link, cfg, frames)
    _frame(state, frames)
    _check(checks, "crossing completed", not link.active, f"{state.step_count} steps")
    if link.active:  # the audits below need both systems at rest
        return _finalize(cfg.scenario, cfg, state, checks, frames)

    pointer = index_distribution(state, "2")
    expected = {0: abs(a1) ** 2, 1: abs(b1) ** 2}
    diff = _close(pointer, expected, EXACT_TOL)
    _check(checks, "pointer weights equal spin weights", diff <= EXACT_TOL, f"{diff:.3e}")
    table = correlation_table(state, "2", "1")
    exp_table = {(0, 0): abs(a1) ** 2, (1, 1): abs(b1) ** 2}
    diff = _close(table, exp_table, EXACT_TOL)
    _check(checks, "pointer and spin indexes perfectly correlated", diff <= EXACT_TOL, f"{diff:.3e}")
    _rest_audits(state, checks)

    return _finalize(
        cfg.scenario, cfg, state, checks, frames, table_pairs=[("2", "1")], outcomes=pointer
    )


# --- bell pair scenarios -------------------------------------------------


def _phi_basis() -> Operator:
    # tilted readout direction, 120 degrees from the reference axis
    phi_plus = np.array([0.5, math.sqrt(3.0) / 2.0])
    phi_minus = np.array([math.sqrt(3.0) / 2.0, -0.5])
    return Operator(np.stack([phi_plus, phi_minus], axis=1), (2,), ("2",))


def _pair_source() -> Operator:
    return _unitary_with_first_column([0.0, _R, -_R, 0.0], ("1", "2"))


def _tilted_readout() -> Operator:
    basis = _phi_basis().matrix
    p_plus = np.outer(basis[:, 0], basis[:, 0].conj())
    p_minus = np.outer(basis[:, 1], basis[:, 1].conj())
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    m = np.kron(p_plus, np.eye(2)) + np.kron(p_minus, flip)
    return Operator(m, (2, 2), ("2", "B"))


def _bell_state(cfg: ScenarioConfig, tilted: bool) -> ScenarioState:
    grid = cfg.make_grid(-32.0, 32.0, 512, 0.01)
    state = new_state(grid)
    if tilted:
        state.index_bases["2"] = _phi_basis()
    add_system(state, "1", (1.0, 0.0), gaussian_packet(grid, -2.0, 1.5))
    add_system(state, "2", (1.0, 0.0), gaussian_packet(grid, 2.0, 1.5))
    add_system(state, "A", (1.0, 0.0), gaussian_packet(grid, -8.0, 1.5))
    add_system(state, "B", (1.0, 0.0), gaussian_packet(grid, 8.0, 1.5))
    meet(state, "1", "2", _pair_source(), "pair-source")
    meet(state, "1", "A", _cnot("1", "A"), "near-readout")
    readout = _tilted_readout() if tilted else _cnot("2", "B")
    meet(state, "2", "B", readout, "far-readout")
    meet(state, "A", "B", _identity_pair("A", "B"), "record-compare")
    return state


def _display_map(state: ScenarioState, system: str) -> dict:
    wf = state.wavefields[system]
    return {(p.index.own, p.index.partners): complex(p.coefficient) for p in wf.packets}


def run_bell_case1(cfg: ScenarioConfig) -> ScenarioResult:
    """Matched-basis pair readout: outcomes disagree every single time."""
    state = _bell_state(cfg, tilted=False)
    frames: list = []
    checks: list = []

    table = correlation_table(state, "A", "B")
    expected = {(0, 1): 0.5, (1, 0): 0.5}
    diff = _close(table, expected, EXACT_TOL)
    _check(checks, "recorders anticorrelated half-half", diff <= EXACT_TOL, f"{diff:.3e}")
    _check(
        checks,
        "no same-outcome branch exists",
        all(k in expected for k in table),
        f"keys {sorted(table)}",
    )

    display = _display_map(state, "A")
    expected_display = {
        (0, (("1", 0), ("2", 1), ("B", 1))): _R,
        (1, (("1", 1), ("2", 0), ("B", 0))): -_R,
    }
    ok = set(display) == set(expected_display) and all(
        abs(display[k] - expected_display[k]) <= EXACT_TOL for k in expected_display
    )
    _check(checks, "near recorder carries the two signed branches", ok)

    dist = index_distribution(state, "A")
    diff = _close(dist, {0: 0.5, 1: 0.5}, EXACT_TOL)
    _check(checks, "each recorder outcome is even odds", diff <= EXACT_TOL, f"{diff:.3e}")
    _rest_audits(state, checks)

    _frame(state, frames)
    return _finalize(
        cfg.scenario, cfg, state, checks, frames, table_pairs=[("A", "B")], outcomes=table
    )


def run_bell_case2(cfg: ScenarioConfig) -> ScenarioResult:
    """Tilted-basis pair readout: three-eighths agreement pattern."""
    state = _bell_state(cfg, tilted=True)
    frames: list = []
    checks: list = []

    table = correlation_table(state, "A", "B")
    expected = {(0, 0): 3.0 / 8.0, (0, 1): 1.0 / 8.0, (1, 0): 1.0 / 8.0, (1, 1): 3.0 / 8.0}
    diff = _close(table, expected, EXACT_TOL)
    _check(checks, "recorder table shows the tilted pattern", diff <= EXACT_TOL, f"{diff:.3e}")

    q38, q18 = math.sqrt(3.0 / 8.0), math.sqrt(1.0 / 8.0)
    display = _display_map(state, "B")
    expected_display = {
        (0, (("1", 0), ("2", 0), ("A", 0))): q38,
        (0, (("1", 1), ("2", 0), ("A", 1))): -q18,
        (1, (("1", 0), ("2", 1), ("A", 0))): -q18,
        (1, (("1", 1), ("2", 1), ("A", 1))): -q38,
    }
    ok = set(display) == set(expected_display) and all(
        abs(display[k] - expected_display[k]) <= EXACT_TOL for k in expected_display
    )
    _check(checks, "far recorder carries the four signed branches", ok)

    dist = index_distribution(state, "2")
    diff = _close(dist, {0: 0.5, 1: 0.5}, EXACT_TOL)
    _check(checks, "tilted indexes of the pair are even odds", diff <= EXACT_TOL, f"{diff:.3e}")
    _rest_audits(state, checks)

    _frame(state, frames)
    return _finalize(
        cfg.scenario, cfg, state, checks, frames, table_pairs=[("A", "B")], outcomes=table
    )


# --- student_demo --------------------------------------------------------

_UP_DOWN_A = {0: "up", 1: "down"}
_UP_DOWN_B_MATCHED = {0: "up", 1: "down"}
# tilted readout eigenstates: index 0 points below the equator, 1 above
_UP_DOWN_B_TILTED = {0: "down", 1: "up"}


def _styled(counts: dict, map_a: dict, map_b: dict) -> dict:
    out: dict = {}
    for (i, j), n in counts.items():
        key = (map_a[i], map_b[j])
        out[key] = out.get(key, 0) + n
    return out


def run_student_demo(cfg: ScenarioConfig) -> ScenarioResult:
    """Eight-particle paired tables for both pair readouts.

    Both pair scenarios are run, eight fluid particles are drawn per
    recorder (stratified, so the split is the exact Born proportion),
    and partners are paired through the synchronized joint table.  The
    matched case gives eight disagreeing pairs; the tilted case the
    6-to-2 pattern, reported in plain up/down language.
    """
    sub = replace(cfg, trials=0, snapshot_every=0, out_dir=None)
    res1 = run_bell_case1(replace(sub, scenario="bell_case1"))
    res2 = run_bell_case2(replace(sub, scenario="bell_case2"))
    checks: list = []
    frames: list = []
    _frame(res1.state, frames, prefix="matched.")
    _frame(res2.state, frames, prefix="tilted.")

    n = 8
    counts = {}
    for label, res in (("matched", res1), ("tilted", res2)):
        pa = sample_particles(res.state.wavefields["A"], res.state.grid, n, cfg.seed)
        pb = sample_particles(res.state.wavefields["B"], res.state.grid, n, cfg.seed + 1)
        report = pair_particles(pa, pb, correlation_table(res.state, "A", "B"))
        counts[label] = report.counts

    expected1 = {(0, 1): 4, (1, 0): 4}
    _check(
        checks,
        "matched case pairs all disagree",
        counts["matched"] == expected1,
        f"{sorted(counts['matched'].items())}",
    )
    expected2 = {(0, 0): 3, (0, 1): 1, (1, 0): 1, (1, 1): 3}
    _check(
        checks,
        "tilted case shows the 3-1-1-3 split",
        counts["tilted"] == expected2,
        f"{sorted(counts['tilted'].items())}",
    )
    styled1 = _styled(counts["matched"], _UP_DOWN_A, _UP_DOWN_B_MATCHED)
    styled2 = _styled(counts["tilted"], _UP_DOWN_A, _UP_DOWN_B_TILTED)
    _check(
        checks,
        "up/down language preserves the pattern",
        styled1 == {("up", "down"): 4, ("down", "up"): 4}
        and styled2
        == {("up", "up"): 1, ("down", "down"): 1, ("up", "down"): 3, ("down", "up"): 3},
    )

    extra = {
        "matched_counts": _table_json(counts["matched"]),
        "tilted_counts": _table_json(counts["tilted"]),
        "matched_styled": _table_json(styled1),
        "tilted_styled": _table_json(styled2),
        "particles_per_side": n,
    }
    # the per-case audits already passed inside the sub-runs
    return _finalize(cfg.scenario, cfg, res2.state, checks, frames, extra=extra)


# --- beam_splitter_einstein ----------------------------------------------


def _splitter() -> Operator:
    m = np.array(
        [[1, 0, 0, 0], [0, _R, _R, 0], [0, -_R, _R, 0], [0, 0, 0, 1]], dtype=complex
    )
    return Operator(m, (2, 2), ("I", "II"))


def run_beam_splitter_einstein(cfg: ScenarioConfig) -> ScenarioResult:
    """One excitation, two detectors, never a double count.

    A single occupied mode is split evenly over two modes, each watched
    by its own detector.  The detectors' records anticorrelate exactly:
    the excitation is never found on both sides.
    """
    grid = cfg.make_grid(-32.0, 32.0, 512, 0.01)
    state = new_state(grid)
    add_system(state, "I", (0.0, 1.0), gaussian_packet(grid, -2.0, 1.5))
    add_system(state, "II", (1.0, 0.0), gaussian_packet(grid, 2.0, 1.5))
    add_system(state, "A", (1.0, 0.0), gaussian_packet(grid, -8.0, 1.5))
    add_system(state, "B", (1.0, 0.0), gaussian_packet(grid, 8.0, 1.5))
    meet(state, "I", "II", _splitter(), "split")
    meet(state, "I", "A", _cnot("I", "A"), "near-detector")
    meet(state, "II", "B", _cnot("II", "B"), "far-detector")
    meet(state, "A", "B", _identity_pair("A", "B"), "record-compare")

    checks: list = []
    frames: list = []
    table = correlation_table(state, "A", "B")
    expected = {(1, 0): 0.5, (0, 1): 0.5}
    diff = _close(table, expected, EXACT_TOL)
    _check(checks, "exactly one detector fires, even odds", diff <= EXACT_TOL, f"{diff:.3e}")
    _check(
        checks,
        "no double-count branch exists",
        all(k in expected for k in table),
        f"keys {sorted(table)}",
    )
    modes = correlation_table(state, "I", "II")
    diff = _close(modes, {(1, 0): 0.5, (0, 1): 0.5}, EXACT_TOL)
    _check(checks, "the excitation sits in exactly one mode", diff <= EXACT_TOL, f"{diff:.3e}")

    display = _display_map(state, "A")
    expected_display = {
        (1, (("B", 0), ("I", 1), ("II", 0))): _R,
        (0, (("B", 1), ("I", 0), ("II", 1))): _R,
    }
    ok = set(display) == set(expected_display) and all(
        abs(display[k] - expected_display[k]) <= EXACT_TOL for k in expected_display
    )
    _check(checks, "near detector carries the two equal branches", ok)
    _rest_audits(state, checks)

    _frame(state, frames)
    return _finalize(
        cfg.scenario, cfg, state, checks, frames, [("A", "B"), ("I", "II")], outcomes=table
    )


# --- stern_gerlach -------------------------------------------------------


def run_stern_gerlach(cfg: ScenarioConfig) -> ScenarioResult:
    """Spin-conditioned path split with spatially forked branches.

    The spin (amplitude pair 1) flips the occupied path mode per index,
    then each spin branch gets an opposite momentum kick and the
    packets fly apart, one path per index, weights preserved.
    """
    grid = cfg.make_grid(-32.0, 32.0, 1024, 0.01)
    a, b = cfg.pair(1, 0.6, 0.8)
    state = new_state(grid)
    add_system(state, "s", (a, b), gaussian_packet(grid, 0.0, 1.5))
    add_system(state, "I", (0.0, 1.0), gaussian_packet(grid, 0.0, 1.5))
    add_system(state, "II", (1.0, 0.0), gaussian_packet(grid, 0.0, 1.5))
    frames: list = []
    _frame(state, frames)
    meet(state, "s", "I", _cnot("s", "I"), "fork-path-up")
    meet(state, "s", "II", _cnot("s", "II"), "fork-path-down")

    kick = 6.0
    spin = state.wavefields["s"]
    for p in spin.packets:
        sign = 1.0 if p.index.own == 0 else -1.0
        p.field = p.field * np.exp(1j * sign * kick * grid.x)

    steps = 150
    stride = cfg.snapshot_every if cfg.snapshot_every > 0 else steps
    done = 0
    while done < steps:
        advance(state, min(stride, steps - done))
        done += min(stride, steps - done)
        if cfg.snapshot_every > 0:
            _frame(state, frames)
    if cfg.snapshot_every == 0:
        _frame(state, frames)

    checks: list = []
    aa, bb = abs(a) ** 2, abs(b) ** 2
    diff = _close(correlation_table(state, "s", "I"), {(0, 1): aa, (1, 0): bb}, EXACT_TOL)
    _check(checks, "first path occupied on index 0 only", diff <= EXACT_TOL, f"{diff:.3e}")
    diff = _close(correlation_table(state, "s", "II"), {(0, 0): aa, (1, 1): bb}, EXACT_TOL)
    _check(checks, "second path occupied on index 1 only", diff <= EXACT_TOL, f"{diff:.3e}")

    display = _display_map(state, "II")
    expected_display = {
        (0, (("I", 1), ("s", 0))): complex(a),
        (1, (("I", 0), ("s", 1))): complex(b),
    }
    ok = set(display) == set(expected_display) and all(
        abs(display[k] - expected_display[k]) <= EXACT_TOL for k in expected_display
    )
    _check(checks, "second path carries the two weighted branches", ok)

    weights = index_distribution(state, "s")
    diff = _close(weights, {0: aa, 1: bb}, EXACT_TOL)
    _check(checks, "spin weights preserved through the fork", diff <= EXACT_TOL, f"{diff:.3e}")

    centroids = {p.index.own: _packet_centroid(p, grid) for p in spin.packets}
    _check(
        checks,
        "branches deflected to opposite sides",
        centroids.get(0, 0.0) > 1.0 and centroids.get(1, 0.0) < -1.0,
        f"{centroids}",
    )
    _rest_audits(state, checks)

    extra = {"branch_centroids": {str(k): v for k, v in sorted(centroids.items())}}
    return _finalize(
        cfg.scenario, cfg, state, checks, frames, [("s", "I"), ("s", "II")], extra, weights
    )


# --- weak_entanglement ---------------------------------------------------


def _weak_state(cfg: ScenarioConfig, a, b, eps: float) -> ScenarioState:
    grid = cfg.make_grid(-32.0, 32.0, 512, 0.01)
    state = new_state(grid)
    add_system(state, "c", (1.0, 0.0), gaussian_packet(grid, -4.0, 1.5))
    add_system(state, "t", (1.0, 0.0), gaussian_packet(grid, 0.0, 1.5))
    add_system(state, "e", (1.0, 0.0), gaussian_packet(grid, 4.0, 1.5))
    col0 = [a, b * math.cos(eps), 0.0, b * math.sin(eps)]
    meet(state, "c", "t", _unitary_with_first_column(col0, ("c", "t")), "weak-coupling")
    meet(state, "c", "e", _cnot("c", "e"), "amplify")
    return state


def _target_trace_distance(state: ScenarioState, a, b) -> float:
    ket = memory_mod.derive_state(state.wavefields["t"].memory)
    rho = reduced_density(ket, ["t"])
    v = np.array([a, b], dtype=complex)
    ideal = np.outer(v, v.conj())
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - ideal))))


def run_weak_entanglement(cfg: ScenarioConfig) -> ScenarioResult:
    """Purity loss of a weakly coupled target scales quadratically.

    The control's state (amplitude pair 1) leaks into the target with
    strength epsilon and is then amplified by a recorder.  The target's
    reduced state drifts from the ideal superposition by a trace
    distance that falls off as epsilon squared.
    """
    a, b = cfg.pair(1, 0.6, 0.8)
    sweep = (0.1, 0.03, 0.01)
    checks: list = []
    distances = {}
    worst = 0.0
    for eps in sweep:
        td = _target_trace_distance(_weak_state(cfg, a, b, eps), a, b)
        distances[eps] = td
        worst = max(worst, abs(td - abs(a) * abs(b) * (1.0 - math.cos(eps))))
    _check(
        checks,
        "trace distance matches the closed form",
        worst <= 1e-12,
        f"worst {worst:.3e}",
    )
    slope = float(
        np.polyfit(np.log(np.array(sweep)), np.log(np.array([distances[e] for e in sweep])), 1)[0]
    )
    _check(checks, "purity loss scales as the square", 1.8 <= slope <= 2.2, f"slope {slope:.4f}")

    state = _weak_state(cfg, a, b, cfg.epsilon)
    frames: list = []
    _frame(state, frames)
    aa, bb = abs(a) ** 2, abs(b) ** 2
    diff = _close(index_distribution(state, "t"), {0: aa, 1: bb}, EXACT_TOL)
    _check(checks, "target weights unaffected by the coupling", diff <= EXACT_TOL, f"{diff:.3e}")
    leak = (abs(b) * math.sin(cfg.epsilon)) ** 2
    control = index_distribution(state, "c")
    diff = _close(control, {0: 1.0 - leak, 1: leak}, EXACT_TOL)
    _check(checks, "control flips with the leaked weight", diff <= EXACT_TOL, f"{diff:.3e}")
    _rest_audits(state, checks)

    extra = {
        "trace_distances": {str(e): float(d) for e, d in distances.items()},
        "slope": slope,
        "epsilon": cfg.epsilon,
    }
    return _finalize(
        cfg.scenario, cfg, state, checks, frames, [("c", "e")], extra, control
    )


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


def run_tunneling(cfg: ScenarioConfig) -> ScenarioResult:
    """Single packet on a rectangular barrier, fluid picture audited.

    The transmitted fraction must match the momentum-resolved analytic
    rate averaged over the packet's spectrum, and the fluid
    trajectories seeded across the packet must never cross.
    """
    grid = cfg.make_grid(-64.0, 64.0, 2048, 0.01)
    k0, sigma, x0 = 2.0, 2.0, -15.0
    v0, width = 2.0, 1.0
    state = new_state(grid)
    add_system(state, "1", (1.0, 0.0), gaussian_packet(grid, x0, sigma, k0))
    barrier = np.where((grid.x >= 0.0) & (grid.x < width), v0, 0.0)
    set_potential(state, "1", barrier)
    packet = state.wavefields["1"].packets[0]
    initial = packet.field.copy()

    frames: list = []
    _frame(state, frames)
    frame_stride = 5
    steps = 1400
    times = [0.0]
    fields = [initial.copy()]
    done = 0
    while done < steps:
        # stop at the next streamline sample or snapshot, whichever is first
        nxt = (done // frame_stride + 1) * frame_stride
        if cfg.snapshot_every > 0:
            nxt = min(nxt, (done // cfg.snapshot_every + 1) * cfg.snapshot_every)
        advance(state, nxt - done)
        done = nxt
        if done % frame_stride == 0:
            times.append(state.time)
            fields.append(packet.field.copy())
        if cfg.snapshot_every > 0 and done % cfg.snapshot_every == 0 and done < steps:
            _frame(state, frames)
    _frame(state, frames)

    checks: list = []
    _resolution_check(grid, k0, checks)
    dens_final = np.abs(packet.field) ** 2
    transmitted = float(np.sum(dens_final[grid.x >= width]) * grid.dx)
    reflected = float(np.sum(dens_final[grid.x < 0.0]) * grid.dx)

    spectrum = np.abs(np.fft.fft(initial)) ** 2
    rates = np.array([_plane_wave_transmission(k, v0, width) for k in grid.k])
    analytic = float(np.sum(spectrum * rates) / np.sum(spectrum))
    rel = abs(transmitted - analytic) / analytic
    _check(
        checks,
        "transmitted fraction matches the momentum-averaged rate",
        rel <= 0.01,
        f"measured {transmitted:.6f}, analytic {analytic:.6f}, rel {rel:.2e}",
    )

    drift = abs(norm_squared(packet.field, grid) - 1.0)
    _check(checks, "unit mass conserved through the barrier", drift <= 1e-8, f"{drift:.3e}")

    cum = np.cumsum(np.abs(initial) ** 2) * grid.dx
    quantiles = np.linspace(0.025, 0.975, 50)
    seeds = np.interp(quantiles * cum[-1], cum, grid.x)
    lines = streamlines(np.array(times), np.array(fields), seeds, grid, label="1")
    positions = np.stack([w.positions for w in lines], axis=1)
    min_gap = float(np.diff(positions, axis=1).min())
    _check(
        checks,
        "fluid trajectories never cross",
        min_gap >= -1e-9,
        f"min ordered gap {min_gap:.3e}",
    )
    _memory_audit(state, checks)

    extra = {
        "transmitted": transmitted,
        "reflected": reflected,
        "analytic_transmitted": analytic,
        "barrier": {"height": v0, "width": width},
        "packet": {"k0": k0, "sigma": sigma, "x0": x0},
    }
    outcomes = {"transmitted": transmitted, "reflected": 1.0 - transmitted}
    return _finalize(cfg.scenario, cfg, state, checks, frames, extra=extra, outcomes=outcomes)


# --- registry ------------------------------------------------------------

SCENARIOS = {
    "two_spin_crossing": (
        run_two_spin_crossing,
        "two moving spins re-index through an equal-flux boundary",
    ),
    "three_spin_chain": (
        run_three_spin_chain,
        "chained couplings leave the bystander's field and record untouched",
    ),
    "von_neumann": (
        run_von_neumann,
        "pointer readout of a flying spin with frozen boundary matrices",
    ),
    "bell_case1": (
        run_bell_case1,
        "matched-basis pair readout, recorders disagree every time",
    ),
    "bell_case2": (
        run_bell_case2,
        "tilted-basis pair readout with the three-eighths pattern",
    ),
    "student_demo": (
        run_student_demo,
        "eight-particle paired tables for both pair readouts",
    ),
    "beam_splitter_einstein": (
        run_beam_splitter_einstein,
        "one excitation over two detectors that never both fire",
    ),
    "stern_gerlach": (
        run_stern_gerlach,
        "spin-conditioned path split with momentum-forked branches",
    ),
    "weak_entanglement": (
        run_weak_entanglement,
        "weak-coupling purity loss scaling as the coupling squared",
    ),
    "tunneling": (
        run_tunneling,
        "barrier transmission against the momentum-averaged analytic rate",
    ),
}


def list_scenarios() -> list[tuple[str, str]]:
    return [(name, blurb) for name, (_, blurb) in SCENARIOS.items()]


def run_scenario(cfg: ScenarioConfig) -> ScenarioResult:
    try:
        runner, _ = SCENARIOS[cfg.scenario]
    except KeyError:
        raise ValueError(f"unknown scenario {cfg.scenario!r}") from None
    return runner(cfg)
