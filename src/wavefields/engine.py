"""Simulation engine for interacting indexed wave-fields.

Each quantum system is one wave-field: a set of spatial packets, one
per index branch, plus the record of interactions that produced those
branches.  Packets hold raw coefficient-weighted amplitude, so the
squared norm of a packet's field integrates to the branch probability
once the branch is fully formed.

Interactions either complete instantly (the index spaces re-expand in
place) or run as a crossing: the two fluids pass through a moving
boundary whose transfer matrices re-index the crossed fluid.  A
crossing in flight is the systems' freely evolving branch rows plus the
boundary position; ``branches`` cuts the rows into their pre- and
post-interaction parts when asked.  A step advances as one stack the rows
of all systems that share a potential and are all at rest or all in a
crossing.  ``advance`` stacks the rows once per call and steps that
private stack for every step of the call, so free flight costs one
inverse FFT per step.  A call continues from the stack's last spectrum
while the stacked fields are bit for bit the rows that spectrum gave;
anything else (a meet, a kick, a completed crossing, a write into a
field) makes it transform the fields afresh.  The stack's densities feed
the boundary law, which puts the boundary on the median of the summed
fluid, and the norm audit.  Everything a system knows travels with it; a
meet touches only the two participants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import boundary as boundary_mod
from . import memory as memory_mod
from .hilbert import _NORM_SLACK, COEFFICIENT_THRESHOLD, Operator
from .memory import ExternalMemory, IndexLabel, InternalMemory
# ``current`` stays bound here: bench/test_bench.py checks that the tracer wraps this binding
from .spatial import Grid, Propagator, current, norm_squared  # noqa: F401

NORM_AUDIT_TOL = 1e-8
COMPLETION_THRESHOLD = 1e-10
DARK_MASS_THRESHOLD = 1e-16

PRE = "pre"
POST = "post"


@dataclass
class Packet:
    """One index branch of a wave-field.

    ``field`` is the raw amplitude: branch coefficient times the branch
    wavefunction.  ``coefficient`` tracks the algebraic value from the
    transfer matrices.  Packets stored in a wave-field are whole
    branches and carry no ``region``; only the packets ``branches``
    builds for a crossing in flight are tagged, with the side of the
    boundary they lie on, and hold just the fluid on that side.
    """

    index: IndexLabel
    coefficient: complex
    field: np.ndarray
    region: str | None = None

    def mass(self, grid: Grid) -> float:
        return norm_squared(self.field, grid)

    def fluid_norm(self, grid: Grid) -> float:
        return float(np.sqrt(self.mass(grid)))


@dataclass
class WaveField:
    system: str
    packets: list[Packet]
    memory: InternalMemory


@dataclass
class ScenarioState:
    """Mutable world state: wave-fields, boundaries, and shared grid."""

    grid: Grid
    time: float = 0.0
    step_count: int = 0
    wavefields: dict[str, WaveField] = field(default_factory=dict)
    links: list[boundary_mod.BoundaryLink] = field(default_factory=list)
    potentials: dict[str, np.ndarray] = field(default_factory=dict)
    index_bases: dict[str, Operator] = field(default_factory=dict)
    _propagators: dict[bytes | None, Propagator] = field(default_factory=dict, repr=False)
    _resolved: dict[str, Propagator] = field(default_factory=dict, repr=False)  # by system
    # (propagator, in a crossing) -> a copy of the rows a call's last step gave, and their spectrum
    _spectra: dict[tuple, tuple] = field(default_factory=dict, repr=False)

    def active_links(self) -> list[boundary_mod.BoundaryLink]:
        return [ln for ln in self.links if ln.active]

    def propagator(self, system: str) -> Propagator:
        """The system's propagator as ``set_potential`` resolved it; free systems share one."""
        if system not in self._resolved:
            self._resolved[system] = self._shared_propagator(None)
        return self._resolved[system]

    def _shared_propagator(self, v: np.ndarray | None) -> Propagator:
        key = None if v is None or not v.any() else v.tobytes()
        if key not in self._propagators:
            self._propagators[key] = Propagator(self.grid, v)
        return self._propagators[key]


def new_state(grid: Grid) -> ScenarioState:
    return ScenarioState(grid)


def set_potential(state: ScenarioState, system: str, potential) -> None:
    """Give the system a copy of ``potential`` and resolve its propagator once."""
    v = np.array(potential, dtype=float)
    state._resolved[system] = state._shared_propagator(v)
    state.potentials[system] = v


def add_system(state: ScenarioState, system: str, amplitudes, shape) -> WaveField:
    """Create a wave-field with one packet per nonzero index amplitude.

    ``amplitudes`` is the internal state in the computational basis and
    ``shape`` the shared unit-norm wavefunction.  If the scenario uses a
    different index basis for this system, the branches are labeled in
    that basis.
    """
    if system in state.wavefields:
        raise ValueError(f"system {system!r} already exists")
    shape = np.asarray(shape, dtype=np.complex128)
    mass = norm_squared(shape, state.grid)
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"packet shape has squared norm {mass!r}, expected 1")
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if abs(np.linalg.norm(amps) - 1.0) > 1e-6:
        raise ValueError("index amplitudes are not normalized")
    basis = state.index_bases.get(system)
    if basis is not None:
        memory_mod.check_index_basis(system, basis, amps.size)
    coeffs = amps if basis is None else basis.matrix.conj().T @ amps
    packets = [
        Packet(IndexLabel(int(i), ()), complex(c), complex(c) * shape)
        for i, c in enumerate(coeffs)
        if abs(c) > COEFFICIENT_THRESHOLD
    ]
    wf = WaveField(system, packets, memory_mod.fresh_memory(system, amps))
    state.wavefields[system] = wf
    return wf


def _active_link(state: ScenarioState, system: str) -> boundary_mod.BoundaryLink | None:
    for ln in state.active_links():
        if system in (ln.left_system, ln.right_system):
            return ln
    return None


def _when(state: ScenarioState) -> str:
    return f"at step {state.step_count}, t={state.time:.6g}"


def _require_at_rest(state: ScenarioState, system: str) -> None:
    if _active_link(state, system) is not None:
        raise ValueError(f"system {system!r} is mid-crossing {_when(state)}")


def _centroid(wf: WaveField, grid: Grid) -> float:
    rho = aggregate_density(wf)
    total = float(rho.sum())
    if total <= 0.0:
        raise ValueError(f"system {wf.system!r} has no fluid")
    return float(np.dot(grid.x, rho) / total)


def aggregate_density(wf: WaveField) -> np.ndarray:
    if not wf.packets:
        raise ValueError(f"system {wf.system!r} has no packets")
    return np.sum([np.abs(p.field) ** 2 for p in wf.packets], axis=0)


def total_mass(state: ScenarioState, system: str) -> float:
    return sum(p.mass(state.grid) for p in state.wavefields[system].packets)


def _in_rows(wf: WaveField, transfer: boundary_mod.TransferMatrix, state: ScenarioState):
    """Fields and coefficients of the branches, one row per in-label."""
    packets = {p.index: p for p in wf.packets}
    rows = [packets.get(label) for label in transfer.in_labels]
    if len(packets) > sum(p is not None for p in rows):  # a branch with no in-label
        unknown = sorted(label.text() for label in set(packets) - set(transfer.in_labels))
        raise RuntimeError(
            f"branches {unknown} of {wf.system!r} missing from the transfer matrix {_when(state)}"
        )
    raw = np.array([np.zeros(state.grid.n, complex) if p is None else p.field for p in rows])
    coeff = np.array([0j if p is None else p.coefficient for p in rows], dtype=np.complex128)
    return raw, coeff


def _expand_instant(wf: WaveField, transfer: boundary_mod.TransferMatrix, state: ScenarioState):
    raw, coeff = _in_rows(wf, transfer, state)
    raw_out = transfer.matrix @ raw
    coeff_out = transfer.matrix @ coeff
    grid = state.grid
    wf.packets = [
        Packet(label, c, row)
        for label, c, row in zip(transfer.out_labels, coeff_out.tolist(), raw_out)
        # a row's mass is read only where its coefficient is at or under the threshold
        if not (abs(c) <= COEFFICIENT_THRESHOLD and norm_squared(row, grid) <= DARK_MASS_THRESHOLD)
    ]


def _open_crossing(
    state: ScenarioState,
    left: WaveField,
    right: WaveField,
    op_id: str,
    t_left: boundary_mod.TransferMatrix,
    t_right: boundary_mod.TransferMatrix,
) -> boundary_mod.BoundaryLink:
    grid = state.grid
    rho_left = aggregate_density(left)
    rho_right = aggregate_density(right)
    x12 = boundary_mod.find_initial_boundary(rho_left, rho_right, grid)
    link = boundary_mod.BoundaryLink(left.system, right.system, x12, t_left, t_right, op_id)
    _step_link(state, link, rho_left, rho_right, state.time)  # records the opening levels
    state.links.append(link)
    return link


def meet(
    state: ScenarioState,
    a: str,
    b: str | None,
    unitary: Operator,
    op_id: str,
    mode: str = "instant",
) -> boundary_mod.BoundaryLink | None:
    """Interact two systems (or one with a local gate).

    ``instant`` re-expands the participants' branches in place, for
    interactions whose spatial development is not being studied.
    ``crossing`` opens a moving boundary between the two fluids; the
    branches keep evolving freely while the boundary moves through
    them, and are re-expanded once the pre-interaction fluid has all
    crossed.  Only the participants are touched.
    """
    if mode not in ("instant", "crossing"):
        raise ValueError(f"unknown meet mode {mode!r}")
    _require_at_rest(state, a)
    participants = (a,) if b is None else (a, b)
    if b is not None:
        if b == a:
            raise ValueError("a system cannot meet itself")
        _require_at_rest(state, b)
    for s in participants:
        if s not in state.wavefields:
            raise ValueError(f"unknown system {s!r}")
    fields = tuple(state.wavefields[s] for s in participants)
    if mode == "crossing":
        if b is None:
            raise ValueError("a crossing needs two systems")
        if _centroid(fields[0], state.grid) >= _centroid(fields[1], state.grid):
            raise ValueError(f"crossing expects {a!r} to start left of {b!r}")
    mems = tuple(wf.memory for wf in fields)
    try:
        if not unitary.is_unitary(tol=_NORM_SLACK):  # transfers build only occupied columns
            raise ValueError(f"{op_id!r} is not unitary: a state norm it gives is not 1")
        merged = mems[0] if b is None else memory_mod.synchronize(*mems)
        transfers = boundary_mod.transfer_matrices_synced(
            mems,
            unitary,
            participants,
            index_bases=state.index_bases or None,
            occupied=tuple([p.index for p in wf.packets] for wf in fields),
            merged=merged,
        )
    except ValueError as err:
        raise ValueError(f"{err} {_when(state)}") from err
    # every precondition is checked above, so a rejected meet records nothing
    merged = memory_mod.record_interaction(merged, None, unitary, op_id)
    for wf in fields:
        wf.memory = merged

    if mode == "instant":
        for wf, transfer in zip(fields, transfers):
            _expand_instant(wf, transfer, state)
        return None
    return _open_crossing(state, fields[0], fields[1], op_id, *transfers)


def _step_link(state: ScenarioState, link: boundary_mod.BoundaryLink, rho_left, rho_right, t):
    """Move the boundary to where the fluids balance and record it at ``t``.

    The crossing completes once neither system has fluid left on its pre
    side; returns whether it has.
    """
    balance = boundary_mod.step_boundary_fields(link.x12, rho_left, rho_right, state.grid)
    link.x12, link.crossed_left, link.crossed_right = balance[:3]
    link.record(t)
    if balance.pre_left < COMPLETION_THRESHOLD and balance.pre_right < COMPLETION_THRESHOLD:
        _expand_instant(state.wavefields[link.left_system], link.t_left, state)
        _expand_instant(state.wavefields[link.right_system], link.t_right, state)
        link.active = False
    return not link.active


def branches(state: ScenarioState, system: str) -> list[Packet]:
    """The system's branches as they stand, split at an active boundary.

    At rest these are the stored packets.  While a crossing is in
    flight, the pre-interaction branches are the stored rows J on the
    pre side of the boundary and the post-interaction ones are T·J on
    the post side, tagged PRE and POST.  Re-indexing the crossed cells
    through the transfer T (``boundary.apply_boundary_transfer``) would
    leave pre + T†·post equal to J, because T is an isometry, so this
    view is exactly the re-indexed state.
    """
    wf = state.wavefields[system]
    link = _active_link(state, system)
    if link is None:
        return wf.packets
    grid = state.grid
    post_side = grid.x > link.x12
    transfer = link.t_left
    if system == link.right_system:
        post_side, transfer = ~post_side, link.t_right
    raw, coeff = _in_rows(wf, transfer, state)
    pre = np.where(post_side, 0.0, raw)
    post = np.where(post_side, transfer.matrix @ raw, 0.0)
    return [
        Packet(label, complex(c), row, PRE)
        for label, c, row in zip(transfer.in_labels, coeff, pre)
    ] + [
        Packet(label, complex(c), row, POST)
        for label, c, row in zip(transfer.out_labels, transfer.matrix @ coeff, post)
    ]


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _stacks(state: ScenarioState) -> dict:
    """Each group's wave-fields, packets, rows and the spectrum to step them from.

    A group is the systems that share a propagator and are all at rest or
    all in a crossing.  Its spectrum is the one the last call kept while
    the stacked fields are bit for bit the rows it gave, else None.
    """
    groups: dict = {}  # (propagator, in a crossing) -> wave-fields
    for wf in state.wavefields.values():
        key = (state.propagator(wf.system), _active_link(state, wf.system) is not None)
        groups.setdefault(key, []).append(wf)
    stacks = {}
    for key, wfs in groups.items():
        packets = [p for wf in wfs for p in wf.packets]
        rows = np.array([p.field for p in packets])
        last, spectrum = state._spectra.get(key, (None, None))
        if last is None or not _same_bits(rows, last):
            spectrum = None  # the fields moved since the last call: transform afresh
        stacks[key] = [wfs, packets, rows, spectrum]
    return stacks


def _step(state: ScenarioState, stacks: dict) -> bool:
    """One step of every stack, the boundaries and the norm audit; whether a crossing completed."""
    grid = state.grid
    densities = {}  # per system, from the stepped rows
    for key, stack in stacks.items():
        wfs, packets, rows, spectrum = stack
        rows, spectrum = key[0].step(rows, spectrum=spectrum, keep=True)
        stack[2:] = rows, spectrum
        for p, row in zip(packets, rows):
            p.field = row
        rho = rows.real**2 + rows.imag**2
        start = 0
        for wf in wfs:
            densities[wf.system] = rho[start : start + len(wf.packets)].sum(axis=0)
            start += len(wf.packets)
    masses = {s: float(rho.sum()) * grid.dx for s, rho in densities.items()}
    completed = False
    for link in state.active_links():
        rho_left, rho_right = densities[link.left_system], densities[link.right_system]
        if _step_link(state, link, rho_left, rho_right, state.time + grid.dt):
            completed = True  # packets re-expanded: audit those
            for s in (link.left_system, link.right_system):
                masses[s] = total_mass(state, s)
    state.time += grid.dt
    state.step_count += 1
    for sys_id in state.wavefields:
        m = masses[sys_id]
        if not abs(m - 1.0) <= NORM_AUDIT_TOL:  # a NaN mass fails too
            raise RuntimeError(
                f"norm audit failed for {sys_id!r} {_when(state)}: total mass {m!r}"
            )
    return completed


def advance(state: ScenarioState, steps: int = 1, until=None) -> ScenarioState:
    """Run the world forward ``steps`` steps, evolving packets and moving boundaries.

    ``until``, if given, ends the call after the first step on which it
    holds.  The rows are stacked once per call, and again after a
    crossing completes; in between each stack steps on from its own
    spectrum, and the packets hold views of the rows each step gives, so
    ``until`` must not write into a field.
    """
    taken = 0
    while taken < steps:
        stacks = _stacks(state)
        try:
            completed = False
            while taken < steps and not completed:
                completed = _step(state, stacks)
                taken += 1
                if until is not None and until():
                    return state
        finally:  # a private copy of the rows, to tell a later write into a field
            state._spectra = {k: (rows.copy(), spec) for k, (_, _, rows, spec) in stacks.items()}
    return state


def index_distribution(state: ScenarioState, system: str) -> dict[int, float]:
    """Probability of each own index, by fluid mass."""
    out: dict[int, float] = {}
    total = 0.0
    for p in branches(state, system):
        m = p.mass(state.grid)
        out[p.index.own] = out.get(p.index.own, 0.0) + m
        total += m
    return {k: v / total for k, v in sorted(out.items())}


def correlation_table(
    state: ScenarioState, a: str, b: str
) -> dict[tuple[int, int], float]:
    """Joint index probabilities of two systems that have met.

    Read from system ``a``'s branches: its own index against the
    partner label it carries for ``b``.  Requires both systems at rest
    and sharing the interaction record.
    """
    _require_at_rest(state, a)
    _require_at_rest(state, b)
    wf = state.wavefields[a]
    if b not in memory_mod.systems(wf.memory):
        raise ValueError(f"systems {a!r} and {b!r} have not met")
    out: dict[tuple[int, int], float] = {}
    total = 0.0
    for p in wf.packets:
        partners = p.index.partner_map()
        if b not in partners:
            raise ValueError(
                f"branch {p.index.text()!r} of {a!r} carries no label for {b!r}"
            )
        key = (p.index.own, partners[b])
        m = p.mass(state.grid)
        out[key] = out.get(key, 0.0) + m
        total += m
    return {k: v / total for k, v in sorted(out.items())}


def validate_against_memory(
    state: ScenarioState, system: str, atol: float = 1e-8
) -> float:
    """Dual-route check: packets versus the memory-derived expansion.

    Compares each at-rest branch coefficient, and the fluid norm of its
    field, against the external-memory entry derived from the system's
    interaction record through the reference tensor-product route.
    Returns the largest deviation found; raises if a branch or entry
    has no counterpart.
    """
    wf = state.wavefields[system]
    _require_at_rest(state, system)
    entries = memory_mod.external_memories(
        wf.memory, system, bases=state.index_bases or None
    )
    expected: dict[IndexLabel, ExternalMemory] = {e.index: e for e in entries}
    packets = {p.index: p for p in wf.packets}
    worst = 0.0
    for label, entry in expected.items():
        p = packets.pop(label, None)
        if p is None:
            raise AssertionError(
                f"memory of {system!r} expects branch {label.text()!r}, "
                "but the wave-field has none"
            )
        worst = max(worst, abs(p.coefficient - entry.coefficient))
        worst = max(worst, abs(p.fluid_norm(state.grid) - abs(entry.coefficient)))
    for label, p in packets.items():
        leftover = max(abs(p.coefficient), p.fluid_norm(state.grid))
        if leftover > atol:
            raise AssertionError(
                f"wave-field {system!r} carries branch {label.text()!r} "
                f"with weight {leftover!r} that its memory does not predict"
            )
    if worst > atol:
        raise AssertionError(
            f"wave-field {system!r} deviates from its memory route by {worst!r}"
        )
    return worst
