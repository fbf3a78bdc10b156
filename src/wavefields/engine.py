"""Simulation engine for interacting indexed wave-fields.

Each quantum system is one wave-field: a set of spatial packets, one
per index branch, plus the record of interactions that produced those
branches.  Packets hold raw coefficient-weighted amplitude, so the
squared norm of a packet's field integrates to the branch probability
once the branch is fully formed.

Interactions either complete instantly (the index spaces re-expand in
place) or run as a crossing: the two fluids pass through a moving
boundary whose transfer matrices re-index the crossed fluid, and
``branches`` cuts the rows into their pre- and post-interaction parts
when asked.  A wave-field steps as a few shapes and their coefficients:
its rows fall into shape groups, each a leading row psi_k and the ratios
r_i of its rows to it, one group per system in a crossing.  ``advance``
stacks the leading rows of the systems that share a potential once per
call and steps that private stack for every step of the call; the
packets get r_i psi_k when it returns.  A call continues from the last
spectrum while the packets hold bit for bit the fields it gave them, so
k one-step calls are one k-step call; anything else (a meet, a kick, a
write into a field) makes it derive the groups afresh.  The densities,
sum w |psi_k|^2, feed the boundary law, which puts the boundary on the
median of the summed fluid, and the norm audit.  Everything a system
knows travels with it; a meet touches only the two participants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

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
SHAPE_TOL = 1e-12  # the most |psi_i - r_i psi_k| / |psi_i| of a row in psi_k's group (``_lead``)

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
    index_bases: dict[str, Operator] = field(default_factory=dict)
    _propagators: dict[bytes | None, Propagator] = field(default_factory=dict, repr=False)
    _resolved: dict[str, Propagator] = field(default_factory=dict, repr=False)  # by system
    # propagator -> the bytes of the fields a call gave, its groups, last rows and spectrum
    _spectra: dict[Propagator, tuple] = field(default_factory=dict, repr=False)

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
    """Resolve the system's propagator for ``potential`` once; the propagator holds it."""
    state._resolved[system] = state._shared_propagator(np.asarray(potential, dtype=float))


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
    if not abs(mass - 1.0) <= 1e-6:  # NaN fails too
        raise ValueError(f"packet shape has squared norm {mass!r}, expected 1")
    amps = np.asarray(amplitudes, dtype=np.complex128)
    if not abs(np.linalg.norm(amps) - 1.0) <= 1e-6:
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
    for ln in state.links:
        if ln.active and system in (ln.left_system, ln.right_system):
            return ln
    return None


def _when(state: ScenarioState) -> str:
    return f"at step {state.step_count}, t={state.time:.6g}"


def _require_at_rest(state: ScenarioState, system: str) -> None:
    if _active_link(state, system) is not None:
        raise ValueError(f"system {system!r} is mid-crossing {_when(state)}")


def total_mass(state: ScenarioState, system: str) -> float:
    return sum(p.mass(state.grid) for p in state.wavefields[system].packets)


def _in_rows(wf: WaveField, transfer: boundary_mod.TransferMatrix, state: ScenarioState):
    """Fields and coefficients of the branches, one row per in-label.

    The packets are mostly the in-labels in order already, as the last
    meet left them, and are read as they stand.
    """
    rows = wf.packets
    if transfer.in_labels != [p.index for p in rows]:
        packets = {p.index: p for p in rows}
        rows = [packets.get(label) for label in transfer.in_labels]
        if len(packets) > sum(p is not None for p in rows):  # a branch with no in-label
            unknown = sorted(label.text() for label in set(packets) - set(transfer.in_labels))
            raise RuntimeError(
                f"branches {unknown} of {wf.system!r} missing from the transfer matrix "
                f"{_when(state)}"
            )
        empty = Packet(None, 0j, np.zeros(state.grid.n, complex))
        rows = [empty if p is None else p for p in rows]
    raw = np.array([p.field for p in rows])
    coeff = np.array([p.coefficient for p in rows], dtype=np.complex128)
    return raw, coeff


def _expand_instant(wf: WaveField, transfer: boundary_mod.TransferMatrix, state: ScenarioState):
    raw, coeff = _in_rows(wf, transfer, state)
    matrix, grid = transfer.matrix, state.grid
    wf.packets = [
        Packet(label, c, row)
        for label, c, row in zip(transfer.out_labels, (matrix @ coeff).tolist(), matrix @ raw)
        # a row's mass is read only where its coefficient is at or under the threshold
        if not (abs(c) <= COEFFICIENT_THRESHOLD and norm_squared(row, grid) <= DARK_MASS_THRESHOLD)
    ]


class _Groups(NamedTuple):  # the shape groups of some systems' stacked rows (``_lead``)
    leads: np.ndarray  # each group's leading row psi_k, among the rows
    member: np.ndarray  # each row's group
    ratios: np.ndarray  # each row's r_i, as a column: the row is r_i psi_k
    weights: np.ndarray  # each group's w = sum |r_i|^2, as a column
    spans: list  # each system's (first, end) group


@np.errstate(invalid="ignore")  # NaN ratios from a NaN cell fail the norm audit, which names it
def _lead(rows: np.ndarray, wfs: list, state: ScenarioState, errors) -> _Groups:
    """Split each system's rows, stacked in ``rows`` in the order of ``wfs``, into shape groups.

    A group leads with the system's largest row psi_k left and takes every
    row left within ``SHAPE_TOL`` of r_i psi_k, r_i = <psi_k|psi_i> / <psi_k|psi_k>.
    A boundary serves one shape, so a second group is refused with the
    system's ``errors`` entry: ValueError as a crossing opens, RuntimeError in one.
    """
    leads, w, spans, start = [], [], [], 0
    member, ratios = np.zeros(len(rows), np.intp), np.zeros((len(rows), 1), complex)
    for wf, error in zip(wfs, errors):
        span, first = slice(start, start + len(wf.packets)), len(leads)
        sub = rows[span]
        mass, norms = np.vecdot(sub, sub).real, np.linalg.norm(sub, axis=1)
        left = np.ones(len(sub), dtype=bool)  # rows in no group yet
        while left.any():
            k = int(np.argmax(np.where(left, mass, -1.0)))
            r = sub @ sub[k].conj() / np.vdot(sub[k], sub[k])
            r[k] = 1.0
            near = left & ~(np.linalg.norm(sub - r[:, None] * sub[k], axis=1) / norms > SHAPE_TOL)
            stray = np.flatnonzero(left & ~near)
            if error is not None and stray.size:
                i, j = sorted((int(stray[0]), k))
                overlap = abs(np.vdot(sub[i], sub[j])) / norms[i] / norms[j]
                raise error(
                    f"branches {wf.packets[i].index.text()!r} and {wf.packets[j].index.text()!r}"
                    f" of {wf.system!r} differ in shape (1 - overlap = {1 - overlap:.3g}): "
                    f"{'no crossing' if error is ValueError else 'mid-crossing'} {_when(state)}"
                )
            r[~near] = 0.0
            member[span][near], ratios[span, 0][near], left = len(leads), r[near], left & ~near
            leads.append(start + k)
            w.append(np.vdot(r, r).real)
        spans.append((first, len(leads)))
        start = span.stop
    return _Groups(np.array(leads, np.intp), member, ratios, np.array(w).reshape(-1, 1), spans)


def _densities(rows: np.ndarray, groups: _Groups) -> list:
    """Each system's density from its groups' leading rows: sum w |psi_k|^2."""
    rho = rows.real**2
    rho += rows.imag**2
    rho *= groups.weights
    return [rho[a] if b == a + 1 else rho[a:b].sum(axis=0) for a, b in groups.spans]


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
    ``crossing`` opens a moving boundary between the two fluids, each of
    whose branches must share one shape (``SHAPE_TOL``); they evolve
    freely while the boundary moves through them and are re-expanded once
    the pre-interaction fluid has all crossed.  Only the participants are touched.
    """
    if mode not in ("instant", "crossing"):
        raise ValueError(f"unknown meet mode {mode!r}")
    _require_at_rest(state, a)
    participants = (a,) if b is None else (a, b)
    if b is not None:
        if b == a:
            raise ValueError("a system cannot meet itself")
        _require_at_rest(state, b)
    fields = [state.wavefields.get(s) for s in participants]
    for s, wf in zip(participants, fields):
        if wf is None:
            raise ValueError(f"unknown system {s!r}")
    if mode == "crossing":
        if b is None:
            raise ValueError("a crossing needs two systems")
        rows = np.array([p.field for wf in fields for p in wf.packets]).reshape(-1, state.grid.n)
        groups = _lead(rows, fields, state, (ValueError, ValueError))
        densities = _densities(rows[groups.leads], groups)
        left, right = (np.dot(state.grid.x, rho) / rho.sum() for rho in densities)  # centroids
        if not left < right:  # a system with no fluid fails too
            raise ValueError(f"crossing expects {a!r} to start left of {b!r}")
    mems = [wf.memory for wf in fields]
    try:
        if unitary.labels != participants:
            raise ValueError(f"unitary acts on {unitary.labels}, expected {participants}")
        if not unitary.is_unitary(tol=_NORM_SLACK):  # transfers build only occupied columns
            raise ValueError(f"{op_id!r} is not unitary: a state norm it gives is not 1")
        merged = mems[0] if b is None else memory_mod.synchronize(*mems)
        transfers = boundary_mod.transfer_matrices_synced(
            mems,
            unitary,
            index_bases=state.index_bases,
            occupied=[[p.index for p in wf.packets] for wf in fields],
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
    # no completion test: that needs each fluid wholly past x12, which the centroids rule out
    x12 = boundary_mod.find_initial_boundary(*densities, state.grid)
    balance = boundary_mod.step_boundary_fields(x12, *densities, state.grid)
    link = boundary_mod.BoundaryLink(a, b, *transfers, op_id, [(state.time, balance)])
    state.links.append(link)
    return link


def _step_link(state: ScenarioState, link, rho_left, rho_right, t, stacks=()):
    """Move the boundary to where the fluids balance and record it at ``t``.

    The crossing completes once neither system has fluid left on its pre
    side, re-expanding the packets once ``stacks`` gave them their fields;
    returns whether it has.
    """
    balance = boundary_mod.step_boundary_fields(link.balance.x12, rho_left, rho_right, state.grid)
    link.trajectory.append((t, balance))
    if balance.pre_left < COMPLETION_THRESHOLD and balance.pre_right < COMPLETION_THRESHOLD:
        for stack in stacks:
            _fields(stack)
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
    post_side = grid.x > link.balance.x12
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


def _stacks(state: ScenarioState) -> dict:
    """Each propagator's wave-fields, packets, shape groups, leading rows and spectrum.

    A stack steps one leading row per shape group of each system that
    shares its propagator, at rest or in a crossing alike.  It keeps the
    groups and spectrum of the last call while its packets hold bit for
    bit the fields that call gave them, else derives both afresh, and
    ``_lead`` refuses a crossing system's second group.
    """
    by_propagator: dict = {}
    for wf in state.wavefields.values():
        by_propagator.setdefault(state.propagator(wf.system), []).append(wf)
    stacks = {}
    for prop, wfs in by_propagator.items():
        packets = [p for wf in wfs for p in wf.packets]
        given, groups, rows, spectrum = state._spectra.get(prop, (None,) * 4)
        if given != b"".join(p.field.tobytes() for p in packets):  # a field moved: derive afresh
            rows = np.array([p.field for p in packets]).reshape(len(packets), state.grid.n)
            errors = [RuntimeError if _active_link(state, wf.system) else None for wf in wfs]
            groups, spectrum = _lead(rows, wfs, state, errors), None
            rows = rows[groups.leads]
        stacks[prop] = [wfs, packets, groups, rows, spectrum]
    return stacks


def _fields(stack) -> np.ndarray:
    """Give the stack's packets their fields r_i psi_k, with r_k = 1; returns them stacked."""
    _, packets, groups, rows, _ = stack
    rows = groups.ratios * rows[groups.member]
    for p, row in zip(packets, rows):
        p.field = row
    return rows


def _step(state: ScenarioState, stacks: dict) -> bool:
    """One step of every stack, the boundaries and the norm audit; whether a crossing completed."""
    grid = state.grid
    densities = {}  # per system, from the stepped rows
    for prop, stack in stacks.items():
        wfs, _, groups, rows, spectrum = stack
        rows, spectrum = prop.step(rows, spectrum=spectrum, keep=True)
        stack[3:] = rows, spectrum
        densities.update(zip([wf.system for wf in wfs], _densities(rows, groups)))
    masses = {s: float(rho.sum()) * grid.dx for s, rho in densities.items()}
    completed = False
    for link in state.active_links():
        rho_left, rho_right = densities[link.left_system], densities[link.right_system]
        if _step_link(state, link, rho_left, rho_right, state.time + grid.dt, stacks.values()):
            completed = True  # packets re-expanded: audit those
            for s in (link.left_system, link.right_system):
                masses[s] = total_mass(state, s)
    state.time += grid.dt
    state.step_count += 1
    for s in state.wavefields:
        m = masses[s]
        if not abs(m - 1.0) <= NORM_AUDIT_TOL:  # a NaN mass fails too
            raise RuntimeError(f"norm audit failed for {s!r} {_when(state)}: total mass {m!r}")
    return completed


def advance(state: ScenarioState, steps: int = 1, until=None) -> ScenarioState:
    """Run the world forward ``steps`` steps, evolving packets and moving boundaries.

    ``until``, if given, ends the call after the first step on which it
    holds.  The rows are stacked once per call, and again after a
    crossing completes; in between each stack steps on from its own
    spectrum, and the packets get their fields when the call returns, so
    ``until`` may read the links and the clock but not the fields.
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
        finally:  # a private copy of the fields, to tell a later write into one
            state._spectra = {k: (_fields(s).tobytes(), *s[2:]) for k, s in stacks.items()}
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


def correlation_table(state: ScenarioState, a: str, b: str) -> dict[tuple[int, int], float]:
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
            raise ValueError(f"branch {p.index.text()!r} of {a!r} carries no label for {b!r}")
        key = (p.index.own, partners[b])
        m = p.mass(state.grid)
        out[key] = out.get(key, 0.0) + m
        total += m
    return {k: v / total for k, v in sorted(out.items())}


def validate_against_memory(state: ScenarioState, system: str, atol: float = 1e-8) -> float:
    """Dual-route check: packets versus the memory-derived expansion.

    Compares each at-rest branch coefficient, and the fluid norm of its
    field, against the external-memory entry derived from the system's
    interaction record through the reference tensor-product route.
    Returns the largest deviation found; raises if a branch or entry
    has no counterpart.
    """
    wf = state.wavefields[system]
    _require_at_rest(state, system)
    entries = memory_mod.external_memories(wf.memory, system, bases=state.index_bases or None)
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
        raise AssertionError(f"wave-field {system!r} deviates from its memory route by {worst!r}")
    return worst
