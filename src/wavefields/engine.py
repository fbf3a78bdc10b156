"""Simulation engine for interacting indexed wave-fields.

Each quantum system is one wave-field: indexed piece-wise single-particle
wavefunctions, each with its own coefficient, and the record of the
interactions that produced them.  It is stored as its shape groups, at
rest and in a crossing alike: one row per group and, per packet, its
label, coefficient, group and amplitude.  A packet's field, the raw
amplitude whose squared norm integrates to the branch probability once
the branch is fully formed, is its amplitude times its group's row, built
when read.  Writing one puts the packet in the group of its shape
(``SHAPE_TOL``), else a new row; a group left empty goes at the next meet or step.

An instant meet multiplies the coefficient and amplitude vectors by the
transfer matrix; an out-branch keeps its in-branches' group, and only one
drawing on several groups gets a row of its own, their combination.  A
crossing runs a moving boundary between two one-group fluids: ``branches``
cuts the rows there when asked, and the same expansion completes it.
``advance`` steps the stacked group rows of the systems that share a
potential, each on from its own last spectrum.  The densities, w |psi_g|^2
summed over a system's groups with w = sum |amplitude|^2, feed the boundary
law, which puts the boundary on the median of the summed fluid, and the
norm audit.  A meet touches only its participants.
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
SHAPE_TOL = 1e-12  # the most |psi - r row| / |psi| of a field psi in a row's group (``_place``)

PRE = "pre"
POST = "post"


@dataclass(eq=False)
class ShapeGroups:
    """A wave-field's group rows, which its packets read, and the spectrum that gave them."""

    rows: np.ndarray
    spectrum: np.ndarray | None = field(default=None, repr=False)

    def write(self, packet: Packet, psi) -> None:
        """Give ``packet`` the field ``psi``: the group of its shape, else a new row."""
        rows, packet.group, packet.amplitude = _place(self.rows, np.asarray(psi, np.complex128))
        if rows is not self.rows:
            self.rows, self.spectrum = rows, None


@dataclass(eq=False, slots=True)
class Packet:
    """One index branch: its label, coefficient from the transfers and raw amplitude ``field``.

    A stored packet's field is ``amplitude`` times row ``group`` of its
    wave-field's ``shapes``.  One built with a field holds it, as the
    ``branches`` of a crossing in flight do, each on one side (``region``).
    """

    index: IndexLabel
    coefficient: complex
    _field: np.ndarray | None = None
    region: str | None = None
    shapes: ShapeGroups | None = field(default=None, repr=False)
    amplitude: complex = 0j
    group: int = 0

    @property
    def field(self) -> np.ndarray:
        shapes = self.shapes
        return self._field if shapes is None else self.amplitude * shapes.rows[self.group]

    @field.setter
    def field(self, value) -> None:
        if self.shapes is None:
            self._field = value
        else:
            self.shapes.write(self, value)

    def mass(self, grid: Grid) -> float:
        return norm_squared(self.field, grid)


@dataclass(eq=False)
class WaveField:
    """A system's packets, their shape groups and its record."""

    system: str
    packets: list[Packet]
    memory: InternalMemory
    shapes: ShapeGroups

    def keep(self, rows: np.ndarray) -> None:
        """Hold ``rows`` less the groups no packet is in; other rows need a fresh spectrum."""
        used = sorted({p.group for p in self.packets})
        if len(used) < len(rows):
            rows = rows[used]
            for p in self.packets:
                p.group = used.index(p.group)
        if rows is not self.shapes.rows:
            self.shapes.rows, self.shapes.spectrum = rows, None


@np.errstate(invalid="ignore")  # a NaN cell gives a NaN amplitude, which fails the norm audit
def _place(rows: np.ndarray, psi: np.ndarray):
    """``rows`` with a row of ``psi``'s shape, that row, and ``psi`` over it: the first row
    within ``SHAPE_TOL`` of r row, r = <row|psi> / <row|row>, takes it as r, a new row as 1."""
    for g, row in enumerate(rows):
        r = np.vdot(row, psi) / np.vdot(row, row)
        if not np.linalg.norm(psi - r * row) > SHAPE_TOL * np.linalg.norm(psi):
            return rows, g, complex(r)
    return np.vstack([*rows, psi]), len(rows), 1 + 0j


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
    """A wave-field of one group, the unit-norm ``shape``, with a packet per nonzero amplitude.

    ``amplitudes`` is the internal state in the computational basis; the
    branches are labeled in the system's index basis, if the scenario sets one.
    """
    if system in state.wavefields:
        raise ValueError(f"system {system!r} already exists")
    shape = np.array(shape, dtype=np.complex128, ndmin=2)  # a copy: the caller's array may change
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
    wf = WaveField(system, [], memory_mod.fresh_memory(system, amps), ShapeGroups(shape))
    wf.packets = [
        Packet(IndexLabel(int(i), ()), complex(c), None, None, wf.shapes, complex(c))
        for i, c in enumerate(coeffs)
        if abs(c) > COEFFICIENT_THRESHOLD
    ]
    state.wavefields[system] = wf
    return wf


def _active_link(state: ScenarioState, system: str) -> boundary_mod.BoundaryLink | None:
    for ln in state.links:
        if ln.active and system in (ln.left_system, ln.right_system):
            return ln
    return None


def _when(state: ScenarioState) -> str:
    return f"at step {state.step_count}, t={state.time:.6g}"


def _require_at_rest(state: ScenarioState, *systems: str) -> None:
    for ln in state.links:
        for s in (ln.left_system, ln.right_system):
            if ln.active and s in systems:
                raise ValueError(f"system {s!r} is mid-crossing {_when(state)}")


def total_mass(state: ScenarioState, system: str) -> float:
    return sum(p.mass(state.grid) for p in state.wavefields[system].packets)


def _expand(wf: WaveField, transfer: boundary_mod.TransferMatrix, state: ScenarioState):
    """The in-branches, and the out-branches' coefficients, amplitudes and groups with the rows.

    Both vectors are the transfer times the in-branches'.  An out-branch
    takes the group its nonzero entries draw on; one that draws on several
    gets their combination, the row ``transfer.matrix @ fields`` gives it.
    """
    matrix, rows, packets = transfer.matrix, wf.shapes.rows, wf.packets
    if transfer.in_labels != [p.index for p in packets]:  # as a meet left them, mostly
        stored = {p.index: p for p in packets}
        unknown = sorted(label.text() for label in set(stored) - set(transfer.in_labels))
        if unknown:
            raise RuntimeError(f"branches {unknown} of {wf.system!r} missing from the transfer "
                               f"matrix {_when(state)}")
        zero = Packet(None, 0j, None, None, wf.shapes)  # zero amplitude: no field
        packets = [stored.get(label, zero) for label in transfer.in_labels]
    coeffs = (matrix @ np.array([p.coefficient for p in packets], np.complex128)).tolist()
    amps = np.array([p.amplitude for p in packets], np.complex128)
    out = matrix @ amps
    if len(rows) == 1:
        return packets, coeffs, out.tolist(), [0] * len(coeffs), rows
    group = np.array([p.group for p in packets], np.intp)
    drawn = matrix != 0
    first = group[drawn.argmax(axis=1)]
    groups = first.tolist()
    for i in np.flatnonzero((drawn & (group != first[:, None])).any(axis=1)).tolist():
        rows, groups[i], out[i] = _place(rows, (matrix[i] * amps) @ rows[group])
    return packets, coeffs, out.tolist(), groups, rows


def _expand_instant(wf: WaveField, transfer: boundary_mod.TransferMatrix, state: ScenarioState):
    _, coeffs, amps, groups, rows = _expand(wf, transfer, state)
    wf.packets = [
        Packet(label, c, None, None, wf.shapes, a, g)
        for label, c, a, g in zip(transfer.out_labels, coeffs, amps, groups)
        # a field's mass is read only where its coefficient is at or under the threshold
        if not abs(c) <= COEFFICIENT_THRESHOLD
        or not norm_squared(a * rows[g], state.grid) <= DARK_MASS_THRESHOLD
    ]
    if rows is not wf.shapes.rows or len(rows) > 1:  # one group, the same row: nothing to drop
        wf.keep(rows)


def _one_group(wf: WaveField, error, state: ScenarioState) -> None:
    """A boundary serves one shape: refuse ``wf``'s second group (ValueError as one opens)."""
    wf.keep(wf.shapes.rows)
    if len(wf.shapes.rows) == 1:
        return
    p = wf.packets[0]
    q = next(q for q in wf.packets if q.group != p.group)
    f, g = p.field, q.field
    overlap = abs(np.vdot(f, g)) / np.linalg.norm(f) / np.linalg.norm(g)
    where = "no crossing" if error is ValueError else "mid-crossing"
    raise error(
        f"branches {p.index.text()!r} and {q.index.text()!r} of {wf.system!r} differ in shape "
        f"(1 - overlap = {1 - overlap:.3g}): {where} {_when(state)}"
    )


def _weights(wfs: list) -> np.ndarray:
    """Each group's w, the sum of its packets' |amplitude|^2, down ``wfs``' stacked rows."""
    w = [np.zeros(len(wf.shapes.rows)) for wf in wfs]
    for wf, wg in zip(wfs, w):
        for p in wf.packets:
            wg[p.group] += p.amplitude.real**2 + p.amplitude.imag**2
    return np.concatenate(w).reshape(-1, 1)


def _densities(rows: np.ndarray, weights: np.ndarray, ends) -> list:
    """Each system's density, sum w |psi_g|^2 over its rows; ``ends`` ends each system's rows."""
    rho = rows.real**2
    rho += rows.imag**2
    rho *= weights
    return [rho[a] if b == a + 1 else rho[a:b].sum(axis=0) for a, b in zip([0, *ends], ends)]


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
    one shape group; they evolve freely while the boundary moves through
    them and are re-expanded once the pre-interaction fluid has all
    crossed.  Only the participants are touched.
    """
    if mode not in ("instant", "crossing"):
        raise ValueError(f"unknown meet mode {mode!r}")
    if b == a:
        raise ValueError("a system cannot meet itself")
    participants = (a,) if b is None else (a, b)
    _require_at_rest(state, *participants)
    fields = [state.wavefields.get(s) for s in participants]
    for s, wf in zip(participants, fields):
        if wf is None:
            raise ValueError(f"unknown system {s!r}")
    if mode == "crossing":
        if b is None:
            raise ValueError("a crossing needs two systems")
        for wf in fields:
            _one_group(wf, ValueError, state)
        rows = np.concatenate([wf.shapes.rows for wf in fields])
        densities = _densities(rows, _weights(fields), [1, 2])
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


def branches(state: ScenarioState, system: str) -> list[Packet]:
    """The system's branches as they stand: the stored packets, or split at an active boundary.

    In flight the PRE branches are the stored fields J on the pre side and
    the POST ones T·J on the post side.  Re-indexing the crossed cells through
    the transfer T (``boundary.apply_boundary_transfer``) would leave
    pre + T†·post equal to J, as T is an isometry, so this is that state.
    """
    wf = state.wavefields[system]
    link = _active_link(state, system)
    if link is None:
        return wf.packets
    post_side = state.grid.x > link.balance.x12
    transfer = link.t_left
    if system == link.right_system:
        post_side, transfer = ~post_side, link.t_right
    packets, coeffs, amps, groups, rows = _expand(wf, transfer, state)
    return [
        Packet(label, p.coefficient, np.where(post_side, 0.0, p.field), PRE)
        for label, p in zip(transfer.in_labels, packets)
    ] + [
        Packet(label, c, np.where(post_side, a * rows[g], 0.0), POST)
        for label, c, a, g in zip(transfer.out_labels, coeffs, amps, groups)
    ]


def _stacks(state: ScenarioState) -> list:
    """Per propagator: it, its wave-fields, where their rows end, w, the rows and spectra (the
    ones the systems kept, or fresh transforms); a system in a crossing must be one group."""
    by_propagator: dict = {}
    for wf in state.wavefields.values():
        wf.keep(wf.shapes.rows)
        if _active_link(state, wf.system):
            _one_group(wf, RuntimeError, state)
        by_propagator.setdefault(state.propagator(wf.system), []).append(wf)
    stacks = []
    for prop, wfs in by_propagator.items():
        groups = [wf.shapes for wf in wfs]
        spectra = [np.fft.fft(g.rows) if g.spectrum is None else g.spectrum for g in groups]
        rows, spectrum = groups[0].rows, spectra[0]
        if len(wfs) > 1:
            rows, spectrum = np.concatenate([g.rows for g in groups]), np.concatenate(spectra)
        ends = np.cumsum([len(g.rows) for g in groups]).tolist()
        stacks.append([prop, wfs, ends, _weights(wfs), rows, spectrum])
    return stacks


def _give(stacks: list) -> None:
    """Give each system its rows and their spectrum as the stacks hold them."""
    for _, wfs, ends, _, rows, spectrum in stacks:
        for wf, a, b in zip(wfs, [0, *ends], ends):
            wf.shapes.rows, wf.shapes.spectrum = rows[a:b], spectrum[a:b]


def _step(state: ScenarioState, stacks: list) -> None:
    """One step of every stack, the boundaries and the norm audit; a boundary moves to where
    the fluids balance, and completes, re-expanding both systems, once no pre side has fluid."""
    grid = state.grid
    densities = {}  # per system, from the stepped rows
    for stack in stacks:
        prop, wfs, ends, weights, rows, spectrum = stack
        rows, spectrum = prop.step(rows, spectrum=spectrum, keep=True)
        stack[4:] = rows, spectrum
        densities.update(zip([wf.system for wf in wfs], _densities(rows, weights, ends)))
    sums = {s: np.add.reduce(rho).item() for s, rho in densities.items()}  # one reduce each
    masses = {s: total * grid.dx for s, total in sums.items()}
    for link in state.active_links():
        x12, rho_right = link.balance.x12, densities[link.right_system]
        balance = boundary_mod.step_boundary_fields(
            x12, densities[link.left_system], rho_right, grid, sums[link.right_system]
        )
        link.trajectory.append((state.time + grid.dt, balance))
        if balance.pre_left < COMPLETION_THRESHOLD and balance.pre_right < COMPLETION_THRESHOLD:
            link.active = False
            _give(stacks)
            for s, t in ((link.left_system, link.t_left), (link.right_system, link.t_right)):
                _expand_instant(state.wavefields[s], t, state)
                masses[s] = total_mass(state, s)  # audit the re-expanded packets
            for stack in stacks:  # the groups hold, their amplitudes moved
                stack[3] = _weights(stack[1])
    state.time += grid.dt
    state.step_count += 1
    for s in state.wavefields:
        m = masses[s]
        if not abs(m - 1.0) <= NORM_AUDIT_TOL:  # a NaN mass fails too
            raise RuntimeError(f"norm audit failed for {s!r} {_when(state)}: total mass {m!r}")


def advance(state: ScenarioState, steps: int = 1, until=None) -> ScenarioState:
    """Run the world forward ``steps`` steps, evolving packets and moving boundaries.

    ``until``, if given, ends the call after the first step on which it
    holds; it may read the links and the clock, not the fields, which the
    systems get when the call ends (and before a crossing completes).
    Each system keeps its spectrum, so k one-step calls are one k-step call.
    """
    stacks = _stacks(state)
    try:
        for _ in range(steps):
            _step(state, stacks)
            if until is not None and until():
                break
    finally:
        _give(stacks)
    return state


def _shares(masses) -> dict:
    """Each key's share of the masses of its (key, mass) pairs, in key order."""
    out, total = {}, 0.0
    for key, m in masses:
        out[key] = out.get(key, 0.0) + m
        total += m
    return {k: v / total for k, v in sorted(out.items())}


def index_distribution(state: ScenarioState, system: str) -> dict[int, float]:
    """Probability of each own index, by fluid mass."""
    return _shares((p.index.own, p.mass(state.grid)) for p in branches(state, system))


def correlation_table(state: ScenarioState, a: str, b: str) -> dict[tuple[int, int], float]:
    """Joint index probabilities of two systems that have met.

    Read from system ``a``'s branches: its own index against the
    partner label it carries for ``b``.  Requires both systems at rest
    and sharing the interaction record.
    """
    _require_at_rest(state, a, b)
    wf = state.wavefields[a]
    if b not in memory_mod.systems(wf.memory):
        raise ValueError(f"systems {a!r} and {b!r} have not met")
    keys = []
    for p in wf.packets:
        partners = p.index.partner_map()
        if b not in partners:
            raise ValueError(f"branch {p.index.text()!r} of {a!r} carries no label for {b!r}")
        keys.append((p.index.own, partners[b]))
    return _shares((key, p.mass(state.grid)) for key, p in zip(keys, wf.packets))


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
            raise AssertionError(f"memory of {system!r} expects branch {label.text()!r}, "
                                 "but the wave-field has none")
        c, norm = entry.coefficient, float(np.sqrt(p.mass(state.grid)))
        worst = max(worst, abs(p.coefficient - c), abs(norm - abs(c)))
    for label, p in packets.items():
        leftover = max(abs(p.coefficient), float(np.sqrt(p.mass(state.grid))))
        if leftover > atol:
            raise AssertionError(
                f"wave-field {system!r} carries branch {label.text()!r} "
                f"with weight {leftover!r} that its memory does not predict"
            )
    if worst > atol:
        raise AssertionError(f"wave-field {system!r} deviates from its memory route by {worst!r}")
    return worst
