"""Simulation engine for interacting indexed wave-fields.

Each quantum system is one wave-field: indexed piece-wise single-particle
wavefunctions, each with its own coefficient, and the record of the
interactions that produced them.  It holds its branches as four vectors,
one entry per branch (label, coefficient, amplitude and group), over one
row per group, at rest and in a crossing alike.  A branch's field, the raw
amplitude whose squared norm integrates to the branch probability once the
branch is fully formed, is its amplitude times its group's row.  Packets
are read-only views of the branches, built when read.  ``WaveField.write``
is the one write: it puts a branch in the group of its shape (``SHAPE_TOL``),
else a new row, and drops a group it leaves empty.

An instant meet multiplies the coefficient and amplitude vectors by the
transfer matrix; an out-branch keeps its in-branches' group, and only one
drawing on several groups gets a row of its own, their combination.  A
crossing runs a moving boundary between two one-group fluids: ``branches``
cuts the rows there when asked, and the same expansion completes it.
``advance`` steps the stacked group rows of the systems that share a
propagator, each on from its own last spectrum.  The densities, w |psi_g|^2
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


@dataclass(frozen=True, slots=True, eq=False)
class Packet:
    """A read-only view of one index branch: its label, coefficient from the transfers and raw
    amplitude ``field``; in a crossing in flight, the side it is cut to (``region``)."""

    index: IndexLabel
    coefficient: complex
    field: np.ndarray
    region: str | None = None

    def __post_init__(self):
        self.field.flags.writeable = False  # a write through a view would be lost

    def mass(self, grid: Grid) -> float:
        return norm_squared(self.field, grid)


@dataclass(eq=False)
class WaveField:
    """A system's branches, one entry each in ``labels``, ``coefficients``, ``amplitudes`` and
    ``groups``, over its group ``rows`` and the ``spectrum`` that gave them, and its record."""

    system: str
    memory: InternalMemory
    labels: list[IndexLabel]
    coefficients: np.ndarray
    amplitudes: np.ndarray
    groups: np.ndarray
    rows: np.ndarray
    spectrum: np.ndarray | None = field(default=None, repr=False)

    @property
    def packets(self) -> list[Packet]:
        return _views(self.labels, (self.coefficients, self.amplitudes, self.groups), self.rows)

    def write(self, i: int, psi) -> None:
        """Give branch ``i`` the field ``psi`` in the group of its shape, else a new row."""
        rows, self.groups[i], self.amplitudes[i] = _place(self.rows, np.asarray(psi, complex))
        self.keep(rows)

    def keep(self, rows: np.ndarray) -> None:
        """Hold ``rows`` less the groups no branch is in; other rows need a fresh spectrum."""
        used = sorted(set(self.groups.tolist()))
        if len(used) < len(rows):
            rows, self.groups = rows[used], np.searchsorted(used, self.groups)
        if rows is not self.rows:
            self.rows, self.spectrum = rows, None


def _views(labels, vectors, rows, region=None, inside=None) -> list[Packet]:
    """Packets of ``labels`` whose coefficients, amplitudes and groups over ``rows`` are
    ``vectors``; each field is zero outside ``inside``, if given."""
    coeffs, amps, groups = (v.tolist() for v in vectors)
    fields = [a * rows[g] for a, g in zip(amps, groups)]
    if inside is not None:
        fields = [np.where(inside, f, 0.0) for f in fields]
    return [Packet(label, c, f, region) for label, c, f in zip(labels, coeffs, fields)]


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
    free_propagator: Propagator = field(init=False, repr=False)  # of systems with no potential
    _resolved: dict[str, Propagator] = field(default_factory=dict, repr=False)  # by system

    def __post_init__(self):
        self.free_propagator = Propagator(self.grid)

    def active_links(self) -> list[boundary_mod.BoundaryLink]:
        return [ln for ln in self.links if ln.active]

    def propagator(self, system: str) -> Propagator:
        """The system's propagator as ``set_potential`` resolved it, else the free one."""
        return self._resolved.get(system, self.free_propagator)


def new_state(grid: Grid) -> ScenarioState:
    return ScenarioState(grid)


def set_potential(state: ScenarioState, system: str, potential) -> None:
    """Give the system a propagator that holds ``potential``; an all-zero one is the free one."""
    v = np.asarray(potential, dtype=float)
    state._resolved[system] = Propagator(state.grid, v) if v.any() else state.free_propagator


def add_system(state: ScenarioState, system: str, amplitudes, shape) -> WaveField:
    """A wave-field of one group, the unit-norm ``shape``, with a branch per nonzero amplitude.

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
    lit = np.flatnonzero(np.abs(coeffs) > COEFFICIENT_THRESHOLD)
    labels = [IndexLabel(i, ()) for i in lit.tolist()]
    wf = WaveField(system, memory_mod.fresh_memory(system, amps), labels, coeffs[lit],
                   coeffs[lit], np.zeros(lit.size, np.intp), shape)
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
    """The in-branches' coefficients, amplitudes and groups, the out-branches', and the rows.

    A meet builds the transfer on ``wf.labels`` as they stand, so they are its
    in-labels in its column order: ``add_system`` lists them in ascending index
    order, and every expansion keeps its out-labels in the ascending flat order
    of the merged layout, the layout the next meet builds on.  The out-vectors
    are the transfer times the in-vectors.  An out-branch takes the group its
    nonzero entries draw on; one that draws on several gets their combination,
    the row ``transfer.matrix @ fields`` gives it.
    """
    if transfer.in_labels != wf.labels:
        stray = sorted(label.text() for label in set(wf.labels) - set(transfer.in_labels))
        raise RuntimeError(f"branches {stray} of {wf.system!r} missing from the transfer matrix, "
                           f"or out of its column order, {_when(state)}")
    matrix, rows = transfer.matrix, wf.rows
    ins = coeffs, amps, group = wf.coefficients, wf.amplitudes, wf.groups
    out = matrix @ amps
    if len(rows) == 1:
        return ins, (matrix @ coeffs, out, np.zeros(len(out), np.intp)), rows
    drawn = matrix != 0
    groups = group[drawn.argmax(axis=1)]
    for i in np.flatnonzero((drawn & (group != groups[:, None])).any(axis=1)).tolist():
        rows, groups[i], out[i] = _place(rows, (matrix[i] * amps) @ rows[group])
    return ins, (matrix @ coeffs, out, groups), rows


def _expand_instant(wf: WaveField, transfer: boundary_mod.TransferMatrix, state: ScenarioState):
    _, (coeffs, amps, groups), rows = _expand(wf, transfer, state)
    # a field's mass is read only where its coefficient is at or under the threshold
    lit = [i for i, c in enumerate(coeffs.tolist()) if not abs(c) <= COEFFICIENT_THRESHOLD
           or not norm_squared(amps[i] * rows[groups[i]], state.grid) <= DARK_MASS_THRESHOLD]
    labels = transfer.out_labels
    if len(lit) < len(labels):
        labels = [labels[i] for i in lit]
        coeffs, amps, groups = coeffs[lit], amps[lit], groups[lit]
    wf.labels, wf.coefficients, wf.amplitudes, wf.groups = list(labels), coeffs, amps, groups
    if rows is not wf.rows or len(rows) > 1:  # one group, the same row: nothing to drop
        wf.keep(rows)


def _one_group(wf: WaveField, error, state: ScenarioState) -> None:
    """A boundary serves one shape: refuse ``wf``'s second group (ValueError as one opens)."""
    if len(wf.rows) == 1:
        return
    packets = wf.packets
    p, q = packets[0], packets[np.flatnonzero(wf.groups != wf.groups[0])[0]]
    f, g = p.field, q.field
    overlap = abs(np.vdot(f, g)) / np.linalg.norm(f) / np.linalg.norm(g)
    where = "no crossing" if error is ValueError else "mid-crossing"
    raise error(
        f"branches {p.index.text()!r} and {q.index.text()!r} of {wf.system!r} differ in shape "
        f"(1 - overlap = {1 - overlap:.3g}): {where} {_when(state)}"
    )


def _weights(wfs: list) -> np.ndarray:
    """Each group's w, the sum of its branches' |amplitude|^2, down ``wfs``' stacked rows."""
    return np.concatenate([
        np.bincount(wf.groups, [a.real**2 + a.imag**2 for a in wf.amplitudes.tolist()],
                    len(wf.rows))
        for wf in wfs
    ]).reshape(-1, 1)


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
        rows = np.concatenate([wf.rows for wf in fields])
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
            occupied=[wf.labels for wf in fields],
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
    """The system's branches as views: as they stand, or split at an active boundary.

    In flight the PRE branches are the branches' fields J on the pre side and
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
    ins, outs, rows = _expand(wf, transfer, state)
    return (_views(transfer.in_labels, ins, rows, PRE, ~post_side)
            + _views(transfer.out_labels, outs, rows, POST, post_side))


def _stacks(state: ScenarioState) -> list:
    """Per propagator: it, its wave-fields, where their rows end, w, the rows and spectra (the
    ones the systems kept, or fresh transforms); a system in a crossing must be one group."""
    by_propagator: dict = {}
    for wf in state.wavefields.values():
        if _active_link(state, wf.system):
            _one_group(wf, RuntimeError, state)
        by_propagator.setdefault(state.propagator(wf.system), []).append(wf)
    stacks = []
    for prop, wfs in by_propagator.items():
        spectra = [np.fft.fft(wf.rows) if wf.spectrum is None else wf.spectrum for wf in wfs]
        rows, spectrum = wfs[0].rows, spectra[0]
        if len(wfs) > 1:
            rows, spectrum = np.concatenate([wf.rows for wf in wfs]), np.concatenate(spectra)
        ends = np.cumsum([len(wf.rows) for wf in wfs]).tolist()
        stacks.append([prop, wfs, ends, _weights(wfs), rows, spectrum])
    return stacks


def _give(stacks: list) -> None:
    """Give each system its rows and their spectrum as the stacks hold them."""
    for _, wfs, ends, _, rows, spectrum in stacks:
        for wf, a, b in zip(wfs, [0, *ends], ends):
            wf.rows, wf.spectrum = rows[a:b], spectrum[a:b]


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
    for label in wf.labels:
        partners = label.partner_map()
        if b not in partners:
            raise ValueError(f"branch {label.text()!r} of {a!r} carries no label for {b!r}")
        keys.append((label.own, partners[b]))
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
