"""Interaction ledgers carried by each system.

A system's internal memory is the pair (initial single-system states,
DAG of interaction records).  Records are partially ordered by their
causal parents: two records sharing a participant are always ordered,
records on disjoint systems are not, and any linearization consistent
with the DAG derives the same joint state because unordered records
commute.  Memories only ever grow; synchronization is a union.

An in-memory ledger keeps its records in causal insertion order, and
construction refuses a parent listed after its child, so meets never
re-sort it; ``linearize`` stays the canonical order (JSON, derived state).
Construction checks the whole ledger; ``synchronize`` and
``record_interaction`` check only what they add to a valid one (known
participants, parents present, self-labeled initial states).

Memories are treated as immutable: every operation returns a new one
and never mutates its inputs.  That is what makes it safe for a memory to
cache its derived state: ``derive_state`` computes it once per memory.
"""

from __future__ import annotations

import base64
import heapq
import json
import re
from dataclasses import dataclass, field

import numpy as np

from . import hilbert
from .hilbert import Ket, Operator

SystemId = str


@dataclass(frozen=True)
class InteractionOp:
    """One recorded interaction: a unitary applied to 1 or 2 systems."""

    op_id: str
    unitary: Operator
    participants: tuple[SystemId, ...]
    parents: frozenset[str]

    def __post_init__(self):
        if not (1 <= len(self.participants) <= 2):
            raise ValueError(
                f"op {self.op_id!r} must have 1 or 2 participants, "
                f"got {self.participants}"
            )
        if len(self.unitary.labels) != len(self.participants):
            raise ValueError(
                f"op {self.op_id!r}: unitary acts on {self.unitary.labels}, "
                f"participants are {self.participants}"
            )

    def same_record(self, other: "InteractionOp") -> bool:
        return (
            self.op_id == other.op_id
            and self.participants == other.participants
            and self.parents == other.parents
            and self.unitary.dims == other.unitary.dims
            and np.array_equal(self.unitary.matrix, other.unitary.matrix)
        )


@dataclass
class InternalMemory:
    """Initial states plus the causal DAG of records, in insertion order."""

    initial_states: dict[SystemId, Ket]
    ops: dict[str, InteractionOp]
    _state: Ket | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        for sys_id, ket in self.initial_states.items():
            _check_state(sys_id, ket)
        seen: set[str] = set()
        for op in self.ops.values():
            _check_record(op, self.initial_states, seen)
            seen.add(op.op_id)


def _check_state(sys_id: SystemId, ket: Ket) -> None:
    if ket.labels != (sys_id,):
        raise ValueError(f"initial state for {sys_id!r} is labeled {ket.labels}")


def _check_record(op: InteractionOp, states, present) -> None:
    """Refuse a record on an unknown system or with a parent not yet present."""
    for p in op.participants:
        if p not in states:
            raise ValueError(f"op {op.op_id!r} references unknown system {p!r}")
    late = sorted(p for p in op.parents if p not in present)
    if late:  # an unknown parent, or a late one as in a cycle
        raise ValueError(f"op {op.op_id!r} lists parents {late} that do not come before it")


def _appended(states: dict[SystemId, Ket], ops: dict[str, InteractionOp]) -> InternalMemory:
    """A memory whose added entries the caller checked: no full pass."""
    mem = object.__new__(InternalMemory)
    mem.initial_states, mem.ops = states, ops
    return mem


@dataclass(frozen=True)
class IndexLabel:
    """External-memory index of one packet: own outcome plus partner labels."""

    own: int
    partners: tuple[tuple[SystemId, int], ...]  # sorted by system

    def partner_map(self) -> dict[SystemId, int]:
        return dict(self.partners)

    def text(self) -> str:
        inner = ",".join(f"{s}={i}" for s, i in self.partners)
        return f"{self.own}|{inner}"


@dataclass(frozen=True)
class ExternalMemory:
    """One indexed wavefunction of a system: its label and coefficient."""

    index: IndexLabel
    coefficient: complex


def fresh_memory(system: SystemId, amplitudes) -> InternalMemory:
    """Memory of a system that has never interacted."""
    return InternalMemory({system: hilbert.state_ket(system, amplitudes)}, {})


def systems(mem: InternalMemory) -> list[SystemId]:
    return sorted(mem.initial_states)


def linearize(mem: InternalMemory) -> list[str]:
    """Deterministic linear extension of the op DAG (Kahn, sorted ties)."""
    remaining = {op_id: set(op.parents) for op_id, op in mem.ops.items()}
    children: dict[str, list[str]] = {op_id: [] for op_id in mem.ops}
    for op_id, parents in remaining.items():
        for p in parents:
            children[p].append(op_id)
    ready = [op_id for op_id, parents in remaining.items() if not parents]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        op_id = heapq.heappop(ready)
        order.append(op_id)
        for child in children[op_id]:
            remaining[child].discard(op_id)
            if not remaining[child]:
                heapq.heappush(ready, child)
    if len(order) != len(mem.ops):
        raise ValueError("interaction records contain a causal cycle")
    return order


def world_line(mem: InternalMemory, system: SystemId) -> list[str]:
    """The system's own interaction records, in causal order."""
    return [op_id for op_id in linearize(mem) if system in mem.ops[op_id].participants]


def _tip(mem: InternalMemory, system: SystemId) -> str | None:
    # a system's records are totally ordered, so its last one is its tip
    for op_id, op in reversed(mem.ops.items()):
        if system in op.participants:
            return op_id
    return None


def derive_state(mem: InternalMemory) -> Ket:
    """Joint state the memory stands for.

    Initial states are tensored in sorted system order and every record
    is applied along a linearization of the DAG.  Unordered records act
    on disjoint systems, so the choice of linearization does not matter.
    """
    if mem._state is not None:
        return mem._state
    if not mem.initial_states:
        raise ValueError("memory has no systems")
    state: Ket | None = None
    for sys_id in systems(mem):
        ket = mem.initial_states[sys_id]
        state = ket if state is None else hilbert.tensor(state, ket)
    for op_id in linearize(mem):
        op = mem.ops[op_id]
        state = hilbert.apply(op.unitary, state, op.participants)
    mem._state = state
    return state


def synchronize(a: InternalMemory, b: InternalMemory) -> InternalMemory:
    """Union of two memories; entries sharing an id must be identical.

    Only the entries ``b`` adds to ``a`` are checked; they follow ``a``'s in ``b``'s causal order.
    """
    states = dict(a.initial_states)
    for sys_id, ket in b.initial_states.items():
        if sys_id in states:
            known = states[sys_id]
            if known.dims != ket.dims or not np.array_equal(known.amplitudes, ket.amplitudes):
                raise ValueError(f"conflicting initial states recorded for system {sys_id!r}")
        else:
            _check_state(sys_id, ket)
            states[sys_id] = ket
    ops = dict(a.ops)
    for op_id, op in b.ops.items():
        if op_id in ops:
            if ops[op_id] is not op and not ops[op_id].same_record(op):
                raise ValueError(f"conflicting records under op id {op_id!r}")
        else:
            _check_record(op, states, ops)
            ops[op_id] = op
    return _appended(states, ops)


def record_interaction(
    a: InternalMemory,
    b: InternalMemory | None,
    unitary: Operator,
    op_id: str,
) -> InternalMemory:
    """Synchronize two memories and append the interaction that caused it.

    The new record's parents are the current tips of the participants'
    world-lines, which keeps records on any one system totally ordered.
    Passing ``b=None`` records a single-system unitary.  Both
    participants hold the identical returned memory afterwards.
    """
    merged = a if b is None else synchronize(a, b)
    participants = tuple(unitary.labels)
    if op_id in merged.ops:
        raise ValueError(f"op id {op_id!r} already recorded")
    parents = frozenset(t for t in (_tip(merged, p) for p in participants) if t is not None)
    op = InteractionOp(op_id, unitary, participants, parents)
    _check_record(op, merged.initial_states, merged.ops)
    return _appended(dict(merged.initial_states), {**merged.ops, op_id: op})


def _rotate_bases(state: Ket, bases: dict[SystemId, Operator] | None) -> Ket:
    if not bases:
        return state
    for sys_id, basis in bases.items():
        if sys_id not in state.labels:
            continue
        if not basis.is_unitary(tol=1e-12):
            raise ValueError(f"index basis for {sys_id!r} is not unitary")
        state = hilbert.apply(basis.dagger(), state, [sys_id])
    return state


def external_memories(
    mem: InternalMemory,
    system: SystemId,
    bases: dict[SystemId, Operator] | None = None,
) -> list[ExternalMemory]:
    """The system's indexed wavefunctions implied by its memory.

    Each product term of the derived state becomes one entry from the
    system's viewpoint: its own basis index plus the partner labels.
    ``bases`` relabels chosen systems in a different orthonormal basis
    (columns are the basis states) before expanding.
    """
    if system not in mem.initial_states:
        raise ValueError(f"memory does not cover system {system!r}")
    state = _rotate_bases(derive_state(mem), bases)
    entries = []
    for term in hilbert.expand_product_terms(state):
        labels = term.label_map()
        own = labels.pop(system)
        index = IndexLabel(own, tuple(sorted(labels.items())))
        entries.append(ExternalMemory(index, term.coefficient))
    return entries


# ---------------------------------------------------------------------------
# JSON round trip.  Schema: docs/memory_format.md in the repository.

def _encode_array(arr: np.ndarray) -> dict:
    data = np.ascontiguousarray(arr, dtype=np.complex128)
    return {
        "shape": list(data.shape),
        "dtype": "complex128",
        "data_b64": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def _decode_array(blob: dict) -> np.ndarray:
    if blob.get("dtype") != "complex128":
        raise ValueError(f"unsupported dtype {blob.get('dtype')!r}")
    raw = base64.b64decode(blob["data_b64"])
    return np.frombuffer(raw, dtype=np.complex128).reshape(blob["shape"]).copy()


def memory_to_json(mem: InternalMemory) -> str:
    doc = {
        "format": "wavefields-memory",
        "version": 1,
        "initial_states": {
            sys_id: {
                "dims": list(ket.dims),
                "amplitudes": _encode_array(ket.amplitudes),
            }
            for sys_id, ket in sorted(mem.initial_states.items())
        },
        "ops": [
            {
                "op_id": op.op_id,
                "participants": list(op.participants),
                "parents": sorted(op.parents),
                "unitary": {
                    "dims": list(op.unitary.dims),
                    "labels": list(op.unitary.labels),
                    "matrix": _encode_array(op.unitary.matrix),
                },
            }
            for op in (mem.ops[op_id] for op_id in linearize(mem))
        ],
    }
    return _indent_json(json.dumps(doc, sort_keys=True, separators=(",", ": ")))


_JSON_STRING = re.compile(r'("[^"\\]*(?:\\.[^"\\]*)*")')


def _indent_json(compact: str) -> str:
    """The bytes of ``json.dumps(..., indent=2)`` from the C encoder's compact form.

    ``compact`` is ASCII JSON with separators ``(",", ": ")``.  Its string
    literals are set aside, leaving a skeleton whose brackets and commas
    are all structural.  A newline and two spaces per depth go after each
    opening bracket and comma and before each closing one, except inside
    an empty ``[]`` or ``{}``; then the strings go back in their places.
    """
    parts = _JSON_STRING.split(compact)  # strings at the odd positions
    skeleton = np.frombuffer('"'.join(parts[::2]).encode("ascii"), np.uint8)
    opens = (skeleton == ord("[")) | (skeleton == ord("{"))
    closes = (skeleton == ord("]")) | (skeleton == ord("}"))
    empty = opens[:-1] & closes[1:]
    opens[:-1] &= ~empty
    closes[1:] &= ~empty
    depth = np.cumsum(opens, dtype=np.int64) - np.cumsum(closes)  # after each byte
    after = np.where(opens | (skeleton == ord(",")), 1 + 2 * depth, 0)
    before = np.where(closes, 1 + 2 * depth, 0)
    moved = np.arange(skeleton.size) + np.cumsum(after + before) - after
    out = np.full(moved[-1] + after[-1] + 1, ord(" "), np.uint8)
    out[moved] = skeleton
    out[moved[after > 0] + 1] = ord("\n")
    out[(moved - before)[before > 0]] = ord("\n")
    parts[::2] = out.tobytes().decode("ascii").split('"')
    return "".join(parts)


def memory_from_json(text: str) -> InternalMemory:
    doc = json.loads(text)
    if doc.get("format") != "wavefields-memory" or doc.get("version") != 1:
        raise ValueError("not a version-1 memory document")
    states = {
        sys_id: Ket(
            _decode_array(entry["amplitudes"]),
            tuple(entry["dims"]),
            (sys_id,),
        )
        for sys_id, entry in doc["initial_states"].items()
    }
    ops = {}
    for entry in doc["ops"]:
        unitary = Operator(
            _decode_array(entry["unitary"]["matrix"]),
            tuple(entry["unitary"]["dims"]),
            tuple(entry["unitary"]["labels"]),
        )
        op = InteractionOp(
            entry["op_id"],
            unitary,
            tuple(entry["participants"]),
            frozenset(entry["parents"]),
        )
        ops[op.op_id] = op
    return InternalMemory(states, ops)
