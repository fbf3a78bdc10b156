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
cache what its entries fix: ``derive_state`` computes the derived state
once per memory, and ``layout`` the product basis of its systems.

A memory built from another by appends alone keeps a weak reference to
the memory it extends: ``record_interaction``'s result extends the merged
memory, and the union ``synchronize(a, b)`` builds extends ``a``.  Its ops
and initial states start with the extended memory's, as the very same
objects.  ``extends`` follows these links by object identity, so
``synchronize`` of a memory and one it extends returns the extending one
without a union, and a meet takes the records a memory lacks as a slice.
The link is weak, so it keeps no old ledger alive; once the extended
memory is gone, the full union and scan are taken instead.
"""

from __future__ import annotations

import base64
import functools
import heapq
import json
import weakref
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

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
        if self.unitary.labels != tuple(self.participants):  # the axes the matrix acts along
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
    _layout: tuple | None = field(default=None, init=False, compare=False, repr=False)
    _base: weakref.ref | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        for sys_id, ket in self.initial_states.items():
            _check_state(sys_id, ket)
        seen: dict[str, InteractionOp] = {}
        for op in self.ops.values():
            _check_record(op, self.initial_states, seen)
            seen[op.op_id] = op


def _check_state(sys_id: SystemId, ket: Ket) -> None:
    if ket.labels != (sys_id,):
        raise ValueError(f"initial state for {sys_id!r} is labeled {ket.labels}")


def _check_record(op: InteractionOp, states, present) -> None:
    """Refuse a record on an unknown system or with a parent not yet present."""
    for p in op.participants:
        if p not in states:
            raise ValueError(f"op {op.op_id!r} references unknown system {p!r}")
    if not present.keys() >= op.parents:  # an unknown parent, or a late one as in a cycle
        late = sorted(p for p in op.parents if p not in present)
        raise ValueError(f"op {op.op_id!r} lists parents {late} that do not come before it")


def _appended(
    base: InternalMemory, states: dict[SystemId, Ket], ops: dict[str, InteractionOp]
) -> InternalMemory:
    """``base`` with entries appended that the caller checked: no full pass.

    With no initial state appended, ``states`` may be base's own dict and
    the layout is base's.
    """
    mem = object.__new__(InternalMemory)
    mem.initial_states, mem.ops = states, ops
    mem._base = weakref.ref(base)
    if states is base.initial_states:
        mem._layout = base._layout
    return mem


def extends(mem: InternalMemory, base: InternalMemory) -> bool:
    """Whether ``mem`` is ``base`` or was built from it by appends alone.

    Walks back the weak links while the ancestor has at least as many
    records as ``base``; an ancestor with fewer cannot be it.
    """
    while mem is not None and len(mem.ops) >= len(base.ops):
        if mem is base:
            return True
        mem = mem._base and mem._base()
    return False


@dataclass(frozen=True)
class IndexLabel:
    """External-memory index of one packet: own outcome plus partner labels."""

    own: int
    partners: tuple[tuple[SystemId, int], ...]  # sorted by system

    def __post_init__(self):
        # labels key dicts and caches everywhere: hash the fields once, as the dataclass would
        object.__setattr__(self, "_hash", hash((self.own, self.partners)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # string hashes differ between processes, so the cached hash is not pickled
        return IndexLabel, (self.own, self.partners)

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


def layout(mem: InternalMemory) -> tuple[tuple[SystemId, ...], tuple[int, ...]]:
    """The memory's product basis: its systems in sorted order and their dims, computed once."""
    if mem._layout is None:
        order = tuple(sorted(mem.initial_states))
        mem._layout = order, tuple(mem.initial_states[s].dims[0] for s in order)
    return mem._layout


def systems(mem: InternalMemory) -> list[SystemId]:
    return list(layout(mem)[0])


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
    for sys_id in layout(mem)[0]:
        ket = mem.initial_states[sys_id]
        state = ket if state is None else hilbert.tensor(state, ket)
    for op_id in linearize(mem):
        op = mem.ops[op_id]
        state = hilbert.apply(op.unitary, state, op.participants)
    mem._state = state
    return state


def synchronize(a: InternalMemory, b: InternalMemory) -> InternalMemory:
    """Union of two memories; entries sharing an id must be identical.

    When one memory extends the other it already is their union and is
    returned as it is: every entry it shares with the other is the same
    object.  Otherwise see ``_union``.
    """
    if extends(a, b):
        return a
    if extends(b, a):
        return b
    return _union(a, b)


def _union(a: InternalMemory, b: InternalMemory) -> InternalMemory:
    """``a`` followed by what ``b`` adds to it, in ``b``'s causal order.

    Only the entries ``b`` adds to ``a`` are checked.
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
    return _appended(a, states, ops)


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
    if op_id in merged.ops:
        raise ValueError(f"op id {op_id!r} already recorded")
    tips = [_tip(merged, p) for p in unitary.labels]
    op = InteractionOp(op_id, unitary, unitary.labels, frozenset(tips).difference((None,)))
    _check_record(op, merged.initial_states, merged.ops)
    ops = merged.ops.copy()
    ops[op_id] = op
    return _appended(merged, merged.initial_states, ops)


def check_index_basis(system: SystemId, basis: Operator, dim: int) -> None:
    """Refuse an index basis that is not a unitary on the system's ``dim`` indices."""
    if basis.dims != (dim,):
        raise ValueError(f"index basis for {system!r} has wrong dimension")
    if not basis.is_unitary(tol=1e-12):
        raise ValueError(f"index basis for {system!r} is not unitary")


def _rotate_bases(state: Ket, bases: dict[SystemId, Operator] | None) -> Ket:
    if not bases:
        return state
    for sys_id, basis in bases.items():
        if sys_id not in state.labels:
            continue
        check_index_basis(sys_id, basis, state.dim(sys_id))
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

def _decode_array(blob: dict) -> np.ndarray:
    if blob.get("dtype") != "complex128":
        raise ValueError(f"unsupported dtype {blob.get('dtype')!r}")
    raw = base64.b64decode(blob["data_b64"])
    return np.frombuffer(raw, dtype=np.complex128).reshape(blob["shape"]).copy()


def _seq(texts, pad: str, brackets: str = "[]") -> str:
    """Encoded ``texts`` as json.dumps(indent=2) lays out a container closed at indent ``pad``."""
    if not texts:
        return brackets
    return f"{brackets[0]}\n{pad}  " + f",\n{pad}  ".join(texts) + f"\n{pad}{brackets[1]}"


@functools.lru_cache(maxsize=1024)
def _list(values: tuple, pad: str) -> str:
    """``_seq`` of a tuple of ints or strings, kept: a ledger repeats a few dims and labels."""
    return _seq([_quote(v) if isinstance(v, str) else str(v) for v in values], pad)


def _blob(arr: np.ndarray, pad: str) -> str:
    """The array's JSON object (its C-order complex128 bytes in base64), closed at ``pad``."""
    data = np.ascontiguousarray(arr, dtype=np.complex128)
    b64 = base64.b64encode(data.tobytes()).decode("ascii")  # letters, digits, + / =: no escapes
    return (
        f'{{\n{pad}  "data_b64": "{b64}",\n{pad}  "dtype": "complex128",\n'
        f'{pad}  "shape": {_list(data.shape, pad + "  ")}\n{pad}}}'
    )


def memory_to_json(mem: InternalMemory) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2)`` of the record's document
    (docs/memory_format.md), written in one pass from the template of its sorted layout."""
    p6, p8 = " " * 6, " " * 8
    states = [
        f'{_quote(sys_id)}: {{\n{p6}"amplitudes": {_blob(ket.amplitudes, p6)},\n'
        f'{p6}"dims": {_list(ket.dims, p6)}\n    }}'
        for sys_id, ket in sorted(mem.initial_states.items())
    ]
    ops = [
        f'{{\n{p6}"op_id": {_quote(op.op_id)},\n'
        f'{p6}"parents": {_seq(list(map(_quote, sorted(op.parents))), p6)},\n'
        f'{p6}"participants": {_list(tuple(op.participants), p6)},\n'
        f'{p6}"unitary": {{\n{p8}"dims": {_list(op.unitary.dims, p8)},\n'
        f'{p8}"labels": {_list(op.unitary.labels, p8)},\n'
        f'{p8}"matrix": {_blob(op.unitary.matrix, p8)}\n{p6}}}\n    }}'
        for op in map(mem.ops.__getitem__, linearize(mem))
    ]
    return (
        f'{{\n  "format": "wavefields-memory",\n  "initial_states": {_seq(states, "  ", "{}")},\n'
        f'  "ops": {_seq(ops, "  ")},\n  "version": 1\n}}'
    )


def memory_from_json(text: str) -> InternalMemory:
    doc = json.loads(text)
    if doc.get("format") != "wavefields-memory" or doc.get("version") != 1:
        raise ValueError("not a version-1 memory document")
    states = {}
    for sys_id, entry in doc["initial_states"].items():
        amplitudes = _decode_array(entry["amplitudes"]).reshape(-1)
        states[sys_id] = Ket(amplitudes, tuple(entry["dims"]), (sys_id,))
        # the written vector is unit to roundoff, yet renormalizing may move its last bits
        states[sys_id].amplitudes = amplitudes
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
