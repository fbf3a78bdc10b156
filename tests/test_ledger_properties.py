"""Property tests: random ledgers, sparse transfers and linearizations."""

import functools
import gc
import itertools
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefields import boundary, hilbert, memory
from wavefields.boundary import transfer_matrices_synced
from wavefields.hilbert import Operator
from wavefields.memory import (
    IndexLabel,
    InternalMemory,
    derive_state,
    fresh_memory,
    memory_from_json,
    memory_to_json,
    record_interaction,
    synchronize,
)


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_amps(rng, d):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def random_op(rng, dims, acting):
    sub = tuple(dims[s] for s in acting)
    return Operator(random_unitary(rng, math.prod(sub)), sub, tuple(acting))


@st.composite
def ledgers(draw, ids=None):
    """Each system's memory after random 1- and 2-system records.

    Systems are qubits or qutrits.  A record updates only its
    participants' memories, as a meet does, so the union of all of them
    is a DAG whose records on disjoint systems stay unordered.  System and
    record ids are "0", "1", ... and "op0", "op1", ..., or drawn from ``ids``.
    """
    count, records = draw(st.integers(2, 4)), draw(st.integers(0, 5))
    names = [str(i) for i in range(count)]
    op_ids = [f"op{k}" for k in range(records)]
    if ids is not None:
        names = draw(st.lists(ids, min_size=count, max_size=count, unique=True))
        op_ids = draw(st.lists(ids, min_size=records, max_size=records, unique=True))
    dims = {s: draw(st.sampled_from([2, 3])) for s in names}
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mems = {s: fresh_memory(s, random_amps(rng, dims[s])) for s in names}
    for op_id in op_ids:
        acting = draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
        other = mems[acting[1]] if len(acting) == 2 else None
        merged = record_interaction(mems[acting[0]], other, random_op(rng, dims, acting), op_id)
        for s in acting:
            mems[s] = merged
    return mems, dims, rng


def _state_along(mem, order):
    state = None
    for s in sorted(mem.initial_states):
        ket = mem.initial_states[s]
        state = ket if state is None else hilbert.tensor(state, ket)
    for op_id in order:
        op = mem.ops[op_id]
        state = hilbert.apply(op.unitary, state, op.participants)
    return state


@settings(max_examples=40, deadline=None)
@given(ledger=ledgers())
def test_derive_state_is_the_same_along_every_linearization(ledger):
    mems, _, _ = ledger
    mem = functools.reduce(synchronize, mems.values())
    expected = derive_state(mem).amplitudes
    seen = 0
    for order in itertools.permutations(mem.ops):
        placed: set[str] = set()
        for op_id in order:
            if not mem.ops[op_id].parents <= placed:
                break
            placed.add(op_id)
        else:
            seen += 1
            got = _state_along(mem, order).amplitudes
            assert np.abs(got - expected).max() <= 1e-12
    assert seen >= 1


def kron_rotation(order, dims, bases):
    """The index bases of ``order`` as one dense Kronecker product; identity where unset."""
    out = np.eye(1)
    for sys_id, d in zip(order, dims):
        out = np.kron(out, bases[sys_id].matrix if sys_id in bases else np.eye(d))
    return out


def reference_transfer(own, merged, unitary, system, index_bases=None, occupied=None):
    """Transfer built one column at a time through the ``hilbert`` route.

    Each needed in-branch becomes a basis ket, is tensored with the
    initial states of newly met systems, takes every record ``own``
    lacks and then ``unitary`` by ``hilbert.apply``, and its amplitudes
    are permuted to the merged system order.  Index bases rotate the dense matrix on
    both sides.  Returns (matrix, in_labels, out_labels).
    """
    pre_order = memory.systems(own)
    post_order = memory.systems(merged)
    pre_dims = [own.initial_states[s].dims[0] for s in pre_order]
    post_dims = [merged.initial_states[s].dims[0] for s in post_order]
    missing = [op_id for op_id in merged.ops if op_id not in own.ops]
    n_in, n_out = math.prod(pre_dims), math.prod(post_dims)
    if occupied is None:
        cols = list(range(n_in))
    else:
        cols = sorted({
            int(np.ravel_multi_index(
                [lb.own if s == system else dict(lb.partners)[s] for s in pre_order], pre_dims
            ))
            for lb in occupied
        })
    needed = cols
    if index_bases:
        r_in = kron_rotation(pre_order, pre_dims, index_bases)
        r_out = kron_rotation(post_order, post_dims, index_bases)
        needed = np.flatnonzero(r_in[:, cols].any(axis=1))
    t = np.zeros((n_out, n_in), dtype=np.complex128)
    for col in needed:
        ket = None
        for sys_id, i in zip(pre_order, np.unravel_index(col, pre_dims)):
            factor = hilbert.state_ket(sys_id, np.eye(own.initial_states[sys_id].dims[0])[i])
            ket = factor if ket is None else hilbert.tensor(ket, factor)
        for sys_id in post_order:
            if sys_id not in pre_order:
                ket = hilbert.tensor(ket, merged.initial_states[sys_id])
        for op_id in missing:
            op = merged.ops[op_id]
            ket = hilbert.apply(op.unitary, ket, op.participants)
        ket = hilbert.apply(unitary, ket)
        # the amplitudes permuted, not a permuted Ket, which would normalize them again
        perm = [ket.labels.index(s) for s in post_order]
        t[:, col] = ket.tensor_view().transpose(perm).reshape(-1)
    if index_bases:
        t = r_out.conj().T @ t @ r_in
    t = t[:, cols]
    rows = list(range(n_out)) if occupied is None else list(np.flatnonzero(t.any(axis=1)))

    def labels(order, dims, flats):
        out = []
        for flat in flats:
            assignment = {s: int(i) for s, i in zip(order, np.unravel_index(flat, dims))}
            own_index = assignment.pop(system)
            out.append(IndexLabel(own_index, tuple(sorted(assignment.items()))))
        return out

    return t[rows], labels(pre_order, pre_dims, cols), labels(post_order, post_dims, rows)


@settings(max_examples=80, deadline=None)
@given(ledger=ledgers(), data=st.data())
def test_batched_transfer_is_the_column_by_column_one(ledger, data):
    mems, dims, rng = ledger
    names = sorted(mems)
    acting = tuple(
        data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
    )
    unitary = random_op(rng, dims, acting)
    bases = None
    if data.draw(st.booleans()):
        rotated = data.draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        bases = {s: random_op(rng, dims, (s,)) for s in rotated}
    mem_pair = tuple(mems[s] for s in acting)
    merged = functools.reduce(synchronize, mem_pair)
    every = [
        reference_transfer(own, merged, unitary, s, bases)[1] for own, s in zip(mem_pair, acting)
    ]
    occupied = tuple(every)
    if data.draw(st.booleans()):
        occupied = tuple(
            data.draw(st.lists(st.sampled_from(labels), min_size=1, unique=True)) for labels in every
        )
    got = transfer_matrices_synced(
        mem_pair, unitary, index_bases=bases, occupied=occupied, merged=merged
    )
    for t, own, s, occ in zip(got, mem_pair, acting, occupied):
        matrix, in_labels, out_labels = reference_transfer(own, merged, unitary, s, bases, occ)
        assert t.in_labels == in_labels
        if bases is None:
            assert np.array_equal(t.matrix, matrix)
            assert t.out_labels == out_labels
            continue
        # Per-system rotations round differently from the dense Kronecker ones, and
        # B†B rounds a row that is zero in exact arithmetic to exactly 0 or to ~1e-16,
        # so a row only one route keeps must be roundoff.
        ours = dict(zip(t.out_labels, t.matrix))
        theirs = dict(zip(out_labels, matrix))
        for label in ours.keys() | theirs.keys():
            row = ours.get(label, np.zeros(len(in_labels))) - theirs.get(label, 0.0)
            assert np.abs(row).max() <= 1e-14


@settings(max_examples=60, deadline=None)
@given(ledger=ledgers())
def test_full_construction_accepts_every_appended_ledger(ledger):
    mems, _, _ = ledger
    for mem in [*mems.values(), functools.reduce(synchronize, mems.values())]:
        rebuilt = InternalMemory(dict(mem.initial_states), dict(mem.ops))
        assert list(rebuilt.ops) == list(mem.ops)
        assert rebuilt.initial_states == mem.initial_states


@settings(max_examples=60, deadline=None)
@given(ledger=ledgers(), data=st.data())
def test_the_records_the_first_memory_lacks_are_the_merge_suffix(ledger, data):
    mems, dims, rng = ledger
    acting = tuple(data.draw(st.lists(st.sampled_from(sorted(mems)), min_size=2, max_size=2, unique=True)))
    first = mems[acting[0]]
    merged = synchronize(first, mems[acting[1]])
    scanned = [op for op_id, op in merged.ops.items() if op_id not in first.ops]
    assert memory.extends(merged, first)
    assert list(merged.ops.values())[len(first.ops):] == scanned
    assert list(boundary._missing_records(first, merged)) == scanned


def meet_history(data, min_meets=0):
    """Memories of 2-4 qubits after up to 8 random meets, and every memory made.

    A meet synchronizes its participants' memories and appends one
    record, as ``engine.meet`` does.  ``made`` keeps every memory alive,
    so each one's weak link to the memory it extends still resolves.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    names = [str(i) for i in range(data.draw(st.integers(2, 4)))]
    dims = dict.fromkeys(names, 2)
    mems = {s: fresh_memory(s, random_amps(rng, 2)) for s in names}
    made = list(mems.values())
    for k in range(data.draw(st.integers(min_meets, 8))):
        acting = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
        merged = mems[acting[0]]
        if len(acting) == 2:
            merged = synchronize(merged, mems[acting[1]])
        merged = record_interaction(merged, None, random_op(rng, dims, acting), f"op{k}")
        made.append(merged)
        for s in acting:
            mems[s] = merged
    return mems, made


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_synchronize_of_extending_memories_is_the_full_union(data):
    mems, made = meet_history(data)
    pool = made if data.draw(st.booleans()) else list(mems.values())
    for a, b in itertools.product(pool, repeat=2):
        fast, full = synchronize(a, b), memory._union(a, b)
        assert list(fast.ops) == list(full.ops)
        assert all(fast.ops[k] is op for k, op in full.ops.items())
        assert list(fast.initial_states) == list(full.initial_states)
        assert all(fast.initial_states[s] is k for s, k in full.initial_states.items())
        if memory.extends(a, b) or memory.extends(b, a):
            assert fast is a or fast is b


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_records_either_participant_lacks_are_the_full_scan(data):
    _, made = meet_history(data)
    for a, b in itertools.product(made, repeat=2):
        for merged in (synchronize(a, b), memory._union(a, b)):
            for own in (a, b):
                scanned = [op for op_id, op in merged.ops.items() if op_id not in own.ops]
                assert list(boundary._missing_records(own, merged)) == scanned


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_conflicting_records_are_refused_between_memories_that_do_not_extend(data):
    _, made = meet_history(data, min_meets=1)
    mem = data.draw(st.sampled_from([m for m in made if m.ops]))
    op_id = data.draw(st.sampled_from(list(mem.ops)))
    op = mem.ops[op_id]
    forged = memory.InteractionOp(
        op_id, Operator(-op.unitary.matrix, op.unitary.dims, op.unitary.labels),
        op.participants, op.parents,
    )
    rival = InternalMemory(dict(mem.initial_states), {**mem.ops, op_id: forged})
    assert not memory.extends(mem, rival) and not memory.extends(rival, mem)
    for a, b in ((mem, rival), (rival, mem)):
        with pytest.raises(ValueError, match=f"conflicting records under op id {op_id!r}"):
            synchronize(a, b)


def test_the_link_to_the_extended_memory_is_weak():
    rng = np.random.default_rng(5)
    first = fresh_memory("0", random_amps(rng, 2))
    grown = record_interaction(first, None, random_op(rng, {"0": 2}, ("0",)), "op0")
    assert memory.extends(grown, first) and synchronize(first, grown) is grown
    link = weakref.ref(first)
    copy = InternalMemory(dict(first.initial_states), {})
    del first
    gc.collect()
    assert link() is None and not memory.extends(grown, copy)
    merged = synchronize(copy, grown)
    assert merged is not grown and list(merged.ops) == ["op0"]


def sorted_list_linearize(ops):
    """Kahn's algorithm with the ready list re-sorted, the order ``linearize`` keeps."""
    remaining = {op_id: set(parents) for op_id, parents in ops.items()}
    ready = sorted(op_id for op_id, parents in remaining.items() if not parents)
    order = []
    while ready:
        op_id = ready.pop(0)
        order.append(op_id)
        newly = [c for c, parents in remaining.items() if op_id in parents]
        for child in newly:
            remaining[child].discard(op_id)
        ready = sorted(ready + [c for c in newly if not remaining[c]])
    return order


# ids that JSON must quote or escape, and some that it writes as \\u escapes: control,
# non-ASCII and astral characters (the last as a surrogate pair)
AWKWARD_IDS = st.text(
    alphabet='ab0"[]{},: \\/\n\t\x00\x1f\x7f\u00e9\u2603\U0001f600\U00010000',
    min_size=1,
    max_size=6,
)


@settings(max_examples=60, deadline=None)
@given(ledger=ledgers(ids=AWKWARD_IDS), data=st.data())
def test_memory_json_is_the_indent_2_dump_byte_for_byte(ledger, data):
    mems, _, _ = ledger
    mem = mems[data.draw(st.sampled_from(sorted(mems)))]
    text = memory_to_json(mem)
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2)
    assert text.isascii() and not text.endswith("\n")
    back = memory_from_json(text)
    assert back.ops.keys() == mem.ops.keys() and back.initial_states.keys() == mem.initial_states.keys()
    assert all(back.ops[k].same_record(op) for k, op in mem.ops.items())
    assert memory_to_json(back) == text  # read back, the ledger writes the same bytes


@st.composite
def dags(draw):
    """Parents per op id, drawn over earlier ids and listed in a shuffled order."""
    ids = draw(st.lists(st.text("abxy019", min_size=1, max_size=3), max_size=14, unique=True))
    parents = {
        op_id: frozenset(draw(st.lists(st.sampled_from(ids[:i]), max_size=3)) if i else ())
        for i, op_id in enumerate(ids)
    }
    return dict(draw(st.permutations(list(parents.items()))))


@settings(max_examples=200, deadline=None)
@given(parents=dags())
def test_linearize_with_a_heap_keeps_the_sorted_list_order(parents):
    from types import SimpleNamespace

    mem = SimpleNamespace(ops={op_id: SimpleNamespace(parents=ps) for op_id, ps in parents.items()})
    assert memory.linearize(mem) == sorted_list_linearize(parents)


def cleared_rebuild(mem_pair, unitary, index_bases, occupied):
    """The transfers again with every layout and plan cache cleared, from memories read back.

    Each memory goes through ``memory_to_json`` and ``memory_from_json``
    and keeps its records in its own insertion order, so the rebuilt memories
    share no object, cached layout or link with the ones the meet used.
    """
    for cached in (boundary._plan, boundary._reorder, boundary._labels, boundary._label,
                   boundary._flat, hilbert._apply_plan):
        cached.cache_clear()
    fresh = []
    for mem in mem_pair:
        back = memory_from_json(memory_to_json(mem))
        fresh.append(InternalMemory(back.initial_states, {k: back.ops[k] for k in mem.ops}))
    merged = functools.reduce(synchronize, fresh)
    return transfer_matrices_synced(
        tuple(fresh), unitary, index_bases=index_bases, occupied=occupied, merged=merged
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cached_layouts_and_plans_never_go_stale(data):
    from wavefields import engine
    from wavefields.spatial import Grid, gaussian_packet

    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    names = [str(i) for i in range(data.draw(st.integers(3, 4)))]
    grid = Grid(-16.0, 16.0, 64, 0.01)
    state = engine.new_state(grid)
    if data.draw(st.booleans()):
        for s in data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True)):
            state.index_bases[s] = Operator(random_unitary(rng, 2), (2,), (s,))
    for i, s in enumerate(names):
        engine.add_system(state, s, random_amps(rng, 2), gaussian_packet(grid, 6.0 * i - 9.0, 1.0))
    original, compared = boundary.transfer_matrices_synced, []

    def checked(mem_pair, unitary, index_bases=None, *, occupied, merged):
        got = original(mem_pair, unitary, index_bases, occupied=occupied, merged=merged)
        again = cleared_rebuild(mem_pair, unitary, index_bases, occupied)
        for t, u in zip(got, again, strict=True):
            assert (t.system, t.in_labels, t.out_labels) == (u.system, u.in_labels, u.out_labels)
            assert t.matrix.shape == u.matrix.shape
            assert t.matrix.tobytes() == u.matrix.tobytes()
        compared.append(len(got))
        return got

    boundary.transfer_matrices_synced = checked
    try:
        for k in range(data.draw(st.integers(1, 10))):
            acting = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True))
            b = acting[1] if len(acting) == 2 else None
            engine.meet(state, acting[0], b, random_op(rng, dict.fromkeys(names, 2), acting), f"op{k}")
    finally:
        boundary.transfer_matrices_synced = original
    assert compared
