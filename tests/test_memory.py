"""Tests for interaction ledgers and their synchronization."""

import base64
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefields import hilbert
from wavefields.hilbert import Ket, Operator
from wavefields.memory import (
    ExternalMemory,
    IndexLabel,
    InteractionOp,
    InternalMemory,
    derive_state,
    external_memories,
    fresh_memory,
    layout,
    linearize,
    memory_from_json,
    memory_to_json,
    record_interaction,
    synchronize,
)

RT2 = 1.0 / math.sqrt(2.0)


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def pair_op(rng, a, b):
    return Operator(random_unitary(rng, 4), (2, 2), (a, b))


def random_amps(rng, d=2):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def chain_memory(rng):
    """Three systems, ops 1-2 then 1-3 then 2-3, like a pairwise cascade."""
    m1 = fresh_memory("1", random_amps(rng))
    m2 = fresh_memory("2", random_amps(rng))
    m3 = fresh_memory("3", random_amps(rng))
    u12 = pair_op(rng, "1", "2")
    v13 = pair_op(rng, "1", "3")
    w23 = pair_op(rng, "2", "3")
    m12 = record_interaction(m1, m2, u12, "u12")
    m123 = record_interaction(m12, m3, v13, "v13")
    final = record_interaction(m123, m123, w23, "w23")
    return final, (m1, m2, m3), (u12, v13, w23)


def test_fresh_memory_state():
    mem = fresh_memory("1", [0.6, 0.8])
    state = derive_state(mem)
    assert state.labels == ("1",)
    assert np.allclose(state.amplitudes, [0.6, 0.8])


def test_derive_state_matches_direct_composition():
    # oracle route: tensor the initial states and apply the unitaries
    # in construction order by hand
    rng = np.random.default_rng(42)
    for _ in range(100):
        final, (m1, m2, m3), (u12, v13, w23) = chain_memory(rng)
        ref = hilbert.tensor(
            hilbert.tensor(m1.initial_states["1"], m2.initial_states["2"]),
            m3.initial_states["3"],
        )
        ref = hilbert.apply(u12, ref)
        ref = hilbert.apply(v13, ref)
        ref = hilbert.apply(w23, ref)
        got = derive_state(final)
        ref = hilbert.permute_systems(ref, got.labels)
        assert np.allclose(got.amplitudes, ref.amplitudes, atol=1e-10)


def test_space_like_records_commute():
    # ops on disjoint pairs carry no causal order; both orders derive
    # the same state
    rng = np.random.default_rng(5)
    mems = {s: fresh_memory(s, random_amps(rng)) for s in "1234"}
    u12 = pair_op(rng, "1", "2")
    v34 = pair_op(rng, "3", "4")
    m12 = record_interaction(mems["1"], mems["2"], u12, "u12")
    m34 = record_interaction(mems["3"], mems["4"], v34, "v34")
    merged = synchronize(m12, m34)
    assert not merged.ops["u12"].parents and not merged.ops["v34"].parents

    swapped = InternalMemory(
        dict(merged.initial_states),
        {"v34": merged.ops["v34"], "u12": merged.ops["u12"]},
    )
    a = derive_state(merged)
    b = derive_state(swapped)
    assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-12)


def world_line(mem, system):
    """The system's own interaction records, in causal order."""
    return [op_id for op_id in linearize(mem) if system in mem.ops[op_id].participants]


def test_record_interaction_tracks_parents():
    rng = np.random.default_rng(9)
    final, _, _ = chain_memory(rng)
    assert final.ops["u12"].parents == frozenset()
    assert final.ops["v13"].parents == {"u12"}
    assert final.ops["w23"].parents == {"u12", "v13"}
    assert world_line(final, "1") == ["u12", "v13"]
    assert world_line(final, "2") == ["u12", "w23"]
    assert world_line(final, "3") == ["v13", "w23"]


def test_record_single_system_op():
    rng = np.random.default_rng(15)
    mem = fresh_memory("1", [1.0, 0.0])
    u = Operator(random_unitary(rng, 2), (2,), ("1",))
    mem2 = record_interaction(mem, None, u, "u1")
    assert mem2.ops["u1"].participants == ("1",)
    got = derive_state(mem2)
    assert np.allclose(got.amplitudes, u.matrix @ np.array([1.0, 0.0]), atol=1e-12)


def test_record_rejects_duplicate_op_id():
    rng = np.random.default_rng(21)
    m1 = fresh_memory("1", random_amps(rng))
    m2 = fresh_memory("2", random_amps(rng))
    mem = record_interaction(m1, m2, pair_op(rng, "1", "2"), "u")
    with pytest.raises(ValueError):
        record_interaction(mem, None, pair_op(rng, "1", "2"), "u")


def test_record_rejects_unknown_participant():
    m1 = fresh_memory("1", [1.0, 0.0])
    m2 = fresh_memory("2", [1.0, 0.0])
    op = Operator(np.eye(4), (2, 2), ("1", "9"))
    with pytest.raises(ValueError):
        record_interaction(m1, m2, op, "u")


def test_synchronize_is_idempotent_and_commutative():
    rng = np.random.default_rng(33)
    final, _, _ = chain_memory(rng)
    again = synchronize(final, final)
    assert set(again.ops) == set(final.ops)
    assert np.allclose(
        derive_state(again).amplitudes, derive_state(final).amplitudes, atol=1e-14
    )


def test_synchronize_rejects_conflicting_records():
    rng = np.random.default_rng(35)
    m1 = fresh_memory("1", [1.0, 0.0])
    m2 = fresh_memory("2", [1.0, 0.0])
    a = record_interaction(m1, m2, pair_op(rng, "1", "2"), "u")
    b = record_interaction(m1, m2, pair_op(rng, "1", "2"), "u")
    with pytest.raises(ValueError):
        synchronize(a, b)


def test_synchronize_rejects_conflicting_initial_states():
    a = fresh_memory("1", [1.0, 0.0])
    b = fresh_memory("1", [0.0, 1.0])
    with pytest.raises(ValueError):
        synchronize(a, b)


def test_memory_growth_is_monotone():
    rng = np.random.default_rng(41)
    final, _, _ = chain_memory(rng)
    partial = InternalMemory(
        dict(final.initial_states), {"u12": final.ops["u12"]}
    )
    merged = synchronize(partial, final)
    assert set(merged.ops) == set(final.ops)


def test_linearize_detects_cycles():
    u = Operator(np.eye(4), (2, 2), ("1", "2"))
    op_a = InteractionOp("a", u, ("1", "2"), frozenset({"b"}))
    op_b = InteractionOp("b", u, ("1", "2"), frozenset({"a"}))
    with pytest.raises(ValueError):
        InternalMemory(
            {
                "1": hilbert.state_ket("1", [1, 0]),
                "2": hilbert.state_ket("2", [1, 0]),
            },
            {"a": op_a, "b": op_b},
        )


def test_construction_refuses_parent_after_child(monkeypatch):
    from wavefields import memory

    rng = np.random.default_rng(37)
    final, _, _ = chain_memory(rng)
    calls = []
    monkeypatch.setattr(memory, "linearize", lambda mem: calls.append(mem))
    rebuilt = InternalMemory(dict(final.initial_states), dict(final.ops))
    assert list(rebuilt.ops) == ["u12", "v13", "w23"]
    swapped = {k: final.ops[k] for k in ("u12", "w23", "v13")}
    with pytest.raises(ValueError, match=r"'w23' lists parents \['v13'\]"):
        InternalMemory(dict(final.initial_states), swapped)
    assert calls == []


def test_construction_refuses_unknown_participant():
    rng = np.random.default_rng(39)
    final, _, _ = chain_memory(rng)
    states = {s: k for s, k in final.initial_states.items() if s != "3"}
    with pytest.raises(ValueError, match="'v13' references unknown system '3'"):
        InternalMemory(states, dict(final.ops))
    doc = json.loads(memory_to_json(final))
    del doc["initial_states"]["3"]
    with pytest.raises(ValueError, match="unknown system '3'"):
        memory_from_json(json.dumps(doc))


def test_appends_do_not_recheck_the_whole_ledger(monkeypatch):
    rng = np.random.default_rng(43)
    final, _, _ = chain_memory(rng)
    newcomer = fresh_memory("4", [1.0, 0.0])
    checks = []
    full_check = InternalMemory.__post_init__
    monkeypatch.setattr(
        InternalMemory, "__post_init__", lambda self: checks.append(self) or full_check(self)
    )
    grown = record_interaction(final, None, Operator(np.eye(2), (2,), ("1",)), "g1")
    merged = synchronize(newcomer, grown)
    assert checks == []
    assert list(merged.ops) == ["u12", "v13", "w23", "g1"]
    rebuilt = InternalMemory(dict(merged.initial_states), dict(merged.ops))
    assert list(rebuilt.ops) == list(merged.ops)
    assert len(checks) == 1


def test_synchronize_checks_each_entry_it_adds():
    # entries slipped into a ledger after construction are caught on merge
    rng = np.random.default_rng(45)
    final, _, _ = chain_memory(rng)
    u, u19 = pair_op(rng, "1", "2"), pair_op(rng, "1", "9")
    cases = [
        ("ops", "x", InteractionOp("x", u, ("1", "2"), frozenset({"no"})), r"parents \['no'\]"),
        ("ops", "x", InteractionOp("x", u19, ("1", "9"), frozenset()), "unknown system '9'"),
        ("initial_states", "5", hilbert.state_ket("6", [1, 0]), "'5' is labeled"),
    ]
    for where, key, entry, message in cases:
        tampered = InternalMemory(dict(final.initial_states), dict(final.ops))
        getattr(tampered, where)[key] = entry
        with pytest.raises(ValueError, match=message):
            synchronize(fresh_memory("4", [1.0, 0.0]), tampered)


def test_external_memories_singlet():
    prep = Operator(
        np.array(
            [
                [0.0, 0.0, 1.0, 0.0],
                [RT2, RT2, 0.0, 0.0],
                [-RT2, RT2, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        ),
        (2, 2),
        ("1", "2"),
    )
    mem = record_interaction(
        fresh_memory("1", [1.0, 0.0]), fresh_memory("2", [1.0, 0.0]), prep, "u12"
    )
    entries = external_memories(mem, "1")
    got = {e.index: e.coefficient for e in entries}
    assert got == {
        IndexLabel(0, (("2", 1),)): pytest.approx(RT2, abs=1e-12),
        IndexLabel(1, (("2", 0),)): pytest.approx(-RT2, abs=1e-12),
    }


def test_external_memories_normalized_and_oracle_consistent():
    rng = np.random.default_rng(55)
    for _ in range(20):
        final, _, _ = chain_memory(rng)
        state = derive_state(final)
        for sys_id in layout(final)[0]:
            entries = external_memories(final, sys_id)
            total = sum(abs(e.coefficient) ** 2 for e in entries)
            assert abs(total - 1.0) < 1e-10
            # entries regroup the oracle's product terms exactly
            terms = {
                tuple(sorted(t.label_map().items())): t.coefficient
                for t in hilbert.expand_product_terms(state)
            }
            for e in entries:
                key = tuple(sorted([(sys_id, e.index.own)] + list(e.index.partners)))
                assert key in terms
                assert abs(terms[key] - e.coefficient) < 1e-12


def test_external_memories_alternate_basis():
    # relabeling Bob's axis in the tilted basis regroups the same state
    phi = Operator(
        0.5 * np.array([[1.0, math.sqrt(3.0)], [math.sqrt(3.0), -1.0]]),
        (2,),
        ("2",),
    )
    prep = Operator(
        np.array(
            [
                [0.0, 0.0, 1.0, 0.0],
                [RT2, RT2, 0.0, 0.0],
                [-RT2, RT2, 0.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        ),
        (2, 2),
        ("1", "2"),
    )
    mem = record_interaction(
        fresh_memory("1", [1.0, 0.0]), fresh_memory("2", [1.0, 0.0]), prep, "u12"
    )
    entries = external_memories(mem, "2", bases={"2": phi})
    probs = sorted(abs(e.coefficient) ** 2 for e in entries)
    # singlet against any orthonormal basis keeps 4 terms, probabilities
    # |<phi_i|j>|^2 / 2 = {1/8, 3/8} each appearing twice
    assert np.allclose(probs, [1.0 / 8, 1.0 / 8, 3.0 / 8, 3.0 / 8], atol=1e-12)


def test_memory_json_round_trip():
    rng = np.random.default_rng(77)
    final, _, _ = chain_memory(rng)
    text = memory_to_json(final)
    back = memory_from_json(text)
    assert set(back.ops) == set(final.ops)
    for op_id, op in final.ops.items():
        assert back.ops[op_id].same_record(op)
    a = derive_state(final)
    b = derive_state(back)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    # serialization is deterministic
    assert memory_to_json(back) == text


def test_a_loaded_memory_keeps_the_written_amplitudes_and_syncs_with_its_source():
    # this unit vector's norm is 1 - 1.1e-16 in floating point, so dividing by it
    # again moves the last bits: a loaded ledger would conflict with its source
    amps = np.array([-0.30849493 + 0.75098079j, 0.20824458 + 0.54542913j])
    mem = fresh_memory("0", amps)
    back = memory_from_json(memory_to_json(mem))
    assert np.array_equal(back.initial_states["0"].amplitudes, mem.initial_states["0"].amplitudes)
    assert synchronize(back, mem).initial_states.keys() == {"0"}


def test_a_record_acts_along_its_unitarys_labels():
    # a CNOT from 1 onto 2; with its participants swapped it would act along
    # 2 then 1, and derive (0.6, 0, 0.8, 0) for the state (0.6, 0, 0, 0.8)
    cnot = Operator(np.eye(4)[[0, 1, 3, 2]], (2, 2), ("1", "2"))
    mem = record_interaction(
        fresh_memory("1", [0.6, 0.8]), fresh_memory("2", [1.0, 0.0]), cnot, "cnot"
    )
    assert np.allclose(derive_state(mem).amplitudes, [0.6, 0, 0, 0.8], atol=1e-15)
    doc = json.loads(memory_to_json(mem))
    doc["ops"][0]["participants"] = ["2", "1"]
    with pytest.raises(ValueError, match=r"unitary acts on \('1', '2'\), participants are"):
        memory_from_json(json.dumps(doc))
    with pytest.raises(ValueError, match="participants are"):
        InteractionOp("x", cnot, ("2", "1"), frozenset())


def _reference_json(mem):
    """The record's document (docs/memory_format.md) built as a tree and laid out by json.dumps."""

    def array(arr):
        data = np.ascontiguousarray(arr, dtype=np.complex128)
        raw = base64.b64encode(data.tobytes()).decode("ascii")
        return {"shape": list(data.shape), "dtype": "complex128", "data_b64": raw}

    doc = {
        "format": "wavefields-memory",
        "version": 1,
        "initial_states": {
            sys_id: {"dims": list(ket.dims), "amplitudes": array(ket.amplitudes)}
            for sys_id, ket in mem.initial_states.items()
        },
        "ops": [
            {
                "op_id": op.op_id,
                "participants": list(op.participants),
                "parents": sorted(op.parents),
                "unitary": {
                    "dims": list(op.unitary.dims),
                    "labels": list(op.unitary.labels),
                    "matrix": array(op.unitary.matrix),
                },
            }
            for op in (mem.ops[op_id] for op_id in linearize(mem))
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2)


# ids with what the encoder escapes: quotes, backslashes, control characters,
# non-ASCII, a lone surrogate and characters above U+FFFF (surrogate pairs)
_ESCAPED = list('"\\\n\t\x00\x1f\x7f\xe9\u2028\ud800\U0001F600')
_ids = st.text(st.one_of(st.sampled_from(_ESCAPED), st.characters()), max_size=6)


@st.composite
def _ledgers(draw):
    """A valid ledger of 0-4 systems of dim 2 or 3 and 0-6 one- and two-system records."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = draw(st.lists(_ids, max_size=4, unique=True))
    dims = {s: draw(st.sampled_from((2, 3))) for s in names}
    states = {s: Ket(random_amps(rng, d), (d,), (s,)) for s, d in dims.items()}
    ops = {}
    for _ in range(draw(st.integers(0, 6)) if dims else 0):
        on = tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=2, unique=True)))
        d = tuple(dims[s] for s in on)
        op_id = draw(_ids.filter(lambda t: t not in ops))
        parents = frozenset(draw(st.sets(st.sampled_from(sorted(ops))))) if ops else frozenset()
        unitary = Operator(random_unitary(rng, math.prod(d)), d, on)
        ops[op_id] = InteractionOp(op_id, unitary, on, parents)
    return InternalMemory(states, ops)


@settings(max_examples=200, deadline=None)
@given(mem=_ledgers())
def test_memory_json_is_json_dumps_of_the_document(mem):
    text = memory_to_json(mem)
    assert text == _reference_json(mem)
    assert memory_to_json(memory_from_json(text)) == text


def test_memory_json_rejects_other_documents():
    with pytest.raises(ValueError):
        memory_from_json('{"format": "something-else", "version": 1}')


def causal_memory_against_id_order():
    """Two records whose ids sort opposite to their causal order."""
    rng = np.random.default_rng(79)
    m1 = fresh_memory("1", random_amps(rng))
    m2 = fresh_memory("2", random_amps(rng))
    first = record_interaction(m1, m2, pair_op(rng, "1", "2"), "pair-source")
    return record_interaction(first, first, pair_op(rng, "1", "2"), "far-readout")


def test_memory_json_lists_ops_in_causal_order():
    mem = causal_memory_against_id_order()
    assert sorted(mem.ops) == ["far-readout", "pair-source"]
    ops = json.loads(memory_to_json(mem))["ops"]
    assert [op["op_id"] for op in ops] == linearize(mem) == ["pair-source", "far-readout"]
    seen = set()
    for op in ops:
        assert set(op["parents"]) <= seen
        seen.add(op["op_id"])


def test_memory_json_rejects_parent_after_child():
    doc = json.loads(memory_to_json(causal_memory_against_id_order()))
    doc["ops"].reverse()
    with pytest.raises(ValueError, match="far-readout"):
        memory_from_json(json.dumps(doc))


def test_a_memory_derives_once_and_a_new_memory_afresh(monkeypatch):
    rng = np.random.default_rng(29)
    a = record_interaction(fresh_memory("a", [0.6, 0.8]), fresh_memory("b", [RT2, RT2]), pair_op(rng, "a", "b"), "ab")
    applied = []
    real = hilbert.apply
    monkeypatch.setattr(hilbert, "apply", lambda *args, **kw: applied.append(args) or real(*args, **kw))
    first = derive_state(a)
    assert len(applied) == 1
    assert derive_state(a) is first and len(applied) == 1
    assert a == InternalMemory(dict(a.initial_states), dict(a.ops))  # the cache takes no part in ==
    later = record_interaction(a, None, Operator(np.diag([1.0, -1.0]), (2,), ("a",)), "z")
    assert later._state is None
    derive_state(later)
    assert len(applied) == 3
    back = memory_from_json(memory_to_json(a))
    assert np.array_equal(derive_state(back).amplitudes, first.amplitudes)
    assert len(applied) == 4
