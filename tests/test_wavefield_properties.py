"""Property test of the wave-field representation.

A wave-field holds its branches as four vectors (labels, coefficients,
amplitudes and groups) over its group rows, and hands out packets as
read-only views.  Random instant meets on one or two systems, field writes
and steps must keep the vectors aligned and in range, leave no group that
no branch is in, and give views whose fields are the
amplitude times the group row, bit for bit, and refuse any write.

The same random meets, and every scenario, must keep the branch order the
expansion relies on: each transfer a meet builds, and each one an
expansion applies (a crossing's at completion among them), has the
wave-field's labels as its in-labels, ascending in the flat order of the
product basis of the systems they label.
"""

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefields import boundary, engine
from wavefields.engine import add_system, advance, meet, new_state
from wavefields.hilbert import Operator
from wavefields.scenarios import SCENARIOS, ScenarioConfig, run_scenario
from wavefields.spatial import Grid, gaussian_packet

DIMS = {"1": 3, "2": 2}
KICKS = (0.0, 0.6, -0.9)


def unitary(seed: int, dim: int) -> np.ndarray:
    """Phases, a random unitary block on a random subset of the indices, then a row shuffle:
    a block of one keeps every out-branch on one in-branch, a larger one mixes them."""
    rng = np.random.default_rng(seed)
    u = np.diag(np.exp(2j * np.pi * rng.random(dim)))
    idx = rng.permutation(dim)[: rng.integers(1, dim + 1)]
    z = rng.standard_normal((len(idx), len(idx))) + 1j * rng.standard_normal((len(idx), len(idx)))
    q, r = np.linalg.qr(z)
    u[np.ix_(idx, idx)] = q * (np.diag(r) / np.abs(np.diag(r)))
    return u[rng.permutation(dim)]


def operations():
    seeds = st.integers(0, 2**32 - 1)
    pairs = st.sampled_from([("1",), ("2",), ("1", "2"), ("2", "1")])
    meets = st.tuples(st.just("meet"), pairs, seeds)
    writes = st.tuples(
        st.just("write"), st.sampled_from(sorted(DIMS)), st.integers(0, 31),
        st.sampled_from(KICKS), st.sampled_from((1.0, 1j)),
    )
    steps = st.tuples(st.just("step"), st.integers(1, 3))
    return st.lists(st.one_of(meets, writes, steps), min_size=1, max_size=8)


def check(wf, grid) -> None:
    n = len(wf.labels)
    assert len(wf.coefficients) == len(wf.amplitudes) == len(wf.groups) == n
    assert wf.groups.dtype == np.intp
    assert all(0 <= g < len(wf.rows) for g in wf.groups.tolist())
    assert sorted(set(wf.groups.tolist())) == list(range(len(wf.rows)))
    views = wf.packets
    vectors = zip(wf.labels, wf.coefficients.tolist(), wf.amplitudes.tolist(), wf.groups.tolist())
    for p, (label, c, a, g) in zip(views, vectors, strict=True):
        assert (p.index, p.coefficient, p.region) == (label, c, None)
        assert p.field.tobytes() == (a * wf.rows[g]).tobytes()
    held = [v.tobytes() for v in (wf.coefficients, wf.amplitudes, wf.groups, wf.rows)]
    p = views[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.field = 2.0 * p.field
    with pytest.raises(ValueError, match="read-only"):
        p.field[grid.n // 2] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        p.field *= 2.0
    assert [v.tobytes() for v in (wf.coefficients, wf.amplitudes, wf.groups, wf.rows)] == held


def play(seed: int, ops) -> None:
    """Two systems of random amplitudes taken through ``ops``, checked after each."""
    grid = Grid(-32.0, 32.0, 128, dt=0.01)
    state = new_state(grid)
    rng = np.random.default_rng(seed)
    for (name, dim), x0 in zip(DIMS.items(), (-6.0, 6.0)):
        z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        add_system(state, name, z / np.linalg.norm(z), gaussian_packet(grid, x0, 1.5, 0.5))
    for wf in state.wavefields.values():
        check(wf, grid)
    for k, op in enumerate(ops):
        if op[0] == "meet":
            _, systems, useed = op
            dims = tuple(DIMS[s] for s in systems)
            u = Operator(unitary(useed, int(np.prod(dims))), dims, systems)
            meet(state, systems[0], systems[1] if len(systems) == 2 else None, u, f"u{k}")
        elif op[0] == "write":
            _, name, i, kick, factor = op
            wf = state.wavefields[name]
            i %= len(wf.labels)
            wf.write(i, factor * wf.packets[i].field * np.exp(1j * kick * grid.x))
        else:
            advance(state, op[1])
        for wf in state.wavefields.values():
            check(wf, grid)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ops=operations())
def test_the_vectors_stay_aligned_and_the_views_read_them(seed, ops):
    play(seed, ops)


def ascending(labels, system: str, mem) -> bool:
    """Whether ``labels`` of ``system`` label one set of systems and ascend in the flat
    order of its product basis (systems sorted, dims from ``mem``)."""
    flats, sets = [], set()
    for label in labels:
        bits = dict(label.partners, **{system: label.own})
        order = sorted(bits)
        sets.add(tuple(order))
        dims = [mem.initial_states[s].dims[0] for s in order]
        flats.append(int(np.ravel_multi_index([bits[s] for s in order], dims)))
    return len(sets) <= 1 and flats == sorted(set(flats))


@contextlib.contextmanager
def branch_order():
    """Yield the transfers expanded while it is open, checking each one built and expanded."""
    build, expand, expanded = boundary.transfer_matrices_synced, engine._expand, []

    def built(mems, unitary, index_bases=None, *, occupied, merged):
        transfers = build(mems, unitary, index_bases, occupied=occupied, merged=merged)
        for t, mem, labels in zip(transfers, mems, occupied, strict=True):
            assert t.in_labels == labels and ascending(labels, t.system, mem)
        return transfers

    def expanding(wf, transfer, state):
        assert transfer.in_labels == wf.labels and ascending(wf.labels, wf.system, wf.memory)
        expanded.append(transfer)
        return expand(wf, transfer, state)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(boundary, "transfer_matrices_synced", built)
        patch.setattr(engine, "_expand", expanding)
        yield expanded


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ops=operations())
def test_random_meets_build_and_expand_on_the_branches_in_their_order(seed, ops):
    with branch_order() as expanded:
        play(seed, ops)
    assert len(expanded) == sum(len(op[1]) for op in ops if op[0] == "meet")


@pytest.mark.parametrize("every", [0, 8])
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_every_scenario_builds_and_expands_on_the_branches_in_their_order(name, every):
    with branch_order() as expanded:
        state = run_scenario(ScenarioConfig(scenario=name, snapshot_every=every)).state
    assert expanded or name == "tunneling"  # the one scenario with no meet
    for link in state.links:  # completed, so each system was re-expanded by its transfer
        assert not link.active
        assert any(t is link.t_left for t in expanded) and any(t is link.t_right for t in expanded)
