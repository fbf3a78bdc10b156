"""Tests for the wave-field engine: meets, crossings, and audits."""

import copy

import numpy as np
import pytest

from wavefields import boundary, engine
from wavefields.engine import (
    POST,
    PRE,
    ScenarioState,
    add_system,
    advance,
    branches,
    correlation_table,
    index_distribution,
    meet,
    new_state,
    total_mass,
    validate_against_memory,
)
from wavefields.hilbert import Operator
from wavefields.memory import IndexLabel
from wavefields.spatial import Grid, gaussian_packet

CZ = Operator(np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex), (2, 2), ("1", "2"))
CNOT = Operator(
    np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
    (2, 2),
    ("1", "2"),
)


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_amps(rng, d=2):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def small_state():
    grid = Grid(-32.0, 32.0, 256, dt=0.01)
    return new_state(grid), grid


def test_add_system_creates_branches():
    state, grid = small_state()
    shape = gaussian_packet(grid, 0.0, 2.0)
    wf = add_system(state, "1", [0.6, 0.8], shape)
    assert [p.index for p in wf.packets] == [IndexLabel(0, ()), IndexLabel(1, ())]
    assert np.allclose(wf.packets[0].field, 0.6 * shape)
    assert abs(wf.packets[1].coefficient - 0.8) < 1e-15
    assert abs(total_mass(state, "1") - 1.0) < 1e-12
    assert index_distribution(state, "1") == pytest.approx({0: 0.36, 1: 0.64})


def test_add_system_validation():
    state, grid = small_state()
    shape = gaussian_packet(grid, 0.0, 2.0)
    add_system(state, "1", [1, 0], shape)
    with pytest.raises(ValueError):
        add_system(state, "1", [1, 0], shape)
    with pytest.raises(ValueError):
        add_system(state, "2", [1, 0], 2.0 * shape)
    with pytest.raises(ValueError):
        add_system(state, "3", [1, 1], shape)


def brute_force_chain(s1, s2, s3, u12, u13, u23):
    """Joint amplitudes of the pairwise cascade, by direct contraction."""
    psi = np.einsum("i,j,k->ijk", s1, s2, s3)
    psi = np.einsum("abkl,klm->abm", u12.reshape(2, 2, 2, 2), psi)
    psi = np.einsum("acik,ijk->ajc", u13.reshape(2, 2, 2, 2), psi)
    psi = np.einsum("bcjk,ijk->ibc", u23.reshape(2, 2, 2, 2), psi)
    return psi


def test_instant_meets_match_direct_contraction():
    rng = np.random.default_rng(7)
    for _ in range(10):
        state, grid = small_state()
        shape = gaussian_packet(grid, 0.0, 2.0)
        amps = [random_amps(rng) for _ in range(3)]
        for name, a in zip("123", amps):
            add_system(state, name, a, shape)
        mats = [random_unitary(rng, 4) for _ in range(3)]
        meet(state, "1", "2", Operator(mats[0], (2, 2), ("1", "2")), "u12")
        meet(state, "1", "3", Operator(mats[1], (2, 2), ("1", "3")), "u13")
        meet(state, "2", "3", Operator(mats[2], (2, 2), ("2", "3")), "u23")

        for name in "123":
            assert validate_against_memory(state, name) < 1e-10

        # systems 2 and 3 hold the complete record, so their joint view
        # matches the full contraction
        psi = brute_force_chain(*amps, *mats)
        joint13 = np.einsum("ijk->ik", np.abs(psi) ** 2)
        table = correlation_table(state, "3", "1")
        for (k, i), p in table.items():
            assert abs(p - joint13[i, k]) < 1e-10
        assert abs(sum(table.values()) - 1.0) < 1e-12

        dist2 = index_distribution(state, "2")
        marginal2 = np.einsum("ijk->j", np.abs(psi) ** 2)
        for j, p in dist2.items():
            assert abs(p - marginal2[j]) < 1e-10

        # system 1 was not part of the last interaction: its local view
        # is the contraction without that record
        eye = np.eye(4)
        psi_before = brute_force_chain(*amps, mats[0], mats[1], eye)
        joint13_before = np.einsum("ijk->ik", np.abs(psi_before) ** 2)
        table1 = correlation_table(state, "1", "3")
        for (i, k), p in table1.items():
            assert abs(p - joint13_before[i, k]) < 1e-10


def test_meets_touch_only_participants():
    rng = np.random.default_rng(11)
    state, grid = small_state()
    shape = gaussian_packet(grid, 0.0, 2.0)
    for name in "123":
        add_system(state, name, random_amps(rng), shape)
    bystander = copy.deepcopy(state.wavefields["3"])

    meet(state, "1", "2", Operator(random_unitary(rng, 4), (2, 2), ("1", "2")), "a")
    meet(state, "1", "2", Operator(random_unitary(rng, 4), (2, 2), ("1", "2")), "b")

    after = state.wavefields["3"]
    assert len(after.packets) == len(bystander.packets)
    for p, q in zip(after.packets, bystander.packets):
        assert p.index == q.index
        assert p.coefficient == q.coefficient
        assert np.array_equal(p.field, q.field)
    assert after.memory.ops == bystander.memory.ops


def test_single_system_gate():
    rng = np.random.default_rng(13)
    state, grid = small_state()
    shape = gaussian_packet(grid, 0.0, 2.0)
    amps = random_amps(rng)
    add_system(state, "1", amps, shape)
    u = random_unitary(rng, 2)
    meet(state, "1", None, Operator(u, (2,), ("1",)), "gate")
    expected = u @ amps
    got = {p.index.own: p.coefficient for p in state.wavefields["1"].packets}
    for i, c in enumerate(expected):
        assert abs(got.get(i, 0.0) - c) < 1e-12
    assert validate_against_memory(state, "1") < 1e-10


def test_index_basis_relabels_branches():
    rng = np.random.default_rng(17)
    state, grid = small_state()
    basis = Operator(random_unitary(rng, 2), (2,), ("1",))
    state.index_bases["1"] = basis
    shape = gaussian_packet(grid, 0.0, 2.0)
    add_system(state, "1", [1, 0], shape)
    coeffs = {p.index.own: p.coefficient for p in state.wavefields["1"].packets}
    expected = basis.matrix.conj().T @ np.array([1.0, 0.0])
    for i, c in coeffs.items():
        assert abs(c - expected[i]) < 1e-12
    assert validate_against_memory(state, "1") < 1e-10


# ---------------------------------------------------------------------------
# Crossings.


def crossing_state(k0=5.0, amps_left=(0.6, 0.8), amps_right=None):
    rng = np.random.default_rng(19)
    grid = Grid(-64.0, 64.0, 2048, dt=0.0125)
    state = new_state(grid)
    if amps_right is None:
        amps_right = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    add_system(state, "1", amps_left, gaussian_packet(grid, -8.0, 1.0, k0=+k0))
    add_system(state, "2", amps_right, gaussian_packet(grid, +8.0, 1.0, k0=-k0))
    return state, grid


def test_crossing_completes_and_matches_oracle():
    state, grid = crossing_state()
    link = meet(state, "1", "2", CZ, "cz", mode="crossing")
    assert link.active
    # with well-separated packets any point between them balances the
    # masses, so the start is only pinned to a cell; the dynamics then
    # hold it on the symmetry point
    assert abs(link.x12) <= grid.dx

    steps = 0
    while link.active and steps < 800:
        advance(state, 10)
        steps += 10
    assert not link.active

    # algebraic coefficients, fluid masses, and the reference route agree
    assert validate_against_memory(state, "1", atol=1e-8) < 1e-8
    assert validate_against_memory(state, "2", atol=1e-8) < 1e-8
    assert abs(total_mass(state, "1") - 1.0) < 1e-8
    assert abs(total_mass(state, "2") - 1.0) < 1e-8

    expected = {
        (0, 0): 0.36 * 0.5,
        (0, 1): 0.36 * 0.5,
        (1, 0): 0.64 * 0.5,
        (1, 1): 0.64 * 0.5,
    }
    table = correlation_table(state, "1", "2")
    for key, p in expected.items():
        assert abs(table[key] - p) < 1e-8
    # the boundary stays on the symmetry point to within a cell
    traj = np.array(link.trajectory)
    assert np.abs(traj[:, 1]).max() <= grid.dx
    # crossed fluid of the two systems agrees at every sample
    assert np.abs(traj[:, 2] - traj[:, 3]).max() < 1e-6
    assert link.crossed_left > 1.0 - 1e-6


def test_crossing_preserves_own_marginals_midway():
    state, grid = crossing_state()
    meet(state, "1", "2", CZ, "cz", mode="crossing")
    advance(state, 150)
    dist = index_distribution(state, "1")
    assert abs(sum(dist.values()) - 1.0) < 1e-9
    assert abs(dist[0] - 0.36) < 1e-6
    assert abs(dist[1] - 0.64) < 1e-6
    assert 0.05 < state.links[0].crossed_left < 0.95


def test_crossing_view_matches_eager_reindexing():
    # The reference keeps explicit pre and post stacks per system, evolves
    # them freely and re-indexes them through the transfer at the engine's
    # boundary on every step.  The engine evolves only the joined rows.
    state, grid = crossing_state()
    link = meet(state, "1", "2", CNOT, "cnot", mode="crossing")
    eager = {}
    for sys_id, transfer in (("1", link.t_left), ("2", link.t_right)):
        fields = {p.index: p.field for p in state.wavefields[sys_id].packets}
        zero = np.zeros(grid.n, dtype=complex)
        pre = np.array([fields.get(label, zero) for label in transfer.in_labels])
        post = np.zeros((len(transfer.out_labels), grid.n), dtype=complex)
        eager[sys_id] = (transfer, pre, post)

    steps = 0
    while steps < 2000:
        advance(state, 1)
        steps += 1
        if not link.active:
            break
        post_side_left = grid.x > link.x12
        for sys_id, post_side in (("1", post_side_left), ("2", ~post_side_left)):
            transfer, pre, post = eager[sys_id]
            prop = state.propagator(sys_id)
            pre[:] = prop.step(pre)
            post[:] = prop.step(post)
            boundary.apply_boundary_transfer(pre, post, transfer.matrix, post_side)
            view = branches(state, sys_id)
            view_pre = [p for p in view if p.region == PRE]
            view_post = [p for p in view if p.region == POST]
            assert [p.index for p in view_pre] == transfer.in_labels
            assert [p.index for p in view_post] == transfer.out_labels
            assert np.abs(np.array([p.field for p in view_pre]) - pre).max() <= 1e-12
            assert np.abs(np.array([p.field for p in view_post]) - post).max() <= 1e-12
        assert all(p.region is None for wf in state.wavefields.values() for p in wf.packets)
    assert not link.active and steps > 100


def test_completed_crossing_equals_instant_meet():
    crossed, grid = crossing_state()
    link = meet(crossed, "1", "2", CNOT, "cnot", mode="crossing")
    while link.active and crossed.step_count < 2000:
        advance(crossed, 1)
    assert not link.active
    advance(crossed, 7)
    instant, _ = crossing_state()
    meet(instant, "1", "2", CNOT, "cnot")
    advance(instant, crossed.step_count)
    for sys_id in "12":
        got = crossed.wavefields[sys_id].packets
        want = instant.wavefields[sys_id].packets
        assert [p.index for p in got] == [p.index for p in want]
        for p, q in zip(got, want):
            assert abs(p.coefficient - q.coefficient) <= 1e-12
            assert np.abs(p.field - q.field).max() <= 1e-12


def test_crossing_rejects_wrong_orientation():
    state, grid = crossing_state()
    with pytest.raises(ValueError):
        meet(
            state,
            "2",
            "1",
            Operator(CZ.matrix, (2, 2), ("2", "1")),
            "cz",
            mode="crossing",
        )


def test_rejected_crossing_leaves_no_record():
    state, grid = crossing_state()
    memories = {s: wf.memory for s, wf in state.wavefields.items()}
    fields = {s: [p.field.copy() for p in wf.packets] for s, wf in state.wavefields.items()}
    with pytest.raises(ValueError, match="start left of"):
        meet(state, "2", "1", Operator(CZ.matrix, (2, 2), ("2", "1")), "cz", mode="crossing")
    assert state.links == []
    for s, wf in state.wavefields.items():
        assert wf.memory is memories[s]
        assert "cz" not in wf.memory.ops
        assert all(np.array_equal(p.field, f) for p, f in zip(wf.packets, fields[s]))
        assert len(wf.packets) == len(fields[s])
        assert validate_against_memory(state, s, atol=1e-8) < 1e-8
    # the same op id goes through once the order is right
    link = meet(state, "1", "2", CZ, "cz", mode="crossing")
    assert link.active
    assert "cz" in state.wavefields["1"].memory.ops


def test_meet_rejected_mid_crossing():
    state, grid = crossing_state()
    meet(state, "1", "2", CZ, "cz", mode="crossing")
    advance(state, 5)
    with pytest.raises(ValueError):
        meet(state, "1", None, Operator(np.eye(2), (2,), ("1",)), "late")


def test_correlation_requires_shared_record():
    state, grid = small_state()
    shape = gaussian_packet(grid, 0.0, 2.0)
    add_system(state, "1", [0.6, 0.8], shape)
    add_system(state, "2", [1, 0], shape)
    with pytest.raises(ValueError):
        correlation_table(state, "1", "2")


def test_advance_audit_catches_corruption():
    state, grid = small_state()
    add_system(state, "1", [0.6, 0.8], gaussian_packet(grid, 0.0, 2.0))
    state.wavefields["1"].packets[0].field *= 2.0
    with pytest.raises(RuntimeError):
        advance(state)


def test_dark_branch_keeps_interference_fluid():
    # two branches with the same labels but different shapes can cancel
    # algebraically while their fluids do not; the engine keeps the fluid
    state, grid = small_state()
    rt2 = 1.0 / np.sqrt(2.0)
    add_system(state, "1", [rt2, rt2], gaussian_packet(grid, -3.0, 2.0))
    wf = state.wavefields["1"]
    wf.packets[1].field = wf.packets[1].coefficient * gaussian_packet(grid, 3.0, 2.0)
    hadamard = Operator(np.array([[1, 1], [1, -1]]) * rt2, (2,), ("1",))
    meet(state, "1", None, hadamard, "h")
    assert abs(total_mass(state, "1") - 1.0) < 1e-12
    dark = [p for p in wf.packets if abs(p.coefficient) < 1e-12]
    assert len(dark) == 1
    assert dark[0].mass(grid) > 0.1
