"""Tests for the wave-field engine: meets, crossings, and audits."""

import copy
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefields import boundary, engine, memory
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
from wavefields.spatial import Grid, Propagator, gaussian_packet

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


def test_add_system_refuses_nan_amplitudes_and_shapes():
    # a NaN norm compares false with every bound, so the checks must not read "> tol"
    state, grid = small_state()
    shape = gaussian_packet(grid, 0.0, 2.0)
    with pytest.raises(ValueError, match="index amplitudes are not normalized"):
        add_system(state, "1", [np.nan, 1.0], shape)
    holed = shape.copy()
    holed[grid.n // 2] = np.nan
    with pytest.raises(ValueError, match="squared norm nan"):
        add_system(state, "1", [1.0, 0.0], holed)
    assert state.wavefields == {}


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


@pytest.mark.parametrize(
    "basis, message",
    [
        (Operator(np.eye(3), (3,), ("1",)), "has wrong dimension"),
        (Operator([[1.0, 1.0], [0.0, 1.0]], (2,), ("1",)), "is not unitary"),
    ],
)
def test_a_bad_index_basis_is_refused_by_name_everywhere(basis, message):
    refused = rf"index basis for '1' {message}"
    state, grid = small_state()
    state.index_bases["1"] = basis
    with pytest.raises(ValueError, match=refused):
        add_system(state, "1", [0.6, 0.8], gaussian_packet(grid, 0.0, 2.0))
    assert "1" not in state.wavefields
    # a basis set once the system exists is refused by the meet and by the audit
    state.index_bases.clear()
    add_system(state, "1", [0.6, 0.8], gaussian_packet(grid, 0.0, 2.0))
    state.index_bases["1"] = basis
    with pytest.raises(ValueError, match=refused):
        meet(state, "1", None, Operator(np.eye(2), (2,), ("1",)), "gate")
    assert not state.wavefields["1"].memory.ops
    with pytest.raises(ValueError, match=refused):
        memory.external_memories(state.wavefields["1"].memory, "1", {"1": basis})


def test_a_ghz_chain_meets_in_a_few_columns():
    # each CNOT meet keeps 2 columns and 2 rows, so its memory must not grow with the label space
    grid = Grid(-32.0, 32.0, 256, dt=0.01)
    state = new_state(grid)
    names = [f"s{i}" for i in range(12)]
    for i, s in enumerate(names):
        amps = [0.6, 0.8] if i == 0 else [1.0, 0.0]
        add_system(state, s, amps, gaussian_packet(grid, 4.0 * i - 22.0, 1.0))
    peaks = []
    for a, b in zip(names, names[1:]):
        cnot = Operator(CNOT.matrix, (2, 2), (a, b))
        tracemalloc.start()
        try:
            meet(state, a, b, cnot, f"{a}{b}")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 2 * 2**20, [f"{p / 2**20:.2f} MiB" for p in peaks]
    for s in names:
        assert len(state.wavefields[s].packets) == 2
        assert validate_against_memory(state, s) <= 1e-15  # one rounding of the fluid norm


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


def trajectory(link):
    """The link's trajectory as rows of (t, x12, crossed_left, crossed_right)."""
    return np.array([(t, *b[:3]) for t, b in link.trajectory])


def test_crossing_completes_and_matches_oracle():
    state, grid = crossing_state()
    link = meet(state, "1", "2", CZ, "cz", mode="crossing")
    assert link.active
    # with well-separated packets any point between them balances the
    # masses, so the start is only pinned to a cell; the dynamics then
    # hold it on the symmetry point
    assert abs(link.balance.x12) <= grid.dx

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
    traj = trajectory(link)
    assert np.abs(traj[:, 1]).max() <= grid.dx
    # crossed fluid of the two systems agrees at every sample
    assert np.abs(traj[:, 2] - traj[:, 3]).max() < 1e-6
    assert link.balance.crossed_left > 1.0 - 1e-6


def test_an_asymmetric_crossing_sits_on_the_free_gaussians_balance():
    # Packets of different widths and speeds: the crossed levels agree, and
    # x12 is the equal-mass point of the two free Gaussians, x* = (mu1 s2 +
    # mu2 s1) / (s1 + s2) with s(t) = sigma sqrt(1 + (t / 2 sigma^2)^2),
    # within dx^2 wherever the crossed mass exceeds 1e-6 (the trapezoid
    # cumulative mass is off the normal CDF by O(dx^2)).
    grid = Grid(-64.0, 64.0, 2048, dt=0.0125)
    state = new_state(grid)
    amps = np.array([1.0, 1.0]) / np.sqrt(2.0)
    add_system(state, "1", amps, gaussian_packet(grid, -8.0, 1.0, k0=5.0))
    add_system(state, "2", amps, gaussian_packet(grid, 8.0, 1.5, k0=-3.0))
    link = meet(state, "1", "2", CZ, "cz", mode="crossing")
    advance(state, round(3.0 / grid.dt))
    assert link.active
    t, x12, crossed_left, crossed_right = trajectory(link).T
    assert np.abs(crossed_left - crossed_right).max() <= 1e-6

    def spread(sigma):
        return sigma * np.sqrt(1.0 + (t / (2.0 * sigma**2)) ** 2)

    mu1, mu2, s1, s2 = -8.0 + 5.0 * t, 8.0 - 3.0 * t, spread(1.0), spread(1.5)
    crossed = np.minimum(crossed_left, crossed_right) > 1e-6
    assert crossed.sum() >= 200
    assert np.abs(x12 - (mu1 * s2 + mu2 * s1) / (s1 + s2))[crossed].max() <= grid.dx**2


def test_crossing_preserves_own_marginals_midway():
    state, grid = crossing_state()
    meet(state, "1", "2", CZ, "cz", mode="crossing")
    advance(state, 150)
    dist = index_distribution(state, "1")
    assert abs(sum(dist.values()) - 1.0) < 1e-9
    assert abs(dist[0] - 0.36) < 1e-6
    assert abs(dist[1] - 0.64) < 1e-6
    assert 0.05 < state.links[0].balance.crossed_left < 0.95


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
        post_side_left = grid.x > link.balance.x12
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


def test_a_which_path_crossing_is_refused_by_name():
    # the spin's branches kicked apart by +-5, as stern_gerlach forks its paths, and a pointer
    # flying in from +8: a boundary on the summed fluid would follow the branch that leaves
    grid = Grid(-256.0, 256.0, 8192, dt=0.0125)
    state = new_state(grid)
    add_system(state, "1", [0.6, 0.8], gaussian_packet(grid, 0.0, 1.0))
    add_system(state, "2", [1.0, 0.0], gaussian_packet(grid, 8.0, 1.0, k0=-5.0))
    wf = state.wavefields["1"]
    for i, (p, sign) in enumerate(zip(wf.packets, (1.0, -1.0))):
        wf.write(i, p.field * np.exp(5j * sign * grid.x))
    advance(state, 4)
    memories = {s: wf.memory for s, wf in state.wavefields.items()}
    named = r"branches '0\|' and '1\|' of '1' differ in shape \(1 - overlap = 1\)"
    with pytest.raises(ValueError, match=named + r".* at step 4, t=0\.05"):
        meet(state, "1", "2", CNOT, "cnot", mode="crossing")
    assert state.links == []
    for s, wf in state.wavefields.items():
        assert wf.memory is memories[s]
        assert "cnot" not in wf.memory.ops


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
    wf = state.wavefields["1"]
    wf.write(0, wf.packets[0].field * 2.0)
    with pytest.raises(RuntimeError):
        advance(state)


def test_boundary_law_gets_the_densities_of_the_stepped_rows(monkeypatch):
    # At every step the law gets each system's density as the engine forms
    # it: w (re^2 + im^2) of the system's stepped group row, with w = sum
    # |a_i|^2 over the amplitudes a_i of its packets on that row, and the
    # crossing steps only those rows.
    state, grid = crossing_state()
    link = meet(state, "1", "2", CNOT, "cnot", mode="crossing")
    weights = []
    for wf in state.wavefields.values():
        assert len(wf.rows) == 1
        w = 0.0
        for a in wf.amplitudes.tolist():
            w += a.real**2 + a.imag**2
        weights.append(w)
    law, step = boundary.step_boundary_fields, Propagator.step
    stepped, fed = [], []

    def step_spy(self, psi, *args, **kwargs):
        out = step(self, psi, *args, **kwargs)
        stepped.append(out[0])
        return out

    def spy(x12, rho_left, rho_right, grid, *sums):
        for w, row, rho in zip(weights, stepped[-1], (rho_left, rho_right)):
            fed.append(np.array_equal(rho, w * (row.real**2 + row.imag**2)))
        fed.append(sums == (np.add.reduce(rho_right).item(),))  # the norm audit's one reduce
        return law(x12, rho_left, rho_right, grid, *sums)

    monkeypatch.setattr(Propagator, "step", step_spy)
    monkeypatch.setattr(boundary, "step_boundary_fields", spy)
    advance(state, 2000, until=lambda: not link.active)
    assert not link.active
    assert len(fed) == 3 * state.step_count and all(fed)
    assert len(stepped) == state.step_count
    assert all(rows.shape == (2, grid.n) for rows in stepped)


def _per_row_crossing(amps_left, amps_right, unitary):
    """The oracle: each in-row stepped alone, the law fed each system's summed densities.

    Returns the balance of every step from the opening to the completion and
    the packets the transfers make of the rows on the completion step.
    """
    state, grid = crossing_state(amps_left=amps_left, amps_right=amps_right)
    link = meet(state, "1", "2", unitary, "u", mode="crossing")  # for its transfers only
    transfers = {"1": link.t_left, "2": link.t_right}
    rows = {}
    for s, t in transfers.items():
        fields = {p.index: p.field for p in state.wavefields[s].packets}
        rows[s] = [fields.get(label, np.zeros(grid.n, complex)) for label in t.in_labels]
    spectra = {s: [None] * len(r) for s, r in rows.items()}
    prop = Propagator(grid)

    def densities():
        return [np.sum([r.real**2 + r.imag**2 for r in rows[s]], axis=0) for s in "12"]

    balances = [boundary.step_boundary_fields(
        boundary.find_initial_boundary(*densities(), grid), *densities(), grid
    )]
    while max(balances[-1].pre_left, balances[-1].pre_right) >= engine.COMPLETION_THRESHOLD:
        assert len(balances) <= 2000
        for s in rows:
            for i, row in enumerate(rows[s]):
                rows[s][i], spectra[s][i] = prop.step(row, spectrum=spectra[s][i], keep=True)
        balances.append(boundary.step_boundary_fields(balances[-1].x12, *densities(), grid))
    packets = {s: dict(zip(t.out_labels, t.matrix @ np.array(rows[s]))) for s, t in transfers.items()}
    return balances, packets


def amplitude_pairs():
    """Normalized pairs (cos a e^{i p}, sin a e^{i q}), a single branch included."""
    angle = st.floats(0.0, np.pi / 2)
    phase = st.floats(0.0, 2.0 * np.pi)
    return st.tuples(angle, phase, phase).map(
        lambda v: (np.cos(v[0]) * np.exp(1j * v[1]), np.sin(v[0]) * np.exp(1j * v[2]))
    )


@settings(max_examples=12, deadline=None)
@given(left=amplitude_pairs(), right=amplitude_pairs(), unitary=st.sampled_from([CZ, CNOT]))
def test_stepping_leading_rows_is_stepping_every_in_row(left, right, unitary):
    # the engine steps one group row per system and holds the in-rows as
    # its multiples; the oracle steps every in-row alone and sums their densities
    balances, packets = _per_row_crossing(left, right, unitary)
    state, grid = crossing_state(amps_left=left, amps_right=right)
    link = meet(state, "1", "2", unitary, "u", mode="crossing")
    advance(state, 2000, until=lambda: not link.active)
    assert not link.active and state.step_count == len(balances) - 1
    _, x12, crossed_left, crossed_right = trajectory(link).T
    want = np.array([b[:3] for b in balances]).T
    assert np.abs(crossed_left - want[1]).max() <= 1e-13
    assert np.abs(crossed_right - want[2]).max() <= 1e-13
    mid = (np.minimum(want[1], want[2]) >= 1e-4) & (np.maximum(want[1], want[2]) <= 1 - 1e-4)
    assert mid.sum() > 50
    assert np.abs(x12 - want[0])[mid].max() <= 1e-11
    for s in "12":
        got = {p.index: p.field for p in state.wavefields[s].packets}
        for label, row in packets[s].items():
            if label in got:
                assert np.abs(got.pop(label) - row).max() <= 1e-13
            else:  # a dark row the engine drops
                assert engine.norm_squared(row, grid) <= engine.DARK_MASS_THRESHOLD
        assert got == {}


def test_audit_catches_corruption_right_after_a_crossing_step():
    state, grid = crossing_state()
    link = meet(state, "1", "2", CNOT, "cnot", mode="crossing")
    advance(state, 1)
    assert link.active
    wf = state.wavefields["2"]
    wf.write(0, wf.packets[0].field * 2.0)
    with pytest.raises(RuntimeError, match=r"norm audit failed for '2' at step 2"):
        advance(state)


def test_a_shape_change_mid_crossing_is_refused_by_name():
    # in flight an in-row is held as its multiple of the group row, so a
    # write that changes one branch's shape starts a second group, which the
    # next step refuses rather than project it away; the mass it moves is
    # far below the norm audit's tolerance
    state, grid = crossing_state()
    link = meet(state, "1", "2", CNOT, "cnot", mode="crossing")
    advance(state, 5)
    assert link.active
    wf = state.wavefields["1"]
    packet = wf.packets[0]
    assert abs(packet.coefficient - 0.6) < 1e-15
    wf.write(0, packet.field * np.exp(1e-5j * grid.x**2))
    with pytest.raises(
        RuntimeError,
        match=r"branches '0\|' and '1\|' of '1' differ in shape .*: mid-crossing at step 5, t=0\.0625",
    ):
        advance(state)
    assert state.step_count == 5


def _crossing_completion_step():
    state, _ = crossing_state()
    link = meet(state, "1", "2", CNOT, "cnot", mode="crossing")
    while link.active and state.step_count < 2000:
        advance(state, 1)
    assert not link.active
    return state.step_count


@pytest.mark.parametrize(
    "completing, steps", [(False, 1), (True, 1), (False, 7), (True, 7)],
    ids=["False", "True", "False-7", "True-7"],
)
def test_norm_audit_names_the_system_mid_crossing_and_on_completion(completing, steps):
    # The audit reads the densities of the step's stacked rows in flight, and
    # the re-expanded packets on the step a crossing completes; a call of
    # several steps names the step that failed.
    last = _crossing_completion_step()
    state, grid = crossing_state()
    link = meet(state, "1", "2", CNOT, "cnot", mode="crossing")
    advance(state, last - 1 if completing else 5)
    assert link.active
    wf = state.wavefields["2"]
    for i, p in enumerate(wf.packets):  # too little to move the boundary, enough for the audit
        wf.write(i, p.field * (1.0 + 1e-6))
    step = state.step_count + 1
    with pytest.raises(RuntimeError, match=rf"norm audit failed for '2' at step {step}, t={step * grid.dt:.6g}:"):
        advance(state, steps)
    assert state.step_count == step
    assert link.active is not completing


@pytest.mark.parametrize("crossing", [False, True], ids=["at_rest", "mid_crossing"])
def test_norm_audit_fails_a_nan_cell(crossing):
    # a NaN mass compares false with any bound, so the audit must test for
    # staying within it, not for leaving it
    state, grid = crossing_state()
    if crossing:
        link = meet(state, "1", "2", CNOT, "cnot", mode="crossing")
        advance(state, 5)
        assert link.active
    wf = state.wavefields["2"]
    psi = wf.packets[0].field.copy()  # a view's field is read-only; the write below stores it
    psi[grid.n // 2] = np.nan
    wf.write(0, psi)
    step = state.step_count + 1
    with pytest.raises(RuntimeError, match=rf"norm audit failed for '2' at step {step}, .*nan"):
        advance(state, 3)
    assert state.step_count == step


def _stepped_crossing(calls):
    """A CNOT crossing advanced by ``calls(state, link)``: its fields, trajectory and step."""
    state, _ = crossing_state()
    link = meet(state, "1", "2", CNOT, "cnot", mode="crossing")
    calls(state, link)
    fields = {s: [(p.index, p.coefficient, p.field.tobytes()) for p in wf.packets]
              for s, wf in state.wavefields.items()}
    return fields, link.trajectory, link.active, state.step_count, state.time


def test_one_call_of_many_steps_is_that_many_calls_of_one_across_a_completion():
    last = _crossing_completion_step()
    k = last + 25

    def one_at_a_time(state, link):
        for _ in range(k):
            advance(state)

    single = _stepped_crossing(one_at_a_time)
    assert single[2:4] == (False, k)
    assert _stepped_crossing(lambda state, link: advance(state, k)) == single
    # the trajectory ends on the completion step
    assert len(single[1]) == last + 1


def test_until_stops_a_call_on_the_completion_step():
    last = _crossing_completion_step()
    held = []

    def until_done(state, link):
        advance(state, 2000, until=lambda: held.append(state.step_count) or not link.active)

    fields, trajectory, active, step, _ = _stepped_crossing(until_done)
    assert not active and step == last
    assert held == list(range(1, last + 1))  # asked once after every step
    want = _stepped_crossing(lambda state, link: [advance(state) for _ in range(last)])
    assert (fields, trajectory) == want[:2]


@pytest.mark.parametrize("potential", [False, True])
def test_stacked_systems_step_as_if_alone(potential):
    # Systems sharing a propagator step as one stack; each row keeps the
    # bits of its own system stepped alone.
    def world(names):
        state, grid = small_state()
        for name in names:
            i = int(name)
            add_system(state, name, random_amps(np.random.default_rng(i)), gaussian_packet(grid, 6.0 * i - 12.0, 1.5, 0.5 * i))
        if potential and "2" in names:
            engine.set_potential(state, "2", 0.01 * grid.x**2)
        if potential and "3" in names:
            engine.set_potential(state, "3", np.zeros(grid.n))  # free all the same
        return state

    together = world("123")
    advance(together, 9)
    for name in "123":
        alone = world(name)
        advance(alone, 9)
        got = [p.field for p in together.wavefields[name].packets]
        want = [p.field for p in alone.wavefields[name].packets]
        assert len(got) == len(want) == 2
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
    shared = {id(together.propagator(name)) for name in "123"}
    assert len(shared) == (2 if potential else 1)


def test_a_bystander_keeps_its_spectrum_through_a_crossing():
    # a crossing's completion re-expands its own two systems on their
    # coefficients; a free system on the same propagator steps on from its
    # own spectrum and keeps the bits it gets stepped alone
    def world(crossing):
        state, grid = crossing_state()
        if not crossing:
            state = new_state(grid)
        add_system(state, "3", [0.6, 0.8j], gaussian_packet(grid, 40.0, 1.5, 0.5))
        return state

    together, alone = world(True), world(False)
    link = meet(together, "1", "2", CNOT, "cnot", mode="crossing")
    advance(together, 1500)
    advance(alone, 1500)
    assert not link.active and together.step_count == alone.step_count == 1500
    got, want = together.wavefields["3"].packets, alone.wavefields["3"].packets
    assert [p.index for p in got] == [p.index for p in want]
    assert all(p.field.tobytes() == q.field.tobytes() for p, q in zip(got, want))


def block_unitaries():
    """(dim, unitary, kicks): a random unitary on a random block of 2-4 indices, phases elsewhere,
    and each branch's kick, 0 or 0.7, so the branches fall into one or two shape groups."""
    def build(args):
        dim, seed, block, kicks = args
        rng = np.random.default_rng(seed)
        u = np.diag(np.exp(2j * np.pi * rng.random(dim)))
        idx = np.flatnonzero(block[:dim]) if any(block[:dim]) else np.arange(dim)
        u[np.ix_(idx, idx)] = random_unitary(rng, len(idx))
        return dim, u, random_amps(rng, dim), list(kicks[:dim])

    draw = st.tuples(
        st.integers(2, 4), st.integers(0, 2**32 - 1),
        st.lists(st.booleans(), min_size=4, max_size=4),
        st.lists(st.sampled_from((0.0, 0.7)), min_size=4, max_size=4),
    )
    return draw.map(build)


@settings(max_examples=120, deadline=None)
@given(case=block_unitaries())
def test_an_instant_meet_on_coefficients_gives_the_transfer_of_the_fields(case):
    # an out-branch keeps its in-branches' group row and its amplitude is the
    # transfer times theirs; one whose column entries draw on both groups gets
    # a row of its own.  Either way its field is matrix @ raw of the in-fields.
    dim, u, amps, kicks = case
    state, grid = small_state()
    add_system(state, "1", amps, gaussian_packet(grid, -2.0, 1.5, 1.0))
    wf = state.wavefields["1"]
    for i, p in enumerate(wf.packets):
        wf.write(i, p.field * np.exp(1j * kicks[p.index.own] * grid.x))
    wf.keep(wf.rows)  # as the meet does: the group the kicked branches left goes
    assert len(wf.rows) == len({kicks[label.own] for label in wf.labels})
    raw = np.array([p.field for p in wf.packets])
    coeffs = np.array([p.coefficient for p in wf.packets])
    rows_before = wf.rows
    meet(state, "1", None, Operator(u, (dim,), ("1",)), "u")
    want, want_c = u @ raw, u @ coeffs
    got = {p.index.own: p for p in wf.packets}
    for i in range(dim):
        if i not in got:  # a dark branch the meet drops
            assert engine.norm_squared(want[i], grid) <= engine.DARK_MASS_THRESHOLD
            continue
        assert np.abs(got[i].field - want[i]).max() <= 1e-13 * np.abs(raw).max()
        assert abs(got[i].coefficient - want_c[i]) <= 1e-13
    assert sorted(set(wf.groups.tolist())) == list(range(len(wf.rows)))
    mixed = [i for i in range(dim) if len({kicks[j] for j in np.flatnonzero(u[i])}) > 1]
    if not mixed:
        assert wf.rows is rows_before


def test_set_potential_keeps_a_copy_and_resolves_the_propagator_once():
    state, grid = small_state()
    add_system(state, "1", [0.6, 0.8], gaussian_packet(grid, -2.0, 1.5, 1.0))
    v = 0.01 * grid.x**2
    engine.set_potential(state, "1", v)
    prop = state.propagator("1")
    v[:] = 0.0  # the caller's array is not the system's potential
    advance(state)
    assert state.propagator("1") is prop and not prop.free
    held = Propagator(grid, 0.01 * grid.x**2)
    assert np.array_equal(prop._potential_phase, held._potential_phase)


@pytest.mark.parametrize("potential", [False, True])
def test_advance_calls_on_a_lone_system_are_one_multi_step(potential):
    # each advance continues from the spectrum the last one kept, so k calls
    # give the bits of a_i times one k-step Propagator.step of the group row
    state, grid = small_state()
    add_system(state, "1", random_amps(np.random.default_rng(4)), gaussian_packet(grid, -2.0, 1.5, 1.0))
    if potential:
        engine.set_potential(state, "1", 0.01 * grid.x**2)
    wf = state.wavefields["1"]
    assert len(wf.rows) == 1
    row = wf.rows[0]
    for _ in range(6):
        advance(state)
    stepped = state.propagator("1").step(row, 6)
    want = np.array([a * stepped for a in wf.amplitudes.tolist()])
    assert np.array_equal(np.array([p.field for p in wf.packets]), want)


@pytest.mark.parametrize("write", ["kick", "in_place"])
def test_a_write_into_a_field_forces_a_fresh_transform(monkeypatch, write):
    state, grid = small_state()
    add_system(state, "1", [0.6, 0.8], gaussian_packet(grid, -2.0, 1.5, 1.0))
    wf = state.wavefields["1"]
    advance(state, 2)
    calls, fft = [], np.fft.fft
    monkeypatch.setattr(np.fft, "fft", lambda a, *args, **kw: calls.append(1) or fft(a, *args, **kw))
    advance(state)
    assert calls == []  # free flight from the kept spectrum: no forward transform
    if write == "kick":
        wf.write(0, wf.packets[0].field * np.exp(0.5j * grid.x))
    else:
        psi = wf.packets[1].field.copy()  # a view's field is read-only; the write stores it
        psi[grid.n // 2] *= 1.0 + 1e-9  # too little for the norm audit
        wf.write(1, psi)
    rows = wf.rows
    assert len(rows) == 2  # the written packet's shape is a group of its own
    advance(state)
    assert calls == [1]
    stepped = state.propagator("1").step(rows)
    want = np.array([a * stepped[g] for a, g in zip(wf.amplitudes.tolist(), wf.groups.tolist())])
    assert np.array_equal(np.array([p.field for p in wf.packets]), want)


KICKS = (0.0, 0.8, -1.5)


def kicked_state(amps, kicks, potential):
    """One system whose branch i carries momentum kick kicks[i], in a potential or free."""
    state, grid = small_state()
    add_system(state, "1", amps, gaussian_packet(grid, -2.0, 1.5, 1.0))
    wf = state.wavefields["1"]
    for i, (p, k0) in enumerate(zip(wf.packets, kicks, strict=True)):
        wf.write(i, p.field * np.exp(1j * k0 * grid.x))
    if potential:
        engine.set_potential(state, "1", 0.01 * grid.x**2)
    return state


def kicked_branches():
    """2-4 random amplitudes and a kick from ``KICKS`` for each."""
    branch = st.tuples(st.floats(0.1, 1.0), st.floats(0.0, 2.0 * np.pi), st.sampled_from(KICKS))
    return st.lists(branch, min_size=2, max_size=4).map(
        lambda bs: (
            np.array([m * np.exp(1j * p) for m, p, _ in bs]) / np.linalg.norm([m for m, _, _ in bs]),
            [k0 for _, _, k0 in bs],
        )
    )


@settings(max_examples=25, deadline=None)
@given(branches=kicked_branches(), potential=st.booleans(), steps=st.integers(1, 12))
def test_each_shape_group_steps_as_its_rows_would_alone(branches, potential, steps):
    # a wave-field at rest steps one group row per distinct kick and holds
    # each branch as its multiple of that row
    amps, kicks = branches
    state = kicked_state(amps, kicks, potential)
    rows = [p.field for p in state.wavefields["1"].packets]
    shapes, step = [], Propagator.step

    def spy(self, psi, *args, **kwargs):
        shapes.append(np.shape(psi))
        return step(self, psi, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Propagator, "step", spy)
        advance(state, steps)
    assert shapes == [(len(set(kicks)), state.grid.n)] * steps
    prop = state.propagator("1")
    for p, row in zip(state.wavefields["1"].packets, rows, strict=True):
        want = prop.step(row, steps)
        assert np.abs(p.field - want).max() <= 1e-13 * np.abs(want).max()
    one_at_a_time = kicked_state(amps, kicks, potential)
    for _ in range(steps):
        advance(one_at_a_time)
    for p, q in zip(state.wavefields["1"].packets, one_at_a_time.wavefields["1"].packets):
        assert p.field.tobytes() == q.field.tobytes()


@pytest.mark.parametrize("beside", [False, True], ids=["lone", "beside_another"])
def test_a_wave_field_with_no_packets_fails_the_norm_audit_by_name(beside):
    state, grid = small_state()
    add_system(state, "1", [0.6, 0.8], gaussian_packet(grid, -2.0, 1.5))
    if beside:
        add_system(state, "2", [1.0, 0.0], gaussian_packet(grid, 6.0, 1.5))
    wf, none = state.wavefields["1"], np.zeros(0, np.intp)
    wf.labels, wf.groups = [], none
    wf.coefficients, wf.amplitudes = wf.coefficients[none], wf.amplitudes[none]
    with pytest.raises(RuntimeError, match=r"norm audit failed for '1' at step 1, t=0\.01: total mass 0\.0$"):
        advance(state, 3)
    assert state.step_count == 1


def test_dark_branch_keeps_interference_fluid():
    # two branches with the same labels but different shapes can cancel
    # algebraically while their fluids do not; the engine keeps the fluid
    state, grid = small_state()
    rt2 = 1.0 / np.sqrt(2.0)
    add_system(state, "1", [rt2, rt2], gaussian_packet(grid, -3.0, 2.0))
    wf = state.wavefields["1"]
    wf.write(1, wf.packets[1].coefficient * gaussian_packet(grid, 3.0, 2.0))
    hadamard = Operator(np.array([[1, 1], [1, -1]]) * rt2, (2,), ("1",))
    meet(state, "1", None, hadamard, "h")
    assert abs(total_mass(state, "1") - 1.0) < 1e-12
    dark = [p for p in wf.packets if abs(p.coefficient) < 1e-12]
    assert len(dark) == 1
    assert dark[0].mass(grid) > 0.1


# ---------------------------------------------------------------------------
# Error context: the system, the step and the time.


def test_norm_audit_names_system_step_and_time():
    state, grid = small_state()
    add_system(state, "1", [0.6, 0.8], gaussian_packet(grid, 0.0, 2.0))
    advance(state, 3)
    wf = state.wavefields["1"]
    wf.write(0, wf.packets[0].field * 2.0)
    with pytest.raises(RuntimeError, match=r"'1' at step 4, t=0\.04: total mass"):
        advance(state)


def test_unknown_branch_errors_name_system_step_and_time():
    state, grid = crossing_state()
    advance(state, 2)
    labels = state.wavefields["2"].labels
    labels[0] = IndexLabel(0, (("9", 1),))
    with pytest.raises(ValueError, match=r"'0\|9=1' of '2' lies outside .* at step 2, t=0\.025"):
        meet(state, "1", "2", CZ, "cz")
    assert "cz" not in state.wavefields["1"].memory.ops
    # mid-crossing the stored labels must stay the transfer's in-labels
    labels[0] = IndexLabel(0, ())
    meet(state, "1", "2", CZ, "cz", mode="crossing")
    advance(state, 3)
    labels[0] = IndexLabel(0, (("9", 1),))
    with pytest.raises(RuntimeError, match=r"\['0\|9=1'\] of '2' missing .* at step 5, t=0\.0625"):
        branches(state, "2")


def test_mid_crossing_refusal_names_system_step_and_time():
    state, grid = crossing_state()
    meet(state, "1", "2", CZ, "cz", mode="crossing")
    advance(state, 5)
    with pytest.raises(ValueError, match=r"'1' is mid-crossing at step 5, t=0\.0625"):
        meet(state, "1", None, Operator(np.eye(2), (2,), ("1",)), "late")


# ---------------------------------------------------------------------------
# Sparse meets on a shared ledger.


def test_meet_on_a_shared_ledger_does_not_relinearize(monkeypatch):
    from wavefields import memory

    state, grid = small_state()
    shape = gaussian_packet(grid, 0.0, 2.0)
    add_system(state, "1", [0.6, 0.8], shape)
    add_system(state, "2", [0.8, 0.6j], shape)
    phase = Operator(np.diag([1.0, 1.0, 1.0, 1.0j]), (2, 2), ("1", "2"))
    for k in range(200):
        meet(state, "1", "2", CZ if k % 2 else phase, f"g{k}")
    shared = state.wavefields["1"].memory
    assert state.wavefields["2"].memory is shared and len(shared.ops) == 200

    calls = []
    real = memory.linearize
    monkeypatch.setattr(memory, "linearize", lambda mem: calls.append(mem) or real(mem))
    meet(state, "1", "2", CZ, "g200")
    assert calls == []
    assert list(state.wavefields["1"].memory.ops)[-1] == "g200"
    monkeypatch.undo()
    for s in ("1", "2"):
        assert validate_against_memory(state, s, atol=1e-8) < 1e-8


def test_meet_orders_the_partners_records_without_linearize(monkeypatch):
    # system 1 lacks the two records its partner 2 made with 3 and alone
    from wavefields import memory

    state, grid = small_state()
    for i, s in enumerate(("1", "2", "3")):
        add_system(state, s, [0.6, 0.8j], gaussian_packet(grid, -8.0 + 8.0 * i, 1.0))
    meet(state, "2", "3", Operator(CNOT.matrix, (2, 2), ("2", "3")), "pair")
    meet(state, "2", None, Operator(np.diag([1.0, 1.0j]), (2,), ("2",)), "phase")
    assert len(state.wavefields["1"].memory.ops) == 0

    calls = []
    real = memory.linearize
    monkeypatch.setattr(memory, "linearize", lambda mem: calls.append(mem) or real(mem))
    meet(state, "1", "2", CZ, "join")
    assert calls == []
    monkeypatch.undo()
    assert list(state.wavefields["1"].memory.ops) == ["pair", "phase", "join"]
    for s in ("1", "2", "3"):
        assert validate_against_memory(state, s, atol=1e-8) < 1e-8


def test_meet_builds_only_occupied_columns_and_nonzero_rows(monkeypatch):
    # a GHZ chain occupies two of the 2^N in-labels at every link
    built = []
    real = boundary.transfer_matrices_synced
    monkeypatch.setattr(
        boundary, "transfer_matrices_synced", lambda *a, **k: built.append(real(*a, **k)) or built[-1]
    )
    state, grid = small_state()
    names = [str(i) for i in range(6)]
    for i, s in enumerate(names):
        amps = [0.6, 0.8] if i == 0 else [1.0, 0.0]
        add_system(state, s, amps, gaussian_packet(grid, -10.0 + 4.0 * i, 1.0))
    for a, b in zip(names, names[1:]):
        meet(state, a, b, Operator(CNOT.matrix, (2, 2), (a, b)), f"{a}{b}")
    assert [(t_a.matrix.shape, t_b.matrix.shape) for t_a, t_b in built] == [((2, 2), (2, 1))] * 5
    for s in names:
        assert validate_against_memory(state, s, atol=1e-12) < 1e-12


@pytest.mark.parametrize("rotated", [False, True])
def test_meets_build_no_state_through_the_oracle(monkeypatch, rotated):
    # the hilbert route is the oracle: meets must not lean on it
    from wavefields import hilbert

    rng = np.random.default_rng(47)
    state, grid = small_state()
    names = [str(i) for i in range(4)]
    if rotated:
        for s in ("0", "3"):
            state.index_bases[s] = Operator(random_unitary(rng, 2), (2,), (s,))
    for i, s in enumerate(names):
        amps = random_amps(rng) if i in (0, 3) else [1.0, 0.0]
        add_system(state, s, amps, gaussian_packet(grid, -12.0 + 8.0 * i, 1.0))

    def refuse(*args, **kwargs):
        raise AssertionError("a meet called the hilbert oracle")

    with monkeypatch.context() as patched:
        for name in ("apply", "tensor", "state_ket", "permute_systems"):
            patched.setattr(hilbert, name, refuse)
        for a, b in zip(names, names[1:]):
            meet(state, a, b, Operator(CNOT.matrix, (2, 2), (a, b)), f"cnot-{a}{b}")
        for k in range(20):
            if k % 2:
                meet(state, "0", "3", Operator(CZ.matrix, (2, 2), ("0", "3")), f"cz-{k}")
            else:
                s = ("0", "3")[k // 2 % 2]
                phase = np.diag([1.0, np.exp(1j * rng.uniform(0, 2 * np.pi))])
                meet(state, s, None, Operator(phase, (2,), (s,)), f"phase-{k}")
    for s in names:
        assert validate_against_memory(state, s, atol=1e-10) < 1e-10


@pytest.mark.parametrize("rotated", [False, True])
@pytest.mark.parametrize("scale", [2.0, 1.001])
def test_meet_refuses_an_operator_that_does_not_keep_the_norm(rotated, scale):
    # orthogonal columns of norm != 1: the meet is refused and records nothing
    rng = np.random.default_rng(48)
    state, grid = small_state()
    if rotated:
        for s in ("1", "2"):
            state.index_bases[s] = Operator(random_unitary(rng, 2), (2,), (s,))
    for i, s in enumerate(("1", "2")):
        add_system(state, s, random_amps(rng), gaussian_packet(grid, -6.0 + 12.0 * i, 1.0))
    memories = {s: wf.memory for s, wf in state.wavefields.items()}
    fields = {s: [p.field.copy() for p in wf.packets] for s, wf in state.wavefields.items()}
    bad = [
        ("1", None, Operator(scale * np.eye(2), (2,), ("1",))),
        ("1", "2", Operator(scale * CNOT.matrix, (2, 2), ("1", "2"))),
    ]
    for a, b, op in bad:
        with pytest.raises(ValueError, match=r"state norm .* is not 1 at step 0"):
            meet(state, a, b, op, "bad")
    for s, wf in state.wavefields.items():
        assert wf.memory is memories[s]
        assert all(np.array_equal(p.field, f) for p, f in zip(wf.packets, fields[s]))
    meet(state, "1", "2", CNOT, "bad")
    assert "bad" in state.wavefields["2"].memory.ops


def test_meet_refuses_an_operator_on_other_systems_or_in_another_order():
    # the transfers pair each participant's memory with the unitary's labels
    state, grid = small_state()
    for i, s in enumerate(("1", "2")):
        add_system(state, s, [0.6, 0.8], gaussian_packet(grid, -6.0 + 12.0 * i, 1.0))
    memories = {s: wf.memory for s, wf in state.wavefields.items()}
    for labels in (("2", "1"), ("1", "3")):
        op = Operator(CNOT.matrix, (2, 2), labels)
        with pytest.raises(ValueError, match=r"unitary acts on .* expected \('1', '2'\) at step 0"):
            meet(state, "1", "2", op, "bad")
    with pytest.raises(ValueError, match="unitary acts on"):
        meet(state, "1", None, Operator(np.eye(2), (2,), ("2",)), "bad")
    assert all(wf.memory is memories[s] for s, wf in state.wavefields.items())


def test_meet_refuses_an_operator_unitary_only_on_the_occupied_columns():
    # both systems sit at index 0, so each operator keeps the norm of every
    # state the meet builds a transfer for, but is not unitary
    state, grid = small_state()
    for i, s in enumerate(("1", "2")):
        add_system(state, s, [1.0, 0.0], gaussian_packet(grid, -6.0 + 12.0 * i, 1.0))
    advance(state, 3)
    memories = {s: wf.memory for s, wf in state.wavefields.items()}
    fields = {s: [p.field.copy() for p in wf.packets] for s, wf in state.wavefields.items()}
    two = np.eye(4, dtype=complex)
    two[:, 1] = two[:, 0]  # |01> goes where |00> goes
    bad = [
        ("1", None, Operator(np.array([[1.0, 1.0], [0.0, 0.0]], complex), (2,), ("1",))),
        ("1", "2", Operator(two, (2, 2), ("1", "2"))),
    ]
    for a, b, op in bad:
        assert not op.is_unitary()
        with pytest.raises(ValueError, match=r"'bad' is not unitary.* at step 3, t=0\.03"):
            meet(state, a, b, op, "bad")
    for s, wf in state.wavefields.items():
        assert wf.memory is memories[s]
        assert all(np.array_equal(p.field, f) for p, f in zip(wf.packets, fields[s]))
        assert validate_against_memory(state, s) < 1e-10


def test_mid_crossing_branches_hold_no_empty_rows():
    state, grid = crossing_state(amps_right=(1.0, 0.0))
    meet(state, "1", "2", CNOT, "readout", mode="crossing")
    advance(state, 150)
    for s in ("1", "2"):
        view = branches(state, s)
        assert all(np.any(p.field != 0.0) for p in view)
    # the ready pointer: its one occupied in-branch and the two out-branches it feeds
    assert [(p.region, p.index.text()) for p in branches(state, "2")] == [
        (PRE, "0|"), (POST, "0|1=0"), (POST, "1|1=1"),
    ]


def test_a_meet_merges_the_ledgers_once(monkeypatch):
    merges = []
    real = memory.synchronize
    monkeypatch.setattr(memory, "synchronize", lambda a, b: merges.append((a, b)) or real(a, b))
    state, grid = crossing_state()
    meet(state, "1", None, Operator(np.diag([1.0, 1j]), (2,), ("1",)), "phase-1")
    assert merges == []
    link = meet(state, "1", "2", CNOT, "cnot", mode="crossing")
    assert len(merges) == 1
    while link.active and state.step_count < 2000:
        advance(state, 1)
    assert not link.active and len(merges) == 1
    meet(state, "2", "1", Operator(CZ.matrix, (2, 2), ("2", "1")), "cz")
    assert len(merges) == 2
    for s in "12":
        assert validate_against_memory(state, s) < 1e-8


def test_systems_sharing_a_memory_derive_it_once(monkeypatch):
    from wavefields import hilbert

    state, grid = small_state()
    add_system(state, "1", [0.6, 0.8], gaussian_packet(grid, -8.0, 1.0))
    add_system(state, "2", [0.8, 0.6j], gaussian_packet(grid, 8.0, 1.0))
    meet(state, "1", "2", CNOT, "cnot")
    assert state.wavefields["1"].memory is state.wavefields["2"].memory
    applied = []
    real = hilbert.apply
    monkeypatch.setattr(hilbert, "apply", lambda *a, **k: applied.append(a) or real(*a, **k))
    validate_against_memory(state, "1", atol=1e-12)
    assert len(applied) == 1
    validate_against_memory(state, "2", atol=1e-12)
    assert len(applied) == 1


def test_crossed_masses_are_the_trapezoid_cumulative_mass_at_the_boundary():
    # the crossed masses are the trapezoid cumulative mass read at x12, and
    # the completion masses the cells at or below x12 and past it, the cut
    # ``branches`` makes, wherever the balance puts x12
    from wavefields.spatial import cumulative_mass

    grid = Grid(-32.0, 32.0, 256, dt=0.01)
    rng = np.random.default_rng(61)
    zero = np.zeros(grid.n)
    cases = [(grid.x[0], zero, zero), (grid.x[-1], zero, zero), (5.0, zero, zero)]
    for centre in [-28.0, 0.0, 27.5, *rng.uniform(-28.0, 28.0, 40)]:
        rho_left = np.abs(gaussian_packet(grid, centre - 2.0, 1.0 + rng.uniform())) ** 2
        rho_right = np.abs(gaussian_packet(grid, centre + 2.0, 1.0 + rng.uniform())) ** 2
        cases.append((0.0, rho_left, rho_right))
    for x12, rho_left, rho_right in cases:
        got = boundary.step_boundary_fields(x12, rho_left, rho_right, grid)
        cum_l, cum_r = cumulative_mass(rho_left, grid), cumulative_mass(rho_right, grid)
        assert abs(got.crossed_left - (cum_l[-1] - np.interp(got.x12, grid.x, cum_l))) <= 1e-14
        assert abs(got.crossed_right - np.interp(got.x12, grid.x, cum_r)) <= 1e-14
        pre_side = grid.x <= got.x12
        assert got.pre_left == pytest.approx(rho_left[pre_side].sum() * grid.dx, abs=1e-15)
        assert got.pre_right == pytest.approx(rho_right[~pre_side].sum() * grid.dx, abs=1e-15)
