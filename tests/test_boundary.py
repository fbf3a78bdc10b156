"""Tests for boundary location, motion, and transfer matrices."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefields import boundary, engine, hilbert, memory
from wavefields.boundary import (
    BALANCE_TOL,
    Balance,
    BoundaryLink,
    TransferMatrix,
    apply_boundary_transfer,
    find_initial_boundary,
    is_isometry,
    step_boundary_fields,
    transfer_matrices_synced,
)
from wavefields.hilbert import Ket, Operator
from wavefields.memory import IndexLabel, fresh_memory, record_interaction, synchronize
from wavefields.spatial import Grid, Propagator, cumulative_mass, current, gaussian_packet

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_amps(rng, d=2):
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return z / np.linalg.norm(z)


def wide_grid():
    return Grid(-32.0, 32.0, 1024, dt=0.01)


# ---------------------------------------------------------------------------
# Transfer matrices from a unitary and a partner state.


def transfer_matrices(
    unitary: Operator, state_left: Ket, state_right: Ket
) -> tuple[np.ndarray, np.ndarray]:
    """Boundary-condition matrices of a history-free two-system interaction.

    Rows run over the joint product basis (left index major); columns
    over the crossing system's own basis.  Each matrix is the unitary
    contracted with the other system's current state, so both are
    isometries.  The reference the synchronized transfers are held to.
    """
    if len(unitary.labels) != 2:
        raise ValueError("transfer matrices need a two-system unitary")
    dl, dr = unitary.dims
    if state_left.dims != (dl,) or state_right.dims != (dr,):
        raise ValueError("partner state dimensions do not match the unitary")
    u4 = unitary.matrix.reshape(dl, dr, dl, dr)
    t_left = np.einsum("ijkl,l->ijk", u4, state_right.amplitudes).reshape(dl * dr, dl)
    t_right = np.einsum("ijkl,k->ijl", u4, state_left.amplitudes).reshape(dl * dr, dr)
    return t_left, t_right


def every_flat(mem):
    """Every flat index of ``mem``'s product basis, in basis order."""
    return np.arange(math.prod(memory.layout(mem)[1]))


def synced(mem_pair, unitary, index_bases=None, occupied=None):
    """``transfer_matrices_synced`` with every in-branch occupied unless given."""
    occupied = occupied or tuple(every_flat(m) for m in mem_pair)
    merged = functools.reduce(synchronize, mem_pair)
    return transfer_matrices_synced(
        mem_pair, unitary, index_bases, occupied=occupied, merged=merged
    )


def test_transfer_matrices_measurement_displays():
    # spin (a1, b1) crossing a pointer prepared in index 0, coupled by a
    # controlled flip: the spin keeps its index, the pointer copies it.
    a1, b1 = 0.6, 0.8
    u = Operator(CNOT, (2, 2), ("s", "p"))
    t_spin, t_pointer = transfer_matrices(
        u, hilbert.state_ket("s", [a1, b1]), hilbert.state_ket("p", [1, 0])
    )
    expected_spin = np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=complex)
    expected_pointer = np.array(
        [[a1, 0], [0, a1], [0, b1], [b1, 0]], dtype=complex
    )
    assert np.allclose(t_spin, expected_spin, atol=1e-15)
    assert np.allclose(t_pointer, expected_pointer, atol=1e-15)


def test_transfer_matrices_identity_unitary():
    rng = np.random.default_rng(3)
    a2, b2 = random_amps(rng)
    u = Operator(np.eye(4), (2, 2), ("1", "2"))
    t_left, t_right = transfer_matrices(
        u, hilbert.state_ket("1", [1, 0]), hilbert.state_ket("2", [a2, b2])
    )
    # no interaction: each own index maps to itself, partner state rides along
    expected = np.array([[a2, 0], [b2, 0], [0, a2], [0, b2]])
    assert np.allclose(t_left, expected, atol=1e-14)
    assert np.allclose(t_right, np.array([[1, 0], [0, 1], [0, 0], [0, 0]]), atol=1e-14)


def test_transfer_matrices_are_isometries():
    rng = np.random.default_rng(11)
    for _ in range(300):
        u = Operator(random_unitary(rng, 4), (2, 2), ("1", "2"))
        t_left, t_right = transfer_matrices(
            u,
            hilbert.state_ket("1", random_amps(rng)),
            hilbert.state_ket("2", random_amps(rng)),
        )
        assert is_isometry(t_left)
        assert is_isometry(t_right)


def test_transfer_matrices_qutrit_partner():
    rng = np.random.default_rng(5)
    u = Operator(random_unitary(rng, 6), (2, 3), ("a", "b"))
    t_left, t_right = transfer_matrices(
        u,
        hilbert.state_ket("a", random_amps(rng)),
        hilbert.state_ket("b", random_amps(rng, 3)),
    )
    assert t_left.shape == (6, 2)
    assert t_right.shape == (6, 3)
    assert is_isometry(t_left) and is_isometry(t_right)


def test_transfer_columns_rebuild_joint_state():
    # contracting a transfer matrix with its own system's amplitudes must
    # give the joint post-interaction state
    rng = np.random.default_rng(17)
    for _ in range(50):
        u = Operator(random_unitary(rng, 4), (2, 2), ("1", "2"))
        s1, s2 = random_amps(rng), random_amps(rng)
        t_left, t_right = transfer_matrices(
            u, hilbert.state_ket("1", s1), hilbert.state_ket("2", s2)
        )
        joint = u.matrix @ np.kron(s1, s2)
        assert np.allclose(t_left @ s1, joint, atol=1e-12)
        assert np.allclose(t_right @ s2, joint, atol=1e-12)


def test_transfer_matrices_reject_bad_inputs():
    u = Operator(CNOT, (2, 2), ("1", "2"))
    with pytest.raises(ValueError):
        transfer_matrices(
            u, hilbert.state_ket("1", [1, 0, 0]), hilbert.state_ket("2", [1, 0])
        )
    single = Operator(np.eye(2), (2,), ("1",))
    with pytest.raises(ValueError):
        transfer_matrices(
            single, hilbert.state_ket("1", [1, 0]), hilbert.state_ket("2", [1, 0])
        )


# ---------------------------------------------------------------------------
# Synchronized transfer matrices for systems with interaction history.


def test_synced_matches_plain_for_fresh_memories():
    rng = np.random.default_rng(23)
    for _ in range(20):
        s1, s2 = random_amps(rng), random_amps(rng)
        u = Operator(random_unitary(rng, 4), (2, 2), ("1", "2"))
        plain_left, plain_right = transfer_matrices(
            u, hilbert.state_ket("1", s1), hilbert.state_ket("2", s2)
        )
        t1, t2 = synced((fresh_memory("1", s1), fresh_memory("2", s2)), u)
        assert np.allclose(t1.matrix, plain_left, atol=1e-12)
        assert np.allclose(t2.matrix, plain_right, atol=1e-12)
        assert t1.in_labels == [IndexLabel(0, ()), IndexLabel(1, ())]
        assert t1.out_labels[1] == IndexLabel(0, (("2", 1),))
        assert t2.out_labels[1] == IndexLabel(1, (("1", 0),))


def test_synced_three_system_history():
    # systems 1 and 2 share a record unknown to the newcomer 3; the
    # newcomer's transfer matrix replays that record, the veteran's only
    # embeds the newcomer's initial state
    rng = np.random.default_rng(29)
    for _ in range(20):
        s1, s2, s3 = (random_amps(rng) for _ in range(3))
        u12 = Operator(random_unitary(rng, 4), (2, 2), ("1", "2"))
        v13 = Operator(random_unitary(rng, 4), (2, 2), ("1", "3"))
        mem12 = record_interaction(
            fresh_memory("1", s1), fresh_memory("2", s2), u12, "u12"
        )
        t1, t3 = synced((mem12, fresh_memory("3", s3)), v13)
        assert t1.matrix.shape == (8, 4)
        assert t3.matrix.shape == (8, 2)

        for col in range(4):
            k1, k2 = divmod(col, 2)
            ket = hilbert.tensor(
                hilbert.state_ket("1", np.eye(2)[k1]), hilbert.state_ket("2", np.eye(2)[k2])
            )
            ket = hilbert.tensor(ket, hilbert.state_ket("3", s3))
            expected = hilbert.apply(v13, ket).amplitudes
            assert np.allclose(t1.matrix[:, col], expected, atol=1e-12)
        for col in range(2):
            ket = hilbert.tensor(hilbert.state_ket("1", s1), hilbert.state_ket("2", s2))
            ket = hilbert.tensor(ket, hilbert.state_ket("3", np.eye(2)[col]))
            expected = hilbert.apply(v13, hilbert.apply(u12, ket)).amplitudes
            assert np.allclose(t3.matrix[:, col], expected, atol=1e-12)

        assert t3.in_labels == [IndexLabel(0, ()), IndexLabel(1, ())]
        assert t3.out_labels[3] == IndexLabel(1, (("1", 0), ("2", 1)))
        assert t1.in_labels[2] == IndexLabel(1, (("2", 0),))


def test_synced_index_bases_rotate_the_matrix():
    rng = np.random.default_rng(31)
    s1, s2, s3 = (random_amps(rng) for _ in range(3))
    u12 = Operator(random_unitary(rng, 4), (2, 2), ("1", "2"))
    v13 = Operator(random_unitary(rng, 4), (2, 2), ("1", "3"))
    mem12 = record_interaction(fresh_memory("1", s1), fresh_memory("2", s2), u12, "u12")
    mem3 = fresh_memory("3", s3)
    basis = Operator(random_unitary(rng, 2), (2,), ("1",))

    t1_plain, _ = synced((mem12, mem3), v13)
    t1_rot, _ = synced((mem12, mem3), v13, index_bases={"1": basis})
    r_in = np.kron(basis.matrix, np.eye(2))
    r_out = np.kron(basis.matrix, np.eye(4))
    assert np.allclose(t1_rot.matrix, r_out.conj().T @ t1_plain.matrix @ r_in, atol=1e-12)
    assert t1_rot.in_labels == t1_plain.in_labels


def test_a_basis_on_a_system_the_meet_does_not_touch_changes_nothing():
    # B† I B is the identity, so the transfer keeps its bits and its exact zeros
    rng = np.random.default_rng(41)
    s1, s2, s3 = (random_amps(rng) for _ in range(3))
    u12 = Operator(random_unitary(rng, 4), (2, 2), ("1", "2"))
    v13 = Operator(random_unitary(rng, 4), (2, 2), ("1", "3"))
    mem12 = record_interaction(fresh_memory("1", s1), fresh_memory("2", s2), u12, "u12")
    mem3 = fresh_memory("3", s3)
    bystander = {"2": Operator(random_unitary(rng, 2), (2,), ("2",))}
    for occupied in (None, ([2], [0])):  # system 1 at own index 1 with partner 2 at 0
        plain = synced((mem12, mem3), v13, occupied=occupied)
        rotated = synced((mem12, mem3), v13, index_bases=bystander, occupied=occupied)
        # system 1 already knows 2; for system 3, 2 is newly met and its rows are relabeled
        a, b = plain[0], rotated[0]
        assert a.matrix.tobytes() == b.matrix.tobytes()
        assert (a.in_layout, a.out_layout) == (b.in_layout, b.out_layout)
        assert np.array_equal(a.ins, b.ins) and np.array_equal(a.outs, b.outs)
    assert a.matrix.shape == (4, 1)  # system 2 stays at index 0: rows over systems 1 and 3


def test_synced_single_system_op():
    rng = np.random.default_rng(37)
    s1, s2 = random_amps(rng), random_amps(rng)
    mem = record_interaction(
        fresh_memory("1", s1),
        fresh_memory("2", s2),
        Operator(random_unitary(rng, 4), (2, 2), ("1", "2")),
        "u12",
    )
    gate = Operator(random_unitary(rng, 2), (2,), ("1",))
    (t,) = synced((mem,), gate)
    assert t.matrix.shape == (4, 4)
    assert np.allclose(t.matrix, np.kron(gate.matrix, np.eye(2)), atol=1e-12)


def test_synced_rejects_mismatches():
    rng = np.random.default_rng(41)
    m1 = fresh_memory("1", random_amps(rng))
    m2 = fresh_memory("2", random_amps(rng))
    u = Operator(random_unitary(rng, 4), (2, 2), ("1", "2"))
    merged = synchronize(m1, m2)
    with pytest.raises(ValueError):
        transfer_matrices_synced((m1,), u, occupied=((),), merged=m1)
    u13 = Operator(random_unitary(rng, 4), (2, 2), ("1", "3"))
    with pytest.raises(ValueError):
        transfer_matrices_synced((m1, m2), u13, occupied=((), ()), merged=merged)


def test_synced_occupied_rejects_labels_outside_the_index_space():
    rng = np.random.default_rng(43)
    m1 = fresh_memory("1", random_amps(rng))
    m2 = fresh_memory("2", random_amps(rng))
    u = Operator(CNOT, (2, 2), ("1", "2"))
    both = every_flat(m2)
    (t1, t2) = synced((m1, m2), u, occupied=([1], both))
    assert t1.in_labels == [IndexLabel(1, ())] and t1.matrix.shape == (2, 1)
    assert t2.matrix.shape == (4, 2)  # every row is nonzero on both columns
    # own index 2 of a qubit, own index 1 beside a partner 3 at 1 that system 1 has not met
    for stray in (2, 3, -1):
        with pytest.raises(ValueError, match=rf"\[{stray}\] of '1' lie outside .* of 2 states"):
            synced((m1, m2), u, occupied=([0, stray], both))


# the product bases of a qubit "1" alone, and beside a qubit "2"
ALONE, BESIDE = (("1",), (2,)), (("1", "2"), (2, 2))


def test_transfer_matrix_validates_labels_and_isometry():
    good = np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=complex)
    TransferMatrix("1", good, np.arange(2), np.arange(4), ALONE, BESIDE)
    with pytest.raises(ValueError):
        TransferMatrix("1", good, np.arange(4), np.arange(4), BESIDE, BESIDE)
    with pytest.raises(ValueError):
        TransferMatrix("1", 0.5 * good, np.arange(2), np.arange(4), ALONE, BESIDE)


def test_isometry_check_has_no_relative_slack():
    # a column of squared norm 1 + 4e-6 is off by 4e-6, far above 1e-12
    t = np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=complex)
    assert is_isometry(t)
    t[0, 0] = np.sqrt(1.0 + 4e-6)
    assert not is_isometry(t)
    assert is_isometry(t, tol=1e-5)
    with pytest.raises(ValueError, match="not an isometry"):
        TransferMatrix("1", t, np.arange(2), np.arange(4), ALONE, BESIDE)


# ---------------------------------------------------------------------------
# Boundary location.


def test_initial_boundary_symmetric_overlap():
    grid = wide_grid()
    rho1 = np.abs(gaussian_packet(grid, -1.0, 1.0)) ** 2
    rho2 = np.abs(gaussian_packet(grid, +1.0, 1.0)) ** 2
    assert abs(find_initial_boundary(rho1, rho2, grid)) < 1e-6


def test_initial_boundary_matches_grid_scan():
    grid = wide_grid()
    rho1 = np.abs(gaussian_packet(grid, -5.0, 1.0)) ** 2
    rho2 = np.abs(gaussian_packet(grid, +5.0, 2.0)) ** 2
    x12 = find_initial_boundary(rho1, rho2, grid)

    below = np.cumsum(rho1) * grid.dx
    above = np.cumsum(rho2[::-1])[::-1] * grid.dx
    x_scan = grid.x[int(np.argmin(np.abs(below - above)))]
    assert abs(x12 - x_scan) <= grid.dx


def test_initial_boundary_identical_densities_is_median():
    grid = wide_grid()
    rho = np.abs(gaussian_packet(grid, 2.5, 1.5)) ** 2
    x12 = find_initial_boundary(rho, rho.copy(), grid)
    assert abs(x12 - 2.5) < grid.dx


def test_a_given_sum_of_the_right_density_leaves_the_balance_bit_for_bit():
    # a crossing step hands the law the norm audit's reduce of rho_right
    grid = Grid(-16.0, 16.0, 256, 0.01)
    rng = np.random.default_rng(23)
    for x0, x12 in ((-2.0, 0.0), (-9.0, 3.0), (0.0, -1.5)):
        rho_left = np.abs(gaussian_packet(grid, x0, 1.0)) ** 2 * rng.uniform(0.5, 1.0)
        rho_right = np.abs(gaussian_packet(grid, -x0 + 1.0, 1.5)) ** 2
        total = np.add.reduce(rho_right).item()
        assert step_boundary_fields(x12, rho_left, rho_right, grid, total) == step_boundary_fields(
            x12, rho_left, rho_right, grid
        )


def test_initial_boundary_balances_both_ways():
    # mass of the left system below the point equals mass of the right
    # system above it, and with unit masses also the other way around
    grid = wide_grid()
    rho1 = np.abs(gaussian_packet(grid, -3.0, 1.0)) ** 2
    rho2 = np.abs(gaussian_packet(grid, +4.0, 2.0)) ** 2
    x12 = find_initial_boundary(rho1, rho2, grid)

    def mass_below(rho, x):
        knots = np.concatenate([[0.0], np.cumsum((rho[:-1] + rho[1:]) / 2) * grid.dx])
        return float(np.interp(x, grid.x, knots))

    below1 = mass_below(rho1, x12)
    below2 = mass_below(rho2, x12)
    above1 = mass_below(rho1, grid.x[-1]) - below1
    above2 = mass_below(rho2, grid.x[-1]) - below2
    assert abs(below1 - above2) < 1e-9
    assert abs(above1 - below2) < 1e-9


# ---------------------------------------------------------------------------
# Boundary motion.


def step_boundary(x12, psi_left, psi_right, grid):
    """The boundary law on two wavefunctions."""
    return step_boundary_fields(x12, np.abs(psi_left) ** 2, np.abs(psi_right) ** 2, grid).x12


def test_boundary_stationary_for_mirror_symmetric_collision():
    grid = wide_grid()
    psi1 = gaussian_packet(grid, -4.0, 1.0, k0=+2.0)
    psi2 = gaussian_packet(grid, +4.0, 1.0, k0=-2.0)
    free = Propagator(grid)
    x12 = find_initial_boundary(np.abs(psi1) ** 2, np.abs(psi2) ** 2, grid)
    assert abs(x12) < 1e-6
    for _ in range(200):
        x12 = step_boundary(x12, psi1, psi2, grid)
        psi1 = free.step(psi1)
        psi2 = free.step(psi2)
    assert abs(x12) < 1e-8


def test_boundary_rides_with_comoving_packets():
    grid = wide_grid()
    k0 = 1.5
    psi1 = gaussian_packet(grid, -6.0, 1.0, k0=k0)
    psi2 = gaussian_packet(grid, -2.0, 1.0, k0=k0)
    free = Propagator(grid)
    x12 = find_initial_boundary(np.abs(psi1) ** 2, np.abs(psi2) ** 2, grid)
    assert abs(x12 - (-4.0)) < 1e-6
    steps = 300
    for _ in range(steps):
        x12 = step_boundary(x12, psi1, psi2, grid)
        psi1 = free.step(psi1)
        psi2 = free.step(psi2)
    drift = x12 - (-4.0)
    assert abs(drift - k0 * steps * grid.dt) < 0.01 * k0 * steps * grid.dt


def heun_step(x12, before, after, grid):
    """The local-velocity law: Heun on dx12/dt = j/rho over one step.

    One stage reads the rows at the start of the step and one those at its
    end; the summed density and full spectral current are interpolated
    linearly in x, and their ratio is the velocity.
    """

    def velocity(x, rows):
        rho = (np.abs(rows) ** 2).sum(axis=0)
        return np.interp(x, grid.x, current(rows, grid).sum(axis=0)) / np.interp(x, grid.x, rho)

    k1 = velocity(x12, before)
    return x12 + 0.5 * grid.dt * (k1 + velocity(x12 + grid.dt * k1, after))


def test_the_median_is_the_summed_fluids_world_line_to_second_order_in_dt():
    # Packets of different widths and speeds, while they overlap (t from 1.5
    # to 2.5): the local-velocity law, started on the median, stays on it
    # to second order in dt.  The grid is fine enough that the O(dx^2) gap
    # of the two interpolations stays below the O(dt^2) one.
    worst = []
    for dt in (0.04, 0.02, 0.01):
        grid = Grid(-20.0, 20.0, 8192, dt)
        free = Propagator(grid)
        rows = free.step(
            np.array([gaussian_packet(grid, -8.0, 1.0, 5.0), gaussian_packet(grid, 8.0, 1.5, -3.0)]),
            round(1.5 / dt),
        )

        def median(rows):
            return step_boundary_fields(0.0, *np.abs(rows) ** 2, grid).x12

        x12, gap = median(rows), 0.0
        for _ in range(round(1.0 / dt)):
            after = free.step(rows)
            x12, rows = heun_step(x12, rows, after, grid), after
            gap = max(gap, abs(x12 - median(rows)))
        worst.append(gap)
    assert worst[0] <= 2e-4 and worst[0] / worst[1] >= 3.0 and worst[1] / worst[2] >= 3.0


def test_boundary_holds_where_density_vanishes():
    grid = wide_grid()
    assert step_boundary_fields(5.0, np.zeros(grid.n), np.zeros(grid.n), grid).x12 == 5.0


def two_pass_law(x12, rho_left, rho_right, grid):
    """The boundary law from one trapezoid cumulative-mass pass per system.

    The reference the one-pass law is held to.  Returns its balance and
    the F at the cells it solved.
    """
    dx = grid.dx
    cum_left, cum_right = cumulative_mass(rho_left, grid), cumulative_mass(rho_right, grid)
    f = cum_left - (cum_right[-1] - cum_right)
    if f[0] <= -BALANCE_TOL or f[-1] >= BALANCE_TOL:
        edges = [grid.x[0], grid.x[-1]]
        for e, level, side in ((0, -BALANCE_TOL, "right"), (1, BALANCE_TOL, "left")):
            i = int(np.searchsorted(f, level, side=side))
            if 0 < i < grid.n:
                edges[e] = grid.x[i - 1] + dx * (level - f[i - 1]) / (f[i] - f[i - 1])
        x12 = 0.5 * (edges[0] + edges[1])
    post = int(np.searchsorted(grid.x, x12, side="right"))
    j = min(max(post - 1, 0), grid.n - 2)
    w = (x12 - grid.x[j]) / dx
    balance = Balance(
        float(x12),
        float(cum_left[-1] - (cum_left[j] + w * (cum_left[j + 1] - cum_left[j]))),
        float(cum_right[j] + w * (cum_right[j + 1] - cum_right[j])),
        float(rho_left[:post].sum() * dx),
        float(rho_right[post:].sum() * dx),
    )
    return balance, f


PAIR_KINDS = ("overlapping", "separated", "asymmetric", "one side empty", "both empty")


def density_pairs(rng, grid, count):
    """Seeded density pairs of each kind the law meets, in turn, with a held x12."""
    free = Propagator(grid)
    for case in range(count):
        kind = PAIR_KINDS[case % len(PAIR_KINDS)]
        centre, (w1, w2), (k1, k2) = rng.uniform(-16, 16), rng.uniform(0.5, 3, 2), rng.normal(0, 3, 2)
        gap = {"overlapping": 2.0, "separated": 16.0}.get(kind, 8.0) * rng.uniform(0.1, 1.0)
        rows = np.array(
            [gaussian_packet(grid, centre - gap, w1, k1), gaussian_packet(grid, centre + gap, w2, k2)]
        )
        rows = free.step(rows, int(rng.integers(0, 40)))  # with the FFT's noise in the tails
        # separated unit masses balance to roundoff over the whole gap between them
        masses = (1.0, 1.0) if kind == "separated" else rng.uniform(0.2, 1.0, 2)
        rho_left, rho_right = np.abs(rows) ** 2 * np.asarray(masses)[:, None]
        if kind == "one side empty":
            rho_left, rho_right = (rho_left, 0 * rho_right) if case % 2 else (0 * rho_left, rho_right)
        if kind == "both empty":
            rho_left, rho_right = np.zeros(grid.n), np.zeros(grid.n)
        yield kind, rng.uniform(grid.x[0], grid.x[-1]), rho_left, rho_right


def test_the_one_pass_law_is_the_two_pass_law_to_roundoff():
    # The two laws add the same masses in different orders, so their F differ by
    # roundoff, under DF.  x12 is the centre of the points where F passes
    # -BALANCE_TOL and +BALANCE_TOL, and DF moves each point by DF over F's slope
    # there.  Where a point lies in a fluid's far tail (the band between separated
    # unit masses, or the edge of a lone fluid) that slope is tiny and x12 is
    # roundoff; elsewhere the x12 agree within 1e-11.
    DF = 1e-14
    rng = np.random.default_rng(97)
    for grid in (Grid(-32.0, 32.0, 512, 0.01), Grid(-64.0, 64.0, 2048, 0.0125)):
        met = set()  # (kind, whether x12 needed the tails' slack)
        for kind, x12, rho_left, rho_right in density_pairs(rng, grid, 600):
            new = step_boundary_fields(x12, rho_left, rho_right, grid)
            old, f = two_pass_law(x12, rho_left, rho_right, grid)
            slack = 0.0
            for level, side in ((-BALANCE_TOL, "right"), (BALANCE_TOL, "left")):
                i = int(np.searchsorted(f, level, side=side))
                if 0 < i < grid.n:
                    slack += 0.5 * DF * grid.dx / (f[i] - f[i - 1])
            assert abs(new.x12 - old.x12) <= 1e-11 + slack, kind
            assert abs(new.crossed_left - old.crossed_left) <= 1e-14, kind
            assert abs(new.crossed_right - old.crossed_right) <= 1e-14, kind
            assert abs(new.pre_left - old.pre_left) <= 1e-15, kind
            assert abs(new.pre_right - old.pre_right) <= 1e-15, kind
            if kind == "both empty":
                assert new == old and new.x12 == x12
            met.add((kind, slack > 1e-11))
        assert {kind for kind, _ in met} == set(PAIR_KINDS)
        assert ("separated", True) in met and ("overlapping", False) in met


# ---------------------------------------------------------------------------
# Moving raw amplitude across a hard boundary.


def random_fields(rng, rows, cells):
    return rng.standard_normal((rows, cells)) + 1j * rng.standard_normal((rows, cells))


def test_boundary_transfer_moves_and_truncates():
    rng = np.random.default_rng(43)
    grid = wide_grid()
    u = Operator(random_unitary(rng, 4), (2, 2), ("1", "2"))
    t, _ = transfer_matrices(
        u,
        hilbert.state_ket("1", random_amps(rng)),
        hilbert.state_ket("2", random_amps(rng)),
    )
    pre = random_fields(rng, 2, grid.n)
    post = np.zeros((4, grid.n), dtype=complex)
    post_side = grid.x > 3.0
    kept = pre.copy()

    apply_boundary_transfer(pre, post, t, post_side)
    assert np.all(pre[:, post_side] == 0.0)
    assert np.allclose(pre[:, ~post_side], kept[:, ~post_side])
    assert np.allclose(post[:, post_side], t @ kept[:, post_side], atol=1e-12)
    norm_before = np.sum(np.abs(kept) ** 2)
    norm_after = np.sum(np.abs(pre) ** 2) + np.sum(np.abs(post) ** 2)
    assert abs(norm_after - norm_before) < 1e-10 * norm_before


def test_boundary_transfer_reverses_in_range_amplitude():
    # amplitude that entered through the matrix comes back out unchanged
    # when the boundary sweeps the other way
    rng = np.random.default_rng(47)
    grid = wide_grid()
    u = Operator(random_unitary(rng, 4), (2, 2), ("1", "2"))
    t, _ = transfer_matrices(
        u,
        hilbert.state_ket("1", random_amps(rng)),
        hilbert.state_ket("2", random_amps(rng)),
    )
    g = random_fields(rng, 2, grid.n)
    pre = g.copy()
    post = np.zeros((4, grid.n), dtype=complex)
    everywhere = np.ones(grid.n, dtype=bool)

    apply_boundary_transfer(pre, post, t, everywhere)
    assert np.all(pre == 0.0)
    apply_boundary_transfer(pre, post, t, ~everywhere)
    assert np.all(post == 0.0)
    assert np.allclose(pre, g, atol=1e-12)


def test_boundary_link_rejects_broken_isometry():
    ins, outs = np.arange(2), np.arange(4)
    t = TransferMatrix(
        "1", np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=complex), ins, outs, ALONE, BESIDE
    )
    BoundaryLink("1", "2", t, t, "op", [])
    with pytest.raises(ValueError):
        TransferMatrix("1", np.ones((4, 2), dtype=complex), ins, outs, ALONE, BESIDE)


@settings(max_examples=120, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 8), st.integers(1, 300)),
    spread=st.integers(0, 12),
    off=st.floats(-5e-7, 5e-7),
    layout=st.sampled_from(["contiguous", "every_other", "transposed"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_unit_rows_take_the_per_row_norm_bit_for_bit(shape, spread, off, layout, seed):
    rng = np.random.default_rng(seed)
    rows, cols = shape
    scale = 10.0 ** rng.uniform(-spread, spread, (rows, 2 * cols))
    base = scale * (rng.standard_normal((rows, 2 * cols)) + 1j * rng.standard_normal((rows, 2 * cols)))
    batch = {
        "contiguous": base[:, :cols],
        "every_other": base[:, ::2],
        "transposed": np.array(base[:, :cols].T).T,
    }[layout]
    batch /= np.array([np.linalg.norm(row) for row in batch])[:, None] / (1.0 + off)
    want = batch / np.array([np.linalg.norm(row) for row in batch])[:, None]
    assert boundary._unit_rows(batch).tobytes() == want.tobytes()


def test_every_flat_labels_as_the_product_terms_do():
    # each flat index of a (2, 3, 2) basis is the term expand_product_terms gives there
    order, dims = ("a", "b", "c"), (2, 3, 2)
    amps = random_amps(np.random.default_rng(53), math.prod(dims))
    terms = hilbert.expand_product_terms(Ket(amps, dims, order))
    assert len(terms) == math.prod(dims)  # one per basis state, in flat order
    for view in order:
        labels = memory.index_labels((order, dims), view, np.arange(len(terms)))
        for label, term in zip(labels, terms, strict=True):
            bits = term.label_map()
            assert label == IndexLabel(bits.pop(view), tuple(sorted(bits.items())))
    # a flat past either end of the basis is refused by name, not labeled
    mems = [fresh_memory(s, random_amps(np.random.default_rng(i), d))
            for i, (s, d) in enumerate(zip(order, dims))]
    mem = functools.reduce(synchronize, mems)
    gate = Operator(np.eye(2), (2,), ("a",))
    for outside in (12, -1):
        with pytest.raises(ValueError, match=r"lie outside its index space \['a', 'b', 'c'\]"):
            transfer_matrices_synced((mem,), gate, occupied=([outside],), merged=mem)


def test_a_ghz_chain_of_meets_builds_no_index_label(monkeypatch):
    # branches are flat indices: a meet, however many systems its memory
    # holds, labels nothing; the packet views label their branches when read
    built, init = [], IndexLabel.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(IndexLabel, "__init__", counted)
    grid = Grid(-32.0, 32.0, 256, dt=0.01)
    state = engine.new_state(grid)
    names = [f"s{i}" for i in range(8)]
    for i, s in enumerate(names):
        engine.add_system(state, s, [0.6, 0.8] if i == 0 else [1.0, 0.0], gaussian_packet(grid, 4.0 * i - 14.0, 1.0))
    for a, b in zip(names, names[1:]):
        engine.meet(state, a, b, Operator(CNOT, (2, 2), (a, b)), f"{a}{b}")
    assert built == []
    last = state.wavefields[names[-1]]
    assert last.flats.tolist() == [0, 255]  # all spins down, or all up
    assert [p.index.text() for p in last.packets] == [
        "0|s0=0,s1=0,s2=0,s3=0,s4=0,s5=0,s6=0", "1|s0=1,s1=1,s2=1,s3=1,s4=1,s5=1,s6=1"
    ]
    assert len(built) == 2
