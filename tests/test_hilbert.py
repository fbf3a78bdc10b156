"""Tests for the tensor-product reference backend."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefields.boundary import is_isometry
from wavefields.hilbert import (
    Ket,
    Operator,
    apply,
    expand_product_terms,
    permute_systems,
    reduced_density,
    state_ket,
    tensor,
)

RT2 = 1.0 / math.sqrt(2.0)


def basis_ket(system, index, dim=2):
    return state_ket(system, np.eye(dim)[index])


def born_probabilities(state, system, basis=None):
    """Outcome probabilities of measuring one system; ``basis`` columns are the outcomes."""
    if system not in state.labels:
        raise ValueError(f"state has no system {system!r}")
    d = state.dim(system)
    if basis is not None:
        if basis.dims != (d,):
            raise ValueError(f"basis dims {basis.dims} do not match system dim {d}")
        if not basis.is_unitary(tol=1e-12):
            raise ValueError("measurement basis is not unitary")
        state = apply(basis.dagger(), state, [system])
    axis = state.labels.index(system)
    probs = np.abs(state.tensor_view()) ** 2
    probs = probs.sum(axis=tuple(i for i in range(len(state.dims)) if i != axis))
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def random_ket(rng, dims, labels):
    amps = rng.standard_normal(math.prod(dims)) + 1j * rng.standard_normal(
        math.prod(dims)
    )
    return Ket(amps / np.linalg.norm(amps), dims, labels)


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def singlet():
    return Ket([0.0, RT2, -RT2, 0.0], (2, 2), ("1", "2"))


def brute_force_reduced(state, keep):
    """Independent partial trace: explicit sums over basis indices."""
    order = list(state.labels)
    dims = dict(zip(order, state.dims))
    psi = state.amplitudes.reshape(state.dims)
    rest = [s for s in order if s not in keep]
    dk = math.prod(dims[s] for s in keep)
    rho = np.zeros((dk, dk), dtype=complex)
    keep_ranges = [range(dims[s]) for s in keep]
    rest_ranges = [range(dims[s]) for s in rest]

    def amp(keep_idx, rest_idx):
        full = [0] * len(order)
        for s, i in zip(keep, keep_idx):
            full[order.index(s)] = i
        for s, i in zip(rest, rest_idx):
            full[order.index(s)] = i
        return psi[tuple(full)]

    import itertools

    for a_idx in itertools.product(*keep_ranges):
        for b_idx in itertools.product(*keep_ranges):
            total = 0.0 + 0.0j
            for r_idx in itertools.product(*rest_ranges) if rest else [()]:
                total += amp(a_idx, r_idx) * np.conj(amp(b_idx, r_idx))
            ia = int(np.ravel_multi_index(a_idx, [dims[s] for s in keep])) if len(keep) > 1 else a_idx[0]
            ib = int(np.ravel_multi_index(b_idx, [dims[s] for s in keep])) if len(keep) > 1 else b_idx[0]
            rho[ia, ib] = total
    return rho


def test_ket_validates_norm_and_shapes():
    with pytest.raises(ValueError):
        Ket([1.0, 1.0], (2,), ("1",))
    with pytest.raises(ValueError, match="state norm nan is not 1"):
        Ket([np.nan, 1.0], (2,), ("1",))
    with pytest.raises(ValueError):
        Ket([1.0, 0.0, 0.0], (2,), ("1",))
    with pytest.raises(ValueError):
        Ket([1.0, 0.0, 0.0, 0.0], (2, 2), ("1", "1"))
    with pytest.raises(ValueError):
        Ket([1.0], (1,), ("1",))


def test_tensor_concatenates_labels_and_amplitudes():
    a = state_ket("1", [0.6, 0.8])
    b = state_ket("2", [1.0, 0.0])
    ab = tensor(a, b)
    assert ab.labels == ("1", "2")
    assert np.allclose(ab.amplitudes, [0.6, 0.0, 0.8, 0.0])


def test_tensor_rejects_shared_systems():
    a = basis_ket("1", 0)
    with pytest.raises(ValueError):
        tensor(a, basis_ket("1", 1))


def test_tensor_qubit_with_qutrit():
    a = state_ket("a", [1.0, 0.0])
    b = state_ket("b", [0.0, 0.0, 1.0])
    ab = tensor(a, b)
    assert ab.dims == (2, 3)
    assert ab.amplitudes[2] == 1.0


def test_apply_cnot_entangles():
    # control-target flip on |+>|0> gives the standard entangled pair
    a1, b1 = 0.6, 0.8
    state = tensor(state_ket("1", [a1, b1]), basis_ket("2", 0))
    op = Operator(CNOT, (2, 2), ("1", "2"))
    out = apply(op, state)
    expect = np.zeros(4, dtype=complex)
    expect[0] = a1  # |00>
    expect[3] = b1  # |11>
    assert np.allclose(out.amplitudes, expect, atol=1e-14)


def test_apply_respects_target_binding():
    rng = np.random.default_rng(7)
    state = random_ket(rng, (2, 2, 2), ("1", "2", "3"))
    u = random_unitary(rng, 4)
    op = Operator(u, (2, 2), ("x", "y"))
    out_a = apply(op, state, ["3", "1"])
    # same action built by hand on the permuted state
    perm = permute_systems(state, ("3", "1", "2"))
    big = np.kron(u, np.eye(2))
    ref = Ket(big @ perm.amplitudes, (2, 2, 2), ("3", "1", "2"))
    ref = permute_systems(ref, ("1", "2", "3"))
    assert np.allclose(out_a.amplitudes, ref.amplitudes, atol=1e-12)


def test_apply_norm_preserved_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        state = random_ket(rng, (2, 2, 2), ("1", "2", "3"))
        op = Operator(random_unitary(rng, 4), (2, 2), ("1", "3"))
        out = apply(op, state)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


def test_apply_disjoint_targets_commute():
    rng = np.random.default_rng(13)
    for _ in range(50):
        state = random_ket(rng, (2, 2, 2, 2), ("1", "2", "3", "4"))
        u = Operator(random_unitary(rng, 2), (2,), ("1",))
        v = Operator(random_unitary(rng, 4), (2, 2), ("3", "4"))
        uv = apply(v, apply(u, state))
        vu = apply(u, apply(v, state))
        assert np.allclose(uv.amplitudes, vu.amplitudes, atol=1e-12)


def test_apply_dimension_mismatch_raises():
    state = tensor(basis_ket("1", 0), state_ket("3", [0, 0, 1]))
    op = Operator(CNOT, (2, 2), ("1", "3"))
    with pytest.raises(ValueError):
        apply(op, state)
    with pytest.raises(ValueError):
        apply(op, state, ["1", "9"])


def test_expand_singlet_terms():
    terms = expand_product_terms(singlet())
    assert len(terms) == 2
    by_label = {t.basis_labels: t.coefficient for t in terms}
    assert by_label[(("1", 0), ("2", 1))] == pytest.approx(RT2, abs=1e-15)
    assert by_label[(("1", 1), ("2", 0))] == pytest.approx(-RT2, abs=1e-15)


def test_expand_prunes_null_coefficients():
    a1, b1 = 0.6, 0.8
    state = apply(
        Operator(CNOT, (2, 2), ("1", "2")),
        tensor(state_ket("1", [a1, b1]), basis_ket("2", 0)),
    )
    terms = expand_product_terms(state)
    assert len(terms) == 2
    labels = {t.basis_labels for t in terms}
    assert labels == {(("1", 0), ("2", 0)), (("1", 1), ("2", 1))}


def terms_to_ket(terms, dims):
    """Rebuild a state from product terms; inverse of expand_product_terms."""
    order = sorted(dims)
    amps = np.zeros(tuple(dims[s] for s in order), dtype=np.complex128)
    for t in terms:
        labels = t.label_map()
        assert sorted(labels) == order
        amps[tuple(labels[s] for s in order)] += t.coefficient
    return Ket(amps.reshape(-1), amps.shape, tuple(order))


def test_expand_is_inverse_of_rebuild():
    rng = np.random.default_rng(17)
    for _ in range(20):
        state = random_ket(rng, (2, 2, 2), ("b", "a", "c"))
        terms = expand_product_terms(state)
        rebuilt = terms_to_ket(terms, {"a": 2, "b": 2, "c": 2})
        ref = permute_systems(state, ("a", "b", "c"))
        assert np.allclose(rebuilt.amplitudes, ref.amplitudes, atol=1e-12)


def test_expand_term_order_deterministic():
    state = Ket(np.full(4, 0.5), (2, 2), ("2", "1"))
    keys = [t.basis_labels for t in expand_product_terms(state)]
    assert keys == sorted(keys)


def test_reduced_density_singlet_is_maximally_mixed():
    rho = reduced_density(singlet(), ["1"])
    assert np.allclose(rho, np.eye(2) / 2.0, atol=1e-12)


def test_reduced_density_matches_brute_force():
    rng = np.random.default_rng(23)
    for _ in range(25):
        state = random_ket(rng, (2, 2, 2), ("1", "2", "3"))
        for keep in (["1"], ["2"], ["3"], ["1", "3"], ["3", "1"], ["2", "3"]):
            got = reduced_density(state, keep)
            ref = brute_force_reduced(state, keep)
            assert np.allclose(got, ref, atol=1e-10)


def test_reduced_density_properties():
    rng = np.random.default_rng(29)
    state = random_ket(rng, (2, 2, 2), ("1", "2", "3"))
    rho = reduced_density(state, ["1", "2"])
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    assert np.linalg.eigvalsh(rho).min() > -1e-12


def test_reduced_density_product_state_is_pure():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = random_ket(rng, (2,), ("1",))
        b = random_ket(rng, (2, 2), ("2", "3"))
        rho = reduced_density(tensor(a, b), ["1"])
        purity = float(np.real(np.trace(rho @ rho)))
        assert abs(purity - 1.0) < 1e-10


def test_born_computational_basis():
    state = tensor(state_ket("1", [0.6, 0.8]), basis_ket("2", 0))
    probs = born_probabilities(state, "1")
    assert np.allclose(probs, [0.36, 0.64], atol=1e-12)


def test_born_tilted_basis_on_singlet():
    # Bob's reduced state is I/2, so any orthonormal basis gives 1/2, 1/2
    phi = 0.5 * np.array([[1.0, math.sqrt(3.0)], [math.sqrt(3.0), -1.0]])
    basis = Operator(phi, (2,), ("2",))
    probs = born_probabilities(singlet(), "2", basis)
    assert np.allclose(probs, [0.5, 0.5], atol=1e-12)


def test_born_rejects_non_unitary_basis():
    bad = Operator(np.array([[1.0, 1.0], [0.0, 1.0]]), (2,), ("1",))
    with pytest.raises(ValueError):
        born_probabilities(singlet(), "1", bad)


def test_is_unitary_has_no_relative_slack():
    # numpy's default rtol=1e-5 would pass an error of 4e-6 at tol 1e-12
    stretched = Operator(np.diag([math.sqrt(1.0 + 4e-6), 1.0]), (2,), ("1",))
    assert not stretched.is_unitary(1e-12)
    assert stretched.is_unitary(1e-5)
    assert Operator(CNOT, (2, 2), ("1", "2")).is_unitary(1e-12)


def _identity_difference_check(m, tol):
    """The unitarity check written with np.eye and a full difference matrix."""
    gram = m.conj().T @ m
    return bool(np.abs(gram - np.eye(m.shape[1])).max(initial=0.0) <= tol)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 6),
    extra=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
    eps=st.sampled_from([0.0, 1e-14, 1e-11, 1e-8, 1e-5]),
)
def test_unitarity_checks_match_the_identity_difference(n, extra, seed, eps):
    # Random unitaries and isometries, perturbed by eps, checked at their own
    # worst deviation and just inside and just outside it, and at fixed tols.
    rng = np.random.default_rng(seed)

    def noise(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    square = np.linalg.qr(noise((n, n)))[0] + eps * noise((n, n))
    tall = np.linalg.qr(noise((n + extra, n)))[0] + eps * noise((n + extra, n))
    checks = ((square, Operator(square, (n,), ("1",)).is_unitary), (tall, lambda tol: is_isometry(tall, tol)))
    for m, check in checks:
        worst = float(np.abs(m.conj().T @ m - np.eye(n)).max())
        for tol in (worst * (1 - 1e-9), worst, worst * (1 + 1e-9), 1e-12, 1e-6):
            assert check(tol) == _identity_difference_check(m, tol)


def test_born_matches_reduced_density_diagonal():
    rng = np.random.default_rng(37)
    for _ in range(20):
        state = random_ket(rng, (2, 2, 2), ("1", "2", "3"))
        u = random_unitary(rng, 2)
        basis = Operator(u, (2,), ("2",))
        probs = born_probabilities(state, "2", basis)
        rho = reduced_density(state, ["2"])
        ref = np.real(np.diag(u.conj().T @ rho @ u))
        assert np.allclose(probs, ref, atol=1e-10)
