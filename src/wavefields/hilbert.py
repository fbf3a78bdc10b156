"""Ordinary tensor-product quantum states on a handful of small systems.

This module is the reference backend: it represents the joint state of
every system in one amplitude vector and applies interaction unitaries
directly to it.  The local wave-field machinery in the rest of the
package is validated against the numbers produced here.

Systems are identified by short strings.  Amplitude vectors are indexed
row-major over the systems in the order carried by ``labels``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

# Amplitudes smaller than this are treated as exact zeros when a state
# is expanded into product terms.
COEFFICIENT_THRESHOLD = 1e-12

# Constructor gate: inputs further than this from unit norm are bugs,
# anything closer is float dust and gets renormalized.
_NORM_SLACK = 1e-6


def _as_complex_vector(values) -> np.ndarray:
    out = np.asarray(values, dtype=np.complex128).reshape(-1)
    if out.size == 0:
        raise ValueError("empty amplitude vector")
    return out


def _unit(amplitudes: np.ndarray) -> np.ndarray:
    """``amplitudes`` over their norm; a norm further than the slack from 1 is refused."""
    real, imag = amplitudes.real, amplitudes.imag
    norm = math.sqrt(real.dot(real) + imag.dot(imag))  # np.linalg.norm's sum, undispatched
    if not abs(norm - 1.0) <= _NORM_SLACK:  # NaN fails too
        raise ValueError(f"state norm {norm!r} is not 1")
    return amplitudes / norm


@dataclass
class Ket:
    """Normalized amplitude vector over a tensor product of systems.

    ``dims[i]`` is the dimension of the system named ``labels[i]``; the
    amplitude vector is row-major over that ordering.  Construction
    validates shape and norm and renormalizes exactly, so the squared
    norm is 1 to machine precision after every public operation.
    """

    amplitudes: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        self.amplitudes = _as_complex_vector(self.amplitudes)
        self.dims = tuple(int(d) for d in self.dims)
        self.labels = tuple(str(s) for s in self.labels)
        if len(self.dims) != len(self.labels):
            raise ValueError("dims and labels length mismatch")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate system labels: {self.labels}")
        if any(d < 2 for d in self.dims):
            raise ValueError(f"system dimensions must be at least 2: {self.dims}")
        if self.amplitudes.size != math.prod(self.dims):
            raise ValueError(
                f"amplitude vector of length {self.amplitudes.size} does not "
                f"match dims {self.dims}"
            )
        self.amplitudes = _unit(self.amplitudes)

    def dim(self, system: str) -> int:
        return self.dims[self.labels.index(system)]

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape(self.dims)


@dataclass
class Operator:
    """Matrix acting on one or more named systems.

    The matrix is (prod(dims), prod(dims)) and row-major over ``labels``
    on both sides.  Unitarity is not forced at construction; operations
    that require it check it.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=np.complex128)
        self.dims = tuple(int(d) for d in self.dims)
        self.labels = tuple(str(s) for s in self.labels)
        if len(self.dims) != len(self.labels):
            raise ValueError("dims and labels length mismatch")
        d = math.prod(self.dims)
        if self.matrix.shape != (d, d):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match dims {self.dims}"
            )

    def is_unitary(self, tol: float = 1e-12) -> bool:
        gram = self.matrix.conj().T @ self.matrix
        gram.flat[:: len(gram) + 1] -= 1.0  # the Gram matrix minus the identity, in place
        return bool(np.abs(gram).max(initial=0.0) <= tol)

    def dagger(self) -> "Operator":
        return Operator(self.matrix.conj().T, self.dims, self.labels)


@dataclass(frozen=True)
class ProductTerm:
    """One coefficient-weighted product-basis term of a joint state."""

    coefficient: complex
    basis_labels: tuple[tuple[str, int], ...]  # sorted (system, basis index)

    def label_map(self) -> dict[str, int]:
        return dict(self.basis_labels)


def state_ket(system: str, amplitudes) -> Ket:
    amps = _as_complex_vector(amplitudes)
    return Ket(amps, (amps.size,), (system,))


def tensor(a: Ket, b: Ket) -> Ket:
    """Tensor product of two states on disjoint system sets."""
    shared = set(a.labels) & set(b.labels)
    if shared:
        raise ValueError(f"systems appear on both sides: {sorted(shared)}")
    return Ket(np.kron(a.amplitudes, b.amplitudes), a.dims + b.dims, a.labels + b.labels)


def permute_systems(state: Ket, order) -> Ket:
    """Reorder the tensor factors of a state to the given label order."""
    order = tuple(str(s) for s in order)
    if sorted(order) != sorted(state.labels):
        raise ValueError(f"order {order} does not match labels {state.labels}")
    perm = [state.labels.index(s) for s in order]
    amps = state.tensor_view().transpose(perm).reshape(-1)
    return Ket(amps, tuple(state.dims[p] for p in perm), order)


@functools.lru_cache(maxsize=1 << 10)
def _apply_plan(labels: tuple, dims: tuple, targets: tuple, op_dims: tuple):
    """The axis order that brings ``targets`` to the front, its inverse and the moved shape."""
    if len(targets) != len(op_dims):
        raise ValueError(f"operator expects {len(op_dims)} targets, got {targets}")
    missing = [t for t in targets if t not in labels]
    if missing:
        raise ValueError(f"state has no systems {missing}")
    axes = [labels.index(t) for t in targets]
    for ax, d in zip(axes, op_dims):
        if dims[ax] != d:
            raise ValueError(
                f"operator dim {d} does not match system {labels[ax]!r} dim {dims[ax]}"
            )
    rest = [i for i in range(len(dims)) if i not in axes]
    order = axes + rest
    back = [0] * len(order)
    for i, axis in enumerate(order):
        back[axis] = i
    return tuple(order), tuple(back), op_dims + tuple(dims[i] for i in rest)


def apply(op: Operator, state: Ket, targets=None) -> Ket:
    """Apply an operator to the named target systems of a state.

    ``targets`` binds the operator's subsystem slots, in order, to
    systems of the state; it defaults to the operator's own labels.
    The result keeps the state's original system ordering, and its norm
    is checked and divided out as construction does.
    """
    targets = op.labels if targets is None else tuple(map(str, targets))
    order, back, moved = _apply_plan(state.labels, state.dims, targets, op.dims)
    # ``np.tensordot``'s own transpose, reshape and dot, then its axes moved back
    d = len(op.matrix)
    mat = op.matrix.reshape(op.dims + op.dims).reshape(d, d)
    amps = state.amplitudes
    psi = amps.reshape(state.dims).transpose(order).reshape(d, amps.size // d)
    out = np.dot(mat, psi).reshape(moved).transpose(back).reshape(-1)
    ket = object.__new__(Ket)  # over the state's systems, already checked
    ket.amplitudes, ket.dims, ket.labels = _unit(out), state.dims, state.labels
    return ket


def expand_product_terms(state: Ket) -> list[ProductTerm]:
    """All product-basis terms with coefficient above the zero threshold.

    Terms are sorted by their basis indices taken in lexicographic
    system order, so the output is deterministic.
    """
    order = sorted(state.labels)
    view = permute_systems(state, order)
    terms = []
    for flat, coeff in enumerate(view.amplitudes):
        if abs(coeff) <= COEFFICIENT_THRESHOLD:
            continue
        idx = np.unravel_index(flat, view.dims)
        terms.append(
            ProductTerm(
                coefficient=complex(coeff),
                basis_labels=tuple(zip(order, (int(i) for i in idx))),
            )
        )
    return terms


def reduced_density(state: Ket, keep) -> np.ndarray:
    """Density matrix of the kept systems, tracing out everything else.

    The matrix is row-major over ``keep`` in the order given.
    """
    keep = [str(s) for s in keep]
    if not keep:
        raise ValueError("keep must name at least one system")
    missing = [s for s in keep if s not in state.labels]
    if missing:
        raise ValueError(f"state has no systems {missing}")
    rest = [s for s in state.labels if s not in keep]
    view = permute_systems(state, keep + rest)
    dk = math.prod(view.dims[: len(keep)])
    dr = math.prod(view.dims[len(keep):]) if rest else 1
    psi = view.amplitudes.reshape(dk, dr)
    return psi @ psi.conj().T
