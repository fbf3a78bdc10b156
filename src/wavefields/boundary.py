"""Dynamic boundaries between interacting wave-fields.

Two systems meeting head-on share a moving interface: fluid of each
system that crosses it is re-indexed from pre-interaction packets into
post-interaction packets through a transfer matrix built from the
interaction unitary and the partner's state.  The interface starts
where the systems' cumulative masses balance and moves with the common
fluid velocity, which keeps the crossed flux equal and opposite.

A transfer is one batched contraction over all its columns and calls no
``hilbert`` function, so the dense ``hilbert`` route stays the oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import memory
from .hilbert import _NORM_SLACK, Ket, Operator
from .memory import IndexLabel, InternalMemory
from .spatial import Grid, cumulative_mass, current, derivative_at

ISOMETRY_TOL = 1e-12


def find_initial_boundary(
    rho_left: np.ndarray,
    rho_right: np.ndarray,
    grid: Grid,
    mass_tol: float = 1e-10,
) -> float:
    """Position where left mass below equals right mass above.

    The difference F(x) = int_{-inf}^{x} rho_left - int_{x}^{inf}
    rho_right is nondecreasing, so bisection on its piecewise linear
    interpolant converges.  Between well-separated densities the
    balance is degenerate (|F| < mass_tol over a whole band), in which
    case the center of the band is returned; that choice is what keeps
    a symmetric collision's interface on the symmetry point instead of
    seeding it a fraction of a cell off.
    """
    rho_left = np.asarray(rho_left, float)
    rho_right = np.asarray(rho_right, float)
    cum_left = cumulative_mass(rho_left, grid)
    cum_right = cumulative_mass(rho_right, grid)
    total_right = cum_right[-1]

    def f(x: float) -> float:
        below = float(np.interp(x, grid.x, cum_left))
        above = total_right - float(np.interp(x, grid.x, cum_right))
        return below - above

    lo0, hi0 = float(grid.x[0]), float(grid.x[-1])
    if f(lo0) > mass_tol or f(hi0) < -mass_tol:
        raise ValueError("densities do not bracket an equal-mass point")

    def edge(crosses) -> float:
        lo, hi = lo0, hi0
        while hi - lo > 1e-11:
            mid = 0.5 * (lo + hi)
            if crosses(f(mid)):
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    left_edge = edge(lambda v: v > -mass_tol)
    right_edge = edge(lambda v: v >= mass_tol)
    return 0.5 * (left_edge + right_edge)


def step_boundary_fields(
    x12: float, rho: np.ndarray, rows: np.ndarray, grid: Grid, density_floor: float = 1e-8
) -> float:
    """Advance the interface by dt with the common fluid velocity.

    dx12/dt = j / rho, midpoint RK2 on linearly interpolated fields, where
    ``rho`` is the two systems' summed density and j the summed current of
    ``rows``, all their branch rows as one ``(rows, n)`` stack.
    The current is read only at the two cells each velocity interpolates
    between, with the spectral derivative there from ``derivative_at``.
    Where the density is below the floor (relative to its peak) the
    interface holds still: at that level the current carries no usable
    velocity signal, only ringing from the hard truncation of the fields
    at the interface.
    """
    floor = density_floor * max(float(rho.max()), 1e-300)
    currents: dict[int, np.ndarray] = {}  # cell i -> the current at cells i and i + 1

    def velocity(x: float) -> float:
        d = float(np.interp(x, grid.x, rho))
        if d <= floor:
            return 0.0
        i = min(max(int(np.searchsorted(grid.x, x, side="right")) - 1, 0), grid.n - 2)
        if i not in currents:  # np.interp reads x between cells i and i + 1
            dpsi = derivative_at(rows, grid, (i, i + 1))
            currents[i] = current(rows[:, i : i + 2], grid, dpsi).sum(axis=0)
        return float(np.interp(x, grid.x[i : i + 2], currents[i])) / d

    k1 = velocity(x12)
    mid = x12 + 0.5 * grid.dt * k1
    out = x12 + grid.dt * velocity(mid)
    return float(min(max(out, grid.x[0]), grid.x[-1]))


def transfer_matrices(
    unitary: Operator, state_left: Ket, state_right: Ket
) -> tuple[np.ndarray, np.ndarray]:
    """Boundary-condition matrices of a two-system interaction.

    Rows run over the joint product basis (left index major); columns
    over the crossing system's own basis.  Each matrix is the unitary
    contracted with the other system's current state, so both are
    isometries.
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


def is_isometry(t: np.ndarray, tol: float = ISOMETRY_TOL) -> bool:
    gram = np.asarray(t.conj().T @ t, dtype=np.complex128)
    gram.flat[:: len(gram) + 1] -= 1.0  # the Gram matrix minus the identity, in place
    return bool(np.abs(gram).max(initial=0.0) <= tol)


@dataclass
class TransferMatrix:
    """Isometry from one system's pre-interaction branches to post ones."""

    system: str
    matrix: np.ndarray
    in_labels: list[IndexLabel]
    out_labels: list[IndexLabel]

    def __post_init__(self):
        n_out, n_in = self.matrix.shape
        if len(self.in_labels) != n_in or len(self.out_labels) != n_out:
            raise ValueError("label lists do not match matrix shape")
        if not is_isometry(self.matrix):
            raise ValueError(f"transfer matrix for {self.system!r} is not an isometry")


@functools.lru_cache(maxsize=1 << 14)
def _label(viewpoint: str, order: tuple, dims: tuple, flat: int) -> IndexLabel:
    """The label at one flat index of the product basis; built once per label."""
    assignment = dict(zip(order, (int(i) for i in np.unravel_index(flat, dims))))
    own = assignment.pop(viewpoint)
    return IndexLabel(own, tuple(sorted(assignment.items())))


def _flat_index(label: IndexLabel, viewpoint: str, order: list[str], dims: list[int]) -> int:
    """Position of a label in the product basis; raises outside it."""
    return _flat(label, viewpoint, tuple(order), tuple(dims))


@functools.lru_cache(maxsize=1 << 14)
def _flat(label: IndexLabel, viewpoint: str, order: tuple, dims: tuple) -> int:
    bits = dict(label.partners)
    idx = [label.own if s == viewpoint else bits.get(s, -1) for s in order]
    if list(bits) != [s for s in order if s != viewpoint] or not all(
        0 <= i < d for i, d in zip(idx, dims)
    ):
        raise ValueError(
            f"branch {label.text()!r} of {viewpoint!r} lies outside its index space {list(order)}"
        )
    return int(np.ravel_multi_index(idx, dims))


def _basis_rotation(order, dims, bases) -> np.ndarray:
    mats = []
    for sys_id, d in zip(order, dims):
        b = bases.get(sys_id) if bases else None
        if b is None:
            mats.append(np.eye(d))
        else:
            if b.dims != (d,):
                raise ValueError(f"index basis for {sys_id!r} has wrong dimension")
            if not b.is_unitary(tol=1e-12):
                raise ValueError(f"index basis for {sys_id!r} is not unitary")
            mats.append(b.matrix)
    out = np.eye(1)
    for m in mats:
        out = np.kron(out, m)
    return out


def _unit_rows(batch: np.ndarray) -> np.ndarray:
    """Each row of ``batch`` over its own 1-D norm; a norm off 1 is refused, as by a Ket."""
    norms = np.sqrt(np.vecdot(batch.real, batch.real) + np.vecdot(batch.imag, batch.imag))
    off = np.abs(norms - 1.0) > _NORM_SLACK
    if off.any():
        raise ValueError(f"state norm {float(norms[off][0])!r} is not 1")
    return batch / norms[:, None]


def _contract(batch, labels, dims, unitary: Operator, targets) -> np.ndarray:
    """``unitary`` on the named systems of each row of ``batch``.

    A stacked matmul gives each row the BLAS call it would get alone; one
    gemm over all rows would round differently with the row count.
    """
    axes = [labels.index(t) for t in targets]
    if tuple(dims[i] for i in axes) != unitary.dims:
        raise ValueError(f"operator dims {unitary.dims} do not match systems {tuple(targets)}")
    perm = [0] + [1 + i for i in axes] + [1 + i for i in range(len(dims)) if i not in axes]
    u = np.ascontiguousarray(unitary.matrix)
    view = batch.reshape([len(batch)] + dims).transpose(perm)
    out = u @ view.reshape(len(batch), len(u), batch.shape[1] // len(u))
    return _unit_rows(out.reshape(view.shape).transpose(np.argsort(perm)).reshape(batch.shape))


def _synced_transfer(
    own: InternalMemory,
    merged: InternalMemory,
    unitary: Operator,
    system: str,
    index_bases=None,
    occupied=None,
    prefix: bool = False,
) -> TransferMatrix:
    pre_order = memory.systems(own)
    post_order = memory.systems(merged)
    pre_dims = [own.initial_states[s].dims[0] for s in pre_order]
    post_dims = [merged.initial_states[s].dims[0] for s in post_order]
    new_systems = [s for s in post_order if s not in pre_order]
    # records come out of merged in causal insertion order; with ``prefix``,
    # merged starts with own's records, so the ones own lacks are the rest
    missing = itertools.islice(merged.ops.values(), len(own.ops), None) if prefix else [
        op for op_id, op in merged.ops.items() if op_id not in own.ops
    ]

    n_in, n_out = math.prod(pre_dims), math.prod(post_dims)
    if occupied is None:
        cols = np.arange(n_in)
    else:
        cols = sorted({_flat_index(lb, system, pre_order, pre_dims) for lb in occupied})
    needed = cols
    if index_bases:
        r_in = _basis_rotation(pre_order, pre_dims, index_bases)
        r_out = _basis_rotation(post_order, post_dims, index_bases)
        needed = np.flatnonzero(r_in[:, cols].any(axis=1))
    # one row per needed basis column, over the product basis of ``labels``
    n = len(needed)
    batch = np.zeros((n, n_in), dtype=np.complex128)
    batch[np.arange(n), needed] = 1.0
    labels = pre_order + new_systems
    dims = pre_dims + [merged.initial_states[s].dims[0] for s in new_systems]
    for sys_id in new_systems:
        amps = merged.initial_states[sys_id].amplitudes
        batch = _unit_rows((batch[:, :, None] * amps).reshape(n, batch.shape[1] * amps.size))
    for op in missing:
        batch = _contract(batch, labels, dims, op.unitary, op.participants)
    batch = _contract(batch, labels, dims, unitary, unitary.labels)
    batch = batch.reshape([n] + dims).transpose([0] + [1 + labels.index(s) for s in post_order])
    t = np.zeros((n_out, n_in), dtype=np.complex128)
    t[:, needed] = _unit_rows(batch.reshape(n, n_out)).T

    if index_bases:
        t = r_out.conj().T @ t @ r_in
    t = t[:, cols]
    rows = np.arange(n_out) if occupied is None else np.flatnonzero(t.any(axis=1))
    return TransferMatrix(
        system,
        t[rows],
        [_label(system, tuple(pre_order), tuple(pre_dims), int(f)) for f in cols],
        [_label(system, tuple(post_order), tuple(post_dims), int(f)) for f in rows],
    )


def transfer_matrices_synced(
    mem_pair: tuple[InternalMemory, InternalMemory],
    unitary: Operator,
    acting: tuple[str, ...],
    index_bases=None,
    occupied=None,
    merged: InternalMemory | None = None,
) -> tuple[TransferMatrix, ...]:
    """Transfer matrices of an interaction between systems with history.

    ``mem_pair`` holds each acting system's memory as of the moment of
    the interaction.  The matrices fold in the synchronization step:
    branches of the partner's history unknown to a system are expanded
    first (tensoring initial states of newly met systems and applying
    the records it lacks), then the new unitary.  The in-branch space is
    the system's own pre-interaction index space, the out-branch space
    the merged one.

    ``occupied`` holds, per acting system, the in-labels its branches
    occupy.  Each matrix then keeps only those columns and drops every
    out-row that is exactly zero on them; the entries it keeps are the
    dense matrix's.  By default every in-label is a column and every
    out-label a row.

    ``merged``, if given, must be ``memory.synchronize`` of ``mem_pair`` in
    order, so that it starts with the first memory's records.
    """
    if len(acting) not in (1, 2) or len(mem_pair) != len(acting):
        raise ValueError("acting systems and memories must pair up, 1 or 2 each")
    if tuple(unitary.labels) != tuple(acting):
        raise ValueError(
            f"unitary acts on {unitary.labels}, expected {tuple(acting)}"
        )
    if merged is None:
        merged = memory.synchronize(*mem_pair) if len(mem_pair) == 2 else mem_pair[0]
    for sys_id in acting:
        if sys_id not in merged.initial_states:
            raise ValueError(f"acting system {sys_id!r} unknown to the memories")
    occupied = occupied or (None,) * len(acting)
    return tuple(
        _synced_transfer(own, merged, unitary, sys_id, index_bases, occ, prefix=k == 0)
        for k, (own, sys_id, occ) in enumerate(zip(mem_pair, acting, occupied))
    )


def apply_boundary_transfer(
    pre: np.ndarray, post: np.ndarray, transfer: np.ndarray, post_side: np.ndarray
) -> None:
    """Re-index raw packet amplitude across a hard boundary, in place.

    ``pre`` is (n_in, cells) and ``post`` (n_out, cells) of raw
    coefficient-weighted fields.  On post-side cells, pre amplitude
    moves forward through the transfer matrix; on the remaining cells,
    post amplitude moves back through its adjoint.  Both directions are
    norm-preserving as long as post amplitude stays in the matrix's
    range, which free evolution shared by all branches guarantees.

    The engine does not call this.  The map leaves pre + T†·post
    unchanged, so a crossing keeps only those joined rows and
    ``engine.branches`` cuts them at the boundary; this eager form is
    the reference that view is tested against.
    """
    if np.any(post_side):
        post[:, post_side] += transfer @ pre[:, post_side]
        pre[:, post_side] = 0.0
    pre_side = ~post_side
    if np.any(pre_side):
        pre[:, pre_side] += transfer.conj().T @ post[:, pre_side]
        post[:, pre_side] = 0.0


@dataclass
class BoundaryLink:
    """Live interface between two wave-fields mid-interaction.

    ``crossed_left`` and ``crossed_right`` track the coherent fluid
    mass of each system already past the boundary; by construction of
    the boundary velocity the two stay equal while the link runs.
    """

    left_system: str
    right_system: str
    unitary: Operator
    x12: float
    t_left: TransferMatrix
    t_right: TransferMatrix
    op_id: str
    active: bool = True
    crossed_left: float = 0.0
    crossed_right: float = 0.0
    trajectory: list[tuple[float, float, float, float]] = field(default_factory=list)

    def record(self, t: float) -> None:
        self.trajectory.append((t, self.x12, self.crossed_left, self.crossed_right))
