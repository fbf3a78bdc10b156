"""Dynamic boundaries between interacting wave-fields.

Two systems meeting head-on share a moving interface: fluid of each
system that crosses it is re-indexed from pre-interaction packets into
post-interaction packets through a transfer matrix built from the
interaction unitary and the partner's state.  The interface sits where
the systems' cumulative masses balance: it moves with the summed fluid,
whose world-lines never cross, so the crossed fluxes stay equal and
opposite.

A transfer is one batched contraction over its occupied columns, one
stack for both participants where their axis orders agree, and calls no
``hilbert`` function, so the dense ``hilbert`` route stays the oracle.
The axes and permutations of a contraction are planned once per labels,
dims and targets; a meet reads its product bases from the memories'
cached layouts.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import memory
from .hilbert import _NORM_SLACK, Operator
from .memory import IndexLabel, InteractionOp, InternalMemory
from .spatial import Grid, cumulative_mass

ISOMETRY_TOL = 1e-12
BALANCE_TOL = 1e-10  # a mass imbalance below this is a degenerate balance


class Balance(NamedTuple):
    """The boundary where the fluids balance, and each system's mass on either side."""

    x12: float
    crossed_left: float  # left fluid past x12, by trapezoid cumulative mass
    crossed_right: float  # right fluid before x12
    pre_left: float  # left fluid on the cells at or below x12, the cut ``engine.branches`` makes
    pre_right: float  # right fluid on the cells past x12


def step_boundary_fields(
    x12: float, rho_left: np.ndarray, rho_right: np.ndarray, grid: Grid, sum_right=None
) -> Balance:
    """The boundary a step leaves: where the left mass below equals the right mass above.

    Fluid is conserved and the boundary moves with the summed fluid, whose
    world-lines never cross, so it stays where the balance F(x) =
    int_{-inf}^{x} rho_left - int_{x}^{inf} rho_right is zero: the median
    of the summed fluid when both masses are one.  F = C - R at the cells:
    C the ``cumulative_mass`` of rho_left + rho_right, R the right fluid's
    trapezoid total.  F is nondecreasing, so a ``searchsorted`` finds the
    cells where it passes -BALANCE_TOL and +BALANCE_TOL and a linear solve
    the point in each; the boundary is their centre.  That is the root
    where F rises through the band within one cell, and the centre of the
    band where the balance is degenerate (|F| < BALANCE_TOL between
    well-separated densities), which keeps a symmetric collision's
    boundary on the symmetry point.  With no fluid on either side ``x12``
    holds.  The crossed levels read C and one partial sum of rho_right, up
    to the boundary's cell.  ``sum_right`` is rho_right's ``np.add.reduce``, if taken.
    """
    dx, add_up = grid.dx, np.add.reduce  # ``ndarray.sum`` wraps this reduce in Python calls
    cum = cumulative_mass(rho_left + rho_right, grid)  # C
    r0, rn = rho_right[0].item(), rho_right[-1].item()
    total_right = add_up(rho_right).item() if sum_right is None else sum_right
    total_right = (total_right - 0.5 * (r0 + rn)) * dx
    if total_right >= BALANCE_TOL or cum[-1] - total_right >= BALANCE_TOL:
        edges = [grid.x_min, grid.x[-1].item()]  # where F first exceeds -tol, first reaches +tol
        for e, level, side in ((0, -BALANCE_TOL, "right"), (1, BALANCE_TOL, "left")):
            i = int(cum.searchsorted(total_right + level, side=side))
            if 0 < i < grid.n:
                lo, hi = cum[i - 1 : i + 1].tolist()
                edges[e] = grid.x[i - 1].item() + dx * (total_right + level - lo) / (hi - lo)
        x12 = 0.5 * (edges[0] + edges[1])
    post = int(grid.x.searchsorted(x12, side="right"))  # the first cell past x12
    j = min(max(post - 1, 0), grid.n - 2)
    w = (x12 - grid.x[j].item()) / dx
    (cj, ck), (rj, rk) = cum[j : j + 2].tolist(), rho_right[j : j + 2].tolist()
    # the right fluid's cumulative mass at x12; the left fluid past it is C's rest less R's
    right = (add_up(rho_right[: j + 1]).item() - 0.5 * (r0 + rj) + 0.5 * w * (rj + rk)) * dx
    return Balance(
        float(x12),
        (cum[-1].item() - (cj + w * (ck - cj))) - (total_right - right),
        right,
        add_up(rho_left[:post]).item() * dx,
        add_up(rho_right[post:]).item() * dx,
    )


def find_initial_boundary(rho_left: np.ndarray, rho_right: np.ndarray, grid: Grid) -> float:
    """Position where the left mass below equals the right mass above.

    The solve of ``step_boundary_fields``; with no fluid it is the grid's centre.
    """
    centre = 0.5 * (grid.x[0] + grid.x[-1])
    return step_boundary_fields(centre, rho_left, rho_right, grid).x12


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


@functools.lru_cache(maxsize=1 << 12)
def _labels(viewpoint: str, order: tuple, dims: tuple, flats: tuple) -> tuple[IndexLabel, ...]:
    """The labels at several flat indices, as one tuple per index set."""
    return tuple(_label(viewpoint, order, dims, f) for f in flats)


@functools.lru_cache(maxsize=1 << 14)
def _flat(label: IndexLabel, viewpoint: str, order: tuple, dims: tuple) -> int:
    """Position of a label in the product basis; raises outside it."""
    bits = dict(label.partners)
    idx = [label.own if s == viewpoint else bits.get(s, -1) for s in order]
    if list(bits) != [s for s in order if s != viewpoint] or not all(
        0 <= i < d for i, d in zip(idx, dims)
    ):
        raise ValueError(
            f"branch {label.text()!r} of {viewpoint!r} lies outside its index space {list(order)}"
        )
    return int(np.ravel_multi_index(idx, dims))


def _unit_rows(batch: np.ndarray) -> np.ndarray:
    """Each row of ``batch`` over its own 1-D norm; a norm off 1 is refused, as by a Ket."""
    norms = np.sqrt(np.vecdot(batch.real, batch.real) + np.vecdot(batch.imag, batch.imag))
    for norm in norms.tolist():  # a few rows: a Python loop beats the array calls
        if abs(norm - 1.0) > _NORM_SLACK:  # false for NaN, which passes as in a Ket
            raise ValueError(f"state norm {norm!r} is not 1")
    return batch / norms[:, None]


@functools.lru_cache(maxsize=1 << 10)
def _plan(labels: tuple, dims: tuple, targets: tuple):
    """The dims of ``targets``, the row axes that bring them to the front, and the inverse."""
    axes = [labels.index(t) for t in targets]
    perm = (0, *(1 + i for i in axes), *(1 + i for i in range(len(dims)) if i not in axes))
    back = [0] * len(perm)
    for i, p in enumerate(perm):
        back[p] = i
    return tuple(dims[i] for i in axes), perm, tuple(back)


@functools.lru_cache(maxsize=1 << 10)
def _reorder(labels: tuple, order: tuple):
    """The row axes that take a product basis over ``labels`` to one over ``order``."""
    return (0, *(1 + labels.index(s) for s in order))


def _contract(batch, labels: tuple, dims: tuple, unitary: Operator, targets: tuple) -> np.ndarray:
    """``unitary`` on the named systems of each row of ``batch``.

    A stacked matmul gives each row the BLAS call it would get alone; one
    gemm over all rows would round differently with the row count.
    """
    sub, perm, back = _plan(labels, dims, targets)
    if sub != unitary.dims:
        raise ValueError(f"operator dims {unitary.dims} do not match systems {targets}")
    u = np.ascontiguousarray(unitary.matrix)
    n = len(batch)
    view = batch.reshape((n, *dims)).transpose(perm)
    out = u @ view.reshape(n, len(u), batch.shape[1] // len(u))
    return _unit_rows(out.reshape(view.shape).transpose(back).reshape(batch.shape))


class _Columns(NamedTuple):
    """A system's in-columns brought up to the merged memory, short of the new unitary."""

    rows: np.ndarray  # one per in-column, over the product basis of ``labels``
    labels: tuple[str, ...]
    dims: tuple[int, ...]
    bases: dict  # index bases to undo after the unitary
    in_labels: list[IndexLabel]


def _in_columns(
    own: InternalMemory, merged: InternalMemory, unitary: Operator, system: str, bases, occupied
) -> _Columns:
    """Each occupied in-column of ``system`` as a row, through what ``merged`` adds to ``own``.

    A row starts as a unit vector of own's product basis, is turned into
    the index bases, tensored with the initial states of newly met
    systems and taken through the records own lacks.  Occupied labels
    already in column order are the in-labels as they are.
    """
    order, shape = memory.layout(own)
    labels, dims = memory.layout(merged)
    new_systems = ()
    if len(labels) > len(order):  # rows run over own's systems, then the ones merged adds
        new_systems = tuple(s for s in labels if s not in own.initial_states)
        dims = shape + tuple(merged.initial_states[s].dims[0] for s in new_systems)
        labels = order + new_systems
    missing = () if merged is own else _missing_records(own, merged)
    if bases:  # on a known system that nothing below acts on, a basis cancels with its adjoint
        acted = {s for op in missing for s in op.participants} | {*unitary.labels, *new_systems}
        bases = {s: b for s, b in bases.items() if s in acted}

    flats = [_flat(lb, system, order, shape) for lb in occupied]
    cols = sorted(set(flats))
    in_labels = list(occupied if cols == flats else _labels(system, order, shape, tuple(cols)))
    n = len(cols)
    batch = np.zeros((n, math.prod(shape)), dtype=np.complex128)
    for row, col in enumerate(cols):
        batch[row, col] = 1.0
    if bases:
        for sys_id in order:
            if sys_id in bases:
                batch = _contract(batch, order, shape, bases[sys_id], (sys_id,))
    for sys_id in new_systems:
        amps = merged.initial_states[sys_id].amplitudes
        batch = _unit_rows((batch[:, :, None] * amps).reshape(n, batch.shape[1] * amps.size))
    for op in missing:
        batch = _contract(batch, labels, dims, op.unitary, op.participants)
    return _Columns(batch, labels, dims, bases or {}, in_labels)


def _missing_records(own: InternalMemory, merged: InternalMemory) -> list[InteractionOp]:
    """The records of ``merged`` that ``own`` lacks, in causal insertion order.

    A ``merged`` that extends ``own`` starts with own's records, so the
    ones own lacks are its last ones, read from the end; otherwise every
    record is looked up.
    """
    if memory.extends(merged, own):
        extra = len(merged.ops) - len(own.ops)
        return list(itertools.islice(reversed(merged.ops.values()), extra))[::-1]
    return [op for op_id, op in merged.ops.items() if op_id not in own.ops]


def transfer_matrices_synced(
    mem_pair: tuple[InternalMemory, InternalMemory],
    unitary: Operator,
    index_bases=None,
    *,
    occupied,
    merged: InternalMemory,
) -> tuple[TransferMatrix, ...]:
    """Transfer matrices of an interaction between systems with history.

    ``mem_pair`` holds each acting system's memory, in the order of
    ``unitary.labels``, as of the moment of the interaction.  The matrices
    fold in the synchronization step: branches of the partner's history
    unknown to a system are expanded first (tensoring initial states of
    newly met systems and applying the records it lacks), then the new
    unitary.  The in-branch space is the system's own pre-interaction
    index space, the out-branch space the merged one.  ``index_bases``
    relabels chosen systems: each basis is applied to its own system
    before the history and its adjoint after it (neither, where nothing
    acts on the system), so no matrix over the whole product basis is
    built.  Without bases the entries are bit for bit those of taking
    each column through ``hilbert.apply`` and permuting its amplitudes,
    normalized once per operation.

    ``occupied`` holds, per acting system, the in-labels its branches
    occupy.  Each matrix keeps only those columns and drops every out-row
    that is exactly zero on them.  ``merged`` must be
    ``memory.synchronize`` of ``mem_pair`` (the one memory for a local op).
    """
    acting = unitary.labels
    if len(acting) not in (1, 2) or len(mem_pair) != len(acting):
        raise ValueError("acting systems and memories must pair up, 1 or 2 each")
    for sys_id in acting:
        if sys_id not in merged.initial_states:
            raise ValueError(f"acting system {sys_id!r} unknown to the memories")
    post = memory.layout(merged)
    known = merged.initial_states
    bases = {s: b for s, b in index_bases.items() if s in known} if index_bases else {}
    for sys_id, basis in bases.items():  # once per call: the participants share them
        memory.check_index_basis(sys_id, basis, known[sys_id].dims[0])
    columns = [
        _in_columns(own, merged, unitary, sys_id, bases, occ)
        for own, sys_id, occ in zip(mem_pair, acting, occupied, strict=True)
    ]
    # systems whose rows share an axis order and the bases to undo take the
    # unitary as one stack: each row rounds as it would alone
    stacks: dict = {}
    for k, col in enumerate(columns):
        stacks.setdefault((col.labels, *col.bases), []).append(k)
    transfers = [None] * len(columns)
    for ks in stacks.values():
        rows = [columns[k].rows for k in ks]
        labels, dims, bases = columns[ks[0]][1:4]
        batch = rows[0] if len(rows) == 1 else np.concatenate(rows)
        batch = _contract(batch, labels, dims, unitary, acting)
        if labels != post[0]:  # to the merged order; a reorder keeps each row's norm
            batch = batch.reshape((len(batch), *dims)).transpose(_reorder(labels, post[0]))
            batch = batch.reshape(len(batch), math.prod(post[1]))
        if bases:
            for sys_id in post[0]:
                if sys_id in bases:
                    batch = _contract(batch, *post, bases[sys_id].dagger(), (sys_id,))
            batch = _unit_rows(batch)
        start = 0
        for k in ks:
            rows = batch[start : start + len(columns[k].rows)]
            start += len(rows)
            transfers[k] = _transfer(acting[k], rows, columns[k].in_labels, post)
    return tuple(transfers)


def _transfer(system, batch, in_labels, post) -> TransferMatrix:
    """The transfer with ``batch``'s rows as columns and the out-rows nonzero on them."""
    keep = tuple(batch.any(axis=0).nonzero()[0].tolist())
    if len(keep) < batch.shape[1]:
        batch = batch[:, keep]
    return TransferMatrix(
        system, np.ascontiguousarray(batch.T), in_labels, list(_labels(system, *post, keep))
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

    ``trajectory`` holds each step's time and ``Balance``, from the
    opening one: the boundary sits where the coherent fluid masses the two
    systems have crossed are equal while the link runs.
    """

    left_system: str
    right_system: str
    t_left: TransferMatrix
    t_right: TransferMatrix
    op_id: str
    trajectory: list[tuple[float, Balance]]
    active: bool = True

    @property
    def balance(self) -> Balance:
        return self.trajectory[-1][1]
