"""Monte Carlo fluid-particle layer.

A wave-field's fluid divides into its index branches in Born-rule
proportions.  This module samples individual fluid particles from
those proportions, pairs two ensembles the way branch labels match
them up when the systems meet, and accumulates frequentist statistics
over independent trials.  Everything is deterministic given the seed:
the trial counts are one multinomial draw keyed (seed, 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import WaveField
from .memory import ExternalMemory
from .spatial import Grid, cumulative_mass

# below this, sampling splits the fluid in exact Born proportions
STRATIFIED_LIMIT = 32


@dataclass(frozen=True)
class FluidParticle:
    """One sampled particle: a branch label at a position."""

    system: str
    label: ExternalMemory
    position: float


@dataclass
class PairingReport:
    """Pair counts keyed by (own index of a, own index of b)."""

    counts: dict[tuple[int, int], int]
    total: int

    def __post_init__(self) -> None:
        if sum(self.counts.values()) != self.total:
            raise ValueError("pair counts do not sum to the total")


def largest_remainder(weights: np.ndarray, n: int) -> np.ndarray:
    """Apportion n units proportionally to weights, remainders largest-first."""
    weights = np.asarray(weights, dtype=float)
    if weights.sum() <= 0.0:
        raise ValueError("weights must have positive sum")
    quota = weights / weights.sum() * n
    counts = np.floor(quota).astype(int)
    short = n - int(counts.sum())
    # ties broken by position so the split is deterministic
    order = sorted(range(len(quota)), key=lambda i: (-(quota[i] - counts[i]), i))
    for i in order[:short]:
        counts[i] += 1
    return counts


def _branch_rows(wf: WaveField):
    if not wf.packets:
        raise ValueError(f"system {wf.system!r} has no branches")
    return sorted(wf.packets, key=lambda p: p.index.text())


def _positions(field: np.ndarray, grid: Grid, count: int, rng) -> np.ndarray:
    cum = cumulative_mass(np.abs(field) ** 2, grid)
    if cum[-1] <= 0.0:
        raise ValueError("cannot sample positions from an empty branch")
    return np.interp(rng.random(count), cum / cum[-1], grid.x)


def sample_particles(wf: WaveField, grid: Grid, n: int, seed: int) -> list[FluidParticle]:
    """Draw n fluid particles of one system.

    Branch labels come up with probability |coefficient|^2 and positions
    follow the labeled packet's density.  Up to ``STRATIFIED_LIMIT``
    particles are stratified (exact Born proportions, the demonstration
    regime); more are i.i.d. so binomial statistics apply.
    """
    if n < 1:
        raise ValueError("need at least one particle")
    rows = _branch_rows(wf)
    weights = np.array([abs(p.coefficient) ** 2 for p in rows])
    rng = np.random.default_rng((seed, 0))
    if n <= STRATIFIED_LIMIT:
        counts = largest_remainder(weights, n)
        picks = np.repeat(np.arange(len(rows)), counts)
    else:
        picks = rng.choice(len(rows), size=n, p=weights / weights.sum())
    particles = []
    for row_i, packet in enumerate(rows):
        count = int(np.sum(picks == row_i))
        if count == 0:
            continue
        pos_rng = np.random.default_rng((seed, 1, row_i))
        xs = _positions(packet.field, grid, count, pos_rng)
        label = ExternalMemory(packet.index, packet.coefficient)
        particles.extend(FluidParticle(wf.system, label, float(x)) for x in xs)
    return particles


def _label_counts(particles: list[FluidParticle]) -> dict[int, int]:
    counts: dict[int, int] = {}
    for p in particles:
        counts[p.label.index.own] = counts.get(p.label.index.own, 0) + 1
    return counts


def pair_particles(
    a: list[FluidParticle],
    b: list[FluidParticle],
    joint: dict[tuple[int, int], float],
) -> PairingReport:
    """Pair two sampled ensembles by the synchronized joint distribution.

    Within each of a's label groups the partners are apportioned by the
    conditional joint weights (largest remainder), so a-side marginals
    hold exactly; the resulting b-side marginals must then match b's
    actual label counts or the inputs were not two views of one joint
    state.
    """
    if len(a) != len(b):
        raise ValueError("ensembles must be the same size")
    counts_a = _label_counts(a)
    counts_b = _label_counts(b)
    b_keys = sorted({k[1] for k in joint})
    pairs: dict[tuple[int, int], int] = {}
    for own_a, n_a in sorted(counts_a.items()):
        row = np.array([joint.get((own_a, kb), 0.0) for kb in b_keys])
        if row.sum() <= 0.0:
            raise ValueError(f"infeasible marginals: no joint weight for index {own_a}")
        for kb, c in zip(b_keys, largest_remainder(row, n_a)):
            if c:
                pairs[(own_a, kb)] = int(c)
    for kb in b_keys:
        got = sum(c for (ka, kb2), c in pairs.items() if kb2 == kb)
        if got != counts_b.get(kb, 0):
            raise ValueError(
                f"infeasible marginals: pairing needs {got} of index {kb}, "
                f"ensemble has {counts_b.get(kb, 0)}"
            )
    return PairingReport(pairs, len(a))


def statistics_report(scenario: str, outcomes: dict, trials: int, seed: int, jobs=1) -> dict:
    """Frequencies of independent trials next to Born expectations, with binomial z-scores.

    ``outcomes`` is the scenario's final label distribution.  The counts
    of independent trials are Multinomial(trials, p), so they come from
    one multinomial draw keyed (seed, 0) and depend on the seed alone;
    the cost does not grow with ``trials``.  ``jobs`` is ignored; it
    stays because the benchmark's ``ledger`` workload passes it.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    keys = sorted(outcomes)
    weights = np.array([outcomes[k] for k in keys], dtype=float)
    clipped = np.clip(weights, 0.0, None)  # roundoff below zero is no weight
    if np.any(weights < -1e-12) or clipped.sum() <= 0.0:
        raise ValueError("outcome weights must be nonnegative with positive sum")
    p = clipped / clipped.sum()
    counts = np.random.default_rng((seed, 0)).multinomial(trials, p)
    report = {
        "scenario": scenario,
        "trials": trials,
        "seed": seed,
        "frequencies": {},
        "expected": {},
        "z_scores": {},
    }
    for k, prob, count in zip(keys, p, counts.tolist()):
        name = ",".join(str(part) for part in k) if isinstance(k, tuple) else str(k)
        freq = count / trials
        sigma = float(np.sqrt(prob * (1.0 - prob) / trials))
        if sigma == 0.0:
            z = 0.0 if freq == prob else float("inf")
        else:
            z = (freq - prob) / sigma
        report["frequencies"][name] = freq
        report["expected"][name] = float(prob)
        report["z_scores"][name] = z
    return report
