import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefields.engine import Packet, WaveField
from wavefields.ensemble import (
    FluidParticle,
    PairingReport,
    largest_remainder,
    pair_particles,
    sample_particles,
    statistics_report,
)
from wavefields.memory import ExternalMemory, IndexLabel, fresh_memory
from wavefields.spatial import Grid, gaussian_packet


def make_grid():
    return Grid(-32.0, 32.0, 512, dt=0.01)


def make_field(amps, centers=None, grid=None):
    grid = grid or make_grid()
    centers = centers or [0.0] * len(amps)
    packets = [
        Packet(IndexLabel(i, ()), complex(a), a * gaussian_packet(grid, c, 2.0, 0.0))
        for i, (a, c) in enumerate(zip(amps, centers))
        if abs(a) > 0
    ]
    return WaveField("1", packets, fresh_memory("1", (1.0, 0.0))), grid


def particle(own, n_partner=None):
    label = IndexLabel(own, () if n_partner is None else (("2", n_partner),))
    return FluidParticle("1", ExternalMemory(label, 1.0), 0.0)


def test_largest_remainder_exact_and_tied():
    assert list(largest_remainder(np.array([0.5, 0.5]), 8)) == [4, 4]
    assert list(largest_remainder(np.array([3, 1, 1, 3]), 8)) == [3, 1, 1, 3]
    # remainders tie, earlier row wins
    assert list(largest_remainder(np.array([1, 1, 1]), 2)) == [1, 1, 0]


def test_stratified_pointer_split_is_exact():
    wf, grid = make_field([np.sqrt(0.5), np.sqrt(0.5)])
    for seed in range(5):
        parts = sample_particles(wf, grid, 8, seed)
        counts = {0: 0, 1: 0}
        for p in parts:
            counts[p.label.index.own] += 1
        assert counts == {0: 4, 1: 4}


def test_single_index_field_gives_identical_labels():
    wf, grid = make_field([1.0])
    parts = sample_particles(wf, grid, 17, 3)
    assert len(parts) == 17
    assert all(p.label.index.own == 0 for p in parts)


def test_iid_frequency_within_binomial_band():
    wf, grid = make_field([np.sqrt(0.3), np.sqrt(0.7)])
    n = 100_000
    parts = sample_particles(wf, grid, n, 11)
    freq = sum(p.label.index.own == 0 for p in parts) / n
    # 3 sigma of Bernoulli(0.3) at n=1e5 is 0.0043
    assert abs(freq - 0.3) < 0.005


def test_positions_follow_branch_density():
    grid = make_grid()
    wf, _ = make_field([np.sqrt(0.5), np.sqrt(0.5)], centers=[-6.0, 6.0], grid=grid)
    parts = sample_particles(wf, grid, 4000, 7)
    for own, center in ((0, -6.0), (1, 6.0)):
        xs = np.array([p.position for p in parts if p.label.index.own == own])
        assert abs(xs.mean() - center) < 0.2
        assert abs(xs.std() - 2.0) < 0.2


def test_sampling_is_deterministic():
    wf, grid = make_field([0.6, 0.8])
    a = sample_particles(wf, grid, 50, 21)
    b = sample_particles(wf, grid, 50, 21)
    assert [(p.label.index.own, p.position) for p in a] == [
        (p.label.index.own, p.position) for p in b
    ]


def test_sample_rejects_empty_request():
    wf, grid = make_field([1.0])
    with pytest.raises(ValueError):
        sample_particles(wf, grid, 0, 1)


def case1_students():
    a = [particle(0)] * 4 + [particle(1)] * 4
    b = [particle(1)] * 4 + [particle(0)] * 4
    return a, b


def test_pairing_case1_all_anticorrelated():
    a, b = case1_students()
    report = pair_particles(a, b, {(0, 1): 0.5, (1, 0): 0.5})
    assert report.counts == {(0, 1): 4, (1, 0): 4}
    assert report.total == 8


def test_pairing_case2_one_one_three_three():
    a, b = case1_students()
    joint = {(0, 0): 3 / 8, (0, 1): 1 / 8, (1, 0): 1 / 8, (1, 1): 3 / 8}
    report = pair_particles(a, b, joint)
    assert report.counts == {(0, 0): 3, (0, 1): 1, (1, 0): 1, (1, 1): 3}


def test_pairing_product_joint_is_product_apportionment():
    a = [particle(0)] * 8 + [particle(1)] * 4
    b = [particle(0)] * 9 + [particle(1)] * 3
    joint = {
        (i, j): (2 / 3 if i == 0 else 1 / 3) * (0.75 if j == 0 else 0.25)
        for i in (0, 1)
        for j in (0, 1)
    }
    report = pair_particles(a, b, joint)
    # every row splits 3:1 between b labels, independent of the row
    assert report.counts == {(0, 0): 6, (0, 1): 2, (1, 0): 3, (1, 1): 1}


def test_pairing_preserves_marginals_exactly():
    rng = np.random.default_rng(5)
    for _ in range(20):
        p_a = rng.dirichlet([1.0, 1.0])
        cond = rng.dirichlet([1.0, 1.0], size=2)
        joint = {(i, j): p_a[i] * cond[i][j] for i in (0, 1) for j in (0, 1)}
        n_a = largest_remainder(p_a, 16)
        # draw b counts from the same table so the marginals are feasible
        n_b = [0, 0]
        for i in (0, 1):
            row = largest_remainder(cond[i], int(n_a[i]))
            n_b[0] += int(row[0])
            n_b[1] += int(row[1])
        a = [particle(0)] * int(n_a[0]) + [particle(1)] * int(n_a[1])
        b = [particle(0)] * n_b[0] + [particle(1)] * n_b[1]
        report = pair_particles(a, b, joint)
        for i in (0, 1):
            assert sum(c for (ka, _), c in report.counts.items() if ka == i) == n_a[i]
            assert sum(c for (_, kb), c in report.counts.items() if kb == i) == n_b[i]


def test_pairing_is_order_invariant():
    a, b = case1_students()
    joint = {(0, 1): 0.5, (1, 0): 0.5}
    base = pair_particles(a, b, joint).counts
    rng = np.random.default_rng(9)
    for _ in range(5):
        pa = [a[i] for i in rng.permutation(len(a))]
        pb = [b[i] for i in rng.permutation(len(b))]
        assert pair_particles(pa, pb, joint).counts == base


def test_pairing_rejects_infeasible_marginals():
    a = [particle(0)] * 8
    b = [particle(0)] * 8
    with pytest.raises(ValueError):
        pair_particles(a, b, {(0, 1): 1.0})
    with pytest.raises(ValueError):
        pair_particles(a, b[:4], {(0, 0): 1.0})


def trial_frequencies(outcomes, trials, seed):
    """The trial frequencies of ``statistics_report``, keyed as ``outcomes`` is."""
    freqs = statistics_report("x", outcomes, trials, seed)["frequencies"]
    return dict(zip(sorted(outcomes), freqs.values()))


def test_ensemble_statistics_deterministic_and_near_born():
    probs = {(0, 0): 0.375, (0, 1): 0.125, (1, 0): 0.125, (1, 1): 0.375}
    one = trial_frequencies(probs, 100_000, 13)
    again = trial_frequencies(probs, 100_000, 13)
    assert one == again
    for k, p in probs.items():
        assert abs(one[k] - p) < 0.005


def test_ensemble_statistics_deterministic_outcome():
    stats = trial_frequencies({(1,): 1.0}, 1000, 3)
    assert stats == {(1,): 1.0}


# outcome weights with some exact zeros
weights = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=8
).filter(any)


@settings(max_examples=100, deadline=None)
@given(w=weights, trials=st.integers(1, 10**13), seed=st.integers(0, 2**63))
def test_ensemble_statistics_counts_are_whole_and_seeded(w, trials, seed):
    probs = dict(enumerate(w))
    freqs = trial_frequencies(probs, trials, seed)
    # below 2^51 a count comes back from its frequency exactly
    counts = [round(freqs[k] * trials) for k in sorted(probs)]
    assert [c / trials for c in counts] == [freqs[k] for k in sorted(probs)]
    assert sum(counts) == trials
    assert all(freqs[k] == 0.0 for k, p in probs.items() if p == 0.0)
    assert trial_frequencies(probs, trials, seed) == freqs


def test_trials_up_to_4096_keep_the_counts_of_the_first_generator():
    # the draws of one trial chunk keyed (seed, 0), as recorded before
    probs = {"a": 0.2, "b": 0.3, "c": 0.5}
    assert trial_frequencies(probs, 1000, 11) == {"a": 0.193, "b": 0.326, "c": 0.481}
    assert trial_frequencies(probs, 4096, 11) == {
        "a": 802 / 4096, "b": 1281 / 4096, "c": 2013 / 4096
    }


def test_a_trillion_trials_take_one_draw():
    start = time.perf_counter()
    freqs = trial_frequencies({(0, 0): 0.5, (1, 1): 0.5}, 10**12, 3)
    assert time.perf_counter() - start < 0.25
    assert abs(freqs[(0, 0)] - 0.5) < 1e-5


def test_expected_values_of_clipped_weights_sum_to_one():
    report = statistics_report("x", {0: 0.5, 1: 0.5, 2: -9e-13}, 1000, 1)
    assert abs(sum(report["expected"].values()) - 1.0) <= 1e-15
    assert report["expected"]["2"] == 0.0
    with pytest.raises(ValueError):
        statistics_report("x", {0: 0.5, 1: -1e-9}, 1000, 1)


def test_statistics_report_shape_and_z():
    report = statistics_report("demo", {(0, 1): 0.5, (1, 0): 0.5}, 10_000, 1)
    assert report["scenario"] == "demo"
    assert set(report["frequencies"]) == {"0,1", "1,0"}
    for name, z in report["z_scores"].items():
        assert abs(z) < 4.0
    exact = statistics_report("demo", {(0,): 1.0}, 100, 1)
    assert exact["z_scores"]["0"] == 0.0


def test_pairing_report_validates_total():
    with pytest.raises(ValueError):
        PairingReport({(0, 0): 2}, 3)
