"""Acceptance gate: every primary criterion, one pass/fail line each."""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import wavefields

from wavefields.boundary import BALANCE_TOL, find_initial_boundary, transfer_matrices_synced
from wavefields.engine import (
    add_system,
    index_distribution,
    meet,
    new_state,
    validate_against_memory,
)
from wavefields.hilbert import Operator
from wavefields.memory import IndexLabel, fresh_memory, record_interaction, synchronize
from wavefields.scenarios import ScenarioConfig, run_scenario
from wavefields.serialize import dumps
from wavefields.spatial import Grid, Propagator, cumulative_mass, gaussian_packet, norm_squared

ALL_SCENARIOS = [
    "two_spin_crossing",
    "three_spin_chain",
    "von_neumann",
    "bell_case1",
    "bell_case2",
    "student_demo",
    "beam_splitter_einstein",
    "stern_gerlach",
    "weak_entanglement",
    "tunneling",
]

CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def _line(num: int, ok: bool, text: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, f"criterion {num:02d}: {text}"


def _random_amps(rng, d=2):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _random_unitary(rng, d):
    m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _fresh_transfers(unitary, left, right):
    """Both transfers of a meet of two fresh systems (name, amplitudes), every in-label occupied."""
    mems = tuple(fresh_memory(name, amps) for name, amps in (left, right))
    occupied = tuple([IndexLabel(k, ()) for k in range(len(amps))] for _, amps in (left, right))
    return transfer_matrices_synced(
        mems, unitary, occupied=occupied, merged=synchronize(*mems)
    )


def _joint(t):
    """A transfer between qubits "1" and "2" over their whole joint basis, "1" major."""
    out = np.zeros((4, t.matrix.shape[1]), dtype=complex)  # rows the transfer drops are zero
    for label, row in zip(t.out_labels, t.matrix):
        index = {t.system: label.own, **dict(label.partners)}
        out[2 * index["1"] + index["2"]] = row
    return out


@pytest.fixture(scope="module")
def battery():
    t0 = time.perf_counter()
    results = {name: run_scenario(ScenarioConfig(scenario=name)) for name in ALL_SCENARIOS}
    return results, time.perf_counter() - t0


def test_criterion_01_every_scenario_matches_the_reference_route(battery):
    results, elapsed = battery
    ok = all(res.passed for res in results.values()) and elapsed < 60.0
    audits = all(
        any(c["name"] == "branches match memory-derived expansion" and c["passed"] for c in res.summary["checks"])
        for res in results.values()
        if res.name != "student_demo"  # audited inside its two sub-runs
    )
    _line(
        1,
        ok and audits,
        f"all {len(results)} scenarios pass their reference-route audits in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_02_matched_pair_readout(battery):
    results, _ = battery
    table = results["bell_case1"].summary["correlation_tables"]["A,B"]
    exact = (
        abs(table.get("0,1", 0.0) - 0.5) <= 1e-10
        and abs(table.get("1,0", 0.0) - 0.5) <= 1e-10
        and set(table) == {"0,1", "1,0"}
    )
    stats = run_scenario(
        ScenarioConfig(scenario="bell_case1", trials=100000)
    ).summary["statistics"]
    zmax = max(abs(z) for z in stats["z_scores"].values())
    _line(
        2,
        exact and zmax <= 3.0,
        f"matched readout table exact to 1e-10, 100000-trial frequencies within 3 sigma (max |z| {zmax:.2f})",
    )


def test_criterion_03_tilted_pair_readout(battery):
    results, _ = battery
    table = results["bell_case2"].summary["correlation_tables"]["A,B"]
    expected = {"0,0": 3 / 8, "0,1": 1 / 8, "1,0": 1 / 8, "1,1": 3 / 8}
    exact = set(table) == set(expected) and all(
        abs(table[k] - expected[k]) <= 1e-10 for k in expected
    )
    stats = run_scenario(
        ScenarioConfig(scenario="bell_case2", trials=100000)
    ).summary["statistics"]
    gap = max(abs(stats["frequencies"][k] - stats["expected"][k]) for k in stats["expected"])
    _line(
        3,
        exact and gap <= 0.005,
        f"tilted readout table exact to 1e-10, frequencies within 0.005 at 100000 trials (max gap {gap:.4f})",
    )


def test_criterion_04_student_demo_tables(battery):
    results, _ = battery
    s = results["student_demo"].summary
    ok = (
        s["matched_counts"] == {"0,1": 4.0, "1,0": 4.0}
        and s["tilted_counts"] == {"0,0": 3.0, "0,1": 1.0, "1,0": 1.0, "1,1": 3.0}
        and s["tilted_styled"]
        == {"up,up": 1.0, "down,down": 1.0, "up,down": 3.0, "down,up": 3.0}
    )
    _line(4, ok, "eight sampled pairs give 4+4 disagreements matched, 1-1-3-3 tilted")


def test_criterion_05_pointer_readout(battery):
    results, _ = battery
    rng = np.random.default_rng(51)
    worst_dist = 0.0
    worst_display = 0.0
    for _ in range(20):
        a, b = _random_amps(rng)
        cnot = Operator(CNOT, (2, 2), ("1", "2"))
        t_left, t_right = (
            _joint(t) for t in _fresh_transfers(cnot, ("1", (a, b)), ("2", (1.0, 0.0)))
        )
        frozen_left = np.array([[1, 0], [0, 0], [0, 0], [0, 1]], dtype=complex)
        frozen_right = np.array([[a, 0], [0, a], [0, b], [b, 0]], dtype=complex)
        worst_display = max(
            worst_display,
            float(np.abs(t_left - frozen_left).max()),
            float(np.abs(t_right - frozen_right).max()),
        )

        grid = Grid(-16.0, 16.0, 128, 0.01)
        state = new_state(grid)
        add_system(state, "1", (a, b), gaussian_packet(grid, -4.0, 1.0))
        add_system(state, "2", (1.0, 0.0), gaussian_packet(grid, 4.0, 1.0))
        meet(state, "1", "2", cnot, "readout")
        dist = index_distribution(state, "2")
        expected = {0: abs(a) ** 2, 1: abs(b) ** 2}
        worst_dist = max(
            worst_dist,
            max(abs(dist.get(k, 0.0) - expected[k]) for k in expected),
        )
        validate_against_memory(state, "1")
        validate_against_memory(state, "2")
    crossing_ok = results["von_neumann"].passed
    _line(
        5,
        worst_dist <= 1e-10 and worst_display <= 1e-12 and crossing_ok,
        f"pointer weights within 1e-10 over 20 random spins (worst {worst_dist:.1e}), "
        f"frozen boundary matrices within 1e-12, crossing run passes",
    )


def test_criterion_06_transfer_isometries():
    rng = np.random.default_rng(61)
    worst = 0.0
    count = 0
    for i in range(1000):
        dl, dr = (2, 2) if i % 4 else ((2, 3) if i % 8 else (3, 2))
        u = Operator(_random_unitary(rng, dl * dr), (dl, dr), ("1", "2"))
        s1, s2 = _random_amps(rng, dl), _random_amps(rng, dr)
        for t in _fresh_transfers(u, ("1", s1), ("2", s2)):
            t = t.matrix
            gap = float(np.abs(t.conj().T @ t - np.eye(t.shape[1])).max())
            worst = max(worst, gap)
        count += 1
        if i % 5 == 0:
            # a veteran carrying one shared record meets a newcomer
            sa, sb, sc = (_random_amps(rng) for _ in range(3))
            u12 = Operator(_random_unitary(rng, 4), (2, 2), ("1", "2"))
            v13 = Operator(_random_unitary(rng, 4), (2, 2), ("1", "3"))
            mem12 = record_interaction(fresh_memory("1", sa), fresh_memory("2", sb), u12, "u12")
            mem3 = fresh_memory("3", sc)
            t1, t3 = transfer_matrices_synced(
                (mem12, mem3),
                v13,
                occupied=(
                    [IndexLabel(i, (("2", j),)) for i in (0, 1) for j in (0, 1)],
                    [IndexLabel(0, ()), IndexLabel(1, ())],
                ),
                merged=synchronize(mem12, mem3),
            )
            assert t1.matrix.shape == (8, 4) and t3.matrix.shape == (8, 2)
            for t in (t1.matrix, t3.matrix):
                gap = float(np.abs(t.conj().T @ t - np.eye(t.shape[1])).max())
                worst = max(worst, gap)
    _line(6, worst <= 1e-12, f"{count} random transfer pairs are isometries (worst gap {worst:.1e})")


def test_criterion_07_boundary_behavior(battery):
    results, _ = battery
    b = results["two_spin_crossing"].summary["boundaries"][0]
    grid = Grid(-64.0, 64.0, 2048, 0.0125)
    rho_l = np.abs(gaussian_packet(grid, -8.0, 1.0, 5.0)) ** 2
    rho_r = np.abs(gaussian_packet(grid, 8.0, 1.0, -5.0)) ** 2
    root = find_initial_boundary(rho_l, rho_r, grid)
    # the solve's own balance F = C - R: the summed fluid's trapezoid cumulative mass
    # less the right fluid's trapezoid total.  Between separated packets every cell
    # balances to roundoff, so the scan is the band of cells where |F| < BALANCE_TOL.
    f = cumulative_mass(rho_l + rho_r, grid) - cumulative_mass(rho_r, grid)[-1]
    band = grid.x[np.abs(f) < BALANCE_TOL]
    ok = (
        b["completed"]
        and b["max_crossed_gap"] <= 1e-6
        and b["max_abs_x12"] <= grid.dx
        and band.size > 0
        and band[0] - grid.dx <= root <= band[-1] + grid.dx
    )
    _line(
        7,
        ok,
        f"crossed levels agree to {b['max_crossed_gap']:.1e} (<= 1e-6), boundary stays within one "
        f"cell ({b['max_abs_x12']:.1e}), initial root within one cell of the scanned balance band",
    )


def _plane_transmission(k, v0, width):
    e = 0.5 * k * k
    if e <= 0.0:
        return 0.0
    if abs(e - v0) < 1e-12:
        return 1.0 / (1.0 + 0.5 * v0 * width * width)
    if e < v0:
        kappa = math.sqrt(2.0 * (v0 - e))
        s = math.sinh(kappa * width)
        return 1.0 / (1.0 + v0 * v0 * s * s / (4.0 * e * (v0 - e)))
    k2 = math.sqrt(2.0 * (e - v0))
    s = math.sin(k2 * width)
    return 1.0 / (1.0 + v0 * v0 * s * s / (4.0 * e * (e - v0)))


def test_criterion_08_spatial_solver_quality(battery):
    results, _ = battery
    # free packet width after 1000 steps against the closed form
    grid = Grid(-32.0, 32.0, 1024, 0.001)
    psi = gaussian_packet(grid, 0.0, 1.0)
    psi = Propagator(grid).step(psi, steps=1000)
    rho = np.abs(psi) ** 2
    rho /= rho.sum() * grid.dx
    mean = float(np.sum(grid.x * rho) * grid.dx)
    var = float(np.sum((grid.x - mean) ** 2 * rho) * grid.dx)
    t = 1000 * grid.dt
    sigma_exact = math.sqrt(1.0 + (t / 2.0) ** 2)
    width_err = abs(math.sqrt(var) - sigma_exact) / sigma_exact

    # norm drift over 10000 steps
    grid2 = Grid(-32.0, 32.0, 1024, 0.01)
    psi2 = gaussian_packet(grid2, -5.0, 1.5, 1.0)
    psi2 = Propagator(grid2).step(psi2, steps=10000)
    drift = abs(norm_squared(psi2, grid2) - 1.0)

    # transmitted fraction against an independently coded analytic average
    tun = results["tunneling"].summary
    grid3 = Grid(-64.0, 64.0, 2048, 0.01)
    psi0 = gaussian_packet(grid3, -15.0, 2.0, 2.0)
    spectrum = np.abs(np.fft.fft(psi0)) ** 2
    rates = np.array([_plane_transmission(k, 2.0, 1.0) for k in grid3.k])
    analytic = float(np.sum(spectrum * rates) / np.sum(spectrum))
    tun_rel = abs(tun["transmitted"] - analytic) / analytic

    lines_ok = any(
        c["name"] == "fluid trajectories never cross" and c["passed"]
        for c in tun["checks"]
    )
    ok = width_err <= 1e-3 and drift <= 1e-8 and tun_rel <= 0.01 and lines_ok
    _line(
        8,
        ok,
        f"width error {width_err:.2e} (<= 1e-3/1000 steps), norm drift {drift:.1e} "
        f"(<= 1e-8/10000 steps), transmission off by {tun_rel:.2e} (<= 1e-2), "
        f"50 fluid trajectories stay ordered",
    )


def test_criterion_09_bystander_locality(battery):
    results, _ = battery
    checks = results["three_spin_chain"].summary["checks"]
    ok = any(
        c["name"] == "bystander untouched by the far coupling" and c["passed"] for c in checks
    )
    _line(9, ok, "far coupling leaves the bystander's packets and record bit-identical")


def test_criterion_10_deterministic_outputs():
    cfg = ScenarioConfig(scenario="bell_case2", trials=20000)
    first = dumps(run_scenario(cfg).summary).encode()
    second = dumps(run_scenario(cfg).summary).encode()
    # a fresh interpreter with other string hashes: no output may hang on set or dict order
    probe = (
        "import sys; from wavefields import ScenarioConfig, dumps, run_scenario; "
        "cfg = ScenarioConfig(scenario='bell_case2', trials=20000); "
        "sys.stdout.buffer.write(dumps(run_scenario(cfg).summary).encode())"
    )
    src = str(Path(wavefields.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "12345"}
    rerun = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, check=True, timeout=120, env=env
    ).stdout
    ok = first == second == rerun
    _line(10, ok, "summary JSON byte-identical across reruns and under another PYTHONHASHSEED")
