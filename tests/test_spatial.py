"""Tests for the split-step solver and the fluid quantities built on it."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavefields.spatial import (
    NODE_THRESHOLD,
    Grid,
    Propagator,
    current,
    gaussian_packet,
    norm_squared,
    streamlines,
    streamlines_from_fields,
)


def free_gaussian_width(t, sigma0, mass=1.0, hbar=1.0):
    """Analytic spreading law for a free Gaussian packet."""
    return sigma0 * math.sqrt(1.0 + (hbar * t / (2.0 * mass * sigma0**2)) ** 2)


@dataclass
class MadelungFields:
    """Polar decomposition of a wavefunction into fluid variables."""

    density: np.ndarray
    principal: np.ndarray  # action S with psi = R exp(i S / hbar), unwrapped
    velocity: np.ndarray  # dS/dx / m; nan at density nodes


def madelung(psi, grid):
    """Fluid form of a wavefunction.

    The action is the phase unwrapped outward from the global density
    maximum (hbar = 1); the velocity is j / rho, nan below the node
    threshold.
    """
    density = np.abs(psi) ** 2
    anchor = int(np.argmax(density))
    theta = np.angle(psi)
    unwrapped = np.empty_like(theta)
    unwrapped[anchor:] = np.unwrap(theta[anchor:])
    unwrapped[: anchor + 1] = np.unwrap(theta[anchor::-1])[::-1]
    velocity = np.full(grid.n, np.nan)
    ok = density > NODE_THRESHOLD * float(density.max())
    velocity[ok] = current(psi, grid)[ok] / density[ok]
    return MadelungFields(density, unwrapped, velocity)


def analytic_transmission(k, v0, width, mass=1.0, hbar=1.0):
    """Plane-wave transmission through a rectangular barrier."""
    k = np.asarray(k, dtype=complex)
    e = (hbar * k) ** 2 / (2.0 * mass)
    kappa = np.sqrt(2.0 * mass * (v0 - e) + 0j) / hbar
    s = np.sinh(kappa * width)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = 1.0 / (1.0 + (v0**2 * s**2) / (4.0 * e * (v0 - e)))
    return np.real(t)


def measured_width(psi, grid):
    rho = np.abs(psi) ** 2 * grid.dx
    mean = float(np.sum(grid.x * rho))
    return math.sqrt(float(np.sum((grid.x - mean) ** 2 * rho)))


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(0.0, -1.0, 256, 1e-3)
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 300, 1e-3)  # not a power of two
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 32, 1e-3)  # too small
    with pytest.raises(ValueError):
        Grid(-1.0, 1.0, 256, 0.0)


def test_step_preserves_norm_per_step():
    grid = Grid(-30.0, 30.0, 512, 2e-3)
    psi = gaussian_packet(grid, -3.0, 1.0, 2.0)
    v = 0.3 * grid.x**2
    out = Propagator(grid, v).step(psi)
    assert abs(norm_squared(out, grid) - 1.0) < 1e-12


def test_norm_drift_over_many_steps():
    grid = Grid(-30.0, 30.0, 256, 1e-3)
    psi = gaussian_packet(grid, -2.0, 1.0, 1.0)
    out = Propagator(grid, 0.1 * grid.x**2).step(psi, 10000)
    assert abs(norm_squared(out, grid) - 1.0) < 1e-8


def test_free_gaussian_width_matches_analytic():
    grid = Grid(-30.0, 30.0, 512, 2e-3)
    psi = Propagator(grid).step(gaussian_packet(grid, 0.0, 1.0, 0.0), 1000)
    t = 1000 * grid.dt
    expect = free_gaussian_width(t, 1.0)
    assert abs(measured_width(psi, grid) - expect) / expect < 1e-3


def test_plane_wave_is_stationary_density():
    grid = Grid(-16.0, 16.0, 256, 1e-3)
    k0 = 2.0 * math.pi * 5 / (grid.x_max - grid.x_min)  # exact grid mode
    psi = np.exp(1j * k0 * grid.x) / math.sqrt(grid.x_max - grid.x_min)
    out = Propagator(grid).step(psi, 200)
    assert np.allclose(np.abs(out) ** 2, np.abs(psi) ** 2, atol=1e-12)


def test_barrier_transmission_matches_plane_wave_average():
    grid = Grid(-64.0, 64.0, 4096, 0.01)
    v0, width = 2.0, 1.0
    psi0 = gaussian_packet(grid, -15.0, 3.0, 1.8)
    barrier = np.where((grid.x >= 0.0) & (grid.x < width), v0, 0.0)
    psi = Propagator(grid, barrier).step(psi0, 1600)
    measured = float(np.sum(np.abs(psi[grid.x > width]) ** 2) * grid.dx)
    weights = np.abs(np.fft.fft(psi0)) ** 2
    weights /= weights.sum()
    tk = analytic_transmission(grid.k, v0, width)
    tk = np.where(np.abs(grid.k) < 1e-12, 0.0, tk)
    expected = float(np.sum(weights * tk))
    assert abs(measured - expected) / expected < 0.01


def test_current_plane_wave():
    grid = Grid(-16.0, 16.0, 256, 1e-3)
    k0 = 2.0 * math.pi * 7 / (grid.x_max - grid.x_min)
    psi = np.exp(1j * k0 * grid.x) / math.sqrt(grid.x_max - grid.x_min)
    j = current(psi, grid)
    assert np.allclose(j, k0 * np.abs(psi) ** 2, atol=1e-12)


def test_current_integrates_to_group_velocity():
    grid = Grid(-30.0, 30.0, 512, 1e-3)
    k0 = 1.7
    psi = gaussian_packet(grid, -4.0, 1.2, k0)
    total = float(np.sum(current(psi, grid)) * grid.dx)
    assert abs(total - k0) < 1e-8  # hbar k0 / m with hbar = m = 1


def test_madelung_identity_density_velocity_current():
    grid = Grid(-30.0, 30.0, 512, 1e-3)
    psi = gaussian_packet(grid, -2.0, 1.5, 2.3)
    fields = madelung(psi, grid)
    j = current(psi, grid)
    ok = fields.density > 1e-9 * fields.density.max()
    res = fields.density[ok] * fields.velocity[ok] - j[ok]
    assert np.max(np.abs(res)) < 1e-8


def test_madelung_action_of_kicked_gaussian():
    # with psi = R exp(i k0 x) the unwrapped action is hbar k0 x + const
    grid = Grid(-30.0, 30.0, 512, 1e-3)
    k0 = 1.3
    psi = gaussian_packet(grid, 0.0, 2.0, k0)
    fields = madelung(psi, grid)
    s = fields.principal
    ds = np.gradient(s, grid.dx)
    mid = np.abs(grid.x) < 10.0
    assert np.allclose(ds[mid], k0, atol=1e-6)


def test_madelung_masks_node_velocities():
    grid = Grid(-30.0, 30.0, 512, 1e-3)
    psi = gaussian_packet(grid, 0.0, 1.0, 0.0)
    fields = madelung(psi, grid)
    assert np.isnan(fields.velocity[0])  # far tail is below threshold
    assert not np.isnan(fields.velocity[grid.n // 2])


def test_continuity_equation_second_order():
    def residual(dt):
        grid = Grid(-30.0, 30.0, 512, dt)
        prop = Propagator(grid)
        a = prop.step(gaussian_packet(grid, -3.0, 1.0, 2.0), 1)
        b = prop.step(a, 1)
        c = prop.step(b, 1)
        drho = (np.abs(c) ** 2 - np.abs(a) ** 2) / (2.0 * dt)
        dj = np.real(np.fft.ifft(1j * grid.k * np.fft.fft(current(b, grid))))
        return float(np.max(np.abs(drho + dj)))

    coarse = residual(2e-3)
    fine = residual(1e-3)
    assert coarse < 1e-5
    assert fine < 0.30 * coarse  # second order: expect about 0.25


def run_free_history(grid, psi0, chunks, per_chunk):
    prop = Propagator(grid)
    times = [0.0]
    fields = [psi0]
    psi = psi0
    for i in range(chunks):
        psi = prop.step(psi, per_chunk)
        times.append((i + 1) * per_chunk * grid.dt)
        fields.append(psi)
    return np.array(times), np.array(fields)


def test_streamlines_scale_with_gaussian_width():
    grid = Grid(-30.0, 30.0, 512, 2e-3)
    times, fields = run_free_history(grid, gaussian_packet(grid, 0.0, 1.0, 0.0), 100, 10)
    seeds = np.array([-1.0, -0.5, 0.5, 1.0])
    track = streamlines(times, fields, seeds, grid)
    assert track.shape == (len(times), len(seeds))
    scale = free_gaussian_width(times[-1], 1.0) / 1.0
    for seed, end in zip(seeds, track[-1]):
        want = seed * scale
        assert abs(end - want) / abs(want) < 0.01


def test_streamlines_do_not_cross():
    grid = Grid(-30.0, 30.0, 512, 2e-3)
    times, fields = run_free_history(grid, gaussian_packet(grid, -4.0, 1.0, 1.5), 80, 10)
    rng = np.random.default_rng(3)
    seeds = np.sort(-4.0 + 1.8 * rng.standard_normal(50))
    track = streamlines(times, fields, seeds, grid)
    assert np.all(np.diff(track, axis=1) > 0.0)


def test_streamlines_clamp_at_nodes():
    grid = Grid(-30.0, 30.0, 512, 2e-3)
    psi = gaussian_packet(grid, 0.0, 1.0, 0.0)
    times = np.array([0.0, 1.0])
    rho = np.stack([np.abs(psi) ** 2] * 2)
    j = np.zeros_like(rho)
    track = streamlines_from_fields(times, rho, j, [25.0], grid)
    # seeded in dead fluid: the trajectory just stays put
    assert np.allclose(track[:, 0], 25.0)


def test_streamlines_need_two_samples():
    grid = Grid(-30.0, 30.0, 512, 2e-3)
    with pytest.raises(ValueError):
        streamlines(np.array([0.0]), np.zeros((1, grid.n)), [0.0], grid)


# ---------------------------------------------------------------------------
# Stacked rows: a (rows, n) array steps row for row like its rows alone.


def _rows(grid, r, seed):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-8.0, 8.0, r)
    kicks = rng.uniform(-2.0, 2.0, r)
    amps = rng.standard_normal(r) + 1j * rng.standard_normal(r)
    return np.array(
        [a * gaussian_packet(grid, c, 1.5, k) for a, c, k in zip(amps, centers, kicks)]
    )


@pytest.mark.parametrize("n", [512, 2048])
@pytest.mark.parametrize("r", [1, 2, 4])
@pytest.mark.parametrize("with_potential", [False, True])
@pytest.mark.parametrize("steps", [1, 3])
def test_stacked_step_equals_row_steps_bit_for_bit(n, r, with_potential, steps):
    grid = Grid(-40.0, 40.0, n, 5e-3)
    prop = Propagator(grid, 0.02 * grid.x**2 if with_potential else None)
    rows = _rows(grid, r, seed=n + r)
    stacked = prop.step(rows, steps)
    assert stacked.shape == rows.shape
    for row, got in zip(rows, stacked):
        assert np.array_equal(got, prop.step(row, steps))


@pytest.mark.parametrize("r", [1, 2, 4])
@pytest.mark.parametrize("steps", [1, 3])
def test_step_derivative_comes_from_the_same_spectrum(r, steps):
    # the kept spectrum S is the rows' own: IFFT(S) has the rows' bits, and
    # the derivative IFFT(ik S) is their spectral derivative at every cell
    grid = Grid(-40.0, 40.0, 512, 5e-3)
    prop = Propagator(grid, 0.02 * grid.x**2)
    rows = _rows(grid, r, seed=r)
    psi, spectrum = prop.step(rows, steps, keep=True)
    assert np.array_equal(psi, prop.step(rows, steps))
    assert np.array_equal(psi, np.fft.ifft(spectrum))
    dpsi = np.fft.ifft(1j * grid.k * spectrum)
    spectral = np.fft.ifft(1j * grid.k * np.fft.fft(psi))
    assert np.abs(dpsi - spectral).max() <= 1e-12 * np.abs(spectral).max()


def test_current_of_a_stack_equals_row_currents():
    grid = Grid(-40.0, 40.0, 512, 5e-3)
    rows = _rows(grid, 4, seed=11)
    assert np.array_equal(current(rows, grid), np.stack([current(f, grid) for f in rows]))


# ---------------------------------------------------------------------------
# Free flight: with no potential a step is the exact free propagator.


def _kinetic_potential_kinetic(grid, potential, psi, steps):
    """The split step written out on the spectrum: half kinetic, potential, half kinetic."""
    half = np.exp(-1j * grid.k**2 * grid.dt / 4.0)
    phase = np.exp(-1j * np.asarray(potential, float) * grid.dt)
    spectrum = np.fft.fft(psi)
    for _ in range(steps):
        spectrum = half * np.fft.fft(np.fft.ifft(half * spectrum) * phase)
    return np.fft.ifft(spectrum)


@pytest.mark.parametrize("steps", [1, 7])
def test_free_step_agrees_with_the_zero_potential_split_step(steps):
    grid = Grid(-40.0, 40.0, 1024, 5e-3)
    rows = _rows(grid, 4, seed=23)
    free = Propagator(grid).step(rows, steps)
    split = _kinetic_potential_kinetic(grid, np.zeros(grid.n), rows, steps)
    assert np.abs(free - split).max() <= 1e-13


def analytic_free_gaussian(grid, t, x0, sigma, k0, hbar=1.0, mass=1.0):
    """Exact free evolution of gaussian_packet(grid, x0, sigma, k0) on the line."""
    s_t = sigma**2 + 1j * hbar * t / (2.0 * mass)
    v = hbar * k0 / mass
    psi = (2.0 * math.pi * sigma**2) ** -0.25 * np.sqrt(sigma**2 / s_t) * np.exp(
        -((grid.x - x0 - v * t) ** 2) / (4.0 * s_t) + 1j * k0 * grid.x - 0.5j * k0 * v * t
    )
    return psi


@pytest.mark.parametrize("steps, dt", [(1, 2.0), (400, 5e-3)])
def test_free_step_is_the_exact_free_propagator(steps, dt):
    # No splitting error: one step of 2.0 is as exact as 400 of 0.005.
    grid = Grid(-40.0, 40.0, 1024, dt)
    psi0 = gaussian_packet(grid, -5.0, 1.0, 2.0)
    got = Propagator(grid).step(psi0, steps)
    want = analytic_free_gaussian(grid, steps * dt, -5.0, 1.0, 2.0)
    assert np.abs(got - want).max() <= 1e-12
    assert abs(measured_width(got, grid) - free_gaussian_width(steps * dt, 1.0)) <= 1e-12


@pytest.mark.parametrize("keep", [False, True])
def test_none_and_zero_potential_step_alike(keep):
    grid = Grid(-40.0, 40.0, 512, 5e-3)
    rows = _rows(grid, 3, seed=5)
    a = Propagator(grid).step(rows, 3, keep=keep)
    b = Propagator(grid, np.zeros(grid.n)).step(rows, 3, keep=keep)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("steps", [1, 5])
def test_potential_step_equals_the_written_out_split_step(steps):
    grid = Grid(-40.0, 40.0, 512, 5e-3)
    v = 0.02 * grid.x**2
    rows = _rows(grid, 3, seed=8)
    prop = Propagator(grid, v)
    assert not prop.free
    assert np.array_equal(prop.step(rows, steps), _kinetic_potential_kinetic(grid, v, rows, steps))


@pytest.mark.parametrize("potential", [None, "harmonic"])
@pytest.mark.parametrize("steps", [1, 4])
def test_continuing_from_the_kept_spectrum_is_stepping_straight_through(potential, steps):
    # k steps from the spectrum a step kept are the bits of 1 + k steps in one call
    grid = Grid(-40.0, 40.0, 512, 5e-3)
    prop = Propagator(grid, None if potential is None else 0.02 * grid.x**2)
    rows = _rows(grid, 3, seed=13)
    psi, spectrum = prop.step(rows, keep=True)
    assert np.array_equal(prop.step(psi, steps, spectrum=spectrum), prop.step(rows, 1 + steps))
