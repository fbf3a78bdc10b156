"""One-dimensional Schrodinger propagation and the fluid picture of it.

Wavefunctions live on a periodic, power-of-two grid and are stored as
plain complex ndarrays.  A step is the exact free propagator where the
potential is zero, else the kinetic-potential-kinetic split step.  Both
run on the spectrum S of the rows, end with rows = IFFT(S), keep the norm
to FFT roundoff and act along the last axis, so a stack of rows steps as
one array with the bits of each row stepped alone.  A step can hand back
its last spectrum, and the next one can start from it instead of
transforming the rows again.  Of the fluid quantities, the boundary law
at interaction boundaries reads the density alone; the current and the
streamlines integrated from it trace the fluid's world-lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Densities below this fraction of the global maximum count as nodes;
# velocities there are not meaningful and are clamped or masked.
NODE_THRESHOLD = 1e-12


@dataclass
class Grid:
    """Uniform periodic spatial grid and the time step used on it."""

    x_min: float
    x_max: float
    n: int
    dt: float
    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")
        if self.n < 64 or (self.n & (self.n - 1)) != 0:
            raise ValueError(f"n must be a power of two >= 64, got {self.n}")
        if self.dt <= 0 or self.mass <= 0 or self.hbar <= 0:
            raise ValueError("dt, mass and hbar must be positive")
        self.dx = (self.x_max - self.x_min) / self.n
        self.x = self.x_min + self.dx * np.arange(self.n)
        self.k = 2.0 * math.pi * np.fft.fftfreq(self.n, d=self.dx)


class Propagator:
    """Cached step factors for one grid and potential; exact free flight where it is zero."""

    def __init__(self, grid: Grid, potential=None):
        self.grid = grid
        v = np.zeros(grid.n) if potential is None else np.asarray(potential, float)
        if v.shape != (grid.n,):
            raise ValueError(f"potential shape {v.shape} does not match grid")
        half = -1j * grid.hbar * grid.k**2 * grid.dt / (4.0 * grid.mass)
        self.free = not v.any()
        # the whole kinetic factor in free flight, half of it on each side of V otherwise
        self._kinetic = np.exp(2.0 * half) if self.free else np.exp(half)
        self._potential_phase = np.exp(-1j * v * grid.dt / grid.hbar)

    def step(self, psi: np.ndarray, steps: int = 1, spectrum=None, keep: bool = False):
        """Advance one row or a ``(rows, n)`` stack by ``steps`` steps.

        The steps run on the spectrum S: ``spectrum`` when given, which
        must be the S whose IFFT gave ``psi``, else FFT(psi).  A free step
        multiplies S by the kinetic factor; a split step takes S through
        IFFT, the potential phase and FFT between two half kinetic factors.
        The result is IFFT of the last S, returned as ``(psi, S)`` with
        ``keep`` so the next step can start from S.
        """
        s = np.fft.fft(np.asarray(psi, dtype=np.complex128)) if spectrum is None else spectrum
        for _ in range(steps):
            if not self.free:
                s = np.fft.fft(np.fft.ifft(self._kinetic * s) * self._potential_phase)
            s = self._kinetic * s
        out = np.fft.ifft(s)
        return (out, s) if keep else out


def norm_squared(psi: np.ndarray, grid: Grid) -> float:
    return float(np.sum(np.abs(psi) ** 2) * grid.dx)


def cumulative_mass(rho: np.ndarray, grid: Grid) -> np.ndarray:
    """Trapezoid cumulative mass of a density at each grid point, starting at 0."""
    inner = 0.5 * (rho[:-1] + rho[1:]) * grid.dx
    return np.concatenate([[0.0], np.cumsum(inner)])


def gaussian_packet(grid: Grid, x0: float, sigma: float, k0: float = 0.0) -> np.ndarray:
    """Unit-norm Gaussian with center x0, width sigma and momentum kick k0."""
    psi = (2.0 * math.pi * sigma**2) ** -0.25 * np.exp(
        -((grid.x - x0) ** 2) / (4.0 * sigma**2) + 1j * k0 * grid.x
    )
    return psi / math.sqrt(norm_squared(psi, grid))


def current(psi: np.ndarray, grid: Grid) -> np.ndarray:
    """Current (hbar/m) Im(psi* dpsi/dx) of each row, with the spectral derivative."""
    dpsi = np.fft.ifft(1j * grid.k * np.fft.fft(psi))
    return grid.hbar / grid.mass * np.imag(np.conj(psi) * dpsi)


def _sample(times, fields, t, x, grid):
    """Linear interpolation of a (time, grid) field table at (t, x)."""
    i = int(np.searchsorted(times, t, side="right")) - 1
    i = max(0, min(i, len(times) - 2))
    w = (t - times[i]) / (times[i + 1] - times[i])
    w = min(max(w, 0.0), 1.0)
    row = (1.0 - w) * fields[i] + w * fields[i + 1]
    return np.interp(x, grid.x, row)


def streamlines_from_fields(
    times: np.ndarray,
    densities: np.ndarray,
    currents: np.ndarray,
    seeds,
    grid: Grid,
) -> np.ndarray:
    """Positions ``(len(times), len(seeds))`` from dx/dt = j/rho through tabulated fields.

    Classic RK4 with one step per stored interval; fields are linearly
    interpolated in both x and t.  At density nodes the velocity is
    clamped to zero rather than allowed to blow up.
    """
    times = np.asarray(times, float)
    if len(times) < 2:
        raise ValueError("need at least two sample times")
    densities = np.asarray(densities, float)
    currents = np.asarray(currents, float)
    cutoff = NODE_THRESHOLD * float(densities.max())

    def velocity(t, x):
        rho = _sample(times, densities, t, x, grid)
        j = _sample(times, currents, t, x, grid)
        return np.where(rho > cutoff, j / np.maximum(rho, cutoff), 0.0)

    pos = np.asarray(seeds, float).copy()
    track = np.empty((len(times), pos.size))
    track[0] = pos
    for i in range(len(times) - 1):
        t, h = times[i], times[i + 1] - times[i]
        k1 = velocity(t, pos)
        k2 = velocity(t + h / 2.0, pos + h / 2.0 * k1)
        k3 = velocity(t + h / 2.0, pos + h / 2.0 * k2)
        k4 = velocity(t + h, pos + h * k3)
        pos = pos + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        track[i + 1] = pos
    return track


def streamlines(
    times: np.ndarray, fields: np.ndarray, seeds, grid: Grid
) -> np.ndarray:
    """``streamlines_from_fields`` of one wavefunction's stored evolution."""
    fields = np.asarray(fields, dtype=np.complex128)
    densities = np.abs(fields) ** 2
    currents = current(fields, grid)
    return streamlines_from_fields(times, densities, currents, seeds, grid)
