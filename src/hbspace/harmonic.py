"""Primitives on the unit circle: the sampling grid, the coefficient holder
of a symbol component, and the log-integrability diagnostic for sampled
data that are no trigonometric polynomial.

Conventions: the circle carries normalized arclength measure and the
sampling grid is ``zeta_j = exp(2 pi i j / N)`` with N a power of two.

All objects here are immutable after construction and safe to share between
threads.
"""

from dataclasses import dataclass

import numpy as np

from .series import as_coeffs

DEFAULT_GRID = 4096

_MIN_GRID = 8


def _check_grid_size(n: int):
    if n < _MIN_GRID or n & (n - 1):
        raise ValueError(f"grid size must be a power of two >= {_MIN_GRID}, got {n}")


def grid_points(n: int) -> np.ndarray:
    """The sampling points exp(2 pi i j / n), j = 0..n-1."""
    _check_grid_size(n)
    return np.exp(2j * np.pi * np.arange(n) / n)


@dataclass
class DiskFunction:
    """An analytic function held as its Taylor coefficients; ``n_boundary``
    is a grid size, checked and kept for callers that pass one."""

    taylor: np.ndarray
    n_boundary: int = DEFAULT_GRID

    def __post_init__(self):
        self.taylor = as_coeffs(self.taylor)
        _check_grid_size(self.n_boundary)


@dataclass
class LogIntegralVerdict:
    """Outcome of the log-integrability diagnostic."""

    finite: bool
    estimates: list[float]
    estimate: float | None

    def __bool__(self):
        return self.finite


def _midpoint_values(m, n: int) -> np.ndarray:
    """Evaluate the data at theta_j = 2 pi (j + 1/2) / n.

    Callables are sampled directly; plain arrays are refined by trigonometric
    interpolation, which is exact for band-limited data.
    """
    thetas = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    if callable(m):
        return np.asarray(m(thetas), dtype=float)
    vals = np.asarray(m, dtype=float)
    base = vals.size
    c = np.fft.fft(vals) / base
    padded = np.zeros(n, dtype=complex)
    half = base // 2
    padded[:half] = c[:half]
    padded[-half:] = c[-half:]
    shifted = padded * np.exp(1j * np.fft.fftfreq(n, d=1.0 / n) * np.pi / n)
    return (np.fft.ifft(shifted) * n).real


def log_diagnostic(m, levels: int = 3, base_n: int = DEFAULT_GRID,
                   slack: float = 1.0, zero_floor: float = 1e-14) -> LogIntegralVerdict:
    """Decide whether the boundary integral of log m is finite.

    Evaluates the mean of log m on midpoint grids of size N, 2N, ... (the
    midpoint offset keeps roots-of-unity zeros off the quadrature nodes) and
    declares divergence if the estimates keep dropping by more than ``slack``
    nats per doubling, hit an exact zero of positive measure, or fall to the
    floor.  The verdict, not an exception, is the result.
    """
    estimates = []
    n = base_n
    if not callable(m):
        size = np.asarray(m).size
        while n < size:
            n *= 2
    for _ in range(levels + 1):
        vals = _midpoint_values(m, n)
        scale = max(1.0, float(np.max(vals, initial=0.0)))
        vals = np.where(vals < zero_floor * scale, 0.0, vals)
        if np.any(vals <= 0.0):
            return LogIntegralVerdict(False, estimates, None)
        estimates.append(float(np.mean(np.log(vals))))
        n *= 2
    drops = np.diff(estimates)
    if drops.size and drops[-1] < -slack:
        return LogIntegralVerdict(False, estimates, None)
    return LogIntegralVerdict(True, estimates, estimates[-1])
