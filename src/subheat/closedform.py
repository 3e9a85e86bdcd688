"""Closed-form and Fourier-oracle kernels for the potential-free operator.

These provide the continuum references used for calibration: the free
Gaussian heat kernel, the classical Poisson kernel (fractional index 1/2),
the cosine-transform oracle for general fractional index in one dimension,
and the harmonic-oscillator kernel for V = |x|^2 in one dimension.
"""

import numpy as np
from scipy.special import gamma

from .grid import Grid, gauss_legendre_panels, point_distances
from .spectral import KernelSlice


def gaussian_heat_value(r, t: float, n: int) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    return (4.0 * np.pi * t) ** (-n / 2.0) * np.exp(-r * r / (4.0 * t))


def poisson_value(r, t: float, n: int) -> np.ndarray:
    """Classical Poisson kernel c_n t / (t^2 + r^2)^((n+1)/2)."""
    r = np.asarray(r, dtype=float)
    c_n = gamma((n + 1) / 2.0) / np.pi ** ((n + 1) / 2.0)
    return c_n * t / (t * t + r * r) ** ((n + 1) / 2.0)


def _distances(grid: Grid, rows, cols) -> np.ndarray:
    """Euclidean |x - y| (no periodic image) for x in `rows` and y in `cols`
    (every grid point where None)."""
    left = grid.points if rows is None else grid.points[rows]
    right = grid.points if cols is None else grid.points[cols]
    return point_distances(left[:, None, :], right[None, :, :])


def gaussian_heat_table(grid: Grid, t: float, rows=None, cols=None) -> KernelSlice:
    """Free heat kernel on grid points, at the rows `rows` and columns `cols`
    only when given; each entry is elementwise, so a block has the full
    table's bits."""
    return KernelSlice(grid, gaussian_heat_value(_distances(grid, rows, cols), t,
                                                 grid.dimension), rows, cols)


def poisson_table(grid: Grid, t: float, rows=None, cols=None) -> KernelSlice:
    return KernelSlice(grid, poisson_value(_distances(grid, rows, cols), t, grid.dimension),
                       rows, cols)


def fourier_fractional_value(r: float, t: float, alpha: float) -> float:
    """One-dimensional Fourier oracle (1/pi) * int_0^inf e^{-t xi^(2a)} cos(xi r) dxi.

    Integrates on Gauss-Legendre panels between cosine zeros so the oscillatory
    tail cancels correctly; the envelope cutoff keeps the truncation below 1e-12.
    """
    r = abs(float(r))
    xi_max = (45.0 / t) ** (1.0 / (2.0 * alpha))
    if r * xi_max < np.pi:
        edges = np.linspace(0.0, xi_max, 64)
    else:
        zeros = np.arange(0.5 * np.pi / r, xi_max + np.pi / r, np.pi / r)
        edges = np.concatenate(([0.0], zeros[zeros <= xi_max], [xi_max]))
    xi, w = gauss_legendre_panels(edges, 24)
    total = np.sum(w * np.exp(-t * xi ** (2.0 * alpha)) * np.cos(xi * r))
    return float(total / np.pi)


def oscillator_heat_value(x, y, t: float) -> np.ndarray:
    """Kernel of exp(-t(-d^2/dx^2 + x^2)) on the line (one dimension)."""
    x, y = np.asarray(x, float), np.asarray(y, float)
    sh, ch = np.sinh(2.0 * t), np.cosh(2.0 * t)
    expo = -((x * x + y * y) * ch - 2.0 * x * y) / (2.0 * sh)
    return np.exp(expo) / np.sqrt(2.0 * np.pi * sh)


def oscillator_heat_table(grid: Grid, t: float) -> KernelSlice:
    if grid.dimension != 1:
        raise ValueError("oscillator closed form implemented for n=1 only")
    x = grid.points[:, 0]
    return KernelSlice(grid, oscillator_heat_value(x[:, None], x[None, :], t))


def fourier_table(grid: Grid, t: float, alpha: float) -> KernelSlice:
    """Fractional heat kernel table from the n=1 Fourier oracle (slow; oracle use)."""
    if grid.dimension != 1:
        raise ValueError("Fourier oracle implemented for n=1 only")
    dist = _distances(grid, None, None)
    uniq, inv = np.unique(np.round(dist / grid.spacing).astype(int), return_inverse=True)
    vals = np.array([fourier_fractional_value(u * grid.spacing, t, alpha) for u in uniq])
    return KernelSlice(grid, vals[inv].reshape(dist.shape))
