"""Time-fractional derivatives of semigroup kernels.

The derivative of order beta is the truncated-integral definition
  d_t^beta F(t) = (+-1 / Gamma(m - beta)) * int_0^inf d_t^m F(t + u) u^(m-beta-1) du,
m = floor(beta) + 1, under the real-normalized convention: the unimodular
phase of the complex definition is replaced by the sign that makes
d_t^beta e^{-at} = a^beta e^{-at}. The u -> 0 endpoint singularity is
absorbed by a Gauss-Jacobi head rule; the decaying remainder is integrated
on log-spaced Gauss-Legendre panels.
"""

import math

import numpy as np
from scipy.special import gamma as _gamma, roots_jacobi

from .grid import gauss_legendre_panels
from .spectral import (KernelSlice, SpectralDecomposition, matmul, multiplier_kernel,
                       semigroup_multiplier)

HEAD_NODES = 48          # Gauss-Jacobi nodes on [0, min(t, u_max)]
TAIL_PANELS = 14         # log-spaced Gauss-Legendre panels on the rest
TAIL_PANEL_NODES = 12
UPPER_FACTOR = 50.0      # u_max = UPPER_FACTOR * t + UPPER_FACTOR / lam_min^alpha


def integer_order(beta: float) -> int:
    """m = floor(beta) + 1, the whole derivative taken inside the integral."""
    if beta <= 0:
        raise ValueError("fractional order beta must be positive")
    return int(math.floor(beta)) + 1


def _u_quadrature(beta: float, t: float, u_max: float):
    """Nodes/weights for int_0^{u_max} g(u) u^(m-beta-1) du, singular weight absorbed."""
    m = integer_order(beta)
    u_head = min(t, u_max)
    xj, wj = roots_jacobi(HEAD_NODES, m - beta - 1.0, 0.0)
    u_h = u_head * (1.0 - xj) / 2.0
    w_h = wj * (u_head / 2.0) ** (m - beta)
    if u_max <= u_head * (1.0 + 1e-12):
        return u_h, w_h
    edges = np.exp(np.linspace(np.log(u_head), np.log(u_max), TAIL_PANELS + 1))
    u_t, w_t = gauss_legendre_panels(edges, TAIL_PANEL_NODES)
    w_t = w_t * u_t ** (m - beta - 1.0)
    return np.concatenate([u_h, u_t]), np.concatenate([w_h, w_t])


def _node_multipliers(dec: SpectralDecomposition, alpha: float, beta: float, t: float):
    """Weights w_q and multipliers d_t^m e^{-(t + u_q) L^alpha} at the nodes, (Q, modes)."""
    la = dec.eigenvalues ** alpha
    lam_min = max(dec.positive_min ** alpha, 1e-12)
    u, w = _u_quadrature(beta, t, UPPER_FACTOR * t + UPPER_FACTOR / lam_min)
    # d_t^m e^{-(t+u) lam^alpha} = (-lam^alpha)^m e^{-(t+u) lam^alpha}
    return w, (-la[None, :]) ** integer_order(beta) * np.exp(-np.outer(t + u, la))


def frac_multiplier_quadrature(dec: SpectralDecomposition, alpha: float,
                               beta: float, t: float) -> np.ndarray:
    """Quadrature route for the multiplier of d_t^beta e^{-t L^alpha} per eigenvalue."""
    if t <= 0:
        raise ValueError("time must be positive")
    m = integer_order(beta)
    w, values = _node_multipliers(dec, alpha, beta, t)
    return (-1.0) ** m * matmul(w, values) / _gamma(m - beta)


def frac_time_derivative(dec: SpectralDecomposition, alpha: float,
                         beta: float, t: float) -> KernelSlice:
    """Kernel of d_t^beta e^{-t L^alpha} by the truncated-integral quadrature.

    The m-th time derivative inside the integral comes from the spectral
    multiplier, so the quadrature runs per eigenvalue before one sandwich.
    """
    weights = frac_multiplier_quadrature(dec, alpha, beta, t)
    return multiplier_kernel(dec, lambda lam: weights)


def d_operator(dec: SpectralDecomposition, alpha: float, beta: float,
               t: float) -> KernelSlice:
    """Kernel of t^beta d_t^beta e^{-t L^alpha}: multiplier (t lam^alpha)^beta e^{-t lam^alpha}."""
    if beta <= 0:
        raise ValueError("operator order beta must be positive")
    if t <= 0:
        raise ValueError("time must be positive")
    return multiplier_kernel(dec, semigroup_multiplier(t, alpha, beta))

