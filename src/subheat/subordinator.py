"""One-sided stable subordinator density and the subordination route to e^{-t L^alpha}.

The density eta_1 with Laplace transform exp(-lam^alpha) is evaluated three ways:
 * alpha = 1/2: the closed form s^{-3/2} e^{-1/(4s)} / (2 sqrt(pi)) everywhere;
 * s above the crossover: the convergent alternating power series;
 * s below the crossover: the Bromwich integral of exp(s*lam - lam^alpha)
   deformed onto its exact steepest-descent path, where the integrand is a
   positive bump (Zolotarev's parameterization) and double precision holds
   ~1e-12 relative accuracy. A fixed Talbot contour in double precision
   stalls near 1e-5, so the descent path is used instead.

Subordinating the spectral heat kernels contracts to the eigenbasis exactly,
so the kernel-level route reduces to the one-dimensional weights
m(lam) = int eta_t(s) e^{-s lam} ds, computed with composite Gauss-Legendre
panels on log s plus an analytic/numeric tail completion.
"""

from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .grid import gauss_legendre_panels
from .spectral import KernelSlice, SpectralDecomposition, matmul, multiplier_kernel

SERIES_CROSSOVER = 1.0
SERIES_KMAX = 400
TAIL_START = 1e4          # switch to the analytic tail beyond this multiple of t^(1/alpha)
HEAD_START = 1e-6         # the quadrature starts at this multiple of t^(1/alpha)
QUAD_NODES = 256          # log-s Gauss-Legendre nodes on [HEAD_START, TAIL_START]
PANEL_NODES = 16          # Gauss-Legendre nodes per panel of every rule here
DESCENT_HALF_PANELS = 30  # descent-path panels graded toward each end of (0, pi)


def _check_alpha(alpha: float):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"stability index must lie in (0,1), got {alpha}")


def _series_coefficients(alpha: float):
    ks = np.arange(1, SERIES_KMAX + 1)
    coeff = ((-1.0) ** (ks + 1)
             * np.exp(gammaln(alpha * ks + 1) - gammaln(ks + 1))
             * np.sin(np.pi * alpha * ks) / np.pi)
    return coeff, ks


def density_series(alpha: float, s) -> np.ndarray:
    """Tail series sum_k (-1)^(k+1) Gamma(ak+1) sin(pi a k) s^(-ak-1) / (pi k!)."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    coeff, ks = _series_coefficients(alpha)
    logs = np.log(s.astype(np.longdouble))
    out = np.zeros(s.shape, dtype=np.longdouble)
    peak = np.zeros(s.shape)
    for c, k in zip(coeff, ks):
        term = c * np.exp(-(alpha * k + 1) * logs)
        out = out + term
        peak = np.maximum(peak, np.abs(term.astype(float)))
        if np.all(np.abs(term) <= 1e-22 * np.maximum(np.abs(out), 1e-300)):
            break
    result = out.astype(float)
    # catastrophic cancellation guard: fall back to the descent contour
    bad = peak > 1e8 * np.maximum(np.abs(result), 1e-300)
    if np.any(bad):
        result[bad] = density_descent(alpha, s[bad])
    return result


@lru_cache(maxsize=32)
def _descent_nodes(alpha: float):
    # panel edges graded geometrically toward both endpoints of (0, pi)
    g = 0.5 ** np.arange(DESCENT_HALF_PANELS, -1, -1.0)
    edges = np.concatenate(([0.0], 0.5 * np.pi * g, (np.pi - 0.5 * np.pi * g[::-1])[1:]))
    phi, w = gauss_legendre_panels(edges, PANEL_NODES)
    log_u = ((alpha / (1.0 - alpha)) * (np.log(np.sin(alpha * phi)) - np.log(np.sin(phi)))
             + np.log(np.sin((1.0 - alpha) * phi)) - np.log(np.sin(phi)))
    return log_u, w


def density_descent(alpha: float, s) -> np.ndarray:
    """Steepest-descent (Zolotarev) form of the inverse Laplace integral."""
    s = np.atleast_1d(np.asarray(s, dtype=float))
    log_u, w = _descent_nodes(alpha)
    z = s[:, None] ** (-alpha / (1.0 - alpha))
    expo = log_u[None, :] - z * np.exp(log_u)[None, :]
    integ = np.exp(np.clip(expo, -745.0, 50.0))
    pref = (alpha / (1.0 - alpha)) * s ** (1.0 / (alpha - 1.0)) / np.pi
    return pref * matmul(integ, w)


def density_half(s) -> np.ndarray:
    s = np.atleast_1d(np.asarray(s, dtype=float))
    return s ** -1.5 * np.exp(-1.0 / (4.0 * s)) / (2.0 * np.sqrt(np.pi))


def density(alpha: float, s) -> np.ndarray:
    """eta_1(s) for the subordinator normalized by L(eta)(lam) = exp(-lam^alpha)."""
    _check_alpha(alpha)
    s = np.atleast_1d(np.asarray(s, dtype=float))
    if np.any(s <= 0.0):
        raise ValueError("density defined for s > 0 only")
    if abs(alpha - 0.5) < 1e-14:
        return density_half(s)
    out = np.empty_like(s)
    low = s <= SERIES_CROSSOVER
    if np.any(low):
        out[low] = density_descent(alpha, s[low])
    if np.any(~low):
        out[~low] = density_series(alpha, s[~low])
    return out


def _log_gl(lo: float, hi: float, n_nodes: int):
    """Gauss-Legendre panels of PANEL_NODES nodes, equal in log s, on [lo, hi]."""
    n_panels = max(1, n_nodes // PANEL_NODES)
    edges = np.exp(np.linspace(np.log(lo), np.log(hi), n_panels + 1))
    return gauss_legendre_panels(edges, PANEL_NODES)


def _series_tail_integral(alpha: float, mus: np.ndarray) -> np.ndarray:
    """int_S^inf eta_1(u) e^(-mu u) du for each mu >= 0, with S = TAIL_START.

    mu = 0 uses the term-by-term analytic integral of the tail series; mu > 0
    integrates the series numerically out to the exponential cutoff.
    """
    S = TAIL_START
    coeff, ks = _series_coefficients(alpha)
    out = np.zeros_like(mus)
    powers = alpha * ks
    analytic = np.sum(coeff * S ** (-powers) / powers)
    for i, mu in enumerate(mus):
        if mu * S > 40.0:
            continue
        if mu <= 0.0:
            out[i] = analytic
            continue
        hi = max(2.0 * S, 45.0 / mu)
        pts, wts = _log_gl(S, hi, 12 * PANEL_NODES)
        eta_vals = density_series(alpha, pts)
        out[i] = np.sum(wts * eta_vals * np.exp(-mu * pts))
    return out


def subordination_multiplier(alpha: float, t: float, lams) -> np.ndarray:
    """int_0^inf eta_t(s) e^{-s lam} ds per eigenvalue (approximates e^{-t lam^alpha})."""
    _check_alpha(alpha)
    if t <= 0:
        raise ValueError("time must be positive")
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    ta = t ** (1.0 / alpha)
    mus = lams * ta
    u, w = _log_gl(HEAD_START, TAIL_START, QUAD_NODES)
    eta_vals = density(alpha, u)
    main = matmul(eta_vals * w, np.exp(-np.outer(u, mus)))
    tail = _series_tail_integral(alpha, mus)
    return main + tail


def laplace_transform(alpha: float, lam: float) -> float:
    """int_0^inf e^{-lam s} eta_1(s) ds; equals exp(-lam^alpha)."""
    _check_alpha(alpha)
    u, w = _log_gl(HEAD_START, TAIL_START, QUAD_NODES)
    main = np.sum(density(alpha, u) * w * np.exp(-lam * u))
    tail = _series_tail_integral(alpha, np.array([float(lam)]))[0]
    return float(main + tail)


def negative_moment(alpha: float, gamma_exp: float) -> float:
    """int_0^inf s^(-gamma) eta_1(s) ds (finite for every gamma > 0)."""
    _check_alpha(alpha)
    u, w = _log_gl(HEAD_START, TAIL_START, QUAD_NODES)
    main = np.sum(density(alpha, u) * w * u ** (-gamma_exp))
    coeff, ks = _series_coefficients(alpha)
    powers = alpha * ks + gamma_exp
    tail = np.sum(coeff * TAIL_START ** (-powers) / powers)
    return float(main + tail)


def subordinate_kernel(dec: SpectralDecomposition, alpha: float, t: float) -> KernelSlice:
    """K_{alpha,t} = int eta_t(s) K_s ds through the shared eigenbasis.

    Summing the spectral heat tables against the quadrature weights contracts
    exactly (matrix assembly is linear), so the weights are accumulated per
    eigenvalue before one basis sandwich.
    """
    weights = subordination_multiplier(alpha, t, dec.eigenvalues)
    return multiplier_kernel(dec, lambda lam: weights)


def tail_exponent_fit(alpha: float):
    """OLS slope of log eta vs log s at 24 points on [1e2, 1e4]; the claim is -(1+alpha)."""
    s = np.geomspace(1e2, 1e4, 24)
    eta_vals = density(alpha, s)
    A = np.vstack([np.log(s), np.ones_like(s)]).T
    slope = np.linalg.lstsq(A, np.log(eta_vals), rcond=None)[0][0]
    return float(slope)


def pointwise_bound_constant(alpha: float) -> float:
    """Fitted C with eta_1(s) <= C / s^(1+alpha) at 200 points on [1e-2, 1e4]."""
    s = np.geomspace(1e-2, 1e4, 200)
    return float(np.max(density(alpha, s) * s ** (1.0 + alpha)))


def overlap_consistency(alpha: float) -> float:
    """Max relative gap between the descent evaluator and the series (the closed
    form at alpha = 1/2) at 16 points on [0.5, 2]."""
    _check_alpha(alpha)
    s = np.geomspace(0.5, 2.0, 16)
    a = density_descent(alpha, s)
    b = density_half(s) if abs(alpha - 0.5) < 1e-14 else density_series(alpha, s)
    return float(np.max(np.abs(a - b) / np.abs(b)))


def density_selftest(alpha: float) -> dict:
    """Normalization, tail exponent, negative moments and bound constant report."""
    _check_alpha(alpha)
    defect = abs(laplace_transform(alpha, 0.0) - 1.0)
    slope = tail_exponent_fit(alpha)
    return {
        "alpha": alpha,
        "normalization_defect": float(defect),
        "tail_slope": slope,
        "tail_slope_expected": -(1.0 + alpha),
        "negative_moment_half": negative_moment(alpha, 0.5),
        "negative_moment_one": negative_moment(alpha, 1.0),
        "pointwise_bound_constant": pointwise_bound_constant(alpha),
        "overlap_consistency": overlap_consistency(alpha),
    }
