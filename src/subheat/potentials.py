"""Nonnegative potential catalog, reverse-Holder diagnostics and the critical radius.

The critical radius rho(x) is the largest r with r^(2-n) * integral of V over
B(x, r) <= 1; it calibrates every decay penalty used by the bound certificates.
Ball integrals of the analytic catalog potentials are done with 1-D shell
quadrature (composite Simpson) whenever the integrand reduces to shells about
the ball center, and with grid sums otherwise.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid, Ball

SIMPSON_INTERVALS = 512

_SPHERE_SURFACE = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}
_BALL_VOLUME = {1: 2.0, 2: np.pi, 3: 4.0 * np.pi / 3.0}


@dataclass(frozen=True)
class PotentialSpec:
    """One catalog potential: zero | constant | power |x|^sigma | well | sum."""

    kind: str
    params: dict = field(default_factory=dict)
    terms: tuple = ()
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "power", "well", "sum"):
            raise ValueError(f"kind {self.kind!r} not in catalog")
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")
        for key, value in self.params.items():
            if key != "center" and np.any(np.asarray(value) < 0):
                raise ValueError(f"parameter {key} must be nonnegative")
        if self.kind == "constant" and self.params["c"] * self.scale <= 0:
            raise ValueError("constant potential must be strictly positive (use zero)")
        if self.kind == "power" and self.params["sigma"] <= 0:
            raise ValueError("power potential needs sigma > 0")


def zero() -> PotentialSpec:
    return PotentialSpec("zero")


def constant(c: float) -> PotentialSpec:
    return PotentialSpec("constant", {"c": float(c)})


def power(sigma: float, scale: float = 1.0) -> PotentialSpec:
    return PotentialSpec("power", {"sigma": float(sigma)}, scale=scale)


def well(height: float, half_width: float, center=0.0) -> PotentialSpec:
    return PotentialSpec(
        "well", {"v": float(height), "w": float(half_width), "center": center}
    )


def sum_of(*specs: PotentialSpec) -> PotentialSpec:
    return PotentialSpec("sum", terms=tuple(specs))


def scaled(spec: PotentialSpec, c: float) -> PotentialSpec:
    if c < 0:
        raise ValueError("scale must be nonnegative")
    return PotentialSpec(spec.kind, spec.params, spec.terms, spec.scale * c)


def eval_potential(spec: PotentialSpec, x) -> np.ndarray:
    """Pointwise V(x); accepts (n,) or (N, n) arrays."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if spec.kind == "zero":
        out = np.zeros(pts.shape[0])
    elif spec.kind == "constant":
        out = np.full(pts.shape[0], spec.params["c"])
    elif spec.kind == "power":
        out = np.linalg.norm(pts, axis=1) ** spec.params["sigma"]
    elif spec.kind == "well":
        center = np.broadcast_to(np.asarray(spec.params["center"], float), pts.shape[1:])
        inside = np.all(np.abs(pts - center) <= spec.params["w"], axis=1)
        out = np.where(inside, spec.params["v"], 0.0)
    else:
        out = np.sum([eval_potential(t, pts) for t in spec.terms], axis=0)
    out = spec.scale * out
    return out if np.asarray(x).ndim > 1 else float(out[0])


def eval_on_grid(spec: PotentialSpec, grid: Grid) -> np.ndarray:
    return np.atleast_1d(eval_potential(spec, grid.points))


def is_zero(spec: PotentialSpec) -> bool:
    if spec.kind == "zero" or spec.scale == 0.0:
        return True
    if spec.kind == "sum":
        return all(is_zero(t) for t in spec.terms)
    return False


def _radial_profile_about(spec: PotentialSpec, center: np.ndarray):
    """Return s -> V on the shell of radius s about `center`, or None."""
    if spec.kind == "zero":
        return lambda s: np.zeros_like(np.asarray(s, float))
    if spec.kind == "constant":
        c = spec.scale * spec.params["c"]
        return lambda s: np.full_like(np.asarray(s, float), c)
    if spec.kind == "power" and np.linalg.norm(center) < 1e-12:
        sigma, sc = spec.params["sigma"], spec.scale
        return lambda s: sc * np.asarray(s, float) ** sigma
    if spec.kind == "sum":
        profs = [_radial_profile_about(t, center) for t in spec.terms]
        if all(p is not None for p in profs):
            return lambda s: spec.scale * np.sum([p(s) for p in profs], axis=0)
    return None


def _simpson_weights(m: int, width: float) -> np.ndarray:
    w = np.ones(m + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return w * (width / m / 3.0)


def ball_integral(spec: PotentialSpec, n: int, center, radius: float,
                  grid: Grid | None = None, q: float = 1.0) -> float:
    """Integral of V^q over B(center, radius).

    Shell quadrature (continuous in radius) for n = 1 and for potentials
    radial about the center; otherwise the grid sum over member points.
    """
    center = np.asarray(center, dtype=float).reshape(n)
    s = np.linspace(0.0, radius, SIMPSON_INTERVALS + 1)
    w = _simpson_weights(SIMPSON_INTERVALS, radius)
    if n == 1:
        vplus = eval_potential(spec, (center[0] + s)[:, None])
        vminus = eval_potential(spec, (center[0] - s)[:, None])
        return float(np.sum(w * (vplus ** q + vminus ** q)))
    prof = _radial_profile_about(spec, center)
    if prof is not None:
        vals = prof(s) ** q
        return float(_SPHERE_SURFACE[n] * np.sum(w * vals * s ** (n - 1)))
    if grid is None:
        raise ValueError("grid quadrature needed for a non-radial ball integral")
    return _grid_ball_sum(spec, grid, center, q)(radius)


def _grid_ball_sum(spec: PotentialSpec, grid: Grid, center, q: float = 1.0):
    """radius -> sum of V^q * h^n over the grid points with |y - center| < radius.

    V^q and the distances are computed once, so a bisection over the radius
    pays one masked sum per step.
    """
    vals = eval_on_grid(spec, grid) ** q
    dist = grid.distances_from(center)
    return lambda radius: float(np.sum(vals[dist < radius]) * grid.cell_weight)


@dataclass(frozen=True)
class ReverseHolderResult:
    c_best: float
    holds: bool
    excluded: int


def reverse_holder_constant(spec: PotentialSpec, q: float, ball_sample: list[Ball],
                            grid: Grid) -> ReverseHolderResult:
    """Measured reverse-Holder constant max_B (avg V^q)^(1/q) / (avg V) over the sample."""
    if q <= 1:
        raise ValueError("reverse-Holder exponent q must exceed 1")
    n = grid.dimension
    c_best, excluded = 0.0, 0
    for ball in ball_sample:
        if ball.members.size < 32:
            raise ValueError("each sampled ball needs at least 32 interior points")
        vol = _BALL_VOLUME[n] * ball.radius ** n
        avg_v = ball_integral(spec, n, ball.center, ball.radius, grid) / vol
        if avg_v <= 0.0:
            excluded += 1
            continue
        avg_vq = ball_integral(spec, n, ball.center, ball.radius, grid, q=q) / vol
        c_best = max(c_best, avg_vq ** (1.0 / q) / avg_v)
    if excluded == len(ball_sample):
        raise ValueError("all sampled balls have vanishing average potential")
    return ReverseHolderResult(c_best, bool(np.isfinite(c_best)), excluded)


def _rho_functional(spec: PotentialSpec, grid: Grid, x, r: float) -> float:
    return _rho_functional_at(spec, grid, x)(r)


def _rho_functional_at(spec: PotentialSpec, grid: Grid, x):
    """r -> r^(2-n) * integral of V over B(x, r) for one point x."""
    n = grid.dimension
    if n > 1 and _radial_profile_about(spec, x) is None:
        integral = _grid_ball_sum(spec, grid, x)
    else:
        integral = lambda r: ball_integral(spec, n, x, r, grid)
    return lambda r: r ** (2 - n) * integral(r)


def compute_rho(spec: PotentialSpec, grid: Grid, x, tol: float = 1e-9,
                with_flag: bool = False):
    """Critical radius: sup{r : r^(2-n) * int_{B(x,r)} V <= 1} by bisection.

    Returns the bracket top flagged box-limited when the functional never
    reaches 1 inside the box diameter.
    """
    if is_zero(spec):
        raise ValueError("critical radius undefined for the zero potential")
    if tol <= 0:
        raise ValueError("tol must be positive")
    x = np.asarray(x, dtype=float).reshape(grid.dimension)
    functional = _rho_functional_at(spec, grid, x)
    lo = grid.spacing
    hi = 2.0 * grid.half_width * np.sqrt(grid.dimension)
    if functional(hi) <= 1.0:
        return (hi, True) if with_flag else hi
    # functional can exceed 1 already at the spacing scale for large potentials
    while functional(lo) > 1.0 and lo > 1e-9 * grid.spacing:
        lo *= 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if functional(mid) <= 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            value = 0.5 * (lo + hi)
            return (value, False) if with_flag else value
    raise RuntimeError("rho bisection did not converge in 200 iterations")


@dataclass(frozen=True)
class AuxFunction:
    grid: Grid
    rho: np.ndarray
    tol: float
    box_limited: np.ndarray


def compute_aux_function(spec: PotentialSpec, grid: Grid, tol: float = 1e-9,
                         indices=None) -> AuxFunction:
    """rho on (a subset of) the grid; +inf sentinel for the zero potential."""
    rho = np.full(grid.size, np.inf)
    flags = np.zeros(grid.size, dtype=bool)
    if is_zero(spec):
        return AuxFunction(grid, rho, tol, flags)
    idx = np.arange(grid.size) if indices is None else np.asarray(indices)
    if _is_translation_invariant(spec):
        value, flag = compute_rho(spec, grid, grid.points[idx[0]], tol, with_flag=True)
        rho[idx], flags[idx] = value, flag
        return AuxFunction(grid, rho, tol, flags)
    for i in idx:
        rho[i], flags[i] = compute_rho(spec, grid, grid.points[i], tol, with_flag=True)
    return AuxFunction(grid, rho, tol, flags)


def _is_translation_invariant(spec: PotentialSpec) -> bool:
    if spec.kind == "constant":
        return True
    if spec.kind == "sum":
        return all(_is_translation_invariant(t) for t in spec.terms)
    return False


def rho_constant(spec: PotentialSpec, grid: Grid, tol: float = 1e-9) -> float:
    """rho for translation-invariant potentials (constant across the box)."""
    if not _is_translation_invariant(spec):
        raise ValueError("rho is not constant for this potential")
    return compute_rho(spec, grid, np.zeros(grid.dimension), tol)


def gaussian_average(spec: PotentialSpec, grid: Grid, x, t: float) -> float:
    """t^(-n/2) * integral of exp(-|x-y|^2 / 4t) V(y) dy via shell quadrature."""
    n = grid.dimension
    x = np.asarray(x, dtype=float).reshape(n)
    r_max = min(2.0 * grid.half_width * np.sqrt(n), 12.0 * np.sqrt(t))
    s = np.linspace(0.0, r_max, SIMPSON_INTERVALS + 1)
    w = _simpson_weights(SIMPSON_INTERVALS, r_max)
    gauss = np.exp(-s * s / (4.0 * t))
    if n == 1:
        vplus = eval_potential(spec, (x[0] + s)[:, None])
        vminus = eval_potential(spec, (x[0] - s)[:, None])
        return float(t ** (-0.5) * np.sum(w * gauss * (vplus + vminus)))
    prof = _radial_profile_about(spec, x)
    if prof is None:
        dist = grid.distances_from(x)
        vals = eval_on_grid(spec, grid)
        return float(t ** (-n / 2.0) * np.sum(np.exp(-dist ** 2 / (4.0 * t)) * vals)
                     * grid.cell_weight)
    return float(t ** (-n / 2.0) * _SPHERE_SURFACE[n]
                 * np.sum(w * gauss * prof(s) * s ** (n - 1)))


def check_aux_lemmas(spec: PotentialSpec, grid: Grid, sample_points,
                     sample_scales, q: float = 2.0) -> dict:
    """Measured constants behind the critical-radius toolbox.

    Reports the doubling constant of V(y)dy, the two-scale comparison constant,
    the comparability constant of rho between nearby points, and the
    Gaussian-average bound constant. All are measured suprema over the sample,
    never proofs.
    """
    if is_zero(spec):
        return {"skipped": "rho undefined for the zero potential"}
    n = grid.dimension
    pts = [np.asarray(p, dtype=float).reshape(n) for p in sample_points]
    scales = [float(r) for r in sample_scales]

    doubling = 0.0
    for x in pts:
        for r in scales:
            if 2.0 * r >= 2.0 * grid.half_width:
                continue
            small = ball_integral(spec, n, x, r, grid)
            big = ball_integral(spec, n, x, 2.0 * r, grid)
            if small > 0:
                doubling = max(doubling, big / small)

    two_scale = 0.0
    for x in pts:
        for i, r in enumerate(scales):
            for big_r in scales[i + 1:]:
                fr = _rho_functional(spec, grid, x, r)
                fbig = _rho_functional(spec, grid, x, big_r)
                if fbig > 0:
                    two_scale = max(two_scale, fr / ((r / big_r) ** (2 - n / q) * fbig))

    rho_vals = {tuple(x): compute_rho(spec, grid, x) for x in pts}
    comparability = 1.0
    for x in pts:
        for y in pts:
            rx, ry = rho_vals[tuple(x)], rho_vals[tuple(y)]
            if 0 < np.linalg.norm(x - y) <= rx:
                comparability = max(comparability, rx / ry, ry / rx)

    delta = min(1.0, 2.0 - n / q)
    gauss_const = 0.0
    for x in pts:
        rx = rho_vals[tuple(x)]
        for t in scales:
            g = gaussian_average(spec, grid, x, t)
            expo = delta if np.sqrt(t) < rx else 2.0
            gauss_const = max(gauss_const, g * t / (np.sqrt(t) / rx) ** expo)

    return {
        "doubling_constant": doubling,
        "two_scale_constant": two_scale,
        "comparability_constant": comparability,
        "gaussian_average_constant": gauss_const,
    }
