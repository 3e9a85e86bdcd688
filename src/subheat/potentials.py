"""Nonnegative potential catalog, ball integrals and the critical radius.

The critical radius rho(x) is the largest r with r^(2-n) * integral of V over
B(x, r) <= 1; it calibrates every decay penalty used by the bound certificates.
Ball integrals of the analytic catalog potentials are done with 1-D shell
quadrature (composite Simpson) whenever the integrand reduces to shells about
the ball center, and with grid sums otherwise.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid

SIMPSON_INTERVALS = 512

_SPHERE_SURFACE = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


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


def _rho_functional_at(spec: PotentialSpec, grid: Grid, x):
    """r -> r^(2-n) * integral of V over B(x, r) for one point x."""
    n = grid.dimension
    if n > 1 and _radial_profile_about(spec, x) is None:
        integral = _grid_ball_sum(spec, grid, x)
    else:
        integral = lambda r: ball_integral(spec, n, x, r, grid)
    return lambda r: r ** (2 - n) * integral(r)


def compute_rho(spec: PotentialSpec, grid: Grid, x, tol: float = 1e-9):
    """Critical radius: sup{r : r^(2-n) * int_{B(x,r)} V <= 1} by bisection.

    Returns (rho, box_limited): the bracket top is flagged box-limited when
    the functional never reaches 1 inside the box diameter.
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
        return hi, True
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
            return 0.5 * (lo + hi), False
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
        value, flag = compute_rho(spec, grid, grid.points[idx[0]], tol)
        rho[idx], flags[idx] = value, flag
        return AuxFunction(grid, rho, tol, flags)
    for i in idx:
        rho[i], flags[i] = compute_rho(spec, grid, grid.points[i], tol)
    return AuxFunction(grid, rho, tol, flags)


def _is_translation_invariant(spec: PotentialSpec) -> bool:
    if spec.kind == "constant":
        return True
    if spec.kind == "sum":
        return all(_is_translation_invariant(t) for t in spec.terms)
    return False
