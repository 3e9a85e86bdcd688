"""Nonnegative potential catalog, ball integrals and the critical radius.

The critical radius rho(x) is the largest r with r^(2-n) * integral of V over
B(x, r) <= 1; it calibrates every decay penalty used by the bound certificates.
`_ball_integrals` is the one place the quadrature of the ball integral is
chosen: a Simpson sum over [c - r, c + r] at n = 1, a Simpson sum over shells
for the points V is radial about at n >= 2, and a grid sum for every other
point. Both Simpson sums take their nodes and weights from `_simpson_nodes`
(fixed patterns scaled by each radius) and cover a whole block of points in
one numpy expression. A grid ball sum only changes where the radius passes a
distance, so each (point, member count) is summed once. rho comes from one
bisection loop that runs a block of points in lockstep.
"""

from dataclasses import dataclass, field

import numpy as np

from .grid import Grid

SIMPSON_INTERVALS = 512
RHO_TOL = 1e-9           # rho bisection stops when its bracket is this narrow

#: points bisected in lockstep. At n = 1 a step's temporaries are RHO_BLOCK x 513
#: doubles: 131,328 bytes at 32, just over glibc's default 128 KiB mmap
#: threshold. In fresh processes a block of 32 did not page-fault on them where
#: 48 did. rho does not depend on the block.
RHO_BLOCK = 32

_SPHERE_SURFACE = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}


@dataclass(frozen=True)
class PotentialSpec:
    """One catalog potential: zero | constant | power |x|^sigma | well."""

    kind: str
    params: dict = field(default_factory=dict)
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "power", "well"):
            raise ValueError(f"kind {self.kind!r} not in catalog")
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")
        for key, value in self.params.items():
            if key != "center" and np.any(np.asarray(value) < 0):
                raise ValueError(f"parameter {key} must be nonnegative")
        if self.kind == "constant" and self.params["c"] <= 0:
            raise ValueError("constant potential must be strictly positive (use zero)")
        if self.kind == "power" and self.params["sigma"] <= 0:
            raise ValueError("power potential needs sigma > 0")
        if self.kind == "well" and not (self.params["v"] > 0 and self.params["w"] > 0):
            raise ValueError("well potential needs height > 0 and width > 0 (use zero)")


def zero() -> PotentialSpec:
    return PotentialSpec("zero")


def constant(c: float) -> PotentialSpec:
    return PotentialSpec("constant", {"c": float(c)})


def power(sigma: float) -> PotentialSpec:
    return PotentialSpec("power", {"sigma": float(sigma)})


def well(height: float, half_width: float, center=0.0) -> PotentialSpec:
    return PotentialSpec(
        "well", {"v": float(height), "w": float(half_width), "center": center}
    )


def scaled(spec: PotentialSpec, c: float) -> PotentialSpec:
    if c < 0:
        raise ValueError("scale must be nonnegative")
    return PotentialSpec(spec.kind, spec.params, spec.scale * c)


#: |x| >= _TINY keeps x * x normal and |x| < _HUGE keeps it finite
_TINY, _HUGE = 2.0 ** -511, 2.0 ** 511


def _norms(pts: np.ndarray) -> np.ndarray:
    """np.linalg.norm(pts, axis=1), bit for bit. For one column that norm is
    sqrt(x * x), which equals |x| exactly in binary64 unless x * x underflows
    or overflows (at x = 1e200 the norm reads inf). np.abs serves a column
    inside that range: it is cheaper than the square root (BENCH_rho.json)."""
    if pts.shape[1] > 1:
        return np.linalg.norm(pts, axis=1)
    col = pts[:, 0]
    out = np.abs(col)
    if out.size and not (out.min() >= _TINY and out.max() < _HUGE):
        out = np.sqrt(col * col)
    return out


def eval_potential(spec: PotentialSpec, x) -> np.ndarray:
    """Pointwise V(x); accepts (n,) or (N, n) arrays."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if spec.kind == "zero" or spec.scale == 0.0:
        out = np.zeros(pts.shape[0])       # 0 * V is zero even where V overflows
    elif spec.kind == "constant":
        out = np.full(pts.shape[0], spec.params["c"])
    elif spec.kind == "power":
        # an overflow gives inf, which the operator's finiteness check names
        with np.errstate(over="ignore"):
            out = _norms(pts) ** spec.params["sigma"]
    else:
        center = np.broadcast_to(np.asarray(spec.params["center"], float), pts.shape[1:])
        inside = np.all(np.abs(pts - center) <= spec.params["w"], axis=1)
        out = np.where(inside, spec.params["v"], 0.0)
    if spec.scale != 1.0:                  # 1.0 * v == v: skip a pass
        out = spec.scale * out
    return out if np.asarray(x).ndim > 1 else float(out[0])


def eval_on_grid(spec: PotentialSpec, grid: Grid) -> np.ndarray:
    return np.atleast_1d(eval_potential(spec, grid.points))


def is_zero(spec: PotentialSpec) -> bool:
    return spec.kind == "zero" or spec.scale == 0.0


def _radial_profile_about(spec: PotentialSpec, center: np.ndarray):
    """Return s -> V on the shell of radius s about `center`, or None. Where
    it is not None it is the same function about every centre."""
    if spec.kind == "zero":
        return lambda s: np.zeros_like(np.asarray(s, float))
    if spec.kind == "constant":
        c = spec.scale * spec.params["c"]
        return lambda s: np.full_like(np.asarray(s, float), c)
    if spec.kind == "power" and np.linalg.norm(center) < 1e-12:
        sigma, sc = spec.params["sigma"], spec.scale
        return lambda s: sc * np.asarray(s, float) ** sigma
    return None


#: node indices and the 1-4-2-...-4-1 Simpson pattern, read by `_simpson_nodes`
_NODE_INDEX = np.arange(SIMPSON_INTERVALS + 1, dtype=float)
_WEIGHT_PATTERN = np.ones(SIMPSON_INTERVALS + 1)
_WEIGHT_PATTERN[1:-1:2], _WEIGHT_PATTERN[2:-1:2] = 4.0, 2.0


def _simpson_nodes(radii: np.ndarray):
    """Composite Simpson nodes and weights on [0, r], one row per radius.

    The nodes are index * (r / SIMPSON_INTERVALS) with the last set to r,
    which is np.linspace(0, r, SIMPSON_INTERVALS + 1) bit for bit.
    """
    r = radii[:, None]
    s = _NODE_INDEX * (r / SIMPSON_INTERVALS)
    s[:, -1] = radii
    return s, _WEIGHT_PATTERN * (r / SIMPSON_INTERVALS / 3.0)


def _shell_integrals_1d(spec: PotentialSpec, centers, radii) -> np.ndarray:
    """Composite Simpson integral of V over [c - r, c + r], one per (c, r) row."""
    s, w = _simpson_nodes(np.asarray(radii, dtype=float))
    c = np.asarray(centers, dtype=float)[:, None]
    total = eval_potential(spec, (c + s).reshape(-1, 1)).reshape(s.shape)
    # c - s goes into the nodes' buffer: with one more RHO_BLOCK x 513 array
    # alive, some fresh processes gave the heap top back and faulted it in
    # again at every step, which doubled the time of an n = 1 rho
    minus = np.subtract(c, s, out=s)
    # w * (V+ + V-), folded into eval_potential's fresh output
    total += eval_potential(spec, minus.reshape(-1, 1)).reshape(s.shape)
    total *= w
    return total.sum(axis=1)


class _GridBallSums:
    """(rows, radii) -> sum of V * h^n over the grid points y with
    |y - centers[row]| < radius, row-wise.

    V is evaluated once and each centre's distances once. A ball sum is a
    step function of the radius: it only changes where the radius passes a
    distance. So the sums live in a (centres x N+1) table indexed by the
    member count, and each (centre, count) entry is summed once, on first
    read, as float(np.sum(vals[dist < radius]) * h^n) at the radius that asked
    for it. Two radii with the same count select the same mask, so every sum
    has the bits of a fresh one.
    """

    def __init__(self, spec: PotentialSpec, grid: Grid, centers: np.ndarray):
        self.vals = eval_on_grid(spec, grid)
        self.dist = np.stack([grid.distances_from(c) for c in centers])
        self.weight = grid.cell_weight
        self.sums = np.zeros((len(centers), grid.size + 1))
        self.filled = np.zeros(self.sums.shape, dtype=bool)

    def __call__(self, rows, radii) -> np.ndarray:
        counts = np.count_nonzero(self.dist[rows] < radii[:, None], axis=1)
        for j in np.flatnonzero(~self.filled[rows, counts]):
            i, k = rows[j], counts[j]
            if not self.filled[i, k]:
                self.sums[i, k], self.filled[i, k] = self._sum(i, radii[j]), True
        return self.sums[rows, counts]

    def _sum(self, row: int, radius: float) -> float:
        return float(np.sum(self.vals[self.dist[row] < radius]) * self.weight)


def _ball_integrals(spec: PotentialSpec, grid: Grid, points: np.ndarray):
    """(rows, radii) -> integral of V over B(points[row], r), row-wise.

    This is where the quadrature is chosen. At n = 1 one Simpson sum covers
    every row. At n >= 2 the rows that V is radial about share one profile
    (it does not depend on the centre), and one Simpson shell sum covers them
    all; every other row reads the block's `_GridBallSums` table.
    """
    n = grid.dimension
    if n == 1:
        centers = points[:, 0]
        return lambda rows, radii: _shell_integrals_1d(spec, centers[rows], radii)
    profiles = [_radial_profile_about(spec, x) for x in points]
    radial = np.array([p is not None for p in profiles])
    profile = next((p for p in profiles if p is not None), None)
    sums = None if radial.all() else _GridBallSums(spec, grid, points)

    def integrals(rows, radii):
        rows, radii = np.asarray(rows), np.asarray(radii, dtype=float)
        out = np.empty(rows.size)
        shell = radial[rows]
        if shell.any():
            s, w = _simpson_nodes(radii[shell])
            out[shell] = _SPHERE_SURFACE[n] * np.sum(w * profile(s) * s ** (n - 1), axis=1)
        if not shell.all():
            out[~shell] = sums(rows[~shell], radii[~shell])
        return out

    return integrals


def _block_functional(spec: PotentialSpec, grid: Grid, points: np.ndarray):
    """(rows, radii) -> r^(2-n) * integral of V over B(points[row], r), row-wise."""
    integrals = _ball_integrals(spec, grid, points)
    # float_power calls libm's pow per element; the ** operator would take the
    # reciprocal at n = 3, which differs from pow(r, -1) in the last bit
    exponent = 2 - grid.dimension
    return lambda rows, radii: np.float_power(radii, exponent) * integrals(rows, radii)


def _bisect_block(functional, count: int, grid: Grid):
    """Lockstep bisection of `count` points; functional(rows, radii) -> values.

    Each point keeps its own bracket, top check, lo-halving loop and exit, so
    its rho is the one a bisection of that point alone returns. A non-finite
    functional value raises ValueError.
    """
    def values(rows, radii):
        out = functional(rows, radii)
        if not np.all(np.isfinite(out)):
            raise ValueError("critical-radius functional is not finite")
        return out

    top = 2.0 * grid.half_width * np.sqrt(grid.dimension)
    lo = np.full(count, grid.spacing)
    hi = np.full(count, top)
    limited = values(np.arange(count), hi) <= 1.0
    bracketed = np.flatnonzero(~limited)
    # functional can exceed 1 already at the spacing scale for large potentials
    rows = bracketed
    while rows.size:
        rows = rows[(values(rows, lo[rows]) > 1.0) & (lo[rows] > 1e-9 * grid.spacing)]
        lo[rows] *= 0.5
    rho = np.where(limited, top, np.nan)
    rows = bracketed
    for _ in range(200):
        if not rows.size:
            break
        mid = 0.5 * (lo[rows] + hi[rows])
        below = values(rows, mid) <= 1.0
        lo[rows[below]] = mid[below]
        hi[rows[~below]] = mid[~below]
        done = hi[rows] - lo[rows] <= RHO_TOL
        rho[rows[done]] = 0.5 * (lo[rows[done]] + hi[rows[done]])
        rows = rows[~done]
    if rows.size:
        raise RuntimeError("rho bisection did not converge in 200 iterations")
    return rho, limited


def _critical_radii(spec: PotentialSpec, grid: Grid, points: np.ndarray):
    """rho and the box-limited flag at each of `points`, RHO_BLOCK points at a time."""
    rho = np.empty(len(points))
    limited = np.empty(len(points), dtype=bool)
    for start in range(0, len(points), RHO_BLOCK):
        block = slice(start, start + RHO_BLOCK)
        pts = points[block]
        rho[block], limited[block] = _bisect_block(_block_functional(spec, grid, pts),
                                                   len(pts), grid)
    return rho, limited


def compute_rho(spec: PotentialSpec, grid: Grid, x):
    """Critical radius: sup{r : r^(2-n) * int_{B(x,r)} V <= 1} by bisection.

    Returns (rho, box_limited): the bracket top is flagged box-limited when
    the functional never reaches 1 inside the box diameter.
    """
    if is_zero(spec):
        raise ValueError("critical radius undefined for the zero potential")
    x = np.asarray(x, dtype=float).reshape(1, grid.dimension)
    rho, limited = _critical_radii(spec, grid, x)
    return float(rho[0]), bool(limited[0])


@dataclass(frozen=True)
class AuxFunction:
    grid: Grid
    rho: np.ndarray
    box_limited: np.ndarray


def compute_aux_function(spec: PotentialSpec, grid: Grid, indices=None) -> AuxFunction:
    """rho on the grid, or only at `indices` with NaN elsewhere.

    The zero potential gets the +inf sentinel at every point.
    """
    flags = np.zeros(grid.size, dtype=bool)
    if is_zero(spec):
        return AuxFunction(grid, np.full(grid.size, np.inf), flags)
    rho = np.full(grid.size, np.nan)
    idx = np.arange(grid.size) if indices is None else np.asarray(indices)
    if spec.kind == "constant":       # rho is the same at every point
        rho[idx], flags[idx] = compute_rho(spec, grid, grid.points[idx[0]])
    else:
        rho[idx], flags[idx] = _critical_radii(spec, grid, grid.points[idx])
    return AuxFunction(grid, rho, flags)
