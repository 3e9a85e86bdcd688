"""Uniform box grids on [-L, L)^n with midpoint quadrature, balls and stencil metadata.

The box truncates R^n; cell centers sit at -L + (i + 1/2) h so that the
composite midpoint rule is exact for polynomials of degree <= 1 and the
point set is symmetric about the origin for even M.
"""

from dataclasses import dataclass, field

import numpy as np

DIRICHLET = "dirichlet"
PERIODIC = "periodic"


@dataclass(frozen=True)
class Grid:
    dimension: int
    half_width: float
    points_per_axis: int
    bc: str
    points: np.ndarray = field(repr=False)   # (M^n, n) flattened C-order

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / self.points_per_axis

    @property
    def cell_weight(self) -> float:
        return self.spacing ** self.dimension

    @property
    def size(self) -> int:
        return self.points_per_axis ** self.dimension

    def pair_distances(self, index=None) -> np.ndarray:
        """(k, k) distances in the grid's metric among `index` (all points when None)."""
        index = np.arange(self.size) if index is None else index
        return self.block_distances(index, index)

    def block_distances(self, rows, cols) -> np.ndarray:
        """(len(rows), len(cols)) distances in the grid's metric from the points
        `rows` to the points `cols`."""
        return point_distances(self.points[rows][:, None, :], self.points[cols][None, :, :],
                               self._period)

    def distances_from(self, center) -> np.ndarray:
        return point_distances(self.points, np.asarray(center, dtype=float), self._period)

    @property
    def _period(self) -> float | None:
        return 2.0 * self.half_width if self.bc == PERIODIC else None


def point_distances(a: np.ndarray, b: np.ndarray, period: float | None = None) -> np.ndarray:
    """Distances between the broadcast point arrays `a` and `b`, (..., n), with
    squared gaps summed one axis at a time, so that no (..., n) difference
    tensor is built; every axis reuses one gap buffer, so the peak is twice the
    result. With `period` each gap wraps to the nearest image."""
    shape = np.broadcast_shapes(a.shape[:-1], b.shape[:-1])
    sq, d = np.zeros(shape), np.empty(shape)
    for axis in range(a.shape[-1]):
        np.subtract(a[..., axis], b[..., axis], out=d)
        if period is not None:
            np.abs(d, out=d)
            np.minimum(d, period - d, out=d)
        d *= d
        sq += d
    return np.sqrt(sq, out=sq)


@dataclass(frozen=True)
class GridFunction:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.grid.size,):
            raise ValueError(
                f"value count {self.values.shape} does not match grid size {self.grid.size}"
            )

    def l2_norm(self) -> float:
        return float(np.sqrt(np.sum(self.values ** 2) * self.grid.cell_weight))


@dataclass(frozen=True)
class Ball:
    center: np.ndarray
    radius: float
    members: np.ndarray        # indices of grid points with dist < radius
    center_index: int          # the grid point nearest the centre


def build_grid(n: int, half_width: float, points_per_axis: int, bc: str = DIRICHLET) -> Grid:
    if n not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {n}")
    if half_width <= 0:
        raise ValueError("half_width must be positive")
    M = int(points_per_axis)
    if M % 2 != 0 or M < 8:
        raise ValueError(f"points_per_axis must be even and >= 8, got {M}")
    if bc not in (DIRICHLET, PERIODIC):
        raise ValueError(f"unknown boundary condition {bc!r}")
    h = 2.0 * half_width / M
    axis = -half_width + (np.arange(M) + 0.5) * h
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    return Grid(n, float(half_width), M, bc, points)


def grid_function(grid: Grid, values) -> GridFunction:
    return GridFunction(grid, np.asarray(values, dtype=float).ravel())


def ball_points(grid: Grid, center, radius: float, dist: np.ndarray | None = None) -> Ball:
    """The grid points within `radius` of `center`; `dist`, when given, holds
    `grid.distances_from(center)`, so that balls about one centre share it."""
    center = np.asarray(center, dtype=float).reshape(grid.dimension)
    if radius <= grid.spacing:
        raise ValueError(
            f"radius {radius} must exceed the grid spacing {grid.spacing}"
        )
    if dist is None:
        dist = grid.distances_from(center)
    members = np.nonzero(dist < radius)[0]
    if members.size == 0:
        raise ValueError("empty ball: radius too small for this grid")
    return Ball(center, float(radius), members, int(np.argmin(dist)))


def inner_box_mask(grid: Grid, fraction: float = 0.5) -> np.ndarray:
    """Points of the centered sub-box scaled by `fraction` (bound scans live here)."""
    limit = fraction * grid.half_width
    return np.all(np.abs(grid.points) <= limit + 1e-12, axis=1)


def gradient_values(grid: Grid, values: np.ndarray, axis: int | None = None) -> np.ndarray:
    """Second-order central differences of a grid function, (N, n).

    Dirichlet grids extend by zero outside the box (matching the operator's
    zero exterior values); periodic grids wrap. With `axis` given, only that
    partial derivative is returned, shaped like `values`; trailing columns
    are then independent grid functions (a kernel table K(x, y) is
    differentiated in x for every y, u(t, x) in x for every time t).
    `spaces.gradient_fields` differentiates all times of a member at once in
    this mode; the verifier's row-block gradient `estimates._axis0_gradient`
    is the interior case of this stencil, and the trailing-column mode is its
    test reference.
    """
    if axis is None:
        return np.stack([gradient_values(grid, values, d) for d in range(grid.dimension)],
                        axis=-1)
    M, h = grid.points_per_axis, grid.spacing
    v = values.reshape((M,) * grid.dimension + values.shape[1:])
    if grid.bc == PERIODIC:
        plus, minus = np.roll(v, -1, axis=axis), np.roll(v, 1, axis=axis)
    else:
        lead = (slice(None),) * axis
        head, tail = lead + (slice(None, -1),), lead + (slice(1, None),)
        plus, minus = np.zeros_like(v), np.zeros_like(v)
        plus[head], minus[tail] = v[tail], v[head]
    return ((plus - minus) / (2.0 * h)).reshape(values.shape)


def gauss_legendre_panels(edges: np.ndarray, nodes_per_panel: int):
    """Composite Gauss-Legendre nodes and weights on the panels between consecutive `edges`.

    Every one-dimensional integral of the package (subordination, fractional
    derivatives, the Fourier oracle) is built from this rule.
    """
    xg, wg = np.polynomial.legendre.leggauss(nodes_per_panel)
    nodes = np.concatenate([(0.5 * (b - a)) * xg + 0.5 * (a + b)
                            for a, b in zip(edges[:-1], edges[1:])])
    weights = np.concatenate([(0.5 * (b - a)) * wg for a, b in zip(edges[:-1], edges[1:])])
    return nodes, weights


def boundary_layer_mask(grid: Grid) -> np.ndarray:
    """Points within one cell of the box wall (True on the layer)."""
    if grid.bc == PERIODIC:
        return np.zeros(grid.size, dtype=bool)
    margin = grid.half_width - 1.5 * grid.spacing
    return np.any(np.abs(grid.points) > margin, axis=1)
