"""Discrete Schrodinger operator -Delta_h + V, its eigenbasis, and multiplier kernels.

The full eigendecomposition makes every bounded spectral multiplier exact to
roundoff, so this route serves as the in-repo ground truth for the
subordination and time-quadrature routes. A tridiagonal operator (n = 1 with
Dirichlet walls) is solved on its two diagonals by LAPACK's MRRR driver
`stemr`; every other operator goes to dense `eigh` (`syevr`). `syevr` reduces
the matrix to tridiagonal form, which leaves a tridiagonal matrix as it is
with an identity back-transform, and then runs the same `stemr` on the same
diagonals: both routes give the same bits.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .grid import Grid, GridFunction, grid_function
from .potentials import PotentialSpec, eval_on_grid

SIZE_CAPS = {1: 512, 2: 48, 3: 16}


@dataclass(frozen=True)
class DiscreteOperator:
    grid: Grid
    matrix: np.ndarray = field(repr=False)


@dataclass(frozen=True)
class SpectralDecomposition:
    grid: Grid
    eigenvalues: np.ndarray = field(repr=False)   # ascending, clipped at 0
    basis: np.ndarray = field(repr=False)         # columns orthonormal wrt h^n inner product
    has_zero_mode: bool

    @property
    def positive_min(self) -> float:
        pos = self.eigenvalues[self.eigenvalues > 1e-12]
        return float(pos[0])

    @property
    def lam_max(self) -> float:
        return float(self.eigenvalues[-1])

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        """Expansion coefficients <f, phi_k> under the weighted inner product."""
        return (self.basis.T @ values) * self.grid.cell_weight

    def synthesize(self, coeff: np.ndarray) -> np.ndarray:
        return self.basis @ coeff


@dataclass(frozen=True)
class KernelSlice:
    grid: Grid
    table: np.ndarray = field(repr=False)   # (len(rows), N), 1/volume units
    rows: np.ndarray | None = field(default=None, repr=False)   # None: all N rows

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.table)))

    def row_masses(self) -> np.ndarray:
        """integral of K(x, y) dy per computed row x."""
        return np.sum(self.table, axis=1) * self.grid.cell_weight


def _laplacian_1d(M: int, h: float, periodic: bool) -> np.ndarray:
    A = np.zeros((M, M))
    idx = np.arange(M)
    A[idx, idx] = 2.0 / h ** 2
    A[idx[:-1], idx[:-1] + 1] = -1.0 / h ** 2
    A[idx[1:], idx[1:] - 1] = -1.0 / h ** 2
    if periodic:
        A[0, M - 1] = A[M - 1, 0] = -1.0 / h ** 2
    return A


def assemble(grid: Grid, spec: PotentialSpec) -> DiscreteOperator:
    """Stencil Laplacian plus diagonal potential on the grid's point ordering."""
    n, M, h = grid.dimension, grid.points_per_axis, grid.spacing
    if M > SIZE_CAPS[n]:
        raise ValueError(f"points_per_axis {M} exceeds the dense-solver cap {SIZE_CAPS[n]} for n={n}")
    A1 = _laplacian_1d(M, h, grid.bc == "periodic")
    eye = np.eye(M)
    if n == 1:
        lap = A1
    elif n == 2:
        lap = np.kron(A1, eye) + np.kron(eye, A1)
    else:
        lap = (np.kron(np.kron(A1, eye), eye)
               + np.kron(np.kron(eye, A1), eye)
               + np.kron(np.kron(eye, eye), A1))
    matrix = lap + np.diag(eval_on_grid(spec, grid))
    return DiscreteOperator(grid, matrix)


def _eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and l2-orthonormal eigenvectors of the symmetric matrix A,
    on its diagonals when A has no entry off the three central ones."""
    band = sum(np.count_nonzero(np.diagonal(A, k)) for k in (-1, 0, 1))
    if np.count_nonzero(A) == band:
        try:
            return scipy.linalg.eigh_tridiagonal(np.diagonal(A), np.diagonal(A, -1),
                                                 lapack_driver="stemr")
        except scipy.linalg.LinAlgError:
            pass   # syevr falls back to bisection and inverse iteration where stemr fails
    return scipy.linalg.eigh(A)


def eigendecompose(op: DiscreteOperator) -> SpectralDecomposition:
    if not np.all(np.isfinite(op.matrix)):
        raise ValueError("operator has non-finite entries: the potential overflows on this grid")
    sym_defect = np.max(np.abs(op.matrix - op.matrix.T))
    if sym_defect > 1e-12:
        raise ValueError(f"operator not symmetric (defect {sym_defect:.2e})")
    lam, vec = _eigh(op.matrix)
    if lam[0] < -1e-10:
        raise RuntimeError(f"negative eigenvalue {lam[0]:.3e} from the eigensolver")
    lam = np.clip(lam, 0.0, None)
    # snap zero-mode roundoff to an exact zero so multipliers like sqrt(lam) vanish
    lam[lam <= 1e-12 * max(lam[-1], 1.0)] = 0.0
    # both routes return l2-orthonormal columns; rescale to the h^n-weighted inner product
    basis = vec / np.sqrt(op.grid.cell_weight)
    has_zero = bool(lam[0] <= 1e-10 * max(lam[-1], 1.0))
    return SpectralDecomposition(op.grid, lam, basis, has_zero)


def multiplier_kernel(dec: SpectralDecomposition, multiplier, t: float | None = None,
                      rows=None) -> KernelSlice:
    """K(x, y) = sum_k m(lam_k) phi_k(x) phi_k(y) for a bounded multiplier m.

    This is the one place the sandwich B diag(m) B^T is written. With `rows`
    (grid indices) only those rows x are computed, shaped (len(rows), N);
    each entry is the same dot product as in the full table. OpenBLAS gave
    the full table's bits for every block of four rows or more tried; one
    to three rows may take another kernel (gemv for one) and differ in the
    last place. Multiplier entries below 1e-300 in magnitude are set to 0
    first: their terms lie below the rounding of the table's entries, and
    subnormal products would make the matrix product up to 3x slower.
    `t` is not read; it keeps its place for callers that pass a time.
    """
    m = np.asarray(multiplier(dec.eigenvalues), dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("multiplier not finite on the spectrum")
    m = np.where(np.abs(m) < 1e-300, 0.0, m)
    left = dec.basis if rows is None else dec.basis[rows]
    table = (left * m[None, :]) @ dec.basis.T
    return KernelSlice(dec.grid, table, None if rows is None else np.asarray(rows))


def semigroup_multiplier(t, alpha: float = 1.0, power=0):
    """lam -> (t lam^alpha)^power e^{-t lam^alpha}, the multiplier of t^b d_t^b e^{-t L^alpha}.

    This is the one place the multiplier is written: power = 0 is the
    semigroup itself, alpha = 1 the heat family. It follows the real-normalized
    convention d_t^b e^{-at} = a^b e^{-at} of `fracderiv`, so an integer order
    drops the sign (-1)^b, which no consumer sees (scans take |object|, square
    functions square it); keep such an order an int so the power stays exact.
    An array `t` gives one row per time, (J, modes).
    """
    def multiplier(lam):
        tl = np.multiply.outer(t, lam ** alpha)
        decay = np.exp(-tl)
        return decay if power == 0 else tl ** power * decay
    return multiplier


def heat_kernel(dec: SpectralDecomposition, t: float) -> KernelSlice:
    return multiplier_kernel(dec, semigroup_multiplier(t))


def fractional_heat_kernel(dec: SpectralDecomposition, alpha: float, t: float) -> KernelSlice:
    return multiplier_kernel(dec, semigroup_multiplier(t, alpha))


def poisson_kernel(dec: SpectralDecomposition, t: float) -> KernelSlice:
    return multiplier_kernel(dec, semigroup_multiplier(t, 0.5))


def _require_full(K: KernelSlice, operation: str) -> None:
    if K.rows is not None:
        raise ValueError(f"{operation} needs the full kernel table, not a row block")


def apply_kernel(K: KernelSlice, f: GridFunction) -> GridFunction:
    _require_full(K, "apply_kernel")
    if f.grid.size != K.grid.size:
        raise ValueError("kernel and function live on different grids")
    return grid_function(K.grid, (K.table @ f.values) * K.grid.cell_weight)


def compose(K1: KernelSlice, K2: KernelSlice) -> KernelSlice:
    """Chapman-Kolmogorov composition (K1 o K2)(x, y) = int K1(x,z) K2(z,y) dz."""
    _require_full(K1, "compose")
    _require_full(K2, "compose")
    table = K1.table @ K2.table * K1.grid.cell_weight
    return KernelSlice(K1.grid, table)
