"""Discrete Schrodinger operator -Delta_h + V, its eigenbasis, and multiplier kernels.

The full eigendecomposition makes every bounded spectral multiplier exact to
roundoff, so this route serves as the in-repo ground truth for the
subordination and time-quadrature routes. A tridiagonal operator (n = 1 with
Dirichlet walls) is solved on its two diagonals by LAPACK's MRRR driver
`stemr`; every other operator goes to dense `eigh` (`syevr`). `syevr` reduces
the matrix to tridiagonal form, which leaves a tridiagonal matrix as it is
with an identity back-transform, and then runs the same `stemr` on the same
diagonals: both routes give the same bits.

Every dense product of the package is `matmul`, which calls scipy's BLAS,
the library (and thread pool) `eigh` runs in. numpy and scipy each ship
their own OpenBLAS with its own worker threads, and a pool that has just
worked spins before it sleeps: on a box with few cores, numpy's `@` right
after `eigh` (or `eigh` right after a `@`) competes with the other pool's
spinning workers. `matmul` makes numpy's BLAS calls in scipy's library, so
its results are numpy's bits and the process runs one pool.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .grid import Grid, GridFunction, grid_function
from .potentials import PotentialSpec, eval_on_grid

SIZE_CAPS = {1: 512, 2: 48, 3: 16}
CHECK_BLOCK = 1 << 20    # entries per row block of the operator checks (8 MB)


def _gemv(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for a 2-D a and a 1-D x, as numpy's gemv call makes it."""
    if a.T.flags.f_contiguous:
        return scipy.linalg.blas.dgemv(1.0, a.T, x, trans=1)
    return scipy.linalg.blas.dgemv(1.0, a, x)


def _strided_vector(name: str, call: str) -> ValueError:
    return ValueError(f"matmul: operand {name} is a strided vector, whose numpy product "
                      f"no {call} call here reproduces; pass a contiguous copy")


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for float64 arrays of one or two dimensions, in scipy's BLAS,
    bit for bit numpy's result.

    numpy's dispatch is mirrored call for call. One row in a (or a 1-D a)
    and one column in b (or a 1-D b) is a `ddot`, added to 0.0 as numpy
    adds it; one row in a alone, or one column in b alone, is a `dgemv`;
    everything else is one column-major `dgemm` for C^T = B^T A^T. Each
    matrix goes in as its transpose view when that view is F-contiguous
    (no transpose flag), else as itself (transpose flag), which f2py copies
    to Fortran order if it is not already. The result is the .T of dgemm's
    Fortran-ordered output, C-contiguous as numpy's is. Not mirrored, and
    passed by no caller: numpy's `syrk` for `x @ x.T`.

    A vector numpy would not hand to this call raises ValueError naming the
    operand: a non-unit stride in a `ddot` (numpy passes the stride, and
    `ddot` then sums in another order; a column of a 512 x 512 matrix differs
    in the last place) and a negative or zero stride in a `dgemv` (a reversed
    column differs too). A positive stride in a `dgemv` keeps numpy's bits.
    """
    shape = a.shape[:-1] + b.shape[1:]
    one_row = a.ndim == 1 or a.shape[0] == 1
    one_col = b.ndim == 1 or b.shape[1] == 1
    if one_row and one_col:
        if not (a.flags.c_contiguous and b.flags.c_contiguous):
            raise _strided_vector("a" if not a.flags.c_contiguous else "b", "ddot")
        dot = np.float64(0.0 + scipy.linalg.blas.ddot(a.ravel(), b.ravel()))
        return dot.reshape(shape) if shape else dot
    if one_row:
        if a.strides[-1] <= 0:
            raise _strided_vector("a", "dgemv")
        return _gemv(b.T, a.ravel()).reshape(shape)
    if one_col:
        if b.strides[0] <= 0:
            raise _strided_vector("b", "dgemv")
        return _gemv(a, b.ravel()).reshape(shape)
    trans_b, left = (0, b.T) if b.T.flags.f_contiguous else (1, b)
    trans_a, right = (0, a.T) if a.T.flags.f_contiguous else (1, a)
    return scipy.linalg.blas.dgemm(1.0, left, right, trans_a=trans_b, trans_b=trans_a).T


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
        return matmul(self.basis.T, values) * self.grid.cell_weight

    def synthesize(self, coeff: np.ndarray) -> np.ndarray:
        return matmul(self.basis, coeff)

    @cached_property
    def mode_sums(self) -> np.ndarray:
        """h^n sum_y phi_k(y) per mode k, the coefficients of the constant 1."""
        return self.coefficients(np.ones(self.grid.size))


@dataclass(frozen=True)
class KernelBlock:
    """The factors of a kernel block, gathered once for every multiplier:
    B[rows] and a C-contiguous B[cols]^T (None: every row or column)."""

    rows: np.ndarray | None
    cols: np.ndarray | None
    left: np.ndarray = field(repr=False)
    right: np.ndarray = field(repr=False)


def kernel_block(dec: SpectralDecomposition, rows=None, cols=None) -> KernelBlock:
    """The block at the grid indices `rows` x `cols`. The full right factor is
    the transposed view of the basis, which LAPACK leaves F-contiguous, so a
    column block, copied to C order, reaches `matmul` in the same layout."""
    rows = None if rows is None else np.asarray(rows)
    cols = None if cols is None else np.asarray(cols)
    return KernelBlock(rows, cols, dec.basis if rows is None else dec.basis[rows],
                       dec.basis.T if cols is None else np.ascontiguousarray(dec.basis[cols].T))


@dataclass(frozen=True)
class KernelSlice:
    grid: Grid
    table: np.ndarray = field(repr=False)   # (len(rows), len(cols)), 1/volume units
    rows: np.ndarray | None = field(default=None, repr=False)   # None: all N rows
    cols: np.ndarray | None = field(default=None, repr=False)   # None: all N columns
    masses: np.ndarray | None = field(default=None, repr=False)  # per row; None: closed form

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.table)))

    def row_masses(self) -> np.ndarray:
        """integral of K(x, y) dy per computed row x, from the mode sums."""
        if self.masses is None:
            raise ValueError("row_masses needs a spectral kernel: a closed-form table "
                             "has no mode sums")
        return self.masses


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
    """Stencil Laplacian plus diagonal potential on the grid's point ordering.

    The Kronecker sum of the 1-D stencil over the axes is written straight
    into the one N x N array: an off-diagonal entry belongs to exactly one
    axis and is that axis's stencil entry, and the diagonal adds the axes'
    diagonal entries in axis order and then V, the order of the sum
    kron(A1, I) + kron(I, A1) + ... + diag(V), so every entry has its bits.
    """
    n, M, h = grid.dimension, grid.points_per_axis, grid.spacing
    if M > SIZE_CAPS[n]:
        raise ValueError(f"points_per_axis {M} exceeds the dense-solver cap {SIZE_CAPS[n]} for n={n}")
    A1 = _laplacian_1d(M, h, grid.bc == "periodic")
    src, dst = np.nonzero(~np.eye(M, dtype=bool) & (A1 != 0.0))
    index = np.arange(grid.size).reshape((M,) * n)
    matrix = np.zeros((grid.size, grid.size))
    diagonal = np.zeros((M,) * n)
    for axis in range(n):
        others = [k for k in range(n) if k != axis]
        diagonal = diagonal + np.expand_dims(np.diagonal(A1), others)
        rows, cols = np.take(index, src, axis=axis), np.take(index, dst, axis=axis)
        matrix[rows, cols] = np.expand_dims(A1[src, dst], others)
    np.fill_diagonal(matrix, diagonal.ravel() + eval_on_grid(spec, grid))
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
    A = op.matrix
    sym_defect = 0.0
    step = max(1, CHECK_BLOCK // A.shape[0])
    for i in range(0, A.shape[0], step):    # row blocks: no N x N temporary
        block = A[i:i + step]
        if not np.all(np.isfinite(block)):
            raise ValueError("operator has non-finite entries: the potential overflows on this grid")
        sym_defect = max(sym_defect, float(np.max(np.abs(block - A[:, i:i + step].T))))
    if sym_defect > 1e-12:
        raise ValueError(f"operator not symmetric (defect {sym_defect:.2e})")
    lam, vec = _eigh(A)
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
                      block: KernelBlock | None = None) -> KernelSlice:
    """K(x, y) = sum_k m(lam_k) phi_k(x) phi_k(y) for a bounded multiplier m.

    This is the one place the sandwich B diag(m) B^T is written, as
    (B[rows] * m) @ B[cols]^T on the factors of `block` (`kernel_block`;
    None: the full table). The row masses, integral of K(x, y) dy, are
    (B[rows] * m) @ `dec.mode_sums`, so a block of any width has them. Each
    table entry is the same dot product as in the full table, but OpenBLAS
    picks its kernel by the product's shape, so a block may differ from the
    full table in the last place; one to three rows may take another kernel
    (gemv for one). Multiplier entries below 1e-300 in magnitude are set to
    0 first: their terms lie below the rounding of the table's entries, and
    subnormal products would make the matrix product up to 3x slower. `t`
    is not read; it keeps its place for callers that pass a time.
    """
    m = np.asarray(multiplier(dec.eigenvalues), dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("multiplier not finite on the spectrum")
    m = np.where(np.abs(m) < 1e-300, 0.0, m)
    block = kernel_block(dec) if block is None else block
    weighted = block.left * m
    return KernelSlice(dec.grid, matmul(weighted, block.right), block.rows, block.cols,
                       matmul(weighted, dec.mode_sums))


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
    for name, block in (("row", K.rows), ("column", K.cols)):
        if block is not None:
            raise ValueError(f"{operation} needs the full kernel table, not a {name} block")


def apply_kernel(K: KernelSlice, f: GridFunction) -> GridFunction:
    _require_full(K, "apply_kernel")
    if f.grid.size != K.grid.size:
        raise ValueError("kernel and function live on different grids")
    return grid_function(K.grid, matmul(K.table, f.values) * K.grid.cell_weight)


def compose(K1: KernelSlice, K2: KernelSlice) -> KernelSlice:
    """Chapman-Kolmogorov composition (K1 o K2)(x, y) = int K1(x,z) K2(z,y) dz."""
    _require_full(K1, "compose")
    _require_full(K2, "compose")
    table = matmul(K1.table, K2.table) * K1.grid.cell_weight
    return KernelSlice(K1.grid, table)
