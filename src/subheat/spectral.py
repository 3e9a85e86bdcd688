"""Discrete Schrodinger operator -Delta_h + V, its eigenbasis, and multiplier kernels.

The full eigendecomposition makes every bounded spectral multiplier exact to
roundoff, so this route serves as the in-repo ground truth for the
subordination and time-quadrature routes. The solver is LAPACK's `dsyevr`,
the routine behind `scipy.linalg.eigh`, bit for bit, run as its own stages
(`_eigh`), each called through ctypes, which releases the GIL:

1. `dsytrd` reduces the matrix to a tridiagonal (d, e);
2. MRRR (`dstemr`) solves (d, e) in the calling thread while a worker thread
   runs bisection (`dstebz`) on the same (d, e);
3. only where MRRR fails, inverse iteration (`dstein`) computes the vectors
   of the bisection's eigenvalues;
4. `dormtr` applies the reduction's reflectors to the vectors;
5. `dsyevr`'s closing selection sort orders the eigenvalues.

`dsyevr` runs bisection only after MRRR has failed, and MRRR does fail (info
22) on operators whose lattice symmetry gives eigenvalues of exact
multiplicity; stage 2 overlaps the two. A tridiagonal operator (n = 1 with
Dirichlet walls) is solved on its two diagonals by `stemr`
(`scipy.linalg.eigh_tridiagonal`), and where that fails it enters stage 2
directly: `dsytrd` leaves a tridiagonal matrix as it is, with an identity
back-transform, so both routes give the same bits.

Every dense product of the package is `matmul`, which calls scipy's BLAS,
the library (and thread pool) the solver runs in. numpy and scipy each ship
their own OpenBLAS with its own worker threads, and a pool that has just
worked spins before it sleeps: on a box with few cores, numpy's `@` right
after the solver (or the solver right after a `@`) competes with the other
pool's spinning workers. `matmul` makes numpy's BLAS calls in scipy's
library, so its results are numpy's bits and the process runs one pool.
That pool is shut down after stage 1, so that its spinning workers leave
stage 2's two threads their CPUs, and started again before stage 4, while
no thread holds a BLAS buffer (left to stage 4's first BLAS call, the
restart lets the calling thread take a worker's buffer, and the process
keeps more memory resident).
"""

import ctypes
import math
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.linalg.cython_lapack
import scipy.linalg.lapack

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
    solver: str     # route and stage-2 solver: "tridiagonal"/"dense", then "mrrr"/"bisection"

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


_capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
    ("PyCapsule_GetName", ctypes.pythonapi))
_capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _lapack_routine(name: str, restype=None):
    """LAPACK's `name` from scipy's `cython_lapack` table, as a ctypes
    function whose every argument is a pointer."""
    capsule = scipy.linalg.cython_lapack.__pyx_capi__[name]
    signature = _capsule_name(capsule)
    functype = ctypes.CFUNCTYPE(restype, *[ctypes.c_void_p] * (signature.count(b",") + 1))
    return functype(_capsule_pointer(capsule, signature))


_LAPACK = {"dlansy": _lapack_routine("dlansy", ctypes.c_double),
           **{name: _lapack_routine(name)
              for name in ("dsytrd", "dstemr", "dstebz", "dstein", "dormtr")}}


def _by_reference(x) -> np.ndarray:
    if isinstance(x, np.ndarray):
        if not x.flags.forc:
            raise ValueError("LAPACK would read a strided array as contiguous")
        return x
    if isinstance(x, str):
        return np.frombuffer(x.encode(), np.uint8)
    return np.array([x], np.intc if isinstance(x, (int, np.integer)) else float)


def _lapack(name: str, *args):
    """Call LAPACK's `name` with every argument by reference: a str is a flag,
    an int an integer, a float a double and an array its (contiguous) data.
    Outputs are written into the arrays."""
    refs = [_by_reference(x) for x in args]
    return _LAPACK[name](*(r.ctypes.data for r in refs))


def _openblas() -> ctypes.CDLL | None:
    """scipy's OpenBLAS: the handle of the `cython_lapack` module, whose
    symbol lookups reach the object it links that exports
    `scipy_openblas_get_num_threads` (None where no such object is linked)."""
    lib = ctypes.CDLL(scipy.linalg.cython_lapack.__file__)
    return lib if hasattr(lib, "scipy_openblas_get_num_threads") else None


_OPENBLAS = _openblas()
_BLAS_THREAD_SHUTDOWN = getattr(_OPENBLAS, "blas_thread_shutdown_", None)
_BLAS_THREAD_INIT = getattr(_OPENBLAS, "blas_thread_init", None)

# dsyevr scales a matrix whose largest entry lies outside [_RMIN, _RMAX]
_SAFMIN, _EPS = np.finfo(float).tiny, np.finfo(float).eps
_RMIN = math.sqrt(_SAFMIN / _EPS)
_RMAX = min(math.sqrt(1.0 / (_SAFMIN / _EPS)), 1.0 / math.sqrt(math.sqrt(_SAFMIN)))


def _tridiagonal_eigh(d: np.ndarray, e: np.ndarray, z: np.ndarray,
                      scratch: np.ndarray) -> tuple[np.ndarray, str]:
    """Stages 2 and 3 on the tridiagonal with diagonal d and subdiagonal e
    (contiguous, kept): the eigenvalues and their solver, with the vectors
    written into the F-ordered N x N z. MRRR works on copies of d and e in
    `scratch` (24 N entries: the copies, MRRR's 18 N, then bisection's 4 N)
    while a worker thread bisects the originals. The worker is joined even
    where MRRR succeeds, so that no thread outlives the call or holds its
    buffers."""
    n = d.size
    dd, ee = scratch[:n], scratch[n:2 * n]
    work, work_bisect = scratch[2 * n:20 * n], scratch[20 * n:24 * n]
    dd[:] = d
    ee[:n - 1] = e[:n - 1]
    iwork = np.empty(15 * n, np.intc)    # MRRR's 10 N, then bisection's blocks, splits and 3 N
    iblock, isplit, iwork_bisect = iwork[10 * n:11 * n], iwork[11 * n:12 * n], iwork[12 * n:]
    w, w_bisect, isuppz = np.empty(n), np.empty(n), np.empty(2 * n, np.intc)
    m, m_bisect, nsplit, info = (np.zeros(1, np.intc) for _ in range(4))
    info_bisect = np.full(1, -1, np.intc)   # dstebz zeroes it; -1 stays where the worker raised first

    def bisect():
        _lapack("dstebz", "A", "B", n, 0.0, 0.0, 0, 0, 0.0, d, e, m_bisect, nsplit, w_bisect,
                iblock, isplit, work_bisect, iwork_bisect, info_bisect)
    worker = threading.Thread(target=bisect)
    worker.start()
    _lapack("dstemr", "V", "A", n, dd, ee, 0.0, 0.0, 0, 0, m, w, z, n, n, isuppz, 1,
            work, work.size, iwork, 10 * n, info)
    worker.join()
    if info[0] == 0:
        return w, "mrrr"
    if info_bisect[0] == 0:
        _lapack("dstein", n, d, e, m_bisect, w_bisect, iblock, isplit, z, n, work, iwork[:n],
                iwork[n:2 * n], info_bisect)
    if info_bisect[0] != 0:
        raise scipy.linalg.LinAlgError(f"bisection and inverse iteration failed (info "
                                       f"{info_bisect[0]}) where MRRR had failed (info {info[0]})")
    return w_bisect, "bisection"


def _dense_eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, str]:
    """`dsyevr`'s stages 1 to 4 on the symmetric A (its lower triangle), in
    one workspace sliced as `dsyevr` slices it: the reduction's tau, d and e,
    then stage 2's scratch. Its workspace sizes are `dsyevr`'s, on which the
    blocking of `dsytrd` and `dormtr`, and so their bits, depend."""
    n = A.shape[0]
    a = np.array(A, order="F")
    lwork = int(scipy.linalg.lapack.dsyevr_lwork(n, lower=1)[0])
    work = np.empty(max(lwork, 27 * n))
    tau, d, e = work[:n], work[n:2 * n], work[2 * n:3 * n]
    anrm = _lapack("dlansy", "M", "L", n, a, n, work)
    sigma = _RMIN / anrm if 0.0 < anrm < _RMIN else _RMAX / anrm if anrm > _RMAX else 1.0
    if sigma != 1.0:
        a *= sigma
    info = np.zeros(1, np.intc)
    _lapack("dsytrd", "L", n, a, n, d, e, tau, work[5 * n:], lwork - 5 * n, info)
    pool = _BLAS_THREAD_SHUTDOWN is not None and _BLAS_THREAD_INIT is not None
    if pool:
        _BLAS_THREAD_SHUTDOWN()
    z = np.empty((n, n), order="F")
    w, solver = _tridiagonal_eigh(d, e, z, work[3 * n:])
    if pool:
        _BLAS_THREAD_INIT()
    _lapack("dormtr", "L", "L", "N", n, n, a, n, tau, z, n, work[2 * n:], lwork - 2 * n, info)
    if sigma != 1.0:
        w *= 1.0 / sigma
    return w, z, solver


def _eigh(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, str]:
    """Eigenvalues, l2-orthonormal eigenvectors (F-ordered) and the route
    and stage-2 solver behind them ("dense" or "tridiagonal", then "mrrr" or
    "bisection") for the symmetric matrix A: the bits of
    `scipy.linalg.eigh(A)`. A dense A takes stages 1 to 4 (`_dense_eigh`).
    An A with no entry off its three central diagonals goes to `stemr` on
    those diagonals, and where that fails to stages 2 and 3 directly, with
    no reduction and no back-transform. Stage 5, `dsyevr`'s selection sort,
    closes both routes; it moves columns only after bisection, which orders
    its eigenvalues within each split block."""
    band = sum(np.count_nonzero(np.diagonal(A, k)) for k in (-1, 0, 1))
    if np.count_nonzero(A) == band:
        d, e = np.diagonal(A).copy(), np.diagonal(A, -1).copy()
        try:
            w, z = scipy.linalg.eigh_tridiagonal(d, e, lapack_driver="stemr")
            return w, z, "tridiagonal mrrr"
        except scipy.linalg.LinAlgError:
            z = np.empty(A.shape, order="F")
            w, solver = _tridiagonal_eigh(d, e, z, np.empty(24 * d.size))
            route = "tridiagonal"
    else:
        w, z, solver = _dense_eigh(A)
        route = "dense"
    if np.any(w[1:] < w[:-1]):    # dsyevr's selection sort, which moves nothing otherwise
        for j in range(w.size - 1):
            k = j + 1 + int(np.argmin(w[j + 1:]))
            if w[k] < w[j]:
                w[[j, k]], z[:, [j, k]] = w[[k, j]], z[:, [k, j]]
    return w, z, f"{route} {solver}"


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
    lam, vec, solver = _eigh(A)
    if lam[0] < -1e-10:
        raise RuntimeError(f"negative eigenvalue {lam[0]:.3e} from the eigensolver")
    lam = np.clip(lam, 0.0, None)
    # snap zero-mode roundoff to an exact zero so multipliers like sqrt(lam) vanish
    lam[lam <= 1e-12 * max(lam[-1], 1.0)] = 0.0
    # both routes return l2-orthonormal columns; rescale to the h^n-weighted inner product
    basis = vec / np.sqrt(op.grid.cell_weight)
    has_zero = bool(lam[0] <= 1e-10 * max(lam[-1], 1.0))
    return SpectralDecomposition(op.grid, lam, basis, has_zero, solver)


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
