import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from oracles import kron_operator
from subheat.closedform import (gaussian_heat_table, gaussian_heat_value,
                                oscillator_heat_value, poisson_value)
from subheat.grid import build_grid, from_callable, grid_function
from subheat.potentials import constant, power, sum_of, well, zero
from subheat.spectral import (DiscreteOperator, apply_kernel, assemble, compose,
                              eigendecompose, fractional_heat_kernel, heat_kernel,
                              kernel_block, matmul, multiplier_kernel, poisson_kernel,
                              semigroup_multiplier)


@pytest.fixture(scope="module")
def periodic_free():
    g = build_grid(1, 16.0, 256, "periodic")
    return eigendecompose(assemble(g, zero()))


@pytest.fixture(scope="module")
def dirichlet_flat():
    g = build_grid(1, 16.0, 256, "dirichlet")
    return eigendecompose(assemble(g, constant(1.0)))


def test_periodic_row_sums_vanish():
    g = build_grid(1, 16.0, 64, "periodic")
    op = assemble(g, zero())
    assert np.max(np.abs(op.matrix.sum(axis=1))) < 1e-10


def test_stencil_entries_with_flat_potential():
    g = build_grid(1, 16.0, 64, "periodic")
    op = assemble(g, constant(1.0))
    h = g.spacing
    assert op.matrix[3, 3] == pytest.approx(2.0 / h ** 2 + 1.0)
    assert op.matrix[3, 4] == pytest.approx(-1.0 / h ** 2)


def test_dirichlet_ground_state_vs_continuum():
    g = build_grid(1, 16.0, 256, "dirichlet")
    dec = eigendecompose(assemble(g, zero()))
    target = (np.pi / 32.0) ** 2
    assert dec.eigenvalues[0] == pytest.approx(target, rel=0.02)


def test_periodic_spectrum_is_discrete_fourier():
    g = build_grid(1, 16.0, 64, "periodic")
    dec = eigendecompose(assemble(g, zero()))
    h, M = g.spacing, g.points_per_axis
    ks = np.arange(M)
    expect = np.sort((2.0 / h ** 2) * (1.0 - np.cos(2.0 * np.pi * ks / M)))
    assert np.allclose(np.sort(dec.eigenvalues), expect, atol=1e-8)
    # nonzero eigenvalues come in pairs
    lam = np.sort(dec.eigenvalues)[1:-1]
    assert np.allclose(lam[::2], lam[1::2], atol=1e-8)


def test_constant_shift_of_spectrum():
    g = build_grid(1, 16.0, 64, "periodic")
    lam0 = eigendecompose(assemble(g, zero())).eigenvalues
    lam1 = eigendecompose(assemble(g, constant(3.0))).eigenvalues
    assert np.allclose(lam1, lam0 + 3.0, atol=1e-8)


def test_orthonormality_and_residual(dirichlet_flat):
    dec = dirichlet_flat
    gram = dec.basis.T @ dec.basis * dec.grid.cell_weight
    assert np.max(np.abs(gram - np.eye(dec.grid.size))) < 1e-8
    op = assemble(dec.grid, constant(1.0))
    resid = op.matrix @ dec.basis - dec.basis * dec.eigenvalues[None, :]
    scale = 1.0 + dec.eigenvalues[None, :]
    assert np.max(np.abs(resid) / scale) < 1e-8


def test_identity_multiplier_is_discrete_delta(dirichlet_flat):
    dec = dirichlet_flat
    K = multiplier_kernel(dec, lambda lam: np.ones_like(lam))
    expect = np.eye(dec.grid.size) / dec.grid.cell_weight
    assert np.max(np.abs(K.table - expect)) < 1e-6


def test_wrapped_gaussian_diagonal_value():
    g = build_grid(1, 16.0, 512, "periodic")
    dec = eigendecompose(assemble(g, zero()))
    K = heat_kernel(dec, 1.0)
    diag = K.table[g.size // 2, g.size // 2]
    assert diag == pytest.approx((4.0 * np.pi) ** -0.5, abs=1e-4)


def test_poisson_equals_fractional_half(dirichlet_flat):
    dec = dirichlet_flat
    Kp = poisson_kernel(dec, 0.7)
    Kf = fractional_heat_kernel(dec, 0.5, 0.7)
    assert np.max(np.abs(Kp.table - Kf.table)) < 1e-12


def test_apply_kernel_eigenrelation(dirichlet_flat):
    dec = dirichlet_flat
    K = heat_kernel(dec, 0.5)
    k = 5
    phi = grid_function(dec.grid, dec.basis[:, k])
    out = apply_kernel(K, phi)
    assert np.max(np.abs(out.values - np.exp(-0.5 * dec.eigenvalues[k]) * phi.values)) < 1e-8


def test_delta_applied_returns_function(dirichlet_flat):
    dec = dirichlet_flat
    K = multiplier_kernel(dec, lambda lam: np.ones_like(lam))
    f = from_callable(dec.grid, lambda p: np.exp(-p[:, 0] ** 2) * np.sin(p[:, 0]))
    out = apply_kernel(K, f)
    assert np.max(np.abs(out.values - f.values)) < 1e-8


def test_heat_conserves_constants_periodic(periodic_free):
    dec = periodic_free
    K = heat_kernel(dec, 1.0)
    ones = grid_function(dec.grid, np.ones(dec.grid.size))
    out = apply_kernel(K, ones)
    assert np.max(np.abs(out.values - 1.0)) < 1e-10


def test_kernel_axioms_positivity_symmetry(dirichlet_flat):
    dec = dirichlet_flat
    for t in (0.25, 1.0, 4.0):
        K = heat_kernel(dec, t)
        assert K.table.min() >= -1e-10
        assert np.max(np.abs(K.table - K.table.T)) <= 1e-8


def test_chapman_kolmogorov(dirichlet_flat):
    dec = dirichlet_flat
    for s in (0.25, 0.5, 1.0):
        for t in (0.25, 0.5, 1.0):
            direct = heat_kernel(dec, s + t)
            comp = compose(heat_kernel(dec, s), heat_kernel(dec, t))
            assert np.max(np.abs(direct.table - comp.table)) <= 1e-6


def test_approximate_identity(dirichlet_flat):
    dec = dirichlet_flat
    f = from_callable(dec.grid, lambda p: np.exp(-2.0 * p[:, 0] ** 2))
    errs = []
    for t in (1e-1, 1e-2, 1e-3):
        out = apply_kernel(heat_kernel(dec, t), f)
        errs.append(np.max(np.abs(out.values - f.values)))
    assert errs[0] > errs[1] > errs[2]
    assert errs[-1] < 5e-3


def test_mass_bounded_by_one_dirichlet(dirichlet_flat):
    dec = dirichlet_flat
    for t in (0.05, 0.25, 1.0, 4.0):
        masses = heat_kernel(dec, t).row_masses()
        assert masses.max() <= 1.0 + 1e-8


def test_fractional_semigroup_property(dirichlet_flat):
    dec = dirichlet_flat
    alpha = 0.7
    direct = fractional_heat_kernel(dec, alpha, 1.5)
    comp = compose(fractional_heat_kernel(dec, alpha, 0.5),
                   fractional_heat_kernel(dec, alpha, 1.0))
    assert np.max(np.abs(direct.table - comp.table)) <= 1e-8


def test_spectral_matches_oscillator_closed_form():
    g = build_grid(1, 16.0, 256, "dirichlet")
    dec = eigendecompose(assemble(g, power(2.0)))
    K = heat_kernel(dec, 0.5)
    x = g.points[:, 0]
    mask = np.abs(x) <= 4.0
    approx = K.table[np.ix_(mask, mask)]
    exact = oscillator_heat_value(x[mask][:, None], x[mask][None, :], 0.5)
    # O(h^2) stencil dispersion bounds the gap at this resolution
    assert np.max(np.abs(approx - exact)) < 2e-3


def test_closed_form_tables():
    g = build_grid(1, 16.0, 128, "dirichlet")
    K = gaussian_heat_table(g, 1.0)
    i = g.size // 2
    assert K.table[i, i] == pytest.approx((4 * np.pi) ** -0.5)
    r = np.abs(g.points[:, 0] - g.points[i, 0])
    assert np.allclose(K.table[i], gaussian_heat_value(r, 1.0, 1), rtol=1e-12)
    assert poisson_value(0.0, 1.0, 1) == pytest.approx(1.0 / np.pi)


def test_size_cap_enforced():
    assemble(build_grid(2, 8.0, 48, "periodic"), zero())  # at the cap, fine
    with pytest.raises(ValueError):
        assemble(build_grid(3, 2.0, 18, "dirichlet"), zero())


@pytest.mark.parametrize("n, M, bc", [(1, 128, "dirichlet"), (2, 16, "periodic")])
@pytest.mark.parametrize("t, alpha, power_", [(0.05, 1.0, 0), (1.0, 0.5, 1), (64.0, 0.3, 2)])
def test_row_block_equals_the_full_tables_rows(n, M, bc, t, alpha, power_):
    """A row block has the full table's bits; its row masses, from the mode
    sums, are the table's row sums to 1e-12 of each row's integral of |K|."""
    dec = eigendecompose(assemble(build_grid(n, 16.0, M, bc), power(2.0)))
    mult = semigroup_multiplier(t, alpha, power_)
    full = multiplier_kernel(dec, mult).table
    w = dec.grid.cell_weight
    rng = np.random.default_rng(0)
    for rows in (np.arange(4), np.sort(rng.choice(dec.grid.size, 37, replace=False)),
                 rng.permutation(dec.grid.size)[: dec.grid.size // 3]):
        K = multiplier_kernel(dec, mult, block=kernel_block(dec, rows))
        assert K.table.shape == (rows.size, dec.grid.size)
        assert np.array_equal(K.rows, rows)
        assert np.array_equal(K.table, full[rows])
        scale = np.sum(np.abs(full[rows]), axis=1) * w
        assert np.all(np.abs(K.row_masses() - np.sum(full[rows], axis=1) * w) <= 1e-12 * scale)


def test_subnormal_flush_leaves_the_table_unchanged():
    dec = eigendecompose(assemble(build_grid(1, 16.0, 256, "dirichlet"), constant(1.0)))
    m = semigroup_multiplier(64.0, 0.5)(dec.eigenvalues)
    assert np.count_nonzero((m > 0.0) & (m < np.finfo(float).tiny)) >= 5   # subnormal-heavy
    unflushed = (dec.basis * m[None, :]) @ dec.basis.T
    assert np.array_equal(multiplier_kernel(dec, semigroup_multiplier(64.0, 0.5)).table,
                          unflushed)


def test_row_block_refuses_full_table_operations(dirichlet_flat):
    dec = dirichlet_flat
    part = multiplier_kernel(dec, semigroup_multiplier(1.0),
                             block=kernel_block(dec, np.arange(8)))
    f = grid_function(dec.grid, np.ones(dec.grid.size))
    with pytest.raises(ValueError):
        apply_kernel(part, f)
    with pytest.raises(ValueError):
        compose(part, heat_kernel(dec, 1.0))
    with pytest.raises(ValueError):
        compose(heat_kernel(dec, 1.0), part)


@pytest.mark.parametrize("operation", ["apply_kernel", "compose_left", "compose_right"])
def test_column_block_refuses_full_table_operations(dirichlet_flat, operation):
    """A table at a few columns holds no whole row: its action on a function
    and its compositions raise as a row block's do. (Its row masses come from
    the mode sums, so it has them.)"""
    dec = dirichlet_flat
    block = kernel_block(dec, cols=np.arange(0, dec.grid.size, 3))
    part = multiplier_kernel(dec, semigroup_multiplier(1.0), block=block)
    assert part.table.shape == (dec.grid.size, part.cols.size) and part.rows is None
    f = grid_function(dec.grid, np.ones(dec.grid.size))
    run = {"apply_kernel": lambda: apply_kernel(part, f),
           "compose_left": lambda: compose(part, heat_kernel(dec, 1.0)),
           "compose_right": lambda: compose(heat_kernel(dec, 1.0), part)}[operation]
    with pytest.raises(ValueError, match="column block"):
        run()


CATALOG = {"zero": zero(), "constant": constant(1.0), "power": power(2.0),
           "well": well(3.0, 2.0, 1.5), "sum": sum_of(power(0.5), well(2.0, 4.0))}


def _dense_reference(op):
    """`eigendecompose` with every operator on dense `scipy.linalg.eigh`."""
    lam, vec = scipy.linalg.eigh(op.matrix)
    lam = np.clip(lam, 0.0, None)
    lam[lam <= 1e-12 * max(lam[-1], 1.0)] = 0.0
    return lam, vec / np.sqrt(op.grid.cell_weight)


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(scipy.linalg, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    monkeypatch.setattr(scipy.linalg, name, counted)
    return calls


@pytest.mark.parametrize("M", [8, 64, 512])
@pytest.mark.parametrize("kind", sorted(CATALOG))
def test_tridiagonal_route_gives_the_dense_bits(monkeypatch, kind, M):
    """n = 1 Dirichlet is solved on its diagonals, to the bits of dense eigh."""
    op = assemble(build_grid(1, 16.0, M, "dirichlet"), CATALOG[kind])
    calls = _count_calls(monkeypatch, "eigh_tridiagonal")
    dec = eigendecompose(op)
    assert calls == ["eigh_tridiagonal"]
    lam, basis = _dense_reference(op)
    assert np.array_equal(dec.eigenvalues, lam)
    assert np.array_equal(dec.basis, basis)


@pytest.mark.parametrize("n, M, bc", [(1, 64, "periodic"), (2, 12, "dirichlet"),
                                      (2, 12, "periodic"), (3, 8, "dirichlet"),
                                      (3, 8, "periodic")])
def test_operators_off_three_diagonals_stay_dense(monkeypatch, n, M, bc):
    """Periodic corners and the n >= 2 stencil keep the dense solver."""
    op = assemble(build_grid(n, 4.0, M, bc), power(2.0))
    tridiagonal = _count_calls(monkeypatch, "eigh_tridiagonal")
    dense = _count_calls(monkeypatch, "eigh")
    eigendecompose(op)
    assert tridiagonal == [] and dense == ["eigh"]


def test_failed_tridiagonal_solve_falls_back_to_the_dense_bits(monkeypatch):
    op = assemble(build_grid(1, 16.0, 128, "dirichlet"), power(2.0))

    def failing(*args, **kwargs):
        raise scipy.linalg.LinAlgError("stemr (eigh_tridiagonal) failed")
    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", failing)
    dec = eigendecompose(op)
    lam, basis = _dense_reference(op)
    assert np.array_equal(dec.eigenvalues, lam)
    assert np.array_equal(dec.basis, basis)


# --- the one matrix product ---------------------------------------------------

@pytest.fixture(scope="module", params=[(1, 512, power(2.0)), (2, 24, constant(1.0)),
                                        (2, 32, power(2.0))],
                ids=["n1-M512-power2", "n2-M24-constant1", "n2-M32-power2"])
def workload_dec(request):
    n, M, spec = request.param
    return eigendecompose(assemble(build_grid(n, 16.0, M, "dirichlet"), spec))


def _same_as_numpy(a, b):
    want, got = a @ b, matmul(a, b)
    return (np.array_equal(got, want) and got.shape == want.shape
            and got.flags.c_contiguous == want.flags.c_contiguous)


@pytest.mark.parametrize("order", ["C", "F"])
def test_matmul_row_blocks_are_numpy_bit_for_bit(workload_dec, order):
    """Row blocks of 1-5 rows (gemv for one, gemm above) and the full table."""
    basis = workload_dec.basis
    N = basis.shape[0]
    rng = np.random.default_rng(N)
    m = np.exp(-3.0 * rng.random(N))
    for count in [1, 2, 3, 4, 5, N]:
        rows = np.sort(rng.choice(N, count, replace=False))
        left = np.asarray(basis[rows] * m, order=order)
        assert _same_as_numpy(left, basis.T)
        assert _same_as_numpy(left, np.asarray(basis.T, order=order))


@pytest.mark.parametrize("order", ["C", "F"])
def test_matmul_vector_products_are_numpy_bit_for_bit(workload_dec, order):
    """mat @ vec and vec @ mat (gemv) and vec @ vec (ddot), 1-D and 2-D vectors."""
    basis = np.asarray(workload_dec.basis, order=order)
    v = np.random.default_rng(1).standard_normal(basis.shape[0])
    for a, b in [(basis, v), (basis.T, v), (v, basis), (v, basis.T), (v, basis[:, 5].copy()),
                 (basis, v[:, None]), (v[None, :], basis), (v[None, :], v[:, None])]:
        assert _same_as_numpy(a, b)


def test_matmul_rejects_strided_vectors():
    """numpy hands `ddot` each vector's stride, and `ddot` then sums a strided
    pair in an order no contiguous call reproduces, so `matmul` names the
    operand instead, in 1-D and in one-row or one-column 2-D form. `dgemv`
    keeps numpy's bits on a positive stride; a reversed vector, whose numpy
    product it does not reproduce, raises. Contiguous operands keep numpy's bits."""
    B = np.random.default_rng(512).standard_normal((512, 512))
    for a, b, name in ((B[:, 7], B[:, 9].copy(), "a"), (B[7], B[:, 9], "b"),
                       (B[:, 7:8].T, B[:, 9:10], "a"), (B[7:8], B[:, 9:10], "b"),
                       (B[::-1, 7], B, "a"), (B, B[::-1, 9], "b"),
                       (B, B[::-1, 9:10], "b")):
        with pytest.raises(ValueError, match=f"operand {name} is a strided vector"):
            matmul(a, b)
    for a, b in ((B[:, 7].copy(), B[:, 9].copy()), (B[7], B[9]), (B[7:8], B[9:10].T),
                 (B[:, 7], B), (B, B[:, 9]), (B[:, 7:8].T, B), (B, B[:, 9:10]),
                 (B[7, ::2], B[::2]), (B, B[7])):
        assert _same_as_numpy(a, b)


def test_matmul_ladder_products_are_numpy_bit_for_bit(workload_dec):
    """A (J, N) multiplier ladder against the basis, and the compose product."""
    basis = workload_dec.basis
    ladder = semigroup_multiplier(np.geomspace(1e-3, 10.0, 64), 0.5, 1)(workload_dec.eigenvalues)
    assert _same_as_numpy(ladder * basis[7], basis.T)
    assert _same_as_numpy(np.asfortranarray(ladder), basis.T)
    assert _same_as_numpy(basis, np.ascontiguousarray(basis.T))


def test_multiplier_kernel_runs_in_scipys_blas(monkeypatch, dirichlet_flat):
    """The sandwich is one dgemm of scipy's BLAS, the library eigh runs in."""
    calls = []
    real = scipy.linalg.blas.dgemm

    def counted(*args, **kwargs):
        calls.append("dgemm")
        return real(*args, **kwargs)
    monkeypatch.setattr(scipy.linalg.blas, "dgemm", counted)
    multiplier_kernel(dirichlet_flat, semigroup_multiplier(1.0))
    multiplier_kernel(dirichlet_flat, semigroup_multiplier(1.0),
                      block=kernel_block(dirichlet_flat, np.arange(8), np.arange(0, 256, 4)))
    assert calls == ["dgemm", "dgemm"]


# --- assembly and the operator checks -----------------------------------------

@pytest.mark.parametrize("n, M", [(1, 64), (2, 12), (3, 8)])
@pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
@pytest.mark.parametrize("kind", ["power", "well"])
def test_assemble_equals_the_kronecker_sum_bit_for_bit(n, M, bc, kind):
    grid = build_grid(n, 4.0, M, bc)
    matrix = assemble(grid, CATALOG[kind]).matrix
    want = kron_operator(grid, CATALOG[kind])
    assert np.array_equal(matrix, want)
    assert matrix.tobytes() == want.tobytes()   # the signs of the zeros too


def test_assemble_holds_one_operator_at_n3():
    grid = build_grid(3, 4.0, 12, "dirichlet")
    tracemalloc.start()
    try:
        matrix = assemble(grid, power(2.0)).matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * matrix.nbytes


@pytest.mark.parametrize("entry, message", [(np.inf, "non-finite"), (1.0, "not symmetric")])
def test_operator_checks_read_every_row_block(entry, message):
    """At n = 3 M = 12 the checks run in three row blocks; a fault in the
    last row is caught."""
    op = assemble(build_grid(3, 4.0, 12, "dirichlet"), power(2.0))
    matrix = op.matrix.copy()
    matrix[-1, 0] += entry
    with pytest.raises(ValueError, match=message):
        eigendecompose(DiscreteOperator(op.grid, matrix))
