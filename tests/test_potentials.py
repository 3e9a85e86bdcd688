import numpy as np
import pytest

from oracles import (_rho_functional, check_aux_lemmas, per_step_functional,
                     per_step_rho, reverse_holder_constant)
from subheat import potentials
from subheat.cli import main
from subheat.estimates import lattice_indices
from subheat.grid import Grid, ball_points, build_grid
from subheat.potentials import (RHO_BLOCK, PotentialSpec, compute_aux_function,
                                compute_rho, constant, eval_potential, is_zero, power,
                                scaled, sum_of, well, zero)


def test_eval_catalog_values():
    assert eval_potential(constant(1.0), np.array([0.7])) == 1.0
    assert eval_potential(power(2.0), np.array([1.0, 1.0, 1.0])) == pytest.approx(3.0)
    assert eval_potential(zero(), np.array([2.0])) == 0.0
    w = well(5.0, 1.0)
    assert eval_potential(w, np.array([0.5])) == 5.0
    assert eval_potential(w, np.array([1.5])) == 0.0


def test_spec_rejects_negative_and_degenerate():
    with pytest.raises(ValueError):
        constant(-1.0)
    with pytest.raises(ValueError):
        constant(0.0)
    with pytest.raises(ValueError):
        power(-1.0)
    with pytest.raises(ValueError):
        PotentialSpec("cusp")
    # a zero-height or zero-width well is V = 0 on every grid: `zero` names it
    for height, width in ((0.0, 1.0), (1.0, 0.0)):
        with pytest.raises(ValueError, match="well potential needs height > 0 and width > 0"):
            well(height, width)


def test_is_zero_detection():
    assert is_zero(zero())
    assert is_zero(scaled(power(2.0), 0.0))
    assert not is_zero(sum_of(zero(), constant(2.0)))


def test_reverse_holder_constant_for_flat_potential():
    g = build_grid(1, 16.0, 256)
    balls = [ball_points(g, [c], r) for c in (0.0, 2.0) for r in (3.0, 5.0)]
    res = reverse_holder_constant(constant(1.0), 3.0, balls, g)
    assert res.holds
    assert res.c_best == pytest.approx(1.0, abs=1e-12)


def test_reverse_holder_power_scale_invariant():
    g = build_grid(3, 4.0, 16)
    balls = [ball_points(g, [0.0, 0.0, 0.0], r) for r in (1.0, 2.0, 3.0)]
    res = reverse_holder_constant(power(2.0), 3.0, balls, g)
    # radial oracle: ((n/(n+2q)) r^(2q))^(1/q) / ((n/(n+2)) r^2), n=3, q=3
    expect = (3.0 / 9.0) ** (1.0 / 3.0) / (3.0 / 5.0)
    assert res.c_best == pytest.approx(expect, rel=1e-6)


def test_reverse_holder_rejects_all_zero_sample():
    g = build_grid(1, 16.0, 256)
    balls = [ball_points(g, [10.0], 1.0)]
    with pytest.raises(ValueError):
        reverse_holder_constant(well(1.0, 0.5), 2.0, balls, g)


def test_rho_constant_n3():
    g = build_grid(3, 4.0, 16)
    rho, _ = compute_rho(constant(1.0), g, [0.0, 0.0, 0.0])
    assert rho == pytest.approx(np.sqrt(3.0 / (4.0 * np.pi)), abs=1e-8)


def test_rho_power_n3():
    g = build_grid(3, 4.0, 16)
    rho, _ = compute_rho(power(2.0), g, [0.0, 0.0, 0.0])
    assert rho == pytest.approx((5.0 / (4.0 * np.pi)) ** 0.25, abs=1e-8)


def test_rho_constant_n1():
    g = build_grid(1, 16.0, 256)
    rho, _ = compute_rho(constant(1.0), g, [0.0])
    assert rho == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-8)


def test_rho_functional_equals_one_at_rho():
    g = build_grid(1, 16.0, 256)
    for spec in (constant(1.0), power(2.0), constant(4.0)):
        rho, _ = compute_rho(spec, g, [0.0])
        assert _rho_functional(spec, g, np.array([0.0]), rho) == pytest.approx(1.0, abs=1e-7)


def test_rho_rejects_zero_potential():
    g = build_grid(1, 16.0, 256)
    with pytest.raises(ValueError):
        compute_rho(zero(), g, [0.0])


def test_rho_box_limited_flag():
    g = build_grid(1, 2.0, 64)
    value, limited = compute_rho(scaled(constant(1.0), 1e-6), g, [0.0])
    assert limited
    assert value == pytest.approx(2.0 * 2.0, rel=1e-12)


def test_rho_monotone_in_potential():
    g = build_grid(1, 16.0, 256)
    xs = [[-2.0], [0.0], [1.5]]
    for x in xs:
        r1, _ = compute_rho(constant(1.0), g, x)
        r2, _ = compute_rho(sum_of(constant(1.0), power(2.0)), g, x)
        assert r2 <= r1 + 1e-9


def test_rho_scaling_never_increases():
    g = build_grid(1, 16.0, 256)
    for x in ([0.0], [3.0]):
        base, _ = compute_rho(power(2.0), g, x)
        up, _ = compute_rho(scaled(power(2.0), 3.0), g, x)
        assert up <= base + 1e-9


def test_aux_function_zero_sentinel():
    g = build_grid(1, 16.0, 256)
    aux = compute_aux_function(zero(), g)
    assert np.all(np.isinf(aux.rho))


def test_aux_function_constant_shortcut():
    g = build_grid(1, 16.0, 256)
    aux = compute_aux_function(constant(2.0), g)
    assert np.allclose(aux.rho, 0.5, atol=1e-8)
    assert compute_rho(constant(2.0), g, [0.0])[0] == pytest.approx(0.5, abs=1e-8)


def test_check_aux_lemmas_flat():
    g = build_grid(1, 16.0, 256)
    rep = check_aux_lemmas(constant(1.0), g, [[0.0], [1.0]], [0.5, 1.0], q=2.0)
    assert rep["doubling_constant"] == pytest.approx(2.0, rel=1e-9)
    assert rep["comparability_constant"] == pytest.approx(1.0, rel=1e-9)
    assert np.isfinite(rep["gaussian_average_constant"])


def test_check_aux_lemmas_power_pairs():
    g = build_grid(1, 16.0, 256)
    pts = [[0.0], [0.5], [1.0], [2.0]]
    rep = check_aux_lemmas(power(2.0), g, pts, [0.25, 0.5, 1.0], q=2.0)
    assert rep["comparability_constant"] < 10.0
    assert rep["doubling_constant"] < 20.0


def test_check_aux_lemmas_zero_skipped():
    g = build_grid(1, 16.0, 256)
    rep = check_aux_lemmas(zero(), g, [[0.0]], [1.0])
    assert "skipped" in rep


def test_comparability_symmetric():
    g = build_grid(1, 16.0, 256)
    rx, _ = compute_rho(power(2.0), g, [1.0])
    ry, _ = compute_rho(power(2.0), g, [1.3])
    assert max(rx / ry, ry / rx) == pytest.approx(max(ry / rx, rx / ry))


def test_reverse_holder_reports_partial_exclusions():
    g = build_grid(1, 16.0, 256)
    # one ball over the well, one entirely outside it (zero average, excluded)
    balls = [ball_points(g, [0.0], 3.0), ball_points(g, [10.0], 3.0)]
    res = reverse_holder_constant(well(2.0, 0.5), 2.0, balls, g)
    assert res.excluded == 1
    assert res.holds and np.isfinite(res.c_best)


@pytest.mark.parametrize("n, M, bc", [(2, 16, "dirichlet"), (2, 16, "periodic"),
                                      (3, 8, "dirichlet"), (3, 8, "periodic")],
                         ids=["n2-dirichlet", "n2-periodic", "n3-dirichlet", "n3-periodic"])
@pytest.mark.parametrize("spec", [
    power(2.0), well(0.2, 3.0, center=1.0), scaled(power(1.5), 1e-3),
    sum_of(constant(0.01), power(2.0)),
], ids=["power2", "well", "scaled-power1.5", "constant+power"])
def test_aux_function_matches_per_step_bisection(n, M, bc, spec):
    # The midpoint grid holds no origin, so every point takes the grid-sum
    # branch, read from its block's table of sums by member count. The cases
    # reach rho below the spacing (power2), mid-box values and, at n=3, the
    # box-limited flag (scaled-power1.5). The index sets are every fifth
    # point and a block minus and plus one point, so a block is also cut
    # short.
    grid = build_grid(n, 4.0 if n == 3 else 8.0, M, bc)
    rng = np.random.default_rng(n)
    sets = [np.arange(0, grid.size, 5)] + [
        np.sort(rng.choice(grid.size, size, replace=False))
        for size in (RHO_BLOCK - 1, RHO_BLOCK + 1)]
    expected = {i: per_step_rho(spec, grid, grid.points[i])
                for i in np.unique(np.concatenate(sets))}
    for idx in sets:
        aux = compute_aux_function(spec, grid, indices=idx)
        assert np.array_equal(aux.rho[idx], [expected[i][0] for i in idx])
        assert np.array_equal(aux.box_limited[idx], [expected[i][1] for i in idx])
        assert np.all(np.isnan(np.delete(aux.rho, idx)))


def test_each_ball_sum_is_taken_once_per_point_and_member_count(monkeypatch):
    """At certify-n2's fine lattice (n=2 L=16 M=32, 256 points of V = |x|^2)
    the bisection evaluates the functional 17,288 times but sums each
    (point, member count) once: 1,796 grid sums."""
    grid = build_grid(2, 16.0, 32)
    lattice = lattice_indices(grid)
    sums, evaluations, tables = [], [], []       # tables stay alive, so their ids differ
    original_sum, original_call = potentials._GridBallSums._sum, potentials._GridBallSums.__call__

    def counting_sum(self, row, radius):
        tables.append(self)
        sums.append((id(self), int(row), int(np.count_nonzero(self.dist[row] < radius))))
        return original_sum(self, row, radius)

    def counting_call(self, rows, radii):
        evaluations.append(len(rows))
        return original_call(self, rows, radii)

    monkeypatch.setattr(potentials._GridBallSums, "_sum", counting_sum)
    monkeypatch.setattr(potentials._GridBallSums, "__call__", counting_call)
    aux = compute_aux_function(power(2.0), grid, indices=lattice)
    assert len(set(sums)) == len(sums) == 1796
    assert sum(evaluations) == 17288
    expected = [per_step_rho(power(2.0), grid, grid.points[i]) for i in lattice[::37]]
    assert np.array_equal(aux.rho[lattice[::37]], [value for value, _ in expected])


N1_SPECS = [power(2.0), well(0.2, 3.0, center=1.0), scaled(power(1.5), 1e-3),
            sum_of(constant(0.01), power(2.0))]
N1_IDS = ["power2", "well", "scaled-power1.5", "constant+power"]


@pytest.mark.parametrize("spec", N1_SPECS, ids=N1_IDS)
def test_aux_function_matches_per_step_bisection_n1(spec):
    # n = 1 takes the Simpson shell branch, bisected a block of points at a
    # time. On [-3.5, 3.5) scaled-power1.5 is box-limited near the centre
    # and bracketed near the edges. The index sets are one point, a block
    # minus and plus one point, and the whole grid (two blocks).
    grid = build_grid(1, 3.5, 2 * RHO_BLOCK)
    expected = [per_step_rho(spec, grid, x) for x in grid.points]
    rho_ref = np.array([value for value, _ in expected])
    flags_ref = np.array([flag for _, flag in expected])
    rng = np.random.default_rng(0)
    for size in (1, RHO_BLOCK - 1, RHO_BLOCK + 1, grid.size):
        idx = np.sort(rng.choice(grid.size, size, replace=False))
        aux = compute_aux_function(spec, grid, indices=idx)
        assert np.array_equal(aux.rho[idx], rho_ref[idx])
        assert np.array_equal(aux.box_limited[idx], flags_ref[idx])
        assert np.all(np.isnan(np.delete(aux.rho, idx)))
    assert np.array_equal(compute_aux_function(spec, grid).rho, rho_ref)
    if spec.scale == 1e-3:
        assert 0 < flags_ref.sum() < grid.size


@pytest.mark.parametrize("spec", N1_SPECS, ids=N1_IDS)
def test_block_functional_matches_per_step_functional_n1(spec):
    # rho hides a perturbed functional unless a bisection step sits within
    # rounding of 1, so the block's Simpson sums are compared value by value
    grid = build_grid(1, 3.5, 2 * RHO_BLOCK)
    points = grid.points[:RHO_BLOCK]
    rows = np.array([0, 5, 5, RHO_BLOCK - 1])
    radii = np.array([1e-9, 0.3, 2.0, 7.0])
    got = potentials._block_functional(spec, grid, points)(rows, radii)
    want = [per_step_functional(spec, grid, points[i])(r) for i, r in zip(rows, radii)]
    assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("spec", N1_SPECS, ids=N1_IDS)
def test_block_functional_matches_per_step_functional(spec, n):
    # Radii 1.0, 1.0 + 1e-9 and 1.1 read one table entry where no distance
    # lies between them; every value must still be a fresh sum's bits.
    grid = build_grid(n, 4.0, 16 if n == 2 else 8)
    points = grid.points[::7][:RHO_BLOCK]
    rows = np.array([0, 5, 5, 5, 5, RHO_BLOCK - 1, 0, 0])
    radii = np.array([1e-9, 1.0, 1.0 + 1e-9, 1.1, 3.0, 7.0, 1e-9, 2.5])
    got = potentials._block_functional(spec, grid, points)(rows, radii)
    want = [per_step_functional(spec, grid, points[i])(r) for i, r in zip(rows, radii)]
    assert np.array_equal(got, want)


def test_aux_function_matches_per_step_bisection_radial_n2():
    # With odd M the origin is a grid point, where |x|^2 is radial and the
    # shell branch runs; every other point takes the grid sum.
    L, M = 8.0, 9
    h = 2.0 * L / M
    axis = -L + (np.arange(M) + 0.5) * h
    mesh = np.meshgrid(axis, axis, indexing="ij")
    grid = Grid(2, L, M, "dirichlet", axis, np.stack([m.ravel() for m in mesh], axis=-1))
    origin = M * M // 2
    assert np.linalg.norm(grid.points[origin]) < 1e-12
    aux = compute_aux_function(power(2.0), grid)
    expected = [per_step_rho(power(2.0), grid, x) for x in grid.points]
    assert np.array_equal(aux.rho, [value for value, _ in expected])
    assert np.array_equal(aux.box_limited, [flag for _, flag in expected])
    assert compute_rho(power(2.0), grid, grid.points[origin]) == expected[origin]


def _nan_potential(spec, x):
    return np.full(np.atleast_2d(x).shape[0], np.nan)


@pytest.mark.parametrize("n, M", [(1, 64), (2, 16)])
def test_nan_functional_raises(monkeypatch, n, M):
    grid = build_grid(n, 16.0, M)
    monkeypatch.setattr(potentials, "eval_potential", _nan_potential)
    with pytest.raises(ValueError, match="not finite"):
        compute_rho(power(2.0), grid, grid.points[0])
    with pytest.raises(ValueError, match="not finite"):
        compute_aux_function(power(2.0), grid, indices=[0, 5])


def test_nan_functional_exits_1(monkeypatch, tmp_path, capsys):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text("[grid]\nn = 1\nL = 16\nM = 64\n[potential]\nkind = power\nsigma = 2\n")
    monkeypatch.setattr(potentials, "_shell_integrals_1d",
                        lambda spec, centers, radii, q=1.0: np.full(len(radii), np.nan))
    assert main(["spaces", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "functional is not finite" in capsys.readouterr().err


def test_skipped_points_are_nan_not_zero_potential():
    # the bisected potentials are checked in the n = 1 oracle test above
    grid = build_grid(1, 16.0, 64)
    flat = compute_aux_function(constant(2.0), grid, indices=[3])
    assert flat.rho[3] == pytest.approx(0.5, abs=1e-8) and np.isnan(flat.rho[4])
    assert np.all(np.isinf(compute_aux_function(zero(), grid, indices=[3]).rho))
