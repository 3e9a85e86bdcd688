import numpy as np
import pytest

from oracles import (_rho_functional, check_aux_lemmas, norm_potential, per_step_functional,
                     per_step_rho, power_of, reverse_holder_constant,
                     shell_integrals_1d_linspace)
from subheat import potentials
from subheat.cli import main
from subheat.estimates import lattice_indices
from subheat.grid import Grid, ball_points, build_grid
from subheat.potentials import (RHO_BLOCK, RHO_TOL, PotentialSpec, compute_aux_function,
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


STEP_SPECS = [power(2.0), power(1.5), power(400.0), scaled(power(2.0), 3.0),
              well(2.0, 1.0, center=0.25), constant(0.5),
              sum_of(constant(0.01), power(2.0)), scaled(sum_of(well(1.0, 0.5), power(1.5)), 0.5)]
STEP_IDS = ["power2", "power1.5", "power400-inf", "scaled-power2", "well", "constant",
            "constant+power", "scaled-well+power1.5"]
#: each potential V as `name-1.0`, and V^2 as `name-2.0` where the catalog holds
#: it: the reverse-Holder oracle integrates `power_of(V, q)` through this step
STEP_CASES = ([pytest.param(spec, id=f"{name}-1.0") for spec, name in zip(STEP_SPECS, STEP_IDS)]
              + [pytest.param(power_of(spec, 2.0), id=f"{name}-2.0")
                 for spec, name in zip(STEP_SPECS, STEP_IDS) if spec.kind != "sum"])


@pytest.mark.parametrize("spec", STEP_CASES)
def test_shell_step_matches_linspace_oracle(spec):
    """The patterned n = 1 step gives the bits of np.linspace nodes, literal
    Simpson weights and V from np.linalg.norm on 2,064 (centre, radius)
    rows: every point of n = 1 L = 16 M = 512 four times, with radii spread
    from 1e-9 h to 2L, and rows whose nodes land exactly on the well's walls
    at -0.75 and 1.25. |x|^400 overflows to inf beyond |x| ~ 5.9, |x|^800
    beyond ~2.4."""
    grid = build_grid(1, 16.0, 512)
    h = grid.spacing
    rng = np.random.default_rng(22)
    centers = np.tile(grid.points[:, 0], 4)
    radii = rng.permutation(np.geomspace(1e-9 * h, 2.0 * grid.half_width, centers.size))
    walls = [(0.25, 1.0), (0.25, 2.0), (0.25, 4.0), (0.75, 0.5), (-0.25, 0.5), (0.5, 0.75),
             (1.25, 2.0), (-0.75, 2.0), (0.25, 8.0), (2.25, 1.0), (1.0, 0.25), (-1.0, 0.25),
             (-1.75, 1.0), (0.0, 1.25), (0.0, 0.75), (3.25, 2.0)]
    centers = np.concatenate([centers, [c for c, _ in walls]])
    radii = np.concatenate([radii, [r for _, r in walls]])
    nodes = centers[-16:, None] + np.linspace(0.0, radii[-16:], 513, axis=-1)
    assert np.any(nodes == 1.25, axis=1).sum() >= 8 and np.any(nodes == -0.75)
    with np.errstate(over="ignore"):
        got = potentials._shell_integrals_1d(spec, centers, radii)
        want = shell_integrals_1d_linspace(spec, centers, radii)
    assert got.shape == (2064,)
    assert np.array_equal(got, want)
    if spec.kind == "power" and spec.params["sigma"] >= 400.0:
        assert np.isinf(got).any() and np.isfinite(got).any()


_EXTREMES = [0.0, -0.0, 5e-324, -1e-310, 2.2250738585072014e-308, 1e-160, -1e-160,
             np.nextafter(2.0 ** -511, 0.0), 2.0 ** -511, np.nextafter(2.0 ** -511, 1.0),
             1.0, -3.5, 1e150, np.nextafter(2.0 ** 511, 0.0), 2.0 ** 511, 1.34e154,
             1.35e154, 1e200, -1e200, 1.7e308, np.inf, -np.inf, np.nan]


@pytest.mark.parametrize("spec", [power(s) for s in (0.5, 1.0, 1.5, 2.0, 3.0, 400.0)]
                         + [scaled(power(1.5), 3.0), sum_of(constant(1.0), power(2.0))],
                         ids=["power0.5", "power1", "power1.5", "power2", "power3",
                              "power400", "scaled-power1.5", "constant+power2"])
def test_eval_potential_one_column_is_the_norm_bitwise(spec):
    """On (k, 1) points np.abs stands in for np.linalg.norm, whose value is
    sqrt(x * x). That is |x| exactly where x * x neither underflows nor
    overflows; outside (-0.0, subnormals, 1e-160, the edges of 2^-511 and
    2^511, 1e200, inf, NaN) the norm's own value is kept, e.g. inf at 1e200
    where |x|^1.5 would be 1e300."""
    def same_bits(pts):
        got, want = eval_potential(spec, pts), norm_potential(spec, pts)
        return got.shape == want.shape and np.array_equal(got.view(np.uint64),
                                                          want.view(np.uint64))
    rng = np.random.default_rng(7)
    inside = (rng.choice([-1.0, 1.0], 100_000) * rng.uniform(1.0, 2.0, 100_000)
              * 2.0 ** rng.integers(-511, 511, 100_000))
    wide = (rng.choice([-1.0, 1.0], 20_000) * rng.uniform(1.0, 2.0, 20_000)
            * 2.0 ** rng.integers(-1074, 1024, 20_000))
    columns = ([np.array([[x]]) for x in _EXTREMES]
               + [np.array(_EXTREMES)[:, None], inside[:, None], wide[:, None],
                  np.concatenate([inside[:50], [1e200]])[:, None], np.empty((0, 1))])
    assert all(same_bits(pts) for pts in columns)
    assert same_bits(rng.standard_normal((64, 2)))


@pytest.mark.parametrize("M", [64, 512])
@pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
def test_rho_power2_n1_matches_closed_form(M, bc):
    """For V = |x|^2 at n = 1, r * integral of y^2 over [c - r, c + r] is
    2 c^2 r^2 + 2 r^4 / 3, which Simpson's rule integrates exactly, so
    rho^2 = (-3 c^2 + sqrt(9 c^4 + 6)) / 2 = 3 / (3 c^2 + sqrt(9 c^4 + 6))
    (Shen's critical radius, in closed form). The n = 1 functional does not
    wrap, so both boundary conditions share it."""
    grid = build_grid(1, 16.0, M, bc)
    c = grid.points[:, 0]
    closed = np.sqrt(3.0 / (3.0 * c ** 2 + np.sqrt(9.0 * c ** 4 + 6.0)))
    aux = compute_aux_function(power(2.0), grid)
    assert not aux.box_limited.any()
    assert np.max(np.abs(aux.rho - closed)) <= RHO_TOL


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("spec", N1_SPECS + [constant(0.5), sum_of(constant(0.3), constant(0.2))],
                         ids=N1_IDS + ["constant", "constant+constant"])
def test_block_functional_matches_per_step_functional(spec, n):
    # Radii 1.0, 1.0 + 1e-9 and 1.1 read one table entry where no distance
    # lies between them; every value must still be a fresh sum's bits. The
    # constants are radial about every point, so one call takes all eight
    # rows (repeated ones too) through one Simpson shell sum.
    grid = build_grid(n, 4.0, 16 if n == 2 else 8)
    points = grid.points[::7][:RHO_BLOCK]
    rows = np.array([0, 5, 5, 5, 5, RHO_BLOCK - 1, 0, 0])
    radii = np.array([1e-9, 1.0, 1.0 + 1e-9, 1.1, 3.0, 7.0, 1e-9, 2.5])
    got = potentials._block_functional(spec, grid, points)(rows, radii)
    want = [per_step_functional(spec, grid, points[i])(r) for i, r in zip(rows, radii)]
    assert np.array_equal(got, want)


def _odd_grid(n: int, L: float, M: int) -> Grid:
    """A Dirichlet midpoint grid with odd M, whose middle point is the origin
    (`build_grid` takes even M only)."""
    h = 2.0 * L / M
    axis = -L + (np.arange(M) + 0.5) * h
    mesh = np.meshgrid(*([axis] * n), indexing="ij")
    grid = Grid(n, L, M, "dirichlet", axis, np.stack([m.ravel() for m in mesh], axis=-1))
    assert np.linalg.norm(grid.points[M ** n // 2]) < 1e-12
    return grid


def test_aux_function_matches_per_step_bisection_radial_n2():
    # With odd M the origin is a grid point, where |x|^2 is radial and the
    # shell branch runs; every other point takes the grid sum.
    grid = _odd_grid(2, 8.0, 9)
    origin = grid.size // 2
    aux = compute_aux_function(power(2.0), grid)
    expected = [per_step_rho(power(2.0), grid, x) for x in grid.points]
    assert np.array_equal(aux.rho, [value for value, _ in expected])
    assert np.array_equal(aux.box_limited, [flag for _, flag in expected])
    assert compute_rho(power(2.0), grid, grid.points[origin]) == expected[origin]


def test_aux_function_matches_per_step_bisection_radial_n3():
    # The n = 3 case of the test above, at every ninth point and the 32
    # points around the origin: the block that holds the origin mixes the
    # shell row with grid rows.
    grid = _odd_grid(3, 4.0, 7)
    origin = grid.size // 2
    idx = np.union1d(np.arange(0, grid.size, 9), np.arange(origin - 16, origin + 16))
    aux = compute_aux_function(power(2.0), grid, indices=idx)
    expected = [per_step_rho(power(2.0), grid, grid.points[i]) for i in idx]
    assert np.array_equal(aux.rho[idx], [value for value, _ in expected])
    assert np.array_equal(aux.box_limited[idx], [flag for _, flag in expected])


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
                        lambda spec, centers, radii: np.full(len(radii), np.nan))
    assert main(["spaces", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert "functional is not finite" in capsys.readouterr().err


def test_skipped_points_are_nan_not_zero_potential():
    # the bisected potentials are checked in the n = 1 oracle test above
    grid = build_grid(1, 16.0, 64)
    flat = compute_aux_function(constant(2.0), grid, indices=[3])
    assert flat.rho[3] == pytest.approx(0.5, abs=1e-8) and np.isnan(flat.rho[4])
    assert np.all(np.isinf(compute_aux_function(zero(), grid, indices=[3]).rho))
