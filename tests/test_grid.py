import numpy as np
import pytest
from scipy.special import erf

from oracles import padded_gradient_values
from subheat.grid import ball_points, build_grid, gradient_values, inner_box_mask


def _integral(g, fn) -> float:
    """The midpoint rule of the grid: sum of fn at the points times h^n."""
    return float(np.sum(fn(g.points)) * g.cell_weight)


def test_build_grid_spacing():
    g = build_grid(1, 16.0, 256, "dirichlet")
    assert g.spacing == pytest.approx(0.125)
    assert g.size == 256


def test_build_grid_2d_weight():
    g = build_grid(2, 8.0, 48, "periodic")
    assert g.size == 2304
    assert g.cell_weight == pytest.approx(1.0 / 9.0)


@pytest.mark.parametrize("n,L,M", [(1, 16.0, 7), (1, 16.0, 6), (0, 1.0, 16), (4, 1.0, 16)])
def test_build_grid_rejections(n, L, M):
    with pytest.raises(ValueError):
        build_grid(n, L, M, "dirichlet")


def test_weights_sum_to_box_volume():
    for n, M in [(1, 256), (2, 24), (3, 8)]:
        g = build_grid(n, 4.0, M, "dirichlet")
        total = g.size * g.cell_weight
        assert total == pytest.approx((2 * 4.0) ** n, rel=1e-12)


def test_points_inside_box_and_symmetric():
    g = build_grid(1, 16.0, 256)
    x = g.points[:, 0]
    assert np.all(x >= -16.0) and np.all(x < 16.0)
    assert np.max(np.abs(np.sort(x) + np.sort(x)[::-1])) < 1e-13


def test_integrate_constant():
    g = build_grid(1, 16.0, 256)
    assert _integral(g, lambda p: np.ones(len(p))) == pytest.approx(32.0)


def test_integrate_gaussian_vs_erf():
    g = build_grid(1, 16.0, 512)
    exact = np.sqrt(np.pi) * erf(16.0)
    assert _integral(g, lambda p: np.exp(-p[:, 0] ** 2)) == pytest.approx(exact, abs=1e-8)


def test_midpoint_exact_on_linear():
    for n, M in [(1, 64), (2, 16)]:
        g = build_grid(n, 3.0, M)
        exact = 2.0 * (2 * 3.0) ** n
        assert _integral(g, lambda p: 2.0 + 3.0 * p[:, 0]) == pytest.approx(exact, rel=1e-10)


def test_integration_second_order_in_h():
    # coarse grids, where the midpoint error is still measurable
    errs = []
    for M in [8, 16, 32]:
        g = build_grid(1, 16.0, M)
        errs.append(abs(_integral(g, lambda p: np.exp(-p[:, 0] ** 2))
                        - np.sqrt(np.pi) * erf(16.0)))
    rate = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(rate) >= 1.9
    # fine grids are already converged far beyond second order
    g = build_grid(1, 16.0, 256)
    assert abs(_integral(g, lambda p: np.exp(-p[:, 0] ** 2)) - np.sqrt(np.pi) * erf(16.0)) < 1e-12


def test_ball_member_count():
    g = build_grid(1, 16.0, 256)
    b = ball_points(g, [0.0], 1.0)
    assert b.members.size == 16


def test_ball_too_small_is_error():
    g = build_grid(1, 16.0, 256)
    with pytest.raises(ValueError):
        ball_points(g, [0.0], 0.01)


def test_ball_monotone_in_radius():
    g = build_grid(2, 4.0, 32)
    small = set(ball_points(g, [0.3, -0.2], 0.8).members.tolist())
    big = set(ball_points(g, [0.3, -0.2], 1.5).members.tolist())
    assert small <= big


def test_periodic_metric_wraps():
    g = build_grid(1, 16.0, 256, "periodic")
    d = g.distances_from([15.9375])
    assert d.min() == pytest.approx(0.0)
    # nearest wrap neighbor across the seam
    assert np.sort(d)[1] == pytest.approx(0.125)


def test_inner_box_mask():
    g = build_grid(1, 16.0, 256)
    mask = inner_box_mask(g)
    assert np.all(np.abs(g.points[mask, 0]) <= 8.0 + 1e-12)
    assert mask.sum() == 128


@pytest.mark.parametrize("n, M", [(1, 16), (2, 8), (3, 8)])
def test_ball_center_index_is_the_nearest_point_off_grid(n, M):
    g = build_grid(n, 4.0, M, "dirichlet")
    center = np.array([0.37, -1.21, 0.9][:n])
    ball = ball_points(g, center, 1.3)
    assert ball.center_index == int(np.argmin(g.distances_from(center)))
    assert ball.center_index in ball.members


@pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
@pytest.mark.parametrize("n, M", [(1, 16), (2, 8), (3, 8)])
def test_gradient_values_equal_the_padded_stencil(n, M, bc):
    """Zero-filled shifted copies give the bits of the `np.pad` stencil."""
    g = build_grid(n, 4.0, M, bc)
    rng = np.random.default_rng(n)
    values = rng.standard_normal(g.size)
    assert np.array_equal(gradient_values(g, values), padded_gradient_values(g, values))
    columns = rng.standard_normal((g.size, 3))   # trailing columns: three grid functions
    for axis in range(n):
        assert np.array_equal(gradient_values(g, values, axis),
                              padded_gradient_values(g, values, axis))
        assert np.array_equal(gradient_values(g, columns, axis),
                              padded_gradient_values(g, columns, axis))
