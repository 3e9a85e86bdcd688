import numpy as np
import pytest

from oracles import wrapped_gaussian_table
from subheat.closedform import (fourier_fractional_value, fourier_table,
                                gaussian_heat_table, gaussian_heat_value,
                                oscillator_heat_value, poisson_table, poisson_value)
from subheat.grid import build_grid


def test_fourier_oracle_matches_poisson():
    # alpha = 1/2: the cosine transform of e^{-t|xi|} is the Poisson kernel
    for t in (0.5, 1.0):
        for r in (0.0, 0.5, 2.0, 8.0):
            got = fourier_fractional_value(r, t, 0.5)
            assert got == pytest.approx(poisson_value(r, t, 1), rel=1e-8, abs=1e-12)


def test_fourier_oracle_value_at_origin():
    assert fourier_fractional_value(0.0, 1.0, 0.5) == pytest.approx(1.0 / np.pi, rel=1e-10)


def test_fourier_oracle_matches_gaussian_at_alpha_one():
    for r in (0.0, 1.0, 3.0):
        got = fourier_fractional_value(r, 1.0, 1.0)
        assert got == pytest.approx(gaussian_heat_value(r, 1.0, 1), rel=1e-10)


def test_fourier_table_is_symmetric_and_finite():
    g = build_grid(1, 4.0, 16)
    K = fourier_table(g, 1.0, 0.7)
    assert np.max(np.abs(K.table - K.table.T)) < 1e-12
    assert np.all(np.isfinite(K.table))


def test_wrapped_gaussian_images():
    g = build_grid(1, 2.0, 32, "periodic")
    plain = gaussian_heat_table(g, 1.0)
    wrapped = wrapped_gaussian_table(g, 1.0, images=2)
    # wrapping adds strictly positive image mass at this time scale
    assert np.all(wrapped >= plain.table)
    i = g.size // 2
    image_gain = wrapped[i, i] - plain.table[i, i]
    expect = 2 * gaussian_heat_value(4.0, 1.0, 1) + 2 * gaussian_heat_value(8.0, 1.0, 1)
    assert image_gain == pytest.approx(expect, rel=1e-10)


def test_oscillator_kernel_short_time_is_gaussian():
    t = 1e-4
    for x, y in ((0.0, 0.0), (0.3, 0.5)):
        mehler = oscillator_heat_value(x, y, t)
        gauss = gaussian_heat_value(abs(x - y), t, 1)
        assert mehler == pytest.approx(gauss, rel=1e-3)


def test_oscillator_trace_identity():
    # integral of the diagonal equals sum of e^{-(2k+1)t} = 1/(2 sinh t)
    g = build_grid(1, 16.0, 512)
    t = 0.5
    x = g.points[:, 0]
    diag = oscillator_heat_value(x, x, t)
    trace = np.sum(diag) * g.spacing
    assert trace == pytest.approx(1.0 / (2.0 * np.sinh(t)), rel=1e-8)


@pytest.mark.parametrize("n, M", [(1, 64), (2, 16), (3, 8)])
@pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
def test_closed_form_rows_equal_the_full_difference_tensor_table_rows(n, M, bc):
    """Tables computed at a few rows, or at a few rows and columns, give the
    bits of that block of the table built from the (N, N, n) difference
    tensor, Euclidean on both boundary conditions."""
    g = build_grid(n, 8.0, M, bc)
    rng = np.random.default_rng(n)
    rows = rng.choice(g.size, 13, replace=False)
    cols = np.sort(rng.choice(g.size, 21, replace=False))
    dist = np.linalg.norm(g.points[:, None, :] - g.points[None, :, :], axis=-1)
    for table, value in ((gaussian_heat_table, gaussian_heat_value),
                         (poisson_table, poisson_value)):
        for t in (0.1, 2.0):
            want = value(dist, t, n)
            got = table(g, t, rows)
            assert np.array_equal(got.table, want[rows])
            assert np.array_equal(got.rows, rows) and got.cols is None
            block = table(g, t, rows, cols)
            assert np.array_equal(block.table, want[np.ix_(rows, cols)])
            assert np.array_equal(block.cols, cols)
            assert np.array_equal(table(g, t).table, want)
