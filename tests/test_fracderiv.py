import numpy as np
import pytest

from oracles import (frac_derivative_scalar, frac_time_derivative_tables,
                     mth_time_derivative_kernel)
from subheat.closedform import gaussian_heat_table
from subheat.fracderiv import (d_operator, frac_multiplier_quadrature,
                               frac_time_derivative, integer_order)
from subheat.grid import boundary_layer_mask, build_grid, gradient_values, grid_function
from subheat.potentials import constant, zero
from subheat.spaces import gradient_fields
from subheat.spectral import apply_kernel, assemble, eigendecompose, multiplier_kernel


@pytest.fixture(scope="module")
def dec():
    g = build_grid(1, 16.0, 256, "dirichlet")
    return eigendecompose(assemble(g, constant(1.0)))


def test_spec_validation(dec):
    """The order beta must be positive; m = floor(beta) + 1."""
    with pytest.raises(ValueError):
        frac_multiplier_quadrature(dec, 0.5, 0.0, 1.0)
    with pytest.raises(ValueError):
        frac_time_derivative(dec, 0.5, -0.5, 1.0)
    assert integer_order(1.5) == 2
    assert integer_order(1.0) == 2
    assert integer_order(0.3) == 1


def test_scalar_convention():
    # the convention pins d_t^beta e^{-at} = a^beta e^{-at}
    assert frac_derivative_scalar(1.0, 0.5, 1.0) == pytest.approx(np.exp(-1.0), abs=1e-10)
    for a in (0.5, 2.0):
        for beta in (0.3, 0.5, 1.5):
            got = frac_derivative_scalar(a, beta, 0.7)
            assert got == pytest.approx(a ** beta * np.exp(-0.7 * a), rel=1e-9)


def test_beta_one_reduces_to_ordinary_derivative(dec):
    # the truncated integral telescopes to the first derivative; the
    # real-normalized convention carries it with the sign of lam^alpha e^{-t lam^alpha}
    quad = frac_time_derivative(dec, 0.5, 1.0, 1.0)
    mult = mth_time_derivative_kernel(dec, 0.5, 1, 1.0)
    assert np.max(np.abs(quad.table + mult.table)) <= 1e-8 * np.max(np.abs(mult.table))


def test_quadrature_vs_multiplier_route(dec):
    for beta in (0.3, 0.5, 1.0, 1.5):
        for t in (0.5, 1.0, 2.0):
            q = frac_multiplier_quadrature(dec, 0.5, beta, t)
            la = dec.eigenvalues ** 0.5
            exact = la ** beta * np.exp(-t * la)
            assert np.max(np.abs(q - exact)) <= 1e-4 * np.max(np.abs(exact))


def test_table_route_matches_contracted_route():
    g = build_grid(1, 4.0, 64, "dirichlet")
    small = eigendecompose(assemble(g, constant(1.0)))
    lit = frac_time_derivative_tables(small, 0.5, 0.5, 1.0)
    con = frac_time_derivative(small, 0.5, 0.5, 1.0)
    assert np.max(np.abs(lit.table - con.table)) < 1e-12 * np.max(np.abs(con.table))


def test_d_operator_eigenrelation(dec):
    alpha, beta, t = 0.5, 0.7, 0.9
    K = d_operator(dec, alpha, beta, t)
    k = 7
    phi = grid_function(dec.grid, dec.basis[:, k])
    out = apply_kernel(K, phi)
    lam = dec.eigenvalues[k]
    expect = (t * lam ** alpha) ** beta * np.exp(-t * lam ** alpha)
    assert np.max(np.abs(out.values - expect * phi.values)) < 1e-8


def test_d_operator_rejects_beta_zero(dec):
    with pytest.raises(ValueError):
        d_operator(dec, 0.5, 0.0, 1.0)


def test_d_operator_small_time_norm_slope(dec):
    alpha, beta = 0.5, 0.7
    ts = np.geomspace(1e-6, 1e-5, 6)
    norms = []
    for t in ts:
        mult = (t * dec.eigenvalues ** alpha) ** beta * np.exp(-t * dec.eigenvalues ** alpha)
        norms.append(np.max(mult))
    slope = np.polyfit(np.log(ts), np.log(norms), 1)[0]
    assert slope == pytest.approx(beta, rel=0.02)


def test_frac_derivative_commutes_with_semigroup(dec):
    alpha, beta, s, t = 0.5, 0.5, 0.5, 1.0
    lam = dec.eigenvalues
    first = multiplier_kernel(
        dec, lambda l: (l ** alpha) ** beta * np.exp(-(t + s) * l ** alpha))
    q = frac_multiplier_quadrature(dec, alpha, beta, t) * np.exp(-s * lam ** alpha)
    second = multiplier_kernel(dec, lambda l: q)
    assert np.max(np.abs(first.table - second.table)) <= 1e-8 * np.max(np.abs(first.table))


def test_composition_of_orders(dec):
    # d^(b1) d^(b2) = d^(b1+b2) on the semigroup, via quadrature both times
    alpha, t = 0.5, 1.0
    la = dec.eigenvalues ** alpha
    q1 = frac_multiplier_quadrature(dec, alpha, 0.5, t)
    combo = la ** 0.5 * q1  # apply the exact half-derivative to the quadrature result
    direct = la ** 1.0 * np.exp(-t * la)
    assert np.max(np.abs(combo - direct)) <= 1e-6 * np.max(np.abs(direct))


def test_gradient_zero_at_coincident_points():
    g = build_grid(1, 16.0, 256, "dirichlet")
    K = gaussian_heat_table(g, 1.0)
    j = g.size // 2
    grad = gradient_values(g, K.table[:, j])
    assert abs(grad[j, 0]) < 1e-8


def test_gradient_matches_gaussian_derivative():
    g = build_grid(1, 16.0, 256, "dirichlet")
    K = gaussian_heat_table(g, 1.0)
    j = g.size // 2
    grad = gradient_values(g, K.table[:, j])
    x0 = g.points[j, 0]
    i = int(np.argmin(np.abs(g.points[:, 0] - (x0 + 1.0))))
    r = g.points[i, 0] - x0
    expect = -(r / 2.0) * (4 * np.pi) ** -0.5 * np.exp(-(r ** 2) / 4.0)
    assert grad[i, 0] == pytest.approx(expect, abs=1e-3)


def test_gradient_second_order_convergence():
    errs = []
    for M in (64, 128, 256):
        g = build_grid(1, 16.0, M, "dirichlet")
        K = gaussian_heat_table(g, 1.0)
        j = g.size // 2
        grad = gradient_values(g, K.table[:, j])
        x0 = g.points[j, 0]
        r = g.points[:, 0] - x0
        exact = -(r / 2.0) * (4 * np.pi) ** -0.5 * np.exp(-(r ** 2) / 4.0)
        interior = ~boundary_layer_mask(g)
        errs.append(np.max(np.abs(grad[interior, 0] - exact[interior])))
    slope = np.polyfit(np.log([0.5, 0.25, 0.125]), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_nabla_alpha_constant_function():
    g = build_grid(1, 16.0, 128, "periodic")
    dec = eigendecompose(assemble(g, zero()))
    ones = grid_function(g, np.ones(g.size))
    grad, timepart, _ = gradient_fields(dec, 0.5, dec.coefficients(ones.values), np.array([1.0]))
    assert np.max(grad) < 1e-10
    assert np.max(timepart) < 1e-10


def test_nabla_alpha_eigenfunction(dec):
    alpha, t, k = 0.5, 0.8, 4
    phi = grid_function(dec.grid, dec.basis[:, k])
    _, timepart, _ = gradient_fields(dec, alpha, dec.coefficients(phi.values), np.array([t]))
    lam = dec.eigenvalues[k]
    # magnitudes scaled by t^(1/2 alpha)
    expect = t ** (1.0 / (2.0 * alpha)) * np.sqrt(lam) * np.exp(-t * lam ** alpha)
    assert np.max(np.abs(timepart[0] - expect * np.abs(phi.values))) < 1e-8


def test_nabla_alpha_time_component_consistent_with_d_operator(dec):
    alpha, t = 0.5, 0.9
    beta = 1.0 / (2.0 * alpha)
    rng = np.random.default_rng(7)
    f = grid_function(dec.grid, rng.standard_normal(dec.grid.size))
    _, timepart, _ = gradient_fields(dec, alpha, dec.coefficients(f.values), np.array([t]))
    K = d_operator(dec, alpha, beta, t)
    via_d = apply_kernel(K, f)
    # t^beta with beta = 1/(2 alpha) is the field's own scaling
    assert np.max(np.abs(timepart[0] - np.abs(via_d.values))) <= \
        1e-6 * max(1.0, np.max(np.abs(via_d.values)))


def test_gradient_of_function_linear():
    g = build_grid(1, 16.0, 256, "dirichlet")
    grad = gradient_values(g, g.points[:, 0].copy())
    interior = ~boundary_layer_mask(g)
    assert np.allclose(grad[interior, 0], 1.0, atol=1e-10)
