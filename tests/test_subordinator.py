import numpy as np
import pytest
from scipy.special import gamma

from oracles import density_scaled, subordinate_tables
from subheat.closedform import gaussian_heat_value, poisson_value
from subheat.grid import build_grid, inner_box_mask
from subheat.potentials import constant, power
from subheat.spectral import assemble, eigendecompose, fractional_heat_kernel
from subheat.subordinator import (QUAD_NODES, TAIL_START, density, density_descent,
                                  density_half, density_selftest, laplace_transform,
                                  negative_moment, overlap_consistency,
                                  pointwise_bound_constant, subordinate_kernel,
                                  subordination_multiplier, tail_exponent_fit)


def test_density_half_closed_form_value():
    expect = np.exp(-0.25) / (2.0 * np.sqrt(np.pi))
    assert density(0.5, 1.0)[0] == pytest.approx(expect, rel=1e-12)


def test_density_rejects_bad_arguments():
    with pytest.raises(ValueError):
        density(1.2, 1.0)
    with pytest.raises(ValueError):
        density(0.5, -1.0)


def test_density_nonnegative():
    s = np.geomspace(1e-3, 1e3, 60)
    for alpha in (0.3, 0.5, 0.8):
        assert np.all(density(alpha, s) >= 0.0)


def test_closed_form_vs_general_evaluators():
    s = np.geomspace(1e-2, 1e2, 60)
    exact = density_half(s)
    general = np.where(s <= 1.0, density_descent(0.5, s),
                       np.array([float(x) for x in _series_half(s)]))
    rel = np.abs(general - exact) / exact
    assert rel.max() < 1e-8


def _series_half(s):
    from subheat.subordinator import density_series
    return density_series(0.5, np.asarray(s)[np.asarray(s) > 0])


def test_overlap_consistency_between_routes():
    for alpha in (0.2, 0.3, 0.5, 0.7, 0.8):
        assert overlap_consistency(alpha) < 1e-6


def test_normalization_defect():
    for alpha in (0.3, 0.5, 0.7, 0.8):
        assert abs(laplace_transform(alpha, 0.0) - 1.0) < 1e-8


def test_laplace_transform_matches_stretched_exponential():
    for alpha in (0.3, 0.5, 0.8):
        for lam in (0.5, 1.0, 2.0):
            got = laplace_transform(alpha, lam)
            assert got == pytest.approx(np.exp(-lam ** alpha), abs=1e-8)


def test_scaling_law_holds_by_construction():
    t, s = 2.3, np.array([0.4, 1.7, 9.0])
    direct = density_scaled(0.7, t, s)
    scaled = density(0.7, s / t ** (1 / 0.7)) / t ** (1 / 0.7)
    assert np.allclose(direct, scaled, rtol=1e-13)


def test_tail_slope():
    # the [1e2, 1e4] window is asymptotic for these alphas (for 0.3 the
    # next-order series term still shifts the window slope by ~0.024)
    for alpha in (0.5, 0.7, 0.8):
        assert abs(tail_exponent_fit(alpha) + (1.0 + alpha)) < 0.02
    assert abs(tail_exponent_fit(0.3) + 1.3) < 0.03


def test_leading_tail_coefficient():
    # s^(1+a) eta(s) -> a / Gamma(1-a); at s = 1e3 the relative gap is the
    # next series term ~ 0.59 * s^(-0.3) for alpha = 0.3
    alpha = 0.3
    lead = alpha / gamma(1.0 - alpha)
    at_1e3 = density(alpha, 1e3)[0] * 1e3 ** (1 + alpha)
    assert at_1e3 == pytest.approx(lead, rel=8e-2)
    at_far = density(alpha, 1e7)[0] * 1e7 ** (1 + alpha)
    assert at_far == pytest.approx(lead, rel=1e-2)


def test_pointwise_tail_bound_constant_finite():
    for alpha in (0.3, 0.5, 0.8):
        c = pointwise_bound_constant(alpha)
        assert 0 < c < 10.0


def test_negative_moments_finite():
    for alpha in (0.3, 0.7):
        for g_exp in (0.5, 1.0):
            val = negative_moment(alpha, g_exp)
            assert np.isfinite(val) and val > 0


def test_selftest_report_fields():
    rep = density_selftest(0.5)
    assert rep["normalization_defect"] < 1e-8
    assert abs(rep["tail_slope"] + 1.5) < 0.02
    assert rep["overlap_consistency"] < 1e-6


def test_multiplier_matches_fractional_exponential():
    lam = np.concatenate(([0.0], np.geomspace(1e-3, 300.0, 40)))
    for alpha in (0.3, 0.5, 0.8):
        for t in (0.25, 1.0, 4.0):
            got = subordination_multiplier(alpha, t, lam)
            expect = np.exp(-t * lam ** alpha)
            assert np.max(np.abs(got - expect)) < 1e-6


@pytest.fixture(scope="module")
def flat_dec():
    g = build_grid(1, 16.0, 256, "dirichlet")
    return eigendecompose(assemble(g, constant(1.0)))


def test_two_route_agreement(flat_dec):
    for alpha in (0.3, 0.5, 0.8):
        for t in (0.25, 1.0, 4.0):
            sub = subordinate_kernel(flat_dec, alpha, t)
            spec = fractional_heat_kernel(flat_dec, alpha, t)
            scale = spec.max_abs()
            assert np.max(np.abs(sub.table - spec.table)) <= 1e-5 * scale


def test_two_route_agreement_power_potential():
    g = build_grid(1, 16.0, 128, "dirichlet")
    dec = eigendecompose(assemble(g, power(2.0)))
    sub = subordinate_kernel(dec, 0.5, 1.0)
    spec = fractional_heat_kernel(dec, 0.5, 1.0)
    assert np.max(np.abs(sub.table - spec.table)) <= 1e-5 * spec.max_abs()


def test_table_route_equals_multiplier_route():
    g = build_grid(1, 4.0, 64, "dirichlet")
    dec = eigendecompose(assemble(g, constant(1.0)))

    def provider(s):
        lam = dec.eigenvalues
        return (dec.basis * np.exp(-s * lam)[None, :]) @ dec.basis.T

    # the oracle on the production rule: every eigenvalue's tail beyond
    # TAIL_START is below e^-40, so the routes agree by linearity
    lit = subordinate_tables(provider, g, 0.6, 0.8, nodes=QUAD_NODES, hi_factor=TAIL_START)
    con = subordinate_kernel(dec, 0.6, 0.8)
    assert np.max(np.abs(lit.table - con.table)) < 1e-11 * con.max_abs()


def test_subordinated_free_gaussian_is_poisson():
    # classical subordination: Gaussian heat kernels against eta^(1/2) give
    # the Poisson kernel, independent of any grid operator
    g = build_grid(1, 16.0, 256, "dirichlet")
    x = g.points[:, 0]
    dist = np.abs(x[:, None] - x[None, :])

    def provider(s):
        return gaussian_heat_value(dist, s, 1)

    for t in (0.5, 1.0):
        sub = subordinate_tables(provider, g, 0.5, t)
        exact = poisson_value(dist, t, 1)
        mask = inner_box_mask(g)
        sel = np.ix_(mask, mask)
        rel = np.abs(sub.table[sel] - exact[sel]) / exact[sel]
        assert rel.max() < 1e-3
    # spot value at coincident points, t = 1: classical Poisson 1/pi
    i = np.argmin(np.abs(x))
    assert sub.table[i, i] == pytest.approx(1.0 / np.pi, rel=1e-3)
