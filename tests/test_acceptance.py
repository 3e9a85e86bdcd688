"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Default desk scale: n = 1, L = 16, M = 256, Dirichlet.
"""

import filecmp

import numpy as np
import pytest

from oracles import certify_on, mth_time_derivative_kernel, subordinate_tables
from subheat.cli import parse_config, run
from subheat.closedform import (gaussian_heat_table, gaussian_heat_value,
                                poisson_value)
from subheat.estimates import (ESTIMATE_IDS, EstimateParams, build_backend,
                               decay_exponent_fit)
from subheat.fracderiv import frac_multiplier_quadrature, frac_time_derivative
from subheat.grid import build_grid, grid_function, inner_box_mask
from subheat.potentials import constant, power, zero
from subheat.spectral import (assemble, compose, eigendecompose,
                              fractional_heat_kernel, heat_kernel)
from subheat.spaces import (area_function, default_time_grid, g_constant, g_function,
                            duality_pairing_check, make_atom,
                            make_equivalence_suite, equivalence_experiment,
                            quasi_norm, reproducing_check)
from subheat.subordinator import (density_descent, density_half, density_series,
                                  laplace_transform, subordinate_kernel,
                                  tail_exponent_fit)

RHO_FLAT = 1.0 / np.sqrt(2.0)


def _report(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


@pytest.fixture(scope="module")
def dec_flat():
    return eigendecompose(assemble(build_grid(1, 16.0, 256), constant(1.0)))


@pytest.fixture(scope="module")
def dec_power():
    return eigendecompose(assemble(build_grid(1, 16.0, 256), power(2.0)))


@pytest.fixture(scope="module")
def dec_zero():
    return eigendecompose(assemble(build_grid(1, 16.0, 256), zero()))


@pytest.fixture(scope="module")
def dec_periodic_zero():
    return eigendecompose(assemble(build_grid(1, 16.0, 256, "periodic"), zero()))


def test_criterion_1_kernel_axioms(dec_flat, dec_power):
    for dec in (dec_flat, dec_power):
        for t in (0.25, 0.5, 1.0):
            K = heat_kernel(dec, t)
            assert K.table.min() >= -1e-10
            assert np.max(np.abs(K.table - K.table.T)) <= 1e-8
            assert K.row_masses().max() <= 1.0 + 1e-8
        for s in (0.25, 0.5, 1.0):
            for t in (0.25, 0.5, 1.0):
                direct = heat_kernel(dec, s + t)
                comp = compose(heat_kernel(dec, s), heat_kernel(dec, t))
                assert np.max(np.abs(direct.table - comp.table)) <= 1e-6
    _report(1, "kernel axioms")


def test_criterion_2_gaussian_domination():
    # V = 0: the closed-form route is the equality case
    g0 = build_grid(1, 16.0, 256)
    mask0 = inner_box_mask(g0)
    d0 = np.abs(g0.points[mask0, 0][:, None] - g0.points[mask0, 0][None, :])
    for t in (0.25, 1.0, 4.0):
        K = gaussian_heat_table(g0, t).table[np.ix_(mask0, mask0)]
        assert np.all(K <= gaussian_heat_value(d0, t, 1) + 1e-8)
    # V in {1, |x|^2}: spectral kernels at the fine end of the n=1 cap, where
    # the stencil dispersion stays below the 1e-8 slack
    g = build_grid(1, 16.0, 512)
    mask = inner_box_mask(g)
    x = g.points[mask, 0]
    dist = np.abs(x[:, None] - x[None, :])
    for pot in (constant(1.0), power(2.0)):
        dec = eigendecompose(assemble(g, pot))
        for t in (0.25, 1.0, 4.0):
            K = heat_kernel(dec, t).table[np.ix_(mask, mask)]
            bound = gaussian_heat_value(dist, t, 1) + 1e-8
            assert np.all(K <= bound)
    _report(2, "Gaussian domination")


def test_criterion_3_subordinator():
    for alpha in (0.3, 0.5, 0.8):
        assert abs(laplace_transform(alpha, 0.0) - 1.0) <= 1e-8
        for lam in (0.5, 1.0, 2.0):
            assert abs(laplace_transform(alpha, lam) - np.exp(-lam ** alpha)) <= 1e-6
    # tail slope on [1e2, 1e4]: asymptotic for alpha in {0.5, 0.8}; at 0.3 the
    # next series term shifts the window slope by ~0.024 (see decisions ledger)
    for alpha in (0.5, 0.8):
        assert abs(tail_exponent_fit(alpha) + (1.0 + alpha)) <= 0.02
    assert abs(tail_exponent_fit(0.3) + 1.3) <= 0.03
    s = np.geomspace(1e-2, 1e2, 60)
    general = np.where(s <= 1.0, density_descent(0.5, s), density_series(0.5, s))
    assert np.max(np.abs(general - density_half(s)) / density_half(s)) <= 1e-8
    _report(3, "subordinator density")


def test_criterion_4_two_route_kernels(dec_flat, dec_power, dec_zero):
    for dec in (dec_zero, dec_flat, dec_power):
        for alpha in (0.3, 0.5, 0.8):
            for t in (0.25, 1.0, 4.0):
                sub = subordinate_kernel(dec, alpha, t)
                spec = fractional_heat_kernel(dec, alpha, t)
                assert np.max(np.abs(sub.table - spec.table)) <= 1e-5 * spec.max_abs()
    _report(4, "two-route fractional kernel")


def test_criterion_5_poisson_closed_form():
    grid = build_grid(1, 16.0, 256)
    x = grid.points[:, 0]
    dist = np.abs(x[:, None] - x[None, :])
    mask = inner_box_mask(grid)
    sel = np.ix_(mask, mask)
    for t in (0.5, 1.0):
        sub = subordinate_tables(lambda s: gaussian_heat_value(dist, s, 1),
                                 grid, 0.5, t)
        exact = poisson_value(dist, t, 1)
        rel = np.abs(sub.table[sel] - exact[sel]) / exact[sel]
        assert rel.max() <= 1e-3
    _report(5, "alpha = 1/2 classical Poisson kernel")


def test_criterion_6_fractional_derivative_routes(dec_flat):
    alpha = 0.5
    la = dec_flat.eigenvalues ** alpha
    for beta in (0.3, 0.5, 1.0, 1.5):
        for t in (0.5, 1.0, 2.0):
            q = frac_multiplier_quadrature(dec_flat, alpha, beta, t)
            exact = la ** beta * np.exp(-t * la)
            assert np.max(np.abs(q - exact)) <= 1e-4 * np.max(np.abs(exact))
    quad = frac_time_derivative(dec_flat, alpha, 1.0, 1.0)
    mult = mth_time_derivative_kernel(dec_flat, alpha, 1, 1.0)
    # real normalization carries the first derivative with a positive sign
    assert np.max(np.abs(quad.table + mult.table)) <= 1e-8 * np.max(np.abs(mult.table))
    _report(6, "fractional derivative routes")


@pytest.fixture(scope="module")
def backend_pair_flat():
    return [build_backend(points_per_axis=128), build_backend(points_per_axis=256)]


@pytest.fixture(scope="module")
def backend_pair_zero():
    return [build_backend(points_per_axis=128, potential=zero()),
            build_backend(points_per_axis=256, potential=zero())]


def test_criterion_7_bound_certificates(backend_pair_flat, backend_pair_zero):
    for eid in ESTIMATE_IDS:
        cert = certify_on(eid, None, backend_pair_flat)
        assert np.isfinite(cert.c_meas)
        assert 0.8 <= cert.refine_ratio <= 1.25, f"{eid}: ratio {cert.refine_ratio}"
    cal1 = certify_on("E1", EstimateParams(alpha=0.5, N=0.0), backend_pair_zero)
    assert cal1.c_meas == pytest.approx(2.0 / np.pi, rel=0.02)
    cal12 = certify_on("E12", EstimateParams(N=0.0), backend_pair_zero)
    assert cal12.c_meas == pytest.approx(1.0, abs=1e-6)
    _report(7, "bound certificates E1-E12")


def test_criterion_8_decay_exponents(backend_pair_zero):
    fine = backend_pair_zero[1]
    fit1 = decay_exponent_fit("E1", EstimateParams(alpha=0.5), "spatial", fine)
    assert fit1["slope"] == pytest.approx(-(1 + 2 * 0.5), rel=0.05)
    fit9 = decay_exponent_fit("E9", EstimateParams(alpha=0.5, beta=1.0), "spatial", fine)
    assert fit9["slope"] == pytest.approx(-(1 + 2 * 0.5 * 1.0), rel=0.05)
    _report(8, "spatial decay exponents")


def test_criterion_9_g_function(dec_flat, dec_periodic_zero):
    for beta in (0.5, 1.0):
        phi = grid_function(dec_flat.grid, dec_flat.basis[:, 5])
        gv = g_function(dec_flat, 0.5, beta, phi, default_time_grid(dec_flat, 0.5, beta))
        target = g_constant(beta)
        assert np.max(np.abs(gv.values - target * np.abs(phi.values))) <= \
            1e-6 * np.max(np.abs(phi.values))
    rng = np.random.default_rng(42)
    vals = rng.standard_normal(dec_periodic_zero.grid.size)
    vals -= vals.mean()
    f = grid_function(dec_periodic_zero.grid, vals)
    gv = g_function(dec_periodic_zero, 0.5, 1.0, f,
                    default_time_grid(dec_periodic_zero, 0.5, 1.0))
    assert abs(gv.l2_norm() / f.l2_norm() - g_constant(1.0)) <= 1e-6
    _report(9, "g-function isometry")


def test_criterion_10_reproducing_formula(dec_flat):
    rng = np.random.default_rng(43)
    times = default_time_grid(dec_flat, 0.5, 1.0)
    for _ in range(3):
        f = grid_function(dec_flat.grid, rng.standard_normal(dec_flat.grid.size))
        assert reproducing_check(dec_flat, 0.5, 1.0, f, times) <= 1e-4
    _report(10, "reproducing formula")


def test_criterion_11_duality_pairing(dec_flat):
    rng = np.random.default_rng(44)
    times = default_time_grid(dec_flat, 0.5, 1.0)
    done = 0
    while done < 10:
        f = grid_function(dec_flat.grid, rng.standard_normal(dec_flat.grid.size))
        center = rng.uniform(-6.0, 6.0)
        radius = rng.uniform(0.3, 0.95 * RHO_FLAT)
        from subheat.grid import ball_points
        atom = make_atom(dec_flat.grid, ball_points(dec_flat.grid, [center], radius),
                         0.25, RHO_FLAT)
        ratio = duality_pairing_check(f, atom, dec_flat, 0.5, 1.0, times)
        if ratio is None:
            continue
        assert ratio == pytest.approx(1.0, abs=1e-3)
        done += 1
    _report(11, "duality pairing")


def test_criterion_12_area_function(dec_flat):
    rho = np.full(dec_flat.grid.size, RHO_FLAT)
    suite = make_equivalence_suite(dec_flat, rho, 0.25, seed=45)
    times = default_time_grid(dec_flat, 0.5, 1.0)
    for f, S in zip(suite, area_function(dec_flat, 0.5, 1.0, suite, times)):
        assert S.l2_norm() <= 4.0 * g_constant(1.0) * f.l2_norm()
    rng = np.random.default_rng(46)
    from subheat.grid import ball_points
    atom_norms = []
    for _ in range(20):
        center = rng.uniform(-6.0, 6.0)
        radius = rng.uniform(0.3, 0.95 * RHO_FLAT)
        atom = make_atom(dec_flat.grid, ball_points(dec_flat.grid, [center], radius),
                         0.25, RHO_FLAT)
        S, = area_function(dec_flat, 0.5, 1.0, [atom.function], times)
        atom_norms.append(quasi_norm(S, atom.p))
    assert np.all(np.isfinite(atom_norms))
    print(f"  criterion 12 log: max atom area quasi-norm = {max(atom_norms):.4f}")
    _report(12, "area function bounds")


def test_criterion_13_equivalence(dec_flat):
    rho = np.full(dec_flat.grid.size, RHO_FLAT)
    suite = make_equivalence_suite(dec_flat, rho, 0.25, seed=47)
    times = default_time_grid(dec_flat, 0.5, 1.0)
    rep = equivalence_experiment(suite, dec_flat, 0.5, 1.0, 0.25, rho, times)
    assert rep["c_star"] <= 100.0
    doubled = [grid_function(dec_flat.grid, 2.0 * f.values) for f in suite[:3]]
    rep2 = equivalence_experiment(doubled, dec_flat, 0.5, 1.0, 0.25, rho, times)
    for r1, r2 in zip(rep["rows"][:3], rep2["rows"]):
        for key in r1:
            assert r2[key] == pytest.approx(2.0 * r1[key], rel=1e-10)
    print(f"  criterion 13 log: c* = {rep['c_star']:.3f}")
    _report(13, "norm equivalence experiment")


def test_criterion_14_determinism(tmp_path):
    base = """
[grid]
n = 1
L = 16
M = 64

[fractional]
alpha = 0.5
beta = 1.0
gamma = 0.25

[run]
command = equiv
seed = 5
out = {out}
"""
    for tag in ("a", "b"):
        run(parse_config(base.format(out=tmp_path / tag)))
    for name in ("equivalence.csv", "equivalence_summary.csv"):
        assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False)
    kern = base.replace("command = equiv", "command = kernels")
    for tag in ("ka", "kb"):
        run(parse_config(kern.format(out=tmp_path / tag)))
    assert filecmp.cmp(tmp_path / "ka" / "heat_t1.csv", tmp_path / "kb" / "heat_t1.csv",
                       shallow=False)
    _report(14, "byte-identical reruns")


def test_n2_smoke():
    """Two-dimensional smoke: kernel axioms and the two-route agreement."""
    grid = build_grid(2, 8.0, 32)
    dec = eigendecompose(assemble(grid, constant(1.0)))
    K = heat_kernel(dec, 0.5)
    assert K.table.min() >= -1e-10
    assert np.max(np.abs(K.table - K.table.T)) <= 1e-8
    assert K.row_masses().max() <= 1.0 + 1e-8
    comp = compose(heat_kernel(dec, 0.25), heat_kernel(dec, 0.25))
    assert np.max(np.abs(comp.table - K.table)) <= 1e-6
    sub = subordinate_kernel(dec, 0.5, 1.0)
    spec = fractional_heat_kernel(dec, 0.5, 1.0)
    assert np.max(np.abs(sub.table - spec.table)) <= 1e-5 * spec.max_abs()
    print("ACCEPTANCE (n=2 smoke): PASS")
