import numpy as np
import pytest

from subheat import estimates
from subheat.estimates import (DEFAULT_PARAMS, ESTIMATE_IDS, EstimateParams,
                               build_backend, certify, decay_exponent_fit,
                               refinement_study, scan_estimate)
from subheat.potentials import compute_aux_function, power, zero


@pytest.fixture(scope="module")
def flat_pair():
    return [build_backend(points_per_axis=128), build_backend(points_per_axis=256)]


@pytest.fixture(scope="module")
def zero_pair():
    return [build_backend(points_per_axis=128, potential=zero()),
            build_backend(points_per_axis=256, potential=zero())]


@pytest.fixture(scope="module")
def power_pair():
    return [build_backend(points_per_axis=128, potential=power(2.0)),
            build_backend(points_per_axis=256, potential=power(2.0))]


def test_all_ids_finite_and_stable_flat(flat_pair):
    for eid in ESTIMATE_IDS:
        cert = certify(eid, None, flat_pair)
        assert np.isfinite(cert.c_meas) and cert.c_meas > 0
        assert 0.8 <= cert.refine_ratio <= 1.25
        assert cert.passed


def test_all_ids_finite_power_potential(power_pair):
    for eid in ESTIMATE_IDS:
        cert = certify(eid, None, power_pair)
        assert np.isfinite(cert.c_meas)
        assert cert.passed


def test_zero_potential_where_defined(zero_pair):
    for eid in ESTIMATE_IDS:
        if eid in ("E8", "E11"):
            with pytest.raises(ValueError):
                certify(eid, None, zero_pair)
        else:
            cert = certify(eid, None, zero_pair)
            assert cert.passed


def test_e1_poisson_calibration(zero_pair):
    cert = certify("E1", EstimateParams(alpha=0.5, N=0.0), zero_pair)
    assert cert.c_meas == pytest.approx(2.0 / np.pi, rel=0.02)
    # sup of (t+r)^2/(t^2+r^2) sits on the diagonal t = r
    x, y, t = cert.argmax
    assert abs(x - y) == pytest.approx(t, rel=0.5)


def test_e12_gaussian_equality_case(zero_pair):
    cert = certify("E12", EstimateParams(N=0.0), zero_pair)
    assert cert.c_meas == pytest.approx(1.0, abs=1e-6)
    assert cert.refine_ratio == pytest.approx(1.0, abs=1e-9)


def test_monotone_in_penalty_exponent(flat_pair):
    fine = flat_pair[1]
    values = [certify("E1", EstimateParams(N=N), fine).c_meas for N in (0.0, 1.0, 2.0)]
    assert values[0] <= values[1] <= values[2]


def test_alpha_sweep_finite(flat_pair):
    fine = flat_pair[1]
    for alpha in (0.3, 0.5, 0.8):
        for eid in ("E1", "E2", "E6", "E9"):
            acc, _, _ = scan_estimate(eid, EstimateParams(alpha=alpha), fine)
            assert np.isfinite(acc.c_meas) and acc.c_meas > 0


def test_symmetry_under_xy_swap(flat_pair):
    # scanning pairs includes both (i, j) and (j, i); the sup for the
    # symmetric fractional kernel is invariant under the swap
    fine = flat_pair[1]
    cert = certify("E1", None, fine)
    x, y, t = cert.argmax
    assert np.isfinite(cert.c_meas)
    # swapped argmax must attain the same ratio by symmetry of K and majorant
    assert cert.c_meas > 0


def test_unknown_estimate_rejected(flat_pair):
    with pytest.raises(KeyError):
        certify("E13", None, flat_pair[0])


def test_refinement_study_requires_two_grids(flat_pair):
    with pytest.raises(ValueError):
        refinement_study("E5", None, [flat_pair[0]])


def test_refinement_study_rejects_non_nested():
    a = build_backend(points_per_axis=128)
    b = build_backend(points_per_axis=192)
    with pytest.raises(ValueError):
        refinement_study("E5", None, [a, b])


def test_refinement_study_e5(flat_pair):
    rep = refinement_study("E5", None, flat_pair)
    assert rep["pass"]
    assert all(0.8 <= r <= 1.25 for r in rep["ratios"])


def test_refinement_study_e12_zero(zero_pair):
    rep = refinement_study("E12", EstimateParams(N=0.0), zero_pair)
    assert rep["c_meas"][0] <= 1.0 + 1e-6
    assert rep["c_meas"][1] <= 1.0 + 1e-6


def test_decay_fit_spatial_poisson(zero_pair):
    fit = decay_exponent_fit("E1", EstimateParams(alpha=0.5), "spatial", zero_pair[1])
    assert fit["slope"] == pytest.approx(-2.0, rel=0.05)
    assert fit["r2"] > 0.99


def test_decay_fit_spatial_d_operator(zero_pair):
    fit = decay_exponent_fit("E9", EstimateParams(alpha=0.5, beta=1.0), "spatial",
                             zero_pair[1])
    assert fit["slope"] == pytest.approx(-2.0, rel=0.05)


def test_decay_fit_temporal(flat_pair):
    fit = decay_exponent_fit("E9", None, "temporal", flat_pair[1])
    assert fit["slope"] == pytest.approx(1.0, rel=0.05)


def test_decay_fit_rho_axis(flat_pair, power_pair):
    assert "skipped" in decay_exponent_fit("E1", None, "rho", flat_pair[1])
    fit = decay_exponent_fit("E1", None, "rho", power_pair[1])
    assert np.isfinite(fit["slope"])


def test_decay_fit_needs_points(flat_pair):
    with pytest.raises(ValueError):
        decay_exponent_fit("E1", None, "spatial", flat_pair[1], points=4)


def test_family_members_e3(flat_pair):
    fine = flat_pair[1]
    for member in ("size", "holder", "mass"):
        acc, _, _ = scan_estimate("E3", EstimateParams(m=1, member=member), fine)
        assert np.isfinite(acc.c_meas) and acc.c_meas > 0


def test_family_members_e12(flat_pair):
    fine = flat_pair[1]
    for member in ("size", "holder", "q_size", "q_holder", "q_mass"):
        for m in (1, 2):
            acc, _, _ = scan_estimate("E12", EstimateParams(m=m, member=member), fine)
            assert np.isfinite(acc.c_meas)


def test_e7_heat_member(flat_pair):
    acc, _, _ = scan_estimate("E7", EstimateParams(member="heat"), flat_pair[1])
    assert np.isfinite(acc.c_meas) and acc.c_meas > 0


def test_params_resolution_defaults():
    p = DEFAULT_PARAMS["E7"].resolved("E7", 1)
    assert p.q == 2.0
    assert p.delta_prime == pytest.approx(0.5)
    p10 = DEFAULT_PARAMS["E10"].resolved("E10", 1)
    assert p10.delta_prime == pytest.approx(min(2 * 0.5, 1.0))


def test_e9_within_factor_two_of_e1_at_zero_potential(zero_pair):
    # both reduce to Poisson-type kernels at alpha = 1/2, beta = 1
    c1 = certify("E1", EstimateParams(alpha=0.5, N=0.0), zero_pair)
    c9 = certify("E9", EstimateParams(alpha=0.5, beta=1.0, N=0.0), zero_pair)
    assert c9.c_meas <= 2.0 * c1.c_meas
    assert c1.c_meas <= 2.0 * c9.c_meas


def test_empty_scan_fails_its_certificate():
    # at n=2 M=16 the spacing is 2 and no shift in (1, 2, 4) L/64 is a whole
    # number of cells, so the E2 Holder scan visits no lattice point
    pair = [build_backend(n=2, points_per_axis=M, potential=power(2.0)) for M in (8, 16)]
    cert = certify("E2", None, pair[1])
    assert cert.c_meas == 0.0 and cert.passed is False
    assert refinement_study("E2", None, pair)["pass"] is False


def test_certificate_lattice_description(flat_pair):
    cert = certify("E1", None, flat_pair)
    assert "pairs" in cert.lattice


def _refinement_study_rescanning(estimate_id, params, backends):
    """`refinement_study` as of commit d2efde8: it scanned the last two grids twice."""
    params = params if params is not None else DEFAULT_PARAMS[estimate_id]
    c_by_grid = [scan_estimate(estimate_id, params, b)[0].c_meas for b in backends]
    ratios = [c_by_grid[i] / c_by_grid[i + 1] if c_by_grid[i + 1] > 0 else np.nan
              for i in range(len(c_by_grid) - 1)]
    cert = certify(estimate_id, params, backends[-2:])
    return {
        "estimate": estimate_id,
        "grids": [b.grid.points_per_axis for b in backends],
        "c_meas": c_by_grid,
        "ratios": ratios,
        "pass": cert.passed and all(0.8 <= r <= 1.25 for r in ratios if np.isfinite(r)),
        "certificate": cert,
    }


@pytest.mark.parametrize("eid, params, pair", [("E5", None, "flat_pair"),
                                               ("E12", EstimateParams(N=0.0), "zero_pair")])
def test_refinement_study_scans_each_grid_once(monkeypatch, request, eid, params, pair):
    backends = request.getfixturevalue(pair)
    expected = _refinement_study_rescanning(eid, params, backends)
    calls = []

    def counting(*args):
        calls.append(args[0])
        return scan_estimate(*args)

    monkeypatch.setattr(estimates, "scan_estimate", counting)
    assert refinement_study(eid, params, backends) == expected
    assert calls == [eid, eid]


def test_backend_rho_is_aligned_with_the_lattice():
    backend = build_backend(n=2, points_per_axis=16, potential=power(2.0))
    lat = backend.lattice_indices()
    aux = compute_aux_function(power(2.0), backend.grid, indices=lat)
    assert np.array_equal(backend.rho(), aux.rho[lat])
    zero_backend = build_backend(n=2, points_per_axis=16, potential=zero())
    assert zero_backend.rho().shape == lat.shape and np.all(np.isinf(zero_backend.rho()))
