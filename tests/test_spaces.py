import dataclasses
import tracemalloc

import numpy as np
import pytest

from oracles import (area_function_unblocked, ball_family_per_ball, bmo_norm_one,
                     carleson_field_nu_alpha, carleson_norm_one, ladder,
                     lipschitz_norm_unblocked, nabla_alpha_field)
from subheat import cli, spaces
from subheat.grid import Grid, ball_points, build_grid, grid_function
from subheat.potentials import compute_aux_function, constant, well, zero
from subheat.spaces import (SpaceTimeField, area_function, ball_centers, ball_family, bmo_norm,
                            carleson_boxes, carleson_norm, d_field, default_time_grid,
                            duality_pairing_check, equivalence_experiment,
                            equivalence_rho_indices,
                            g_constant, g_function, gradient_fields, lipschitz_norm,
                            make_atom, make_equivalence_suite, quasi_norm,
                            reproducing_check, _log_trapezoid_weights)
from subheat.spectral import assemble, eigendecompose

RHO_FLAT = 1.0 / np.sqrt(2.0)


@pytest.fixture(scope="module")
def dec():
    g = build_grid(1, 16.0, 256, "dirichlet")
    return eigendecompose(assemble(g, constant(1.0)))


@pytest.fixture(scope="module")
def rho(dec):
    return np.full(dec.grid.size, RHO_FLAT)


@pytest.fixture(scope="module")
def periodic_free():
    g = build_grid(1, 16.0, 256, "periodic")
    return eigendecompose(assemble(g, zero()))


def test_bmo_constant_attains_critical_radius(dec, rho):
    f = grid_function(dec.grid, np.full(dec.grid.size, 3.0))
    got, = bmo_norm([f], 0.5, rho, ball_family(dec.grid, rho))
    expect = 3.0 * (2.0 * RHO_FLAT) ** -0.5
    assert got == pytest.approx(expect, rel=0.02)


def test_bmo_zero(dec, rho):
    f = grid_function(dec.grid, np.zeros(dec.grid.size))
    assert bmo_norm([f], 0.5, rho, ball_family(dec.grid, rho)) == [0.0]


def test_bmo_homogeneous(dec, rho):
    rng = np.random.default_rng(0)
    f = grid_function(dec.grid, rng.standard_normal(dec.grid.size))
    balls = ball_family(dec.grid, rho)
    a, b = bmo_norm([f, grid_function(dec.grid, 2.0 * f.values)], 0.25, rho, balls)
    assert b == pytest.approx(2.0 * a, rel=1e-10)


@pytest.mark.parametrize("gamma", [0.0, -0.5, 1.5, np.nan])
def test_bmo_rejects_gamma_outside_unit_interval(dec, rho, gamma):
    f = grid_function(dec.grid, np.cos(dec.grid.points[:, 0]))
    with pytest.raises(ValueError, match="gamma must lie in"):
        bmo_norm([f], gamma, rho, ball_family(dec.grid, rho))


def test_bmo_holder_profile_stable_under_refinement(rho):
    vals = {}
    for M in (256, 512):
        g = build_grid(1, 16.0, M, "dirichlet")
        f = grid_function(g, np.minimum(np.abs(g.points[:, 0]), 4.0) ** 0.25)
        rho_g = np.full(g.size, RHO_FLAT)
        vals[M], = bmo_norm([f], 0.25, rho_g, ball_family(g, rho_g))
    assert abs(vals[512] - vals[256]) / vals[256] < 0.10


def test_bmo_small_ball_part_constant_invariant(dec, rho):
    # oscillation on sub-critical balls is exactly unchanged by adding a constant
    balls = [b for b in ball_family(dec.grid, rho) if b.radius < RHO_FLAT]
    rng = np.random.default_rng(1)
    f = rng.standard_normal(dec.grid.size)
    a, b = bmo_norm([grid_function(dec.grid, f), grid_function(dec.grid, f + 7.0)], 0.25,
                    rho, balls)
    assert a == pytest.approx(b, rel=1e-12)


def test_lipschitz_constant_value(dec, rho):
    f = grid_function(dec.grid, np.full(dec.grid.size, 3.0))
    got, = lipschitz_norm([f], 0.5, rho)
    assert got == pytest.approx(3.0 / RHO_FLAT ** 0.5, rel=1e-12)


def test_lipschitz_linear_holder_sup(dec, rho):
    f = grid_function(dec.grid, dec.grid.points[:, 0].copy())
    got, = lipschitz_norm([f], 1.0, rho)
    # Holder-1 seminorm of x is 1; the size term sup |x|/rho dominates
    x_max = 16.0 - dec.grid.spacing / 2
    assert got == pytest.approx(max(1.0, x_max / RHO_FLAT), rel=1e-6)
    # the seminorm alone is exactly 1
    rho_huge = np.full(dec.grid.size, np.inf)
    vals = np.where(np.isinf(rho_huge), 0.0, 1.0)  # guard: inf rho kills size term
    got2, = lipschitz_norm([f], 1.0, np.full(dec.grid.size, 1e12))
    assert got2 == pytest.approx(1.0, rel=1e-9)


def test_bmo_lipschitz_equivalence_band(dec, rho):
    rng = np.random.default_rng(2)
    for _ in range(4):
        coeff = np.zeros(dec.grid.size)
        coeff[:10] = rng.standard_normal(10)
        f = grid_function(dec.grid, dec.synthesize(coeff))
        nb, = bmo_norm([f], 0.25, rho, ball_family(dec.grid, rho))
        nl, = lipschitz_norm([f], 0.25, rho)
        assert 1.0 / 50.0 <= nb / nl <= 50.0


def test_atom_cancellation_and_saturation(dec, rho):
    ball = ball_points(dec.grid, [0.5], 0.4)
    atom = make_atom(dec.grid, ball, 0.25, RHO_FLAT)
    total = abs(np.sum(atom.values)) * dec.grid.cell_weight
    assert total <= 1e-10
    measure = ball.members.size * dec.grid.cell_weight
    bound = measure ** (-1.0 / (1 / (1 + 0.25)))       # |B|^(-1/p), p = n/(n + gamma)
    sup = np.max(np.abs(atom.values))
    assert sup <= bound * (1.0 + 1e-10)
    assert sup >= bound / 2.0
    outside = np.setdiff1d(np.arange(dec.grid.size), ball.members)
    assert np.all(atom.values[outside] == 0.0)


def test_atom_rejections(dec):
    big = ball_points(dec.grid, [0.0], 2.0)
    with pytest.raises(ValueError):
        make_atom(dec.grid, big, 0.25, RHO_FLAT)          # r_B > rho


def test_g_function_eigen_identity(dec):
    for beta in (0.5, 1.0):
        k = 6
        phi = grid_function(dec.grid, dec.basis[:, k])
        gv = g_function(dec, 0.5, beta, phi, default_time_grid(dec, 0.5, beta))
        target = g_constant(beta)
        err = np.max(np.abs(gv.values - target * np.abs(phi.values)))
        assert err <= 1e-6 * max(1.0, np.max(np.abs(phi.values)))


def test_g_constant_beta_one():
    assert g_constant(1.0) == pytest.approx(0.5)


def test_g_function_l2_identity_mean_zero(periodic_free):
    dec = periodic_free
    rng = np.random.default_rng(5)
    vals = rng.standard_normal(dec.grid.size)
    vals -= vals.mean()
    f = grid_function(dec.grid, vals)
    gv = g_function(dec, 0.5, 1.0, f, default_time_grid(dec, 0.5, 1.0))
    assert gv.l2_norm() / f.l2_norm() == pytest.approx(g_constant(1.0), abs=1e-6)


def test_area_function_zero(dec):
    f = grid_function(dec.grid, np.zeros(dec.grid.size))
    S, = area_function(dec, 0.5, 1.0, [f], default_time_grid(dec, 0.5, 1.0))
    assert np.all(S.values == 0.0)


def test_area_function_l2_bound(dec, rho):
    suite = make_equivalence_suite(dec, rho, 0.25, seed=6)
    for f, S in zip(suite, area_function(dec, 0.5, 1.0, suite,
                                         default_time_grid(dec, 0.5, 1.0))):
        assert S.l2_norm() <= 4.0 * g_constant(1.0) * f.l2_norm()
    # at beta = 1/2 the sub-grid cone columns inflate S on spectrally rough
    # members (atoms), so the measured constant is asserted on the smooth ones
    smooth = suite[:3] + suite[6:]
    for f, S in zip(smooth, area_function(dec, 0.5, 0.5, smooth,
                                          default_time_grid(dec, 0.5, 0.5))):
        assert S.l2_norm() <= 4.0 * g_constant(0.5) * f.l2_norm()


def test_area_function_on_atoms(dec, rho):
    rng = np.random.default_rng(7)
    times = default_time_grid(dec, 0.5, 1.0)
    vals = []
    for _ in range(20):
        c = rng.uniform(-6.0, 6.0)
        r = rng.uniform(0.3, RHO_FLAT * 0.95)
        ball = ball_points(dec.grid, [c], r)
        S, = area_function(dec, 0.5, 1.0, [make_atom(dec.grid, ball, 0.25, RHO_FLAT)], times)
        vals.append(quasi_norm(S, 1 / (1 + 0.25)))         # p = n/(n + gamma)
    assert np.all(np.isfinite(vals))
    assert max(vals) < 50.0


def _area_function_per_slice(dec, alpha, beta, f, times):
    """Reference cone square function: one |x - y| < r_j mask per time slice."""
    fld = d_field(dec, alpha, beta, f, times)
    grid = dec.grid
    n, w = grid.dimension, grid.cell_weight
    dist = grid.pair_distances()
    out = np.zeros(grid.size)
    for t_j, w_j, row in zip(times, fld.weights, fld.values):
        radius = t_j ** (1.0 / (2.0 * alpha))
        window = (dist < radius) @ row ** 2
        out += w_j * window * w / t_j ** (n / (2.0 * alpha))
    return np.sqrt(out)


@pytest.fixture(scope="module", params=["dirichlet", "periodic"])
def dec_2d(request):
    g = build_grid(2, 8.0, 16, request.param)
    return eigendecompose(assemble(g, constant(1.0)))


def _random_member(dec, seed):
    rng = np.random.default_rng(seed)
    return grid_function(dec.grid, rng.standard_normal(dec.grid.size))


def _ladder(dec, alpha, beta, kind):
    if kind == "radius-on-pair-distance":
        # at alpha = 1/2 the radius is t itself, so these slices put pairs
        # exactly on the cone boundary, where the strict < must leave them out
        assert alpha == 0.5
        on_grid = np.unique(dec.grid.pair_distances())[1:9]
        return np.sort(np.concatenate([on_grid, np.geomspace(3.0, 40.0, 12)]))
    times = default_time_grid(dec, alpha, beta, n_times=24)
    return np.random.default_rng(3).permutation(times) if kind == "shuffled" else times


@pytest.mark.parametrize("alpha, beta, kind", [
    (0.5, 1.0, "sorted"), (0.3, 0.5, "sorted"), (0.5, 1.0, "shuffled"),
    (0.5, 1.0, "radius-on-pair-distance")])
def test_area_function_2d_matches_per_slice_oracle(dec_2d, alpha, beta, kind):
    # two members share the cone index of one call
    members = [_random_member(dec_2d, 11), _random_member(dec_2d, 12)]
    times = _ladder(dec_2d, alpha, beta, kind)
    got = area_function(dec_2d, alpha, beta, members, times)
    assert len(got) == len(members)
    for f, S in zip(members, got):
        ref = _area_function_per_slice(dec_2d, alpha, beta, f, times)
        np.testing.assert_allclose(S.values, ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
def test_spaces_n2_run_builds_each_distance_block_once(tmp_path, monkeypatch, bc):
    """The cone index and the Lipschitz sample distances are built once per row
    block per `spaces` run, not once per suite member: at M = 24 (576 points,
    every one sampled) each point heads a row of exactly two blocks."""
    blocks = _counted_block_distances(monkeypatch)
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(f"[grid]\nn = 2\nL = 8\nM = 24\nbc = {bc}\n")
    assert cli.main(["spaces", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    per_run = -(-576 // spaces.ROW_BLOCK)
    assert len(blocks) == 2 * per_run
    assert all(cols == 576 for _, cols in blocks)
    rows = np.concatenate([r for r, _ in blocks])
    assert np.array_equal(np.bincount(rows, minlength=576), np.full(576, 2))


def _counted_block_distances(monkeypatch):
    """Record (rows, column count) of each `Grid.block_distances` call."""
    original = Grid.block_distances
    calls = []

    def counting(grid, rows, cols):
        calls.append((np.asarray(rows).copy(), len(cols)))
        return original(grid, rows, cols)

    monkeypatch.setattr(Grid, "block_distances", counting)
    return calls


def _counted(monkeypatch, name):
    """Count the calls of `spaces.<name>` made through the package's bindings of it."""
    original = getattr(spaces, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (spaces, cli):
        if getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("command", ["spaces", "equiv", "selftest"])
def test_each_command_builds_its_ladder_and_sample_distances_once(tmp_path, monkeypatch,
                                                                   command):
    """The command builds the time ladder once and passes it to every functional;
    `spaces` builds the cone index and the Lipschitz sample distances once for
    the whole suite, one row block each at M = 16."""
    ladders = _counted(monkeypatch, "default_time_grid")
    distances = _counted_block_distances(monkeypatch)
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text("[grid]\nn = 2\nL = 8\nM = 16\n")
    assert cli.main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert len(ladders) == 1
    assert len(distances) == (2 if command == "spaces" else 0)


def _assert_ladder_order_free(dec):
    # the dt/t weights follow their times, so a shuffled ladder is the same ladder
    f = _random_member(dec, 5)
    times = default_time_grid(dec, 0.5, 1.0, n_times=20)
    shuffled = np.random.default_rng(4).permutation(times)
    np.testing.assert_allclose(g_function(dec, 0.5, 1.0, f, shuffled).values,
                               g_function(dec, 0.5, 1.0, f, times).values,
                               rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(area_function(dec, 0.5, 1.0, [f], shuffled)[0].values,
                               area_function(dec, 0.5, 1.0, [f], times)[0].values,
                               rtol=1e-12, atol=0.0)
    assert reproducing_check(dec, 0.5, 1.0, f, shuffled) == pytest.approx(
        reproducing_check(dec, 0.5, 1.0, f, times), rel=1e-12)


def test_shuffled_ladder_matches_sorted_n1(dec):
    _assert_ladder_order_free(dec)


def test_shuffled_ladder_matches_sorted_n2(dec_2d):
    _assert_ladder_order_free(dec_2d)


def test_log_trapezoid_weights_follow_their_times():
    times = np.geomspace(1e-3, 1e1, 20)
    order = np.random.default_rng(6).permutation(times.size)
    w = _log_trapezoid_weights(times[order])
    assert np.array_equal(w, _log_trapezoid_weights(times)[order])
    assert np.sum(w) == pytest.approx(np.log(1e4))


def test_carleson_unit_field_hand_quadrature(dec):
    g = dec.grid
    times = default_time_grid(dec, 0.5, 1.0, n_times=32)
    w = _log_trapezoid_weights(times)
    fld = SpaceTimeField(g, times, np.ones((times.size, g.size)), w)
    ball = ball_points(g, [0.0], 1.0)
    got, = carleson_norm(fld, 1.0, carleson_boxes([ball], times, 1.0))
    hand = float(np.sum(w[times <= ball.radius]))
    assert got == pytest.approx(hand, abs=1e-10)


def test_carleson_constant_function_periodic(periodic_free):
    dec = periodic_free
    ones = grid_function(dec.grid, np.ones(dec.grid.size))
    times = default_time_grid(dec, 0.5, 1.0, n_times=24)
    nu = gradient_fields(dec.grid, 0.5, times,
                         ladder(dec, 0.5, dec.coefficients(ones.values), times))[2]
    fld = SpaceTimeField(dec.grid, times, nu, _log_trapezoid_weights(times))
    balls = [ball_points(dec.grid, [0.0], 1.0)]
    assert carleson_norm(fld, 1.0, carleson_boxes(balls, times, 1.0))[0] <= 1e-18


def test_carleson_bmo_variant_finite(dec, rho):
    gamma = 0.25
    times = default_time_grid(dec, 0.5, 1.0, n_times=32)
    f = grid_function(dec.grid, np.minimum(np.abs(dec.grid.points[:, 0]), 4.0) ** gamma)
    fld = d_field(dec, 0.5, 1.0, f, times)
    sq = SpaceTimeField(dec.grid, times, fld.values ** 2, fld.weights)
    balls = ball_family(dec.grid, rho)
    kappa = 1.0 + 2.0 * gamma
    val, = carleson_norm(sq, kappa, carleson_boxes(balls, times, 1.0))
    assert np.isfinite(val) and val > 0


def test_reproducing_eigenfunction(dec):
    phi = grid_function(dec.grid, dec.basis[:, 3])
    assert reproducing_check(dec, 0.5, 1.0, phi, default_time_grid(dec, 0.5, 1.0)) <= 1e-6


def test_reproducing_random(dec):
    rng = np.random.default_rng(8)
    f = grid_function(dec.grid, rng.standard_normal(dec.grid.size))
    assert reproducing_check(dec, 0.5, 1.0, f, default_time_grid(dec, 0.5, 1.0)) <= 1e-4


@pytest.mark.parametrize("alpha, beta", [(0.5, 1.0), (0.5, 0.5), (0.3, 2.0), (0.8, 1.5)])
@pytest.mark.parametrize("basis", ["dec", "periodic_free"])
def test_reproducing_multiplier_is_one_on_positive_modes(request, basis, alpha, beta):
    """The ladder integral of (t^b d_t^b e^{-tL^a})^2 dt/t over its exact value
    is 1 on every positive mode and exactly 0 on the zero mode of V = 0."""
    d = request.getfixturevalue(basis)
    mult = spaces._reproducing_multiplier(d, alpha, beta, default_time_grid(d, alpha, beta))
    positive = d.eigenvalues > 0
    assert np.max(np.abs(mult[positive] - 1.0)) <= 1e-7
    assert np.all(mult[~positive] == 0.0) and np.count_nonzero(~positive) == d.has_zero_mode


def test_reproducing_monotone_in_time_resolution(dec):
    rng = np.random.default_rng(9)
    f = grid_function(dec.grid, rng.standard_normal(dec.grid.size))
    residuals = [reproducing_check(dec, 0.5, 1.0, f,
                                   default_time_grid(dec, 0.5, 1.0, n_times=J))
                 for J in (16, 32, 64)]
    assert residuals[0] > residuals[1] > residuals[2]


def test_reproducing_zero_mode_guard(periodic_free):
    dec = periodic_free
    ones = grid_function(dec.grid, np.ones(dec.grid.size))
    with pytest.raises(ValueError):
        reproducing_check(dec, 0.5, 1.0, ones, default_time_grid(dec, 0.5, 1.0))


def test_duality_eigen_pair(dec):
    ball = ball_points(dec.grid, [0.5], 0.4)
    atom = make_atom(dec.grid, ball, 0.25, RHO_FLAT)
    phi = grid_function(dec.grid, dec.basis[:, 2])
    ratio = duality_pairing_check(phi, atom, dec, 0.5, 1.0, default_time_grid(dec, 0.5, 1.0))
    assert ratio == pytest.approx(1.0, abs=1e-4)


def test_duality_orthogonal_pair(dec):
    ball = ball_points(dec.grid, [0.5], 0.4)
    atom = make_atom(dec.grid, ball, 0.25, RHO_FLAT)
    # orthogonalize f against the atom explicitly
    rng = np.random.default_rng(10)
    f = rng.standard_normal(dec.grid.size)
    a = atom.values
    f -= (f @ a) / (a @ a) * a
    assert duality_pairing_check(grid_function(dec.grid, f), atom, dec, 0.5, 1.0,
                                 default_time_grid(dec, 0.5, 1.0)) is None


def test_equivalence_experiment(dec, rho):
    suite = make_equivalence_suite(dec, rho, 0.25, seed=11)
    assert len(suite) >= 10
    rep = equivalence_experiment(suite, dec, 0.5, 1.0, 0.25, rho,
                                 default_time_grid(dec, 0.5, 1.0))
    assert rep["c_star"] <= 100.0


def test_equivalence_scaling_exact(dec, rho):
    suite = make_equivalence_suite(dec, rho, 0.25, seed=12)[:2]
    times = default_time_grid(dec, 0.5, 1.0)
    rep1 = equivalence_experiment(suite, dec, 0.5, 1.0, 0.25, rho, times)
    doubled = [grid_function(dec.grid, 2.0 * f.values) for f in suite]
    rep2 = equivalence_experiment(doubled, dec, 0.5, 1.0, 0.25, rho, times)
    for r1, r2 in zip(rep1["rows"], rep2["rows"]):
        for key in r1:
            assert r2[key] == pytest.approx(2.0 * r1[key], rel=1e-10)


def test_equivalence_gamma_hypothesis(dec, rho):
    suite = make_equivalence_suite(dec, rho, 0.25, seed=13)[:1]
    with pytest.raises(ValueError):
        equivalence_experiment(suite, dec, 0.2, 1.0, 0.6, rho, default_time_grid(dec, 0.2, 1.0))


@pytest.mark.parametrize("beta, per_member", [(1.0, 2), (0.75, 3)])
def test_equivalence_synthesizes_each_d_field_once(monkeypatch, dec, rho, beta, per_member):
    """Each distinct order of beta, 0, 1/(2 alpha) and 1 once per live member:
    at alpha = 1/2 the orders 1/(2 alpha) and 1 coincide, at beta = 1 beta too."""
    orders = []
    synthesis = spaces._synthesis

    def counted(dec, alpha, order, coeff, times):
        orders.append(order)
        return synthesis(dec, alpha, order, coeff, times)
    monkeypatch.setattr(spaces, "_synthesis", counted)
    times = default_time_grid(dec, 0.5, beta, n_times=16)
    rep = equivalence_experiment(make_equivalence_suite(dec, rho, 0.25, seed=4), dec, 0.5,
                                 beta, 0.25, rho, times)
    live = sum("N2" in row for row in rep["rows"])
    assert live > 0 and len(orders) == per_member * live


def test_field_needs_sixteen_slices(dec):
    with pytest.raises(ValueError):
        times = default_time_grid(dec, 0.5, 1.0, n_times=8)
        SpaceTimeField(dec.grid, times, np.ones((times.size, dec.grid.size)),
                       _log_trapezoid_weights(times))


def _planted_nan(rho, i):
    out = rho.copy()
    out[i] = np.nan
    return out


def test_rho_readers_reject_uncomputed_points(dec, rho):
    grid = dec.grid
    center = int(ball_centers(grid)[3])
    f = grid_function(grid, np.cos(grid.points[:, 0]))
    with pytest.raises(ValueError, match="ball_family reads rho"):
        ball_family(grid, _planted_nan(rho, center))
    balls = ball_family(grid, rho)
    with pytest.raises(ValueError, match="bmo_norm reads rho"):
        bmo_norm([f], 0.25, _planted_nan(rho, center), balls)
    atom = int(np.argmin(grid.distances_from([1.0])))
    with pytest.raises(ValueError, match="make_equivalence_suite reads rho"):
        make_equivalence_suite(dec, _planted_nan(rho, atom), 0.25)
    outside = int(np.setdiff1d(np.arange(grid.size), equivalence_rho_indices(grid))[0])
    with pytest.raises(ValueError, match="lipschitz_norm reads rho"):
        lipschitz_norm([f], 0.25, _planted_nan(rho, outside))


def test_equivalence_reads_rho_only_at_its_indices(dec, rho):
    # NaN everywhere else: the suite and the experiment must not touch it
    grid = dec.grid
    partial = np.full(grid.size, np.nan)
    idx = equivalence_rho_indices(grid)
    partial[idx] = rho[idx]
    times = default_time_grid(dec, 0.5, 1.0, n_times=16)
    got = equivalence_experiment(make_equivalence_suite(dec, partial, 0.25, seed=3),
                                 dec, 0.5, 1.0, 0.25, partial, times)
    want = equivalence_experiment(make_equivalence_suite(dec, rho, 0.25, seed=3),
                                  dec, 0.5, 1.0, 0.25, rho, times)
    assert got == want


@pytest.mark.parametrize("n, M, bc", [(2, 16, "dirichlet"), (3, 8, "dirichlet"),
                                      (2, 16, "periodic"), (3, 8, "periodic")])
def test_pair_distances_match_the_full_difference_tensor(n, M, bc):
    """Squared gaps summed one axis at a time give the bits of the (N, N, n)
    difference tensor, wrapped on periodic grids, also on an index."""
    grid = build_grid(n, 4.0, M, bc)
    grid = dataclasses.replace(grid, points=grid.points * np.array([1.0, 1e-3, 1e3][:n]))
    diff = np.abs(grid.points[:, None, :] - grid.points[None, :, :])
    if bc == "periodic":
        diff = np.minimum(diff, 2.0 * grid.half_width - diff)
    old = np.sqrt(np.sum(diff ** 2, axis=-1))
    assert np.array_equal(grid.pair_distances(), old)
    idx = np.arange(grid.size)[::3]
    assert np.array_equal(grid.pair_distances(idx), old[np.ix_(idx, idx)])


@pytest.mark.parametrize("bc", ["dirichlet", "periodic"])
def test_pair_distances_peak_stays_below_five_results(bc):
    grid = build_grid(3, 8.0, 10, bc)
    tracemalloc.start()
    try:
        dist = grid.pair_distances()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * dist.nbytes


def _masked_lipschitz(f, gamma, rho_values):
    """`lipschitz_norm` with the N x N x n difference tensor and masked pairs."""
    grid = f.grid
    idx = np.arange(grid.size)[::max(1, grid.points_per_axis // 128)]
    pts, vals = grid.points[idx], f.values[idx]
    diff = np.abs(vals[:, None] - vals[None, :])
    dist = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    mask = dist > 0
    holder = float(np.max(diff[mask] / dist[mask] ** gamma))
    fine = np.abs(np.diff(f.values)) / grid.spacing ** gamma if grid.dimension == 1 else [0.0]
    holder = max(holder, float(np.max(fine)))
    return max(holder, float(np.max(np.abs(f.values) / rho_values ** gamma)))


@pytest.mark.parametrize("n, M", [(1, 64), (2, 16), (3, 8)])
@pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0])
def test_lipschitz_norm_matches_masked_tensor_expression(n, M, gamma):
    grid = build_grid(n, 4.0, M)
    rng = np.random.default_rng(n)
    f = grid_function(grid, rng.standard_normal(grid.size))
    rho = np.full(grid.size, 1e6)      # the Holder part decides the norm
    assert lipschitz_norm([f], gamma, rho)[0] == _masked_lipschitz(f, gamma, rho)


def _torus_lipschitz(f, gamma, rho_values):
    """`lipschitz_norm` on a periodic grid, one sample point at a time, at
    torus distances."""
    grid = f.grid
    idx = np.arange(grid.size)[::max(1, grid.points_per_axis // 128)]
    period = 2.0 * grid.half_width
    holder = 0.0
    for i in idx:
        gap = np.abs(grid.points[i] - grid.points[idx])
        dist = np.sqrt(np.sum(np.minimum(gap, period - gap) ** 2, axis=1))
        far = dist > 0
        ratio = np.abs(f.values[i] - f.values[idx][far]) / dist[far] ** gamma
        holder = max(holder, float(np.max(ratio)))
    if grid.dimension == 1:
        seam = np.abs(f.values[0] - f.values[-1])
        fine = np.append(np.abs(np.diff(f.values)), seam) / grid.spacing ** gamma
        holder = max(holder, float(np.max(fine)))
    return max(holder, float(np.max(np.abs(f.values) / rho_values ** gamma)))


@pytest.mark.parametrize("n, M", [(1, 64), (1, 256), (2, 12), (3, 8)])
def test_lipschitz_norm_on_a_periodic_grid_reads_torus_distances(n, M):
    """A ramp along the first axis jumps across the seam, between points one
    cell apart on the torus: that pair sets the Holder seminorm."""
    grid = build_grid(n, 4.0, M, "periodic")
    rng = np.random.default_rng(50 + n)
    f = grid_function(grid, grid.points[:, 0] + 0.01 * rng.standard_normal(grid.size))
    rho = np.full(grid.size, 1e6)
    assert lipschitz_norm([f], 0.5, rho)[0] == pytest.approx(_torus_lipschitz(f, 0.5, rho),
                                                             rel=1e-14)


@pytest.mark.parametrize("n, M", [(1, 256), (2, 16)])
def test_lipschitz_norm_of_a_suite_equals_each_member_alone(n, M):
    """The shared sample distances give every member the bits of its own call."""
    grid = build_grid(n, 4.0, M)
    rng = np.random.default_rng(30 + n)
    members = [grid_function(grid, rng.standard_normal(grid.size)) for _ in range(3)]
    rho = np.full(grid.size, 0.7)
    alone = [lipschitz_norm([f], 0.25, rho)[0] for f in members]
    assert lipschitz_norm(members, 0.25, rho) == alone
    assert alone == [_masked_lipschitz(f, 0.25, rho) for f in members]


@pytest.mark.parametrize("n, M, bc", [(1, 32, "dirichlet"), (1, 32, "periodic"),
                                      (2, 12, "dirichlet"), (2, 12, "periodic"),
                                      (3, 8, "dirichlet"), (3, 8, "periodic")])
def test_gradient_fields_equal_the_per_field_oracles(n, M, bc):
    """The d-field syntheses give the per-time oracles' fields up to the
    rounding of one matrix product against one product per time."""
    dec = eigendecompose(assemble(build_grid(n, 4.0, M, bc), constant(1.0)))
    f = _random_member(dec, 20 + n)
    times = default_time_grid(dec, 0.7, 0.5, n_times=16)
    got = gradient_fields(dec.grid, 0.7, times, ladder(dec, 0.7, dec.coefficients(f.values),
                                                      times))
    want = (*nabla_alpha_field(dec, 0.7, f, times),
            carleson_field_nu_alpha(dec, 0.7, f, times).values)
    for field_got, field_want in zip(got, want):
        assert np.max(np.abs(field_got - field_want)) <= 1e-13 * np.max(np.abs(field_want))


@pytest.mark.parametrize("n, M, bc", [(1, 32, "periodic"), (2, 12, "dirichlet"),
                                      (3, 8, "periodic")])
@pytest.mark.parametrize("alpha", [0.5, 0.7])
def test_gradient_fields_timeparts_are_the_d_field_of_order_one_over_two_alpha(n, M, bc,
                                                                              alpha):
    dec = eigendecompose(assemble(build_grid(n, 4.0, M, bc), constant(1.0)))
    f = _random_member(dec, 30 + n)
    times = default_time_grid(dec, alpha, 0.5, n_times=16)
    timeparts = gradient_fields(dec.grid, alpha, times,
                                ladder(dec, alpha, dec.coefficients(f.values), times))[1]
    assert np.array_equal(timeparts,
                          np.abs(d_field(dec, alpha, 1.0 / (2.0 * alpha), f, times).values))


SCAN_GRIDS = [(1, 64, "dirichlet"), (1, 64, "periodic"), (2, 16, "dirichlet"),
              (2, 16, "periodic"), (3, 12, "dirichlet"), (3, 12, "periodic")]


def _scan_setup(n, M, bc):
    """A grid, a rho that some balls of `ball_family` stay below and some
    exceed, those balls and five members with rough and smooth values."""
    grid = build_grid(n, 8.0, M, bc)
    rng = np.random.default_rng(40 + n)
    rho = rng.uniform(grid.spacing, 0.5 * grid.half_width, grid.size)
    balls = ball_family(grid, rho)
    below = [ball.radius < rho[ball.center_index] for ball in balls]
    assert any(below) and not all(below)
    x = grid.points[:, 0]
    members = [grid_function(grid, v) for v in
               (*rng.standard_normal((3, grid.size)), np.cos(x), np.abs(x) ** 0.25 + 3.0)]
    return grid, rho, balls, members


@pytest.mark.parametrize("n, M, bc", SCAN_GRIDS)
def test_ball_family_equals_the_per_ball_oracle(n, M, bc):
    """Balls that share their centre's distances equal `ball_points` balls,
    field by field, with and without a critical radius among the radii."""
    grid, rho, _, _ = _scan_setup(n, M, bc)
    centers = ball_centers(grid)
    rho[centers[::2]], rho[centers[1::4]] = 2.2 * grid.spacing, np.inf
    got, want = ball_family(grid, rho), ball_family_per_ball(grid, rho)
    assert len(got) == len(want) > len({b.center_index for b in got})  # shared centres
    assert {b.radius for b in got} - set(np.geomspace(2.0 * grid.spacing,
                                                      0.5 * grid.half_width, 12))
    for a, b in zip(got, want):
        assert np.array_equal(a.center, b.center) and np.array_equal(a.members, b.members)
        assert (a.radius, a.center_index) == (b.radius, b.center_index)


@pytest.mark.parametrize("n, M, bc", SCAN_GRIDS)
def test_bmo_norm_equals_the_per_member_oracle(n, M, bc):
    """One pass over the balls gives every member the bits of its own pass."""
    grid, rho, balls, members = _scan_setup(n, M, bc)
    assert bmo_norm(members, 0.25, rho, balls) == [bmo_norm_one(f, 0.25, rho, balls)
                                                   for f in members]


@pytest.mark.parametrize("n, M, bc", SCAN_GRIDS)
def test_carleson_norm_equals_the_per_field_oracle(n, M, bc):
    """One pass over the boxes gives every field of a (2, F, J, N) stack the
    bits of its own pass."""
    grid, rho, balls, members = _scan_setup(n, M, bc)
    rng = np.random.default_rng(50 + n)
    times = np.geomspace(1e-2, 20.0, 24)
    stack = rng.random((2, len(members), times.size, grid.size)) ** 4
    weights = _log_trapezoid_weights(times)
    boxes = carleson_boxes(balls, times, 1.4)
    assert len({sel.size for _, sel in boxes}) > 1      # boxes of several heights
    want = [carleson_norm_one(SpaceTimeField(grid, times, fld, weights), 1.3, boxes)
            for fld in stack.reshape(-1, times.size, grid.size)]
    assert carleson_norm(SpaceTimeField(grid, times, stack, weights), 1.3, boxes) == want


def test_bmo_norm_reads_rho_once_per_ball(monkeypatch):
    grid, rho, balls, members = _scan_setup(2, 16, "dirichlet")
    reads = []

    def counted(rho_values, i, reader):
        reads.append(i)
        return spaces_rho_at(rho_values, i, reader)

    spaces_rho_at = spaces._rho_at
    monkeypatch.setattr(spaces, "_rho_at", counted)
    bmo_norm(members, 0.25, rho, balls)
    assert reads == [ball.center_index for ball in balls]


def test_carleson_norm_checks_the_stack_it_scans():
    grid = build_grid(2, 8.0, 16)
    times = np.geomspace(1e-2, 20.0, 16)
    stack = np.ones((2, 3, times.size, grid.size))
    stack[1, 2, 4, 7] = np.nan
    with pytest.raises(ValueError, match="must be finite"):
        SpaceTimeField(grid, times, stack, _log_trapezoid_weights(times))
    with pytest.raises(ValueError, match="at least 16"):
        SpaceTimeField(grid, times[:8], stack[:, :, :8], _log_trapezoid_weights(times[:8]))


@pytest.mark.parametrize("n, L, M, potential", [(1, 7.0, 64, constant(0.01)),
                                                (2, 8.0, 16, well(1.0, 1.0, 0.0))])
def test_every_suite_atom_has_a_positive_campanato_norm(monkeypatch, n, L, M, potential):
    """The atom centres scale with L, so every atom meets the ball family."""
    grid = build_grid(n, L, M)
    dec = eigendecompose(assemble(grid, potential))
    rho = compute_aux_function(potential, grid).rho
    atoms = []

    def recorded(*args, **kwargs):
        atoms.append(make_atom(*args, **kwargs))
        return atoms[-1]

    monkeypatch.setattr(spaces, "make_atom", recorded)
    make_equivalence_suite(dec, rho, 0.25)
    assert len(atoms) >= 2
    assert all(bn > 0.0 for bn in bmo_norm(atoms, 0.25, rho, ball_family(grid, rho)))


@pytest.mark.parametrize("n, M, bc", SCAN_GRIDS + [(2, 24, "periodic")])
def test_lipschitz_norm_equals_the_unblocked_oracle(n, M, bc):
    """Row blocks of the sample pairs (7 blocks at n=3 M=12, 3 at n=2 M=24)
    give the bits of one sample x sample table, for every member and gamma."""
    grid, rho, _, members = _scan_setup(n, M, bc)
    for gamma in (0.25, 0.5, 1.0):
        assert lipschitz_norm(members, gamma, rho) == lipschitz_norm_unblocked(members, gamma,
                                                                                rho)


@pytest.fixture(scope="module")
def dec_3d():
    return eigendecompose(assemble(build_grid(3, 4.0, 12), constant(1.0)))


@pytest.mark.parametrize("case", ["n2-dirichlet", "n2-periodic", "n3-dirichlet"])
def test_area_function_equals_the_unblocked_oracle(case, dec_3d):
    """Cone index blocks (3 at n=2 M=24, 7 at n=3 M=12) give the bits of one
    N x N index, for every member, on a ladder in any order."""
    if case == "n3-dirichlet":
        dec = dec_3d
    else:
        dec = eigendecompose(assemble(build_grid(2, 8.0, 24, case[3:]), constant(1.0)))
    members = [_random_member(dec, seed) for seed in (1, 2, 3)]
    times = np.random.default_rng(9).permutation(default_time_grid(dec, 0.5, 1.0, n_times=16))
    got = area_function(dec, 0.5, 1.0, members, times)
    want = area_function_unblocked(dec, 0.5, 1.0, members, times)
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a.values, b.values)


def _peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pair_scans_hold_no_n_by_n_array(dec_3d):
    """At n=3 M=12 (N = 1,728, every point sampled) `area_function` peaks
    below twice the largest array it receives, the N x N basis, and
    `lipschitz_norm` below three ROW_BLOCK x N blocks; the unblocked oracles
    each peak above both bounds."""
    grid = dec_3d.grid
    members = [_random_member(dec_3d, seed) for seed in (1, 2)]
    rho = np.full(grid.size, 2.0)
    times = default_time_grid(dec_3d, 0.5, 1.0, n_times=16)
    area_bound = 2 * dec_3d.basis.nbytes
    lipschitz_bound = 3 * spaces.ROW_BLOCK * grid.size * 8
    assert _peak(area_function, dec_3d, 0.5, 1.0, members, times) < area_bound
    assert _peak(area_function_unblocked, dec_3d, 0.5, 1.0, members, times) > area_bound
    assert _peak(lipschitz_norm, members, 0.25, rho) < lipschitz_bound
    assert _peak(lipschitz_norm_unblocked, members, 0.25, rho) > 2 * grid.size ** 2 * 8
