import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from oracles import (ESTIMATE_IDS, certify_on, default_params, multi_pass_update,
                     skipped_at_zero)
from subheat import estimates
from subheat.closedform import gaussian_heat_table, poisson_table
from subheat.estimates import EstimateParams, build_backend, decay_exponent_fit, scan_estimate
from subheat.grid import build_grid, gradient_values, inner_box_mask
from subheat.potentials import compute_aux_function, power, zero
from subheat.spectral import kernel_block, semigroup_multiplier


def _scan(eid, params, backend):
    """`scan_estimate` of the one job (eid, params): (accumulator, resolved
    params), or the job's error raised."""
    (outcome,) = scan_estimate([(eid, params)], backend)
    if isinstance(outcome, ValueError):
        raise outcome
    return outcome


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
        cert = certify_on(eid, None, flat_pair)
        assert np.isfinite(cert.c_meas) and cert.c_meas > 0
        assert 0.8 <= cert.refine_ratio <= 1.25
        assert cert.passed


def test_all_ids_finite_power_potential(power_pair):
    for eid in ESTIMATE_IDS:
        cert = certify_on(eid, None, power_pair)
        assert np.isfinite(cert.c_meas)
        assert cert.passed


def test_zero_potential_where_defined(zero_pair):
    for eid in ESTIMATE_IDS:
        if skipped_at_zero(eid):
            with pytest.raises(ValueError):
                certify_on(eid, None, zero_pair)
        else:
            cert = certify_on(eid, None, zero_pair)
            assert cert.passed


def test_e1_poisson_calibration(zero_pair):
    cert = certify_on("E1", EstimateParams(alpha=0.5, N=0.0), zero_pair)
    assert cert.c_meas == pytest.approx(2.0 / np.pi, rel=0.02)
    # sup of (t+r)^2/(t^2+r^2) sits on the diagonal t = r
    x, y, t = cert.argmax
    assert abs(x - y) == pytest.approx(t, rel=0.5)


def test_e12_gaussian_equality_case(zero_pair):
    cert = certify_on("E12", EstimateParams(N=0.0), zero_pair)
    assert cert.c_meas == pytest.approx(1.0, abs=1e-6)
    assert cert.refine_ratio == pytest.approx(1.0, abs=1e-9)


def test_refinement_study_e5(flat_pair):
    # the two-grid study: each grid's sup and the coarse/fine ratio of them
    c_by_grid = [_scan("E5", default_params("E5"), b)[0].c_meas for b in flat_pair]
    assert certify_on("E5", None, flat_pair).passed
    assert 0.8 <= c_by_grid[0] / c_by_grid[1] <= 1.25


def test_refinement_study_e12_zero(zero_pair):
    c_by_grid = [_scan("E12", EstimateParams(N=0.0), b)[0].c_meas for b in zero_pair]
    assert c_by_grid[0] <= 1.0 + 1e-6
    assert c_by_grid[1] <= 1.0 + 1e-6


def test_monotone_in_penalty_exponent(flat_pair):
    fine = flat_pair[1]
    values = [certify_on("E1", EstimateParams(N=N), fine).c_meas for N in (0.0, 1.0, 2.0)]
    assert values[0] <= values[1] <= values[2]


def test_alpha_sweep_finite(flat_pair):
    fine = flat_pair[1]
    for alpha in (0.3, 0.5, 0.8):
        for eid in ("E1", "E2", "E6", "E9"):
            acc, _ = _scan(eid, EstimateParams(alpha=alpha), fine)
            assert np.isfinite(acc.c_meas) and acc.c_meas > 0


def test_symmetry_under_xy_swap(flat_pair):
    # scanning pairs includes both (i, j) and (j, i); the sup for the
    # symmetric fractional kernel is invariant under the swap
    fine = flat_pair[1]
    cert = certify_on("E1", None, fine)
    x, y, t = cert.argmax
    assert np.isfinite(cert.c_meas)
    # swapped argmax must attain the same ratio by symmetry of K and majorant
    assert cert.c_meas > 0


def test_registry_has_one_entry_per_id():
    assert list(estimates._REGISTRY) == [f"E{k}" for k in range(1, 13)]
    assert all(isinstance(entry, estimates._Entry) for entry in estimates._REGISTRY.values())


def test_unknown_estimate_rejected(flat_pair):
    with pytest.raises(KeyError):
        certify_on("E13", None, flat_pair[0])


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


def test_params_resolution_defaults():
    p = default_params("E7").resolved("E7", 1)
    assert p.q == 2.0
    assert p.delta_prime == pytest.approx(0.5)
    p10 = default_params("E10").resolved("E10", 1)
    assert p10.delta_prime == pytest.approx(min(2 * 0.5, 1.0))


@pytest.fixture(scope="module")
def power_pair_128():
    return [build_backend(points_per_axis=64, potential=power(2.0)),
            build_backend(points_per_axis=128, potential=power(2.0))]


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_e11_default_exponent_follows_two_alpha_beta(alpha, power_pair_128):
    """At beta = 1/2 the signed mass of t^b d_t^b e^{-tL^a} decays like
    (t_sc/rho)^(2ab), so E11's default delta' is min(2a, 2ab, delta_0). At
    n=1 M=128 V=|x|^2 both rows pass with it; with the former default
    min(2a, delta_0) the N=0 row fails, and so does the N=1 row below
    alpha = 0.7 (refine_ratio 0.46, 0.52; at 0.7 it reads 0.84 and passes)."""
    for N in (0.0, 1.0):
        params = EstimateParams(alpha=alpha, beta=0.5, N=N)
        cert = certify_on("E11", params, power_pair_128)
        assert cert.params.delta_prime == pytest.approx(2.0 * alpha * 0.5)
        assert cert.passed, (alpha, N, cert.refine_ratio)
        former = certify_on("E11", replace(params, delta_prime=min(2.0 * alpha, 1.0)),
                            power_pair_128)
        assert former.passed is (alpha == 0.7 and N == 1.0), (alpha, N, former.refine_ratio)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
def test_e11_default_at_beta_one_is_unchanged(alpha, power_pair_128):
    """At beta >= 1, 2ab >= 2a, so E11's default and certificate keep their bits."""
    for n in (1, 2, 3):
        got = EstimateParams(alpha=alpha).resolved("E11", n).delta_prime
        assert got == min(2.0 * alpha, estimates.holder_delta0(n, None))
    params = EstimateParams(alpha=alpha, N=1.0)
    former = replace(params, delta_prime=min(2.0 * alpha, 1.0))
    assert (certify_on("E11", params, power_pair_128)
            == replace(certify_on("E11", former, power_pair_128),
                       params=params.resolved("E11", 1)))


def test_e9_within_factor_two_of_e1_at_zero_potential(zero_pair):
    # both reduce to Poisson-type kernels at alpha = 1/2, beta = 1
    c1 = certify_on("E1", EstimateParams(alpha=0.5, N=0.0), zero_pair)
    c9 = certify_on("E9", EstimateParams(alpha=0.5, beta=1.0, N=0.0), zero_pair)
    assert c9.c_meas <= 2.0 * c1.c_meas
    assert c1.c_meas <= 2.0 * c9.c_meas


def test_empty_scan_fails_its_certificate():
    # at n=2 M=16 the spacing is 2 and no shift in (1, 2, 4) L/64 is a whole
    # number of cells, so the E2 Holder scan visits no lattice point
    backend = build_backend(n=2, points_per_axis=16, potential=power(2.0))
    cert = certify_on("E2", None, backend)
    assert cert.c_meas == 0.0 and cert.passed is False


def test_overflowing_ratio_fails_its_certificate():
    """A positive object over a majorant that underflowed to a subnormal gives an
    infinite ratio: it is counted, and the certificate fails, though every
    finite ratio lies far below the ceiling."""
    resolved = default_params("E1").resolved("E1", 1)
    xs = np.arange(4.0)
    obj, maj = np.array([1e-3, 2.0, 0.0, 1.0]), np.array([1.0, 1e-310, 1e-310, 0.0])
    acc = estimates._ScanAccumulator()
    with np.errstate(divide="ignore", over="ignore"):
        acc.update(obj, maj, xs, xs, 1.0)
    assert (acc.c_meas, acc.total, acc.excluded, acc.nonfinite) == (1e-3, 4, 1, 1)
    assert estimates.certify([(acc, resolved)]).passed is False
    clean = estimates._ScanAccumulator()
    clean.update(obj[:1], maj[:1], xs, xs, 1.0)
    assert estimates.certify([(clean, resolved)]).passed is True


def _accumulator_state(acc):
    return repr((acc.c_meas, acc.argmax, acc.excluded, acc.total, acc.nonfinite))


def test_one_pass_update_equals_the_multi_pass_oracle():
    """Planted NaN, inf, zero-majorant, subnormal-majorant and tied pairs give
    the same counts, maximum, first argmax and warnings in one pass as in the
    separate passes, update after update, on pair blocks and on mass rows."""
    rng = np.random.default_rng(5)
    xs, ys = np.arange(6.0), np.arange(6.0) + 0.5
    updates = []
    for t in (0.5, 1.0, 2.0, 4.0):
        obj = rng.standard_normal((6, 6))
        maj = rng.uniform(0.5, 2.0, (6, 6))
        obj[0, 1], obj[1, 2], obj[2, 3] = np.nan, np.inf, -np.inf
        maj[3, 4], maj[4, 5], maj[5, 0] = 0.0, 1e-310, np.nan
        obj[5, 1], maj[5, 1] = 0.0, 0.0
        maj[1, 1] = np.inf
        obj[2, 2] = obj[4, 4] = 9.0 * t          # tied maxima: the first one wins
        maj[2, 2] = maj[4, 4] = 1.0
        updates.append((obj, maj, t))
        updates.append((obj[0], np.broadcast_to(maj[0, :1], (6,)), t))
    updates.append((np.zeros(0), np.zeros(0), 8.0))
    one, multi = estimates._ScanAccumulator(), estimates._ScanAccumulator()
    for obj, maj, t in updates:
        caught = []
        for update, acc in ((estimates._ScanAccumulator.update, one),
                            (multi_pass_update, multi)):
            with warnings.catch_warnings(record=True) as seen, np.errstate(all="warn"):
                warnings.simplefilter("always")
                update(acc, obj, maj, xs, ys, t)
            caught.append(sorted({str(w.message) for w in seen}))
        assert caught[0] == caught[1]
        assert _accumulator_state(one) == _accumulator_state(multi)
    assert (one.excluded, one.nonfinite) == (4, 12)
    assert one.argmax == (2.0, 2.5, 4.0)


def test_backend_rho_is_aligned_with_the_lattice():
    backend = build_backend(n=2, points_per_axis=16, potential=power(2.0))
    lat = backend.lattice
    aux = compute_aux_function(power(2.0), backend.grid, indices=lat)
    assert np.array_equal(backend.rho, aux.rho[lat])
    zero_backend = build_backend(n=2, points_per_axis=16, potential=zero())
    assert zero_backend.rho.shape == lat.shape and np.all(np.isinf(zero_backend.rho))


class _FullTables:
    """The kernel tables of commit ea43564: full N x N sandwiches, no flush, and
    the x-gradient from `grid.gradient_values` over the whole table."""

    def __init__(self, backend):
        self.grid, self.dec = backend.grid, backend.dec
        self.zero_potential = backend.zero_potential
        self.lattice, self.xs, self.r, self.rho = (backend.lattice, backend.xs, backend.r,
                                                   backend.rho)
        self._tables = {}

    def kernel_table(self, t, alpha=1.0, power=0):
        key = (round(float(t), 14), alpha, power)
        if key not in self._tables:
            if power == 0 and self.zero_potential and alpha == 1:
                table = gaussian_heat_table(self.grid, t).table
            elif power == 0 and self.zero_potential and abs(alpha - 0.5) < 1e-14:
                table = poisson_table(self.grid, t).table
            else:
                m = semigroup_multiplier(t, alpha, power)(self.dec.eigenvalues)
                if not np.all(np.isfinite(m)):
                    raise ValueError("multiplier not finite on the spectrum")
                table = (self.dec.basis * m[None, :]) @ self.dec.basis.T
            self._tables[key] = table
        return self._tables[key]

    def gradient_table(self, t, alpha=1.0, power=0):
        return gradient_values(self.grid, self.kernel_table(t, alpha, power), axis=0)


def _full_ladder(entry, p, full, gradient):
    alpha = 1.0 if entry.heat else p.alpha
    power = p.beta if entry.power is None else entry.power
    table = full.gradient_table if gradient else full.kernel_table
    for t in estimates.time_grid(full.grid, p.alpha, heat_scaling=entry.heat):
        t_sc = np.sqrt(t) if entry.heat else estimates._scaling_time(t, p.alpha)
        yield t, t_sc, table(t, alpha, power)


def _full_shift_indices(full, idx, steps):
    n, M = full.grid.dimension, full.grid.points_per_axis
    stride = M ** (n - 1)
    first = (idx // stride) % M
    return idx + steps * stride, (first + steps >= 0) & (first + steps < M)


def _full_pairs(entry, p, full, acc):
    idx, xs, r, rho = full.lattice, full.xs, full.r, full.rho
    for t, t_sc, table in _full_ladder(entry, p, full, entry.gradient):
        obj = table[np.ix_(idx, idx)]
        if entry.scaled:
            obj = t_sc * obj
        point = estimates._Point(p, full.grid.dimension, t, t_sc, rho[:, None], rho[None, :], r)
        acc.update(obj, entry.majorant(point), xs, xs, t)


def _full_shifted_pairs(entry, p, full, acc):
    idx, xs, r, rho = full.lattice, full.xs, full.r, full.rho
    h, unit = full.grid.spacing, full.grid.half_width / 64.0
    shifts = [(int(round(k * unit / h)), k * unit) for k in estimates.HOLDER_SHIFTS
              if int(round(k * unit / h)) >= 1
              and abs(int(round(k * unit / h)) * h - k * unit) <= 1e-9 * k * unit]
    for t, t_sc, table in _full_ladder(entry, p, full, entry.gradient):
        for steps, shift in shifts:
            sh_idx, valid = _full_shift_indices(full, idx, steps)
            point = estimates._Point(p, full.grid.dimension, t, t_sc, rho[valid][:, None],
                                     rho[None, :], r[valid], shift)
            allowed = entry.shift_rule(point)
            if not np.any(valid) or (np.ndim(allowed) == 0 and not allowed):
                continue
            incr = table[sh_idx[valid]][:, idx] - table[idx[valid]][:, idx]
            maj = np.where(allowed, entry.majorant(point), np.inf)
            acc.update(incr, maj, xs[valid], xs, t)


def _full_mass_rows(entry, p, full, acc):
    w = full.grid.cell_weight
    idx, xs, rho = full.lattice, full.xs, full.rho
    for t, t_sc, table in _full_ladder(entry, p, full, False):
        if entry.gradient:
            obj = gradient_values(full.grid, np.sum(table, axis=1) * w, axis=0)[idx]
        else:
            obj = np.sum(table[idx], axis=1) * w
        if entry.scaled:
            obj = t_sc * obj
        point = estimates._Point(p, full.grid.dimension, t, t_sc, rho)
        acc.update(obj, entry.majorant(point), xs, xs, t)


_FULL_LOOPS = {estimates._pairs: _full_pairs, estimates._shifted_pairs: _full_shifted_pairs,
               estimates._mass_rows: _full_mass_rows}


def _outcome(outcome):
    """A `scan_estimate` outcome as comparable text: the error, or the accumulator."""
    if isinstance(outcome, ValueError):
        return type(outcome).__name__, str(outcome)
    acc, _ = outcome
    return repr((acc.c_meas, acc.argmax, acc.excluded, acc.total, acc.nonfinite))


def _full_scan(eid, params, full):
    """One job on the full tables, with its own time ladder: its outcome."""
    p = params.resolved(eid, full.grid.dimension)
    entry = estimates._REGISTRY[eid]
    acc = estimates._ScanAccumulator()
    try:
        _FULL_LOOPS[entry.lattice](entry, p, full, acc)
    except ValueError as exc:
        return exc
    if acc.total and acc.excluded > 0.01 * acc.total:
        return ValueError(f"{eid}: {acc.excluded}/{acc.total} lattice points had a zero majorant")
    return acc, p


_ROW_BLOCK_CASES = [(n, M, bc, potential) for n, M in ((1, 64), (2, 16))
                    for bc in ("dirichlet", "periodic") for potential in ("power2", "zero")]


@pytest.mark.parametrize("n, M, bc, potential", _ROW_BLOCK_CASES + [(2, 32, "periodic", "power2")])
def test_row_block_scans_equal_full_table_scans(n, M, bc, potential):
    """Every registry entry scans the same bits on row blocks as on full tables,
    except that the mass rows (E8, E11) come from the mode sums, whose
    supremum agrees with the oracle's table sums to 1e-12 relative.

    All entries run in one `scan_estimate` call, as `verify` runs its rows, so
    the jobs share each time's tables; the oracle scans each entry on its own.
    At n=2 M=16 no Holder shift is a whole number of cells. At n=2 M=32 the
    shift L/16 is one cell, so the shifted loops read shifted rows and the
    block gradient reads their stencil neighbours; on the periodic grid the
    full-table gradient wraps, and the block's interior stencil must agree.
    With beta = 2, E9-E11 scan a family of order 2 beside E3's order 1.
    """
    spec = power(2.0) if potential == "power2" else zero()
    backend = build_backend(n=n, points_per_axis=M, bc=bc, potential=spec)
    full = _FullTables(backend)
    blk = backend.block
    lat = backend.lattice
    for t, alpha, power_ in ((0.5, 1.0, 0), (1.0, 0.5, 1)):
        at = estimates._Tables(backend, t, 1.0, alpha, power_)
        assert np.array_equal(at.kernel.table,
                              full.kernel_table(t, alpha, power_)[np.ix_(blk.rows, lat)])
        assert np.array_equal(at.gradient, full.gradient_table(t, alpha, power_)[
            np.ix_(blk.rows[:blk.stencil], lat)])
        for gradient, table in ((False, full.kernel_table), (True, full.gradient_table)):
            whole = table(t, alpha, power_)
            assert np.array_equal(at.pairs(gradient), whole[np.ix_(lat, lat)])
            assert len(at.increments(gradient)) == len(backend.shifts)
            for incr, moved in zip(at.increments(gradient), backend.moved):
                assert np.array_equal(incr, whole[moved][:, lat] - whole[lat][:, lat])
    jobs = [(eid, replace(default_params(eid), N=1.0, beta=2.0)) for eid in estimates._REGISTRY]
    for (eid, params), outcome in zip(jobs, scan_estimate(jobs, backend), strict=True):
        if skipped_at_zero(eid) and backend.zero_potential:
            assert isinstance(outcome, estimates.EstimateNotApplicable), eid
            continue
        expected = _full_scan(eid, params, full)
        if estimates._REGISTRY[eid].lattice is estimates._mass_rows:
            # the mass rows come from the mode sums, not the table sums the
            # oracle takes: the supremum agrees to rounding, the rest exactly
            (acc, _), (want, _) = outcome, expected
            assert acc.c_meas == pytest.approx(want.c_meas, rel=1e-12, abs=0.0), eid
            assert ((acc.argmax, acc.excluded, acc.total, acc.nonfinite)
                    == (want.argmax, want.excluded, want.total, want.nonfinite)), eid
        else:
            assert _outcome(outcome) == _outcome(expected), eid
    assert backend.block is blk


def test_closed_form_kernel_rows_are_computed_at_the_block_rows_only():
    """At V = 0 the Gaussian (alpha = 1) and Poisson (alpha = 1/2) blocks, 304
    of 1,024 rows at n=2 M=32, each peak below two full 1,024 x 1,024 tables."""
    backend = build_backend(n=2, points_per_axis=32, potential=zero())
    for alpha in (1.0, 0.5):
        tracemalloc.start()
        try:
            backend.kernel(1.0, alpha, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, alpha


def test_shifted_row_outside_the_box_is_an_error():
    """A negative or too-large flat index would wrap silently, so a shift that
    leaves the box raises instead."""
    grid = build_grid(2, 16.0, 16)
    first, last = np.array([0]), np.array([grid.size - 1])
    assert estimates._shift_indices(grid, first, 15)[0] == 15 * 16
    with pytest.raises(ValueError):
        estimates._shift_indices(grid, last, 1)
    with pytest.raises(ValueError):
        estimates._shift_indices(grid, first, -1)


def test_row_block_never_reads_an_uncomputed_row():
    backend = build_backend(n=1, points_per_axis=64, potential=power(2.0))
    blk = backend.block
    at = estimates._Tables(backend, 1.0, 1.0, 0.5, 0)
    table = at.kernel.table
    assert table.shape == (blk.rows.size, backend.lattice.size)
    assert blk.rows.size < backend.grid.size
    outside = np.setdiff1d(np.arange(backend.grid.size), blk.rows)[:3]
    with pytest.raises(ValueError):
        blk.at(outside, table)
    neighbour_only = blk.rows[blk.stencil:][:1]
    blk.at(neighbour_only, table)
    with pytest.raises(ValueError):
        blk.at(neighbour_only, at.gradient)


def _close_masses(got, rows, full, w, rtol=1e-12):
    """`got` is the row integral of `full` at the grid rows `rows` to `rtol`
    of each row's integral of |K|, the scale of the sum's rounding: a signed
    mass of t^b d_t^b e^{-tL^a} can lie far below it."""
    want, scale = np.sum(full[rows], axis=1) * w, np.sum(np.abs(full[rows]), axis=1) * w
    return bool(np.all(np.abs(got - want) <= rtol * scale))


def test_column_block_never_reads_an_uncomputed_column():
    """A scan table holds the lattice columns and no others, and its mass rows
    come from the mode sums, not from columns it lacks: E11's step runs on it
    and reads the full-width row integrals. A closed-form table has no mode
    sums and refuses its row masses."""
    backend = build_backend(n=1, points_per_axis=128, potential=power(2.0))
    lat, w = backend.lattice, backend.grid.cell_weight
    at = estimates._Tables(backend, 1.0, 1.0, 0.5, 1)
    assert at.kernel.table.shape == (backend.block.rows.size, lat.size)
    assert lat.size < backend.grid.size
    assert np.array_equal(at.kernel.cols, lat) and np.array_equal(at.kernel.rows,
                                                                   backend.block.rows)
    full = backend.kernel(1.0, 0.5, 1, kernel_block(backend.dec)).table
    assert _close_masses(at.row_masses(lat), lat, full, w)
    acc = estimates._ScanAccumulator()
    estimates._mass_rows(estimates._REGISTRY["E11"], default_params("E11").resolved("E11", 1),
                         backend, at, acc)
    assert acc.total == lat.size and acc.c_meas > 0.0
    with pytest.raises(ValueError, match="no mode sums"):
        gaussian_heat_table(backend.grid, 1.0, backend.block.rows, lat).row_masses()


_COLUMN_CASES = [(n, M, bc, potential)
                 for n, M in ((1, 32), (1, 64), (1, 128), (1, 512), (2, 8), (2, 16), (2, 32),
                              (3, 8))
                 for bc in ("dirichlet", "periodic") for potential in ("power2", "zero")]


@pytest.mark.parametrize("n, M, bc, potential", _COLUMN_CASES)
def test_lattice_column_tables_keep_the_full_width_bits(n, M, bc, potential):
    """Every family of the default rows reads from the tables `scan_estimate`
    computes, block rows x lattice on every grid, the bits of the full-width
    `multiplier_kernel` table (or closed form): the kernel and gradient pairs
    and increments, at every time of its ladder. This includes the grids below
    128 points (n=1 M=32 and 64, n=2 M=8), the coarse grids of pinned
    certificate files. The mass rows (E11's, and the neighbour rows E8's
    gradient differences) come from the mode sums and agree with the
    full-width row sums to 1e-12 of each row's integral of |K|."""
    spec = power(2.0) if potential == "power2" else zero()
    backend = build_backend(n=n, points_per_axis=M, bc=bc, potential=spec)
    grid, lat, blk, w = backend.grid, backend.lattice, backend.block, backend.grid.cell_weight
    families = {}
    for eid in ESTIMATE_IDS:
        if skipped_at_zero(eid) and backend.zero_potential:
            continue
        p, entry = default_params(eid), estimates._REGISTRY[eid]
        family = (entry.heat, 1.0 if entry.heat else p.alpha,
                  p.beta if entry.power is None else entry.power)
        families.setdefault(family, []).append(entry)
    masses = 0
    for (heat, alpha, power_), entries in families.items():
        mass = any(entry.lattice is estimates._mass_rows for entry in entries)
        masses += mass
        for t in estimates.time_grid(grid, alpha, heat_scaling=heat):
            at = estimates._Tables(backend, t, 1.0, alpha, power_)
            assert at.kernel.table.shape == (blk.rows.size, lat.size)
            full = backend.kernel(t, alpha, power_, kernel_block(backend.dec)).table
            for gradient in (False, True):
                whole = gradient_values(grid, full, axis=0) if gradient else full
                assert np.array_equal(at.pairs(gradient), whole[np.ix_(lat, lat)])
                for part, moved in zip(at.increments(gradient), backend.moved, strict=True):
                    assert np.array_equal(part, whole[moved][:, lat] - whole[lat][:, lat])
            if mass:
                near = [estimates._shift_indices(grid, lat, step) for step in (1, -1)]
                for rows in [lat] + near:
                    assert _close_masses(at.row_masses(rows), rows, full, w)
                assert np.array_equal(estimates._axis0_gradient(grid, at.row_masses, lat),
                                      (at.row_masses(near[0]) - at.row_masses(near[1]))
                                      / (2.0 * grid.spacing))
    assert masses == (0 if backend.zero_potential else 2)


@pytest.mark.parametrize("M", [64, 256, 512])
def test_n1_lattice_is_unchanged(M):
    grid = build_grid(1, 16.0, M)
    flat = np.nonzero(inner_box_mask(grid, 0.5))[0][::max(1, M // 64)]
    assert np.array_equal(estimates.lattice_indices(grid), flat)


def test_n2_lattice_is_strided_per_axis():
    grid = build_grid(2, 16.0, 128)
    pts = grid.points[estimates.lattice_indices(grid)]
    assert pts.shape == (32 * 32, 2)
    assert np.unique(pts[:, 0]).size == 32 and np.unique(pts[:, 1]).size == 32
    assert set(map(tuple, pts)) == set(map(tuple, pts[:, ::-1]))


def test_each_majorant_factor_is_computed_once_per_time(monkeypatch):
    """The 24 default rows (N = 0, 1) share each time's penalties, decay power
    and Gaussian: the heat ladder computes its window, Gaussian and two sum
    penalties once per time, the (1/2, 0) family two sum and two product
    penalties and one (t_sc + r)^-(n + 1) power, and the (1/2, 1) family two
    sum penalties and that power. Every job used to recompute its own."""
    backend = build_backend(n=1, points_per_axis=64, potential=power(2.0))
    computed, reads, alive = [], [], []      # alive keeps each dict's id unique
    real = estimates._Point.factor

    def counting(self, key, compute):
        reads.append(key)
        if key not in self.factors:
            alive.append(self.factors)
            computed.append((id(self.factors), key))
        return real(self, key, compute)

    monkeypatch.setattr(estimates._Point, "factor", counting)
    jobs = [(eid, replace(default_params(eid), N=N)) for eid in ESTIMATE_IDS for N in (0.0, 1.0)]
    outcomes = scan_estimate(jobs, backend)
    assert all(isinstance(outcome, tuple) for outcome in outcomes)
    heat = estimates.time_grid(backend.grid, 1.0, heat_scaling=True).size
    frac = estimates.time_grid(backend.grid, 0.5, heat_scaling=False).size
    assert len(set(computed)) == len(computed) == 4 * heat + 5 * frac + 3 * frac
    assert len(reads) > 3 * len(computed)
