"""Test references that the package's commands do not run.

Eight groups live here. The first are literal routes that equal the one
multiplier route `spectral.multiplier_kernel` by linearity: table-space
subordination, the time-derivative quadrature summed over kernel tables, the
scalar fractional derivative, the m-th time derivative and the periodic image
sum of the free Gaussian. The second are the function-space gradients as they
were before one pass served N4 and N5: the `np.pad` stencil, which
`grid.gradient_values` must reproduce bit for bit, and one synthesis per
field and time, which `spaces.gradient_fields` (one matrix product per
d-field) must reproduce within 1e-13 of the field's largest value. The third are the ball and box scans as they were
before one pass served the whole suite: the ball family with one distance
computation per ball, the Campanato norm of one member and the Carleson norm
of one field, which `spaces.ball_family`, `spaces.bmo_norm` and
`spaces.carleson_norm` must reproduce bit for bit. The fourth are Shen's lemma
diagnostics for the critical radius: the reverse-Holder constant (which
integrates the catalog potential V^q, `power_of`, along the package's one
ball-integral path), the Gaussian average of V and the doubling, two-scale and
comparability constants, and the per-point critical-radius bisection, which
the blocked one must reproduce bit for bit; its Simpson sums take np.linspace
nodes and, at n = 1, V from np.linalg.norm, which the patterned nodes and
`eval_potential` must reproduce bit for bit. The fifth is the kernel table
writer as it was before block formatting, one `%.17g` template per table row,
whose text `fmt17.table_chunks` must reproduce byte for byte. The sixth is the
operator as chained `np.kron` products built it, which `spectral.assemble`
must reproduce bit for bit. The seventh are the pair scans of `spaces` as they
were before row blocks, over one N x N (or sample x sample) distance table,
which `spaces.lipschitz_norm` and the n >= 2 `spaces.area_function` must
reproduce bit for bit. The eighth is the scan accumulator's update as it was
before one pass, which `_ScanAccumulator.update` must reproduce in every
count, maximum and argmax. `certify_on` certifies one estimate on its own, as
the scans before `scan_estimate` took a list of jobs did, `default_params`
and `skipped_at_zero` read an id's registry row, `ladder` synthesizes the
d-fields `spaces.gradient_fields` reads, and `apply` is a full kernel table's
action on a grid function.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import gamma as _gamma

from subheat.closedform import gaussian_heat_value
from subheat.estimates import (_REGISTRY, BoundCertificate, EstimateParams, _mass_rows,
                               certify, scan_estimate)
from subheat.fracderiv import _node_multipliers, _u_quadrature, integer_order
from subheat.grid import PERIODIC, Ball, Grid, GridFunction, ball_points, grid_function
from subheat.potentials import (SIMPSON_INTERVALS, _SPHERE_SURFACE, PotentialSpec,
                                _ball_integrals, _block_functional, _radial_profile_about,
                                compute_rho, eval_on_grid, eval_potential, is_zero)
from subheat.spaces import (SpaceTimeField, _ball_measure, _log_trapezoid_weights, _rho_at,
                            _synthesis, ball_centers, d_field)
from subheat.spectral import (KernelSlice, SpectralDecomposition, _laplacian_1d,
                              multiplier_kernel, semigroup_multiplier)
from subheat.subordinator import _check_alpha, _log_gl, density

_BALL_VOLUME = {1: 2.0, 2: np.pi, 3: 4.0 * np.pi / 3.0}

ESTIMATE_IDS = list(_REGISTRY)


def default_params(estimate_id: str) -> EstimateParams:
    """The id's parameters in a default `verify` run: its own alpha, if its
    registry row has one, and EstimateParams' defaults otherwise."""
    alpha = _REGISTRY[estimate_id].alpha
    return EstimateParams() if alpha is None else EstimateParams(alpha=alpha)


def skipped_at_zero(estimate_id: str) -> bool:
    """Whether `scan_estimate` skips the id at V = 0: its row scans mass rows."""
    return _REGISTRY[estimate_id].lattice is _mass_rows


def certify_on(estimate_id: str, params: EstimateParams | None,
               backends) -> BoundCertificate:
    """`certify` of the one job (estimate_id, params) scanned on `backends`, a
    backend or a list of them, coarse first; params None takes the id's
    defaults (EstimateParams() for an unknown id, whose scan raises KeyError).
    A job's error is raised."""
    backends = backends if isinstance(backends, (list, tuple)) else [backends]
    if params is None:
        params = default_params(estimate_id) if estimate_id in _REGISTRY else EstimateParams()
    return certify([scan_estimate([(estimate_id, params)], b)[0] for b in backends])


def ladder(dec: SpectralDecomposition, alpha: float, coeff: np.ndarray,
           times: np.ndarray) -> dict:
    """The d-fields of orders 0, 1/(2 alpha) and 1 on `times` by order, from
    f's coefficients: what `spaces.gradient_fields` reads (and pops order 0 of)."""
    return {b: _synthesis(dec, alpha, b, coeff, times)
            for b in dict.fromkeys((0, 1.0 / (2.0 * alpha), 1))}


def apply(K: KernelSlice, f: GridFunction) -> GridFunction:
    """int K(x, y) f(y) dy on the grid, for a full table K."""
    return grid_function(K.grid, K.table @ f.values * K.grid.cell_weight)


# --- routes equal to the multiplier route by linearity -----------------------

def density_scaled(alpha: float, t: float, s) -> np.ndarray:
    """eta_t(s) = t^(-1/alpha) eta_1(s / t^(1/alpha))."""
    ta = t ** (1.0 / alpha)
    return density(alpha, np.asarray(s, dtype=float) / ta) / ta


def subordinate_tables(table_provider, grid, alpha: float, t: float,
                       nodes: int = 448, hi_factor: float = 1e8) -> KernelSlice:
    """Literal table-space subordination: sum_q eta_t(s_q) K(s_q) w_q.

    `table_provider(s)` returns the heat-kernel table at time s (any route,
    e.g. the closed-form Gaussian for the potential-free calibration). The
    rule is `nodes` log-s Gauss-Legendre nodes on [1e-6, hi_factor] t^(1/alpha).
    Unlike the eigenbasis route there is no analytic tail completion, so the
    default range is pushed out far enough that the power tail of the
    subordinator is negligible.
    """
    _check_alpha(alpha)
    ta = t ** (1.0 / alpha)
    s, w = _log_gl(1e-6 * ta, hi_factor * ta, nodes)
    eta_vals = density_scaled(alpha, t, s)
    acc = np.zeros((grid.size, grid.size))
    for sq, wq, ev in zip(s, w, eta_vals):
        if ev == 0.0:
            continue
        acc += (wq * ev) * table_provider(sq)
    return KernelSlice(grid, acc)


def frac_time_derivative_tables(dec: SpectralDecomposition, alpha: float,
                                beta: float, t: float) -> KernelSlice:
    """`fracderiv.frac_time_derivative` summing one kernel table per quadrature node."""
    m = integer_order(beta)
    w, values = _node_multipliers(dec, alpha, beta, t)
    acc = np.zeros((dec.grid.size, dec.grid.size))
    for wq, mult in zip(w, values):
        acc += wq * ((dec.basis * mult[None, :]) @ dec.basis.T)
    acc *= (-1.0) ** m / _gamma(m - beta)
    return KernelSlice(dec.grid, acc)


def frac_derivative_scalar(a: float, beta: float, t: float) -> float:
    """d_t^beta e^{-a t} by the integral definition; the convention makes it a^beta e^{-at}.

    The integral runs to u_max = 50 t + 50 / a on the package's node layout."""
    m = integer_order(beta)
    u_max = 50.0 * t + 50.0 / max(a, 1e-12)
    u, w = _u_quadrature(beta, t, u_max)
    values = (-a) ** m * np.exp(-a * (t + u))
    return float((-1.0) ** m * np.sum(w * values) / _gamma(m - beta))


def mth_time_derivative_kernel(dec: SpectralDecomposition, alpha: float, m: int,
                               t: float) -> KernelSlice:
    """d_t^m e^{-t L^alpha} without the t^m scaling."""
    def mult(lam):
        la = lam ** alpha
        return (-la) ** m * np.exp(-t * la)
    return multiplier_kernel(dec, mult)


def wrapped_gaussian_table(grid: Grid, t: float, images: int) -> np.ndarray:
    """Free heat kernel on grid points plus its periodic images up to `images` periods."""
    diff = grid.points[:, None, :] - grid.points[None, :, :]
    table = gaussian_heat_value(np.linalg.norm(diff, axis=-1), t, grid.dimension)
    period = 2.0 * grid.half_width
    shifts = [np.arange(-images, images + 1) * period] * grid.dimension
    for combo in np.stack(np.meshgrid(*shifts, indexing="ij"), axis=-1).reshape(-1, grid.dimension):
        if np.all(combo == 0.0):
            continue
        table = table + gaussian_heat_value(
            np.linalg.norm(diff + combo[None, None, :], axis=-1), t, grid.dimension)
    return table


# --- function-space gradients, one synthesis per field -----------------------

def padded_gradient_values(grid: Grid, values: np.ndarray,
                           axis: int | None = None) -> np.ndarray:
    """`grid.gradient_values` with the Dirichlet zero extension made by `np.pad`."""
    if axis is None:
        return np.stack([padded_gradient_values(grid, values, d)
                         for d in range(grid.dimension)], axis=-1)
    M, h = grid.points_per_axis, grid.spacing
    v = values.reshape((M,) * grid.dimension + values.shape[1:])
    if grid.bc == PERIODIC:
        plus, minus = np.roll(v, -1, axis=axis), np.roll(v, 1, axis=axis)
    else:
        pad = [(0, 0)] * v.ndim
        pad[axis] = (1, 1)
        vp = np.pad(v, pad)
        plus = vp[(slice(None),) * axis + (slice(2, None),)]
        minus = vp[(slice(None),) * axis + (slice(None, -2),)]
    return ((plus - minus) / (2.0 * h)).reshape(values.shape)


def nabla_alpha_field(dec: SpectralDecomposition, alpha: float, f: GridFunction,
                      times: np.ndarray):
    """|t^(1/2a) grad_x u|, |t^(1/2a) d_t^(1/2a) u| magnitudes per time, (J, N) each."""
    coeff = dec.coefficients(f.values)
    decay = semigroup_multiplier(times, alpha)(dec.eigenvalues)
    grads = np.empty((times.size, dec.grid.size))
    timeparts = np.empty_like(grads)
    for j, t in enumerate(times):
        u = dec.synthesize(decay[j] * coeff)
        t_sc = t ** (1.0 / (2.0 * alpha))
        grads[j] = t_sc * np.sqrt(np.sum(padded_gradient_values(dec.grid, u) ** 2, axis=1))
        timeparts[j] = t_sc * np.abs(
            dec.synthesize(np.sqrt(dec.eigenvalues) * decay[j] * coeff))
    return grads, timeparts


def carleson_field_nu_alpha(dec: SpectralDecomposition, alpha: float,
                            f: GridFunction, times: np.ndarray) -> SpaceTimeField:
    """Squared density of |t grad e^{-t^(2a) L^a} f|^2 dx dt/t in semigroup time."""
    coeff = dec.coefficients(f.values)
    la = dec.eigenvalues ** alpha
    decay = semigroup_multiplier(times, alpha)(dec.eigenvalues)
    vals = np.empty((times.size, dec.grid.size))
    for j, s in enumerate(times):
        v = dec.synthesize(decay[j] * coeff)
        gsq = s ** (1.0 / alpha) * np.sqrt(np.sum(padded_gradient_values(dec.grid, v) ** 2,
                                                  axis=1)) ** 2
        dsq = 4.0 * alpha ** 2 * (s * dec.synthesize(la * decay[j] * coeff)) ** 2
        vals[j] = (gsq + dsq) / (2.0 * alpha)
    return SpaceTimeField(dec.grid, times, vals, _log_trapezoid_weights(times))


# --- ball and box scans, one member or field per pass ------------------------

def ball_family_per_ball(grid: Grid, rho_values: np.ndarray) -> list[Ball]:
    """`spaces.ball_family` with one `ball_points` call, and so one distance
    computation, per (centre, radius)."""
    limit = 0.5 * grid.half_width
    radii = np.geomspace(2.0 * grid.spacing, limit, 12)
    balls = []
    for i in ball_centers(grid):
        center = grid.points[i]
        rset = list(radii)
        rho_c = _rho_at(rho_values, i, "ball_family")
        if np.isfinite(rho_c) and 2.0 * grid.spacing < rho_c < limit:
            rset.append(rho_c)
        for r in rset:
            if np.max(np.abs(center)) + r <= limit:
                balls.append(ball_points(grid, center, r))
    return balls


def bmo_norm_one(f: GridFunction, gamma: float, rho_values: np.ndarray,
                 balls: list[Ball]) -> float:
    """`spaces.bmo_norm` of the one member f, one ball at a time."""
    grid = f.grid
    n, w = grid.dimension, grid.cell_weight
    best = 0.0
    for ball in balls:
        vals = f.values[ball.members]
        rho_c = _rho_at(rho_values, ball.center_index, "bmo_norm")
        reference = vals.mean() if ball.radius < rho_c else 0.0
        measure = _ball_measure(grid, ball)
        osc = np.sum(np.abs(vals - reference)) * w
        best = max(best, osc / measure ** (1.0 + gamma / n))
    return best


def carleson_norm_one(fld: SpaceTimeField, kappa: float, boxes: list) -> float:
    """`spaces.carleson_norm` of the one (J, N) field, one box at a time."""
    grid = fld.grid
    best = 0.0
    for ball, sel in boxes:
        gather = np.ix_(sel, ball.members)
        mass = float(fld.weights[sel] @ np.sum(fld.values[gather], axis=1)) * grid.cell_weight
        best = max(best, mass / _ball_measure(grid, ball) ** kappa)
    return best


# --- Shen's lemma diagnostics for the critical radius ------------------------

@dataclass(frozen=True)
class ReverseHolderResult:
    c_best: float
    holds: bool
    excluded: int


def ball_integral(spec: PotentialSpec, grid: Grid, center, radius: float) -> float:
    """Integral of V over B(center, radius), by the package's ball-integral path."""
    center = np.asarray(center, dtype=float).reshape(1, grid.dimension)
    return float(_ball_integrals(spec, grid, center)([0], [radius])[0])


def power_of(spec: PotentialSpec, q: float) -> PotentialSpec:
    """The catalog potential V^q: c^q, |x|^(sigma q) or v^q on the well, times
    scale^q."""
    params = dict(spec.params)
    if spec.kind == "power":
        params["sigma"] *= q
    elif spec.kind != "zero":
        key = "c" if spec.kind == "constant" else "v"
        params[key] = params[key] ** q
    return PotentialSpec(spec.kind, params, scale=spec.scale ** q)


def reverse_holder_constant(spec: PotentialSpec, q: float, ball_sample: list[Ball],
                            grid: Grid) -> ReverseHolderResult:
    """Measured reverse-Holder constant max_B (avg V^q)^(1/q) / (avg V) over the sample."""
    if q <= 1:
        raise ValueError("reverse-Holder exponent q must exceed 1")
    n = grid.dimension
    spec_q = power_of(spec, q)
    c_best, excluded = 0.0, 0
    for ball in ball_sample:
        if ball.members.size < 32:
            raise ValueError("each sampled ball needs at least 32 interior points")
        vol = _BALL_VOLUME[n] * ball.radius ** n
        avg_v = ball_integral(spec, grid, ball.center, ball.radius) / vol
        if avg_v <= 0.0:
            excluded += 1
            continue
        avg_vq = ball_integral(spec_q, grid, ball.center, ball.radius) / vol
        c_best = max(c_best, avg_vq ** (1.0 / q) / avg_v)
    if excluded == len(ball_sample):
        raise ValueError("all sampled balls have vanishing average potential")
    return ReverseHolderResult(c_best, bool(np.isfinite(c_best)), excluded)


def _rho_functional(spec: PotentialSpec, grid: Grid, x, r: float) -> float:
    x = np.asarray(x, dtype=float).reshape(1, grid.dimension)
    return float(_block_functional(spec, grid, x)([0], [r])[0])


def gaussian_average(spec: PotentialSpec, grid: Grid, x, t: float) -> float:
    """t^(-n/2) * integral of exp(-|x-y|^2 / 4t) V(y) dy via shell quadrature."""
    n = grid.dimension
    x = np.asarray(x, dtype=float).reshape(n)
    r_max = min(2.0 * grid.half_width * np.sqrt(n), 12.0 * np.sqrt(t))
    s = np.linspace(0.0, r_max, SIMPSON_INTERVALS + 1)
    w = simpson_weights(r_max)
    gauss = np.exp(-s * s / (4.0 * t))
    if n == 1:
        vplus = eval_potential(spec, (x[0] + s)[:, None])
        vminus = eval_potential(spec, (x[0] - s)[:, None])
        return float(t ** (-0.5) * np.sum(w * gauss * (vplus + vminus)))
    prof = _radial_profile_about(spec, x)
    if prof is None:
        dist = grid.distances_from(x)
        vals = eval_on_grid(spec, grid)
        return float(t ** (-n / 2.0) * np.sum(np.exp(-dist ** 2 / (4.0 * t)) * vals)
                     * grid.cell_weight)
    return float(t ** (-n / 2.0) * _SPHERE_SURFACE[n]
                 * np.sum(w * gauss * prof(s) * s ** (n - 1)))


def norm_potential(spec: PotentialSpec, pts: np.ndarray) -> np.ndarray:
    """V at (N, n) points as `eval_potential` computed it with np.linalg.norm
    at every dimension, including n = 1, and one pass of the scale."""
    if spec.kind == "zero" or spec.scale == 0.0:
        out = np.zeros(pts.shape[0])
    elif spec.kind == "constant":
        out = np.full(pts.shape[0], spec.params["c"])
    elif spec.kind == "power":
        with np.errstate(over="ignore"):
            out = np.linalg.norm(pts, axis=1) ** spec.params["sigma"]
    else:
        center = np.broadcast_to(np.asarray(spec.params["center"], float), pts.shape[1:])
        inside = np.all(np.abs(pts - center) <= spec.params["w"], axis=1)
        out = np.where(inside, spec.params["v"], 0.0)
    return spec.scale * out


def simpson_weights(r):
    """The composite Simpson weights on [0, r]: 1-4-2-...-4-1 times r / m / 3,
    for a scalar r or, one row per radius, a (k, 1) column."""
    w = np.ones(SIMPSON_INTERVALS + 1)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    return w * (r / SIMPSON_INTERVALS / 3.0)


def shell_integrals_1d_linspace(spec: PotentialSpec, centers, radii) -> np.ndarray:
    """The n = 1 Simpson sums of V over [c - r, c + r] as the package wrote
    them before fixed node and weight patterns: np.linspace nodes, literal
    `simpson_weights` and V from `norm_potential`. It calls neither
    `eval_potential` nor the package's Simpson rule, so it does not follow
    them when they change."""
    radii = np.asarray(radii, dtype=float)
    s = np.linspace(0.0, radii, SIMPSON_INTERVALS + 1, axis=-1)
    w = simpson_weights(radii[:, None])
    c = np.asarray(centers, dtype=float)[:, None]
    vplus = norm_potential(spec, (c + s).reshape(-1, 1)).reshape(s.shape)
    vminus = norm_potential(spec, (c - s).reshape(-1, 1)).reshape(s.shape)
    return np.sum(w * (vplus + vminus), axis=1)


def per_step_functional(spec: PotentialSpec, grid: Grid, x):
    """r -> r^(2-n) * integral of V over B(x, r), with no reuse between calls.

    The shell branch runs one Simpson sum per call: at n = 1 the one row of
    `shell_integrals_1d_linspace`, and for V radial about x the radial sum
    over np.linspace nodes.
    The grid-sum branch re-evaluates V on the whole grid and the distances
    from x at every call, as the package did at commit d2efde8.
    """
    n = grid.dimension
    x = np.asarray(x, dtype=float).reshape(n)
    prof = None if n == 1 else _radial_profile_about(spec, x)

    def integral(r):
        if n == 1:
            return float(shell_integrals_1d_linspace(spec, x, [r])[0])
        if prof is not None:
            s = np.linspace(0.0, r, SIMPSON_INTERVALS + 1)
            w = simpson_weights(r)
            return float(_SPHERE_SURFACE[n] * np.sum(w * prof(s) * s ** (n - 1)))
        dist = grid.distances_from(x)
        vals = eval_potential(spec, grid.points)[dist < r]
        return float(np.sum(vals) * grid.cell_weight)

    return lambda r: r ** (2 - n) * integral(r)


def per_step_rho(spec: PotentialSpec, grid: Grid, x, tol: float = 1e-9):
    """`compute_rho` as a bisection of one point at a time over
    `per_step_functional`."""
    n = grid.dimension
    functional = per_step_functional(spec, grid, x)
    lo = grid.spacing
    hi = 2.0 * grid.half_width * np.sqrt(n)
    if functional(hi) <= 1.0:
        return hi, True
    while functional(lo) > 1.0 and lo > 1e-9 * grid.spacing:
        lo *= 0.5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if functional(mid) <= 1.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            return 0.5 * (lo + hi), False
    raise RuntimeError("no convergence")


def check_aux_lemmas(spec: PotentialSpec, grid: Grid, sample_points,
                     sample_scales, q: float = 2.0) -> dict:
    """Measured constants behind the critical-radius toolbox.

    Reports the doubling constant of V(y)dy, the two-scale comparison constant,
    the comparability constant of rho between nearby points, and the
    Gaussian-average bound constant. All are measured suprema over the sample,
    never proofs.
    """
    if is_zero(spec):
        return {"skipped": "rho undefined for the zero potential"}
    n = grid.dimension
    pts = [np.asarray(p, dtype=float).reshape(n) for p in sample_points]
    scales = [float(r) for r in sample_scales]

    doubling = 0.0
    for x in pts:
        for r in scales:
            if 2.0 * r >= 2.0 * grid.half_width:
                continue
            small = ball_integral(spec, grid, x, r)
            big = ball_integral(spec, grid, x, 2.0 * r)
            if small > 0:
                doubling = max(doubling, big / small)

    two_scale = 0.0
    for x in pts:
        for i, r in enumerate(scales):
            for big_r in scales[i + 1:]:
                fr = _rho_functional(spec, grid, x, r)
                fbig = _rho_functional(spec, grid, x, big_r)
                if fbig > 0:
                    two_scale = max(two_scale, fr / ((r / big_r) ** (2 - n / q) * fbig))

    rho_vals = {tuple(x): compute_rho(spec, grid, x)[0] for x in pts}
    comparability = 1.0
    for x in pts:
        for y in pts:
            rx, ry = rho_vals[tuple(x)], rho_vals[tuple(y)]
            if 0 < np.linalg.norm(x - y) <= rx:
                comparability = max(comparability, rx / ry, ry / rx)

    delta = min(1.0, 2.0 - n / q)
    gauss_const = 0.0
    for x in pts:
        rx = rho_vals[tuple(x)]
        for t in scales:
            g = gaussian_average(spec, grid, x, t)
            expo = delta if np.sqrt(t) < rx else 2.0
            gauss_const = max(gauss_const, g * t / (np.sqrt(t) / rx) ** expo)

    return {
        "doubling_constant": doubling,
        "two_scale_constant": two_scale,
        "comparability_constant": comparability,
        "gaussian_average_constant": gauss_const,
    }


# --- kernel table text, one row at a time ----------------------------------

def kernel_lines_per_row(table: np.ndarray):
    """`fmt17.table_chunks` as one `%` call per table row, encoded; `%.17g` is
    `cli._fmt` of a float64."""
    template = "".join([f"\0,{j},%.17g\n" for j in range(table.shape[1])])
    for i, row in enumerate(table):
        yield (template.replace("\0", str(i)) % tuple(row.tolist())).encode()


# --- the operator as Kronecker products -------------------------------------

def kron_operator(grid: Grid, spec: PotentialSpec) -> np.ndarray:
    """-Delta_h + V as kron(A1, I) + kron(I, A1) (+ the third axis) + diag(V)."""
    n, M = grid.dimension, grid.points_per_axis
    A1 = _laplacian_1d(M, grid.spacing, grid.bc == PERIODIC)
    eye = np.eye(M)
    if n == 1:
        lap = A1
    elif n == 2:
        lap = np.kron(A1, eye) + np.kron(eye, A1)
    else:
        lap = (np.kron(np.kron(A1, eye), eye)
               + np.kron(np.kron(eye, A1), eye)
               + np.kron(np.kron(eye, eye), A1))
    return lap + np.diag(eval_on_grid(spec, grid))


# --- the spaces pair scans over whole distance tables -----------------------

def lipschitz_norm_unblocked(members: list[GridFunction], gamma: float,
                             rho_values: np.ndarray) -> list[float]:
    """`spaces.lipschitz_norm` over one (sample x sample) distance table."""
    grid = members[0].grid
    idx = np.arange(grid.size)[::max(1, grid.points_per_axis // 128)]
    dist = grid.pair_distances(idx)
    mask = dist > 0
    dist **= gamma
    rho_gamma = rho_values ** gamma
    norms = []
    for f in members:
        vals = f.values[idx]
        ratio = np.abs(vals[:, None] - vals[None, :])
        np.divide(ratio, dist, out=ratio, where=mask)
        holder = float(np.max(ratio))
        fine = [0.0]
        if grid.dimension == 1:
            line = np.append(f.values, f.values[0]) if grid.bc == PERIODIC else f.values
            fine = np.abs(np.diff(line)) / grid.spacing ** gamma
        holder = max(holder, float(np.max(fine)))
        size = float(np.max(np.abs(f.values) / rho_gamma))
        norms.append(max(holder, size))
    return norms


def area_function_unblocked(dec: SpectralDecomposition, alpha: float, beta: float,
                            members: list[GridFunction], times: np.ndarray) -> list:
    """The n >= 2 `spaces.area_function` over one N x N cone index."""
    grid = dec.grid
    n, w = grid.dimension, grid.cell_weight
    radii = times ** (1.0 / (2.0 * alpha))
    order = np.argsort(radii, kind="stable")
    first = np.searchsorted(radii[order], grid.pair_distances(), side="right")
    out = []
    for f in members:
        fld = d_field(dec, alpha, beta, f, times)
        scale = fld.weights * w / times ** (n / (2.0 * alpha))
        slices = (scale[:, None] * fld.values ** 2)[order]
        tail = np.zeros((times.size + 1, grid.size))
        tail[:-1] = np.cumsum(slices[::-1], axis=0)[::-1]
        out.append(GridFunction(grid, np.sqrt(tail[first, np.arange(grid.size)].sum(axis=1))))
    return out


# --- the scan accumulator, one pass per quantity ----------------------------

def multi_pass_update(acc, obj, maj, xs, ys, t):
    """`_ScanAccumulator.update` as separate passes for |obj|, the finiteness
    test and the maximum."""
    ratio = np.abs(obj) / maj
    zero_maj = (maj == 0.0) & (np.abs(obj) > 0.0)
    acc.excluded += int(np.count_nonzero(zero_maj))
    acc.total += int(ratio.size)
    overflow = (np.abs(obj) > 0.0) & (maj > 0.0) & ~np.isfinite(ratio)
    acc.nonfinite += int(np.count_nonzero(overflow))
    ratio = np.where(np.isfinite(ratio), ratio, 0.0)
    if ratio.size and np.max(ratio) > acc.c_meas:
        flat = int(np.argmax(ratio))
        i, j = np.unravel_index(flat, ratio.shape) if ratio.ndim == 2 else (flat, flat)
        acc.c_meas = float(np.max(ratio))
        acc.argmax = (float(xs[i]), float(ys[j]), float(t))
