"""Campanato/BMO norms, Hardy atoms, square functions and Carleson measures.

Everything here runs on the shared eigenbasis: the semigroup building block
t^beta d_t^beta e^{-t L^alpha} acts as the multiplier (t lam^alpha)^beta
e^{-t lam^alpha}, time integrals dt/t are log-trapezoid sums whose endpoint
truncation is controlled per mode by incomplete-Gamma tails, and ball
quantities use the discrete ball measure |B| = #members * h^n. The time
ladder and the balls are built once per command and passed in; the Carleson
boxes are built once per call for the whole suite, and the cone index and the
Lipschitz sample distances once per block of ROW_BLOCK rows, shared by every
member. The ball and box scans are ball-major: one
pass over the balls gives every member's Campanato norm, and one pass over
the boxes gives the Carleson norms of every field of a stack.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.special import gamma as _gamma

from .grid import (PERIODIC, Ball, Grid, GridFunction, ball_points, boundary_layer_mask,
                   gradient_values, grid_function, inner_box_mask)
from .spectral import SpectralDecomposition, matmul, semigroup_multiplier

MIN_TIME_NODES = 16
TIME_TAIL_TOL = 1e-8     # per-mode Gamma-integral tail left outside the default ladder
SUITE_SIZE = 10          # members of the equivalence suite
ROW_BLOCK = 256          # rows per block of the pair scans, so no N x N array is built


@dataclass(frozen=True)
class SpaceTimeField:
    grid: Grid
    times: np.ndarray                 # (J,), any order
    values: np.ndarray = field(repr=False)   # (J, N), or a stack (..., J, N) on one ladder
    weights: np.ndarray = field(repr=False)  # (J,), trapezoid weights for dt/t

    def __post_init__(self):
        if self.times.size < MIN_TIME_NODES:
            raise ValueError(f"need at least {MIN_TIME_NODES} time slices")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("space-time field must be finite")


def default_time_grid(dec: SpectralDecomposition, alpha: float, beta: float,
                      n_times: int = 64) -> np.ndarray:
    """Log-spaced times whose per-mode Gamma-integral tails stay below TIME_TAIL_TOL."""
    lam_max = max(dec.lam_max, 1.0)
    lam_min = dec.positive_min
    u_min = (2.0 * beta * TIME_TAIL_TOL * _gamma(2.0 * beta)
             * 2.0 ** (-2.0 * beta)) ** (1.0 / (2.0 * beta))
    u_max = 20.0 * (1.0 + beta) + np.log(1.0 / TIME_TAIL_TOL)
    t_min = u_min / lam_max ** alpha
    t_max = u_max / lam_min ** alpha
    return np.geomspace(t_min, t_max, n_times)


def _log_trapezoid_weights(times: np.ndarray) -> np.ndarray:
    """Trapezoid weights for dt/t in log t, each at its own time: any ladder order."""
    order = np.argsort(times, kind="stable")
    lt = np.log(times[order])
    w = np.zeros_like(lt)
    w[1:-1] = 0.5 * (lt[2:] - lt[:-2])
    w[0] = 0.5 * (lt[1] - lt[0])
    w[-1] = 0.5 * (lt[-1] - lt[-2])
    out = np.empty_like(w)
    out[order] = w
    return out


def _synthesis(dec: SpectralDecomposition, alpha: float, beta, coeff, times) -> np.ndarray:
    """(J, N) values of t^b d_t^b e^{-t L^a} f from f's coefficients, for any ladder."""
    return matmul(semigroup_multiplier(times, alpha, beta)(dec.eigenvalues) * coeff, dec.basis.T)


def d_field(dec: SpectralDecomposition, alpha: float, beta: float,
            f: GridFunction, times: np.ndarray) -> SpaceTimeField:
    """t^beta d_t^beta e^{-t L^alpha} f on the time ladder, with dt/t weights."""
    values = _synthesis(dec, alpha, beta, dec.coefficients(f.values), times)
    return SpaceTimeField(dec.grid, times, values, _log_trapezoid_weights(times))


def _rho_at(rho_values: np.ndarray, i: int, reader: str) -> float:
    """rho at grid point i; NaN marks a point where rho was not computed."""
    value = rho_values[i]
    if np.isnan(value):
        raise ValueError(f"{reader} reads rho at grid point {i}, where it was not computed")
    return value


def ball_centers(grid: Grid) -> np.ndarray:
    """Grid indices of the `ball_family` centres: every max(1, M // 64)-th
    point of the centered half-box."""
    limit = 0.5 * grid.half_width
    idx = np.nonzero(np.all(np.abs(grid.points) <= limit, axis=1))[0]
    return idx[::max(1, grid.points_per_axis // 64)]


def ball_family(grid: Grid, rho_values: np.ndarray) -> list[Ball]:
    """Grid-centered balls inside the centered half-box: 12 log-spaced radii
    plus the critical radius about every `ball_centers` point. The distances
    from each centre are computed once and shared by its balls."""
    limit = 0.5 * grid.half_width
    radii = np.geomspace(2.0 * grid.spacing, limit, 12)
    balls = []
    for i in ball_centers(grid):
        center = grid.points[i]
        rset = list(radii)
        rho_c = _rho_at(rho_values, i, "ball_family")
        if 2.0 * grid.spacing < rho_c < limit:
            rset.append(rho_c)
        rset = [r for r in rset if np.max(np.abs(center)) + r <= limit]
        if rset:
            dist = grid.distances_from(center)
            balls += [ball_points(grid, center, r, dist) for r in rset]
    if not balls:
        raise ValueError("no admissible balls in the inner box")
    return balls


def _ball_measure(grid: Grid, ball: Ball) -> float:
    return ball.members.size * grid.cell_weight


def bmo_norm(members: list[GridFunction], gamma: float, rho_values: np.ndarray,
             balls: list[Ball]) -> list[float]:
    """Per member, sup_B |B|^(-1-gamma/n) int_B |f - f(B, V)|: mean on small
    balls, raw size above rho. One pass over the balls serves every member:
    per ball one (F, m) gather and one rho read."""
    grid = members[0].grid
    if not 0.0 < gamma <= 1.0:
        raise ValueError("exponent gamma must lie in (0, 1]")
    values = np.stack([f.values for f in members])
    if not np.all(np.isfinite(values)):
        raise ValueError("bmo_norm requires finite values")
    n, w = grid.dimension, grid.cell_weight
    best = np.zeros(len(members))
    for ball in balls:
        vals = np.take(values, ball.members, axis=1)
        rho_c = _rho_at(rho_values, ball.center_index, "bmo_norm")
        reference = vals.mean(axis=1, keepdims=True) if ball.radius < rho_c else 0.0
        measure = _ball_measure(grid, ball)
        osc = np.sum(np.abs(vals - reference), axis=1) * w
        np.maximum(best, osc / measure ** (1.0 + gamma / n), out=best)
    return best.tolist()


def lipschitz_norm(members: list[GridFunction], gamma: float,
                   rho_values: np.ndarray) -> list[float]:
    """Per member, the max of the Holder seminorm and sup |f| / rho^gamma over
    sampled points (every max(1, M // 128)-th grid point in flat order), in the
    grid's metric. The sample pairs are scanned ROW_BLOCK rows at a time, and
    each block's distances are computed once for every member."""
    grid = members[0].grid
    if np.any(np.isnan(rho_values)):
        raise ValueError("lipschitz_norm reads rho at every grid point; some were not computed")
    idx = np.arange(grid.size)[::max(1, grid.points_per_axis // 128)]
    samples = [f.values[idx] for f in members]
    holder = np.zeros(len(members))
    for start in range(0, idx.size, ROW_BLOCK):
        np.maximum(holder, _holder_block(grid, idx, slice(start, start + ROW_BLOCK), samples,
                                         gamma), out=holder)
    rho_gamma = rho_values ** gamma
    norms = []
    for f, seminorm in zip(members, holder):
        # adjacent pairs capture the local seminorm missed by the coarse sample;
        # on a periodic grid the seam pair is adjacent too
        fine = [0.0]
        if grid.dimension == 1:
            line = np.append(f.values, f.values[0]) if grid.bc == PERIODIC else f.values
            fine = np.abs(np.diff(line)) / grid.spacing ** gamma
        seminorm = max(float(seminorm), float(np.max(fine)))
        size = float(np.max(np.abs(f.values) / rho_gamma))
        norms.append(max(seminorm, size))
    return norms


def _holder_block(grid: Grid, idx: np.ndarray, block: slice, samples: list,
                  gamma: float) -> np.ndarray:
    """Per sample, max |f_i - f_j| / |x_i - x_j|^gamma over the pairs whose row
    is in `block`; the block's arrays are freed on return."""
    dist = grid.block_distances(idx[block], idx)
    mask = dist > 0
    dist **= gamma
    out, ratio = np.empty(len(samples)), np.empty(dist.shape)
    for k, vals in enumerate(samples):
        # the pairs left out (i = j) keep |f_i - f_i| = 0, below every other ratio
        np.subtract(vals[block, None], vals[None, :], out=ratio)
        np.abs(ratio, out=ratio)
        np.divide(ratio, dist, out=ratio, where=mask)
        out[k] = np.max(ratio)
    return out


def make_atom(grid: Grid, ball: Ball, gamma: float, rho_at_center: float) -> GridFunction:
    """Normalized Hardy atom on a ball: sup |B|^(-1/p) with p = n/(n + gamma),
    support, and small-ball cancellation."""
    n = grid.dimension
    p = n / (n + gamma)
    if ball.radius > rho_at_center:
        raise ValueError("atom balls must satisfy r_B <= rho(x_B)")
    xi = grid.distances_from(ball.center) / ball.radius
    bump = np.where(xi < 1.0, np.cos(0.5 * np.pi * np.clip(xi, 0.0, 1.0)) ** 2, 0.0)
    values = np.zeros(grid.size)
    values[ball.members] = bump[ball.members]
    axis = grid.points[:, 0] - ball.center[0]
    values = values * np.sin(np.pi * axis / ball.radius)
    values[ball.members] -= values[ball.members].mean()
    sup = np.max(np.abs(values))
    if sup == 0.0:
        raise ValueError("degenerate atom profile")
    target = _ball_measure(grid, ball) ** (-1.0 / p)
    values *= target / sup
    return grid_function(grid, values)


def g_function(dec: SpectralDecomposition, alpha: float, beta: float,
               f: GridFunction, times: np.ndarray) -> GridFunction:
    """Vertical square function (int |t^b d_t^b e^{-tL^a} f|^2 dt/t)^(1/2)."""
    fld = d_field(dec, alpha, beta, f, times)
    g2 = matmul(fld.weights, fld.values ** 2)
    return grid_function(dec.grid, np.sqrt(g2))


def g_constant(beta: float) -> float:
    """int_0^inf u^(2b) e^(-2u) du/u = Gamma(2b)/2^(2b), as an L^2 multiplier."""
    return 2.0 ** (-beta) * np.sqrt(_gamma(2.0 * beta))


def area_function(dec: SpectralDecomposition, alpha: float, beta: float,
                  members: list[GridFunction], times: np.ndarray) -> list[GridFunction]:
    """Cone square function of each member: aggregate |D f|^2 over |x - y| < t^(1/2 alpha).

    S(x)^2 = sum_j w_j h^n t_j^(-n/2 alpha) sum_{|x-y| < r_j} |D f(t_j, y)|^2
    with r_j = t_j^(1/2 alpha). At n=1 each slice is a sliding-window sum.
    At n>=2 the sum is split into distance shells: with the slices sorted by
    radius (the ladder may come in any order), the pair (x, y) lies inside
    the cones of exactly the slices j >= first(x, y), the index of the first
    sorted radius strictly above |x - y|. So S(x)^2 gathers suffix sums of the
    weighted slices, one entry per y. The index `first` is built ROW_BLOCK
    rows at a time and read by every member, so memory per call is the
    members' suffix sums, (J + 1) x N each, and a few ROW_BLOCK x N blocks.
    """
    grid = dec.grid
    n, h, w = grid.dimension, grid.spacing, grid.cell_weight
    if n >= 2:
        radii = times ** (1.0 / (2.0 * alpha))
        order = np.argsort(radii, kind="stable")
        tails = []
        for f in members:
            fld = d_field(dec, alpha, beta, f, times)
            scale = fld.weights * w / times ** (n / (2.0 * alpha))
            slices = (scale[:, None] * fld.values ** 2)[order]
            tail = np.zeros((times.size + 1, grid.size))
            tail[:-1] = np.cumsum(slices[::-1], axis=0)[::-1]
            tails.append(tail)
        everything = np.arange(grid.size)
        squares = np.empty((len(members), grid.size))
        for start in range(0, grid.size, ROW_BLOCK):
            rows = everything[start:start + ROW_BLOCK]
            first = np.searchsorted(radii[order], grid.block_distances(rows, everything),
                                    side="right")
            for k, tail in enumerate(tails):
                squares[k, rows] = tail[first, everything].sum(axis=1)
        return [grid_function(grid, np.sqrt(sq)) for sq in squares]
    out = []
    halves = [int(np.floor(r / h - 0.5)) if r >= h else 0
              for r in (t_j ** (1.0 / (2.0 * alpha)) for t_j in times)]
    for f in members:
        fld = d_field(dec, alpha, beta, f, times)
        total = np.zeros(grid.size)
        for t_j, w_j, row, half in zip(times, fld.weights, fld.values, halves):
            window = _sliding_window_sum(row ** 2, half)
            total += w_j * window * w / t_j ** (n / (2.0 * alpha))
        out.append(grid_function(grid, np.sqrt(total)))
    return out


def _sliding_window_sum(values: np.ndarray, half: int) -> np.ndarray:
    if half <= 0:
        return values.copy()
    c = np.concatenate(([0.0], np.cumsum(values)))
    N = values.size
    lo = np.clip(np.arange(N) - half, 0, N)
    hi = np.clip(np.arange(N) + half + 1, 0, N)
    return c[hi] - c[lo]


def quasi_norm(f: GridFunction, p: float) -> float:
    """L^p quasi-norm for 0 < p <= 1 with the grid measure."""
    return float((np.sum(np.abs(f.values) ** p) * f.grid.cell_weight) ** (1.0 / p))


def carleson_boxes(balls: list[Ball], times: np.ndarray, box_exponent: float) -> list:
    """The Carleson boxes B x (0, r_B^e) that hold a slice of the ladder `times`,
    as (ball, indices of those slices); fields on that ladder share them."""
    if not balls:
        raise ValueError("no admissible ball")
    boxes = []
    for ball in balls:
        slices = np.flatnonzero(times <= ball.radius ** box_exponent)
        if slices.size:
            boxes.append((ball, slices))
    return boxes


def carleson_norm(fld: SpaceTimeField, kappa: float, boxes: list) -> list[float]:
    """Per squared-density field of the stack `fld.values` (..., J, N),
    sup_B nu(B x (0, r_B^e)) / |B|^kappa. One pass over the boxes serves every
    field: per box one (F, J_B, m) gather, summed along the ball's members,
    then one dot with the slice weights per field."""
    grid = fld.grid
    J, N = fld.values.shape[-2:]
    values = fld.values.reshape(-1, J * N)
    best = np.zeros(values.shape[0])
    for ball, slices in boxes:
        gather = np.take(values, (slices[:, None] * N + ball.members).ravel(), axis=1)
        sums = np.sum(gather.reshape(values.shape[0], slices.size, -1), axis=2)
        weights = fld.weights[slices]
        mass = np.array([matmul(weights, row) for row in sums]) * grid.cell_weight
        np.maximum(best, mass / _ball_measure(grid, ball) ** kappa, out=best)
    return best.tolist()


def _reproducing_multiplier(dec: SpectralDecomposition, alpha: float, beta: float,
                            times: np.ndarray) -> np.ndarray:
    """Per eigenvalue, int (t^b d_t^b e^{-tL^a})^2 dt/t on the ladder over its
    exact value g_constant(beta)^2 = Gamma(2b)/2^(2b): 1 on every positive mode
    the ladder resolves, 0 on a zero mode."""
    integral = matmul(_log_trapezoid_weights(times),
                      semigroup_multiplier(times, alpha, beta)(dec.eigenvalues) ** 2)
    return integral / g_constant(beta) ** 2


def reproducing_check(dec: SpectralDecomposition, alpha: float, beta: float,
                      f: GridFunction, times: np.ndarray) -> float:
    """Relative L^2 residual of c * int (t^b d_t^b e^{-tL^a})^2 f dt/t = f."""
    coeff = dec.coefficients(f.values)
    if dec.has_zero_mode and abs(coeff[0]) > 1e-10 * max(np.linalg.norm(coeff), 1e-300):
        raise ValueError("zero-mode contamination: project the mean out of f first")
    recon = dec.synthesize(_reproducing_multiplier(dec, alpha, beta, times) * coeff)
    num = np.sqrt(np.sum((recon - f.values) ** 2))
    den = np.sqrt(np.sum(f.values ** 2))
    return float(num / den)


def duality_pairing_check(f: GridFunction, atom: GridFunction, dec: SpectralDecomposition,
                          alpha: float, beta: float, times: np.ndarray):
    """Upper-half-space pairing over C_{a,b} <f, a>; 1.0 when the identity holds.

    Returns None for (numerically) orthogonal pairs.
    """
    w = dec.grid.cell_weight
    inner = float(np.sum(f.values * atom.values) * w)
    if abs(inner) < 1e-12:
        return None
    cf = dec.coefficients(f.values)
    ca = dec.coefficients(atom.values)
    mult = _reproducing_multiplier(dec, alpha, beta, times)
    return float(np.sum(mult * cf * ca)) / inner


def gradient_fields(grid: Grid, alpha: float, times: np.ndarray, ladder: dict):
    """N4's and N5's fields of u(t) = e^{-t L^alpha} f, (J, N) each, from
    `ladder`, f's d-fields on `times` by order: 0 (u, popped once
    differentiated), 1/(2a) and 1. They are `grads` and `timeparts`, the
    magnitudes |t^(1/2a) grad_x u| and |t^(1/2a) d_t^(1/2a) u|, and `nu`, the
    squared density of |t grad e^{-t^(2a) L^a} f|^2 dx dt/t in semigroup
    time. With s = t^(2 alpha): |t grad_x|^2 = s^(1/alpha) |grad_x v(s)|^2
    and |t d_t|^2 = 4 alpha^2 |s d_s v(s)|^2, while dt/t = ds/(2 alpha s);
    the 1/(2 alpha) substitution factor is folded into `nu`.
    """
    grad = gradient_values(grid, ladder.pop(0).T)  # (N, J, n)
    slope = np.ascontiguousarray(np.sqrt(np.sum(grad ** 2, axis=-1)).T)
    # scalar powers per time: an array power may round the last bit differently
    t_sc = np.array([t ** (1.0 / (2.0 * alpha)) for t in times])[:, None]
    t_sq = np.array([t ** (1.0 / alpha) for t in times])[:, None]
    timeparts = np.abs(ladder[1.0 / (2.0 * alpha)])
    dsq = 4.0 * alpha ** 2 * ladder[1] ** 2
    return t_sc * slope, timeparts, (t_sq * slope ** 2 + dsq) / (2.0 * alpha)


#: (centre coordinate on every axis at L = 16, radius) of the equivalence suite's atoms
_SUITE_ATOMS = ((-3.0, 0.5), (1.0, 0.35), (5.0, 0.6))


def _suite_atoms(grid: Grid) -> list[tuple[np.ndarray, int, float]]:
    """(centre, nearest grid index, radius) of each suite atom. The centres
    scale with the box, c * L / 16, so they stay inside the ball family's
    half-box on every L; at L = 16 they are the coordinates themselves."""
    atoms = []
    for c, radius in _SUITE_ATOMS:
        center = np.full(grid.dimension, c * grid.half_width / 16.0)
        atoms.append((center, int(np.argmin(grid.distances_from(center))), radius))
    return atoms


def equivalence_rho_indices(grid: Grid) -> np.ndarray:
    """The grid points where `make_equivalence_suite` and `equivalence_experiment`
    read rho: the `ball_centers` (`bmo_norm` reads the same) and the atom centres."""
    return np.union1d(ball_centers(grid), [i for _, i, _ in _suite_atoms(grid)])


def make_equivalence_suite(dec: SpectralDecomposition, rho_values: np.ndarray,
                           gamma: float, seed: int = 0) -> list[GridFunction]:
    """Functions with spread-out Campanato norms: truncated Holder profiles,
    atoms and random low-frequency combinations."""
    grid = dec.grid
    rng = np.random.default_rng(seed)
    x = grid.points
    L = grid.half_width
    suite: list[GridFunction] = []
    window = np.cos(0.5 * np.pi * np.clip(np.linalg.norm(x, axis=1) / L, 0.0, 1.0)) ** 2
    for c in (0.0, -2.5, 4.0):
        prof = np.minimum(np.linalg.norm(x - c, axis=1), 6.0) ** gamma
        suite.append(grid_function(grid, prof * window))
    for center, i_c, radius in _suite_atoms(grid):
        radius = max(radius, 2.2 * grid.spacing)
        r_at = _rho_at(rho_values, i_c, "make_equivalence_suite")
        if radius > r_at:
            continue    # coarse grids cannot host sub-critical atoms
        ball = ball_points(grid, center, radius)
        suite.append(make_atom(grid, ball, gamma, r_at))
    k_low = min(12, grid.size - 1)
    while len(suite) < SUITE_SIZE:
        coeff = np.zeros(grid.size)
        start = 1 if dec.has_zero_mode else 0
        coeff[start:start + k_low] = rng.standard_normal(k_low)
        suite.append(grid_function(grid, dec.synthesize(coeff)))
    return suite


def equivalence_experiment(suite: list[GridFunction], dec: SpectralDecomposition,
                           alpha: float, beta: float, gamma: float,
                           rho_values: np.ndarray, times: np.ndarray) -> dict:
    """The five Campanato-type functionals per suite member, with ratio ranges.

    N1 Campanato norm; N2 sup_t t^(-g/2a) |D f|_inf; N3 the Carleson-box
    quantity of the D-field; N4 sup_t t^(-g/2a) |t^(1/2a) nabla_alpha u|_inf;
    N5 the Carleson norm of the gradient measure. Desk-scale reading of the
    equivalence theorems: all ratios against N1 in one bounded interval.
    `rows[i]` is `suite[i]`'s; a member with N1 = 0 keeps only N1, out of the ratios.
    """
    if not gamma < min(2.0 * alpha, 2.0 * alpha * beta):
        raise ValueError("need gamma < min(2 alpha, 2 alpha beta)")
    if len(suite) < 1:
        raise ValueError("empty suite")
    grid = dec.grid
    balls = ball_family(grid, rho_values)
    boxes = carleson_boxes(balls, times, 2.0 * alpha)
    kappa = 1.0 + 2.0 * gamma / grid.dimension
    g_over_a = gamma / (2.0 * alpha)
    interior = inner_box_mask(grid, 0.75) & ~boundary_layer_mask(grid)
    rows = [{"N1": n1} for n1 in bmo_norm(suite, gamma, rho_values, balls)]
    live = [(f, row) for f, row in zip(suite, rows) if row["N1"] != 0.0]
    # |D f|^2 and nu of every live member: one Carleson pass serves N3 and N5;
    # each distinct order of D and N4's gradient is synthesized once
    fields = np.empty((2, len(live), times.size, grid.size))
    for k, (f, row) in enumerate(live):
        coeff = dec.coefficients(f.values)
        ladder = {b: _synthesis(dec, alpha, b, coeff, times)
                  for b in dict.fromkeys((beta, 0, 1.0 / (2.0 * alpha), 1))}
        d = ladder[beta]
        np.square(d, out=fields[0, k])
        grads, timeparts, fields[1, k] = gradient_fields(grid, alpha, times, ladder)
        mags = np.sqrt(grads ** 2 + timeparts ** 2)
        row["N2"] = float(np.max(times ** (-g_over_a) * np.max(np.abs(d[:, interior]), axis=1)))
        row["N4"] = float(np.max(times ** (-g_over_a) * np.max(mags[:, interior], axis=1)))
    carleson = carleson_norm(SpaceTimeField(grid, times, fields, _log_trapezoid_weights(times)),
                             kappa, boxes)
    for (_, row), n3, n5 in zip(live, carleson[:len(live)], carleson[len(live):]):
        row["N3"], row["N5"] = np.sqrt(n3), np.sqrt(n5)
    ratios = np.array([[row[k] / row["N1"] for k in ("N2", "N3", "N4", "N5")]
                       for _, row in live])
    if ratios.size == 0:
        raise ValueError("every suite member had vanishing Campanato norm")
    c_star = float(max(ratios.max(), 1.0 / ratios.min()))
    return {"rows": rows, "ratio_min": float(ratios.min()),
            "ratio_max": float(ratios.max()), "c_star": c_star}
