"""Registry of pointwise kernel estimates as executable majorants.

The table `_REGISTRY` is the list of estimates, one row each, and nothing
about an estimate is stated elsewhere: its object, time ladder, lattice,
majorant, default delta' and (E8) own alpha in `verify`. The mass-row
estimates are skipped at V = 0. Every object is the semigroup multiplier
(t lam^a)^b e^{-t lam^a} of `spectral.semigroup_multiplier`, as a kernel
table or its x-gradient. One pass per table family (heat ladder or not, a, b)
walks the time ladder once and hands each time's tables to a step per entry
and lattice shape: pairs of lattice points, shifted pairs (increments over
the fixed Holder shifts k L/64, k in HOLDER_SHIFTS, that are whole cells, as
a shift rule allows), mass rows.

The scan geometry is fixed per grid and built with its backend: the lattice,
its pair distances, rho there, the represented shifts and one row block (the
lattice, its shifted rows and their axis-0 stencil neighbours). Every kernel
table of a scan is that row block at the lattice columns, on every grid and
for every family, and the row masses E8 and E11 integrate come from the mode
sums (`spectral.multiplier_kernel`), not from the table. No row of the block
leaves the box: the lattice lies in |x|_inf <= L/2, and the largest shift
plus one stencil cell reaches L/2 + L/16 + h, within the outermost cell
centre L - h/2 for every M >= 8.

A certificate records the measured supremum of |object| / majorant over the
lattice, the argmax, and the stability of that supremum under grid
refinement. "Verified" here always means: finite measured constant, stable
under refinement, correct tail exponent; a lattice scan is not a proof, and
a scan fails when it visits no lattice point or when |object| / majorant
overflows at a pair with a positive object and majorant.

Gaussian-decay majorants use the decay constant c = 1/8 and the scan is
capped at |x - y| <= 6 sqrt(t): beyond the parabolic window the lattice
kernel's large-deviation tail is heavier than any Gaussian and the ratio
would only measure discretization, not the estimate.
"""

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from . import closedform, potentials
from .grid import Grid, build_grid, inner_box_mask
from .potentials import PotentialSpec, is_zero
from .spectral import (KernelBlock, KernelSlice, SpectralDecomposition, assemble,
                       eigendecompose, kernel_block, matmul, multiplier_kernel,
                       semigroup_multiplier)

GAUSS_DECAY = 0.125          # c in exp(-c r^2 / t) majorants
GAUSS_WINDOW = 6.0           # scan cap |x-y| <= GAUSS_WINDOW * sqrt(t)
CEILING = 1e8                # a certificate fails above this measured constant
HOLDER_SHIFTS = (1, 2, 4)    # Holder shifts, multiples of L/64; a grid scans the whole-cell ones


class EstimateNotApplicable(ValueError):
    """The estimate needs V != 0 and the potential is zero: an expected skip."""


def holder_delta0(n: int, q: float | None) -> float:
    """delta_0 = min(1, 2 - n/q), the largest Holder exponent delta'; q defaults to 2n."""
    return min(1.0, 2.0 - n / (q if q is not None else 2.0 * n))


@dataclass(frozen=True)
class EstimateParams:
    alpha: float = 0.5
    beta: float = 1.0
    N: float = 0.0
    q: float | None = None          # reverse-Holder exponent; default 2n
    delta_prime: float | None = None

    def resolved(self, eid: str, n: int) -> "EstimateParams":
        """q and delta' filled in: q = 2n, delta' by the id's registry rule."""
        q = self.q if self.q is not None else 2.0 * n
        dp = (self.delta_prime if self.delta_prime is not None
              else _REGISTRY[eid].delta(self, n, q, holder_delta0(n, q)))
        return replace(self, q=q, delta_prime=dp)


@dataclass(frozen=True)
class BoundCertificate:
    params: EstimateParams
    c_meas: float
    argmax: tuple                    # (x, y, t)
    refine_ratio: float
    passed: bool


def lattice_indices(grid: Grid) -> np.ndarray:
    """Flat indices of the scan lattice, ascending: the inner half-box points,
    every max(1, M // 64)-th along each axis.

    The spacing is max(1, M // 64) h with h = 2L/M: L/32 when 64 divides M
    (every 4th point at M = 256), but h > L/32 below M = 64. So the two grids
    of a refinement pair (M/2, M) scan the same lattice only when 64 divides
    M/2; every n >= 2 pair within the dense caps scans a coarse lattice twice
    as sparse as the fine one.
    """
    M = grid.points_per_axis
    inner = np.nonzero(inner_box_mask(grid, 0.5))[0]
    coords = np.array(np.unravel_index(inner, (M,) * grid.dimension))
    on_stride = (coords - coords.min(axis=1, keepdims=True)) % max(1, M // 64) == 0
    return inner[np.all(on_stride, axis=0)]


@dataclass(frozen=True)
class _RowBlock:
    """The grid rows a scan reads: first the lattice and its shifts (the rows
    of a gradient table), then their axis-0 stencil neighbours."""

    rows: np.ndarray
    pos: np.ndarray                 # grid index -> position in `rows`, -1 off the block
    stencil: int                    # rows[:stencil] have their neighbours in the block

    def at(self, idx: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Positions of the grid rows `idx` in `table`, a kernel or gradient block."""
        p = self.pos[idx]
        if np.any((p < 0) | (p >= table.shape[0])):
            raise ValueError("scan reads a kernel row outside its block")
        return p


class VerifierBackend:
    """Grid + decomposition bundle with the scan geometry of its grid.

    `lattice` holds the `lattice_indices` points, `xs` their first
    coordinates, `r` |x - y| per lattice pair (in the half-box no pair wraps)
    and `rho` rho at the lattice points (+inf for V = 0). `shifts` are the
    Holder shifts the grid represents and `moved` the lattice moved by each
    of them. `block` holds the rows the scans read: the lattice, its shifts
    and the stencil neighbours of both. `factors` holds the basis at those
    rows and at the lattice, gathered once: every table of a scan is block
    rows x lattice, and its row masses come from the mode sums.
    """

    def __init__(self, grid: Grid, potential: PotentialSpec):
        self.grid = grid
        self.zero_potential = is_zero(potential)
        self.dec: SpectralDecomposition = eigendecompose(assemble(grid, potential))
        self.lattice = lat = lattice_indices(grid)
        self.xs, self.r = grid.points[lat, 0], grid.pair_distances(lat)
        self.rho = potentials.compute_aux_function(potential, grid, indices=lat).rho[lat]
        self.shifts = _physical_shifts(grid)
        self.moved = [_shift_indices(grid, lat, steps) for steps, _ in self.shifts]
        base = np.unique(np.concatenate([lat] + self.moved))
        near = [_shift_indices(grid, base, step) for step in (1, -1)]
        rows = np.concatenate([base, np.setdiff1d(np.concatenate(near), base)])
        pos = np.full(grid.size, -1)
        pos[rows] = np.arange(rows.size)
        self.block = _RowBlock(rows, pos, base.size)
        self.factors = kernel_block(self.dec, rows, lat)

    def kernel(self, t: float, alpha: float, power, block: KernelBlock | None = None
               ) -> KernelSlice:
        """The kernel of t^power d_t^power e^{-t L^alpha} (up to sign) at
        `block`, the scan's rows x lattice (`factors`) when None.

        For V = 0 the semigroup itself (power 0) comes from the closed forms,
        computed at the block only: the Gaussian at alpha = 1 and the Poisson
        kernel at alpha = 1/2. They carry no row masses, which no scan reads
        at V = 0. Everything else is one sandwich on the block's factors.
        """
        block = self.factors if block is None else block
        if power == 0 and self.zero_potential:
            if alpha == 1:
                return closedform.gaussian_heat_table(self.grid, t, block.rows, block.cols)
            if abs(alpha - 0.5) < 1e-14:
                return closedform.poisson_table(self.grid, t, block.rows, block.cols)
        return multiplier_kernel(self.dec, semigroup_multiplier(t, alpha, power), block=block)


class _Tables:
    """One time of a table family, with the lattice views every job of the
    family reads. Every table is block rows x lattice (304 x 256 of the
    1,024 x 1,024 table at n=2 M=32). Each is computed on first read:

    - `kernel`: the row-block kernel at the lattice columns, with its row
      masses from the mode sums;
    - `gradient`: its axis-0 gradient at the block's first `stencil` rows;
    - `kernel_pairs`, `gradient_pairs`: the table at the lattice pairs;
    - `kernel_increments`, `gradient_increments`: per represented shift, the
      table at the shifted lattice rows minus its pair block.

    A table that raises is not kept: each reader raises. `factors` holds the
    majorant factors of the lattice pairs at this time (see `_Point.factor`),
    at most one lattice x lattice array per penalty (kind, N), decay exponent
    and Gaussian factor the family's jobs read.
    """

    def __init__(self, backend: VerifierBackend, t: float, t_sc: float, alpha: float, power):
        self.backend, self.t, self.t_sc, self.family = backend, t, t_sc, (alpha, power)
        self.factors = {}

    @cached_property
    def kernel(self) -> KernelSlice:
        return self.backend.kernel(self.t, *self.family)

    @cached_property
    def gradient(self) -> np.ndarray:
        blk, kernel = self.backend.block, self.kernel.table
        return _axis0_gradient(self.backend.grid, lambda rows: kernel[blk.at(rows, kernel)],
                               blk.rows[:blk.stencil])

    @cached_property
    def kernel_pairs(self) -> np.ndarray:
        return self._lattice_view(self.kernel.table, self.backend.lattice)

    @cached_property
    def gradient_pairs(self) -> np.ndarray:
        return self._lattice_view(self.gradient, self.backend.lattice)

    @cached_property
    def kernel_increments(self) -> list:
        return [self._lattice_view(self.kernel.table, moved) - self.kernel_pairs
                for moved in self.backend.moved]

    @cached_property
    def gradient_increments(self) -> list:
        return [self._lattice_view(self.gradient, moved) - self.gradient_pairs
                for moved in self.backend.moved]

    def pairs(self, gradient: bool) -> np.ndarray:
        return self.gradient_pairs if gradient else self.kernel_pairs

    def increments(self, gradient: bool) -> list:
        return self.gradient_increments if gradient else self.kernel_increments

    def row_masses(self, rows: np.ndarray) -> np.ndarray:
        """integral of K(x, y) dy at the grid rows `rows`, from the mode sums."""
        masses = self.kernel.row_masses()
        return masses[self.backend.block.at(rows, masses)]

    def _lattice_view(self, table: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """`table` at the grid rows `rows`: those rows at the lattice columns."""
        return table[self.backend.block.at(rows, table)]


def build_backend(n: int = 1, half_width: float = 16.0, points_per_axis: int = 256,
                  bc: str = "dirichlet", potential: PotentialSpec | None = None) -> VerifierBackend:
    pot = potential if potential is not None else potentials.constant(1.0)
    return VerifierBackend(build_grid(n, half_width, points_per_axis, bc), pot)


def time_grid(grid: Grid, alpha: float, heat_scaling: bool) -> np.ndarray:
    """Times from h^2 up to the box-safe maximum on a sqrt(2) ladder.

    The ladder is anchored at the top value, so a refined grid extends the
    same time set downward instead of re-placing every node; certificates
    then compare like against like across grids.
    """
    h, L = grid.spacing, grid.half_width
    upper = (L / 4.0) ** 2 if heat_scaling else (L / 4.0) ** (2.0 * alpha)
    depth = int(np.ceil(2.0 * np.log2(upper / (h * h))))
    ts = upper * 2.0 ** (-0.5 * np.arange(depth + 1))
    return ts[ts >= h * h * (1.0 - 1e-12)][::-1]


def _scaling_time(t: float, alpha: float) -> float:
    return t ** (1.0 / (2.0 * alpha))


def _sum_penalty(t_sc, rho_x, rho_y, N):
    """(1 + t_sc/rho(x) + t_sc/rho(y))^-N; the rho = inf sentinel gives t_sc/rho = +0."""
    return (1.0 + t_sc / rho_x + t_sc / rho_y) ** (-N)


def _prod_penalty(t_sc, rho_x, rho_y, N):
    return ((1.0 + t_sc / rho_x) ** (-N)) * ((1.0 + t_sc / rho_y) ** (-N))


@dataclass
class _ScanAccumulator:
    c_meas: float = 0.0
    argmax: tuple = (np.nan, np.nan, np.nan)
    excluded: int = 0
    total: int = 0
    nonfinite: int = 0              # pairs with |obj| > 0 < maj whose ratio overflowed

    def update(self, obj, maj, xs, ys, t):
        """Fold one time's |obj| / maj into the supremum. A non-finite ratio
        counts as 0; it is `excluded` where the majorant is zero under a
        positive object and `nonfinite` where both are positive."""
        mag = np.abs(obj)
        ratio = mag / maj
        self.total += int(ratio.size)
        bad = ~np.isfinite(ratio)
        if bad.any():
            mag_bad = np.broadcast_to(mag, ratio.shape)[bad]
            maj_bad = np.broadcast_to(maj, ratio.shape)[bad]
            self.excluded += int(np.count_nonzero((maj_bad == 0.0) & (mag_bad > 0.0)))
            self.nonfinite += int(np.count_nonzero((mag_bad > 0.0) & (maj_bad > 0.0)))
            ratio[bad] = 0.0
        if ratio.size:
            flat = int(np.argmax(ratio))
            if ratio.flat[flat] > self.c_meas:
                i, j = np.unravel_index(flat, ratio.shape) if ratio.ndim == 2 else (flat, flat)
                self.c_meas = float(ratio.flat[flat])
                self.argmax = (float(xs[i]), float(ys[j]), float(t))


def _physical_shifts(grid: Grid):
    """(steps, length) for each of the HOLDER_SHIFTS representable on this grid.

    Shifts are fixed physical lengths k L/64, and a grid represents those that
    are whole cells, k M / 128 of them. So the two grids of a refinement pair
    can scan different shift sets: M = 64 represents k in {2, 4}, and M = 128,
    256 and 512 all of {1, 2, 4}. At n = 2 only M = 32 represents one, k = 4,
    and no n = 3 grid within the dense caps represents any.
    """
    h = grid.spacing
    unit = grid.half_width / 64.0
    out = []
    for k in HOLDER_SHIFTS:
        length = k * unit
        steps = int(round(length / h))
        if steps >= 1 and abs(steps * h - length) <= 1e-9 * length:
            out.append((steps, length))
    return out


def _shift_indices(grid: Grid, idx: np.ndarray, steps: int) -> np.ndarray:
    """Grid indices `steps` cells along the first axis; ValueError if one leaves
    the box (a flat index would silently land on another row)."""
    M = grid.points_per_axis
    stride = M ** (grid.dimension - 1)
    first = idx // stride + steps
    if np.any((first < 0) | (first >= M)):
        raise ValueError(f"a scan row {steps} cells along axis 0 leaves the box")
    return idx + steps * stride


def _axis0_gradient(grid: Grid, read: Callable, targets: np.ndarray):
    """`grid.gradient_values(grid, ., axis=0)` at the grid rows `targets`, where
    `read(idx)` gives the values at the grid rows `idx`: the interior case of
    that stencil, with the same expression, so the values are the same bits.
    Only the targets' two neighbours along axis 0 are read."""
    plus = read(_shift_indices(grid, targets, 1))
    minus = read(_shift_indices(grid, targets, -1))
    return (plus - minus) / (2.0 * grid.spacing)


@dataclass(frozen=True)
class _Point:
    """What a majorant sees at one time (and shift) of a scan. `factors` is
    shared by every point of one time on one pair lattice (the scan passes
    its `_Tables.factors`), so each factor is computed once per time."""

    p: EstimateParams
    n: int
    t: float
    t_sc: float                     # t^(1/2a), sqrt(t) on the heat ladder
    rho_x: np.ndarray               # rho at the rows (a column on pair lattices)
    rho_y: np.ndarray | None = None
    r: np.ndarray | None = None     # |x - y| per pair
    shift: float = 0.0
    factors: dict = field(default_factory=dict, repr=False, compare=False)

    def factor(self, key, compute) -> np.ndarray:
        """compute(), once per `factors`; read-only, as other jobs read it too."""
        value = self.factors.get(key)
        if value is None:
            value = self.factors[key] = compute()
            value.flags.writeable = False
        return value

    def penalty(self, kind) -> np.ndarray:
        """kind(t_sc, rho_x, rho_y, N): `_sum_penalty` or `_prod_penalty`."""
        return self.factor((kind, self.p.N),
                           lambda: kind(self.t_sc, self.rho_x, self.rho_y, self.p.N))

    def decay(self, exponent: float) -> np.ndarray:
        """(t_sc + r)^exponent."""
        return self.factor(("decay", exponent), lambda: (self.t_sc + self.r) ** exponent)

    def gauss(self):
        """(the window r <= GAUSS_WINDOW sqrt(t), e^(-c r^2/t))."""
        return (self.factor("window", lambda: self.r <= GAUSS_WINDOW * np.sqrt(self.t)),
                self.factor("gauss", lambda: np.exp(-GAUSS_DECAY * self.r * self.r / self.t)))


@dataclass(frozen=True)
class _Entry:
    """One estimate of the registry, the only place its facts are stated."""

    lattice: Callable               # _pairs, _shifted_pairs or _mass_rows: one time's step
    majorant: Callable              # _Point -> majorant, shaped like the object
    heat: bool = False              # alpha = 1 object on the heat ladder
    power: int | None = 0           # the order b; None reads EstimateParams.beta
    gradient: bool = False          # x-gradient of the object
    scaled: bool = False            # object multiplied by t_sc
    shift_rule: Callable | None = None   # _Point -> allowed: a bool, or one per pair
    delta: Callable = lambda p, n, q, d0: d0   # (params, n, q, delta_0) -> delta'
    alpha: float | None = None      # the id's own alpha in `verify`; None takes the config's


def _pairs(entry, p, backend, at, acc):
    rho = backend.rho
    obj = at.pairs(entry.gradient)
    if entry.scaled:
        obj = at.t_sc * obj
    point = _Point(p, backend.grid.dimension, at.t, at.t_sc, rho[:, None], rho[None, :],
                   backend.r, factors=at.factors)
    acc.update(obj, entry.majorant(point), backend.xs, backend.xs, at.t)


def _shifted_pairs(entry, p, backend, at, acc):
    """A scalar shift rule drops a whole shift; a per-pair rule masks pairs."""
    rho = backend.rho
    for k, (_, shift) in enumerate(backend.shifts):
        point = _Point(p, backend.grid.dimension, at.t, at.t_sc, rho[:, None], rho[None, :],
                       backend.r, shift, at.factors)
        allowed = entry.shift_rule(point)
        if np.ndim(allowed) == 0 and not allowed:
            continue
        maj = np.where(allowed, entry.majorant(point), np.inf)
        acc.update(at.increments(entry.gradient)[k], maj, backend.xs, backend.xs, at.t)


def _mass_rows(entry, p, backend, at, acc):
    """With `gradient`, the x-gradient of the row integrals (E8's semigroup of one),
    from the sums of the lattice's neighbour rows only."""
    idx = backend.lattice
    if entry.gradient:
        obj = _axis0_gradient(backend.grid, at.row_masses, idx)
    else:
        obj = at.row_masses(idx)
    if entry.scaled:
        obj = at.t_sc * obj
    point = _Point(p, backend.grid.dimension, at.t, at.t_sc, backend.rho)
    acc.update(obj, entry.majorant(point), backend.xs, backend.xs, at.t)


def _holder_lead(s: _Point):
    return (s.shift / s.t_sc) ** s.p.delta_prime


def _power_majorant(s: _Point, b, lead=1.0, penalty=_sum_penalty):
    """lead * t^b (t_sc + r)^-(n + 2ab) * penalty: the size of t^b d_t^b K_{a,t}."""
    return lead * s.t ** b * s.decay(-(s.n + 2.0 * s.p.alpha * b)) * s.penalty(penalty)


def _gauss_majorant(s: _Point, prefactor):
    """prefactor e^(-c r^2/t) * penalty inside the parabolic window."""
    inside, gauss = s.gauss()
    maj = prefactor * gauss * s.penalty(_sum_penalty)
    return np.where(inside, maj, np.inf)   # outside the window: trivially satisfied


def _gradient_majorant(s: _Point, far_lead, near_lead, near_r):
    """Gaussian gradient bound: far_lead t^(-(n+1)/2) for r >= sqrt(t),
    near_lead / (near_r t^(n/2)) below."""
    far = _gauss_majorant(s, far_lead * s.t ** (-(s.n + 1) / 2.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        near = _gauss_majorant(s, near_lead / (near_r * s.t ** (s.n / 2.0)))
    return np.where(s.t_sc <= s.r, far, near)


def _mass_majorant(s: _Point):
    ratio = s.t_sc / s.rho_x
    return ratio ** s.p.delta_prime * (1.0 + ratio) ** (-s.p.N)


def _e8_majorant(s: _Point):
    ratio = s.t_sc / s.rho_x
    return np.minimum(ratio ** (1.0 + 2.0 * s.p.alpha), ratio ** (-s.p.N))


#: estimate id -> entry. Two pairs of default rows agree by construction: E3
#: and E9 at beta=1 scan one object against one majorant, and E7 carries no
#: rho penalty, so its N=0 and N=1 rows are the same.
_REGISTRY = {
    "E1": _Entry(_pairs, lambda s: _power_majorant(s, 1)),
    "E2": _Entry(_shifted_pairs, lambda s: _power_majorant(s, 1, _holder_lead(s)),
                 shift_rule=lambda s: s.shift <= s.t ** (1.0 / s.p.alpha),
                 delta=lambda p, n, q, d0: 0.9 * d0),
    "E3": _Entry(_pairs, lambda s: _power_majorant(s, 1), power=1,
                 delta=lambda p, n, q, d0: min(2.0 * p.alpha, d0)),
    "E4": _Entry(_pairs, lambda s: _gradient_majorant(s, 1.0, 1.0, s.r),
                 heat=True, gradient=True),
    "E5": _Entry(_pairs,
                 lambda s: s.t ** (-(s.n + 1) / 2.0) * s.penalty(_sum_penalty),
                 heat=True, gradient=True),
    "E6": _Entry(_pairs, lambda s: _power_majorant(s, 1, penalty=_prod_penalty),
                 gradient=True, scaled=True),
    "E7": _Entry(_shifted_pairs,
                 lambda s: _holder_lead(s) / s.t_sc * s.t * s.decay(-(s.n + 2.0 * s.p.alpha)),
                 gradient=True, shift_rule=lambda s: s.shift < s.r / 4.0,
                 delta=lambda p, n, q, d0: 1.0 - n / q),
    "E8": _Entry(_mass_rows, _e8_majorant, gradient=True, scaled=True, alpha=0.3),
    "E9": _Entry(_pairs, lambda s: _power_majorant(s, s.p.beta), power=None),
    "E10": _Entry(_shifted_pairs, lambda s: _power_majorant(s, s.p.beta, _holder_lead(s)),
                  power=None, shift_rule=lambda s: s.shift <= s.t_sc,
                  delta=lambda p, n, q, d0: min(2.0 * p.alpha, d0)),
    # the signed mass of t^b d_t^b e^{-tL^a} behaves like (t_sc/rho)^(2ab) for small t
    "E11": _Entry(_mass_rows, _mass_majorant, power=None,
                  delta=lambda p, n, q, d0: min(2.0 * p.alpha, 2.0 * p.alpha * p.beta, d0)),
    # the Feynman-Kac normalization (4 pi t)^(-n/2) makes the potential-free
    # closed form the exact equality case
    "E12": _Entry(_pairs,
                  lambda s: _gauss_majorant(s, (4.0 * np.pi) ** (-s.n / 2.0)
                                            * s.t ** (-s.n / 2.0)),
                  heat=True),
}


def verify_jobs(alpha: float, beta: float, n_list, q: float | None,
                delta_prime: float | None) -> list:
    """`verify`'s (id, params) jobs: each id at each N of `n_list`, at its row's alpha if set."""
    return [(eid, EstimateParams(alpha if entry.alpha is None else entry.alpha, beta, N,
                                 q, delta_prime))
            for eid, entry in _REGISTRY.items() for N in n_list]


def scan_estimate(jobs: list, backend: VerifierBackend) -> list:
    """Sup of |object| / majorant over each (id, params) job's lattice; one grid.

    Returns one outcome per job: (accumulator, resolved params), or the
    ValueError that job raised, which stops that job only. The jobs are
    grouped by table family (heat ladder or not, alpha, order b), and each
    family walks its time ladder once, in ascending t: each time's tables are
    computed once, read by every job of the family and dropped, so at most one
    kernel table and one gradient table are alive. Every table is the
    backend's row block x lattice, and the mass rows are read from the mode
    sums.
    """
    outcomes, families = [], {}
    for eid, params in jobs:
        p = params.resolved(eid, backend.grid.dimension)
        entry = _REGISTRY[eid]
        # a mass row has no pair distance: its majorant reads only t and rho,
        # and it degenerates at the V = 0 sentinel rho = +inf
        if entry.lattice is _mass_rows and backend.zero_potential:
            outcomes.append(EstimateNotApplicable(
                f"{eid}: majorant degenerates (rho undefined) for the zero potential"))
        else:
            family = (entry.heat, 1.0 if entry.heat else p.alpha,
                      p.beta if entry.power is None else entry.power)
            families.setdefault(family, []).append((len(outcomes), entry))
            outcomes.append((_ScanAccumulator(), p))
    for (heat, alpha, power), entries in families.items():
        for t in time_grid(backend.grid, alpha, heat_scaling=heat):
            at = _Tables(backend, t, np.sqrt(t) if heat else _scaling_time(t, alpha),
                         alpha, power)
            for k, entry in entries:
                if isinstance(outcomes[k], tuple):
                    try:
                        entry.lattice(entry, outcomes[k][1], backend, at, outcomes[k][0])
                    except ValueError as exc:
                        outcomes[k] = exc
    for k, (eid, _) in enumerate(jobs):
        acc = outcomes[k][0] if isinstance(outcomes[k], tuple) else _ScanAccumulator()
        if acc.total and acc.excluded > 0.01 * acc.total:
            outcomes[k] = ValueError(
                f"{eid}: {acc.excluded}/{acc.total} lattice points had a zero majorant")
    return outcomes


def certify(scans: list) -> BoundCertificate:
    """Certificate of one job from its `scan_estimate` outcomes per grid, coarse
    first: the last scan, with its stability against the one before. The first
    outcome that is a ValueError is raised."""
    for outcome in scans:
        if isinstance(outcome, ValueError):
            raise outcome
    fine, resolved = scans[-1]
    if len(scans) >= 2 and fine.c_meas > 0:
        ratio = scans[-2][0].c_meas / fine.c_meas
    else:
        ratio = np.nan
    # a scan that visited no lattice point measured nothing, and a ratio that
    # overflowed is a supremum the scan could not measure
    passed = bool(fine.total > 0 and fine.nonfinite == 0 and np.isfinite(fine.c_meas)
                  and fine.c_meas <= CEILING
                  and (np.isnan(ratio) or 0.8 <= ratio <= 1.25))
    return BoundCertificate(resolved, fine.c_meas, fine.argmax, float(ratio), passed)


def decay_exponent_fit(estimate_id: str, params: EstimateParams | None, axis: str,
                       backend: VerifierBackend, points: int = 9) -> dict:
    """Log-log slope of the measured kernel along one majorant axis."""
    if params is None:
        alpha = _REGISTRY[estimate_id].alpha
        params = EstimateParams() if alpha is None else EstimateParams(alpha=alpha)
    params = params.resolved(estimate_id, backend.grid.dimension)
    if points < 6:
        raise ValueError("need at least 6 sample points for a decay fit")
    n = backend.grid.dimension
    i0 = int(np.argmin(np.linalg.norm(backend.grid.points, axis=1)))
    if axis == "spatial":
        alpha = params.alpha
        L = backend.grid.half_width
        if estimate_id == "E1":
            lo_mult, hi_mult, expo = 4.0, 32.0, n + 2.0 * alpha
        elif estimate_id == "E9":
            lo_mult, hi_mult, expo = 8.0, 64.0, n + 2.0 * alpha * params.beta
        else:
            raise ValueError("spatial fit supported for E1 and E9")
        t = (0.5 * L / hi_mult) ** (2.0 * alpha)
        t_sc = _scaling_time(t, alpha)
        rs = np.geomspace(lo_mult * t_sc, hi_mult * t_sc, points)
        if backend.zero_potential and abs(alpha - 0.5) < 1e-14:
            vals = closedform.poisson_value(rs, t, n)
            if estimate_id == "E9":
                # t d_t of the Poisson kernel c_n t (t^2 + r^2)^(-(n+1)/2) at beta = 1
                vals = np.abs(vals * (1.0 - (n + 1.0) * t * t / (t * t + rs * rs)))
        else:
            row = backend.kernel(t, alpha, 0 if estimate_id == "E1" else params.beta,
                                 kernel_block(backend.dec, [i0])).table[0]
            dist = backend.grid.distances_from(backend.grid.points[i0])
            vals = np.array([np.abs(row[int(np.argmin(np.abs(dist - r)))]) for r in rs])
        slope, r2 = _loglog_fit(rs, vals)
        return {"axis": "spatial", "slope": slope, "expected": -expo, "r2": r2}
    if axis == "temporal":
        alpha, beta = params.alpha, params.beta
        lam = backend.dec.eigenvalues
        ts = np.geomspace(1e-7, 1e-5, points) / max(lam[-1] ** alpha, 1.0)
        mult = semigroup_multiplier(ts, alpha, beta)(lam)
        slope, r2 = _loglog_fit(ts, np.sum(mult * backend.dec.basis[i0] ** 2, axis=1))
        return {"axis": "temporal", "slope": slope, "expected": beta, "r2": r2}
    if axis == "rho":
        rho, idx = backend.rho, backend.lattice
        if backend.zero_potential or np.ptp(rho) < 1e-9 * np.max(rho):
            return {"axis": "rho", "skipped": "axis constant"}
        # at t = 1 the E1 size majorant t (t_sc + r)^-(n+2a) is 1 on the diagonal
        table = backend.kernel(1.0, params.alpha, 0).table
        diag = np.abs(table[backend.block.at(idx, table), np.arange(idx.size)])
        slope, r2 = _loglog_fit(1.0 + 2.0 / rho, diag)
        return {"axis": "rho", "slope": slope, "r2": r2}
    raise ValueError(f"unknown axis {axis!r}")


def _loglog_fit(x, y):
    mask = (np.asarray(y) > 0) & np.isfinite(y)
    lx, ly = np.log(np.asarray(x)[mask]), np.log(np.asarray(y)[mask])
    if lx.size < 2:
        return np.nan, 0.0
    A = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    fit = matmul(A, coef)
    ss_res = float(np.sum((ly - fit) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coef[0]), r2
