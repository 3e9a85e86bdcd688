"""Command-line driver: sectioned key=value configs, experiment orchestration, CSV output.

Commands
--------
kernels   write heat_t*.csv / frac_t*.csv kernel tables, each in a forked writer
verify    run the estimate registry, write certificates.csv
spaces    norm table (Campanato, Lipschitz, g, area) for the standard suite
equiv     the five-functional equivalence table
selftest  the full invariant battery, one pass/fail line per check

Exit codes: 0 all pass, 1 numerical failure, 2 config error. Given the same
config and seed the CSV outputs are byte-identical.
"""

import argparse
import configparser
import os
import sys
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import potentials
from .estimates import (DEFAULT_PARAMS, ESTIMATE_IDS, EstimateNotApplicable,
                        EstimateParams, build_backend, certify, holder_delta0,
                        scan_estimate)
from .grid import build_grid, grid_function
from .potentials import PotentialSpec
from .spaces import (area_function, ball_family, bmo_norm, default_time_grid,
                     equivalence_experiment, equivalence_rho_indices, g_constant,
                     g_function, lipschitz_norm, make_equivalence_suite,
                     reproducing_check)
from .spectral import (SIZE_CAPS, assemble, compose, eigendecompose,
                       fractional_heat_kernel, heat_kernel)
from .subordinator import (density_selftest, laplace_transform, subordinate_kernel)

COMMANDS = ("kernels", "verify", "spaces", "equiv", "selftest")

_GRID_KEYS = {"n", "l", "m", "bc"}
_POTENTIAL_KEYS = {"kind", "c", "sigma", "height", "width", "center", "q", "scale"}
_FRACTIONAL_KEYS = {"alpha", "beta", "gamma", "n_list", "delta"}
_RUN_KEYS = {"command", "out", "seed", "times"}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    n: int = 1
    half_width: float = 16.0
    points_per_axis: int = 256
    bc: str = "dirichlet"
    potential: PotentialSpec = field(default_factory=lambda: potentials.constant(1.0))
    potential_label: str = "constant c=1"
    q: float | None = None
    alpha: float = 0.5
    beta: float = 1.0
    gamma: float = 0.25
    n_list: tuple = (0.0, 1.0)
    delta_prime: float | None = None
    command: str = "selftest"
    out: str = "out"
    seed: int = 0
    times: tuple = (0.25, 1.0, 4.0)

    def describe(self) -> str:
        return (f"n={self.n} L={self.half_width} M={self.points_per_axis} bc={self.bc} "
                f"V={self.potential_label} alpha={self.alpha} beta={self.beta} "
                f"gamma={self.gamma} N={list(self.n_list)} command={self.command} "
                f"seed={self.seed}")


def _parse_number(raw: str, key: str, kind=float):
    """`kind(raw)`, which must be finite; anything else is a config error."""
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"{key}: cannot read {raw!r} as {kind.__name__}") from None
    if kind is float and not np.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {raw!r}")
    return value


def _number(section, key: str, default, kind=float):
    raw = section.get(key)
    return default if raw is None else _parse_number(raw, key, kind)


def _numbers(section, key: str, default: str) -> tuple:
    """Comma-separated finite floats."""
    return tuple(_parse_number(v, key) for v in section.get(key, default).split(","))


def _build_potential(section) -> tuple[PotentialSpec, str]:
    kind = section.get("kind", "constant")
    scale = _number(section, "scale", 1.0)
    if kind == "zero":
        return potentials.zero(), "zero"
    if kind == "constant":
        c = _number(section, "c", 1.0)
        spec = potentials.constant(c)
        label = f"constant c={c:g}"
    elif kind == "power":
        sigma = _number(section, "sigma", 2.0)
        spec = potentials.power(sigma)
        label = f"power sigma={sigma:g}"
    elif kind == "well":
        height = _number(section, "height", 1.0)
        width = _number(section, "width", 1.0)
        center = _number(section, "center", 0.0)
        spec = potentials.well(height, width, center)
        label = f"well v={height:g} w={width:g}"
    else:
        raise ConfigError(f"potential kind {kind!r} not in catalog")
    if scale != 1.0:
        spec = potentials.scaled(spec, scale)
        label += f" x{scale:g}"
    return spec, label


def parse_config(text: str) -> RunConfig:
    return _check_command(_read_config(text))


def _check_command(cfg: RunConfig) -> RunConfig:
    """The checks of the values the command line may replace: the command and the seed."""
    bound = min(2.0 * cfg.alpha, 2.0 * cfg.alpha * cfg.beta)
    if cfg.command == "equiv" and not cfg.gamma < bound:
        raise ConfigError(
            f"equiv needs gamma < min(2 alpha, 2 alpha beta) = {bound:g}, "
            f"got gamma={cfg.gamma}")
    if cfg.command == "verify":
        try:
            build_grid(cfg.n, cfg.half_width, cfg.points_per_axis // 2, cfg.bc)
        except ValueError as exc:
            raise ConfigError(f"verify refines from the coarse grid M/2: {exc}") from exc
    if cfg.seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {cfg.seed}")
    return cfg


def _read_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from exc
    if "grid" not in parser:
        raise ConfigError("missing [grid] section")
    for section, allowed in (("grid", _GRID_KEYS), ("potential", _POTENTIAL_KEYS),
                             ("fractional", _FRACTIONAL_KEYS), ("run", _RUN_KEYS)):
        if section in parser:
            unknown = set(parser[section]) - allowed
            if unknown:
                raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")
    extra = set(parser.sections()) - {"grid", "potential", "fractional", "run"}
    if extra:
        raise ConfigError(f"unknown sections: {sorted(extra)}")

    g = parser["grid"]
    n = _number(g, "n", 1, int)
    L = _number(g, "l", 16.0)
    M = _number(g, "m", 256, int)
    bc = g.get("bc", "dirichlet")

    pot_section = parser["potential"] if "potential" in parser else {}
    try:
        pot, label = _build_potential(pot_section)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    q = _number(pot_section, "q", None)

    f = parser["fractional"] if "fractional" in parser else {}
    alpha = _number(f, "alpha", 0.5)
    beta = _number(f, "beta", 1.0)
    gamma = _number(f, "gamma", 0.25)
    delta = _number(f, "delta", None)
    n_list = _numbers(f, "n_list", "0,1")

    r = parser["run"] if "run" in parser else {}
    command = r.get("command", "selftest")
    out = r.get("out", "out")
    seed = _number(r, "seed", 0, int)
    times = _numbers(r, "times", "0.25,1,4")

    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0,1), got {alpha}")
    if not beta > 0.0:
        raise ConfigError(f"beta must be positive, got {beta}")
    if not all(t > 0.0 for t in times):
        raise ConfigError(f"times must be positive, got {list(times)}")
    names = [f"{t:g}" for t in times]
    if len(set(names)) < len(names):
        raise ConfigError(f"times must name distinct kernel files (heat_t<t:g>.csv), "
                          f"got t:g = {names}")
    if not 0.0 < gamma <= 1.0:
        raise ConfigError(f"gamma must lie in (0,1], got {gamma}")
    try:
        build_grid(n, L, M, bc)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if M > SIZE_CAPS[n]:
        raise ConfigError(f"M = {M} exceeds the dense-solver cap {SIZE_CAPS[n]} for n = {n}")
    if q is not None and not q > n / 2.0:
        raise ConfigError(f"the reverse-Holder exponent q must exceed n/2 = {n / 2.0:g}, "
                          f"got q={q}")
    if delta is not None and not 0.0 < delta <= holder_delta0(n, q):
        raise ConfigError(f"delta must lie in (0, delta_0 = {holder_delta0(n, q):g}], got {delta}")
    if not all(N >= 0.0 for N in n_list):
        raise ConfigError(f"n_list entries N must be nonnegative, got {list(n_list)}")
    return RunConfig(n, L, M, bc, pot, label, q, alpha, beta, gamma, n_list, delta,
                     command, out, seed, times)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(path: Path, config: RunConfig, header: list[str], chunks) -> None:
    """Write the config comment, the header and `chunks`, lazily formatted CSV
    bytes."""
    with open(path, "wb") as fh:
        fh.write(f"# config: {config.describe()}\n{','.join(header)}\n".encode())
        for chunk in chunks:
            fh.write(chunk)


def _csv_lines(rows):
    for row in rows:
        yield (",".join(_fmt(v) for v in row) + "\n").encode()


def _fork_writer(path: Path, config: RunConfig, table: np.ndarray) -> int:
    """Write one kernel table in a forked child; return the child's pid.

    The child runs no BLAS and never returns: it exits 0 once the file is
    closed, or prints its traceback and exits 1. `fmt17` is imported here, in
    the parent, so every child inherits its powers-of-ten table; `import
    subheat` does not load it.
    """
    from . import fmt17
    pid = os.fork()
    if pid:
        return pid
    code = 1
    try:
        _write_csv(path, config, ["x_index", "y_index", "value"], fmt17.table_chunks(table))
        code = 0
    except BaseException:
        traceback.print_exc()
        sys.stderr.flush()
    finally:
        os._exit(code)


def _reap_all(writers: dict) -> None:
    """Wait for every writer in `writers` (pid -> path), oldest first; raise,
    naming its file, at the first that failed."""
    while writers:
        pid = next(iter(writers))
        _, status = os.waitpid(pid, 0)
        path = writers.pop(pid)
        if os.waitstatus_to_exitcode(status) != 0:
            raise RuntimeError(f"the writer of {path} failed (wait status {status})")


def _cmd_kernels(cfg: RunConfig, out: Path) -> dict:
    """The tables are computed in batches of one per CPU, each batch while no
    writer is alive, and each table is then formatted in a forked writer.

    So the sandwiches' BLAS threads never compete with the writers for the
    cores. The parent holds at most one batch, and only while no writer is
    alive; every writer is reaped, also when this raises part way.
    """
    grid = build_grid(cfg.n, cfg.half_width, cfg.points_per_axis, cfg.bc)
    dec = eigendecompose(assemble(grid, cfg.potential))
    slots = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count())           # macOS has no affinity mask
    jobs = [(out / f"{tag}_t{t:g}.csv", tag, t) for t in cfg.times for tag in ("heat", "frac")]
    writers = {}
    try:
        for start in range(0, len(jobs), slots):
            _reap_all(writers)
            batch = {path: (heat_kernel(dec, t) if tag == "heat"
                            else fractional_heat_kernel(dec, cfg.alpha, t)).table
                     for path, tag, t in jobs[start:start + slots]}
            for path in batch:
                writers[_fork_writer(path, cfg, batch[path])] = path
            del batch
        _reap_all(writers)
    finally:
        for pid in writers:
            os.waitpid(pid, 0)
    return {"pass": True, "outputs": [str(path) for path, _, _ in jobs]}


def _cmd_verify(cfg: RunConfig, out: Path) -> dict:
    backends = [build_backend(cfg.n, cfg.half_width, M, cfg.bc, cfg.potential)
                for M in (cfg.points_per_axis // 2, cfg.points_per_axis)]
    jobs = []
    for eid in ESTIMATE_IDS:
        alpha = DEFAULT_PARAMS[eid].alpha if eid == "E8" else cfg.alpha
        jobs += [(eid, EstimateParams(alpha=alpha, beta=cfg.beta, N=N, q=cfg.q,
                                      delta_prime=cfg.delta_prime))
                 for N in cfg.n_list]
    scans = [scan_estimate(jobs, backend) for backend in backends]
    rows, all_pass = [], True
    for (eid, params), *outcomes in zip(jobs, *scans):
        head = (eid, params.alpha, params.beta, params.N)
        try:
            cert = certify(eid, outcomes)
        except ValueError as exc:
            # only an estimate that needs V != 0 may skip; any other error fails
            expected = isinstance(exc, EstimateNotApplicable)
            rows.append(head + ("",) * 6 + (f"{'skipped' if expected else 'failed'}: {exc}",))
            all_pass &= expected
            continue
        rows.append(head + (cert.params.delta_prime, cert.c_meas, *cert.argmax,
                            cert.refine_ratio, cert.passed))
        all_pass &= cert.passed
    path = out / "certificates.csv"
    _write_csv(path, cfg, ["id", "alpha", "beta", "N", "delta", "C_meas", "argmax_x",
                           "argmax_y", "argmax_t", "refine_ratio", "pass"],
               _csv_lines(rows))
    return {"pass": all_pass, "outputs": [str(path)]}


def _space_context(cfg: RunConfig, rho_indices=None):
    """Grid, eigenbasis and rho; rho only at `rho_indices(grid)` when given."""
    grid = build_grid(cfg.n, cfg.half_width, cfg.points_per_axis, cfg.bc)
    dec = eigendecompose(assemble(grid, cfg.potential))
    indices = None if rho_indices is None else rho_indices(grid)
    aux = potentials.compute_aux_function(cfg.potential, grid, indices=indices)
    return grid, dec, aux.rho


def _cmd_spaces(cfg: RunConfig, out: Path) -> dict:
    grid, dec, rho = _space_context(cfg)
    suite = make_equivalence_suite(dec, rho, cfg.gamma, seed=cfg.seed)
    times = default_time_grid(dec, cfg.alpha, cfg.beta)
    balls = ball_family(grid, rho)
    areas = area_function(dec, cfg.alpha, cfg.beta, suite, times)
    lipschitz = lipschitz_norm(suite, cfg.gamma, rho)
    bmo = bmo_norm(suite, cfg.gamma, rho, balls)
    rows = []
    for i, (f, area, nl, nb) in enumerate(zip(suite, areas, lipschitz, bmo)):
        ng = g_function(dec, cfg.alpha, cfg.beta, f, times).l2_norm()
        rows.append((i, nb, nl, ng, area.l2_norm(), f.l2_norm()))
    path = out / "space_norms.csv"
    _write_csv(path, cfg, ["member", "bmo", "lipschitz", "g_l2", "area_l2", "l2"],
               _csv_lines(rows))
    return {"pass": True, "outputs": [str(path)]}


def _cmd_equiv(cfg: RunConfig, out: Path) -> dict:
    grid, dec, rho = _space_context(cfg, equivalence_rho_indices)
    suite = make_equivalence_suite(dec, rho, cfg.gamma, seed=cfg.seed)
    times = default_time_grid(dec, cfg.alpha, cfg.beta)
    report = equivalence_experiment(suite, dec, cfg.alpha, cfg.beta, cfg.gamma, rho, times)
    rows = [(i, *(row.get(k, "") for k in ("N1", "N2", "N3", "N4", "N5")))
            for i, row in enumerate(report["rows"])]
    path = out / "equivalence.csv"
    _write_csv(path, cfg, ["member", "N1_bmo", "N2_sup", "N3_carleson", "N4_gradient",
                           "N5_nu_carleson"], _csv_lines(rows))
    summary = out / "equivalence_summary.csv"
    _write_csv(summary, cfg, ["ratio_min", "ratio_max", "c_star"],
               _csv_lines([(report["ratio_min"], report["ratio_max"], report["c_star"])]))
    ok = report["c_star"] <= 100.0
    return {"pass": ok, "outputs": [str(path), str(summary)],
            "c_star": report["c_star"]}


def _cmd_selftest(cfg: RunConfig, out: Path) -> dict:
    checks = []

    def check(name, value):
        checks.append((name, bool(value)))

    grid = build_grid(cfg.n, cfg.half_width, cfg.points_per_axis, cfg.bc)
    dec = eigendecompose(assemble(grid, cfg.potential))

    heat = heat_kernel(dec, 1.0)
    check("heat kernel positivity", heat.table.min() >= -1e-10)
    check("heat kernel symmetry",
          np.max(np.abs(heat.table - heat.table.T)) <= 1e-8)
    comp = compose(heat_kernel(dec, 0.5), heat_kernel(dec, 0.5))
    check("chapman-kolmogorov",
          np.max(np.abs(comp.table - heat.table)) <= 1e-6)
    check("mass bound", heat.row_masses().max() <= 1.0 + 1e-8)

    rep = density_selftest(cfg.alpha)
    check("subordinator normalization", rep["normalization_defect"] <= 1e-8)
    check("subordinator laplace",
          abs(laplace_transform(cfg.alpha, 1.0) - np.exp(-1.0)) <= 1e-6)

    sub = subordinate_kernel(dec, cfg.alpha, 1.0)
    spec = fractional_heat_kernel(dec, cfg.alpha, 1.0)
    check("two-route fractional kernel",
          np.max(np.abs(sub.table - spec.table)) <= 1e-5 * spec.max_abs())

    rng = np.random.default_rng(cfg.seed)
    vals = rng.standard_normal(grid.size)
    if dec.has_zero_mode:
        vals -= vals.mean()
    f = grid_function(grid, vals)
    times = default_time_grid(dec, cfg.alpha, cfg.beta)
    check("reproducing formula",
          reproducing_check(dec, cfg.alpha, cfg.beta, f, times) <= 1e-4)
    gv = g_function(dec, cfg.alpha, cfg.beta, f, times)
    target = g_constant(cfg.beta)
    check("g-function isometry", abs(gv.l2_norm() / f.l2_norm() - target) <= 1e-6)

    all_pass = all(ok for _, ok in checks)
    lines = [f"{name}: {'PASS' if ok else 'FAIL'}" for name, ok in checks]
    path = out / "selftest.txt"
    path.write_text(f"# config: {cfg.describe()}\n" + "\n".join(lines) + "\n",
                    encoding="utf-8")
    for line in lines:
        print(line)
    return {"pass": all_pass, "outputs": [str(path)]}


_RUNNERS = {"kernels": _cmd_kernels, "verify": _cmd_verify, "spaces": _cmd_spaces,
            "equiv": _cmd_equiv, "selftest": _cmd_selftest}


def run(cfg: RunConfig) -> dict:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    report = _RUNNERS[cfg.command](cfg, out)
    report["command"] = cfg.command
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="subheat",
        description="fractional heat semigroup toolkit: kernels, certificates, norms")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the key=value config")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    args = parser.parse_args(argv)
    try:
        text = Path(args.config).read_text(encoding="utf-8")
        updates = {"command": args.command}
        if args.out is not None:
            updates["out"] = args.out
        if args.seed is not None:
            updates["seed"] = args.seed
        cfg = _check_command(replace(_read_config(text), **updates))
        Path(cfg.out).mkdir(parents=True, exist_ok=True)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run(cfg)
    except Exception as exc:  # structured diagnostic, nonzero exit
        print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
        return 1
    print(f"{args.command}: {'PASS' if report['pass'] else 'FAIL'}; "
          f"outputs: {', '.join(report['outputs'])}")
    return 0 if report["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
