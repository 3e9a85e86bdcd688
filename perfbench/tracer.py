"""In-memory spans around subheat's layer functions, and the per-layer metrics.

Tracing patches functions from outside the package: every module global of
`subheat.*` that is bound to a traced function is rebound to a wrapper for
the duration of a traced iteration, and restored afterwards. That reaches
names imported by value (`eigendecompose` in `estimates` and `cli`) as well
as calls through a module's own global (`multiplier_kernel` inside the
kernel helpers of `spectral`, `fracderiv` and `subordinator`).
"""

import importlib
import inspect
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

MB = float(2 ** 20)
SUBNORMAL = 1e-300


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = float("nan")
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; `spans` is written out once the run ends."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(s)
        self._stack.append(s.id)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """`fn` inside a span; `count(result, bound_args)` adds computed counts."""
        signature = inspect.signature(fn) if count else None

        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count:
                s.counts.update(count(result, signature.bind(*args, **kwargs).arguments))
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


# --- what is traced ---------------------------------------------------------

def _multiplier_counts(result, args):
    dec = args["dec"]
    rows, cols = result.table.shape
    modes = dec.eigenvalues.size
    with np.errstate(all="ignore"):
        m = np.abs(np.asarray(args["multiplier"](dec.eigenvalues), dtype=float))
    return {"gflop": 2.0 * rows * cols * modes / 1e9,
            "table_mb": result.table.nbytes / MB,
            "subnormal_calls": int(np.any((m > 0.0) & (m < SUBNORMAL)))}


def _pair_counts(result, args):
    return {"mb": result.nbytes / MB}


def _csv_counts(result, args):
    with open(args["path"], "rb") as fh:
        lines = fh.read().count(b"\n")
    return {"rows": lines - 2}          # config comment and header


def _certify_counts(result, args):
    return {"passed": int(result.passed)}


#: (module, attribute, span name, count function). Methods are "Class.method".
TARGETS = (
    ("subheat.grid", "build_grid", "grid.build_grid", None),
    ("subheat.grid", "Grid.pair_distances", "grid.pair_distances", _pair_counts),
    ("subheat.potentials", "compute_aux_function", "potentials.compute_aux_function",
     None),
    ("subheat.potentials", "compute_rho", "potentials.compute_rho", None),
    ("subheat.spectral", "assemble", "spectral.assemble", None),
    ("subheat.spectral", "eigendecompose", "spectral.eigendecompose", None),
    ("subheat.spectral", "multiplier_kernel", "spectral.multiplier_kernel",
     _multiplier_counts),
    ("subheat.spectral", "compose", "spectral.compose", None),
    ("subheat.closedform", "gaussian_heat_table", "closedform.gaussian_heat_table", None),
    ("subheat.closedform", "poisson_table", "closedform.poisson_table", None),
    ("subheat.closedform", "oscillator_heat_table", "closedform.oscillator_heat_table",
     None),
    ("subheat.closedform", "fourier_table", "closedform.fourier_table", None),
    ("subheat.subordinator", "subordinate_kernel", "subordinator.subordinate_kernel",
     None),
    ("subheat.subordinator", "density_selftest", "subordinator.density_selftest", None),
    ("subheat.fracderiv", "d_operator", "fracderiv.d_operator", None),
    ("subheat.estimates", "build_backend", "estimates.build_backend", None),
    ("subheat.estimates", "certify", "estimates.certify", _certify_counts),
    ("subheat.estimates", "scan_estimate", "estimates.scan_estimate", None),
    ("subheat.spaces", "make_equivalence_suite", "spaces.make_equivalence_suite", None),
    ("subheat.spaces", "bmo_norm", "spaces.bmo_norm", None),
    ("subheat.spaces", "lipschitz_norm", "spaces.lipschitz_norm", None),
    ("subheat.spaces", "g_function", "spaces.g_function", None),
    ("subheat.spaces", "area_function", "spaces.area_function", None),
    ("subheat.spaces", "reproducing_check", "spaces.reproducing_check", None),
    ("subheat.spaces", "equivalence_experiment", "spaces.equivalence_experiment", None),
    ("subheat.cli", "_write_csv", "cli.write_csv", _csv_counts),
)


def rebind(original, replacement) -> list:
    """Point every `subheat.*` module global bound to `original` at `replacement`.

    Returns (module, name) pairs so the caller can restore them.
    """
    bound = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "subheat" or mod_name.startswith("subheat.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                bound.append((mod, attr))
    return bound


@contextmanager
def patched(tracer: Tracer, targets=TARGETS):
    """Trace `targets` at every binding their callers use, then restore them."""
    restore = []
    try:
        for mod_name, attr, name, count in targets:
            owner = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = vars(owner)[attr]
            wrapper = tracer.wrap(name, original, count)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                restore.append((owner, attr, original))
            else:
                restore.extend((mod, a, original) for mod, a in rebind(original, wrapper))
        yield tracer
    finally:
        for owner, attr, original in reversed(restore):
            setattr(owner, attr, original)


# --- per-layer metrics -------------------------------------------------------

#: name -> unit, in the order they are reported
PER_LAYER = {
    "spectral.assemble.s": "s",
    "spectral.eigendecompose.calls": "count",
    "spectral.eigendecompose.s": "s",
    "spectral.multiplier_kernel.calls": "count",
    "spectral.multiplier_kernel.s": "s",
    "spectral.multiplier_kernel.gflop": "GFLOP",
    "spectral.multiplier_kernel.table_mb": "MB",
    "spectral.multiplier_kernel.subnormal_calls": "count",
    "potentials.compute_aux_function.calls": "count",
    "potentials.compute_aux_function.s": "s",
    "potentials.compute_aux_function.points": "count",
    "estimates.scan_estimate.calls": "count",
    "estimates.scan_estimate.s": "s",
    "estimates.scan_estimate.self_s": "s",
    "estimates.certs_pass": "count",
    "fracderiv.d_operator.calls": "count",
    "fracderiv.d_operator.s": "s",
    "spaces.area_function.s": "s",
    "spaces.area_function.self_s": "s",
    "spaces.bmo_norm.s": "s",
    "spaces.lipschitz_norm.s": "s",
    "spaces.g_function.s": "s",
    "spaces.equivalence_experiment.s": "s",
    "grid.pair_distances.calls": "count",
    "grid.pair_distances.s": "s",
    "grid.pair_distances.mb": "MB",
    "subordinator.subordinate_kernel.s": "s",
    "subordinator.density_selftest.s": "s",
    "closedform.tables.calls": "count",
    "cli.write_csv.s": "s",
    "cli.write_csv.rows": "count",
    "cli.output_mb": "MB",
    "cli.run.selftest.s": "s",
    "cli.run.verify.s": "s",
    "cli.run.spaces.s": "s",
    "cli.run.equiv.s": "s",
    "cli.run.kernels.s": "s",
    "run.cpu_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}

#: computed counts that must repeat exactly between traced runs of the same code
#: at the same seed (`compare_counts.py`)
EXACT_SUFFIXES = (".calls", ".gflop", ".table_mb", ".points", ".rows", ".mb",
                  "cli.output_mb", "estimates.certs_pass")


def is_exact(name: str) -> bool:
    return name.endswith(EXACT_SUFFIXES)


def span_metrics(spans: list[Span], wall: float) -> dict:
    """Per-layer metrics of one traced iteration whose spans are `spans`.

    `wall` is the iteration's wall time; `trace.coverage` is the share of it
    spent inside a layer span below the command roots (`cli.parse_config`
    and `cli.run.<command>`).
    """
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    out: dict = {}
    for s in spans:
        for key, value in (("calls", 1), ("s", s.duration), ("self_s", selfs[s.id]),
                           *s.counts.items()):
            out[f"{s.name}.{key}"] = out.get(f"{s.name}.{key}", 0) + value

    def has_ancestor(s, name):
        while s.parent is not None:
            s = by_id[s.parent]
            if s.name == name:
                return True
        return False

    out["potentials.compute_aux_function.points"] = sum(
        1 for s in spans if s.name == "potentials.compute_rho"
        and has_ancestor(s, "potentials.compute_aux_function"))
    out["closedform.tables.calls"] = sum(1 for s in spans
                                         if s.name.startswith("closedform."))
    out["estimates.certs_pass"] = out.get("estimates.certify.passed", 0)
    roots = [s for s in spans if s.parent is None]
    root_self = sum(selfs[s.id] for s in roots)
    out["trace.coverage"] = (sum(s.duration for s in roots) - root_self) / wall
    return out


def combine(iterations: list[dict]) -> dict:
    """Median of each per-layer metric over traced iterations."""
    return {name: statistics.median(it.get(name, 0) for it in iterations)
            for name in PER_LAYER}
