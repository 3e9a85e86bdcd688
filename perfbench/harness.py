"""Timed workload iterations: run each command through the public entry points,
check its outputs against the reference, and collect per-layer spans.

One operation is one command run plus its output check. It fails when the
command raises or its outputs disagree with the reference.
"""

import os
import shutil
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import reference
import tracer
from workloads import DEFAULT_SEED, Workload


@dataclass
class Iteration:
    wall_s: float                    # first parse_config to last output written
    cpu_s: float
    total_s: float                   # wall_s plus the output check
    attempted: int
    failed: int
    errors: list = field(default_factory=list)
    layers: dict | None = None       # per-layer metrics when traced
    spans: list | None = None


def run_iteration(workload: Workload, seed: int, ref: dict, work_dir: Path,
                  trace: bool = False) -> Iteration:
    """One pass over the workload's commands, then the check of their outputs.

    Commands run with `work_dir` as the working directory and write to its
    `out` subdirectory, which is emptied first.
    """
    from subheat.cli import parse_config, run

    out_dir = work_dir / "out"
    if out_dir.exists():
        shutil.rmtree(out_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    tr = tracer.Tracer() if trace else None
    span = tr.span if trace else (lambda name: nullcontext())
    reports, errors = {}, []
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        with tracer.patched(tr) if trace else nullcontext():
            cpu0, t0 = time.process_time(), time.perf_counter()
            for command in workload.commands:
                try:
                    with span("cli.parse_config"):
                        cfg = parse_config(workload.config(command, seed))
                    with span(f"cli.run.{command}"):
                        reports[command] = run(cfg)
                except Exception:   # a failed operation; the loop goes on
                    errors.append(f"{command}: {traceback.format_exc(limit=-1).strip()}")
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    finally:
        os.chdir(cwd)
    failed = len(errors)
    for command, report in reports.items():
        problems = reference.compare_command(ref["commands"][command], report,
                                             out_dir, seed, DEFAULT_SEED)
        if problems:
            failed += 1
            errors.append(f"{command}: " + "; ".join(problems[:5]))
    it = Iteration(wall, cpu, time.perf_counter() - t0, len(workload.commands),
                   failed, errors)
    if trace:
        it.layers = tracer.span_metrics(tr.spans, wall)
        it.layers["cli.output_mb"] = sum(
            (work_dir / p).stat().st_size for r in reports.values()
            for p in r["outputs"] if (work_dir / p).is_file()) / tracer.MB
        it.layers["run.cpu_s"] = cpu
        it.layers["trace.wall_s"] = wall
        it.spans = tr.spans
    return it


def measure(workload: Workload, seed: int, seconds: float, work_dir: Path,
            trace: bool) -> list[Iteration]:
    """Warm up once, untimed, then iterate for about `seconds`.

    The warm-up is a full iteration of the workload itself, output check
    included, so that lazy imports, quadrature caches, BLAS threads and the
    first touch of its largest arrays are paid before timing starts, and the
    first timed iteration follows an output check as every later one does.
    Its result is discarded. A new iteration starts only
    while the elapsed time plus the median iteration so far stays within the
    budget, and at least two are timed, so that the median is never a single
    iteration. Traced runs order untraced (A) and traced (B) iterations as
    ABBA ABBA ... at even seeds and BAAB BAAB ... at odd ones, so that
    neither side always runs first, even in a run of two iterations.
    """
    ref = reference.load(workload.name)
    run_iteration(workload, seed, ref, work_dir)
    done: list[Iteration] = []
    start = time.perf_counter()
    while True:
        traced = trace and (len(done) + 2 * (seed % 2)) % 4 in (1, 2)
        done.append(run_iteration(workload, seed, ref, work_dir, trace=traced))
        elapsed = time.perf_counter() - start
        typical = statistics.median(it.total_s for it in done)
        if len(done) >= 2 and elapsed + typical > seconds:
            return done


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}
