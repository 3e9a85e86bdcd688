"""subheat benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload certify-n2 --seed 0 --seconds 30 --trace 0

With --trace 0 it measures the end-to-end metrics with tracing off:
`wall_s` (median warm iteration, from the first `parse_config` to the last
output written), `peak_rss_mb` (ru_maxrss of the measuring process) and
`setup_s` (median over fresh interpreters of `import subheat` plus
`parse_config`). With --trace 1 it interleaves untraced and traced
iterations (ABBA, or BAAB at odd seeds) and reports the per-layer metrics, the share of traced wall time
the layer spans cover, and the tracing overhead (traced minus untraced
`wall_s`).

Every operation (one command plus the check of its outputs against
`perfbench/reference/`) counts toward `attempted`; those that raise or
disagree count as `failed`, and error_rate = failed / attempted. The last line
of standard output is the JSON result; the lines before it repeat each
metric with its unit, quartiles and sample count, and the provenance. The
full record is written to `.perfbench_out/results/`.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
RESULTS = WORK / "results"
SETUP_PROBES = 5

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def setup_seconds(workload: str, seed: int) -> float:
    """`setup_probe.py` in a fresh interpreter; its last line is the time."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload,
                           str(seed)], capture_output=True, text=True, timeout=60,
                          check=False, cwd=ROOT)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe exited with {proc.returncode}")
    return float(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="subheat benchmark, one workload run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "subheat" / "__init__.py").is_file():
        print(f"error: no subheat source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import harness
    import tracer
    from provenance import provenance

    workload = WORKLOADS[args.workload]
    try:
        setups = [] if args.trace else [
            setup_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    work_dir = WORK / args.workload
    iters = harness.measure(workload, args.seed, args.seconds, work_dir,
                            bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(it.attempted for it in iters)
    failed = sum(it.failed for it in iters)
    errors = [e for it in iters for e in it.errors]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "attempted": attempted, "failed": failed,
              "error_rate": failed / attempted,
              "iterations": [{"wall_s": it.wall_s, "cpu_s": it.cpu_s,
                              "total_s": it.total_s, "attempted": it.attempted,
                              "failed": it.failed, "traced": it.layers is not None}
                             for it in iters],
              "errors": errors, "peak_rss_mb": peak_rss_mb,
              "provenance": provenance(workload, args.seed)}
    if args.trace:
        traced = [it for it in iters if it.layers is not None]
        layers = tracer.combine([it.layers for it in traced])
        layers["trace.untraced_wall_s"] = statistics.median(
            it.wall_s for it in iters if it.layers is None)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - layers["trace.untraced_wall_s"]
        record["layers"] = layers
        stats = {name: {"median": layers[name]} for name in tracer.PER_LAYER}
        units = tracer.PER_LAYER
        spans = [{"iteration": k, **vars(s)} for k, it in enumerate(traced)
                 for s in it.spans]
        (work_dir / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    else:
        stats = {"wall_s": harness.summary([it.wall_s for it in iters]),
                 "peak_rss_mb": harness.summary([peak_rss_mb]),
                 "setup_s": harness.summary(setups)}
        units = END_TO_END
    record.update(metrics=stats, units=units)
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print("provenance " + json.dumps(record["provenance"]))
    for err in errors:
        print(f"FAILED {err}")
    for name, st in stats.items():
        spread = f" q1={st['q1']:.6g} q3={st['q3']:.6g} n={st['n']}" if "n" in st else ""
        print(f"{args.workload} {name} = {st['median']:.6g} {units[name]}{spread}")
    print(f"{args.workload} error_rate = {failed / attempted:.6g} ratio "
          f"({failed} failed / {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": st["median"], "unit": units[name]}
                                  for name, st in stats.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
