"""Collect the run records in `.perfbench_out/results/` into one history entry.

    python3 perfbench/record_history.py perfbench/history/<entry>.json

For each workload the entry keeps every untraced run (seed, end-to-end
metrics, attempted, failed), the median and quartiles over those runs of each
end-to-end metric, and every traced run's per-layer metrics, with the
provenance of the first run. A change that claims a gain compares its own
runs against the latest entry.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench_out" / "results"
sys.path.insert(0, str(HERE))

from harness import summary  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def entry() -> dict:
    records = [json.loads(p.read_text(encoding="utf-8"))
               for p in sorted(RESULTS.glob("*.json"))]
    out = {}
    for name in WORKLOADS:
        runs = sorted((r for r in records if r["workload"] == name and not r["trace"]),
                      key=lambda r: r["seed"])
        traced = sorted((r for r in records if r["workload"] == name and r["trace"]),
                        key=lambda r: r["seed"])
        if not runs:
            continue
        metrics = runs[0]["units"]
        out[name] = {
            "provenance": runs[0]["provenance"],
            "end_to_end": {m: {**summary([r["metrics"][m]["median"] for r in runs]),
                               "unit": metrics[m]} for m in metrics},
            "runs": [{"seed": r["seed"], "attempted": r["attempted"],
                      "failed": r["failed"],
                      "metrics": {m: r["metrics"][m] for m in metrics}} for r in runs],
            "traced": [{"seed": r["seed"], "attempted": r["attempted"],
                        "failed": r["failed"], "layers": r["layers"]}
                       for r in traced],
        }
    return out


def main(argv=None) -> int:
    args = argv if argv is not None else sys.argv[1:]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    Path(args[0]).write_text(json.dumps(entry(), indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
