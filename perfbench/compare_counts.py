"""Check that the computed counts of two traced runs repeat exactly.

    python3 perfbench/compare_counts.py A.json B.json

A and B are records that `run.py --trace 1` writes to `.perfbench_out/results/`,
from runs at the same seed: `cli.output_mb` also counts the printed digits of
the seed-dependent values.
Prints every computed count (`.calls`, `.gflop`, `.table_mb`, `.points`,
`.rows`, `.mb`, `cli.output_mb`, `estimates.certs_pass`) that differs, and
exits 1 if any does.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import PER_LAYER, is_exact  # noqa: E402


def differing(a: dict, b: dict) -> list[str]:
    return [f"{name}: {a['layers'][name]!r} != {b['layers'][name]!r}"
            for name in PER_LAYER
            if is_exact(name) and a["layers"][name] != b["layers"][name]]


def main(argv=None) -> int:
    paths = argv if argv is not None else sys.argv[1:]
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in paths)
    problems = differing(a, b)
    for line in problems:
        print(line)
    exact = sum(1 for name in PER_LAYER if is_exact(name))
    print(f"{exact} computed counts compared, {len(problems)} differ")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
