"""Set-up time of one workload in a fresh interpreter; `run.py` starts it.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Times `import subheat` plus `parse_config` of each of the workload's configs
and prints the seconds as its last line. Only the standard library is
imported before the timer starts.
"""

import sys
import time
from pathlib import Path

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    name, seed = argv if argv is not None else sys.argv[1:]
    workload = WORKLOADS[name]
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import subheat
    for command in workload.commands:
        subheat.parse_config(workload.config(command, int(seed)))
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
