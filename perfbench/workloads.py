"""The benchmark's workloads: which commands run, on which config, and why.

Each workload is a closed loop with one client: one process runs the
workload's commands in order, and the next iteration starts only after the
previous one has finished and its outputs have been checked.
"""

from dataclasses import dataclass

DEFAULT_SEED = 0

TEMPLATE = """\
[grid]
n = {n}
L = 16
M = {M}
bc = dirichlet

[potential]
{potential}
[run]
command = {command}
out = out
seed = {seed}
"""

V_POWER_2 = "kind = power\nsigma = 2\n"      # V = |x|^2
V_ONE = "kind = constant\nc = 1\n"           # V = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    commands: tuple
    n: int
    M: int
    potential: str      # lines of the [potential] section; empty for the default

    def config(self, command: str, seed: int) -> str:
        """Config text passed to `subheat.cli.parse_config` for one command."""
        return TEMPLATE.format(n=self.n, M=self.M, potential=self.potential,
                               command=command, seed=seed)


WORKLOADS = {
    w.name: w for w in (
        Workload("certify-n2",
                 "verify at n=2 M=32 with V=|x|^2: eigh, per-point rho and the "
                 "multiplier sandwiches of the E1-E12 scans",
                 ("verify",), n=2, M=32, potential=V_POWER_2),
        Workload("spaces-n2",
                 "spaces and equiv at n=2 M=24 with V=1: area_function over "
                 "pair_distances; no multiplier_kernel, a single rho bisection",
                 ("spaces", "equiv"), n=2, M=24, potential=V_ONE),
        Workload("pipeline-n1",
                 "all five commands at n=1 M=512 with V=|x|^2: CSV writing "
                 "dominates; the n>=2 engine and pair_distances are bypassed",
                 ("selftest", "verify", "spaces", "equiv", "kernels"),
                 n=1, M=512, potential=V_POWER_2),
    )
}
