"""Record the reference outputs in `perfbench/reference/`.

    python3 perfbench/record_reference.py [WORKLOAD ...]

Each workload runs three times: at the default seed (the reference), at the
next seed (rows that change are marked `seed_dependent_rows`), and at the
default seed with the eigenbasis rotated by a random orthogonal matrix
inside every degenerate eigenspace (cells that change are marked
`basis_dependent`). Record only at a commit whose outputs are known good.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import reference  # noqa: E402
import tracer  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

DEGENERATE_RTOL = 1e-8


def rotated(eigendecompose):
    """`eigendecompose` followed by a random rotation inside each cluster of
    eigenvalues that agree to a relative DEGENERATE_RTOL."""
    def rotate(op):
        dec = eigendecompose(op)
        lam, basis = dec.eigenvalues, dec.basis.copy()
        rng = np.random.default_rng(12345)
        gaps = np.diff(lam) > DEGENERATE_RTOL * np.maximum(1.0, np.abs(lam[1:]))
        bounds = np.concatenate(([0], np.nonzero(gaps)[0] + 1, [lam.size]))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi - lo > 1:
                q, _ = np.linalg.qr(rng.standard_normal((hi - lo, hi - lo)))
                basis[:, lo:hi] = basis[:, lo:hi] @ q
        return dataclasses.replace(dec, basis=basis)
    return rotate


def snapshot(workload, seed: int, work_dir: Path) -> dict:
    from subheat.cli import parse_config, run
    work_dir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(work_dir)
    try:
        return {c: reference.snapshot_command(run(parse_config(workload.config(c, seed))))
                for c in workload.commands}
    finally:
        os.chdir(cwd)


def record(workload) -> dict:
    import subheat.spectral as spectral
    work = ROOT / ".perfbench_out" / "record" / workload.name
    base = snapshot(workload, DEFAULT_SEED, work)
    other = snapshot(workload, DEFAULT_SEED + 1, work)
    original = spectral.eigendecompose
    bindings = tracer.rebind(original, rotated(original))
    try:
        turned = snapshot(workload, DEFAULT_SEED, work)
    finally:
        for mod, attr in bindings:
            setattr(mod, attr, original)

    for command, cmd in base.items():
        for name, ref in cmd["files"].items():
            if "rows" in ref:
                cells = reference.differing_cells(other[command]["files"][name], ref)
                ref["seed_dependent_rows"] = sorted({i for i, _ in cells})
            diff = reference.differing_cells(turned[command]["files"][name], ref)
            if diff:
                ref["basis_dependent"] = diff
            if name == "space_norms.csv" and ref["seed_dependent_rows"]:
                ref["seeded_l2_draws"] = _draws(ref)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                            text=True, check=False).stdout.strip()
    return {"workload": workload.name, "commit": commit, "seed": DEFAULT_SEED,
            "rtol": reference.RTOL, "atol": reference.ATOL, "commands": base}


def _draws(ref: dict) -> int:
    """Number of standard-normal draws per random suite member, found by
    matching the recorded `l2` column; fails when no count matches."""
    col = ref["header"].split(",").index("l2")
    rows = ref["seed_dependent_rows"]
    for draws in range(1, 65):
        rng = np.random.default_rng(DEFAULT_SEED)
        norms = [np.linalg.norm(rng.standard_normal(draws)) for _ in rows]
        if all(reference.close(float(ref["rows"][i][col]), float(n))
               for i, n in zip(rows, norms)):
            return draws
    raise ValueError("random members' l2 does not match any draw count")


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or list(WORKLOADS)
    reference.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        ref = record(WORKLOADS[name])
        reference.reference_path(name).write_text(json.dumps(ref, indent=1) + "\n",
                                                  encoding="utf-8")
        print(f"recorded {reference.reference_path(name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
