"""Reference outputs of each workload, and the comparator that checks a run.

A reference holds, per command, the verdict `run()` reported and the content
of every output file it wrote, recorded at the package's seed commit and the
benchmark's default seed:

* small CSV tables: every cell, as written;
* kernel tables (`heat_t*.csv`, `frac_t*.csv`, 512 x 512 values each): the
  index columns are checked to enumerate (i, j) in C order; the values are
  kept as every `KERNEL_STRIDE`-th row and column, plus the row sums and the
  row sums of absolute values over the full table;
* text reports (`selftest.txt`): every line.

Numeric cells match when |value - ref| <= RTOL * |ref| + ATOL * scale, where
scale is 1 for CSV tables and the largest |value| of the table for kernel
tables. Text cells (ids, verdicts, skip reasons) and the header and config
lines match exactly; the config line carries the run's seed. A non-finite
value where the reference is finite is a mismatch.

Rows listed in `seed_dependent_rows` differ between seeds (the random
members of the spaces suite, and the equivalence summary built from them).
At the default seed they are compared like every other row. At another seed
their text cells must match, their numeric cells must be finite where the
reference is, and two derived identities are checked: the `l2` column of a
random member equals the Euclidean norm of the seed's standard-normal draws
(the suite synthesizes it from an orthonormal basis), and
c_star = max(ratio_max, 1 / ratio_min).

Cells listed in `basis_dependent` changed when the recorder rotated the
eigenbasis inside each degenerate eigenspace: they depend on the basis the
eigensolver picks, so a change of eigensolver shows up there as a mismatch
by design.
"""

import json
import math
from pathlib import Path

import numpy as np

RTOL = 1e-6
ATOL = 1e-12
KERNEL_STRIDE = 16
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load(workload: str) -> dict:
    return json.loads(reference_path(workload).read_text(encoding="utf-8"))


def _number(cell: str):
    """float value of a numeric CSV cell, None for a text cell."""
    if cell in ("true", "false"):
        return None
    try:
        return float(cell)
    except ValueError:
        return None


def _is_kernel_file(name: str) -> bool:
    return name.startswith(("heat_t", "frac_t")) and name.endswith(".csv")


def close(value: float, ref: float) -> bool:
    """A numeric CSV cell matches its reference."""
    if not math.isfinite(ref):
        return value == ref or (math.isnan(value) and math.isnan(ref))
    return math.isfinite(value) and abs(value - ref) <= RTOL * abs(ref) + ATOL


def _seed_line(line: str, seed: int) -> str:
    head, sep, _ = line.rpartition(" seed=")
    return f"{head}{sep}{seed}" if sep else line


# --- snapshots ---------------------------------------------------------------

def _kernel_snapshot(lines: list[str], data: np.ndarray) -> dict:
    size = math.isqrt(data.shape[0])
    table = data[:, 2].reshape(size, size)
    return {"comment": lines[0], "header": lines[1], "size": size,
            "stride": KERNEL_STRIDE,
            "scale": float(np.max(np.abs(table))),
            "sample": table[::KERNEL_STRIDE, ::KERNEL_STRIDE].tolist(),
            "row_sum": table.sum(axis=1).tolist(),
            "row_abs_sum": np.abs(table).sum(axis=1).tolist()}


def _read_kernel(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        lines = [fh.readline().rstrip("\n"), fh.readline().rstrip("\n")]
    data = np.loadtxt(path, delimiter=",", skiprows=2, ndmin=2)
    return lines, data


def snapshot_file(path: Path) -> dict:
    """Reference entry for one output file."""
    if _is_kernel_file(path.name):
        return _kernel_snapshot(*_read_kernel(path))
    lines = path.read_text(encoding="utf-8").splitlines()
    if path.suffix != ".csv":
        return {"comment": lines[0], "lines": lines[1:]}
    return {"comment": lines[0], "header": lines[1],
            "rows": [line.split(",") for line in lines[2:]]}


def snapshot_command(report: dict) -> dict:
    return {"verdict": bool(report["pass"]),
            "files": {Path(p).name: snapshot_file(Path(p)) for p in report["outputs"]}}


def differing_cells(got: dict, ref: dict) -> list:
    """Cells [row, column], lines or arrays where two snapshots of a file disagree."""
    if "rows" in ref:
        out = []
        for i, (rg, rr) in enumerate(zip(got["rows"], ref["rows"])):
            for j, (cg, cr) in enumerate(zip(rg, rr)):
                ng, nr = _number(cg), _number(cr)
                same = cg == cr if ng is None or nr is None else close(ng, nr)
                if not same:
                    out.append([i, j])
        return out
    if "lines" in ref:
        return [i for i, (lg, lr) in enumerate(zip(got["lines"], ref["lines"]))
                if lg != lr]
    return [key for key in ("sample", "row_sum", "row_abs_sum")
            if not np.allclose(got[key], ref[key], rtol=RTOL, atol=ATOL * ref["scale"])]


# --- comparison --------------------------------------------------------------

def _compare_table(ref: dict, got: dict, seed: int, default_seed: int) -> list[str]:
    shape = [len(row) for row in got["rows"]]
    if shape != [len(row) for row in ref["rows"]]:
        return [f"cells per row {shape}, reference {[len(r) for r in ref['rows']]}"]
    header = ref["header"].split(",")
    varies = set(ref.get("seed_dependent_rows", [])) if seed != default_seed else set()
    problems = []
    for i, j in differing_cells(got, ref):
        cell, rcell = got["rows"][i][j], ref["rows"][i][j]
        value, rvalue = _number(cell), _number(rcell)
        if (i in varies and None not in (value, rvalue)
                and (math.isfinite(value) or not math.isfinite(rvalue))):
            continue
        problems.append(f"row {i} {header[j]}: {cell} (reference {rcell})")
    return problems


def _seeded_identities(ref: dict, got: dict, seed: int) -> list[str]:
    header = ref["header"].split(",")
    rows = [[_number(c) for c in row] for row in got["rows"]]
    problems = []
    draws = ref.get("seeded_l2_draws")
    if draws:
        col = header.index("l2")
        rng = np.random.default_rng(seed)
        for i in ref["seed_dependent_rows"]:
            expect = float(np.linalg.norm(rng.standard_normal(draws)))
            if rows[i][col] is None or not close(rows[i][col], expect):
                problems.append(f"row {i} l2: {got['rows'][i][col]} != |draws| {expect!r}")
    if header == ["ratio_min", "ratio_max", "c_star"]:
        lo, hi, c_star = rows[0]
        if None in rows[0] or not (0.0 < lo <= hi and close(c_star, max(hi, 1.0 / lo))):
            problems.append(f"inconsistent ratios {got['rows'][0]}")
    return problems


def compare_file(name: str, ref: dict, path: Path, seed: int,
                 default_seed: int) -> list[str]:
    """Problems with one output file against its reference entry."""
    if not path.is_file():
        return [f"{name}: not written"]
    if "size" in ref:
        lines, data = _read_kernel(path)
        got = {"comment": lines[0], "header": lines[1]}
    else:
        got = snapshot_file(path)
    problems = []
    if got["comment"] != _seed_line(ref["comment"], seed):
        problems.append(f"config line {got['comment']!r}")
    if got.get("header") != ref.get("header"):
        problems.append(f"header {got.get('header')!r}")
    if "size" in ref:
        problems += _compare_kernel(ref, data)
    elif "lines" in ref:
        if got["lines"] != ref["lines"]:
            problems.append(f"lines {got['lines']} (reference {ref['lines']})")
    else:
        problems += _compare_table(ref, got, seed, default_seed)
        if seed != default_seed and not problems:
            problems += _seeded_identities(ref, got, seed)
    return [f"{name}: {p}" for p in problems]


def _compare_kernel(ref: dict, data: np.ndarray) -> list[str]:
    size = ref["size"]
    if data.shape != (size * size, 3):
        return [f"shape {data.shape}, expected {(size * size, 3)}"]
    idx = np.arange(size)
    if not (np.array_equal(data[:, 0], np.repeat(idx, size))
            and np.array_equal(data[:, 1], np.tile(idx, size))):
        return ["index columns do not enumerate (i, j) in C order"]
    table = data[:, 2].reshape(size, size)
    if not np.all(np.isfinite(table)):
        return [f"{int(np.count_nonzero(~np.isfinite(table)))} non-finite values"]
    got = _kernel_snapshot(["", ""], data)
    return [f"{key} differs from the reference"
            for key in differing_cells(got, ref)]


def compare_command(ref: dict, report: dict, out_dir: Path, seed: int,
                    default_seed: int) -> list[str]:
    """Problems with one command's verdict and outputs; empty when it matches."""
    problems = []
    if bool(report["pass"]) != ref["verdict"]:
        problems.append(f"verdict {report['pass']} (reference {ref['verdict']})")
    written = sorted(Path(p).name for p in report["outputs"])
    if written != sorted(ref["files"]):
        problems.append(f"outputs {written} (reference {sorted(ref['files'])})")
    for name, fref in ref["files"].items():
        problems += compare_file(name, fref, out_dir / name, seed, default_seed)
    return problems
