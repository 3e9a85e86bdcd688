import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

CONFIG = "# config: n=1 L=16.0 M=16 command=spaces seed={seed}\n"
HEADER = "member,bmo,l2\n"


def _write_table(path: Path, rows, seed=0):
    path.write_text(CONFIG.format(seed=seed) + HEADER
                    + "".join(",".join(r) + "\n" for r in rows), encoding="utf-8")


ROWS = [["0", "1.5", "2.25"], ["1", "0.125", "3.0"]]


@pytest.fixture
def table_ref(tmp_path):
    path = tmp_path / "space_norms.csv"
    _write_table(path, ROWS)
    ref = reference.snapshot_file(path)
    ref["seed_dependent_rows"] = [1]
    return path, ref


def _problems(path, ref, seed=0):
    return reference.compare_file(path.name, ref, path, seed, default_seed=0)


def test_comparator_accepts_identical_and_tolerated_values(table_ref):
    path, ref = table_ref
    assert _problems(path, ref) == []
    _write_table(path, [ROWS[0][:1] + ["1.5000000001", "2.25"], ROWS[1]])
    assert _problems(path, ref) == []


@pytest.mark.parametrize("value", ["1.5015", "nan", "inf", "oops"])
def test_comparator_flags_perturbed_and_non_finite_values(table_ref, value):
    path, ref = table_ref
    _write_table(path, [["0", value, "2.25"], ROWS[1]])
    problems = _problems(path, ref)
    assert len(problems) == 1 and "row 0 bmo" in problems[0]


def test_comparator_checks_text_cells_and_config_line_exactly(tmp_path):
    path = tmp_path / "certificates.csv"
    path.write_text("# config: verify seed=0\nid,C_meas,pass\nE1,0.5,true\n")
    ref = reference.snapshot_file(path)
    for row in ("E1,0.5,false", "E2,0.5,true", "E1,0.5,True"):
        path.write_text(f"# config: verify seed=0\nid,C_meas,pass\n{row}\n")
        assert len(_problems(path, ref)) == 1
    path.write_text("# config: verify seed=3\nid,C_meas,pass\nE1,0.5,true\n")
    assert "config line" in _problems(path, ref)[0]     # seed 3 output, seed 0 run
    assert _problems(path, ref, seed=3) == []


def test_seed_dependent_rows_are_checked_for_finiteness_at_other_seeds(table_ref):
    path, ref = table_ref
    _write_table(path, [ROWS[0], ["1", "7.5", "3.0"]], seed=4)
    assert _problems(path, ref, seed=4) == []
    _write_table(path, [ROWS[0], ["1", "nan", "3.0"]], seed=4)
    assert len(_problems(path, ref, seed=4)) == 1


def test_seeded_l2_identity(table_ref):
    path, ref = table_ref
    ref["seeded_l2_draws"] = 12
    expect = np.linalg.norm(np.random.default_rng(5).standard_normal(12))
    _write_table(path, [ROWS[0], ["1", "0.5", repr(float(expect))]], seed=5)
    assert _problems(path, ref, seed=5) == []
    _write_table(path, [ROWS[0], ["1", "0.5", repr(float(expect) * 1.01)]], seed=5)
    assert "|draws|" in _problems(path, ref, seed=5)[0]


def _write_kernel(path: Path, table: np.ndarray):
    n = table.shape[0]
    lines = [f"{i},{j},{float(table[i, j])!r}" for i in range(n) for j in range(n)]
    path.write_text("# config: kernels seed=0\nx_index,y_index,value\n"
                    + "\n".join(lines) + "\n", encoding="utf-8")


def test_kernel_comparator_flags_perturbed_value_nan_and_index_order(tmp_path):
    path = tmp_path / "heat_t1.csv"
    x = np.linspace(-1.0, 1.0, 32)
    table = np.exp(-(x[:, None] - x[None, :]) ** 2)
    _write_kernel(path, table)
    ref = reference.snapshot_file(path)
    assert _problems(path, ref) == []
    for i, j, value in ((3, 5, table[3, 5] * 1.001), (7, 7, np.nan)):
        bad = table.copy()
        bad[i, j] = value
        _write_kernel(path, bad)
        assert _problems(path, ref) != []
    _write_kernel(path, table.T.copy())         # symmetric: same values
    text = path.read_text().replace("\n0,1,", "\n1,0,", 1)
    path.write_text(text)
    assert "index columns" in _problems(path, ref)[0]


def test_error_rate_counts_a_command_that_raises(tmp_path):
    # M=1024 parses (build_grid accepts it) but is over the dense-solver cap,
    # so assemble raises inside run()
    workload = Workload("over-cap", "", ("selftest", "kernels"), n=1, M=1024, potential="")
    it = harness.run_iteration(workload, 0, {"commands": {}}, tmp_path)
    assert (it.attempted, it.failed) == (2, 2)
    assert "exceeds the dense-solver cap" in it.errors[0]


def test_error_rate_counts_a_reference_mismatch(tmp_path):
    workload = Workload("small", "", ("selftest", "spaces"), n=1, M=16, potential="")
    import os
    from subheat.cli import parse_config, run
    (tmp_path / "rec").mkdir()
    cwd = os.getcwd()
    os.chdir(tmp_path / "rec")
    try:
        ref = {"commands": {c: reference.snapshot_command(run(parse_config(
            workload.config(c, 0)))) for c in workload.commands}}
    finally:
        os.chdir(cwd)
    it = harness.run_iteration(workload, 0, ref, tmp_path / "run", trace=True)
    assert (it.attempted, it.failed) == (2, 0)
    assert it.layers["cli.run.spaces.s"] > 0 and it.layers["trace.coverage"] > 0.5
    cell = ref["commands"]["spaces"]["files"]["space_norms.csv"]["rows"][0]
    cell[1] = repr(float(cell[1]) * 1.01)
    it = harness.run_iteration(workload, 0, ref, tmp_path / "run")
    assert (it.attempted, it.failed) == (2, 1)
    assert it.errors[0].startswith("spaces: space_norms.csv: row 0 bmo")


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    import run
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
    for name in WORKLOADS:
        ref = reference.load(name)
        assert list(ref["commands"]) == list(WORKLOADS[name].commands)
