import filecmp
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import kernel_lines_per_row
from subheat import cli, estimates, fmt17, potentials
from subheat.cli import ConfigError, _fmt, _write_csv, main, parse_config, run
from subheat.estimates import DEFAULT_PARAMS, ESTIMATE_IDS
from subheat.grid import build_grid, grid_function
from subheat.spaces import make_equivalence_suite
from subheat.spectral import (assemble, eigendecompose, fractional_heat_kernel, heat_kernel,
                              multiplier_kernel)

MINIMAL = """
[grid]
n = 1
L = 16
M = 256
"""

FULL = """
[grid]
n = 1
L = 16
M = 128
bc = dirichlet

[potential]
kind = constant
c = 1.0

[fractional]
alpha = 0.5
beta = 1.0
gamma = 0.25
n_list = 0

[run]
command = selftest
seed = 7
"""


def test_minimal_config_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.n == 1 and cfg.half_width == 16.0 and cfg.points_per_axis == 256
    assert cfg.bc == "dirichlet"
    assert cfg.potential_label.startswith("constant")
    assert cfg.alpha == 0.5 and cfg.beta == 1.0 and cfg.gamma == 0.25


def test_missing_grid_section_rejected():
    with pytest.raises(ConfigError):
        parse_config("[potential]\nkind = zero\n")


def test_alpha_out_of_range_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "[fractional]\nalpha = 1.5\n")


def test_equiv_gamma_hypothesis():
    good = MINIMAL + "[fractional]\ngamma = 0.6\nalpha = 0.5\nbeta = 1\n[run]\ncommand = equiv\n"
    cfg = parse_config(good)          # gamma < min(1, 1) holds
    assert cfg.gamma == 0.6
    bad = MINIMAL + "[fractional]\ngamma = 0.6\nalpha = 0.2\nbeta = 1\n[run]\ncommand = equiv\n"
    with pytest.raises(ConfigError):
        parse_config(bad)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config(MINIMAL + "[run]\nturbo = yes\n")


def test_odd_grid_rejected():
    with pytest.raises(ConfigError):
        parse_config("[grid]\nn = 1\nL = 16\nM = 7\n")


def test_selftest_runs(tmp_path):
    cfg = parse_config(FULL.replace("command = selftest",
                                    f"command = selftest\nout = {tmp_path}/st"))
    report = run(cfg)
    assert report["pass"]
    text = Path(report["outputs"][0]).read_text()
    assert "PASS" in text and "FAIL" not in text


def test_selftest_runs_every_check_on_a_periodic_grid_with_a_zero_mode(tmp_path):
    text = ("[grid]\nn = 1\nL = 16\nM = 64\nbc = periodic\n[potential]\nkind = zero\n"
            f"[run]\ncommand = selftest\nout = {tmp_path}/st\n")
    report = run(parse_config(text))
    lines = Path(report["outputs"][0]).read_text().splitlines()[1:]
    assert report["pass"] and len(lines) == 9 and all(ln.endswith(": PASS") for ln in lines)
    assert "mass bound: PASS" in lines and "g-function isometry: PASS" in lines


def test_kernels_outputs_format(tmp_path):
    text = FULL.replace("command = selftest", f"command = kernels\nout = {tmp_path}/k")
    text = text.replace("M = 128", "M = 64")
    report = run(parse_config(text + "\ntimes = 1\n"))
    assert report["pass"]
    heat = Path(f"{tmp_path}/k/heat_t1.csv").read_text().splitlines()
    assert heat[0].startswith("# config:")
    assert heat[1] == "x_index,y_index,value"
    assert len(heat) == 2 + 64 * 64


def test_verify_certificates_csv(tmp_path):
    text = FULL.replace("command = selftest", f"command = verify\nout = {tmp_path}/v")
    report = run(parse_config(text))
    assert report["pass"]
    lines = Path(f"{tmp_path}/v/certificates.csv").read_text().splitlines()
    assert lines[1] == ("id,alpha,beta,N,delta,C_meas,argmax_x,argmax_y,argmax_t,"
                        "refine_ratio,pass")
    assert sum(1 for ln in lines if ln.startswith("E")) == 12  # one N value per id


def test_equiv_command(tmp_path):
    text = FULL.replace("command = selftest", f"command = equiv\nout = {tmp_path}/e")
    report = run(parse_config(text))
    assert report["pass"]
    assert report["c_star"] <= 100.0


def test_determinism_byte_identical(tmp_path):
    base = FULL.replace("M = 128", "M = 64")
    for tag in ("a", "b"):
        text = base.replace("command = selftest",
                            f"command = equiv\nout = {tmp_path}/{tag}")
        run(parse_config(text))
    for name in ("equivalence.csv", "equivalence_summary.csv"):
        assert filecmp.cmp(f"{tmp_path}/a/{name}", f"{tmp_path}/b/{name}", shallow=False)


def test_main_exit_codes(tmp_path):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL.replace("M = 128", "M = 64"))
    assert main(["selftest", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    bad = tmp_path / "bad.ini"
    bad.write_text("[potential]\nkind = zero\n")
    assert main(["selftest", "--config", str(bad)]) == 2
    missing = tmp_path / "nope.ini"
    assert main(["selftest", "--config", str(missing)]) == 2


def test_main_output_directory_that_cannot_be_made_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL.replace("M = 128", "M = 64"))
    (tmp_path / "afile").write_text("")
    assert main(["verify", "--config", str(cfg_path), "--out",
                 str(tmp_path / "afile" / "sub")]) == 2
    assert capsys.readouterr().err.startswith("config error: [Errno 20] Not a directory")


@pytest.mark.parametrize("command, line, bad_line", [
    ("selftest", "alpha = 0.5", "alpha = abc"),
    ("selftest", "n_list = 0", "n_list = 0,x"),
    ("selftest", "L = 16", "L = nan"),
    ("selftest", "beta = 1.0", "beta = nan"),
    ("verify", "n_list = 0", "n_list = 0\ndelta = nan"),
    ("kernels", "seed = 7", "seed = 7\ntimes = -1"),
    ("selftest", "n = 1", "n = 2"),
    ("verify", "M = 64", "M = 18"),
    ("verify", "M = 64", "M = 8"),
    ("spaces", "seed = 7", "seed = -1"),
    ("verify", "c = 1.0", "c = 1.0\nq = 0"),
    ("verify", "c = 1.0", "c = 1.0\nq = -2"),
    ("verify", "n_list = 0", "n_list = 0\ndelta = 0"),
    ("verify", "n_list = 0", "n_list = 0\ndelta = 1.5"),
    ("verify", "n_list = 0", "n_list = 0,-1"),
    ("kernels", "seed = 7", "seed = 7\ntimes = 1, 1"),
    ("kernels", "seed = 7", "seed = 7\ntimes = 0.25, 1, 1.0000001"),
    ("spaces", "kind = constant", "kind = well\nheight = 0"),
    ("spaces", "kind = constant", "kind = well\nwidth = 0"),
], ids=["alpha-abc", "n_list-x", "L-nan", "beta-nan", "delta-nan", "times-negative",
        "M-above-cap", "coarse-M-odd", "coarse-M-below-8", "seed-negative", "q-zero",
        "q-negative", "delta-zero", "delta-above-delta0", "n_list-negative",
        "times-repeated", "times-same-file-name", "well-height-zero", "well-width-zero"])
def test_main_bad_value_exits_2(tmp_path, capsys, command, line, bad_line):
    text = FULL.replace("M = 128", "M = 64")
    assert line in text
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(text.replace(line, bad_line))
    assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["n = 1\nM = 64\nbc = dirichlet", "n = 1\nM = 64\nbc = periodic",
                                  "n = 2\nM = 16\nbc = dirichlet"],
                         ids=["n1-dirichlet", "n1-periodic", "n2"])
def test_main_overflowing_potential_exits_1_naming_it(tmp_path, capsys, grid):
    """|x|^400 overflows at L = 16; every command names the non-finite operator,
    and no numpy warning comes before it."""
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(f"[grid]\n{grid}\nL = 16\n[potential]\nkind = power\nsigma = 400\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for command in cli.COMMANDS:
            assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
            assert capsys.readouterr().err == (
                f"numerical failure in {command}: operator has non-finite entries: "
                "the potential overflows on this grid\n")
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


def test_zero_scale_gives_the_zero_potential(tmp_path):
    """0 * |x|^400 is V = 0, not 0 * inf, and so are a constant and a well at
    scale 0: `verify` then exits as V = 0 does, with the same certificate rows
    and no numpy warning."""
    rows, codes = {}, {}
    for name, kind in (("scaled", "power\nsigma = 400\nscale = 0"),
                       ("constant", "constant\nc = 1\nscale = 0"),
                       ("well", "well\nheight = 2\nwidth = 1\nscale = 0"), ("zero", "zero")):
        cfg_path = tmp_path / f"{name}.ini"
        cfg_path.write_text(f"[grid]\nn = 1\nL = 16\nM = 64\n[potential]\nkind = {kind}\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            codes[name] = main(["verify", "--config", str(cfg_path),
                                "--out", str(tmp_path / name)])
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        # the first line is the config comment, which names the potential
        rows[name] = (tmp_path / name / "certificates.csv").read_text().splitlines()[1:]
    assert codes["scaled"] == codes["constant"] == codes["well"] == codes["zero"]
    assert rows["scaled"] == rows["constant"] == rows["well"] == rows["zero"]
    assert len(rows["zero"]) > 1


def test_main_negative_seed_on_the_command_line_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(FULL.replace("M = 128", "M = 64"))
    assert main(["spaces", "--config", str(cfg_path), "--out", str(tmp_path / "o"),
                 "--seed", "-1"]) == 2
    assert "config error: seed" in capsys.readouterr().err


def test_spaces_command(tmp_path):
    text = FULL.replace("command = selftest", f"command = spaces\nout = {tmp_path}/s")
    text = text.replace("M = 128", "M = 64")
    report = run(parse_config(text))
    assert report["pass"]
    lines = Path(report["outputs"][0]).read_text().splitlines()
    assert lines[1].split(",")[0] == "member"


def test_verify_skips_rho_estimates_for_zero_potential(tmp_path):
    text = """
[grid]
n = 1
L = 16
M = 64

[potential]
kind = zero

[fractional]
n_list = 0

[run]
command = verify
out = {out}
"""
    report = run(parse_config(text.format(out=tmp_path / "vz")))
    lines = Path(tmp_path / "vz" / "certificates.csv").read_text().splitlines()
    skipped = [ln for ln in lines if "skipped" in ln]
    assert any(ln.startswith("E8") for ln in skipped)
    assert any(ln.startswith("E11") for ln in skipped)
    assert report["pass"]


PINNED = """
[grid]
n = 1
L = 16
M = 128

[potential]
kind = {kind}
"""


@pytest.mark.parametrize("kind, pinned", [
    ("power\nsigma = 2", "certificates_n1_m128_power2.csv"),
    ("zero", "certificates_n1_m128_zero.csv"),
], ids=["power2", "zero"])
def test_verify_matches_pinned_certificates(tmp_path, kind, pinned):
    """`verify` output equals the pinned certificates, byte for byte.

    The files in tests/data/ were written by
    `subheat verify --config <PINNED with kind> --out <dir>` at commit
    dfa95eb (n=1 M=128 against M=64, every estimate id at N=0 and N=1). The
    V=|x|^2 file was re-recorded the same way on the child of commit
    8061047, when every `verify` table became block rows x lattice and the
    row masses came to be read from the mode sums: only the E8 and E11
    `C_meas` and `refine_ratio` cells moved, by at most 1.1e-15 relative.
    The two potentials cover every registry entry of the default run, both
    closed-form substitutions of the zero potential and the E8/E11 skip text.
    """
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(PINNED.format(kind=kind))
    assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "v")]) == 0
    expected = Path(__file__).parent / "data" / pinned
    assert (tmp_path / "v" / "certificates.csv").read_bytes() == expected.read_bytes()


def test_verify_computes_each_table_once(tmp_path, monkeypatch):
    """One sandwich per distinct (t, alpha, b) kernel table of each grid: 92 at
    n=1 M=128 V=|x|^2 (coarse M=64), where one time ladder per certificate row
    and a 64-entry cache that cleared on overflow made 150.

    Every table is the row block x lattice, 32 columns on both grids: the
    families whose rows read a mass row (E8 and E11) too, and the coarse grid
    of 64 points too. A table that silently kept every column fails."""
    widths = []

    def counting(dec, multiplier, t=None, block=None):
        K = multiplier_kernel(dec, multiplier, t, block=block)
        assert K.table.shape == (block.rows.size, block.cols.size)
        widths.append((dec.grid.points_per_axis, K.table.shape[1]))
        return K

    monkeypatch.setattr(estimates, "multiplier_kernel", counting)
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(PINNED.format(kind="power\nsigma = 2"))
    assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "v")]) == 0
    tables = set()
    for M in (64, 128):
        grid = build_grid(1, 16.0, M)
        assert estimates.lattice_indices(grid).size == 32
        for eid in ESTIMATE_IDS:
            p, entry = DEFAULT_PARAMS[eid], estimates._REGISTRY[eid]
            alpha = 1.0 if entry.heat else p.alpha
            b = p.beta if entry.power is None else entry.power
            tables |= {(M, t, alpha, b) for t in estimates.time_grid(grid, p.alpha, entry.heat)}
    assert len(widths) == len(tables) == 92
    per_grid = {(M, 32): sum(1 for key in tables if key[0] == M) for M in (64, 128)}
    assert {key: widths.count(key) for key in set(widths)} == per_grid


def test_verify_builds_each_grids_scan_geometry_once(tmp_path, monkeypatch):
    """The shifts and rho of each grid are computed once per `verify`: 2 calls
    each at n=1 M=128 V=|x|^2, where the shifts were recomputed for every time
    of every shifted row (134 calls)."""
    calls = {"shifts": 0, "rho": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(estimates, "_physical_shifts",
                        counted("shifts", estimates._physical_shifts))
    monkeypatch.setattr(potentials, "compute_aux_function",
                        counted("rho", potentials.compute_aux_function))
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(PINNED.format(kind="power\nsigma = 2"))
    assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "v")]) == 0
    assert calls == {"shifts": 2, "rho": 2}


def test_verify_isolates_a_failing_row(tmp_path, monkeypatch):
    """An error in one estimate fails that estimate's rows only: every other row
    is the pinned certificate, though it shares its kernel tables."""
    def failing(point):
        raise ValueError("planted majorant failure")

    monkeypatch.setitem(estimates._REGISTRY, "E2",
                        replace(estimates._REGISTRY["E2"], majorant=failing))
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(PINNED.format(kind="power\nsigma = 2"))
    assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "v")]) == 1
    written = (tmp_path / "v" / "certificates.csv").read_text().splitlines()
    pinned = (Path(__file__).parent / "data" / "certificates_n1_m128_power2.csv")
    pinned = pinned.read_text().splitlines()
    assert len(written) == len(pinned)
    failed = [ln for ln in written if ln.endswith(",failed: planted majorant failure")]
    assert failed == [ln for ln in written if ln.startswith("E2,")] and len(failed) == 2
    assert [ln for ln in written if not ln.startswith("E2,")] == \
        [ln for ln in pinned if not ln.startswith("E2,")]


PINNED_N2_VERIFY = PINNED.replace("n = 1", "n = 2").replace("M = 128", "M = 16")
PINNED_N1_KERNELS = "[grid]\nn = 1\nL = 16\nM = 16\n"
PINNED_N1_NORMS = PINNED.replace("M = 128", "M = 64").format(kind="power\nsigma = 2")
PINNED_N2_NORMS = "[grid]\nn = 2\nL = 16\nM = 16\n"
PINNED_N2_NORMS_PERIODIC = PINNED_N2_VERIFY.replace("M = 16", "M = 16\nbc = periodic").format(
    kind="power\nsigma = 2")
PINNED_N3_NORMS = "[grid]\nn = 3\nL = 16\nM = 10\n"
EQUIV_FILES = ("equivalence.csv", "equivalence_summary.csv")


@pytest.mark.parametrize("command, text, pinned", [
    ("verify", PINNED_N2_VERIFY.format(kind="power\nsigma = 2"),
     {"certificates.csv": "certificates_n2_m16_power2.csv"}),
    ("verify", PINNED_N2_VERIFY.format(kind="power\nsigma = 2").replace(
        "M = 16", "M = 16\nbc = periodic"),
     {"certificates.csv": "certificates_n2_m16_power2_periodic.csv"}),
    ("verify", PINNED_N2_VERIFY.format(kind="power\nsigma = 2").replace("M = 16", "M = 32"),
     {"certificates.csv": "certificates_n2_m32_power2.csv"}),
    ("kernels", PINNED_N1_KERNELS,
     {f"{tag}_t{t}.csv": f"kernels_n1_m16/{tag}_t{t}.csv"
      for t in ("0.25", "1", "4") for tag in ("heat", "frac")}),
    ("spaces", PINNED_N1_NORMS, {"space_norms.csv": "norms_n1_m64_power2/space_norms.csv"}),
    ("equiv", PINNED_N1_NORMS, {name: f"norms_n1_m64_power2/{name}" for name in EQUIV_FILES}),
    ("spaces", PINNED_N2_NORMS, {"space_norms.csv": "norms_n2_m16_constant/space_norms.csv"}),
    ("equiv", PINNED_N2_NORMS, {name: f"norms_n2_m16_constant/{name}" for name in EQUIV_FILES}),
    ("spaces", PINNED_N2_NORMS_PERIODIC,
     {"space_norms.csv": "norms_n2_m16_power2_periodic/space_norms.csv"}),
    ("equiv", PINNED_N2_NORMS_PERIODIC,
     {name: f"norms_n2_m16_power2_periodic/{name}" for name in EQUIV_FILES}),
    ("spaces", PINNED_N3_NORMS, {"space_norms.csv": "norms_n3_m10_constant/space_norms.csv"}),
    ("equiv", PINNED_N3_NORMS, {name: f"norms_n3_m10_constant/{name}" for name in EQUIV_FILES}),
], ids=["verify-n2-m16-power2", "verify-n2-m16-power2-periodic", "verify-n2-m32-power2",
        "kernels-n1-m16",
        "spaces-n1-m64-power2", "equiv-n1-m64-power2", "spaces-n2-m16-constant",
        "equiv-n2-m16-constant", "spaces-n2-m16-power2-periodic",
        "equiv-n2-m16-power2-periodic", "spaces-n3-m10-constant", "equiv-n3-m10-constant"])
def test_outputs_match_pinned_files(tmp_path, command, text, pinned):
    """Outputs equal the files recorded before the code they pin changed, byte for byte.

    The files in tests/data/ were written by
    `python -m subheat.cli <command> --config <text> --out <dir>` at commit
    d2efde8, and the periodic certificates by `python -m subheat verify` at
    commit ea43564. The n=2 `verify` reaches the grid-sum branch of the
    critical radius (|x|^2 is radial about no grid point), on both
    boundary conditions (the inner lattice never reaches the periodic wrap
    of the gradient stencil). M=16 represents no Holder shift; the n=2 M=32
    certificates, written by `python -m subheat verify` at commit 65262e7
    (the benchmark's certify-n2 config), scan the shift L/16 of one cell.
    The periodic M=16 and the M=32 certificates were re-recorded by
    `python -m subheat verify` on the child of commit 8061047, when every
    `verify` table became block rows x lattice and the row masses came to
    be read from the mode sums: only E11 `C_meas` (periodic M=16) and E8
    `C_meas` (M=32) moved, by at most 2.9e-16 relative.
    `kernels` writes the six default tables. The `spaces` and `equiv`
    tables were written by `python -m subheat` at commit 1f80921, and the
    periodic n=2 |x|^2 ones at commit d6dfdef, before the cone index, the
    ball centre indices and the N4/N5 gradient pass were shared across suite
    members. The N4 and N5 columns read the gradient stencil of
    `grid.gradient_values`, whose Dirichlet zero extension was then made by
    `np.pad`; the periodic tables pin its wrapped branch and the periodic
    cone distances of `area_function`. The n=3 V=1 tables were written by
    `python -m subheat` at commit ea6e093, before one pass over the balls and
    boxes served the whole suite; they pin the three-axis stencil and ball sums.
    The four `equiv` tables were re-recorded by `python -m subheat` at commit
    16aa543, when N4 and N5 came to be built from d-fields (one matrix product
    per order over the ladder, not one product per time): only `N4_gradient`,
    `N5_nu_carleson` and the summary's `ratio_max` and `c_star` moved, by at
    most 2.6e-15 relative; the `spaces` tables stayed byte-identical.
    """
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(text)
    main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    data = Path(__file__).parent / "data"
    for written, recorded in pinned.items():
        assert (tmp_path / "o" / written).read_bytes() == (data / recorded).read_bytes(), written


def test_equiv_gamma_checked_on_the_command_line_command(tmp_path, capsys):
    """The gamma hypothesis follows the command that runs, not the config's."""
    text = MINIMAL.replace("M = 256", "M = 16") + (
        "[fractional]\ngamma = 0.6\nalpha = 0.2\nbeta = 1\n[run]\ncommand = {command}\n")
    with pytest.raises(ConfigError) as exc:
        parse_config(text.format(command="equiv"))
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(text.format(command="selftest"))
    assert main(["equiv", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == f"config error: {exc.value}\n"
    cfg_path.write_text(text.format(command="equiv"))
    assert main(["selftest", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0


def test_python_m_subheat_runs_the_cli(tmp_path):
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(MINIMAL.replace("M = 256", "M = 16"))
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "subheat", "selftest",
         "--config", str(cfg_path), "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "o" / "selftest.txt").exists()


def test_verify_fails_when_a_certificate_cannot_be_computed(tmp_path):
    """(t lam^a)^beta overflows at beta = 400: those rows fail, they do not skip."""
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(PINNED.format(kind="power\nsigma = 2")
                        + "[fractional]\nbeta = 400\nn_list = 0\n")
    with np.errstate(all="ignore"):
        code = main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "v")])
    assert code == 1
    lines = (tmp_path / "v" / "certificates.csv").read_text().splitlines()
    failed = [ln.split(",")[0] for ln in lines
              if ln.endswith("failed: multiplier not finite on the spectrum")]
    assert failed == ["E9", "E10", "E11"]
    assert not any("skipped" in ln for ln in lines)


def test_equiv_labels_members_after_a_vanishing_one(tmp_path, monkeypatch):
    """A member whose N1 vanishes keeps its row, so later rows keep their labels."""
    def suite_with_a_zero_member(dec, rho, gamma, seed=0):
        suite = make_equivalence_suite(dec, rho, gamma, seed)
        suite[5] = grid_function(dec.grid, np.zeros(dec.grid.size))
        return suite

    monkeypatch.setattr(cli, "make_equivalence_suite", suite_with_a_zero_member)
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text("[grid]\nn = 1\nL = 7\nM = 64\n[potential]\nkind = constant\n"
                        "c = 0.01\n")
    for command in ("spaces", "equiv"):
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0

    def table(name):
        lines = (tmp_path / "o" / name).read_text().splitlines()[2:]
        return [line.split(",") for line in lines]

    norms, equiv = table("space_norms.csv"), table("equivalence.csv")
    assert [row[0] for row in equiv] == [row[0] for row in norms] == [str(i) for i in range(10)]
    assert [row[1] for row in equiv] == [row[1] for row in norms]    # N1 is the bmo column
    assert equiv[5] == ["5", "0", "", "", "", ""]
    assert all(all(cell != "" for cell in row) for i, row in enumerate(equiv) if i != 5)


def test_kernel_lines_format_like_fmt():
    values = [0.0, -0.0, 5e-324, 1e-300, np.inf, -np.inf, np.nan, 0.1, -1.0 / 3.0, 1e22]
    table = np.array([values, values[::-1]])
    want = "".join(f"{i},{j},{_fmt(v)}\n" for i, row in enumerate(table)
                   for j, v in enumerate(row))
    assert b"".join(kernel_lines_per_row(table)) == want.encode()
    assert b"".join(fmt17.table_chunks(table)) == want.encode()


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_kernels_failed_writer_exits_1_and_every_writer_is_reaped(tmp_path, capsys):
    """A writer that cannot open its file fails the command, which names the file."""
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(PINNED_N1_KERNELS)
    out = tmp_path / "o"
    (out / "heat_t1.csv").mkdir(parents=True)
    assert main(["kernels", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure in kernels:") and str(out / "heat_t1.csv") in err
    _no_child_left()


def test_kernels_parent_error_is_reported_and_every_writer_is_reaped(tmp_path, capsys,
                                                                     monkeypatch):
    """The parent raising after a writer has started reports its own error.

    With one slot, the heat_t0.25 writer forks before frac_t0.25 is computed.
    """
    def planted(*args):
        raise FloatingPointError("planted fractional kernel failure")

    monkeypatch.setattr(cli, "fractional_heat_kernel", planted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    forked = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(PINNED_N1_KERNELS)
    assert main(["kernels", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
    assert len(forked) == 1                           # the heat_t0.25 writer
    assert capsys.readouterr().err == \
        "numerical failure in kernels: planted fractional kernel failure\n"
    _no_child_left()


def _kernels_through_two_slots(tmp_path, monkeypatch, grid_text, grid):
    """Run `kernels` at four times with two writer slots and check each of the
    eight files against the per-row oracle's write. Returns the number of
    writers alive as each sandwich starts and the most alive at once."""
    live, most, at_sandwich = set(), [0], []
    fork, waitpid = os.fork, os.waitpid

    def counting_fork():
        pid = fork()
        if pid:
            live.add(pid)
            most[0] = max(most[0], len(live))
        return pid

    def counting_waitpid(pid, options):
        done = waitpid(pid, options)
        live.discard(done[0])
        return done

    def watched(kernel):
        def sandwich(*args):
            at_sandwich.append(len(live))
            return kernel(*args)
        return sandwich

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "waitpid", counting_waitpid)
    monkeypatch.setattr(cli, "heat_kernel", watched(heat_kernel))
    monkeypatch.setattr(cli, "fractional_heat_kernel", watched(fractional_heat_kernel))
    text = grid_text + "[run]\ncommand = kernels\ntimes = 0.25, 1, 4, 16\n"
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(text)
    assert main(["kernels", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert not live
    cfg = parse_config(text)
    dec = eigendecompose(assemble(build_grid(*grid), cfg.potential))
    (tmp_path / "want").mkdir()
    names = []
    for t in cfg.times:
        for tag, kernel in (("heat", heat_kernel(dec, t)),
                            ("frac", fractional_heat_kernel(dec, cfg.alpha, t))):
            name = f"{tag}_t{t:g}.csv"
            _write_csv(tmp_path / "want" / name, cfg, ["x_index", "y_index", "value"],
                       kernel_lines_per_row(kernel.table))
            names.append(name)
    assert len(names) == 8 and sorted(names) == sorted(p.name for p in (tmp_path / "o").iterdir())
    for name in names:
        assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "want" / name).read_bytes()
    _no_child_left()
    return at_sandwich, most[0]


def test_kernels_writers_reuse_their_slots_byte_for_byte(tmp_path, monkeypatch):
    """Eight files through two writer slots equal the per-row oracle's writes."""
    _, most = _kernels_through_two_slots(
        tmp_path, monkeypatch, "[grid]\nn = 2\nL = 16\nM = 8\nbc = periodic\n",
        (2, 16.0, 8, "periodic"))
    assert most == 2


def test_kernels_compute_each_batch_while_no_writer_is_alive(tmp_path, monkeypatch):
    """No sandwich starts while a writer is alive, and at most two writers live
    at once."""
    at_sandwich, most = _kernels_through_two_slots(
        tmp_path, monkeypatch, "[grid]\nn = 1\nL = 16\nM = 16\n", (1, 16.0, 16, "dirichlet"))
    assert at_sandwich == [0] * 8 and most == 2


def test_n1_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    """`kernels`, `verify`, `spaces` and `equiv` at n=1 M=64 V=|x|^2 write the
    same bytes with one OpenBLAS thread and with two; each thread count runs
    all four commands in one interpreter. (n>=2 on the dense route is not
    thread-invariant, so it is left out.)"""
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text("[grid]\nn = 1\nL = 16\nM = 64\n[potential]\nkind = power\n"
                        "sigma = 2\n")
    code = ("import sys\nfrom subheat.cli import main\n"
            "print([main([command, '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "       for command in ('kernels', 'verify', 'spaces', 'equiv')])\n")
    src = str(Path(__file__).parents[1] / "src")
    exits = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        done = subprocess.run([sys.executable, "-c", code, str(cfg_path),
                               str(tmp_path / threads)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        exits.append(done.stdout.splitlines()[-1])
    assert exits[0] == exits[1]                   # verify fails some rows at M=64
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert len(names) == 10 and names == sorted(p.name for p in (tmp_path / "2").iterdir())
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name
