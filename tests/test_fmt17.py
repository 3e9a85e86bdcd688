"""`fmt17.table_chunks` writes every float64 as `cli._fmt` does, byte for byte.

`fmt17` forms the 17 digits from a double-double product and formats the
values it cannot settle with its scalar `_scalar`; these tests compare its
text with `_fmt` (and, for whole kernel tables, with the per-row writer in
`oracles`) on random bit patterns, powers of ten and two, exact decimal ties,
the `%g` switch points and a table with many positional values.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subheat
from oracles import kernel_lines_per_row
from subheat import cli, fmt17, potentials
from subheat.cli import _fmt, _write_csv, main
from subheat.fmt17 import table_chunks
from subheat.grid import build_grid
from subheat.spectral import assemble, eigendecompose, fractional_heat_kernel, heat_kernel


def assert_formats_like_fmt(values):
    """The values as one table row: each line must be `0,j,_fmt(v)`."""
    row = np.asarray(values, dtype=np.float64).ravel()
    got = b"".join(table_chunks(row[None, :])).decode().splitlines()
    want = [f"0,{j},{_fmt(v)}" for j, v in enumerate(row.tolist())]
    bad = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and bad == [], f"{len(bad)} mismatches, first {bad[:5]}"


def with_neighbours(values):
    """The values and the floats on either side (the largest finite one's
    upper neighbour is inf)."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        return np.concatenate([values, np.nextafter(values, -np.inf),
                               np.nextafter(values, np.inf)])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_hypothesis_floats_format_like_fmt(values):
    assert_formats_like_fmt(values)


def test_random_bit_patterns_format_like_fmt():
    bits = np.random.default_rng(20261019).integers(0, 2 ** 64, size=200_000,
                                                    dtype=np.uint64)
    assert_formats_like_fmt(bits.view(np.float64))


def test_powers_of_ten_and_their_neighbours_format_like_fmt():
    assert_formats_like_fmt(with_neighbours([float(f"1e{j}") for j in range(-300, 301)]))


def test_powers_of_two_and_exact_decimal_ties_format_like_fmt():
    twos = np.ldexp(1.0, -np.arange(0, 1075))
    assert_formats_like_fmt(np.concatenate([odd * twos for odd in (1, 3, 5, 7, 9, 11, 13)]))
    tie = b"".join(table_chunks(np.array([[2.0 ** -25]])))
    assert tie == b"0,0,2.9802322387695312e-08\n"


def test_g_switch_points_three_digit_exponents_and_zeros_format_like_fmt():
    switches = with_neighbours([1e-5, 1e-4, 1e16, 1e17])
    extremes = [1e-100, 1e100, 2.2250738585072014e-308, 5e-324, 1e-280, 1e280,
                1.7976931348623157e308, 0.0]
    values = np.concatenate([switches, with_neighbours(extremes)])
    assert_formats_like_fmt(np.concatenate([values, -values]))


@pytest.fixture(scope="module")
def n1_tables():
    dec = eigendecompose(assemble(build_grid(1, 16.0, 256, "dirichlet"),
                                  potentials.power(2.0)))
    return heat_kernel(dec, 1.0).table, fractional_heat_kernel(dec, 0.5, 1.0).table


@pytest.mark.parametrize("rows", [256, 250])
def test_n1_m256_tables_equal_the_per_row_writer(n1_tables, rows):
    """A block holds 128 rows of 256 values, so 250 rows end in a short block."""
    for table in n1_tables:
        part = table[:rows]
        assert b"".join(table_chunks(part)) == b"".join(kernel_lines_per_row(part))


def test_n2_table_with_four_digit_indices_equals_the_per_row_writer():
    dec = eigendecompose(assemble(build_grid(2, 16.0, 32, "dirichlet"),
                                  potentials.power(2.0)))
    table = fractional_heat_kernel(dec, 0.5, 0.25).table
    assert table.shape == (1024, 1024)
    assert b"".join(table_chunks(table)) == b"".join(kernel_lines_per_row(table))


def test_values_the_product_cannot_settle_go_through_fmt(monkeypatch):
    """An exact decimal tie lies in the ambiguous band; 1/3 does not. Exponents
    1 to 16 take the scalar route too. `_scalar` sees each distinct value once,
    and tells -0.0 from 0.0."""
    seen = []

    def recording_scalar(value):
        seen.append(value)
        return format(value, ".17g")

    monkeypatch.setattr(fmt17, "_scalar", recording_scalar)
    tie, plain = 2.0 ** -25, 1.0 / 3.0
    _, _, ambiguous = fmt17._digits(np.array([tie, plain]))
    assert ambiguous.tolist() == [True, False]
    positional = [10.0, -30.7, 99999.5, 1e16 - 2.0, 1e16]
    values = [tie, plain, 0.0, -0.0, np.inf, np.nan, 1e-300,
              np.nextafter(10.0, 0.0), 2.5e17] + positional
    assert_formats_like_fmt(values)
    assert sorted(map(repr, seen)) == sorted(map(repr, values[:1] + values[2:7] + positional))
    seen.clear()                                    # each distinct value once
    assert_formats_like_fmt([0.0, -0.0, 0.0, tie, -0.0, tie, 0.0])
    assert sorted(map(repr, seen)) == sorted(map(repr, [0.0, -0.0, tie]))


def test_kernels_positional_values_at_table_scale_equal_the_per_row_writer(tmp_path):
    """At t = 0.001 on n=1 L=1 M=64 the frac table's near-diagonal entries
    reach 30.7, so whole rows mix the scalar route and the block path."""
    text = "[grid]\nn = 1\nL = 1\nM = 64\n[run]\ntimes = 0.001\n"
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text(text)
    assert main(["kernels", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    cfg = cli.parse_config(text + "command = kernels\n")
    dec = eigendecompose(assemble(build_grid(1, 1.0, 64, "dirichlet"), cfg.potential))
    table = fractional_heat_kernel(dec, cfg.alpha, 0.001).table
    wide = np.abs(table) >= 10
    assert 0.01 < wide.mean() < 0.02 and np.abs(table).max() > 30
    _write_csv(tmp_path / "want.csv", cfg, ["x_index", "y_index", "value"],
               kernel_lines_per_row(table))
    assert (tmp_path / "o" / "frac_t0.001.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()


def test_import_subheat_builds_no_powers_of_ten():
    """The formatter, its powers-of-ten table and `fractions` stay off
    `import subheat`."""
    code = ("import sys, subheat\n"
            "print(sorted(m for m in sys.modules if m.startswith('subheat')))\n"
            "print('fractions' in sys.modules)\n")
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.splitlines()
    modules = ["subheat"] + [f"subheat.{name}" for name in (
        "cli", "closedform", "estimates", "fracderiv", "grid", "potentials", "spaces",
        "spectral", "subordinator")]
    assert out == [repr(sorted(modules)), "False"]


def test_kernels_builds_the_powers_of_ten_before_the_first_fork(tmp_path, monkeypatch):
    """The powers-of-ten table is built on import, so each writer inherits it."""
    monkeypatch.delitem(sys.modules, "subheat.fmt17")
    monkeypatch.delattr(subheat, "fmt17")
    imported, fork = [], os.fork

    def recording_fork():
        imported.append("subheat.fmt17" in sys.modules)
        return fork()

    monkeypatch.setattr(os, "fork", recording_fork)
    cfg_path = tmp_path / "c.ini"
    cfg_path.write_text("[grid]\nn = 1\nL = 16\nM = 16\n[run]\ntimes = 1\n")
    assert main(["kernels", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    assert imported == [True, True]
