import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import tracer  # noqa: E402
from tracer import Span, Tracer, self_times, span_metrics  # noqa: E402


def test_self_time_subtracts_children_on_nested_spans():
    spans = [Span(0, None, "root", 0.0, 10.0),
             Span(1, 0, "a", 1.0, 4.0),
             Span(2, 1, "a.inner", 2.0, 3.0),
             Span(3, 0, "b", 5.0, 7.0)]
    assert self_times(spans) == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [Span(0, None, "root", 0.0, 10.0),
             Span(1, 0, "a", 2.0, 6.0),
             Span(2, 0, "b", 4.0, 12.0)]        # overlaps a, runs past the root
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_span_metrics_sum_calls_times_and_counts():
    spans = [Span(0, None, "cli.run.verify", 0.0, 8.0),
             Span(1, 0, "potentials.compute_aux_function", 1.0, 3.0),
             Span(2, 1, "potentials.compute_rho", 1.0, 2.0),
             Span(3, 1, "potentials.compute_rho", 2.0, 3.0),
             Span(4, 0, "spectral.multiplier_kernel", 4.0, 5.0, {"gflop": 1.5}),
             Span(5, 0, "spectral.multiplier_kernel", 5.0, 6.0, {"gflop": 1.5})]
    m = span_metrics(spans, wall=10.0)
    assert m["spectral.multiplier_kernel.calls"] == 2
    assert m["spectral.multiplier_kernel.gflop"] == 3.0
    assert m["potentials.compute_aux_function.points"] == 2
    assert m["potentials.compute_aux_function.self_s"] == 0.0
    assert m["cli.run.verify.self_s"] == 4.0
    assert m["trace.coverage"] == pytest.approx(0.4)


def test_compare_counts_flags_counts_that_do_not_repeat():
    from compare_counts import differing
    a = {"spectral.multiplier_kernel.calls": 35, "spectral.multiplier_kernel.s": 1.0}
    b = {"spectral.multiplier_kernel.calls": 36, "spectral.multiplier_kernel.s": 1.2}
    assert tracer.combine([a, b])["spectral.multiplier_kernel.s"] == pytest.approx(1.1)
    a, b = ({"layers": tracer.combine([layers])} for layers in (a, b))
    assert differing(a, b) == ["spectral.multiplier_kernel.calls: 35 != 36"]
    assert differing(a, a) == []


def test_patched_reaches_every_binding_and_restores_it():
    import subheat.cli as cli
    import subheat.estimates as estimates
    import subheat.spectral as spectral
    from subheat.grid import Grid, build_grid
    from subheat.potentials import constant

    originals = (spectral.eigendecompose, estimates.eigendecompose, cli.eigendecompose,
                 spectral.multiplier_kernel, Grid.pair_distances)
    tr = Tracer()
    with tracer.patched(tr):
        assert estimates.eigendecompose is cli.eigendecompose is spectral.eigendecompose
        assert estimates.eigendecompose is not originals[0]
        grid = build_grid(2, 4.0, 8)
        dec = estimates.eigendecompose(spectral.assemble(grid, constant(1.0)))
        spectral.heat_kernel(dec, 1.0)          # reaches multiplier_kernel by global
        grid.pair_distances()
    assert (spectral.eigendecompose, estimates.eigendecompose, cli.eigendecompose,
            spectral.multiplier_kernel, Grid.pair_distances) == originals
    m = span_metrics(tr.spans, wall=1.0)
    assert m["spectral.eigendecompose.calls"] == 1
    assert m["spectral.multiplier_kernel.calls"] == 1
    assert m["spectral.multiplier_kernel.gflop"] == 2.0 * 64 ** 3 / 1e9
    assert m["spectral.multiplier_kernel.table_mb"] == 64 * 64 * 8 / 2 ** 20
    assert m["grid.pair_distances.mb"] == 64 * 64 * 8 / 2 ** 20


def test_subnormal_multiplier_is_counted():
    import subheat.spectral as spectral
    from subheat.grid import build_grid
    from subheat.potentials import constant

    dec = spectral.eigendecompose(spectral.assemble(build_grid(1, 4.0, 8), constant(1.0)))
    tr = Tracer()
    with tracer.patched(tr):
        spectral.multiplier_kernel(dec, lambda lam: np.exp(-1.0 * lam), 1.0)
        spectral.multiplier_kernel(dec, lambda lam: np.where(lam > lam[0], 1e-310, 1.0),
                                   1.0)
    assert span_metrics(tr.spans, 1.0)["spectral.multiplier_kernel.subnormal_calls"] == 1
