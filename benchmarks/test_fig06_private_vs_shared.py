"""Figure 6: normalized runtime of private vs shared caches (64c).

Paper result: private is on average 2.3x slower than shared (small
64 KB slices thrash). Reproduction target: ratio > 1 on shared-heavy
workloads, growing with working-set pressure.
"""

from functools import partial

from repro.harness import figures


def test_fig06(run_figure, bench_scale, bench_set):
    rows, = run_figure(partial(figures.fig6, benchmarks=bench_set,
                               scale=bench_scale))
    ratios = [cells["Private/Shared"] for cells in rows.values()]
    avg = sum(ratios) / len(ratios)
    assert avg > 1.0, (
        f"private should be slower than shared on average, got {avg:.2f}")
