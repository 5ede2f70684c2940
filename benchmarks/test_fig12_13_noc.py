"""Figures 12-13: LOCO on SMART vs conventional NoC vs high-radix.

Paper results: a conventional NoC roughly doubles L2 hit latency and
search delay (256c: 2.01x / 1.99x); high-radix routers are worst on hit
latency (3.10x) because every local hop pays the 4-stage pipeline.
Runtime: LOCO+SMART is 18.9% (64c) / 24.6% (256c) faster than
LOCO+conventional, and high-radix underperforms even conventional.
"""

from functools import partial

from repro.harness import figures


def test_fig12(run_figure, bench_scale, bench_set):
    lat, _search = run_figure(partial(figures.fig12, benchmarks=bench_set,
                                      cores=64, scale=bench_scale))
    smart = sum(r["SMART"] for r in lat.values()) / len(lat)
    conv = sum(r["Conv"] for r in lat.values()) / len(lat)
    radix = sum(r["HighRadix"] for r in lat.values()) / len(lat)
    assert smart < conv, "SMART must beat a conventional NoC on hit latency"
    assert smart < radix, "SMART must beat high-radix on hit latency"


def test_fig13(run_figure, bench_scale, bench_set):
    rows, = run_figure(partial(figures.fig13, benchmarks=bench_set,
                               cores=64, scale=bench_scale))
    smart = sum(r["SMART"] for r in rows.values()) / len(rows)
    conv = sum(r["Conv"] for r in rows.values()) / len(rows)
    assert smart < conv, (
        f"LOCO+SMART ({smart:.3f}) must be faster than "
        f"LOCO+conventional ({conv:.3f})")
