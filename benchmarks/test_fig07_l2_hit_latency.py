"""Figure 7: L2 hit-latency increase over private caches.

Paper result (64c): LOCO adds ~2.9 cycles over private, shared ~11.5;
at 256c shared grows by another ~4.5 cycles while LOCO stays flat.
Reproduction target: LOCO's increase well below shared's, and the gap
widening at 256 cores.
"""

import os
from functools import partial

import pytest

from repro.harness import figures


def test_fig07_64(run_figure, bench_scale, bench_set):
    rows, = run_figure(partial(figures.fig7, benchmarks=bench_set,
                               cores=64, scale=bench_scale))
    avg_shared = sum(r["Shared"] for r in rows.values()) / len(rows)
    avg_loco = sum(r["LOCO"] for r in rows.values()) / len(rows)
    assert avg_loco < avg_shared, (
        f"LOCO hit-latency increase ({avg_loco:.1f}) should be below "
        f"shared's ({avg_shared:.1f})")


@pytest.mark.skipif(not os.environ.get("REPRO_BENCH_FULL"),
                    reason="256-core bench: set REPRO_BENCH_FULL=1")
def test_fig07_256(run_figure, bench_scale):
    rows, = run_figure(partial(figures.fig7,
                               benchmarks=["blackscholes", "barnes"],
                               cores=256, scale=bench_scale))
    avg_shared = sum(r["Shared"] for r in rows.values()) / len(rows)
    avg_loco = sum(r["LOCO"] for r in rows.values()) / len(rows)
    assert avg_loco < avg_shared
