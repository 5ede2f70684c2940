"""Figure 9: on-chip data search delay, LOCO CC vs LOCO CC+VMS.

Paper result: VMS broadcasts cut the search cost by 34.8% (64c) and
39.9% (256c) by skipping the directory indirection. Reproduction
target: CC+VMS search delay below CC's on average.
"""

from repro.harness import figures
from repro.harness.report import format_table


def test_fig09_64(benchmark, bench_scale, bench_set, cache_dir):
    rows = benchmark.pedantic(
        lambda: figures.figure9(benchmarks=bench_set, cores=64,
                                scale=bench_scale, verbose=False,
                                cache_dir=cache_dir),
        rounds=1, iterations=1)
    print()
    print(format_table("Figure 9a: on-chip search delay (64c)", rows))
    cc = sum(r["LOCO CC"] for r in rows.values()) / len(rows)
    vms = sum(r["LOCO CC+VMS"] for r in rows.values()) / len(rows)
    assert vms < cc, (f"VMS search ({vms:.1f}cy) should beat the "
                      f"directory's ({cc:.1f}cy)")
