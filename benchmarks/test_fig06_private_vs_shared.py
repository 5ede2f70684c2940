"""Figure 6: normalized runtime of private vs shared caches (64c).

Paper result: private is on average 2.3x slower than shared (small
64 KB slices thrash). Reproduction target: ratio > 1 on shared-heavy
workloads, growing with working-set pressure.
"""

from repro.harness import figures


def test_fig06(benchmark, bench_scale, bench_set, cache_dir):
    rows = benchmark.pedantic(
        lambda: figures.figure6(benchmarks=bench_set, scale=bench_scale,
                                verbose=False, cache_dir=cache_dir),
        rounds=1, iterations=1)
    print()
    from repro.harness.report import format_table
    print(format_table("Figure 6: private/shared runtime (64c)", rows))
    ratios = [cells["Private/Shared"] for cells in rows.values()]
    avg = sum(ratios) / len(ratios)
    assert avg > 1.0, (
        f"private should be slower than shared on average, got {avg:.2f}")
