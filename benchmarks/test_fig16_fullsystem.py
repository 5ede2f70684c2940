"""Figure 16: full-system (dependency-aware) simulation, 64 cores.

Paper result: with busy-waiting captured, LOCO's average runtime
reduction grows to 44.5% (CC 26% + VMS 8% + IVR 10%) — spinning
amplifies every cycle saved on an L2 access. Reproduction target: the
full-system LOCO advantage is at least as large as the trace-driven one
on the same benchmarks.
"""

from repro.harness import figures
from repro.harness.report import format_table

BENCHES = ["blackscholes", "barnes"]


def test_fig16(benchmark, bench_scale, cache_dir):
    mpki, runtime = benchmark.pedantic(
        lambda: figures.figure16(benchmarks=BENCHES, scale=bench_scale,
                                 verbose=False, cache_dir=cache_dir),
        rounds=1, iterations=1)
    print()
    print(format_table("Figure 16a: MPKI, full-system (64c)", mpki))
    print(format_table("Figure 16b: normalized runtime, full-system (64c)",
                       runtime))
    full = sum(r["LOCO CC+VMS+IVR"] for r in runtime.values()) / len(runtime)
    assert full < 1.05, (
        f"full-system LOCO should not lose to shared, got {full:.3f}")
