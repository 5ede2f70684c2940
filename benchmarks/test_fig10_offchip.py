"""Figure 10: off-chip memory accesses normalized to shared.

Paper result: IVR cuts off-chip accesses by 15.6% (64c) / 17.9% (256c)
over LOCO CC+VMS, landing near the shared cache overall. Reproduction
target: +IVR strictly below CC+VMS on capacity-pressured workloads.
"""

from repro.harness import figures
from repro.harness.report import format_table


def test_fig10_64(benchmark, bench_scale, bench_set, cache_dir):
    rows = benchmark.pedantic(
        lambda: figures.figure10(benchmarks=bench_set, cores=64,
                                 scale=bench_scale, verbose=False,
                                 cache_dir=cache_dir),
        rounds=1, iterations=1)
    print()
    print(format_table("Figure 10a: normalized off-chip accesses (64c)",
                       rows))
    vms = sum(r["LOCO CC+VMS"] for r in rows.values()) / len(rows)
    ivr = sum(r["LOCO CC+VMS+IVR"] for r in rows.values()) / len(rows)
    assert ivr < vms, (f"IVR ({ivr:.2f}) should reduce off-chip traffic "
                       f"below CC+VMS ({vms:.2f})")
