"""Figure 14: cluster size/topology study (4x1, 8x1, 4x4 on 64 cores).

Paper results: smaller clusters reduce L2 hit latency (4x1 by ~1.17
cycles, 8x1 by ~0.45) but raise miss rates (~35% / ~20%); the best
shape is application-dependent (4x1 worst for swaptions, best for
water_spatial).
"""

from repro.harness import figures
from repro.harness.report import format_table


def test_fig14(benchmark, bench_scale, cache_dir):
    benches = ["swaptions", "water_spatial"]
    out = benchmark.pedantic(
        lambda: figures.figure14(benchmarks=benches, scale=bench_scale,
                                 verbose=False, cache_dir=cache_dir),
        rounds=1, iterations=1)
    print()
    for metric, title in [("hit_latency", "14a hit latency"),
                          ("mpki", "14b MPKI"),
                          ("search_delay", "14c search delay"),
                          ("runtime", "14d normalized runtime")]:
        print(format_table(f"Figure {title}", out[metric]))
    # smaller clusters -> lower hit latency, higher MPKI (averaged)
    lat = out["hit_latency"]
    mpki = out["mpki"]
    avg = lambda rows, col: sum(r[col] for r in rows.values()) / len(rows)  # noqa: E731
    assert avg(lat, "4x1") <= avg(lat, "4x4") + 0.5, \
        "smaller clusters should not have substantially worse hit latency"
    assert avg(mpki, "4x1") > avg(mpki, "4x4"), \
        "smaller clusters should miss more (less pooled capacity)"
