"""Figure 14: cluster size/topology study (4x1, 8x1, 4x4 on 64 cores).

Paper results: smaller clusters reduce L2 hit latency (4x1 by ~1.17
cycles, 8x1 by ~0.45) but raise miss rates (~35% / ~20%); the best
shape is application-dependent (4x1 worst for swaptions, best for
water_spatial).
"""

from functools import partial

from repro.harness import figures


def test_fig14(run_figure, bench_scale):
    benches = ["swaptions", "water_spatial"]
    # tables 14a-d: hit latency, MPKI, search delay, normalized runtime
    lat, mpki, _search, _runtime = run_figure(partial(
        figures.fig14, benchmarks=benches, scale=bench_scale))
    # smaller clusters -> lower hit latency, higher MPKI (averaged)
    avg = lambda rows, col: sum(r[col] for r in rows.values()) / len(rows)  # noqa: E731
    assert avg(lat, "4x1") <= avg(lat, "4x4") + 0.5, \
        "smaller clusters should not have substantially worse hit latency"
    assert avg(mpki, "4x1") > avg(mpki, "4x4"), \
        "smaller clusters should miss more (less pooled capacity)"
