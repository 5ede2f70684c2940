"""Figure 16: full-system (dependency-aware) simulation, 64 cores.

Paper result: with busy-waiting captured, LOCO's average runtime
reduction grows to 44.5% (CC 26% + VMS 8% + IVR 10%) — spinning
amplifies every cycle saved on an L2 access. Reproduction target: the
full-system LOCO advantage is at least as large as the trace-driven one
on the same benchmarks.
"""

from functools import partial

from repro.harness import figures

BENCHES = ["blackscholes", "barnes"]


def test_fig16(run_figure, bench_scale):
    _mpki, runtime = run_figure(partial(
        figures.fig16, benchmarks=BENCHES, scale=bench_scale))
    full = sum(r["LOCO CC+VMS+IVR"] for r in runtime.values()) / len(runtime)
    assert full < 1.05, (
        f"full-system LOCO should not lose to shared, got {full:.3f}")
