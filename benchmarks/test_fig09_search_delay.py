"""Figure 9: on-chip data search delay, LOCO CC vs LOCO CC+VMS.

Paper result: VMS broadcasts cut the search cost by 34.8% (64c) and
39.9% (256c) by skipping the directory indirection. Reproduction
target: CC+VMS search delay below CC's on average.
"""

from functools import partial

from repro.harness import figures


def test_fig09_64(run_figure, bench_scale, bench_set):
    rows, = run_figure(partial(figures.fig9, benchmarks=bench_set,
                               cores=64, scale=bench_scale))
    cc = sum(r["LOCO CC"] for r in rows.values()) / len(rows)
    vms = sum(r["LOCO CC+VMS"] for r in rows.values()) / len(rows)
    assert vms < cc, (f"VMS search ({vms:.1f}cy) should beat the "
                      f"directory's ({cc:.1f}cy)")
