"""Figure 10: off-chip memory accesses normalized to shared.

Paper result: IVR cuts off-chip accesses by 15.6% (64c) / 17.9% (256c)
over LOCO CC+VMS, landing near the shared cache overall. Reproduction
target: +IVR strictly below CC+VMS on capacity-pressured workloads.
"""

from functools import partial

from repro.harness import figures


def test_fig10_64(run_figure, bench_scale, bench_set):
    rows, = run_figure(partial(figures.fig10, benchmarks=bench_set,
                               cores=64, scale=bench_scale))
    vms = sum(r["LOCO CC+VMS"] for r in rows.values()) / len(rows)
    ivr = sum(r["LOCO CC+VMS+IVR"] for r in rows.values()) / len(rows)
    assert ivr < vms, (f"IVR ({ivr:.2f}) should reduce off-chip traffic "
                       f"below CC+VMS ({vms:.2f})")
