"""Figure 15: multi-program workloads (Table 2) — off-chip accesses and
runtime normalized to shared.

Paper results: the baseline clustered cache pays +26.6% off-chip
accesses for its isolation; LOCO's IVR pulls that back to +5.1% and
cuts runtime 13.8% vs clustered. Reproduction target: IVR's off-chip
count strictly below plain clustering's.
"""

from functools import partial

from repro.harness import figures

# a spread of Table 2 shapes: 4x1 jobs, 8x1 jobs, 4x4 jobs
WORKLOADS = ["W1", "W6", "W9"]


def test_fig15(run_figure, bench_scale):
    offchip, _runtime = run_figure(partial(
        figures.fig15, workloads=WORKLOADS, scale=bench_scale))
    cc = sum(r["LOCO CC"] for r in offchip.values()) / len(offchip)
    ivr = sum(r["LOCO CC+VMS+IVR"] for r in offchip.values()) / len(offchip)
    assert ivr < cc, (
        f"IVR ({ivr:.2f}) must recover capacity the clustered cache "
        f"wastes ({cc:.2f})")
