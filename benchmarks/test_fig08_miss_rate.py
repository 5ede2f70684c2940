"""Figure 8: L2 misses per 1000 instructions, shared vs LOCO.

Paper result: LOCO's MPKI is within a fraction of a percent of the
shared cache's (clustering pools capacity almost as well as full
sharing). Our metric is stricter than the paper's bar chart: a LOCO
"miss" includes cluster-home misses that are *served on-chip* by other
clusters (which shared, having one home per line chip-wide, never
counts), so a multiple of shared's MPKI is expected; what must hold is
that LOCO stays within a small factor rather than private-cache levels
(which run an order of magnitude above shared on these workloads).
"""

from functools import partial

from repro.harness import figures


def test_fig08_64(run_figure, bench_scale, bench_set):
    rows, = run_figure(partial(figures.fig8, benchmarks=bench_set,
                               cores=64, scale=bench_scale))
    avg_shared = sum(r["Shared"] for r in rows.values()) / len(rows)
    avg_loco = sum(r["LOCO"] for r in rows.values()) / len(rows)
    assert avg_loco < avg_shared * 5.0, (
        f"LOCO MPKI ({avg_loco:.1f}) should stay within a small factor "
        f"of shared ({avg_shared:.1f}), far below private-cache levels")
