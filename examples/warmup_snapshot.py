#!/usr/bin/env python3
"""Warmup-image forking quickstart: pay the warmup once, fork the rest.

Every simulation of one configuration re-simulates the same warmup
region. With ``warmup_snapshots=True`` the first one pauses at the
warmup mark, checkpoints the whole machine (event heap, caches, MSHR
continuations, coherence state, NoC, RNG streams, stats), and every
other one restores that image and simulates only its measured region.
Rows are bit-identical to the cold path — the example asserts it.

A metric list is *not* what this is for: ``sweep(metric=[...])`` reads
every metric off one simulation per configuration, forked or not. Two
shapes do re-simulate a prefix, and both are shown:

1. a ``max_cycles`` ladder — one configuration at several horizons,
   handed to ``run_units`` in one call: the first cell simulates warmup
   + measured region and writes the image, the others fork from it;
2. a second sweep over a kept image store — here other metrics of the
   same configuration, asked for later: it forks from the first call's
   image and never simulates the warmup.

Run:  python examples/warmup_snapshot.py
"""

import time

from repro.harness.experiment import ExperimentConfig, WarmupImageCache
from repro.harness.parallel import run_units
from repro.harness.sweep import sweep
from repro.harness.units import SweepUnit
from repro.params import Organization

BENCH = "water_spatial"
AXES = dict(organization=[Organization.LOCO_CC_VMS_IVR], scale=[0.2],
            warmup_fraction=[0.6])
METRICS = ("runtime", "mpki", "offchip_accesses")
HORIZONS = (50_000_000, 20_000_000, 10_000_000)    # 3 cells, 1 prefix


def main() -> None:
    exp = ExperimentConfig(BENCH, Organization.LOCO_CC_VMS_IVR, scale=0.2,
                           warmup_fraction=0.6)
    ladder = [SweepUnit(exp, horizon, METRICS) for horizon in HORIZONS]

    t0 = time.monotonic()
    cold = run_units(ladder)
    t_cold = time.monotonic() - t0

    cache = WarmupImageCache()      # pass a dir to persist across runs
    t0 = time.monotonic()
    warm = run_units(ladder, warmup_snapshots=True, warmup_cache=cache)
    t_warm = time.monotonic() - t0

    assert warm == cold, "forked rows must be bit-identical to cold"

    print(f"{BENCH} / {exp.organization.value} "
          f"(warmup = 60% of the trace)")
    for m in METRICS:
        print(f"  {m:18s} {warm[0][m]}")
    cells = len(HORIZONS)
    print(f"\ncold ladder: {cells} cells x (warmup + measure)   "
          f"{t_cold:5.1f}s")
    print(f"forked     : 1 warmup + {cells} measured regions  "
          f"{t_warm:5.1f}s   ({t_cold / max(t_warm, 1e-9):.2f}x speedup)")
    print(f"warmup simulations skipped: {cache.hits} of {cells} "
          f"cells (rows bit-identical)")

    # Later, other metrics of the same configuration: a new simulation,
    # forked from the image the ladder left in the store.
    hits = cache.hits
    later = sweep(BENCH, metric=["l2_hit_latency", "l2_misses"],
                  warmup_snapshots=True, warmup_cache=cache, **AXES)
    assert later == sweep(BENCH, metric=["l2_hit_latency", "l2_misses"],
                          **AXES)
    print(f"\nsecond sweep over the kept store: 2 more metrics, "
          f"1 simulation, {cache.hits - hits} forked, "
          f"{cache.misses - 1} warmups re-simulated")


if __name__ == "__main__":
    main()
