#!/usr/bin/env python3
"""Warmup-image quickstart: keep the store, skip the warmup next time.

Every simulation of one configuration re-simulates the same warmup
region. With ``warmup_snapshots=True`` and a ``warmup_cache``, a sweep
pauses each machine at its warmup mark, checkpoints it (event queue,
caches, MSHR continuations, coherence state, NoC, RNG streams, stats)
into the store, and finishes the run. A *later* sweep over the same
configurations — here asking for other metrics — restores those images
and simulates only the measured region. Rows are bit-identical to the
cold path; the example asserts it.

Within one sweep there is nothing to fork: every configuration is one
simulation, whatever metrics (or ``max_cycles`` horizons) its cells
read. The store is what carries the warmup from one call to the next;
pass a directory to keep it across processes and sessions.

Run:  python examples/warmup_snapshot.py
"""

import tempfile
import time

from repro.harness.experiment import WarmupImageCache
from repro.harness.sweep import sweep
from repro.params import Organization

BENCH = "water_spatial"
AXES = dict(organization=[Organization.SHARED,
                          Organization.LOCO_CC_VMS_IVR],
            scale=[0.2], warmup_fraction=[0.6])
FIRST = ["runtime", "mpki"]
LATER = ["l2_hit_latency", "l2_misses", "offchip_accesses"]


def timed(**opts):
    t0 = time.monotonic()
    rows = sweep(BENCH, **opts, **AXES)
    return rows, time.monotonic() - t0


def main() -> None:
    with tempfile.TemporaryDirectory() as store_dir:
        cache = WarmupImageCache(store_dir)
        first, t_first = timed(metric=FIRST, warmup_snapshots=True,
                               warmup_cache=cache)
        cold_later, t_cold = timed(metric=LATER)
        later, t_later = timed(metric=LATER, warmup_snapshots=True,
                               warmup_cache=cache)
        assert first == sweep(BENCH, metric=FIRST, **AXES)
        assert later == cold_later, "forked rows must equal cold rows"

    cells = len(first)
    print(f"{BENCH}, {cells} configurations (warmup = 60% of the trace)")
    for row in later:
        print(f"  {row['organization'].value:16s} "
              + "  ".join(f"{m}={row[m]}" for m in LATER))
    print()
    for label, seconds in (
            (f"first sweep: {cache.misses} warmups, images stored", t_first),
            (f"later, cold: {cells} x (warmup + measure)", t_cold),
            (f"later, kept: {cache.hits} forked from the store", t_later)):
        print(f"{label:42s} {seconds:5.1f}s")
    print(f"warmup skipped by the kept store: "
          f"{t_cold / max(t_later, 1e-9):.2f}x (rows bit-identical)")


if __name__ == "__main__":
    main()
