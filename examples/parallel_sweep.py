#!/usr/bin/env python3
"""Parallel sweep demo: fan a figure-style grid over a process pool.

Runs the organization x cluster-shape cross product of one benchmark
with ``sweep(jobs=...)`` — every cell is an independent, deterministic
simulation, so the rows are bit-identical to a serial ``sweep`` in the
same order, just wall-clock-divided by the worker count. A JSON result
cache (``.sweep_cache/``) makes re-runs after an interrupt, or with an
extended grid, only simulate the missing cells.

Run:  python examples/parallel_sweep.py [jobs]
"""

import os
import sys
import time

from repro.harness.parallel import aggregate_stats
from repro.harness.sweep import sweep
from repro.params import Organization

SCALE = 0.2  # keep the example quick


def _jobs_from_argv() -> int:
    try:
        return int(sys.argv[1])
    except (IndexError, ValueError):
        return os.cpu_count() or 2

ORGS = [Organization.SHARED, Organization.LOCO_CC,
        Organization.LOCO_CC_VMS, Organization.LOCO_CC_VMS_IVR]
SHAPES = [(4, 1), (4, 4)]


def main() -> None:
    JOBS = _jobs_from_argv()
    t0 = time.monotonic()
    rows = sweep("water_spatial", metric="runtime", jobs=JOBS,
                 cache_dir=".sweep_cache",
                 organization=ORGS, cluster=SHAPES, scale=[SCALE])
    wall = time.monotonic() - t0
    print(f"{len(rows)} runs on {JOBS} workers in {wall:.1f}s\n")
    print(f"{'organization':18s} {'cluster':8s} {'runtime':>9s}")
    for row in rows:
        shape = f"{row['cluster'][0]}x{row['cluster'][1]}"
        print(f"{row['organization'].value:18s} {shape:8s} "
              f"{row['runtime']:9d}")

    # Full-result mode returns RunResult objects, whose Stats merge into
    # one fleet-wide roll-up (Stats.merge under the hood).
    full = sweep("water_spatial", jobs=JOBS,
                 organization=ORGS[:2], scale=[SCALE])
    merged = aggregate_stats([r["result"] for r in full])
    print(f"\nmerged l1 accesses across {len(full)} runs: "
          f"{merged.value('l1_hits') + merged.value('l1_misses')}")


if __name__ == "__main__":
    main()
