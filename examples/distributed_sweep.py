#!/usr/bin/env python3
"""Distributed sweep demo: a coordinator/worker fleet serving a grid.

Starts an in-process coordinator, attaches worker *processes* to it,
and runs an organization-comparison sweep through ``sweep(service=…)``
— the same call that runs serially or on a local pool, now sharded
across a fleet (one unit per configuration: the metrics of a row are
one simulation). The demo then re-submits
the same grid to show the coordinator's result cache answering without
simulating anything, and prints the fleet status a monitoring client
would see.

Run:  python examples/distributed_sweep.py [workers]
"""

import sys
import time

from repro.harness.sweep import sweep
from repro.params import Organization
from repro.service import Coordinator, ServiceClient
from repro.service.worker import spawn_worker_process

SCALE = 0.2  # keep the example quick
ORGS = [Organization.SHARED, Organization.LOCO_CC,
        Organization.LOCO_CC_VMS, Organization.LOCO_CC_VMS_IVR]
METRICS = ["runtime", "mpki"]


def main() -> None:
    try:
        workers = int(sys.argv[1])
    except (IndexError, ValueError):
        workers = 3

    coord = Coordinator()
    address = coord.start()
    procs = [spawn_worker_process(address, name=f"w{i}")
             for i in range(workers)]
    print(f"fleet: coordinator @ {address}, {workers} worker processes")

    try:
        t0 = time.monotonic()
        rows = sweep("water_spatial", metric=METRICS,
                     service=address, organization=ORGS, scale=[SCALE],
                     warmup_fraction=[0.5])
        wall = time.monotonic() - t0
        print(f"\n{len(rows)} rows x {len(METRICS)} metrics in "
              f"{wall:.1f}s (one simulation per row)\n")
        print(f"{'organization':18s} {'runtime':>9s} {'mpki':>8s}")
        for row in rows:
            print(f"{row['organization'].value:18s} "
                  f"{row['runtime']:9d} {row['mpki']:8.3f}")

        # Same grid again: the coordinator's result memo answers
        # every cell without touching a worker.
        t0 = time.monotonic()
        again = sweep("water_spatial", metric=METRICS,
                      service=address, organization=ORGS,
                      scale=[SCALE], warmup_fraction=[0.5])
        print(f"\nre-submit served from the result cache in "
              f"{time.monotonic() - t0:.2f}s (identical: {again == rows})")

        with ServiceClient(address) as client:
            stats = client.status()["stats"]
            # a row's metrics reach the fleet as one unit
            print(f"fleet stats: {stats['units_completed']} units "
                  f"simulated, {stats['served_from_cache']} from cache, "
                  f"{stats['requeues']} requeues")
            client.shutdown()
    finally:
        coord.stop()
        for p in procs:
            try:
                p.wait(timeout=5)
            except Exception:
                p.kill()


if __name__ == "__main__":
    main()
