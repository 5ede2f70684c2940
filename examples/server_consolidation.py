#!/usr/bin/env python3
"""Server-consolidation scenario: many independent programs on one CMP
(the paper's multi-program evaluation, Table 2 / Figure 15).

Sixteen 4-thread jobs share a 64-core chip, one job per 4x1 cluster.
Jobs have exclusive address spaces, so clustering gives each job a
private 4-slice cache — but utilization is unbalanced, and that's
exactly what IVR exploits: overloaded jobs spill victims into
underloaded clusters instead of going off-chip.

Run:  python examples/server_consolidation.py
"""

from repro import Organization
from repro.harness.experiment import ExperimentConfig, run_benchmark
from repro.traces.multiprogram import CLUSTER_SHAPE

WORKLOAD = "W1"   # nlu + swaptions + water_nsq + water_spatial, 4x each
SCALE = 0.4


def main() -> None:
    rows = []
    for org in (Organization.SHARED, Organization.LOCO_CC,
                Organization.LOCO_CC_VMS_IVR):
        result = run_benchmark(ExperimentConfig(
            WORKLOAD, org, cluster=CLUSTER_SHAPE[WORKLOAD], scale=SCALE,
            seed=11))
        rows.append((org, result))
        print(f"{org.value:18s} runtime={result.runtime:8d}  "
              f"off-chip accesses={result.offchip_accesses:6d}")

    shared, clustered, loco = (r for _, r in rows)
    print()
    print(f"clustered cache vs shared : "
          f"{clustered.offchip_accesses / max(1, shared.offchip_accesses):.2f}x "
          f"off-chip accesses (isolation wastes capacity)")
    print(f"LOCO (+VMS+IVR) vs shared : "
          f"{loco.offchip_accesses / max(1, shared.offchip_accesses):.2f}x "
          f"off-chip accesses (IVR reclaims idle clusters)")
    print(f"LOCO runtime vs clustered : "
          f"{100 * (1 - loco.runtime / clustered.runtime):.1f}% faster")


if __name__ == "__main__":
    main()
