#!/usr/bin/env python3
"""Quickstart: build the paper's 64-core CMP, run one workload under
the shared baseline and under full LOCO, and compare.

Run:  python examples/quickstart.py
"""

from repro import CmpSystem, Organization, paper_config
from repro.traces import WorkloadSpec, generate_traces


def main() -> None:
    # A small synthetic multi-threaded workload: 64 threads, 45% of
    # accesses to data shared within 16-core neighbourhoods.
    spec = WorkloadSpec(
        name="quickstart",
        refs_per_core=300,
        private_lines=150,
        shared_lines=1200,
        shared_fraction=0.45,
        write_fraction=0.2,
        sharing="neighbor",
        zipf_alpha=0.75,
    )
    traces = generate_traces(spec, num_cores=64, seed=7)

    results = {}
    for org in (Organization.SHARED, Organization.LOCO_CC_VMS_IVR):
        # paper_config() is Table 1 of the paper; we shrink the caches
        # 8x to match the scaled-down trace (the harness default,
        # ``ExperimentConfig.cache_scale``).
        config = paper_config(64, organization=org).with_cache_scale(0.125)
        system = CmpSystem(config, traces)
        results[org] = system.run()
        print(f"{org.value:18s} runtime={results[org].runtime:8d} cycles  "
              f"L2-hit-latency={results[org].l2_hit_latency:5.1f}  "
              f"MPKI={results[org].mpki:6.1f}  "
              f"off-chip={results[org].offchip_accesses}")

    shared = results[Organization.SHARED]
    loco = results[Organization.LOCO_CC_VMS_IVR]
    speedup = 100.0 * (1 - loco.runtime / shared.runtime)
    print(f"\nLOCO reduces runtime by {speedup:.1f}% over the shared "
          f"baseline on this workload.")


if __name__ == "__main__":
    main()
