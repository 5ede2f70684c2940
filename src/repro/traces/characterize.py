"""Trace characterization: measure what a workload actually does.

The paper motivates LOCO with workload properties (working-set sizes,
sharing degree, spatial communication patterns from Barrow-Williams et
al.). This module measures those properties *from traces*, so presets
can be validated against their intent and users can characterize their
own traces before simulating them.
"""

from __future__ import annotations

from collections import Counter as TallyCounter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.traces.events import Op, TraceEvent


@dataclass(frozen=True)
class TraceProfile:
    """Aggregate properties of a multi-core trace."""

    num_cores: int
    total_refs: int
    total_instructions: int
    write_fraction: float
    footprint_lines: int            # distinct lines chip-wide
    max_core_footprint: int         # largest per-core distinct-line count
    min_core_footprint: int
    shared_lines: int               # lines touched by >= 2 cores
    shared_access_fraction: float   # accesses landing on shared lines
    mean_sharers: float             # avg cores touching a shared line
    max_sharers: int
    barriers: int
    lock_sections: int

    @property
    def sharing_ratio(self) -> float:
        """Fraction of the footprint that is shared."""
        if self.footprint_lines == 0:
            return 0.0
        return self.shared_lines / self.footprint_lines

    @property
    def imbalance_ratio(self) -> float:
        """Max/min per-core footprint (1.0 = perfectly balanced)."""
        if self.min_core_footprint == 0:
            return float("inf") if self.max_core_footprint else 1.0
        return self.max_core_footprint / self.min_core_footprint


def characterize(traces: Sequence[Sequence[TraceEvent]]) -> TraceProfile:
    """Profile a per-core trace list."""
    touchers: Dict[int, set] = {}
    access_count: TallyCounter = TallyCounter()
    per_core_footprint: List[int] = []
    total_refs = 0
    total_instr = 0
    writes = 0
    barriers = 0
    locks = 0
    for core, trace in enumerate(traces):
        lines = set()
        for ev in trace:
            total_instr += ev.gap + 1
            if ev.op is Op.BARRIER:
                barriers += 1
                continue
            if ev.op is Op.LOCK:
                locks += 1
            total_refs += 1
            if ev.is_write:
                writes += 1
            lines.add(ev.line_addr)
            access_count[ev.line_addr] += 1
            touchers.setdefault(ev.line_addr, set()).add(core)
        per_core_footprint.append(len(lines))
    shared = {ln for ln, cores in touchers.items() if len(cores) >= 2}
    shared_accesses = sum(access_count[ln] for ln in shared)
    sharer_counts = [len(touchers[ln]) for ln in shared]
    return TraceProfile(
        num_cores=len(traces),
        total_refs=total_refs,
        total_instructions=total_instr,
        write_fraction=writes / total_refs if total_refs else 0.0,
        footprint_lines=len(touchers),
        max_core_footprint=max(per_core_footprint, default=0),
        min_core_footprint=min(per_core_footprint, default=0),
        shared_lines=len(shared),
        shared_access_fraction=(shared_accesses / total_refs
                                if total_refs else 0.0),
        mean_sharers=(sum(sharer_counts) / len(sharer_counts)
                      if sharer_counts else 0.0),
        max_sharers=max(sharer_counts, default=0),
        barriers=barriers,
        lock_sections=locks,
    )


def capacity_pressure(profile: TraceProfile, l2_slice_lines: int,
                      cluster_size: int, num_clusters: int
                      ) -> Dict[str, float]:
    """Footprint-to-capacity ratios against the three pooling levels
    the paper compares (private slice / cluster / whole chip).

    Values > 1 mean the working set oversubscribes that level — the
    capacity anchors ``repro.traces.benchmarks`` places workloads
    around.
    """
    per_core = profile.footprint_lines / max(1, profile.num_cores)
    return {
        "private_slice": profile.max_core_footprint / max(1, l2_slice_lines),
        "cluster": (per_core * cluster_size
                    / max(1, l2_slice_lines * cluster_size)),
        "chip": (profile.footprint_lines
                 / max(1, l2_slice_lines * cluster_size * num_clusters)),
    }


def profile_report(profile: TraceProfile) -> str:
    """Human-readable characterization summary."""
    return "\n".join([
        f"cores:                {profile.num_cores}",
        f"memory references:    {profile.total_refs}",
        f"instructions:         {profile.total_instructions}",
        f"write fraction:       {profile.write_fraction:.2f}",
        f"footprint (lines):    {profile.footprint_lines}",
        f"per-core footprint:   {profile.min_core_footprint}"
        f"..{profile.max_core_footprint}"
        f" (imbalance {profile.imbalance_ratio:.1f}x)",
        f"shared lines:         {profile.shared_lines} "
        f"({100 * profile.sharing_ratio:.0f}% of footprint)",
        f"shared accesses:      {100 * profile.shared_access_fraction:.0f}%",
        f"mean/max sharers:     {profile.mean_sharers:.1f} / "
        f"{profile.max_sharers}",
        f"barriers:             {profile.barriers}",
        f"lock sections:        {profile.lock_sections}",
    ])
