"""Benchmark presets modelling the paper's SPLASH-2 / PARSEC workloads.

Each preset is a :class:`WorkloadSpec` whose knobs encode the published
characterization of that benchmark (working-set size, sharing degree,
read/write mix, and — key for LOCO — the *spatial* communication
pattern). The paper (Section 4.3, citing Barrow-Williams et al. [5])
divides them into:

* **neighbour-concentrated** communication — blackscholes, lu, radix,
  water — which benefit from clustering alone;
* **chip-wide** communication — barnes, fft — which need VMS (fast
  global search) or IVR (chip-wide capacity) to improve.

Capacity anchors for the 64-core / Table 1 machine (32 B lines):
an L1 holds 512 lines, one L2 slice 2048, a 4x4 cluster's L2 32768,
and the whole chip 131072. Presets place per-core and per-group
working sets around these boundaries to reproduce the paper's
private-thrashes / shared-fits / LOCO-pools behaviour.

``TRACE_DRIVEN`` lists the eight benchmarks of Figures 6-14;
``FULL_SYSTEM`` the set of Figure 16 (the paper swapped swaptions/vips
for canneal, fft, fmm, fluidanimate, water_nsq there).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import TraceError
from repro.traces.synthetic import WorkloadSpec

#: baseline references per core at scale 1.0 (harness scales this)
_BASE_REFS = 1500

_PRESETS: Dict[str, WorkloadSpec] = {}


def _define(name: str, **kwargs) -> None:
    _PRESETS[name] = WorkloadSpec(name=name, refs_per_core=_BASE_REFS,
                                  **kwargs)


# Capacity anchors at the default 1/8 ``ExperimentConfig.cache_scale``:
# L1 64 lines, L2 slice 256, 4x4 cluster 4096, 64-core chip 16384.
# --- neighbour-concentrated (cluster-friendly) --------------------------
_define("blackscholes",
        private_lines=160, shared_lines=1190, shared_fraction=0.45,
        write_fraction=0.15, sharing="neighbor", zipf_alpha=0.75,
        gap_mean=6.6)
_define("lu",
        private_lines=180, shared_lines=1105, shared_fraction=0.55,
        write_fraction=0.25, sharing="neighbor", zipf_alpha=0.75,
        gap_mean=4.4)
_define("nlu",
        private_lines=200, shared_lines=1360, shared_fraction=0.50,
        write_fraction=0.25, sharing="neighbor", zipf_alpha=0.75,
        gap_mean=4.4)
_define("radix",
        private_lines=260, shared_lines=1700, shared_fraction=0.40,
        write_fraction=0.35, sharing="neighbor", zipf_alpha=0.5,
        gap_mean=3.3)
_define("water_spatial",
        private_lines=140, shared_lines=680, shared_fraction=0.40,
        write_fraction=0.20, sharing="neighbor", zipf_alpha=0.85,
        gap_mean=5.5)
_define("water_nsq",
        private_lines=150, shared_lines=850, shared_fraction=0.45,
        write_fraction=0.22, sharing="neighbor", zipf_alpha=0.8,
        gap_mean=5.5)
_define("fluidanimate",
        private_lines=170, shared_lines=935, shared_fraction=0.45,
        write_fraction=0.25, sharing="neighbor", zipf_alpha=0.75,
        gap_mean=4.4)

# --- chip-wide communication (VMS / IVR territory) -----------------------
_define("barnes",
        private_lines=140, shared_lines=1000, shared_fraction=0.35,
        write_fraction=0.10, sharing="uniform", zipf_alpha=0.8,
        gap_mean=4.4)
_define("fft",
        private_lines=150, shared_lines=2000, shared_fraction=0.45,
        write_fraction=0.30, sharing="uniform", zipf_alpha=0.5,
        gap_mean=3.3)
_define("fmm",
        private_lines=140, shared_lines=950, shared_fraction=0.45,
        write_fraction=0.12, sharing="uniform", zipf_alpha=0.75,
        gap_mean=4.4)
_define("vips",
        private_lines=150, shared_lines=1100, shared_fraction=0.35,
        write_fraction=0.15, sharing="uniform", zipf_alpha=0.7,
        gap_mean=5.5)
_define("ferret",
        private_lines=140, shared_lines=1000, shared_fraction=0.40,
        write_fraction=0.15, sharing="uniform", zipf_alpha=0.7,
        gap_mean=5.5)
_define("canneal",
        private_lines=150, shared_lines=2200, shared_fraction=0.55,
        write_fraction=0.20, sharing="uniform", zipf_alpha=0.55,
        gap_mean=4.4)

# --- capacity-imbalanced (IVR showcase) ----------------------------------
_define("swaptions",
        private_lines=350, shared_lines=102, shared_fraction=0.12,
        write_fraction=0.20, sharing="neighbor", zipf_alpha=0.65,
        gap_mean=6.6, imbalance=0.5)

#: the eight benchmarks of the trace-driven figures (6-14)
TRACE_DRIVEN: List[str] = [
    "barnes", "blackscholes", "lu", "nlu", "radix", "swaptions", "vips",
    "water_spatial",
]

#: the benchmarks of the full-system figure (16)
FULL_SYSTEM: List[str] = [
    "barnes", "blackscholes", "canneal", "fft", "fluidanimate", "fmm",
    "lu", "nlu", "radix", "water_nsq", "water_spatial",
]


def benchmark_names() -> List[str]:
    return sorted(_PRESETS)


def get_benchmark(name: str, scale: float = 1.0,
                  full_system: bool = False) -> WorkloadSpec:
    """The preset for ``name``, optionally scaled and with full-system
    synchronization events (barriers + locks) enabled."""
    if name not in _PRESETS:
        raise TraceError(f"unknown benchmark {name!r}; "
                         f"choose from {benchmark_names()}")
    spec = _PRESETS[name].scaled(scale)
    if full_system:
        from dataclasses import replace
        # A few barriers and critical sections per run: enough for
        # busy-wait amplification, not so many that barrier storms
        # dominate every organization equally.
        refs = spec.refs_per_core
        spec = replace(spec,
                       barrier_every=max(100, refs // 3),
                       locks=2,
                       lock_period=max(30, refs // 8))
    return spec
