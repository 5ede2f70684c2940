"""Single-run experiment driver.

Wraps trace generation + system construction + execution into one
call, with an in-process trace cache so the *same* traces are replayed
across the organizations being compared (paired comparison, as the
paper does).

Warmup-image reuse: every run of a config re-simulates the same
warmup region, so :class:`WarmupImageCache` keeps, in a directory,
one deterministic checkpoint per *config prefix* (everything in
:class:`ExperimentConfig` — the fields that shape the warmed machine —
excluding the post-warmup knobs ``max_cycles``/metric). ``run_benchmark(exp,
warmup_images=cache)`` forks the measured region from the image instead
of re-simulating warmup; results are bit-identical to the cold path.
The image never embeds traces (they are re-derived from the config
seed at restore, so a fresh worker process never depends on this
module's process-global trace cache).
"""

from __future__ import annotations

import gc
import hashlib
import os
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.cmp.system import CmpSystem, RunResult
from repro.errors import ConfigError, SnapshotError
from repro.params import (HierarchyConfig, NocKind, Organization,
                          SystemConfig, paper_config)
from repro.traces.benchmarks import get_benchmark
from repro.traces.events import TraceEvent
from repro.traces.dataflow import dataflow_traces
from repro.traces.multiprogram import WORKLOADS, build_workload
from repro.traces.synthetic import generate_traces

#: trace-length scaling presets
SCALE_SMALL = 0.25    # benches / CI
SCALE_MEDIUM = 1.0    # EXPERIMENTS.md numbers

#: (per-core traces, barrier populations or None)
_Traces = Tuple[List[List[TraceEvent]], Optional[List[int]]]
_trace_cache: Dict[Tuple, _Traces] = {}


@dataclass(frozen=True)
class SpecAxes:
    """The speculative-front-end axis group.

    ``mode`` is "off" (default — bit-identical to the pre-speculation
    simulator) or "on" (cores issue wrong-path loads; committed values
    and committed-order stats are pinned identical to "off" by the
    fuzz differential). ``window`` is the max speculative loads in
    flight per core; ``rate`` the per-committed-memory-op mispredict
    probability (0.0 = only trace-directed SPEC_LOADs speculate).
    """

    mode: str = "off"
    window: int = 8
    rate: float = 0.0


@dataclass(frozen=True)
class HierarchyAxes:
    """The reconfigurable-memory-hierarchy axis group.

    ``scratchpad_fraction`` of each tile's L2 SRAM is carved into a
    software-managed scratchpad (0.0 = the all-cache machine, bit-
    identical to the pre-hierarchy simulator); ``spm_latency`` is the
    local scratchpad access latency in cycles. Per-tile overrides are
    a :class:`repro.params.HierarchyConfig` concern — the sweep axes
    stay chip-wide scalars so units hash and wire-encode trivially.
    """

    scratchpad_fraction: float = 0.0
    spm_latency: int = 2

    def __post_init__(self) -> None:
        if not 0.0 <= self.scratchpad_fraction < 1.0:
            raise ConfigError(
                f"scratchpad_fraction must be in [0, 1), got "
                f"{self.scratchpad_fraction}")
        if self.spm_latency < 1:
            raise ConfigError("spm_latency must be >= 1")


_DEFAULT_HIERARCHY = HierarchyAxes()


@dataclass(frozen=True, repr=False)
class ExperimentConfig:
    """What to run: workload x machine.

    ``benchmark`` names the traces the cores replay: a preset, a
    ``leak_*`` / ``dataflow_*`` scenario, or a Table-2 multi-program
    workload (``"W0"``-``"W9"``; pass the paper's shape for it as
    ``cluster=CLUSTER_SHAPE[name]``).

    The machine-shaping axes live in two frozen, keyword-only
    sub-configs: ``spec`` (:class:`SpecAxes`) and ``hierarchy``
    (:class:`HierarchyAxes`). ``repr`` (and therefore ``SweepUnit.key``/
    ``warmup_key`` hashing and the warmup-image cache identity) of any
    default-hierarchy config is pinned byte-identical to the
    pre-grouping flat-field era by regression tests.
    """

    benchmark: str
    organization: Organization
    cores: int = 64
    noc: NocKind = NocKind.SMART
    cluster: Tuple[int, int] = (4, 4)
    scale: float = SCALE_MEDIUM
    full_system: bool = False
    seed: int = 1
    #: fraction of trace events treated as cache warmup; statistics are
    #: gathered after it (paper: "statistics are gathered at the end of
    #: the parallel portion")
    warmup_fraction: float = 0.35
    #: proportional cache shrink matching the scaled-down traces:
    #: 1/8 of Table 1 by default -> 2 KB L1 slices, 8 KB L2 slices.
    #: Set to 1.0 for the paper's raw geometry.
    cache_scale: float = 0.125
    #: speculative front-end axis group
    spec: SpecAxes = field(kw_only=True, default_factory=SpecAxes)
    #: reconfigurable memory hierarchy axis group
    hierarchy: HierarchyAxes = field(kw_only=True,
                                     default_factory=HierarchyAxes)

    def __repr__(self) -> str:
        # The flat-era repr, byte-for-byte: warmup_key/SweepUnit.key hash
        # repr, so any config expressible before the axis grouping must
        # render exactly as it did then (warmup images and sweep caches
        # stay valid across the redesign). Only a non-default hierarchy
        # — inexpressible pre-grouping — appends a new field.
        s = (f"ExperimentConfig(benchmark={self.benchmark!r}, "
             f"organization={self.organization!r}, cores={self.cores!r}, "
             f"noc={self.noc!r}, cluster={self.cluster!r}, "
             f"scale={self.scale!r}, full_system={self.full_system!r}, "
             f"seed={self.seed!r}, "
             f"warmup_fraction={self.warmup_fraction!r}, "
             f"cache_scale={self.cache_scale!r}, "
             f"speculation={self.spec.mode!r}, "
             f"spec_window={self.spec.window!r}, "
             f"spec_rate={self.spec.rate!r}")
        if self.hierarchy != _DEFAULT_HIERARCHY:
            s += f", hierarchy={self.hierarchy!r}"
        return s + ")"

    def system_config(self) -> SystemConfig:
        cfg = paper_config(self.cores, organization=self.organization)
        cfg = cfg.with_cluster(*self.cluster).with_noc(self.noc)
        if self.cache_scale != 1.0:
            cfg = cfg.with_cache_scale(self.cache_scale)
        if self.hierarchy != _DEFAULT_HIERARCHY:
            cfg = cfg.with_hierarchy(HierarchyConfig(
                scratchpad_fraction=self.hierarchy.scratchpad_fraction,
                spm_latency=self.hierarchy.spm_latency))
        return cfg


#: every axis name a sweep grid may vary: the config's field names
SWEEP_AXES = frozenset(f.name for f in fields(ExperimentConfig))


def _build_leak(exp: ExperimentConfig) -> _Traces:
    from repro.harness.leakage import build_leak_traces  # imports us
    return build_leak_traces(exp)


#: The four trace families a benchmark name can select; the first row
#: claiming the name wins: (claims the name?, the config fields that
#: key its traces besides the name, builder -> (traces, populations)).
_TRACE_FAMILIES = (
    # leakage scenarios derive the probe-line table from the cache
    # geometry, so their key carries the geometry fields too
    (lambda name: name.startswith("leak_"),
     ("cores", "seed", "cache_scale", "cluster"), _build_leak),
    (lambda name: name.startswith("dataflow_"),
     ("cores", "scale", "seed"),
     lambda exp: (dataflow_traces(exp.benchmark, exp.cores,
                                  scale=exp.scale, seed=exp.seed), None)),
    # Table 2 (W0-W9): independent jobs, one barrier population each
    (WORKLOADS.__contains__,
     ("cores", "scale", "full_system", "seed"),
     lambda exp: build_workload(exp.benchmark, num_cores=exp.cores,
                                scale=exp.scale, seed=exp.seed,
                                full_system=exp.full_system)),
    (lambda name: True,
     ("cores", "scale", "full_system", "seed"),
     lambda exp: (generate_traces(
         get_benchmark(exp.benchmark, scale=exp.scale,
                       full_system=exp.full_system),
         exp.cores, seed=exp.seed), None)),
)


def _trace_family(exp: ExperimentConfig) -> Tuple:
    return next(row for row in _TRACE_FAMILIES if row[0](exp.benchmark))


def _trace_key(exp: ExperimentConfig) -> Tuple:
    """What identifies ``exp``'s traces: configs with equal keys replay
    the same events (the paired comparison across organizations)."""
    _claims, key_fields, _build = _trace_family(exp)
    return (exp.benchmark, *(getattr(exp, name) for name in key_fields))


def _traces_for(exp: ExperimentConfig) -> _Traces:
    key = _trace_key(exp)
    if key not in _trace_cache:
        _claims, _key_fields, build = _trace_family(exp)
        _trace_cache[key] = build(exp)
    return _trace_cache[key]


def warmup_key(exp: ExperimentConfig) -> str:
    """The config-prefix hash a warmup image is keyed on.

    Covers every :class:`ExperimentConfig` field (all of them shape the
    warmup region) and nothing else: cells that differ only in
    post-warmup parameters (``max_cycles``, which metric is reduced)
    share one image. ``ExperimentConfig`` is a frozen dataclass of
    scalars and enums, so its repr is deterministic across processes.
    """
    return hashlib.sha256(f"warmup|{exp!r}".encode()).hexdigest()[:24]


_IMAGE_SUFFIX = ".warmup.snap"


class WarmupImageCache:
    """A directory of warmup checkpoints, one file per image.

    The directory is shared across processes and sessions — it is what
    lets pool workers share one store, and what lets a second sweep
    skip every warmup the first one already simulated. Corrupt,
    truncated or version-mismatched images are treated as misses and
    rebuilt (same robustness contract as the sweep JSON cache).
    """

    def __init__(self, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        # Outcome counters, maintained by run_benchmark (not by get():
        # a blob that turns out corrupt/stale forces a full warmup
        # re-simulation and must count as a miss, not a hit).
        self.hits = 0        # restored: warmup re-simulation skipped
        self.misses = 0      # no usable image: warmup simulated (+saved)

    def _path(self, key: str) -> str:
        return os.path.join(self.cache_dir, key + _IMAGE_SUFFIX)

    def get(self, key: str) -> Optional[bytes]:
        try:
            with open(self._path(key), "rb") as f:
                return f.read()
        except OSError:
            return None

    def put(self, key: str, blob: bytes) -> None:
        # On disk only: whole-machine blobs are read once per forked
        # run, and pinning one per config prefix in RAM for the
        # process lifetime adds up over a figure matrix.
        from repro.sim.snapshot import save_file
        os.makedirs(self.cache_dir, exist_ok=True)
        save_file(self._path(key), blob)

    def discard(self, key: str) -> None:
        """Drop a bad image (it will be rebuilt on the next miss)."""
        try:
            os.remove(self._path(key))
        except OSError:
            pass


def run_benchmark(exp: ExperimentConfig,
                  max_cycles: int = 50_000_000,
                  warmup_images: Optional[WarmupImageCache] = None
                  ) -> RunResult:
    """Run one benchmark (or Table-2 workload) under one machine
    configuration.

    With ``warmup_images``, the run forks from the config prefix's
    warmup checkpoint when one exists (bit-identical to the cold path,
    minus the warmup re-simulation) and creates it otherwise.

    The cyclic collector is paused for the whole cell: a running
    machine leaves no cyclic garbage, and :meth:`CmpSystem.close` makes
    the finished one acyclic, so reference counting frees all of it
    when the cell returns (or raises). The caller's
    ``gc.isenabled()`` is restored either way.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        system = _build_or_restore(exp, max_cycles, warmup_images)
        try:
            result = system.resume(max_cycles=max_cycles)
            system.check_token_conservation()
        finally:
            system.close()
        return result
    finally:
        if collecting:
            gc.enable()


def _build_or_restore(exp: ExperimentConfig, max_cycles: int,
                      warmup_images: Optional[WarmupImageCache]
                      ) -> CmpSystem:
    """``exp``'s machine, started: forked from its warmup image when
    ``warmup_images`` holds one, else built cold (and imaged at its
    warmup mark when ``warmup_images`` is given)."""
    traces, populations = _traces_for(exp)
    snapshots = warmup_images is not None and exp.warmup_fraction > 0.0
    if snapshots:
        key = warmup_key(exp)
        blob = warmup_images.get(key)
        if blob is not None:
            try:
                system = CmpSystem.restore(blob, traces)
                warmup_images.hits += 1
                return system
            except SnapshotError:
                # stale/corrupt image: rebuild below, repair the cache
                warmup_images.discard(key)
    speculation = None
    if exp.spec.mode != "off" or exp.benchmark.startswith("leak_"):
        # Leakage benchmarks keep the probe recorder live even with
        # speculation "off" — that is the control arm of the
        # experiment (probe timing with no transient traffic).
        from repro.harness.leakage import spec_config_for
        speculation = spec_config_for(exp)
    system = CmpSystem(exp.system_config(), traces,
                       full_system=exp.full_system,
                       barrier_populations=populations,
                       warmup_fraction=exp.warmup_fraction,
                       speculation=speculation)
    if snapshots:
        warmup_images.misses += 1
        if system.run_until_warmup(max_cycles=max_cycles):
            warmup_images.put(key, system.checkpoint())
    else:
        system.start()
    return system


def clear_trace_cache() -> None:
    _trace_cache.clear()
