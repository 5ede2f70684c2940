"""Synthetic multi-threaded workload generator.

Substitute for Graphite-captured SPLASH-2 / PARSEC traces. A
:class:`WorkloadSpec` captures exactly the workload properties the
paper's effects hinge on:

* per-core private working-set size vs. the L2 slice / cluster capacity
  (drives private-cache thrashing and IVR's capacity benefit);
* the fraction of accesses to shared data and the *spatial pattern* of
  sharing — ``neighbor`` (sharer groups of adjacent cores, like
  blackscholes/lu/radix per the Barrow-Williams characterization the
  paper cites) vs ``uniform`` (chip-wide sharer sets, like barnes/fft);
* read/write mix (drives invalidation broadcasts);
* temporal locality via a Zipf reuse distribution;
* optional barrier/lock events for full-system dependency effects.

Addresses are synthesized so each core's private region, each sharing
group's region, and lock lines never collide. Generation is
deterministic given (spec, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence

import numpy as np

from repro.errors import TraceError
from repro.sim.rng import RngStreams
from repro.traces.events import Op, TraceEvent

#: address-space carving (line addresses)
_PRIVATE_STRIDE = 1 << 20   # per-core private region size
_SHARED_BASE = 1 << 26      # shared regions start here
_SHARED_STRIDE = 1 << 20    # per-group shared region size
_LOCK_BASE = 1 << 30        # lock lines live here


@dataclass(frozen=True)
class WorkloadSpec:
    """Knobs describing one synthetic benchmark."""

    name: str
    refs_per_core: int = 300
    private_lines: int = 2048        # per-core private working set
    shared_lines: int = 1024         # per sharing-group working set
    shared_fraction: float = 0.3     # accesses hitting shared data
    write_fraction: float = 0.25     # stores among all accesses
    sharing: str = "neighbor"        # "neighbor" | "uniform"
    group_size: int = 16             # cores per sharing group (neighbor)
    zipf_alpha: float = 0.7          # temporal locality (0 = uniform)
    gap_mean: float = 2.0            # mean compute gap between refs
    barrier_every: int = 0           # refs between barriers (0 = none)
    locks: int = 0                   # number of lock lines per group
    lock_period: int = 0             # refs between critical sections
    imbalance: float = 0.0           # 0..1: fraction of sharing groups made
    #                                  "light" (1/8 the private WS). Heavy
    #                                  groups overflow their cluster; light
    #                                  clusters become IVR spill targets.

    def __post_init__(self) -> None:
        if not 0.0 <= self.shared_fraction <= 1.0:
            raise TraceError("shared_fraction must be in [0,1]")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise TraceError("write_fraction must be in [0,1]")
        if self.sharing not in ("neighbor", "uniform"):
            raise TraceError(f"unknown sharing pattern {self.sharing!r}")
        if self.refs_per_core < 1 or self.private_lines < 1:
            raise TraceError("refs_per_core and private_lines must be >= 1")
        if self.group_size < 1:
            raise TraceError("group_size must be >= 1")

    def scaled(self, factor: float) -> "WorkloadSpec":
        """A copy with the trace length scaled by ``factor``."""
        return replace(self, refs_per_core=max(1, int(self.refs_per_core
                                                      * factor)))


def _zipf_ranks(rng: np.random.Generator, n_items: int, count: int,
                alpha: float) -> np.ndarray:
    """``count`` indices in [0, n_items) with Zipf-ish popularity."""
    if n_items == 1:
        return np.zeros(count, dtype=np.int64)
    if alpha <= 0.0:
        return rng.integers(0, n_items, size=count)
    # Inverse-CDF sampling of a truncated zeta distribution.
    ranks = np.arange(1, n_items + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    u = rng.random(count)
    return np.searchsorted(cdf, u).astype(np.int64)


class TraceGenerator:
    """Generates per-core traces from a :class:`WorkloadSpec`."""

    def __init__(self, spec: WorkloadSpec, num_cores: int,
                 seed: int = 1) -> None:
        self.spec = spec
        self.num_cores = num_cores
        self.seed = seed
        self._rng = RngStreams(seed)
        self._region_offsets: dict = {}

    # ------------------------------------------------------------------
    def group_of(self, core: int) -> int:
        """Sharing-group id of a core."""
        if self.spec.sharing == "uniform":
            return 0
        return core // self.spec.group_size

    def private_region(self, core: int) -> int:
        """Base line address of a core's private region. The random
        sub-region offset models random physical page placement:
        without it every region starts congruent to 0 modulo the cache
        set count and all cores' Zipf-hot heads collide in the same
        sets chip-wide — an artifact no real system exhibits."""
        return (core + 1) * _PRIVATE_STRIDE + self._offset(("priv", core))

    def shared_region(self, group: int) -> int:
        return (_SHARED_BASE + group * _SHARED_STRIDE
                + self._offset(("shared", group)))

    def _offset(self, key) -> int:
        if key not in self._region_offsets:
            name = f"region.{key[0]}.{key[1]}"
            self._region_offsets[key] = self._rng.randint(name, 0, 1 << 18)
        return self._region_offsets[key]

    def lock_line(self, group: int, lock: int) -> int:
        return _LOCK_BASE + group * 64 + lock

    # ------------------------------------------------------------------
    def generate(self) -> List[List[TraceEvent]]:
        """One trace per core, deterministically."""
        return [self.generate_core(core) for core in range(self.num_cores)]

    def generate_core(self, core: int) -> List[TraceEvent]:
        spec = self.spec
        rng = self._rng.stream(f"trace.{spec.name}.core{core}")
        n = spec.refs_per_core
        group = self.group_of(core)

        heavy = True
        if spec.imbalance > 0.0:
            # Deterministic light/heavy split at sharing-group
            # granularity: the first ``imbalance``-fraction of groups is
            # light, so whole clusters have spare capacity for IVR.
            num_groups = max(1, -(-self.num_cores // spec.group_size))
            heavy = group >= spec.imbalance * num_groups
        private_lines = spec.private_lines if heavy \
            else max(8, spec.private_lines // 8)

        is_shared = rng.random(n) < spec.shared_fraction
        is_write = rng.random(n) < spec.write_fraction
        gaps = rng.poisson(spec.gap_mean, size=n) if spec.gap_mean > 0 \
            else np.zeros(n, dtype=np.int64)
        priv_idx = _zipf_ranks(rng, private_lines, n, spec.zipf_alpha)
        shared_idx = _zipf_ranks(rng, max(1, spec.shared_lines), n,
                                 spec.zipf_alpha)
        # Per-core offset de-correlates Zipf hotspots between cores for
        # private data while keeping shared hotspots genuinely shared.
        priv_base = self.private_region(core)
        shared_base = self.shared_region(group)

        events: List[TraceEvent] = []
        refs_since_barrier = 0
        refs_since_lock = 0
        lock_open: Optional[int] = None
        barrier_seq = 0
        for i in range(n):
            # close a critical section before too long
            if lock_open is not None and refs_since_lock >= 4:
                events.append(TraceEvent(Op.UNLOCK, lock_open, 0))
                lock_open = None
            if spec.locks and spec.lock_period and lock_open is None \
                    and i > 0 and i % spec.lock_period == 0:
                lock_id = int(rng.integers(0, spec.locks))
                lock_open = self.lock_line(group, lock_id)
                events.append(TraceEvent(Op.LOCK, lock_open, 0))
                refs_since_lock = 0
            if spec.barrier_every and \
                    refs_since_barrier >= spec.barrier_every:
                if lock_open is not None:
                    events.append(TraceEvent(Op.UNLOCK, lock_open, 0))
                    lock_open = None
                events.append(TraceEvent(Op.BARRIER, barrier_seq, 0))
                barrier_seq += 1
                refs_since_barrier = 0
            if is_shared[i]:
                addr = shared_base + int(shared_idx[i])
            else:
                addr = priv_base + int(priv_idx[i])
            op = Op.STORE if is_write[i] else Op.LOAD
            events.append(TraceEvent(op, addr, int(gaps[i])))
            refs_since_barrier += 1
            refs_since_lock += 1
        if lock_open is not None:
            events.append(TraceEvent(Op.UNLOCK, lock_open, 0))
        return events


def generate_traces(spec: WorkloadSpec, num_cores: int,
                    seed: int = 1) -> List[List[TraceEvent]]:
    """Convenience wrapper: per-core traces for ``spec``."""
    return TraceGenerator(spec, num_cores, seed).generate()
