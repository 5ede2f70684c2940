"""Grouping compatible SweepUnits into lockstep batches.

The batcher is deliberately conservative: it accepts exactly the unit
shapes whose event timing the engine reproduces bit-for-bit (audited
against the scalar controllers), and silently routes everything else
back to the scalar path. Falling back is never an error — partial
coverage of the dominant sweep shapes is the design point.

A unit is batchable when:

* ``cores == 1`` on a ``(1, 1)`` cluster — the single-tile regime in
  which the event machine has a closed form (see
  :mod:`repro.batch.engine`),
* the organization is SHARED, PRIVATE or LOCO_CC (the VMS/token
  organizations add multicast machinery the engine does not model),
* the NoC is SMART (single-tile loopback timing) and the workload is a
  trace-mode benchmark (``full_system`` spins are data-dependent),
* the metric is ``None`` (full ``RunResult``) or drawn from
  :data:`BATCHABLE_METRICS`,
* the memory hierarchy is the default all-cache one and the benchmark
  is not a ``dataflow_*`` workload (the engine models neither
  scratchpad partitions nor SPM ops).

Units are then grouped by :class:`~repro.batch.engine.GroupShape` —
cache geometry, latency class and coherence kind — because lanes in
one lockstep batch share tag/state tensors of one shape. Seed, scale,
benchmark, warmup fraction and cycle limit may all vary per lane.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.harness.experiment import (HierarchyAxes, _trace_key,
                                      _traces_for)
from repro.harness.units import SweepUnit, reduce_result
from repro.params import NocKind, Organization, SystemConfig

from repro.batch.engine import (GroupShape, LaneSpec, mark_event_of,
                                pack_trace, simulate_group)

__all__ = ["BATCHABLE_METRICS", "batchable", "group_shape", "run_batched"]

#: metrics whose derivation from a bit-identical RunResult has been
#: audited (everything here is a plain attribute or a pure function of
#: the stats the engine reproduces exactly)
BATCHABLE_METRICS = frozenset({
    "runtime", "instructions", "finished", "measured_instructions",
    "mpki", "l2_hit_latency", "search_delay", "offchip_accesses",
    "offchip_fetches",
})

_BATCH_ORGS = frozenset({
    Organization.SHARED, Organization.PRIVATE, Organization.LOCO_CC,
})


def _metric_ok(metric: Any) -> bool:
    if metric is None:
        return True
    if isinstance(metric, str):
        return metric in BATCHABLE_METRICS
    if isinstance(metric, tuple):
        return all(m in BATCHABLE_METRICS for m in metric)
    return False


def batchable(unit: SweepUnit) -> bool:
    """Can this unit ride a lockstep batch (bit-identically)?"""
    exp = unit.exp
    return (exp.cores == 1
            and tuple(exp.cluster) == (1, 1)
            and not exp.full_system
            and exp.noc is NocKind.SMART
            and exp.organization in _BATCH_ORGS
            # the lockstep engine has no speculative front-end; spec
            # units fall back to the scalar path
            and exp.spec.mode == "off"
            # ... nor a scratchpad model: hierarchy-partitioned units
            # and the SPM-op dataflow workloads both decline
            and exp.hierarchy == HierarchyAxes()
            and not exp.benchmark.startswith("dataflow_")
            and _metric_ok(unit.metric))


def group_shape(cfg: SystemConfig) -> GroupShape:
    """The lockstep-compatibility key of a batchable unit's machine."""
    kind = "shared" if cfg.organization is Organization.SHARED else "dir"
    return GroupShape(
        org_kind=kind,
        l1_sets=cfg.l1.num_sets, l1_ways=cfg.l1.assoc,
        l2_sets=cfg.l2.num_sets, l2_ways=cfg.l2.assoc,
        l1_lat=cfg.l1.access_latency, l2_lat=cfg.l2.access_latency,
        mem_lat=cfg.memory.access_latency,
        dir_lat=cfg.memory.directory_latency)


def run_batched(units: List[SweepUnit], batch: int) -> Dict[int, Any]:
    """Run every batchable unit in lockstep groups of up to ``batch``.

    Returns ``{index-in-units: reduced value}`` for the units the
    batcher completed. Anything absent — non-batchable shapes, units
    whose config/trace preparation failed, lanes that exceeded their
    cycle limit — is the caller's to run on the scalar path, which
    reports the canonical errors.
    """
    if batch < 1:
        return {}
    groups: Dict[GroupShape, List[Tuple[int, SweepUnit, LaneSpec]]] = {}
    pack_cache: Dict[Tuple, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for i, unit in enumerate(units):
        if not batchable(unit):
            continue
        exp = unit.exp
        try:
            cfg = exp.system_config()
            shape = group_shape(cfg)
            trace = _traces_for(exp)[0][0]
        except Exception:
            continue  # scalar path reports the canonical error
        if not trace:
            continue  # empty trace: scalar degenerate case
        tkey = _trace_key(exp)
        packed = pack_cache.get(tkey)
        if packed is None:
            packed = pack_cache[tkey] = pack_trace(trace)
        lane = LaneSpec(ops=packed[0], addrs=packed[1], gaps=packed[2],
                        mark_event=mark_event_of(exp.warmup_fraction,
                                                 len(trace)),
                        max_cycles=unit.max_cycles, config=cfg)
        groups.setdefault(shape, []).append((i, unit, lane))

    out: Dict[int, Any] = {}
    for shape, members in groups.items():
        for start in range(0, len(members), batch):
            chunk = members[start:start + batch]
            results = simulate_group(shape, [m[2] for m in chunk])
            for (i, unit, _), result in zip(chunk, results):
                if result is None:
                    continue  # cycle-limit lane: scalar path raises
                out[i] = reduce_result(result, unit.metric)
    return out
