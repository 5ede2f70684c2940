"""Experiment execution backends: in-process, process pool, service.

Every figure of the paper is a sweep of *independent* full-system
simulations (organizations x benchmarks x cluster sizes), so the
experiment layer parallelizes trivially: each
:class:`~repro.harness.units.SweepUnit` (the one unit type; a Table-2
multi-program workload is just its benchmark name) is simulated
somewhere — in this process, in a ``ProcessPoolExecutor`` worker, or
on a remote worker of the :mod:`repro.service` fleet — and reduced to
a result row.
Determinism is preserved everywhere — each run's RNG streams are seeded
from its own :class:`ExperimentConfig` (``seed`` field), never from
worker identity or scheduling order, so every backend returns
**bit-identical rows in the same order**.

:func:`run_units` is the dispatch every sweep goes through, and it
simulates each config once per call. Besides it:

* :func:`aggregate_stats` — fold many runs' :class:`Stats` into one via
  ``Stats.merge`` (cross-benchmark roll-ups, fleet dashboards).
* JSON result caching keyed on the unit hash (``cache_dir=``):
  re-running a sweep after an interrupt, or growing one axis, only
  simulates the missing cells. The coordinator's result memo uses the
  same key but other file names (``<key>.result.json``, not
  ``<key>.json``), so the two directories do not serve each other.
* warmup-image reuse (``warmup_cache=``): the caller's store is the
  only thing that knows which cells share a warmup image; the local
  backends hand it to every cell, the fleet never sees it.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple,
                    Union)

from repro.harness.experiment import ExperimentConfig, WarmupImageCache
from repro.harness.units import SweepUnit, merged_metric, project
from repro.sim.snapshot import save_file
from repro.sim.stats import Stats

__all__ = ["run_units", "aggregate_stats", "pmap"]


def pmap(fn, items: Sequence[Any], jobs: Optional[int] = None) -> List[Any]:
    """Order-preserving parallel map over a process pool.

    The generic fan-out primitive for non-sweep work units (the fuzz
    harness spreads seeds through this). ``fn`` and every item must be
    picklable; ``jobs`` <= 1 (or a single item) runs in-process through
    the same code path. Defaults to ``os.cpu_count()`` workers."""
    items = list(items)
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    # Cap at the fan-out: a pool of cpu_count() workers for a 2-item
    # map forks (and then immediately reaps) a pile of idle processes.
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


def _run_unit(args: Tuple[SweepUnit, Optional[WarmupImageCache]]) -> Any:
    """Simulate one unit against the image store the dispatch chose
    (module-level so a pool can pickle it; a directory-backed store
    pickles as its path and each worker re-opens it)."""
    unit, images = args
    return unit.run(warmup_images=images)


def _copy_images(src: WarmupImageCache, dst: WarmupImageCache) -> None:
    """Give ``dst`` every image ``src`` holds that it lacks."""
    for key in src.keys():
        if dst.get(key) is None:
            blob = src.get(key)
            if blob is not None:
                dst.put(key, blob)


def run_units(units: Sequence[SweepUnit],
              jobs: Optional[int] = None,
              cache_dir: Optional[str] = None,
              warmup_cache: Union[None, str, WarmupImageCache] = None,
              service: Optional[str] = None,
              batch: Optional[int] = None) -> List[Any]:
    """Execute work units, preserving input order.

    One simulation per config per call, on every backend: the
    outstanding units of one :class:`ExperimentConfig` (a
    ``metric=[...]`` sweep, exact duplicates, a full-result unit next
    to named ones, a ``max_cycles`` ladder) are dispatched as one cell
    at the group's smallest horizon, whose metric covers them all, and
    each gets its own reduction of that run — the value, and the
    ``cache_dir`` entry under its own key, it would have got alone. A
    horizon only decides whether a run finishes: one that finishes
    follows the same trajectory under every larger horizon, so when
    the smallest rung cannot finish, the call raises the
    ``SimulationError`` naming it and caches nothing of that group. A
    unit that is alone in its group is dispatched as it is.

    ``jobs`` <= 1 (or a single cell) runs in-process — same code path,
    no pool overhead. ``cache_dir`` enables the JSON metric cache;
    full-``RunResult`` units (metric None) are never cached (they are
    not JSON-serializable by design). Results are cached as they
    arrive, so an interrupt or a failing later cell keeps every
    completed one — the resumability the cache exists for. A cache
    file that does not hold what its unit reduces to is a miss.

    ``warmup_cache`` (a :class:`WarmupImageCache` or a directory) is
    the caller's store of warmup checkpoints: every cell forks from
    its config's image when the store holds one and adds it otherwise,
    so a later call over the kept store skips every warmup this one
    simulated. A memory-only store keeps that contract across a pool:
    its images seed a transient directory the workers share, and the
    images they build are folded back into it.

    ``service="host:port"`` ships the cells to a running
    :mod:`repro.service` fleet instead (``jobs`` is then ignored): the
    coordinator hands them out in order to workers with a free slot
    (each holds two, so the next cell is queued before a result goes
    out) and streams rows back. The local ``cache_dir`` still
    short-circuits units it already holds, and absorbs the returned
    rows, so local and service sweeps share one resumable cache.
    ``warmup_cache`` is local only: fleet workers run every cell cold.
    Rows are identical either way.

    ``batch=S`` routes compatible units through the lockstep BatchSim
    backend (:mod:`repro.batch`) in groups of up to S before anything
    reaches the pool: single-tile trace-mode cells batch, everything
    else falls through to the scalar path unchanged. Batched rows are
    bit-identical to scalar rows, so the JSON cache, golden stats and
    result semantics are unaffected. Ignored on the service path and
    with a ``warmup_cache`` (every cell then adds its image).
    """
    out: List[Any] = [None] * len(units)
    todo: Dict[ExperimentConfig, List[int]] = {}
    for i, unit in enumerate(units):
        out[i] = _cache_load(cache_dir, unit)
        if out[i] is None:
            todo.setdefault(unit.exp, []).append(i)
    # One simulation per config: the outstanding units of one config
    # share one cell at their smallest horizon, whose metric serves
    # them all. A unit alone in its group is its own cell.
    work: List[Tuple[SweepUnit, List[int]]] = [
        (units[group[0]] if len(group) == 1 else
         SweepUnit(exp, min(units[i].max_cycles for i in group),
                   merged_metric([units[i].metric for i in group])),
         group) for exp, group in todo.items()]

    # The batcher and both backends take the outstanding cells and
    # report each value by its position among them, as it arrives.
    def record(pos: int, value: Any) -> None:
        cell, group = work[pos]
        # Every member is reduced before any is stored: a bad name
        # caches nothing of its group.
        values = [project(value, cell.metric, units[i].metric)
                  for i in group]
        for i, reduced in zip(group, values):
            out[i] = reduced
            _cache_store(cache_dir, units[i], reduced)

    if work and batch is not None and batch >= 1 and service is None \
            and warmup_cache is None:
        from repro.batch import run_batched

        done = run_batched([cell for cell, _ in work], batch)
        for pos, value in done.items():
            record(pos, value)
        work = [pair for pos, pair in enumerate(work) if pos not in done]
    if not work:
        return out
    cells = [cell for cell, _ in work]
    if service is not None:
        from repro.service.client import ServiceClient

        with ServiceClient(service) as client:
            client.run_units(cells, on_row=record)
    else:
        if warmup_cache is not None and \
                not isinstance(warmup_cache, WarmupImageCache):
            warmup_cache = WarmupImageCache(warmup_cache)
        _run_local(cells, record, jobs, warmup_cache)
    return out


def _run_local(cells: List[SweepUnit], on_row: Callable[[int, Any], None],
               jobs: Optional[int],
               images: Optional[WarmupImageCache]) -> None:
    """The in-process / process-pool backend of :func:`run_units`:
    serial and pooled are one loop that hands every cell the caller's
    image store (or None) and differs only in which ``map`` runs
    :func:`_run_unit`."""
    pooled = jobs is not None and jobs > 1 and len(cells) > 1
    with contextlib.ExitStack() as stack:
        run_all = map
        if pooled:
            if images is not None and images.cache_dir is None:
                # Images cross process boundaries on disk: a memory-
                # only store seeds a transient directory, and the
                # images workers build are folded back into it before
                # the directory is removed.
                shared = WarmupImageCache(stack.enter_context(
                    tempfile.TemporaryDirectory(
                        prefix="repro-warmup-",
                        ignore_cleanup_errors=True)))
                _copy_images(images, shared)
                stack.callback(_copy_images, shared, images)
                images = shared
            # Capped at the fan-out, like pmap (a fork-start pool
            # launches every worker up front).
            run_all = stack.enter_context(ProcessPoolExecutor(
                max_workers=min(jobs, len(cells)))).map
        for pos, value in enumerate(run_all(
                _run_unit, [(cell, images) for cell in cells])):
            on_row(pos, value)


def _row_value_ok(unit: SweepUnit, value: Any) -> bool:
    """Is ``value`` what a metric-reduced ``unit`` reduces to: a number
    for one name, a dict of numbers covering exactly the names of a
    tuple? (The only values the JSON cache stores or serves.)"""
    if isinstance(unit.metric, str):
        return isinstance(value, (int, float))
    return (isinstance(value, dict) and value.keys() == set(unit.metric)
            and all(isinstance(v, (int, float)) for v in value.values()))


def _cache_load(cache_dir: Optional[str], unit: SweepUnit) -> Any:
    """The cached row value of ``unit``, or None: a missing, unreadable
    or malformed file is a miss (the recompute repairs it)."""
    if cache_dir is None or unit.metric is None:
        return None
    path = os.path.join(cache_dir, unit.key() + ".json")
    try:
        with open(path) as f:
            value = json.load(f)["value"]
    except (OSError, ValueError, KeyError, TypeError):
        return None
    return value if _row_value_ok(unit, value) else None


def _cache_store(cache_dir: Optional[str], unit: SweepUnit,
                 value) -> None:
    if cache_dir is None or unit.metric is None:
        return
    if not _row_value_ok(unit, value):
        return  # only JSON-scalar metric reductions are cacheable
    os.makedirs(cache_dir, exist_ok=True)
    # atomic publish: concurrent sweeps may share the dir
    save_file(os.path.join(cache_dir, unit.key() + ".json"), json.dumps({
        "unit": repr(unit), "value": value}).encode())


def aggregate_stats(results: Sequence[Any]) -> Stats:
    """Merge the ``stats`` of many :class:`RunResult`-like objects (or
    raw :class:`Stats`) into one, via ``Stats.merge``."""
    total = Stats()
    for r in results:
        total.merge(r if isinstance(r, Stats) else r.stats)
    return total
