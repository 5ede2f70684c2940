"""Parameter-sweep utility: run a grid of experiment variations.

Used by the ablation benches and available for exploration::

    from repro.harness.sweep import sweep
    rows = sweep("barnes",
                 organization=[Organization.SHARED,
                               Organization.LOCO_CC_VMS_IVR],
                 cores=[64],
                 metric="runtime")

``metric`` may also be a *list* of metrics — each row then carries
every metric column. A list adds columns, not simulations: the grid
still expands to one unit per (config, metric), so each value has its
own ``cache_dir`` entry, but ``run_units`` simulates each machine once
per call (configs that declare one machine share it:
:meth:`ExperimentConfig.machine`) and every unit reads its metric off
that run. Every cell of a sweep is therefore a different machine, and what
``warmup_snapshots=True`` with a ``warmup_cache`` amortises is a
*later* sweep over the same configs: this one checkpoints each machine
at its warmup mark into the store (a :class:`WarmupImageCache` or its
directory), the next forks from those images instead of re-simulating
warmup. Without a ``warmup_cache`` there is
nothing to keep and every cell runs cold. Rows are bit-identical to
the cold path either way.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.errors import ConfigError
from repro.harness.experiment import (SWEEP_AXES, ExperimentConfig,
                                      WarmupImageCache)
from repro.harness.parallel import run_units
from repro.harness.units import SweepUnit


def _validate_axes(axes: Dict[str, Sequence[Any]]) -> None:
    for name in axes:
        if name not in SWEEP_AXES:
            raise ConfigError(
                f"unknown sweep axis {name!r}; valid: {sorted(SWEEP_AXES)}")


def _normalize_metrics(metric) -> List[Optional[str]]:
    """None -> [None] (full results); str -> [str]; sequence -> list."""
    if metric is None:
        return [None]
    if isinstance(metric, str):
        return [metric]
    metrics = list(metric)
    if not metrics or not all(isinstance(m, str) for m in metrics):
        raise ConfigError(f"metric must be a name or a list of names, "
                          f"got {metric!r}")
    return metrics


def grid_units(benchmark: str, metric, max_cycles: int,
               axes: Dict[str, Sequence[Any]]):
    """Expand a sweep grid into its work units.

    The one place the (validate axes -> normalize metrics -> cross
    product -> combo-major/metric-minor unit list) expansion lives.
    Returns ``(names, combos, metrics, units)`` with one
    :class:`SweepUnit` per (combo, metric)."""
    _validate_axes(axes)
    metrics = _normalize_metrics(metric)
    names = list(axes)
    combos = list(itertools.product(*(axes[n] for n in names)))
    units = [SweepUnit(ExperimentConfig(benchmark=benchmark,
                                        **dict(zip(names, combo))),
                       max_cycles, m)
             for combo in combos for m in metrics]
    return names, combos, metrics, units


def _assemble_rows(names: List[str], combos: List[tuple],
                   metrics: List[Optional[str]],
                   values: List[Any]) -> List[Dict[str, Any]]:
    """Fold the flat (combo-major, metric-minor) unit values back into
    one row per combo."""
    rows: List[Dict[str, Any]] = []
    it = iter(values)
    for combo in combos:
        row: Dict[str, Any] = dict(zip(names, combo))
        for m in metrics:
            value = next(it)
            row["result" if m is None else m] = value
        rows.append(row)
    return rows


def sweep(benchmark: str, metric=None,
          max_cycles: int = 50_000_000, jobs: Optional[int] = None,
          cache_dir: Optional[str] = None,
          warmup_snapshots: bool = False,
          warmup_cache: Union[None, str, WarmupImageCache] = None,
          service: Optional[str] = None,
          batch: Optional[int] = None,
          **axes: Sequence[Any]) -> List[Dict[str, Any]]:
    """Run ``benchmark`` for the cross product of ``axes``.

    Each axis keyword must be an :class:`ExperimentConfig` field name
    mapped to a list of values. Returns one dict per config containing
    the axis values plus the named ``metric`` column(s) (or the full
    result).

    The remaining options say how the cells are executed and go
    straight to :func:`repro.harness.parallel.run_units`, which
    documents them: ``jobs`` > 1 is a process pool (``None`` is
    serial), ``cache_dir`` a resumable JSON cache of metric cells,
    ``warmup_snapshots=True`` hands the cells the ``warmup_cache``
    image store (which is otherwise unused), ``service="host:port"``
    ships them to a :mod:`repro.service` fleet, and ``batch=S`` runs
    single-tile cells in lockstep groups of S. Whichever are set, the
    rows are bit-identical and in the same order (per-config
    deterministic seeding).
    """
    names, combos, metrics, units = grid_units(benchmark, metric,
                                               max_cycles, axes)
    values = run_units(units, jobs=jobs, cache_dir=cache_dir,
                       warmup_cache=warmup_cache if warmup_snapshots
                       else None, service=service, batch=batch)
    return _assemble_rows(names, combos, metrics, values)


def best(rows: List[Dict[str, Any]], metric: str,
         minimize: bool = True) -> Dict[str, Any]:
    """The sweep row with the best value of ``metric``."""
    if not rows:
        raise ConfigError("empty sweep")
    pick = min if minimize else max
    return pick(rows, key=lambda r: r[metric])
