"""The shared unit-of-work abstraction of the experiment layer.

Every execution backend — the serial ``sweep`` loop, the
``ProcessPoolExecutor`` in :mod:`repro.harness.parallel`, and the
distributed coordinator/worker service in :mod:`repro.service` — runs
the same thing: *simulate one configuration and reduce it*.
:class:`SweepUnit` (one :class:`ExperimentConfig` — a benchmark, a
leakage or dataflow scenario, or a multi-program Table-2 workload — x
horizon x metric) is that unit, the only one: one identity scheme
(cache key), one wire encoding, and one execution path — which is
what keeps every backend's rows bit-identical to each other. Which
units share a warmup image is not the unit's business: only a
caller's :class:`~repro.harness.experiment.WarmupImageCache` and
``run_benchmark`` know it.

Wire completeness: the unit and every value it can reduce to —
including the full :class:`~repro.cmp.system.RunResult` when
``metric`` is None — has an exact JSON encoding here
(:func:`encode_result` / :func:`decode_result`, keyed by a
``__run_result__`` marker). JSON float round-tripping is repr-exact, so
a result decoded from the wire reports every derived metric
bit-identically to the in-process object it was encoded from.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.cmp.system import RunResult
from repro.errors import ConfigError
from repro.harness.experiment import (ExperimentConfig, HierarchyAxes,
                                      SpecAxes, WarmupImageCache,
                                      run_benchmark)
from repro.params import NocKind, Organization, SystemConfig
from repro.sim.stats import Stats

__all__ = ["SweepUnit", "Metric", "metric_of", "reduce_result",
           "encode_result", "decode_result"]

#: what a unit reduces to: the full ``RunResult`` (``None``), one scalar
#: metric (``str``), or a dict of several (tuple of names).
Metric = Union[None, str, Tuple[str, ...]]


def metric_of(result: Any, metric: str) -> Any:
    """Extract one named metric from a ``RunResult``: a number, so it
    fits a result row, the JSON cache and the wire. A name that finds
    anything else (``stats``, ``config``, a method) is not a metric."""
    value = getattr(result, metric, None)
    if value is None:
        value = result.to_dict().get(metric)
    if not isinstance(value, (int, float)):
        raise ConfigError(f"unknown metric {metric!r}")
    return value


def reduce_result(result: Any, metric: Metric) -> Any:
    """What a unit reduces its ``RunResult`` to: the result itself
    (``None``), one scalar (a name), or a ``{name: value}`` dict (a
    tuple of names). Every backend — scalar units and the lockstep
    batcher — reduces through here."""
    if metric is None:
        return result
    if isinstance(metric, str):
        return metric_of(result, metric)
    return {m: metric_of(result, m) for m in metric}


def merged_metric(metrics: Sequence[Metric]) -> Metric:
    """The one reduction that serves every one of ``metrics`` (the
    members of one simulation): the full result if any member wants
    it, else the first-seen-ordered union of their names."""
    if None in metrics:
        return None
    names = [m for metric in metrics
             for m in ([metric] if isinstance(metric, str) else metric)]
    return tuple(dict.fromkeys(names))


def project(value: Any, have: Metric, want: Metric) -> Any:
    """A member's own reduction out of the value of the ``have``
    reduction it was merged into (see :func:`merged_metric`): bit-
    identical to what a unit asking for ``want`` alone reduces to."""
    if have == want:
        return value
    if have is None:
        return reduce_result(value, want)
    if isinstance(want, str):
        return value[want]
    return {m: value[m] for m in want}


def _check_metric(metric: Any) -> Metric:
    """Normalize a list of names to a hashable tuple; reject anything
    that is not a :data:`Metric`."""
    if isinstance(metric, list):
        metric = tuple(metric)
    if not (metric is None or isinstance(metric, str)
            or (isinstance(metric, tuple)
                and all(isinstance(m, str) for m in metric))):
        raise ConfigError(f"malformed metric: {metric!r}")
    return metric


# ---------------------------------------------------------------------------
# full-RunResult wire codec
# ---------------------------------------------------------------------------

#: marker key identifying an encoded RunResult on the wire (a plain
#: metric dict can never collide with it: metric names are attribute /
#: stats names, which never start with underscores)
RESULT_MARKER = "__run_result__"


def encode_result(result: RunResult) -> Dict[str, Any]:
    """Encode a full :class:`RunResult` as a JSON-safe wire object.

    Everything except the :class:`SystemConfig` rides the wire — the
    config is reconstructed from the *unit* on the receiving side
    (:meth:`SweepUnit.decode_value`), because the unit already
    determines it exactly and re-deriving it is what guarantees the
    two can never disagree. The statistics ride in their own wire form
    (:meth:`Stats.to_wire`: counters, sampler count/total, the warmup
    mark), which is JSON-exact, so every derived metric of the decoded
    result is bit-identical to the original's.
    """
    return {
        RESULT_MARKER: 1,
        "runtime": result.runtime,
        "instructions": result.instructions,
        "finished": result.finished,
        "per_core_finish": list(result.per_core_finish),
        "stats": result.stats.to_wire(),
    }


def is_encoded_result(value: Any) -> bool:
    return isinstance(value, dict) and RESULT_MARKER in value


def decode_result(wire: Dict[str, Any],
                  config: SystemConfig) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`encode_result` output."""
    if not is_encoded_result(wire):
        raise ConfigError("not an encoded RunResult (missing "
                          f"{RESULT_MARKER!r} marker)")
    try:
        return RunResult(
            config=config,
            runtime=wire["runtime"],
            instructions=wire["instructions"],
            stats=Stats.from_wire(wire["stats"]),
            finished=wire["finished"],
            per_core_finish=list(wire["per_core_finish"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed encoded RunResult: {exc!r}") from exc


@dataclass(frozen=True)
class SweepUnit:
    """One independent simulation: config x horizon x metric reduction."""

    exp: ExperimentConfig
    max_cycles: int = 50_000_000
    metric: Metric = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "metric", _check_metric(self.metric))

    def key(self) -> str:
        """Stable identity hash for this work unit.

        ``ExperimentConfig`` is a frozen dataclass of scalars and
        enums, so its repr is deterministic across processes and
        sessions (no ids, no dict ordering hazards). The encoding for
        ``None``/``str`` metrics has never changed, so existing on-disk
        result caches stay valid.
        """
        blob = f"{self.exp!r}|max_cycles={self.max_cycles}" \
               f"|metric={self.metric}"
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    def run(self, warmup_images: Optional[WarmupImageCache] = None) -> Any:
        """Simulate and reduce. Returns the full ``RunResult`` when
        ``metric`` is None, a scalar for a named metric, or a
        ``{name: value}`` dict for a metric tuple."""
        return reduce_result(
            run_benchmark(self.exp, max_cycles=self.max_cycles,
                          warmup_images=warmup_images), self.metric)

    # -- wire encoding (the service protocol ships units as JSON) ------
    def encode_value(self, value: Any) -> Any:
        """Make the reduced value JSON-safe for the wire (the inverse
        of :meth:`decode_value`). Scalars and metric dicts pass
        through; a full ``RunResult`` (metric None) is encoded."""
        if self.metric is None:
            return encode_result(value)
        return value

    def decode_value(self, value: Any) -> Any:
        """Rebuild the in-process value from its wire form, against
        this unit's own machine configuration."""
        if self.metric is None and is_encoded_result(value):
            return decode_result(value, self.exp.system_config())
        return value

    def to_wire(self) -> Dict[str, Any]:
        exp = self.exp
        wire = {
            "kind": "sweep",
            "benchmark": exp.benchmark,
            "organization": exp.organization.value,
            "cores": exp.cores,
            "noc": exp.noc.value,
            "cluster": list(exp.cluster),
            "scale": exp.scale,
            "full_system": exp.full_system,
            "seed": exp.seed,
            "warmup_fraction": exp.warmup_fraction,
            "cache_scale": exp.cache_scale,
            "speculation": exp.spec.mode,
            "spec_window": exp.spec.window,
            "spec_rate": exp.spec.rate,
            "max_cycles": self.max_cycles,
            "metric": (list(self.metric)
                       if isinstance(self.metric, tuple) else self.metric),
        }
        # Protocol v5: hierarchy axes ride the wire only when set — a
        # default-hierarchy unit's frame is byte-identical to its v4
        # form, so mixed-version fleets agree on every pre-existing
        # config and only reject units that genuinely need v5.
        if exp.hierarchy != HierarchyAxes():
            wire["scratchpad_fraction"] = exp.hierarchy.scratchpad_fraction
            wire["spm_latency"] = exp.hierarchy.spm_latency
        return wire

    @staticmethod
    def from_wire(wire: Any) -> "SweepUnit":
        """Decode a wire unit. A missing ``kind`` means a v1-era sweep
        unit — accepted, since its field set is identical."""
        if not isinstance(wire, dict):
            raise ConfigError(f"wire unit is not an object: "
                              f"{type(wire).__name__}")
        if wire.get("kind", "sweep") != "sweep":
            raise ConfigError(f"unknown unit kind {wire['kind']!r}")
        try:
            exp = ExperimentConfig(
                benchmark=wire["benchmark"],
                organization=Organization(wire["organization"]),
                cores=wire["cores"],
                noc=NocKind(wire["noc"]),
                cluster=tuple(wire["cluster"]),
                scale=wire["scale"],
                full_system=wire["full_system"],
                seed=wire["seed"],
                warmup_fraction=wire["warmup_fraction"],
                cache_scale=wire["cache_scale"],
                spec=SpecAxes(mode=wire["speculation"],
                              window=wire["spec_window"],
                              rate=wire["spec_rate"]),
                hierarchy=HierarchyAxes(
                    scratchpad_fraction=wire.get("scratchpad_fraction", 0.0),
                    spm_latency=wire.get("spm_latency", 2)),
            )
            return SweepUnit(exp, wire["max_cycles"], wire["metric"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed wire unit: {exc!r}") from exc
