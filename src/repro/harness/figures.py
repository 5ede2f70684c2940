"""The paper's evaluation (Section 4): one declaration per figure.

``figN(v, ...)`` *declares* figure N: the table arithmetic written
against a cell lookup ``v(cell) -> {metric: value}``, returning the
figure's tables as ``(title, paper's headline, rows)`` triples with
``rows = {row -> {series -> value}}`` (the rows and series the paper
plots). The cells of a figure are exactly what its arithmetic reads —
:func:`figure_cells` lists them without simulating — so there is one
encoding of each figure, and every cell reduces to the one
:data:`METRICS` tuple, which gives a cell that several figures share
(``blackscholes``/SHARED is read by six of them) one unit key.

:func:`run_figures` runs the de-duplicated union of many declarations'
cells through one :func:`~repro.harness.parallel.run_units` call and
tabulates each figure from the values; ``**backend`` is forwarded to
it verbatim (``jobs=``, ``service=``, ``cache_dir=``, ... — its
docstring is the reference), so the figures ride the pool, the fleet
and the resumable cache like any sweep; ``format_table(title, rows)``
prints a table. The matrix the repo publishes is
``scripts/run_experiments.py::paper_figures``. Absolute values come
from our simulator + synthetic traces, so the *shape* (orderings,
rough ratios) is the reproduction target.
"""

from __future__ import annotations

from typing import (Any, Callable, Dict, List, Mapping, Optional, Sequence,
                    Tuple)

from repro.harness.experiment import SCALE_MEDIUM, ExperimentConfig
from repro.harness.parallel import run_units
from repro.harness.units import SweepUnit
from repro.noc.power import router_budget
from repro.params import NocConfig, NocKind, Organization
from repro.traces.benchmarks import FULL_SYSTEM, TRACE_DRIVEN
from repro.traces.multiprogram import CLUSTER_SHAPE, workload_names

Rows = Dict[str, Dict[str, float]]
#: (title, the paper's headline for it, rows)
Table = Tuple[str, str, Rows]
#: a cell lookup: the metric dict of one simulated cell
Lookup = Callable[[SweepUnit], Mapping[str, Any]]
#: a declaration with everything but the lookup bound
Figure = Callable[[Lookup], List[Table]]

#: what every figure cell reduces to
METRICS = ("runtime", "mpki", "l2_hit_latency", "search_delay",
           "offchip_accesses")

_LOCO = Organization.LOCO_CC_VMS_IVR
#: the three LOCO variants of the ablation figures
_LOCO_STACK = [(Organization.LOCO_CC, "LOCO CC"),
               (Organization.LOCO_CC_VMS, "LOCO CC+VMS"),
               (_LOCO, "LOCO CC+VMS+IVR")]
_NOCS = [(NocKind.SMART, "SMART"), (NocKind.CONVENTIONAL, "Conv"),
         (NocKind.FLATTENED_BUTTERFLY, "HighRadix")]
_SHAPES = [((4, 1), "4x1"), ((8, 1), "8x1"), ((4, 4), "4x4")]


def _cell(benchmark: str, org: Organization, cores: int = 64,
          noc: NocKind = NocKind.SMART, cluster: Tuple[int, int] = (4, 4),
          scale: float = SCALE_MEDIUM,
          full_system: bool = False) -> SweepUnit:
    return SweepUnit(ExperimentConfig(
        benchmark=benchmark, organization=org, cores=cores, noc=noc,
        cluster=cluster, scale=scale, full_system=full_system),
        metric=METRICS)


# ---------------------------------------------------------------------------
# declarations
# ---------------------------------------------------------------------------
def fig6(v: Lookup, benchmarks: Optional[Sequence[str]] = None,
         scale: float = SCALE_MEDIUM) -> List[Table]:
    rows: Rows = {}
    for b in benchmarks or TRACE_DRIVEN:
        shared = v(_cell(b, Organization.SHARED, scale=scale))
        private = v(_cell(b, Organization.PRIVATE, scale=scale))
        rows[b] = {"Private/Shared": private["runtime"] / shared["runtime"]}
    return [("Figure 6: normalized runtime, private vs shared (64c)",
             "private 2.3x slower on average", rows)]


def fig7(v: Lookup, benchmarks: Optional[Sequence[str]] = None,
         cores: int = 64, scale: float = SCALE_MEDIUM) -> List[Table]:
    rows: Rows = {}
    for b in benchmarks or TRACE_DRIVEN:
        base, shared, loco = (
            v(_cell(b, org, cores, scale=scale))["l2_hit_latency"]
            for org in (Organization.PRIVATE, Organization.SHARED, _LOCO))
        rows[b] = {"Shared": shared - base, "LOCO": loco - base}
    return [(f"Figure 7: L2 hit latency increase over private ({cores}c)",
             "64c: LOCO +2.9cy vs shared +11.5cy; 256c: shared +4.5cy "
             "more, LOCO flat", rows)]


def fig8(v: Lookup, benchmarks: Optional[Sequence[str]] = None,
         cores: int = 64, scale: float = SCALE_MEDIUM) -> List[Table]:
    rows: Rows = {
        b: {label: v(_cell(b, org, cores, scale=scale))["mpki"]
            for org, label in ((Organization.SHARED, "Shared"),
                               (_LOCO, "LOCO"))}
        for b in benchmarks or TRACE_DRIVEN}
    return [(f"Figure 8: L2 MPKI ({cores}c)",
             "LOCO within ~0.3% of shared", rows)]


def fig9(v: Lookup, benchmarks: Optional[Sequence[str]] = None,
         cores: int = 64, scale: float = SCALE_MEDIUM) -> List[Table]:
    rows: Rows = {
        b: {label: v(_cell(b, org, cores, scale=scale))["search_delay"]
            for org, label in _LOCO_STACK[:2]}
        for b in benchmarks or TRACE_DRIVEN}
    return [(f"Figure 9: on-chip data search delay ({cores}c)",
             "VMS -34.8% (64c) / -39.9% (256c)", rows)]


def fig10(v: Lookup, benchmarks: Optional[Sequence[str]] = None,
          cores: int = 64, scale: float = SCALE_MEDIUM) -> List[Table]:
    rows: Rows = {}
    for b in benchmarks or TRACE_DRIVEN:
        base = max(1, v(_cell(b, Organization.SHARED, cores,
                              scale=scale))["offchip_accesses"])
        rows[b] = {
            label: v(_cell(b, org, cores,
                           scale=scale))["offchip_accesses"] / base
            for org, label in _LOCO_STACK[1:]}
    return [(f"Figure 10: normalized off-chip accesses ({cores}c)",
             "IVR -15.6% (64c) / -17.9% (256c) vs CC+VMS; ~= shared "
             "overall", rows)]


def fig11(v: Lookup, benchmarks: Optional[Sequence[str]] = None,
          cores: int = 64, scale: float = SCALE_MEDIUM) -> List[Table]:
    rows: Rows = {}
    for b in benchmarks or TRACE_DRIVEN:
        base = v(_cell(b, Organization.SHARED, cores,
                       scale=scale))["runtime"]
        rows[b] = {"Shared": 1.0}
        for org, label in _LOCO_STACK:
            rows[b][label] = v(_cell(b, org, cores,
                                     scale=scale))["runtime"] / base
    return [(f"Figure 11: normalized runtime ({cores}c)",
             "LOCO -13.9% (64c; steps 5.5/4.8/3.7) / -17.9% (256c)", rows)]


def fig12(v: Lookup, benchmarks: Optional[Sequence[str]] = None,
          cores: int = 64, scale: float = SCALE_MEDIUM) -> List[Table]:
    lat: Rows = {}
    search: Rows = {}
    for b in benchmarks or TRACE_DRIVEN:
        base = v(_cell(b, Organization.PRIVATE, cores,
                       scale=scale))["l2_hit_latency"]
        by_noc = {label: v(_cell(b, _LOCO, cores, noc, scale=scale))
                  for noc, label in _NOCS}
        lat[b] = {label: r["l2_hit_latency"] - base
                  for label, r in by_noc.items()}
        search[b] = {label: r["search_delay"]
                     for label, r in by_noc.items()}
    return [(f"Figure 12a: L2 hit latency increase by NoC ({cores}c)",
             "256c: conv ~2x, high-radix ~3.1x vs SMART (every hop pays "
             "the 4-stage pipeline)", lat),
            (f"Figure 12b: search delay by NoC ({cores}c)",
             "256c: conv ~2x vs SMART", search)]


def fig13(v: Lookup, benchmarks: Optional[Sequence[str]] = None,
          cores: int = 64, scale: float = SCALE_MEDIUM) -> List[Table]:
    rows: Rows = {}
    for b in benchmarks or TRACE_DRIVEN:
        base = v(_cell(b, Organization.SHARED, cores,
                       scale=scale))["runtime"]
        rows[b] = {label: v(_cell(b, _LOCO, cores, noc,
                                  scale=scale))["runtime"] / base
                   for noc, label in _NOCS}
    return [(f"Figure 13: normalized runtime by NoC ({cores}c)",
             "SMART -18.9% (64c) / -24.6% (256c) vs conv; high-radix "
             "worst", rows)]


def fig_router(v: Lookup) -> List[Table]:
    """The paper's DSENT comparison (Section 4.3, beside Figs 12/13):
    relative router cost per fabric. Reads no cell."""
    rows: Rows = {}
    for noc, label in _NOCS:
        b = router_budget(NocConfig(kind=noc))
        rows[label] = {"ports": b.ports, "area": b.area, "power": b.power}
    return [("Router area / power by NoC (conventional = 1.0)",
             "high-radix 6.7x area / 2.3x power vs SMART", rows)]


def fig14(v: Lookup, benchmarks: Optional[Sequence[str]] = None,
          scale: float = SCALE_MEDIUM) -> List[Table]:
    hit: Rows = {}
    mpki: Rows = {}
    search: Rows = {}
    runtime: Rows = {}
    for b in benchmarks or TRACE_DRIVEN:
        base = v(_cell(b, Organization.SHARED, scale=scale))["runtime"]
        by_shape = {label: v(_cell(b, _LOCO, cluster=shape, scale=scale))
                    for shape, label in _SHAPES}
        hit[b] = {k: r["l2_hit_latency"] for k, r in by_shape.items()}
        mpki[b] = {k: r["mpki"] for k, r in by_shape.items()}
        search[b] = {k: r["search_delay"] for k, r in by_shape.items()}
        runtime[b] = {k: r["runtime"] / base for k, r in by_shape.items()}
    return [("Figure 14a: L2 hit latency by cluster size (64c)",
             "4x1 lowest (-1.17cy vs 4x4)", hit),
            ("Figure 14b: MPKI by cluster size (64c)",
             "4x1 +35%, 8x1 +20% vs 4x4", mpki),
            ("Figure 14c: search delay by cluster size (64c)", "", search),
            ("Figure 14d: normalized runtime by cluster size (64c)",
             "optimum is application-dependent", runtime)]


def fig15(v: Lookup, workloads: Optional[Sequence[str]] = None,
          scale: float = SCALE_MEDIUM) -> List[Table]:
    offchip: Rows = {}
    runtime: Rows = {}
    for w in workloads or workload_names():
        shared, cc, ivr = (
            v(_cell(w, org, cluster=CLUSTER_SHAPE[w], scale=scale))
            for org in (Organization.SHARED, Organization.LOCO_CC, _LOCO))
        base = max(1, shared["offchip_accesses"])
        offchip[w] = {"Shared": 1.0,
                      "LOCO CC": cc["offchip_accesses"] / base,
                      "LOCO CC+VMS+IVR": ivr["offchip_accesses"] / base}
        runtime[w] = {"Shared": 1.0,
                      "LOCO CC": cc["runtime"] / shared["runtime"],
                      "LOCO CC+VMS+IVR": ivr["runtime"] / shared["runtime"]}
    return [("Figure 15a: normalized off-chip accesses (multi-program)",
             "clustered (LOCO CC) +26.6%, LOCO +5.1%", offchip),
            ("Figure 15b: normalized runtime (multi-program)",
             "LOCO -13.8% vs clustered", runtime)]


def fig16(v: Lookup, benchmarks: Optional[Sequence[str]] = None,
          scale: float = SCALE_MEDIUM) -> List[Table]:
    mpki: Rows = {}
    runtime: Rows = {}
    for b in benchmarks or FULL_SYSTEM:
        shared = v(_cell(b, Organization.SHARED, scale=scale,
                         full_system=True))
        stack = {label: v(_cell(b, org, scale=scale, full_system=True))
                 for org, label in _LOCO_STACK}
        mpki[b] = {"Shared": shared["mpki"],
                   "LOCO": stack["LOCO CC+VMS+IVR"]["mpki"]}
        runtime[b] = {label: r["runtime"] / shared["runtime"]
                      for label, r in stack.items()}
    return [("Figure 16a: MPKI, full-system (64c)", "", mpki),
            ("Figure 16b: normalized runtime, full-system (64c)",
             "LOCO -44.5% average (spinning amplifies the advantage)",
             runtime)]


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------
def figure_cells(fig: Figure) -> List[SweepUnit]:
    """The cells a declaration reads, in first-use order, without
    simulating: its arithmetic is evaluated once against a recorder
    that answers 1.0 for every metric (no figure branches on a value).
    """
    ones = dict.fromkeys(METRICS, 1.0)
    seen: Dict[SweepUnit, None] = {}

    def record(cell: SweepUnit) -> Mapping[str, Any]:
        seen[cell] = None
        return ones

    fig(record)
    return list(seen)


def run_figures(figs: Mapping[str, Figure],
                **backend: Any) -> Dict[str, List[Table]]:
    """Run many declarations at once: ``{name: partial(figN, ...)}`` in,
    ``{name: tables}`` out. A cell several figures read is simulated
    once, and the whole union is one ``run_units(cells, **backend)``
    call, so ``jobs=`` / ``service=`` see all of it."""
    cells = list(dict.fromkeys(
        cell for fig in figs.values() for cell in figure_cells(fig)))
    values = dict(zip(cells, run_units(cells, **backend)))
    return {name: fig(values.__getitem__) for name, fig in figs.items()}
