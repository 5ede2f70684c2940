"""Spans and the per-layer cProfile roll-up, hooked from outside ``src/``.

A layer is a ``repro`` package (or one module of it). ``LAYER_OF`` is
the one place that says which source file belongs to which layer;
``check_layer_map`` fails loudly when a ``repro`` source file maps to
no layer, so a new module cannot silently fall into ``other``.

A layer's ``self_s`` is cProfile ``tottime`` summed over the layer's
functions — a span's duration minus what its children cover, at
function granularity. A sub-layer (``noc.router``) also counts toward
its parent (``noc``). Everything outside ``repro`` — builtins, stdlib,
NumPy, this benchmark's own files, and time blocked waiting for
worker processes — is ``other``.
"""

from __future__ import annotations

import contextlib
import cProfile
import os
import pstats
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: module (or package) -> layer; the longest matching entry wins
LAYER_OF = {
    "repro.sim": "sim",
    "repro.sim.kernel": "sim.kernel",
    "repro.sim.stats": "sim.stats",
    "repro.sim.snapshot": "sim.snapshot",
    "repro.noc": "noc",
    "repro.noc.router": "noc.router",
    "repro.coherence": "coherence",
    "repro.coherence.l1": "coherence.l1",
    "repro.coherence.l2_cluster": "coherence.l2",
    "repro.coherence.l2_home": "coherence.l2",
    "repro.coherence.l2_private": "coherence.l2",
    "repro.coherence.l2_shared": "coherence.l2",
    "repro.coherence.memory_controller": "coherence.memory_controller",
    "repro.coherence.context": "coherence.context",
    "repro.cache": "cache",
    "repro.cmp": "cmp",
    # the machine description and the error types travel with the
    # machine they describe
    "repro.params": "cmp",
    "repro.errors": "cmp",
    "repro.__init__": "cmp",
    "repro.traces": "traces",
    "repro.batch": "batch",
    "repro.harness": "harness",
    "repro.bench": "harness",
    "repro.service": "service",
}
#: this checkout's ``src`` (run.py puts exactly this string on sys.path,
#: so code objects carry it as their file prefix)
SRC_ROOT = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")
_PACKAGE = os.path.join(SRC_ROOT, "repro") + os.sep
TOP_LAYERS = ("sim", "noc", "coherence", "cache", "cmp", "traces", "batch",
              "harness", "service", "other")


def module_of(path: str) -> Optional[str]:
    """``<src>/repro/noc/router.py`` -> ``repro.noc.router``; None for
    files outside this checkout's ``repro`` package."""
    if not (path.startswith(_PACKAGE) and path.endswith(".py")):
        return None
    return path[len(SRC_ROOT) + 1:-3].replace(os.sep, ".")


def layer_of(module: str) -> Optional[str]:
    probe = module
    while probe:
        if probe in LAYER_OF:
            return LAYER_OF[probe]
        probe = probe.rpartition(".")[0]
    return None


def check_layer_map() -> None:
    """Every ``repro`` source file must map to a layer."""
    unmapped = []
    for dirpath, _, files in os.walk(_PACKAGE):
        for name in files:
            if name.endswith(".py"):
                mod = module_of(os.path.join(dirpath, name))
                if mod is None or layer_of(mod) is None:
                    unmapped.append(os.path.join(dirpath, name))
    if unmapped:
        raise SystemExit("benchmarks/e2e/tracing.py: LAYER_OF maps no "
                         "layer for: " + ", ".join(sorted(unmapped)))


class Span:
    """One timed interval; ``with tracer.span(name) as span`` records it."""

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer, self.name = tracer, name
        self.parent: Optional[int] = None
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def __enter__(self) -> "Span":
        t = self.tracer
        self.parent = t._open[-1] if t._open else None
        t._open.append(len(t.spans))
        t.spans.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = time.perf_counter()
        self.tracer._open.pop()


class Tracer:
    """In-memory spans (name, start, end, parent, job id), written out
    as Chrome ``trace_event`` records when the run ends."""

    def __init__(self, job: str) -> None:
        self.job = job
        self.spans: List[Span] = []
        self._open: List[int] = []      # indices of the enclosing spans

    def span(self, name: str) -> Span:
        return Span(self, name)

    def events(self) -> List[Dict[str, Any]]:
        pid = os.getpid()
        return [{"name": s.name, "ph": "X", "pid": pid, "tid": 0,
                 "ts": s.start * 1e6, "dur": s.seconds * 1e6,
                 "args": {"id": i, "parent": s.parent, "job": self.job}}
                for i, s in enumerate(self.spans)]


class Profiler:
    """cProfile over the calling thread (inside ``this_thread()``) and
    over every thread started while the profiler is open — the
    in-process coordinator's event loop is one."""

    def __init__(self) -> None:
        self.profiles: List[cProfile.Profile] = [cProfile.Profile()]

    def _adopt_thread(self, *_: Any) -> None:
        # First profile event of a new thread: swap in a cProfile of its
        # own (enable() replaces this hook for that thread).
        prof = cProfile.Profile()
        self.profiles.append(prof)
        prof.enable()

    def __enter__(self) -> "Profiler":
        threading.setprofile(self._adopt_thread)
        return self

    def __exit__(self, *exc) -> None:
        threading.setprofile(None)

    @contextlib.contextmanager
    def this_thread(self):
        self.profiles[0].enable()
        try:
            yield
        finally:
            self.profiles[0].disable()

    def entries(self) -> Iterable[Tuple[str, str, int, float]]:
        """(file, function, primitive calls, tottime) per function."""
        stats = pstats.Stats(*self.profiles)
        for (path, _, func), (_, ncalls, tottime, _, _) \
                in stats.stats.items():  # type: ignore[attr-defined]
            yield path, func, ncalls, tottime


def roll_up(profiler: Profiler, layers: Dict[str, float]) -> None:
    """Fold a profile into ``<layer>.self_s`` / ``<layer>.calls`` and
    the few per-function call counts the layer metrics name."""
    self_s: Dict[str, float] = dict.fromkeys(TOP_LAYERS, 0.0)
    calls: Dict[str, int] = {}
    numpy_s = 0.0
    ticks = msgs = 0
    for path, func, ncalls, tottime in profiler.entries():
        module = module_of(path)
        layer = layer_of(module) if module else None
        if layer is None:       # not repro (check_layer_map vouches)
            layer = "other"
            if "numpy" in path or "numpy" in func:
                numpy_s += tottime
        if layer == "noc.router" and func == "tick":
            ticks += ncalls
        if layer == "coherence.context" and func in ("send", "multicast"):
            msgs += ncalls
        while layer:       # a sub-layer counts toward its parents too
            self_s[layer] = self_s.get(layer, 0.0) + tottime
            calls[layer] = calls.get(layer, 0) + ncalls
            layer = layer.rpartition(".")[0]
    for layer, seconds in self_s.items():
        layers[f"{layer}.self_s"] = seconds
    for layer in ("sim.kernel", "sim.stats", "cache"):
        layers[f"{layer}.calls"] = calls.get(layer, 0)
    layers["batch.numpy_s"] = numpy_s
    layers["noc.router.tick_calls"] = ticks
    layers["coherence.msgs"] = msgs


def stat_counts(results: List[Any], layers: Dict[str, float]) -> None:
    """Count-type layer metrics from public ``RunResult.stats`` values.
    NoC counters carry the fabric's name as a prefix (``smart.``...)."""
    noc = dict.fromkeys(("injected", "flit_hops", "arb_losses"), 0)
    for r in results:
        for name, value in r.stats.to_dict().items():
            fabric, _, counter = name.rpartition(".")
            if fabric and counter in noc:
                noc[counter] += value
    for counter, value in noc.items():
        layers[f"noc.{counter}"] = value
    layers["coherence.l2_misses"] = sum(r.stats.value("l2_misses")
                                        for r in results)
    layers["coherence.offchip_fetches"] = sum(
        r.stats.value("offchip_fetches") for r in results)


def ratios(layers: Dict[str, float], cycles: int, instructions: int,
           job_s: float, traced_s: float) -> None:
    """Host time per simulated unit of work. The ``sim.*`` pair uses
    the untraced job; the per-flit-hop and per-message pair divide
    *profiled* self time, so they carry the profiler's inflation."""
    layers["cmp.instructions"] = instructions
    layers["sim.host_us_per_cycle"] = job_s / cycles * 1e6
    layers["sim.host_us_per_kinstr"] = job_s / instructions * 1e9
    if layers["noc.flit_hops"]:
        layers["noc.host_us_per_flit_hop"] = \
            layers["noc.self_s"] / layers["noc.flit_hops"] * 1e6
    if layers["coherence.msgs"]:
        layers["coherence.host_us_per_msg"] = \
            layers["coherence.self_s"] / layers["coherence.msgs"] * 1e6
    layers["trace.job_s"] = traced_s
    layers["trace.overhead_frac"] = traced_s / job_s - 1.0
