"""The five workloads: their cell lists, their sizes, and how a job runs.

Every size is a constant in this file (``FULL`` / ``SMOKE``); re-size a
workload here and nowhere else. A workload is a fixed list of
:class:`SweepUnit` cells derived from ``--seed`` (the simulator sees
only the generated units) plus the backend call a user would make for
it. One *job* runs the whole cell list once, on cold caches:
``prepare()`` (untimed) clears the in-process trace cache and makes a
fresh image directory / fleet, ``job()`` is what gets timed, and
``release()`` (untimed, always runs) tears the backend down again.
"""

from __future__ import annotations

import contextlib
import gc
import shutil
import subprocess
import tempfile
import time
from typing import Any, Dict, List, Optional

from repro.cmp.system import CmpSystem, RunResult
from repro.harness.experiment import (ExperimentConfig, HierarchyAxes,
                                      WarmupImageCache, clear_trace_cache,
                                      warmup_key)
from repro.harness.parallel import pmap, run_units
from repro.harness.sweep import grid_units, sweep
from repro.harness.units import (SweepUnit, decode_result, encode_result,
                                 metric_of)
from repro.params import NocKind, Organization
from repro.service import (Coordinator, FrameDecoder, Scheduler,
                           ServiceClient, encode_frame)
from repro.service.worker import spawn_worker_process
from repro.traces.benchmarks import get_benchmark
from repro.traces.dataflow import dataflow_traces
from repro.traces.synthetic import generate_traces

O = Organization
MAX_CYCLES = 50_000_000
#: pool width and fleet size are fixed at the sandbox's two cores
POOL_JOBS = 2
FLEET_WORKERS = 2
BATCH = 32
#: scalar metrics of the metric-reduced workloads; ``runtime``,
#: ``instructions`` and ``finished`` are what the end-to-end totals and
#: the unfinished-cell check read
METRICS = ("runtime", "instructions", "finished", "mpki",
           "l2_hit_latency", "offchip_accesses")

#: one job on a 2-core sandbox: figmatrix 2.8 s, fabrics 2.5 s,
#: warmfork_pool 1.05 s, singletile_batch 0.65 s, fleet 1.1 s
FULL = dict(
    matrix_cores=64, matrix_cluster=(4, 4), matrix_scale=0.02,
    dataflow_scale=0.25,
    warm_cores=16, warm_scale=0.03, warm_seeds=4,
    tile_seeds=16, tile_scales=(0.4, 0.8),
    fleet_tiny=240, fleet_tiny_scale=0.02, fleet_big=8,
    fleet_big_scale=0.03,
)
SMOKE = dict(
    matrix_cores=16, matrix_cluster=(2, 2), matrix_scale=0.01,
    dataflow_scale=0.05,
    warm_cores=4, warm_scale=0.01, warm_seeds=1,
    tile_seeds=2, tile_scales=(0.02, 0.04),
    fleet_tiny=24, fleet_tiny_scale=0.01, fleet_big=2,
    fleet_big_scale=0.01,
)


def cell_seed(seed: int, i: int) -> int:
    """The ``ExperimentConfig.seed`` of the i-th trace set under --seed."""
    return seed * 1009 + i


def make_traces(exp: ExperimentConfig):
    """Generate ``exp``'s traces through the public generators (the
    harness' own cache stays untouched, so this is always a cold
    generation)."""
    if exp.benchmark.startswith("dataflow_"):
        return dataflow_traces(exp.benchmark, exp.cores, scale=exp.scale,
                               seed=exp.seed)
    spec = get_benchmark(exp.benchmark, scale=exp.scale,
                         full_system=exp.full_system)
    return generate_traces(spec, exp.cores, seed=exp.seed)


def reap(proc: subprocess.Popen, grace: float = 5.0) -> None:
    """wait -> terminate -> wait -> kill: never leave a child behind."""
    try:
        proc.wait(timeout=grace)
        return
    except subprocess.TimeoutExpired:
        proc.terminate()
    try:
        proc.wait(timeout=grace)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class Workload:
    """One cell list plus the backend call that runs it."""

    name = ""

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.size = SMOKE if smoke else FULL
        self.units: List[SweepUnit] = self.build_units()

    def build_units(self) -> List[SweepUnit]:
        raise NotImplementedError

    def cold_start(self) -> None:
        """Cold caches, and a collected heap so that a cyclic-GC pass
        owed to earlier work does not land inside what is timed next."""
        clear_trace_cache()
        gc.collect()

    def prepare(self) -> None:
        self.cold_start()

    def job(self) -> List[Any]:
        raise NotImplementedError

    def release(self) -> None:
        pass

    def reference(self) -> Dict[int, Any]:
        """Serial cold reference values by cell index, for the backend
        workloads. The serial workloads *are* the reference path, so
        they return nothing and are checked repeat against repeat."""
        return {}

    def probes(self, tracer, profiler, layers: Dict[str, float],
               job_s: float) -> None:
        """Workload-specific per-layer measurements (``--trace`` only):
        direct timed calls into the layer's public functions."""

    def live_probes(self, tracer, layers: Dict[str, float]) -> None:
        """Measurements that need the traced job's backend still up."""

    def full_results(self, values: List[Any]) -> List[RunResult]:
        """The RunResults whose stats the count-type layer metrics sum."""
        return [v for v in values if isinstance(v, RunResult)]

    # -- shared probes ---------------------------------------------------
    def run_in_process(self, tracer, profiler, layers: Dict[str, float],
                       make_images=lambda: None):
        """The job's units, serially in this process, for the workloads
        whose simulation happens in worker processes. Twice: bare, for
        ``harness.unit_sim_s``, then under the profiler, so that the
        workers' share of the job is attributed to layers as well."""
        for profiled in (False, True):
            self.cold_start()
            images = make_images()
            label = "in-process units" + " (profiled)" * profiled
            with tracer.span(label) as arm, (
                    profiler.this_thread() if profiled
                    else contextlib.nullcontext()):
                values = []
                for unit in self.units:
                    with tracer.span("SweepUnit.run"):
                        values.append(unit.run(warmup_images=images))
            if not profiled:
                layers["harness.unit_sim_s"] = arm.seconds
        return values, images

    def probe_build(self, tracer, layers: Dict[str, float]):
        """Span around ``CmpSystem(...)`` for the first multi-tile cell."""
        exp = next(u.exp for u in self.units if u.exp.cores > 1)
        traces = make_traces(exp)
        with tracer.span("CmpSystem()") as span:
            system = CmpSystem(exp.system_config(), traces,
                               full_system=exp.full_system,
                               warmup_fraction=exp.warmup_fraction)
        layers["cmp.build_s"] = span.seconds
        return exp, traces, system

    def probe_traces(self, tracer, layers: Dict[str, float]) -> None:
        """Cold generation of every distinct trace set of the job."""
        seen = {}
        for u in self.units:
            e = u.exp
            seen.setdefault((e.benchmark, e.cores, e.scale, e.full_system,
                             e.seed), e)
        events = 0
        with tracer.span("traces.generate") as span:
            for exp in seen.values():
                events += sum(len(t) for t in make_traces(exp))
        layers["traces.gen_s"] = span.seconds
        layers["traces.events"] = events


class SerialWorkload(Workload):
    """Cold serial ``run_units`` over full-``RunResult`` cells."""

    def job(self) -> List[Any]:
        return run_units(self.units, jobs=1)

    def probes(self, tracer, profiler, layers, job_s) -> None:
        self.probe_build(tracer, layers)
        self.probe_traces(tracer, layers)


class Figmatrix(SerialWorkload):
    name = "figmatrix"

    def build_units(self) -> List[SweepUnit]:
        s = self.size
        return [SweepUnit(ExperimentConfig(
                    bench, org, cores=s["matrix_cores"],
                    cluster=s["matrix_cluster"], noc=NocKind.SMART,
                    scale=s["matrix_scale"],
                    seed=cell_seed(self.seed, b)), MAX_CYCLES, None)
                for b, bench in enumerate(("water_spatial", "barnes"))
                for org in Organization]


class Fabrics(SerialWorkload):
    name = "fabrics"

    def build_units(self) -> List[SweepUnit]:
        s = self.size
        cores, scale = s["matrix_cores"], s["matrix_scale"]
        square = s["matrix_cluster"]
        tall = [(square[0], 1), (2 * square[0], 1)]   # 4x1, 8x1 at 64 cores
        seed = cell_seed(self.seed, 0)

        def cell(bench, org, **kw):
            kw.setdefault("cores", cores)
            kw.setdefault("cluster", square)
            kw.setdefault("scale", scale)
            return SweepUnit(ExperimentConfig(bench, org, seed=seed, **kw),
                             MAX_CYCLES, None)

        spm = HierarchyAxes(scratchpad_fraction=0.5)
        units = [cell("water_spatial", org, noc=noc)
                 for noc in (NocKind.CONVENTIONAL,
                             NocKind.FLATTENED_BUTTERFLY)
                 for org in (O.SHARED, O.LOCO_CC_VMS_IVR)]
        units += [cell("barnes", O.LOCO_CC_VMS_IVR, cluster=shape)
                  for shape in tall]
        units.append(cell("fluidanimate", O.LOCO_CC_VMS_IVR,
                          full_system=True))
        units += [cell(bench, O.LOCO_CC_VMS_IVR, cores=16, cluster=(2, 2),
                       scale=s["dataflow_scale"], hierarchy=spm)
                  for bench in ("dataflow_gemm", "dataflow_stencil")]
        return units


class GridWorkload(Workload):
    """A ``sweep()`` grid: the unit list is the grid's own expansion."""

    benchmark = "water_spatial"
    metric: Any = None

    def axes(self) -> Dict[str, list]:
        raise NotImplementedError

    def build_units(self) -> List[SweepUnit]:
        return grid_units(self.benchmark, self.metric, MAX_CYCLES,
                          self.axes())[3]

    def flatten(self, rows: List[Dict[str, Any]]) -> List[Any]:
        """Sweep rows back to unit order (combo-major, metric-minor)."""
        if self.metric is None:
            return [row["result"] for row in rows]
        return [row[m] for row in rows for m in self.metric]


class WarmforkPool(GridWorkload):
    name = "warmfork_pool"
    metric = list(METRICS)

    def axes(self) -> Dict[str, list]:
        s = self.size
        return dict(organization=[O.SHARED, O.LOCO_CC_VMS_IVR],
                    seed=[cell_seed(self.seed, i)
                          for i in range(s["warm_seeds"])],
                    cores=[s["warm_cores"]], cluster=[(2, 2)],
                    scale=[s["warm_scale"]],
                    warmup_fraction=[0.8])

    def prepare(self) -> None:
        self.cold_start()
        self.image_dir = tempfile.mkdtemp(prefix="warmup-")

    def job(self) -> List[Any]:
        return self.flatten(sweep(
            self.benchmark, metric=self.metric, jobs=POOL_JOBS,
            warmup_snapshots=True, warmup_cache=self.image_dir,
            **self.axes()))

    def release(self) -> None:
        shutil.rmtree(self.image_dir, ignore_errors=True)

    def reference(self) -> Dict[int, Any]:
        self.cold_start()
        self.ref_results: Dict[ExperimentConfig, RunResult] = {}
        out = {}
        for i, unit in enumerate(self.units):
            if unit.exp not in self.ref_results:
                self.ref_results[unit.exp] = SweepUnit(
                    unit.exp, unit.max_cycles, None).run()
            out[i] = metric_of(self.ref_results[unit.exp], unit.metric)
        return out

    def full_results(self, values) -> List[RunResult]:
        return list(self.ref_results.values())

    def probes(self, tracer, profiler, layers, job_s) -> None:
        self.probe_traces(tracer, layers)
        exp, traces, system = self.probe_build(tracer, layers)
        system.run_until_warmup(max_cycles=MAX_CYCLES)
        with tracer.span("CmpSystem.checkpoint") as span:
            blob = system.checkpoint()
        layers["sim.snapshot.checkpoint_s"] = span.seconds
        layers["sim.snapshot.image_bytes"] = len(blob)
        with tracer.span("CmpSystem.restore") as span:
            CmpSystem.restore(blob, traces)
        layers["sim.snapshot.restore_s"] = span.seconds
        image_dir = tempfile.mkdtemp(prefix="warmup-probe-")
        try:
            cache = WarmupImageCache(image_dir)
            with tracer.span("WarmupImageCache.put/get") as span:
                cache.put(warmup_key(exp), blob)
                cache.get(warmup_key(exp))
            layers["harness.image_io_s"] = span.seconds
            with tracer.span("pmap(no-op)") as span:
                pmap(abs, [0] * POOL_JOBS, jobs=POOL_JOBS)
            layers["harness.pool_spawn_s"] = span.seconds
            # The same work the pool does: leaders build and save the
            # image, followers restore it.
            _, images = self.run_in_process(
                tracer, profiler, layers,
                lambda: WarmupImageCache(tempfile.mkdtemp(dir=image_dir)))
        finally:
            shutil.rmtree(image_dir, ignore_errors=True)
        layers["harness.warmup_hits"] = images.hits
        layers["harness.warmup_misses"] = images.misses
        layers["harness.overhead_frac"] = \
            1.0 - layers["harness.unit_sim_s"] / POOL_JOBS / job_s


class SingletileBatch(GridWorkload):
    name = "singletile_batch"

    def axes(self) -> Dict[str, list]:
        s = self.size
        return dict(organization=[O.SHARED, O.PRIVATE, O.LOCO_CC],
                    seed=[cell_seed(self.seed, i)
                          for i in range(s["tile_seeds"])],
                    cores=[1], cluster=[(1, 1)],
                    scale=list(s["tile_scales"]))

    def job(self) -> List[Any]:
        return self.flatten(sweep(self.benchmark, metric=self.metric,
                                  batch=BATCH,
                                  **self.axes()))

    def reference(self) -> Dict[int, Any]:
        self.cold_start()
        t0 = time.perf_counter()
        out = {i: unit.run() for i, unit in enumerate(self.units)}
        self.scalar_s = time.perf_counter() - t0
        return out

    def probes(self, tracer, profiler, layers, job_s) -> None:
        from repro.batch import run_batched
        self.probe_traces(tracer, layers)
        self.cold_start()
        with tracer.span("run_batched") as span:
            done = run_batched(self.units, BATCH)
        layers["batch.run_batched_s"] = span.seconds
        layers["batch.batched_units"] = len(done)
        layers["batch.declined_units"] = len(self.units) - len(done)
        layers["batch.speedup_vs_scalar"] = self.scalar_s / job_s


class Fleet(Workload):
    """One in-process coordinator, two worker processes, one client;
    solo (unreplicated), because three replicas plus two workers on two
    cores would measure the OS scheduler."""

    name = "fleet"

    def build_units(self) -> List[SweepUnit]:
        s = self.size
        tiny_orgs = (O.SHARED, O.PRIVATE, O.LOCO_CC)
        tiny = [SweepUnit(ExperimentConfig(
                    "water_spatial", tiny_orgs[i % 3], cores=1,
                    cluster=(1, 1), scale=s["fleet_tiny_scale"],
                    seed=cell_seed(self.seed, i // 3)),
                    MAX_CYCLES, METRICS[:4])
                for i in range(s["fleet_tiny"])]
        big_orgs = (O.SHARED, O.LOCO_CC_VMS_IVR)
        big = [SweepUnit(ExperimentConfig(
                   "barnes", big_orgs[i % 2], cores=16, cluster=(2, 2),
                   scale=s["fleet_big_scale"],
                   seed=cell_seed(self.seed, i // 2)), MAX_CYCLES, None)
               for i in range(s["fleet_big"])]
        return tiny + big

    def prepare(self) -> None:
        """A fresh fleet per job, so the coordinator's result memo can
        never serve a repeat."""
        self.cold_start()
        self.coordinator: Optional[Coordinator] = None
        self.workers: List[subprocess.Popen] = []
        self.client: Optional[ServiceClient] = None
        try:
            t0 = time.perf_counter()
            self.coordinator = Coordinator()
            address = self.coordinator.start()
            self.workers = [spawn_worker_process(address, name=f"bench-w{i}",
                                                 capture=True)
                            for i in range(FLEET_WORKERS)]
            t1 = time.perf_counter()
            self.client = ServiceClient(address, row_timeout=120.0)
            self.handshake_s = time.perf_counter() - t1
            deadline = t0 + 60.0
            while (self.client.status()["stats"]["workers"]
                   < FLEET_WORKERS):
                if time.perf_counter() > deadline or any(
                        w.poll() is not None for w in self.workers):
                    raise RuntimeError("fleet workers failed to register")
                time.sleep(0.005)
            self.launch_s = time.perf_counter() - t0
        except BaseException:
            self.release()
            raise

    def job(self) -> List[Any]:
        self.row_stamps: List[float] = []
        self.submit_stamp = time.perf_counter()
        return self.client.run_units(
            self.units,
            on_row=lambda i, v: self.row_stamps.append(time.perf_counter()))

    def release(self) -> None:
        try:
            if self.client is not None:
                self.client.close()
        finally:
            try:
                if self.coordinator is not None:
                    self.coordinator.stop()   # tells the workers to exit
            finally:
                for w in self.workers:
                    reap(w)

    def reference(self) -> Dict[int, Any]:
        """1-in-8 of the tiny cells, every full-result cell."""
        self.cold_start()
        tiny = self.size["fleet_tiny"]
        return {i: self.units[i].run()
                for i in [*range(0, tiny, 8), *range(tiny, len(self.units))]}

    def live_probes(self, tracer, layers) -> None:
        stats = self.client.status()["stats"]
        layers["service.units_completed"] = stats["units_completed"]
        layers["service.requeues"] = stats["requeues"]
        with tracer.span("memo re-submit") as span:
            self.client.run_units(self.units)
        layers["service.memo_resubmit_s"] = span.seconds
        layers["service.served_from_cache"] = \
            self.client.status()["stats"]["served_from_cache"]
        layers["service.fleet_launch_s"] = self.launch_s
        layers["service.handshake_ms"] = self.handshake_s * 1e3

    def probes(self, tracer, profiler, layers, job_s) -> None:
        self.probe_build(tracer, layers)
        self.probe_traces(tracer, layers)
        stamps = self.row_stamps    # of the last (untraced or traced) job
        gaps = sorted(b - a for a, b in zip(stamps, stamps[1:]))
        layers["service.first_row_ms"] = \
            (stamps[0] - self.submit_stamp) * 1e3
        layers["service.row_gap_p50_ms"] = gaps[len(gaps) // 2] * 1e3
        layers["service.row_gap_p90_ms"] = gaps[len(gaps) * 9 // 10] * 1e3
        values, _ = self.run_in_process(tracer, profiler, layers)
        layers["service.overhead_frac"] = \
            1.0 - layers["harness.unit_sim_s"] / FLEET_WORKERS / job_s
        self.probe_codecs(tracer, layers, values)

    def probe_codecs(self, tracer, layers, values) -> None:
        """Wire codecs and the pure scheduler, per call, on this job's
        own units and values."""
        big = [(u, v) for u, v in zip(self.units, values)
               if isinstance(v, RunResult)]
        rounds = 5
        with tracer.span("encode_result") as span:
            for _ in range(rounds):
                wires = [encode_result(v) for _, v in big]
        layers["harness.encode_result_us"] = \
            span.seconds / (rounds * len(big)) * 1e6
        with tracer.span("decode_result") as span:
            for _ in range(rounds):
                for (u, _), wire in zip(big, wires):
                    decode_result(wire, u.exp.system_config())
        layers["harness.decode_result_us"] = \
            span.seconds / (rounds * len(big)) * 1e6
        with tracer.span("to_wire/from_wire") as span:
            for unit in self.units:
                SweepUnit.from_wire(unit.to_wire())
        layers["harness.unit_wire_us"] = \
            span.seconds / len(self.units) * 1e6
        frames = [{"type": "row", "job": "j1", "idx": i,
                   "value": u.encode_value(v)}
                  for i, (u, v) in enumerate(zip(self.units, values))]
        decoder = FrameDecoder()
        with tracer.span("encode_frame/FrameDecoder") as span:
            for frame in frames:
                decoder.feed(encode_frame(frame))
                decoder.next_message()
        layers["service.frame_codec_us"] = \
            span.seconds / len(frames) * 1e6
        sched = Scheduler()
        names = [f"w{i}" for i in range(FLEET_WORKERS)]
        for name in names:
            sched.add_worker(name)
        with tracer.span("Scheduler") as span:
            sched.add_job("j1", self.units)
            turn = 0
            while not sched.job_done("j1"):
                name = names[turn % len(names)]
                turn += 1
                picked = sched.next_unit_for(name)
                if picked is not None:
                    sched.complete(name, picked.job_id, picked.idx)
        layers["service.scheduler.dispatch_us"] = \
            span.seconds / len(self.units) * 1e6


WORKLOADS = {w.name: w for w in (Figmatrix, Fabrics, WarmforkPool,
                                 SingletileBatch, Fleet)}
