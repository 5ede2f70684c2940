"""The benchmark scenarios: seeded, deterministic, one per subsystem.

Each scenario is a no-argument callable returning ``(ops, fingerprint)``
— the number of abstract operations performed (the events/sec
numerator) and a flat ``{name: int}`` dict of op counts that must be
bit-identical across runs and processes (the determinism contract the
tests pin). Expensive setup that should not be timed lives in a
``prepare`` step: a scenario entry is ``Scenario(name, prepare)`` where
``prepare()`` returns the timed callable, and the runner times only
that.

Sizing: the full suite must stay CI-cheap (tens of seconds), so macro
scenarios run scaled-down workloads — big enough that per-run noise is
dominated by the calibration normalization, small enough to re-run on
every PR.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

Fingerprint = Dict[str, int]
RunFn = Callable[[], Tuple[int, Fingerprint]]


@dataclass(frozen=True)
class Scenario:
    """One registered benchmark scenario."""

    name: str
    #: which subsystem the scenario exercises (for reports)
    subsystem: str
    prepare: Callable[[], RunFn]


def _lcg(seed: int):
    """Tiny deterministic generator (no RNG state shared with the
    simulator's streams)."""
    state = seed & 0xFFFFFFFF

    def draw(bound: int) -> int:
        nonlocal state
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        return state % bound

    return draw


# ----------------------------------------------------------------------
# kernel
# ----------------------------------------------------------------------
def _prepare_kernel_events() -> RunFn:
    from repro.sim.kernel import Simulator

    def run() -> Tuple[int, Fingerprint]:
        sim = Simulator()
        fired = [0, 0]  # [schedule-path, call_after-path]
        chains = 64
        hops = 1200
        # call_after is the allocation-free fast path; fall back to
        # schedule so the scenario can also measure older revisions
        # (the fingerprint is identical either way).
        call_after = getattr(sim, "call_after", sim.schedule)

        def make_chain(i: int):
            def hop(n: int = 0) -> None:
                fired[n & 1] += 1
                if n < hops:
                    if n & 1:
                        sim.schedule(1 + (n % 3), lambda: hop(n + 1))
                    else:
                        call_after(1 + (n % 3), lambda: hop(n + 1))
            return hop

        for i in range(chains):
            sim.schedule(i % 7, make_chain(i))
        # A ticker that stays awake a bounded number of cycles, so the
        # tick path (wake bookkeeping, awake-count maintenance) is in
        # the measurement too.
        class T:
            ticks = 0

            def tick(self, cycle: int) -> bool:
                T.ticks += 1
                return T.ticks % 50 != 0

        T.ticks = 0
        t = T()
        tid = sim.add_ticker(t)
        sim.wake(tid)
        sim.run()
        ops = sim._seq
        return ops, {"events": ops, "fired_even": fired[0],
                     "fired_odd": fired[1], "ticks": T.ticks,
                     "cycle": sim.cycle}

    return run


# ----------------------------------------------------------------------
# cache
# ----------------------------------------------------------------------
def _prepare_cache_array() -> RunFn:
    from repro.cache.array import CacheArray
    from repro.params import CacheConfig

    def run() -> Tuple[int, Fingerprint]:
        cfg = CacheConfig(size_bytes=32 * 1024, assoc=4, line_bytes=64,
                          access_latency=1)
        array = CacheArray(cfg)
        draw = _lcg(0xC0FFEE)
        hits = misses = evictions = invalidations = 0
        n = 150_000
        span = array.num_sets * array.assoc * 3  # forces eviction churn
        for i in range(n):
            addr = draw(span)
            line = array.lookup(addr)
            if line is not None:
                hits += 1
            elif i % 7 == 3 and array.contains(addr + 1):
                invalidations += 1
                array.invalidate(addr + 1)
            else:
                misses += 1
                if array.set_full(addr):
                    victim = array.victim_candidate(addr)
                    if victim is not None:
                        evictions += 1
                        array.invalidate(victim.line_addr)
                array.allocate(addr)
        return n, {"ops": n, "hits": hits, "misses": misses,
                   "evictions": evictions,
                   "invalidations": invalidations,
                   "resident": array.resident_count}

    return run


def _prepare_cache_mshr() -> RunFn:
    from repro.cache.mshr import MshrFile

    def run() -> Tuple[int, Fingerprint]:
        draw = _lcg(0x4D535248)  # "MSHR"
        mshrs = MshrFile(capacity=16)
        allocated = deferred = retired = replayed = busy_hits = 0
        n = 150_000
        for i in range(n):
            addr = draw(64)
            entry = mshrs.get(addr)
            if entry is not None:
                busy_hits += 1
                if len(entry.deferred) < 4:
                    mshrs.defer(addr, ("req", i))
                    deferred += 1
                else:
                    replayed += len(mshrs.retire(addr))
                    retired += 1
            elif not mshrs.full:
                mshrs.allocate(addr, "GETS", requestor=i % 64,
                               issued_cycle=i)
                allocated += 1
            else:
                # full file: retire the entry for this draw's alias
                victim = mshrs.entries()[draw(len(mshrs))].line_addr
                replayed += len(mshrs.retire(victim))
                retired += 1
        return n, {"ops": n, "allocated": allocated, "deferred": deferred,
                   "retired": retired, "replayed": replayed,
                   "busy_hits": busy_hits, "left": len(mshrs)}

    return run


# ----------------------------------------------------------------------
# NoC fabrics
# ----------------------------------------------------------------------
def _noc_scenario(noc_kind: str) -> Callable[[], RunFn]:
    def prepare() -> RunFn:
        from repro.noc.interface import build_network
        from repro.noc.packet import Packet, VirtualNetwork
        from repro.noc.topology import Mesh
        from repro.params import NocConfig, NocKind
        from repro.sim.kernel import Simulator

        kind = NocKind(noc_kind)

        def run() -> Tuple[int, Fingerprint]:
            sim = Simulator()
            mesh = Mesh(8, 8)
            net = build_network(sim, mesh, NocConfig(kind=kind))
            received = [0] * mesh.num_tiles
            for tile in range(mesh.num_tiles):
                net.attach(tile, lambda p, t=tile: received.__setitem__(
                    t, received[t] + 1))
            # str hashes are per-process randomized — seed from the
            # code points so traffic is identical across processes.
            draw = _lcg(0x0C0C0C ^ sum(ord(c) for c in noc_kind))
            packets = 12_000
            sent = [0]

            def inject(i: int = 0) -> None:
                # bursty deterministic traffic: a few packets per event
                for _ in range(1 + draw(3)):
                    if sent[0] >= packets:
                        return
                    src = draw(mesh.num_tiles)
                    dst = draw(mesh.num_tiles)
                    vn = VirtualNetwork(draw(5))
                    size = 1 + 4 * (draw(4) == 0)
                    net.send(Packet(src=src, dst=dst, vn=vn,
                                    size_flits=size))
                    sent[0] += 1
                if sent[0] < packets:
                    sim.schedule(1 + draw(4), lambda: inject(i + 1))

            inject()
            sim.run()
            st = net.stats
            return sent[0], {
                "delivered": sum(received),
                "injected": st.value(f"{net.name}.injected"),
                "flit_hops": st.value(f"{net.name}.flit_hops"),
                "arb_losses": st.value(f"{net.name}.arb_losses"),
                "cycle": sim.cycle,
            }

        return run

    return prepare


# ----------------------------------------------------------------------
# coherence organizations (macro)
# ----------------------------------------------------------------------
def _coherence_scenario(org_name: str) -> Callable[[], RunFn]:
    def prepare() -> RunFn:
        from repro.cmp.system import CmpSystem
        from repro.harness.experiment import ExperimentConfig
        from repro.params import Organization
        from repro.traces.benchmarks import get_benchmark
        from repro.traces.synthetic import generate_traces

        exp = ExperimentConfig(benchmark="water_spatial",
                               organization=Organization(org_name),
                               cores=64, scale=0.04)
        spec = get_benchmark("water_spatial", scale=exp.scale)
        traces = generate_traces(spec, exp.cores, seed=exp.seed)
        cfg = exp.system_config()

        def run() -> Tuple[int, Fingerprint]:
            system = CmpSystem(cfg, traces,
                               warmup_fraction=exp.warmup_fraction)
            result = system.run(max_cycles=30_000_000)
            assert result.finished
            ops = system.sim._seq
            return ops, {
                "events": ops,
                "runtime": result.runtime,
                "instructions": result.instructions,
                "l2_misses": system.stats.value("l2_misses"),
                "delivered": system.stats.value(
                    f"{system.network.name}.delivered"),
            }

        return run

    return prepare


# ----------------------------------------------------------------------
# dataflow workloads on the reconfigurable hierarchy (macro)
# ----------------------------------------------------------------------
def _dataflow_scenario(bench: str,
                       scratchpad_fraction: float) -> Callable[[], RunFn]:
    """One dataflow workload on a 16-tile machine; with a scratchpad
    partition these exercise the SPM unit plus the non-coherent NoC
    kinds, with fraction 0.0 the same trace degrades to coherent
    accesses (the all-cache arm of the crossover)."""
    def prepare() -> RunFn:
        from repro.cmp.system import CmpSystem
        from repro.harness.experiment import (ExperimentConfig,
                                              HierarchyAxes, _traces_for)
        from repro.params import Organization

        exp = ExperimentConfig(
            benchmark=bench, organization=Organization.SHARED, cores=16,
            cluster=(2, 2), scale=0.25,
            hierarchy=HierarchyAxes(scratchpad_fraction=scratchpad_fraction))
        traces, _ = _traces_for(exp)
        cfg = exp.system_config()

        def run() -> Tuple[int, Fingerprint]:
            system = CmpSystem(cfg, traces,
                               warmup_fraction=exp.warmup_fraction)
            result = system.run(max_cycles=30_000_000)
            assert result.finished
            ops = system.sim._seq
            return ops, {
                "events": ops,
                "runtime": result.runtime,
                "instructions": result.instructions,
                "l2_misses": system.stats.value("l2_misses"),
                "spm_local": system.stats.value("spm_local_accesses"),
                "spm_remote": (
                    system.stats.value("spm_remote_reads")
                    + system.stats.value("spm_remote_writes")
                    + system.stats.value("spm_pushes")),
                "delivered": system.stats.value(
                    f"{system.network.name}.delivered"),
            }

        return run

    return prepare


# ----------------------------------------------------------------------
# snapshot save/restore (macro)
# ----------------------------------------------------------------------
def _prepare_snapshot_roundtrip() -> RunFn:
    from repro.cmp.system import CmpSystem
    from repro.harness.experiment import ExperimentConfig
    from repro.params import Organization
    from repro.traces.benchmarks import get_benchmark
    from repro.traces.synthetic import generate_traces

    exp = ExperimentConfig(benchmark="water_spatial",
                           organization=Organization.SHARED,
                           cores=16, cluster=(2, 2), scale=0.05)
    spec = get_benchmark("water_spatial", scale=exp.scale)
    traces = generate_traces(spec, exp.cores, seed=exp.seed)
    cfg = exp.system_config()
    warmed = CmpSystem(cfg, traces, warmup_fraction=0.5)
    warmed.run_until_warmup(max_cycles=30_000_000)

    def run() -> Tuple[int, Fingerprint]:
        rounds = 6
        system = warmed
        for _ in range(rounds):
            blob = system.checkpoint()
            system = CmpSystem.restore(blob, traces)
        # NB: the image byte count is NOT part of the fingerprint —
        # pickle output varies across processes (str-hash-randomized
        # set iteration orders); the restored machine state does not.
        return rounds, {"rounds": rounds,
                        "cycle": system.sim.cycle,
                        "instructions": int(
                            system.stats.value("instructions"))}

    return run


# ----------------------------------------------------------------------
# sweep backend (macro)
# ----------------------------------------------------------------------
def _prepare_sweep_backend() -> RunFn:
    from repro.harness.sweep import sweep
    from repro.params import Organization

    def run() -> Tuple[int, Fingerprint]:
        rows = sweep("water_spatial", metric="runtime",
                     organization=[Organization.SHARED,
                                   Organization.PRIVATE],
                     cores=[16], cluster=[(2, 2)], scale=[0.03, 0.04],
                     warmup_fraction=[0.5])
        fp: Fingerprint = {"cells": len(rows)}
        for i, row in enumerate(rows):
            fp[f"runtime_{i}"] = int(row["runtime"])
        return len(rows), fp

    return run


# ----------------------------------------------------------------------
# batched lockstep sweep backend (macro)
# ----------------------------------------------------------------------
def _prepare_batch_sweep() -> RunFn:
    """A figure-matrix slice through the BatchSim lockstep backend:
    3 organizations x 6 seeds x 2 scales of single-tile cells, run in
    lockstep groups of 18 (``sweep(batch=18)``). Ops is total
    simulated instructions, so events/sec here is directly comparable
    to the same cells on the scalar path (the measured ratio lives in
    ``benchmarks/test_batch_speedup.py``); the fingerprint pins every
    cell's runtime, which the differential suite separately proves
    bit-identical to scalar."""
    from repro.harness.sweep import sweep
    from repro.params import Organization

    def run() -> Tuple[int, Fingerprint]:
        rows = sweep("water_spatial", metric=("runtime", "instructions"),
                     batch=18,
                     organization=[Organization.SHARED,
                                   Organization.PRIVATE,
                                   Organization.LOCO_CC],
                     cores=[1], cluster=[(1, 1)],
                     scale=[0.15, 0.25], seed=[1, 2, 3, 4, 5, 6],
                     warmup_fraction=[0.5])
        ops = sum(int(row["instructions"]) for row in rows)
        fp: Fingerprint = {"cells": len(rows)}
        for i, row in enumerate(rows):
            fp[f"runtime_{i}"] = int(row["runtime"])
        return ops, fp

    return run


# ----------------------------------------------------------------------
# service tier: coordinator connection scale (macro)
# ----------------------------------------------------------------------
def _prepare_service_connections() -> RunFn:
    """Drive 500+ simulated worker connections through one event-loop
    coordinator: sign-in storm, heartbeat wave, orderly drain.

    The connections are raw worker-role sockets (hello / heartbeat /
    bye frames), not real :class:`~repro.service.worker.Worker`
    objects — the point is the coordinator's single-threaded socket
    tier, not 512 simulators. Every count in the fingerprint is a
    constant by construction (the runner rejects non-deterministic
    scenarios); wall time is where the measurement lives. Status polls
    ride a separate client connection and are deliberately excluded
    from ops and fingerprint — their count depends on scheduling.
    """
    import resource
    import socket as socket_mod
    import time as time_mod

    from repro.service import Coordinator, ServiceClient
    from repro.service.protocol import (PROTOCOL_VERSION, FrameDecoder,
                                        recv_msg, send_msg)

    # CI runners default to a 1024 soft fd limit; 512 client-side plus
    # 512 accepted server-side sockets (one process) needs more.
    soft, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    want = 4096 if hard == resource.RLIM_INFINITY else min(hard, 4096)
    if soft < want:
        resource.setrlimit(resource.RLIMIT_NOFILE, (want, hard))

    N = 512
    HEARTBEATS = 2

    def run() -> Tuple[int, Fingerprint]:
        coord = Coordinator(heartbeat_timeout=120.0,
                            monitor_interval=30.0)
        address = coord.start()
        host, port = address.rsplit(":", 1)
        conns = []
        welcomed = 0
        try:
            for i in range(N):
                sock = socket_mod.create_connection((host, int(port)),
                                                    timeout=30.0)
                sock.setsockopt(socket_mod.IPPROTO_TCP,
                                socket_mod.TCP_NODELAY, 1)
                sock.settimeout(30.0)
                send_msg(sock, {"type": "hello", "role": "worker",
                                "protocol": PROTOCOL_VERSION,
                                "name": f"bw{i}", "pid": i})
                conns.append((sock, FrameDecoder()))
            for sock, dec in conns:
                welcome = recv_msg(sock, dec)
                assert welcome["type"] == "welcome"
                welcomed += 1
            for _ in range(HEARTBEATS):
                for sock, _dec in conns:
                    send_msg(sock, {"type": "heartbeat"})

            def await_stats(pred, what: str) -> Dict[str, int]:
                deadline = time_mod.monotonic() + 60.0
                with ServiceClient(address, row_timeout=30.0) as client:
                    while time_mod.monotonic() < deadline:
                        stats = client.status()["stats"]
                        if pred(stats):
                            return stats
                        time_mod.sleep(0.02)
                raise AssertionError(f"coordinator never {what}; "
                                     f"last stats: {stats}")

            peak = await_stats(
                lambda s: (s["workers"] == N and
                           s["heartbeats_seen"] == N * HEARTBEATS),
                f"registered {N} workers x {HEARTBEATS} heartbeats")
            peak_workers = peak["workers"]
            for sock, _dec in conns:
                send_msg(sock, {"type": "bye"})
            await_stats(lambda s: s["workers"] == 0, "drained to 0")
        finally:
            for sock, _dec in conns:
                sock.close()
            coord.stop()
        ops = N * (1 + HEARTBEATS + 1)  # hello + heartbeats + bye each
        return ops, {"connections": N, "welcomed": welcomed,
                     "heartbeats": N * HEARTBEATS,
                     "peak_workers": peak_workers, "drained": 1}

    return run


#: Registry, keyed by scenario name. Order is the report order.
SCENARIOS: Dict[str, Scenario] = {}


def _register(name: str, subsystem: str,
              prepare: Callable[[], RunFn]) -> None:
    SCENARIOS[name] = Scenario(name, subsystem, prepare)


_register("kernel_events", "sim.kernel", _prepare_kernel_events)
_register("cache_array", "cache.array", _prepare_cache_array)
_register("cache_mshr", "cache.mshr", _prepare_cache_mshr)
_register("noc_conventional", "noc", _noc_scenario("conventional"))
_register("noc_smart", "noc", _noc_scenario("smart"))
_register("noc_fbfly", "noc", _noc_scenario("flattened_butterfly"))
_register("coherence_shared", "coherence",
          _coherence_scenario("shared"))
_register("coherence_private", "coherence",
          _coherence_scenario("private"))
_register("coherence_loco_token", "coherence",
          _coherence_scenario("loco_cc_vms_ivr"))
_register("dataflow_gemm", "cmp.scratchpad",
          _dataflow_scenario("dataflow_gemm", 0.5))
_register("dataflow_stencil", "cmp.scratchpad",
          _dataflow_scenario("dataflow_stencil", 0.5))
_register("spm_crossover_allcache", "cmp.scratchpad",
          _dataflow_scenario("dataflow_gemm", 0.0))
_register("snapshot_roundtrip", "sim.snapshot",
          _prepare_snapshot_roundtrip)
_register("sweep_backend", "harness.sweep", _prepare_sweep_backend)
_register("batch_sweep", "batch", _prepare_batch_sweep)
_register("service_connections", "service",
          _prepare_service_connections)


def scenario_names() -> List[str]:
    return list(SCENARIOS)
