"""Checkpoint/restore correctness: the replay test campaign.

The contract under test is *bit-exact equivalence*: a machine imaged at
any cycle boundary and restored — in this process or a fresh one — must
continue exactly like the uninterrupted run, for every organization:
same ``Stats.to_dict()``, same runtime, same per-line shadow versions,
same shadow-oracle verdict. Silent drift in any serialized subsystem
(event heap, MSHR continuations, RNG streams, NoC state, replacement
order) shows up here as a hard inequality.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cmp.system import CmpSystem
from repro.coherence.shadow import ShadowOracle
from repro.errors import SnapshotError
from repro.noc.interface import build_network
from repro.noc.packet import Packet, VirtualNetwork
from repro.noc.topology import Mesh
from repro.params import NocConfig, NocKind, Organization
from repro.sim import snapshot
from repro.sim.kernel import Simulator
from repro.traces.synthetic import WorkloadSpec, generate_traces
from tests.conftest import tiny_config

ORGS4 = [Organization.PRIVATE, Organization.SHARED,
         Organization.LOCO_CC, Organization.LOCO_CC_VMS_IVR]


def _spec(seed: int) -> WorkloadSpec:
    """A small but protocol-rich workload, varied per property seed."""
    return WorkloadSpec(name=f"snap{seed}", refs_per_core=140 + 10 * seed,
                        private_lines=64, shared_lines=32,
                        shared_fraction=0.35, write_fraction=0.3,
                        sharing="neighbor", group_size=4,
                        zipf_alpha=0.7, gap_mean=2.0)


def _build(org: Organization, traces, seed: int = 1) -> CmpSystem:
    system = CmpSystem(tiny_config(org, seed=seed), traces,
                       warmup_fraction=0.35)
    system.ctx.shadow = ShadowOracle()
    return system


def _shadow_image(system: CmpSystem):
    """Per-line shadow versions (and L1 states) of the whole chip."""
    image = {}
    for t, l1 in enumerate(system.l1s):
        for line in l1.array.lines():
            image[("l1", t, line.line_addr)] = (line.l1_state.name,
                                                line.shadow)
    for t, l2 in enumerate(system.l2s):
        for line in l2.array.lines():
            image[("l2", t, line.line_addr)] = (line.l2_state.name,
                                                line.shadow, line.tokens)
    return image


# ----------------------------------------------------------------------
# round-trip property tests (seeded, Hypothesis-style)
# ----------------------------------------------------------------------
class TestRoundTripProperties:
    """For seeded random (workload, org, pause-cycle) triples: fork ==
    straight-through, bit for bit."""

    @pytest.mark.parametrize("case", range(8))
    def test_midrun_fork_bit_identical(self, case):
        import numpy as np
        rng = np.random.default_rng(1000 + case)
        org = ORGS4[case % 4]
        traces = generate_traces(_spec(case), 16, seed=100 + case)
        pause_at = int(rng.integers(500, 6000))

        straight = _build(org, traces)
        r_straight = straight.run(max_cycles=20_000_000)

        paused = _build(org, traces)
        paused.start()
        paused.sim.run(until=pause_at)
        image = paused.checkpoint()
        r_resumed = paused.resume(max_cycles=20_000_000)

        forked = CmpSystem.restore(image, traces)
        r_forked = forked.resume(max_cycles=20_000_000)

        # pause/resume is transparent ...
        assert r_resumed.stats.to_dict() == r_straight.stats.to_dict()
        # ... and the restored fork is bit-identical to both
        assert r_forked.stats.to_dict() == r_straight.stats.to_dict()
        assert r_forked.runtime == r_straight.runtime
        assert r_forked.per_core_finish == r_straight.per_core_finish
        assert _shadow_image(forked) == _shadow_image(straight)
        assert forked.ctx.shadow.clean
        assert (forked.ctx.shadow.store_counts
                == straight.ctx.shadow.store_counts)

    @pytest.mark.parametrize("org", ORGS4, ids=lambda o: o.value)
    def test_warmup_mark_fork_bit_identical(self, org):
        traces = generate_traces(_spec(0), 16, seed=7)
        straight = _build(org, traces)
        r_straight = straight.run()

        warm = _build(org, traces)
        assert warm.run_until_warmup()
        assert warm.stats.marked
        image = warm.checkpoint()
        forked = CmpSystem.restore(image, traces)
        assert forked.stats.marked  # the warmup mark is part of the image
        r_forked = forked.resume()
        assert r_forked.stats.to_dict() == r_straight.stats.to_dict()
        assert r_forked.mpki == r_straight.mpki
        assert r_forked.l2_hit_latency == r_straight.l2_hit_latency
        assert _shadow_image(forked) == _shadow_image(straight)

    @pytest.mark.parametrize("org", ORGS4, ids=lambda o: o.value)
    def test_epoch0_snapshot_equals_fresh_construction(self, org):
        traces = generate_traces(_spec(1), 16, seed=5)
        fresh = _build(org, traces)
        r_fresh = fresh.run()
        unstarted = _build(org, traces)
        image = unstarted.checkpoint()  # before start(): cycle 0, no events
        restored = CmpSystem.restore(image, traces)
        assert restored.sim.cycle == 0
        r_restored = restored.run()
        assert r_restored.stats.to_dict() == r_fresh.stats.to_dict()
        assert r_restored.runtime == r_fresh.runtime


# ----------------------------------------------------------------------
# kernel-level round trips (closures, cells, tickers, hooks)
# ----------------------------------------------------------------------
class _CountdownTicker:
    """Ticks until its budget runs out (module-level: picklable)."""

    def __init__(self, sim, budget):
        self.sim = sim
        self.budget = budget
        self.ticked_at = []

    def tick(self, cycle):
        self.ticked_at.append(cycle)
        self.budget -= 1
        return self.budget > 0


class TestKernelRoundTrip:
    def _seed_kernel(self):
        sim = Simulator()
        log = sim.registry.setdefault("log", [])

        def ping(n):
            log.append(("ping", sim.cycle, n))
            if n < 6:
                sim.schedule(5, lambda: ping(n + 1))

        sim.schedule(3, lambda: ping(0))
        ticker = _CountdownTicker(sim, budget=4)
        tid = sim.add_ticker(ticker)
        sim.registry["ticker"] = ticker
        sim.wake(tid)
        hook = sim.add_epoch_hook(8, lambda cycle: log.append(("epoch",
                                                               cycle)))
        sim.registry["hook"] = hook
        return sim

    def test_heap_tickers_hooks_roundtrip(self):
        sim = self._seed_kernel()
        sim.run(until=11)
        blob = sim.checkpoint()

        restored = Simulator.restore(blob)
        assert restored.cycle == sim.cycle
        assert restored.pending_events() == sim.pending_events()
        # drive both to the same horizon; logs must match exactly
        sim.registry["hook"].cancel()
        restored.registry["hook"].cancel()
        sim.run(until=60)
        restored.run(until=60)
        assert restored.registry["log"] == sim.registry["log"]
        assert (restored.registry["ticker"].ticked_at
                == sim.registry["ticker"].ticked_at)
        # and the copies are independent (no shared closure cells)
        sim.registry["log"].append("only-original")
        assert restored.registry["log"] != sim.registry["log"]

    def test_mutually_recursive_closures_share_cells_after_restore(self):
        sim = Simulator()
        log = sim.registry.setdefault("log", [])

        def make_pair():
            state = {"rounds": 0}

            def probe():
                state["rounds"] += 1
                log.append(("probe", sim.cycle, state["rounds"]))
                if state["rounds"] < 4:
                    sim.schedule(2, attempt)

            def attempt():
                log.append(("attempt", sim.cycle))
                sim.schedule(1, probe)
            return probe

        sim.schedule(1, make_pair())
        sim.run(until=3)
        blob = sim.checkpoint()
        restored = Simulator.restore(blob)
        sim.run()
        restored.run()
        # identical continuation => probe/attempt still share their
        # closure cells (state dict, each other) after the round trip
        assert restored.registry["log"] == sim.registry["log"]

    def test_epoch_hook_keeps_firing_after_restore(self):
        sim = Simulator()
        fired = sim.registry.setdefault("fired", [])
        sim.add_epoch_hook(10, lambda cycle: fired.append(cycle))
        sim.run(until=25)
        restored = Simulator.restore(sim.checkpoint())
        restored.run(until=55)
        assert restored.registry["fired"] == [10, 20, 30, 40, 50]


class TestNetworkMidEjectionRoundTrip:
    """A tick's ejections are delivered one cycle later. Pausing in
    between — ejected, not yet fired — must checkpoint and restore
    exactly, on every fabric."""

    @staticmethod
    def _loaded_network(kind):
        sim = Simulator()
        mesh = Mesh(4, 4)
        net = build_network(sim, mesh, NocConfig(kind=kind))
        sim.registry["net"] = net
        log = sim.registry.setdefault("log", [])

        def receiver(tile):
            return lambda packet: log.append(
                (tile, sim.cycle, packet.src, packet.vn, net.in_flight))

        for tile in range(mesh.num_tiles):
            net.attach(tile, receiver(tile))
        for i in range(120):
            src, dst = (i * 7) % 16, (i * 11 + 5) % 16
            packet = Packet(src=src, dst=dst, vn=VirtualNetwork(i % 5),
                            size_flits=1 + 4 * (i % 3 == 0))
            sim.schedule(i // 6, lambda packet=packet: net.send(packet))
        return sim, net

    @pytest.mark.parametrize("kind", list(NocKind), ids=lambda k: k.value)
    def test_pause_between_eject_and_fire(self, kind):
        straight, straight_net = self._loaded_network(kind)
        straight.run()

        sim, net = self._loaded_network(kind)
        forks = 0
        for cycle in range(straight.cycle):
            sim.run(until=cycle)
            ejected = net.stats.value(f"{net.name}.delivered")
            # ejected by this cycle's tick, not yet handed to a receiver
            if ejected - len(sim.registry["log"]) >= 2:
                restored = Simulator.restore(sim.checkpoint())
                restored.run()
                assert restored.registry["log"] == straight.registry["log"]
                assert (restored.registry["net"].stats.to_dict()
                        == straight_net.stats.to_dict())
                assert restored.cycle == straight.cycle
                assert restored.registry["net"].in_flight == 0
                forks += 1
        assert forks >= 3  # the scenario does pause mid-batch
        sim.run()
        assert sim.registry["log"] == straight.registry["log"]


# ----------------------------------------------------------------------
# corruption & version mismatch
# ----------------------------------------------------------------------
def _doctor_header(blob: bytes, **overrides) -> bytes:
    """Rewrite an image's JSON header (corruption-test helper)."""
    import struct
    off = len(b"RSNAP1")
    (hlen,) = struct.unpack_from(">I", blob, off)
    header = json.loads(blob[off + 4:off + 4 + hlen])
    header.update(overrides)
    new_header = json.dumps(header, sort_keys=True).encode()
    return (blob[:off] + struct.pack(">I", len(new_header)) + new_header
            + blob[off + 4 + hlen:])


class TestCorruption:
    def _blob(self):
        sim = Simulator()
        sim.schedule(3, sim.stop)
        return sim.checkpoint()

    def test_garbage_rejected(self):
        with pytest.raises(SnapshotError):
            snapshot.loads(b"this is not a snapshot")

    def test_empty_rejected(self):
        with pytest.raises(SnapshotError):
            snapshot.loads(b"")

    def test_truncated_payload_rejected(self):
        blob = self._blob()
        with pytest.raises(SnapshotError):
            snapshot.loads(blob[:len(blob) - 20])

    def test_format_version_mismatch_rejected(self):
        blob = _doctor_header(self._blob(), format=999)
        with pytest.raises(SnapshotError, match="format"):
            snapshot.loads(blob)

    def test_source_fingerprint_mismatch_rejected(self):
        blob = _doctor_header(self._blob(), fingerprint="0" * 32)
        with pytest.raises(SnapshotError, match="fingerprint"):
            snapshot.loads(blob)

    def test_wrong_kind_image_rejected_by_cmpsystem(self):
        with pytest.raises(SnapshotError, match="not a CmpSystem"):
            CmpSystem.restore(self._blob(), traces=[])

    def test_trace_digest_mismatch_rejected(self):
        traces = generate_traces(_spec(2), 16, seed=9)
        system = _build(Organization.SHARED, traces)
        system.start()
        system.sim.run(until=500)
        image = system.checkpoint()
        wrong = generate_traces(_spec(2), 16, seed=10)  # different seed
        with pytest.raises(SnapshotError, match="digest mismatch"):
            CmpSystem.restore(image, wrong)

    def test_two_lambdas_on_one_line_rejected_at_dump(self):
        """Two code objects sharing (name, line) cannot be resolved by
        reference; refusing the dump beats a coin-flip at restore."""
        pair = [lambda: 1, lambda: 2]  # both '<lambda>' on this line
        with pytest.raises(SnapshotError, match="not resolvable"):
            snapshot.dumps(pair)

    def test_missing_external_object_rejected(self):
        payload = [1, 2, 3]
        blob = snapshot.dumps({"x": payload},
                              external={id(payload): ("tag", 0)})
        with pytest.raises(SnapshotError, match="external"):
            snapshot.loads(blob)  # no replacement supplied
        back = snapshot.loads(blob, external={("tag", 0): [7]})
        assert back == {"x": [7]}


# ----------------------------------------------------------------------
# trace externalization & fresh-process restore
# ----------------------------------------------------------------------
class TestTraceExternalization:
    def test_image_does_not_embed_traces(self):
        """Doubling the trace length must not grow the image with it —
        traces are externalized, re-derived at restore time."""
        short = generate_traces(_spec(0), 16, seed=3)
        long_spec = WorkloadSpec(name="snap0", refs_per_core=1400,
                                 private_lines=64, shared_lines=32,
                                 shared_fraction=0.35, write_fraction=0.3,
                                 sharing="neighbor", group_size=4,
                                 zipf_alpha=0.7, gap_mean=2.0)
        long = generate_traces(long_spec, 16, seed=3)
        blob_short = _build(Organization.SHARED, short).checkpoint()
        blob_long = _build(Organization.SHARED, long).checkpoint()
        n_short = sum(len(t) for t in short)
        n_long = sum(len(t) for t in long)
        assert n_long > 5 * n_short
        # unstarted systems: images differ only by incidental payload
        assert len(blob_long) < 1.5 * len(blob_short)

    def test_restore_after_trace_cache_clear(self, tmp_path):
        """The process-global trace memo is never captured: clearing it
        (as a fresh worker effectively does) and re-deriving traces from
        the config seed restores bit-identically."""
        from repro.harness.experiment import (ExperimentConfig,
                                              WarmupImageCache,
                                              clear_trace_cache,
                                              run_benchmark)
        exp = ExperimentConfig(benchmark="water_spatial",
                               organization=Organization.LOCO_CC,
                               scale=0.04, seed=4, warmup_fraction=0.5)
        cold = run_benchmark(exp)
        cache = WarmupImageCache(str(tmp_path))
        built = run_benchmark(exp, warmup_images=cache)  # builds image
        assert built.stats.to_dict() == cold.stats.to_dict()
        clear_trace_cache()
        try:
            forked = run_benchmark(exp, warmup_images=cache)  # uses image
        finally:
            clear_trace_cache()
        assert cache.hits >= 1
        assert forked.stats.to_dict() == cold.stats.to_dict()
        assert forked.runtime == cold.runtime

    def test_clean_subprocess_restore_matches_in_process(self, tmp_path):
        """A fresh worker process (empty trace memo, fresh id sources)
        restoring the same image must produce the identical result."""
        from repro.harness.experiment import (ExperimentConfig,
                                              WarmupImageCache,
                                              run_benchmark)
        exp = ExperimentConfig(benchmark="water_spatial",
                               organization=Organization.SHARED,
                               scale=0.04, seed=4, warmup_fraction=0.5)
        cache = WarmupImageCache(str(tmp_path))
        run_benchmark(exp, warmup_images=cache)            # builds image
        in_proc = run_benchmark(exp, warmup_images=cache)  # forks from it
        script = (
            "import json, sys\n"
            "from repro.harness.experiment import (ExperimentConfig,\n"
            "    WarmupImageCache, run_benchmark)\n"
            "from repro.params import Organization\n"
            "exp = ExperimentConfig(benchmark='water_spatial',\n"
            "    organization=Organization.SHARED, scale=0.04, seed=4,\n"
            "    warmup_fraction=0.5)\n"
            f"cache = WarmupImageCache({str(tmp_path)!r})\n"
            "r = run_benchmark(exp, warmup_images=cache)\n"
            "print(json.dumps({'hits': cache.hits,\n"
            "                  'runtime': r.runtime,\n"
            "                  'stats': r.stats.to_dict()}))\n")
        src_dir = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        assert got["hits"] == 1            # the subprocess forked, cold-free
        assert got["runtime"] == in_proc.runtime
        assert got["stats"] == in_proc.stats.to_dict()
