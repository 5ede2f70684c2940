"""Checkpoint/restore correctness: the replay test campaign.

The contract under test is *bit-exact equivalence*: a machine imaged at
any cycle boundary and restored — in this process or a fresh one — must
continue exactly like the uninterrupted run, for every organization:
same ``Stats.to_dict()``, same runtime, same per-line shadow versions,
same shadow-oracle verdict. Silent drift in any serialized subsystem
(event queue, MSHR continuations, RNG streams, NoC state, replacement
order) shows up here as a hard inequality.
"""

from __future__ import annotations

import ast
import json
import os
import pathlib
import subprocess
import sys
from functools import partial

import pytest

from repro.cmp.system import CmpSystem
from repro.coherence.shadow import ShadowOracle
from repro.errors import SimulationError, SnapshotError
from repro.harness.fuzz import SnapshotRecorder
from repro.noc.interface import build_network
from repro.noc.packet import Packet
from repro.noc.topology import Mesh
from repro.params import NocConfig, NocKind, Organization
from repro.sim import snapshot
from repro.sim.kernel import Event, Simulator
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

    def test_restored_past_its_horizon_still_hits_the_cycle_limit(self):
        """The kernel refuses ``run(until=)`` before its clock, so
        ``resume()`` does not call it on an image already past
        ``max_cycles``: it reports the horizon, as a cell whose warmup
        image outruns a lower ``max_cycles`` rung always has."""
        traces = generate_traces(_spec(0), 16, seed=7)
        warm = _build(Organization.SHARED, traces)
        assert warm.run_until_warmup()
        horizon = warm.sim.cycle - 1
        forked = CmpSystem.restore(warm.checkpoint(), traces)
        with pytest.raises(SimulationError,
                           match=f"the {horizon}-cycle limit"):
            forked.resume(max_cycles=horizon)
        assert forked.sim.cycle == horizon + 1

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
# kernel-level round trips (heap continuations, tickers, hooks)
# ----------------------------------------------------------------------
class _Pinger:
    """Continuation target for the kernel fixtures: like the simulator,
    they store only bound methods and partials over them."""

    def __init__(self, sim):
        self.sim = sim
        self.log = sim.registry.setdefault("log", [])

    def ping(self, n):
        self.log.append(("ping", self.sim.cycle, n))
        if n < 6:
            self.sim.schedule(5, partial(self.ping, n + 1))

    def epoch(self, cycle):
        self.log.append(("epoch", cycle))


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
        pinger = _Pinger(sim)
        sim.schedule(3, partial(pinger.ping, 0))
        ticker = _CountdownTicker(sim, budget=4)
        tid = sim.add_ticker(ticker)
        sim.registry["ticker"] = ticker
        sim.wake(tid)
        sim.registry["hook"] = sim.add_epoch_hook(8, pinger.epoch)
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
        # and the copies are independent (nothing shared with the original)
        sim.registry["log"].append("only-original")
        assert restored.registry["log"] != sim.registry["log"]

    def test_epoch_hook_keeps_firing_after_restore(self):
        sim = Simulator()
        fired = sim.registry.setdefault("fired", [])
        sim.add_epoch_hook(10, fired.append)
        sim.run(until=25)
        restored = Simulator.restore(sim.checkpoint())
        restored.run(until=55)
        assert restored.registry["fired"] == [10, 20, 30, 40, 50]


def _log_delivery(sim, net, tile, packet):
    sim.registry["log"].append(
        (tile, sim.cycle, packet.src, packet.size_flits, net.in_flight))


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
        sim.registry["log"] = []
        for tile in range(mesh.num_tiles):
            net.attach(tile, partial(_log_delivery, sim, net, tile))
        for i in range(120):
            src, dst = (i * 7) % 16, (i * 11 + 5) % 16
            packet = Packet(src=src, dst=dst,
                            size_flits=1 + 4 * (i % 3 == 0))
            sim.schedule(i // 6, partial(net.send, packet))
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
# periodic checkpoints through the converted continuation sites
# ----------------------------------------------------------------------
def _continuation_names(fn, out):
    """Method names behind one stored callable: a bound method, or a
    partial over one whose arguments may carry further callbacks."""
    if isinstance(fn, partial):
        _continuation_names(fn.func, out)
        for arg in fn.args:
            _continuation_names(arg, out)
    elif hasattr(fn, "__func__"):
        out.add(fn.__func__.__name__)


class _ImageRecorder(SnapshotRecorder):
    """Checkpoints every ``period`` cycles and keeps the newest image
    plus, per continuation seen live in the event queue, the first image
    that holds it."""

    def __init__(self, system, period):
        self.first_with = {}
        super().__init__(system, period)

    def _snap(self, cycle):
        super()._snap(cycle)
        names = set()
        # what the image holds: while an event fires, only the unfired
        # rest of its cycle
        for bucket in self.system.sim.__getstate__()["_buckets"].values():
            for entry in bucket:
                _continuation_names(
                    entry.fn if entry.__class__ is Event else entry, names)
        for name in names - self.first_with.keys():
            self.first_with[name] = self.latest

    def __getstate__(self):
        state = super().__getstate__()
        state["first_with"] = {}
        return state


def _assert_images_finish_like_straight(make, traces, every, expect):
    """Run ``make()`` straight through and again checkpointed every
    ``every`` cycles; the newest image, and the first image holding each
    continuation in ``expect``, must restore and finish bit-identically."""
    r_straight = make().run()
    recorded = make()
    recorded.recorder = recorder = _ImageRecorder(recorded, every)
    r_recorded = recorded.run()
    assert r_recorded.stats.to_dict() == r_straight.stats.to_dict()
    assert recorder.snapshots_taken >= 10
    assert expect <= recorder.first_with.keys(), \
        sorted(expect - recorder.first_with.keys())
    images = {recorder.latest, *(recorder.first_with[n] for n in expect)}
    for _cycle, image in sorted(images):
        forked = CmpSystem.restore(image, traces)
        forked.recorder.hook.cancel()  # re-imaging the replay adds nothing
        r_forked = forked.resume()
        assert r_forked.stats.to_dict() == r_straight.stats.to_dict()
        assert r_forked.runtime == r_straight.runtime
        assert r_forked.per_core_finish == r_straight.per_core_finish
    return r_straight


class TestPeriodicCheckpoints:
    def test_full_system_lock_and_barrier_spins(self):
        import numpy as np
        from repro.traces.adversarial import barrier_phases, lock_pingpong
        rng = np.random.default_rng(5)
        traces = [a + b for a, b in zip(lock_pingpong(rng, 16),
                                        barrier_phases(rng, 16))]
        result = _assert_images_finish_like_straight(
            lambda: CmpSystem(tiny_config(Organization.LOCO_CC_VMS_IVR),
                              traces, full_system=True),
            traces, every=200,
            expect={"_lock_probe", "_lock_probed", "_lock_attempted",
                    "_unlocked", "_spin_barrier", "_barrier_probed"})
        assert result.stats.value("lock_spins") > 0
        assert result.stats.value("spin_probes") > 0

    def test_scratchpad_remote_reads_and_writes(self):
        """The stencil's halo pushes, then blocking loads and stores on
        other tiles' banks (no benchmark issues those)."""
        from repro.harness.experiment import (ExperimentConfig,
                                              HierarchyAxes, _traces_for)
        from repro.traces.events import Op, TraceEvent, spm_addr
        exp = ExperimentConfig("dataflow_stencil", Organization.SHARED,
                               cores=16, cluster=(2, 2), scale=0.1,
                               hierarchy=HierarchyAxes(0.5))
        stencil, populations = _traces_for(exp)
        traces = [list(trace) + [
            TraceEvent(op, spm_addr((core + hop) % 16, slot), slot % 3)
            for slot in range(12)
            for op, hop in ((Op.SPM_STORE, 1), (Op.SPM_LOAD, 5))]
            for core, trace in enumerate(stencil)]
        result = _assert_images_finish_like_straight(
            lambda: CmpSystem(exp.system_config(), traces,
                              barrier_populations=populations),
            traces, every=25, expect={"_reply_read", "_apply_remote"})
        assert result.stats.value("spm_pushes") > 0
        assert result.stats.value("spm_remote_reads") == 16 * 12
        assert result.stats.value("spm_remote_writes") == 16 * 12

    def test_leakage_cell_speculating_under_the_oracle(self):
        from repro.harness.experiment import ExperimentConfig, SpecAxes
        from repro.harness.leakage import (LEAK_CLUSTER, LEAK_CORES,
                                           build_leak_traces,
                                           spec_config_for)
        exp = ExperimentConfig(benchmark="leak_prime_probe",
                               organization=Organization.SHARED,
                               cores=LEAK_CORES, cluster=LEAK_CLUSTER,
                               warmup_fraction=0.0,
                               spec=SpecAxes(mode="on", rate=0.2))
        traces, populations = build_leak_traces(exp)

        def make():
            system = CmpSystem(exp.system_config(), traces,
                               barrier_populations=populations,
                               speculation=spec_config_for(exp))
            system.ctx.shadow = ShadowOracle()
            return system

        result = _assert_images_finish_like_straight(
            make, traces, every=40,
            expect={"_commit_then", "_squash_then", "_probe_measured",
                    "_spec_fill", "_wait_barrier_free"})
        assert result.stats.value("spec_issued") > 0

    #: what each organization's storm must be caught holding in its
    #: event queue (seed and geometry are picked for it)
    STORM_CONTINUATIONS = {
        Organization.PRIVATE: {"_refetch", "_reissue"},
        Organization.SHARED: {"_commit_then"},
        Organization.LOCO_CC: {"_refetch", "_reissue", "_retry_make_room"},
        Organization.LOCO_CC_VMS_IVR: {"_reissue", "_on_timeout"},
    }

    @pytest.mark.parametrize("org", ORGS4, ids=lambda o: o.value)
    def test_eviction_storm(self, org):
        """Direct-mapped 4-line L2 slices under ``eviction_storm``:
        evictions find every way busy, fills get poisoned and reissue,
        forwards NACK and refetch through the directory."""
        from repro.params import CacheConfig
        from repro.traces.adversarial import generate_adversarial
        _name, traces = generate_adversarial(3, 16, "eviction_storm")
        cfg = tiny_config(org, l2=CacheConfig(
            size_bytes=128, assoc=1, line_bytes=32, access_latency=4))

        def make():
            system = CmpSystem(cfg, traces)
            system.ctx.shadow = ShadowOracle()
            return system

        _assert_images_finish_like_straight(
            make, traces, every=50, expect=self.STORM_CONTINUATIONS[org])


# ----------------------------------------------------------------------
# the simulator defines no closures to store
# ----------------------------------------------------------------------
def _closures_in(node, inside_function=False):
    """(name, line) of every lambda and nested def under ``node``."""
    found = []
    for child in ast.iter_child_nodes(node):
        is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        if isinstance(child, ast.Lambda):
            found.append(("<lambda>", child.lineno))
        elif is_def and inside_function:
            found.append((child.name, child.lineno))
        found.extend(_closures_in(child, inside_function or is_def))
    return found


def test_simulator_layers_define_no_lambda_or_nested_def():
    """A stray closure in the machine is a latent checkpoint crash (the
    pickler no longer absorbs one), so the layers whose objects reach an
    image define none at all — transient ones included. Exempt:
    ``noc/visualize.py``'s recursive render helper (builds a string)."""
    import repro
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for layer in ("sim", "coherence", "noc", "cmp", "cache"):
        for path in sorted((root / layer).glob("*.py")):
            for name, line in _closures_in(ast.parse(path.read_text())):
                if (path.name, name) != ("visualize.py", "walk"):
                    offenders.append(f"{layer}/{path.name}:{line} {name}")
    # the fuzz harness attaches its detectors to machines it checkpoints
    fuzz = ast.parse((root / "harness" / "fuzz.py").read_text())
    attach = {"SnapshotRecorder", "_on_epoch", "_build_fuzz_system"}
    for node in fuzz.body:
        if getattr(node, "name", None) in attach:
            attach.discard(node.name)
            offenders.extend(
                f"harness/fuzz.py:{line} {name}" for name, line in
                _closures_in(node, isinstance(node, ast.FunctionDef)))
    assert not attach, f"attach path moved: {sorted(attach)}"
    assert not offenders, offenders


def test_simulator_layers_rebuild_no_derived_state_on_restore():
    """An image is the machine as it stands: nothing in it is derived
    and rebuilt on restore. Dispatch tables are class attributes of
    plain functions, so no class defines ``__setstate__`` and no module
    builds a per-instance table (which also made each controller a
    reference cycle that only the cyclic collector could free)."""
    import repro
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for layer in ("sim", "coherence", "noc", "cmp", "cache"):
        for path in sorted((root / layer).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    offenders.extend(
                        f"{layer}/{path.name}:{item.lineno} "
                        f"{node.name}.__setstate__" for item in node.body
                        if isinstance(item, ast.FunctionDef)
                        and item.name == "__setstate__")
                elif (isinstance(node, ast.FunctionDef)
                      and node.name == "_build_dispatch"):
                    offenders.append(
                        f"{layer}/{path.name}:{node.lineno} _build_dispatch")
    assert not offenders, offenders


def _string_keyed_state(tree):
    """(line, what) of every string-keyed access: an attribute named
    ``scratch``, ``x["k"]``, ``x.get/pop/setdefault("k")``, ``"k" in x``.
    ``state["k"]`` in a ``__getstate__`` is the pickled ``__dict__``."""
    def is_str(node):
        return isinstance(node, ast.Constant) and isinstance(node.value, str)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "scratch":
            yield node.lineno, ".scratch"
        elif isinstance(node, ast.Subscript) and is_str(node.slice):
            if getattr(node.value, "id", None) != "state":
                yield node.lineno, f"[{node.slice.value!r}]"
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in ("get", "pop", "setdefault")
              and node.args and is_str(node.args[0])):
            yield node.lineno, f".{node.func.attr}({node.args[0].value!r})"
        elif (isinstance(node, ast.Compare) and is_str(node.left)
              and isinstance(node.ops[0], (ast.In, ast.NotIn))):
            yield node.lineno, f"{node.left.value!r} in"


def test_transaction_state_is_typed_not_string_keyed():
    """A coherence transaction is a record per concept — ``Mshr`` slots
    with an explicit ``phase``, one ``ReplyRound`` per round of L1
    replies, one fetch record per second level — never a dict whose key
    *presence* is the phase. A new protocol feature is a field on one
    of these records; this walk keeps string keys from coming back."""
    import inspect

    import repro
    from repro.cache import mshr
    from repro.coherence import l1, l2_cluster, l2_home, l2_private, l2_shared
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in [*sorted((root / "coherence").glob("*.py")),
                 root / "cache" / "mshr.py"]:
        offenders.extend(
            f"{path.name}:{line} {what}" for line, what in
            _string_keyed_state(ast.parse(path.read_text())))
    # everything these modules define besides the controllers and the
    # MSHR file is a record that hangs on a transaction
    owners = (l1.L1Controller, l2_home.HomeL2Base, mshr.MshrFile)
    records = [cls for module in (mshr, l1, l2_home, l2_cluster, l2_private,
                                  l2_shared)
               for _name, cls in inspect.getmembers(module, inspect.isclass)
               if cls.__module__ == module.__name__
               and not issubclass(cls, owners)]
    assert {"Mshr", "ReplyRound", "TokenFetch", "DirFetch"} <= \
        {cls.__name__ for cls in records}
    offenders.extend(f"{cls.__name__} defines no __slots__"
                     for cls in records if "__slots__" not in vars(cls))
    assert not offenders, offenders
    # ... and one handler serves both kinds of L1 reply
    from repro.coherence.messages import MsgKind
    l2 = CmpSystem(tiny_config(Organization.SHARED),
                   [[] for _ in range(16)]).l2s[0]
    assert (l2._dispatch[MsgKind.ACK_INV_L1.idx]
            == l2._dispatch[MsgKind.RECALL_RESP.idx])


def test_service_state_machines_hold_no_clock_loop_or_coroutine():
    """The fleet's pure layers are stepped by their owner: the
    scheduler by the sessions' direct calls, the sessions by ``hello`` /
    ``frame`` / ``closed`` / ``tick``, a peer's sign-in and job rows
    (``protocol.py``) by the frames it reads and the ``now`` it passes.
    None may import a clock, an event loop or a thread, and none may
    define a coroutine — that is what lets a test drive workers and a
    client from a ``for`` loop (``tests/test_service_sessions.py``)."""
    import inspect

    import repro
    from repro.service.protocol import JobRows, SignIn
    from repro.service.scheduler import Scheduler
    from repro.service.sessions import Sessions
    root = pathlib.Path(repro.__file__).parent / "service"
    banned = {"asyncio", "time", "threading", "selectors"}
    offenders = []
    for name in ("scheduler.py", "sessions.py", "protocol.py"):
        for node in ast.walk(ast.parse((root / name).read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
                if isinstance(node, (ast.AsyncFunctionDef, ast.Await)):
                    offenders.append(f"{name}:{node.lineno} coroutine")
            offenders.extend(f"{name}:{node.lineno} imports {m}"
                             for m in modules
                             if m.split(".")[0] in banned)
    offenders.extend(
        f"{cls.__name__}.{attr} is a coroutine function"
        for cls in (Scheduler, Sessions, SignIn, JobRows)
        for attr, fn in vars(cls).items()
        if inspect.iscoroutinefunction(fn))
    assert not offenders, offenders


def test_only_stats_reads_its_private_layout():
    """``Stats`` owns its format: every other module goes through its
    accessors and ``to_wire`` / ``from_wire``, so a new statistic kind
    or wire shape is a change to ``sim/stats.py`` alone. An attribute
    access — or a string naming one, for ``getattr`` — of a private
    field anywhere else under ``src/repro/`` fails here."""
    import repro
    root = pathlib.Path(repro.__file__).parent
    private = {"_counters", "_samplers", "_mark_counters", "_mark_samplers"}
    offenders = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == "sim/stats.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in private:
                offenders.append(f"{rel}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.Constant) and node.value in private:
                offenders.append(f"{rel}:{node.lineno} {node.value!r}")
    assert not offenders, offenders


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

    def test_stored_closure_rejected_at_dump_by_name(self):
        """Nothing absorbs a closure any more: a kernel holding one
        fails its checkpoint loudly, naming the function."""
        sim = Simulator()

        def stray():
            sim.stop()

        sim.schedule(3, stray)
        with pytest.raises(SnapshotError, match=r"<locals>\.stray"):
            sim.checkpoint()


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
        """A fresh worker process (empty trace memo, nothing
        process-global to fast-forward: the flit sequence rides in the
        image) restoring the same image must produce the identical
        result."""
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
