"""A cell leaves no cyclic garbage, running or finished, and the
continuations that replaced the cycles survive a checkpoint.

Every L2 miss used to leave ~26 unreachable objects behind (the fill's
self-naming ``try_install`` closure, and a cancelled timeout whose
lambda named the MSHR that held it), so the collector ran often and
its full passes walked the whole machine. The fill's continuation is
now ``partial(self._try_install, mshr)`` reading its fill state from
the MSHR, and ``Event.cancel()`` lets go of the callback.

A finished machine was still one cyclic graph (kernel heap and tickers,
handler rows, network receivers, and a per-controller table of bound
methods), so every dead machine waited for a full collector pass.
Dispatch tables are class attributes now, ``CmpSystem.close()`` drops
the rest, and ``run_benchmark`` runs each cell with the collector
paused, restoring the caller's setting. These tests pin the absence of
garbage on every kind of machine, the closed machine's refusals, the
collector setting, and the bit-identity of a restore taken while the
new continuations are live.
"""

from __future__ import annotations

import gc
from functools import partial

import pytest

from repro.cache.mshr import FILLING, GRANTING
from repro.cmp.system import CmpSystem
from repro.errors import SimulationError
from repro.harness.experiment import (ExperimentConfig, HierarchyAxes,
                                      SpecAxes, WarmupImageCache,
                                      _build_or_restore, _traces_for,
                                      run_benchmark)
from repro.params import NocKind, Organization
from repro.sim.kernel import Event
from repro.traces.synthetic import WorkloadSpec, generate_traces
from tests.conftest import tiny_config

ORGS = [Organization.PRIVATE, Organization.SHARED,
        Organization.LOCO_CC_VMS_IVR]


@pytest.mark.parametrize("org", ORGS, ids=lambda o: o.value)
def test_finished_cell_leaves_no_cyclic_garbage(org):
    """With the collector off for the whole run and the machine still
    referenced, nothing it made is unreachable-but-uncollected: every
    retired transaction was freed by reference counting alone."""
    exp = ExperimentConfig("water_spatial", org, cores=16, cluster=(2, 2),
                           scale=0.04)
    traces, populations = _traces_for(exp)
    gc.collect()
    gc.disable()
    try:
        system = CmpSystem(exp.system_config(), traces,
                           barrier_populations=populations,
                           warmup_fraction=exp.warmup_fraction)
        result = system.run()
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert result.stats.value("l2_misses") > 400  # the path was taken
    assert unreachable == 0
    assert len(system.l2s) == 16  # ... with the machine still referenced


# ----------------------------------------------------------------------
# a finished machine frees itself
# ----------------------------------------------------------------------
def _cell(org=Organization.SHARED, benchmark="water_spatial", **kw):
    return ExperimentConfig(benchmark, org, cores=16, cluster=(2, 2),
                            scale=0.04, **kw)


@pytest.mark.parametrize("exp, restored", [
    *(pytest.param(_cell(org), False, id=f"{org.value}-smart")
      for org in Organization),
    *(pytest.param(_cell(org, noc=noc), False, id=f"{org.value}-{noc.value}")
      for org in (Organization.SHARED, Organization.LOCO_CC_VMS_IVR)
      for noc in (NocKind.CONVENTIONAL, NocKind.FLATTENED_BUTTERFLY)),
    pytest.param(_cell(full_system=True), False, id="full_system"),
    pytest.param(_cell(benchmark="dataflow_gemm",
                       hierarchy=HierarchyAxes(0.5)), False, id="scratchpad"),
    pytest.param(_cell(Organization.LOCO_CC_VMS_IVR,
                       spec=SpecAxes("on", 4, 0.05)), False, id="speculation"),
    pytest.param(_cell(Organization.LOCO_CC_VMS_IVR), True,
                 id="restored_from_warmup_image"),
])
def test_closed_machine_is_freed_by_reference_counting(exp, restored,
                                                        tmp_path):
    """Built (or restored), run to the end, closed and dropped with the
    collector off: nothing is left for it to find."""
    images = None
    if restored:
        images = WarmupImageCache(str(tmp_path))
        run_benchmark(exp, warmup_images=images)  # writes the image
    _traces_for(exp)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        system = _build_or_restore(exp, 50_000_000, images)
        result = system.resume()
        system.check_token_conservation()
        system.close()
        del system
        unreachable = gc.collect()
        leaked = sorted({type(obj).__name__ for obj in gc.garbage})
        gc.garbage.clear()
    finally:
        gc.set_debug(0)
        gc.enable()
    assert not restored or images.hits == 1
    assert result.finished and result.stats.value("l2_accesses") > 0
    assert unreachable == 0, f"cyclic garbage of types {leaked}"


class TestClosedMachineRefuses:
    """A released machine has an empty heap and no handlers: running
    it would "finish" at once and imaging it would save a gutted
    machine, so each entry point refuses by name."""

    @pytest.fixture
    def closed(self):
        system = CmpSystem(tiny_config(Organization.SHARED),
                           _pressure_traces(), warmup_fraction=0.35)
        system.run()
        system.close()
        system.close()  # idempotent
        return system

    def test_resume(self, closed):
        with pytest.raises(SimulationError, match=r"resume\(\).*close\(\)"):
            closed.resume()

    def test_run_until_warmup(self, closed):
        with pytest.raises(SimulationError,
                           match=r"run_until_warmup\(\).*close\(\)"):
            closed.run_until_warmup()

    def test_checkpoint(self, closed):
        with pytest.raises(SimulationError,
                           match=r"checkpoint\(\).*close\(\)"):
            closed.checkpoint()

    def test_results_stay_readable(self, closed):
        assert closed.stats.value("l2_misses") > 0
        assert all(core.finished for core in closed.cores)


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The caller's collector setting, put back after the test."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestRunBenchmarkKeepsTheCallersCollector:
    def test_normal_cell(self, collector):
        run_benchmark(_cell())
        assert gc.isenabled() is collector

    def test_cell_that_raises(self, collector):
        with pytest.raises(SimulationError, match="cycle limit"):
            run_benchmark(_cell(), max_cycles=100)
        assert gc.isenabled() is collector

    def test_warmup_image_miss_then_hit(self, collector, tmp_path):
        images = WarmupImageCache(str(tmp_path))
        first = run_benchmark(_cell(), warmup_images=images)
        assert gc.isenabled() is collector
        second = run_benchmark(_cell(), warmup_images=images)
        assert gc.isenabled() is collector
        assert (images.misses, images.hits) == (1, 1)
        assert second.stats.to_dict() == first.stats.to_dict()


# ----------------------------------------------------------------------
# checkpoint with the new continuations live
# ----------------------------------------------------------------------
def _pressure_traces():
    """Footprints well over the tiny L2 slices, with sharing: fills
    queue behind evictions that wait for L1 invalidation acks."""
    spec = WorkloadSpec(name="gcsnap", refs_per_core=200,
                        private_lines=160, shared_lines=48,
                        shared_fraction=0.35, write_fraction=0.3,
                        sharing="neighbor", group_size=4,
                        zipf_alpha=0.4, gap_mean=2.0)
    return generate_traces(spec, 16, seed=11)


def _parked_fills(system: CmpSystem) -> int:
    """Fills waiting behind ``_make_room``: an EVICT transaction whose
    reply round's ``partial(_evicted, ev, cont)`` carries the
    ``partial(_try_install, mshr)``."""
    count = 0
    for l2 in system.l2s:
        for mshr in l2.mshrs._entries.values():
            if mshr.kind == "EVICT" and mshr.round is not None and any(
                    isinstance(arg, partial) for arg in mshr.round.cont.args):
                count += 1
    return count


def _cancelled_in_heap(system: CmpSystem) -> int:
    return sum(1 for entry in system.sim._heap
               if entry[2].__class__ is Event and entry[2].cancelled)


def _pause_where(system: CmpSystem, ready, limit: int = 40_000) -> int:
    system.start()
    for cycle in range(1, limit):
        system.sim.run(until=cycle)
        if ready(system):
            return cycle
    raise AssertionError("the workload never reached the state under test")


@pytest.mark.parametrize("org", ORGS, ids=lambda o: o.value)
def test_restore_with_a_fill_parked_behind_make_room(org):
    traces = _pressure_traces()
    token = org is Organization.LOCO_CC_VMS_IVR

    def ready(system):
        # the token machine must also hold a cancelled timeout in its
        # heap, callback already dropped
        return _parked_fills(system) and (
            not token or _cancelled_in_heap(system))

    straight = CmpSystem(tiny_config(org), traces, warmup_fraction=0.35)
    r_straight = straight.run()

    paused = CmpSystem(tiny_config(org), traces, warmup_fraction=0.35)
    _pause_where(paused, ready)
    assert all(entry[2].fn is None for entry in paused.sim._heap
               if entry[2].__class__ is Event and entry[2].cancelled)
    image = paused.checkpoint()
    r_resumed = paused.resume()

    forked = CmpSystem.restore(image, traces)
    assert _parked_fills(forked) > 0  # the partial came back as one
    r_forked = forked.resume()

    assert r_resumed.stats.to_dict() == r_straight.stats.to_dict()
    assert r_forked.stats.to_dict() == r_straight.stats.to_dict()
    assert r_forked.runtime == r_straight.runtime
    assert r_forked.per_core_finish == r_straight.per_core_finish
    forked.check_token_conservation()


def test_completed_token_collection_holds_no_timeout_event():
    """``_maybe_complete`` drops the timeout it cancels: between token
    collection and retire (the fill may park for a long time) the MSHR
    holds no event, fired or cancelled."""
    org = Organization.LOCO_CC_VMS_IVR
    system = CmpSystem(tiny_config(org), _pressure_traces(),
                       warmup_fraction=0.35)
    seen = []

    def collected(system):
        for l2 in system.l2s:
            for mshr in l2.mshrs._entries.values():
                if mshr.phase in (FILLING, GRANTING):
                    seen.append(mshr.fetch is not None
                                and mshr.fetch.timeout_ev is not None)
        return len(seen) >= 50

    _pause_where(system, collected)
    assert not any(seen)
