"""Tests for the differential protocol stress subsystem.

Covers the value-level oracle, the mid-run epoch hooks, the fuzz
engine's clean path, the mutation smoke (injected protocol bugs must be
caught within the seed budget), shrinking, and repro-file round-trips.
"""

from dataclasses import replace

import pytest

from repro.cache.line import L1State
from repro.coherence.shadow import ShadowOracle
from repro.harness.checks import check_epoch
from repro.harness.fuzz import (FuzzConfig, load_repro, run_seed,
                                run_trace_set, save_repro, shrink_traces)
from repro.params import CacheConfig, NocConfig, NocKind, Organization, \
    SystemConfig
from repro.traces.adversarial import SCENARIOS, generate_adversarial
from tests.conftest import AccessDriver, build_system

LOCO = Organization.LOCO_CC_VMS_IVR


class TestAdversarialTraces:
    def test_deterministic(self):
        a = generate_adversarial(7, 16)
        b = generate_adversarial(7, 16)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_seed_rotates_scenarios(self):
        # seed-selected rotation covers exactly the frozen pre-
        # speculation pool: new scenario families (spec_*) must never
        # shift existing seed -> scenario mappings
        from repro.traces.adversarial import _SCENARIO_ORDER
        names = {generate_adversarial(s, 4)[0]
                 for s in range(len(_SCENARIO_ORDER))}
        assert names == set(_SCENARIO_ORDER)
        assert set(_SCENARIO_ORDER) < set(SCENARIOS)

    def test_forced_scenario(self):
        name, traces = generate_adversarial(3, 8, scenario="hot_lines")
        assert name == "hot_lines"
        assert len(traces) == 8 and any(traces)

    def test_unknown_scenario_rejected(self):
        from repro.errors import TraceError
        with pytest.raises(TraceError):
            generate_adversarial(0, 4, scenario="nope")

    def test_barrier_counts_equal_across_cores(self):
        from repro.traces.events import Op
        _, traces = generate_adversarial(4, 16, scenario="barrier_phases")
        counts = {sum(1 for ev in t if ev.op is Op.BARRIER)
                  for t in traces}
        assert len(counts) == 1  # trace-mode barriers must not deadlock


class TestShadowOracle:
    def test_clean_sharing_run_has_no_violations(self):
        system = build_system(Organization.SHARED)
        oracle = ShadowOracle()
        system.ctx.shadow = oracle
        drv = AccessDriver(system)
        drv.write(0, 0x100)
        drv.read(1, 0x100)
        drv.write(2, 0x100)
        drv.read(0, 0x100)
        assert oracle.clean
        assert oracle.stores_committed == 2
        assert oracle.loads_checked == 2
        assert oracle.store_counts[0x100] == 2

    def test_corrupted_shadow_is_flagged(self):
        system = build_system(Organization.SHARED)
        oracle = ShadowOracle()
        system.ctx.shadow = oracle
        drv = AccessDriver(system)
        drv.write(0, 0x100)
        drv.read(1, 0x100)
        assert oracle.clean
        # Corrupt the reader's copy behind the protocol's back: the
        # next load must be caught red-handed.
        line = system.l1s[1].array.lookup(0x100, touch=False)
        line.shadow = 999
        drv.read(1, 0x100)
        assert len(oracle.violations) == 1
        v = oracle.violations[0]
        assert v.tile == 1 and v.observed == 999
        assert "observed v999" in str(v)

    def test_epoch_check_catches_double_m(self):
        system = build_system(Organization.SHARED)
        drv = AccessDriver(system)
        drv.write(0, 0x140)
        drv.settle(2000)
        for tile in (1, 2):
            if system.l1s[tile].array.lookup(0x140, touch=False) is None:
                system.l1s[tile].array.allocate(0x140)
            system.l1s[tile].array.lookup(
                0x140, touch=False).l1_state = L1State.M
        assert any("M copies" in v for v in check_epoch(system))


class TestFuzzEngine:
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("org", list(Organization))
    def test_fuzz_machine_pinned(self, seed, org):
        """The fuzz machine, written out field by field: a 4x4 mesh of
        2x2 clusters with tiny caches on SMART, seeded one past the
        fuzz seed."""
        assert FuzzConfig(seed=seed).system_config(org) == SystemConfig(
            mesh_width=4, mesh_height=4, cluster_width=2, cluster_height=2,
            organization=org,
            l1=CacheConfig(size_bytes=1024, assoc=4, line_bytes=32,
                           access_latency=1),
            l2=CacheConfig(size_bytes=4096, assoc=8, line_bytes=32,
                           access_latency=4),
            noc=NocConfig(kind=NocKind.SMART), seed=seed + 1)
        assert FuzzConfig(seed=seed).num_cores == 16

    def test_clean_seeds_pass_all_orgs(self):
        from repro.harness.fuzz import DEFAULT_ORGS
        for seed in range(4):
            report = run_seed(FuzzConfig(seed=seed))
            assert report.ok, (seed, report.failures())
            assert len(report.outcomes) == len(DEFAULT_ORGS)
            assert not report.differential

    def test_outcomes_are_differentially_identical(self):
        report = run_seed(FuzzConfig(seed=0))
        ref = report.outcomes[0]
        for other in report.outcomes[1:]:
            assert other.instructions == ref.instructions
            assert other.store_counts == ref.store_counts
            assert other.stores == ref.stores
            assert other.loads == ref.loads

    def test_unknown_injection_rejected(self):
        from repro.errors import ConfigError
        _, traces = generate_adversarial(0, 16)
        with pytest.raises(ConfigError):
            run_trace_set(FuzzConfig(inject="bogus"), LOCO, traces)


class TestSnapshotReplay:
    """``snapshot_every``: each run is checkpointed mid-flight and
    replayed from its last snapshot; the replay must reproduce the
    identical differential histories or the seed fails with phase
    "snapshot"."""

    def test_replay_reproduces_histories_across_orgs(self):
        report = run_seed(FuzzConfig(seed=1, snapshot_every=2000))
        assert report.ok, report.failures()
        # same seed without snapshots: imaging+replay is observation-only
        plain = run_seed(FuzzConfig(seed=1))
        for with_snap, without in zip(report.outcomes, plain.outcomes):
            assert with_snap.instructions == without.instructions
            assert with_snap.store_counts == without.store_counts
            assert with_snap.runtime == without.runtime

    def test_snapshots_actually_taken_and_replayed(self, monkeypatch):
        """The self-check must not pass vacuously: snapshots fire and
        the replay leg actually restores one. (Patch points are chosen
        OFF the snapshotted object graph — images must stay clean.)"""
        from repro.cmp.system import CmpSystem
        from repro.harness import fuzz as fuzz_mod
        taken = []
        replays = []
        real_checkpoint = CmpSystem.checkpoint
        real_replay = fuzz_mod._replay_outcome

        def counting_checkpoint(self):
            taken.append(self.sim.cycle)
            return real_checkpoint(self)

        def counting_replay(cfg, organization, image, traces):
            replays.append(organization)
            return real_replay(cfg, organization, image, traces)

        monkeypatch.setattr(CmpSystem, "checkpoint", counting_checkpoint)
        monkeypatch.setattr(fuzz_mod, "_replay_outcome", counting_replay)
        _, traces = generate_adversarial(1, 16)
        out = run_trace_set(FuzzConfig(seed=1, snapshot_every=2000),
                            LOCO, traces)
        assert out.ok, out.detail()
        assert taken, "run never reached a snapshot epoch"
        assert replays == [LOCO], "last snapshot was never replayed"

    def test_broken_restore_fails_with_snapshot_phase(self, monkeypatch):
        """If restore produces garbage the seed must fail loudly."""
        from repro.cmp.system import CmpSystem
        from repro.errors import SnapshotError

        def broken_restore(blob, traces):
            raise SnapshotError("injected restore failure")

        monkeypatch.setattr(CmpSystem, "restore",
                            staticmethod(broken_restore))
        _, traces = generate_adversarial(1, 16)
        out = run_trace_set(FuzzConfig(seed=1, snapshot_every=2000),
                            LOCO, traces)
        assert not out.ok
        assert out.phase == "snapshot"
        assert any("injected restore failure" in v for v in out.violations)

    def test_divergent_replay_is_flagged(self):
        from repro.harness.fuzz import OrgOutcome, _snapshot_divergence
        a = OrgOutcome(organization=LOCO, ok=True, phase="ok",
                       instructions=100, mem_refs=40, stores=10, loads=30,
                       store_counts={0x100: 10}, runtime=5000)
        assert _snapshot_divergence(a, a) == []
        b = OrgOutcome(organization=LOCO, ok=True, phase="ok",
                       instructions=101, mem_refs=40, stores=10, loads=30,
                       store_counts={0x100: 11}, runtime=5000)
        diffs = _snapshot_divergence(a, b)
        assert any("instructions" in d for d in diffs)
        assert any("store counts" in d for d in diffs)


class TestMutationSmoke:
    """Re-introduced (injected) protocol bugs must be caught quickly —
    the harness's reason to exist. Budget per the acceptance criteria:
    50 seeds; in practice both fire on the very first hot-line seed."""

    def _first_caught(self, inject, orgs, budget=50):
        base = FuzzConfig(inject=inject, organizations=orgs)
        for seed in range(budget):
            report = run_seed(replace(base, seed=seed))
            if not report.ok:
                return seed, report
        return None, None

    def test_grant_window_bug_caught_within_50_seeds(self):
        seed, report = self._first_caught("grant_window", (LOCO,))
        assert seed is not None
        assert seed < 50
        detail = " ".join(d for _, d in report.failures())
        assert "M copies" in detail or "observed" in detail \
            or "token" in detail

    def test_injection_restores_flag(self):
        from repro.coherence import l2_cluster
        assert not l2_cluster.INJECT_GRANT_WINDOW_BUG
        self._first_caught("grant_window", (LOCO,), budget=1)
        assert not l2_cluster.INJECT_GRANT_WINDOW_BUG

    def test_skip_inv_bug_caught_within_50_seeds(self):
        seed, report = self._first_caught(
            "skip_inv", (Organization.SHARED, LOCO))
        assert seed is not None and seed < 50


class TestShrinking:
    def test_shrinks_to_small_failing_repro(self, tmp_path):
        cfg = FuzzConfig(seed=0, inject="grant_window",
                         organizations=(LOCO,))
        scenario, traces = generate_adversarial(0, cfg.num_cores)
        assert not run_trace_set(cfg, LOCO, traces).ok
        small = shrink_traces(cfg, LOCO, traces, budget=150)
        n_small = sum(len(t) for t in small)
        assert n_small < sum(len(t) for t in traces)
        outcome = run_trace_set(cfg, LOCO, small)
        assert not outcome.ok  # still reproduces

        path = str(tmp_path / "repro.json")
        save_repro(path, cfg, LOCO, scenario, small,
                   detail=outcome.detail())
        cfg2, org2, traces2 = load_repro(path)
        assert org2 is LOCO
        assert traces2 == [list(t) for t in small]
        assert cfg2.inject == "grant_window"
        replayed = run_trace_set(cfg2, org2, traces2)
        assert replayed.phase == outcome.phase

    def test_shrink_rejects_passing_traces(self):
        from repro.errors import ConfigError
        cfg = FuzzConfig(seed=0)
        _, traces = generate_adversarial(0, cfg.num_cores)
        with pytest.raises(ConfigError):
            shrink_traces(cfg, LOCO, traces, budget=10)


class TestPmap:
    def test_preserves_order_parallel(self):
        from repro.harness.parallel import pmap
        assert pmap(_square, range(10), jobs=3) == [i * i
                                                    for i in range(10)]

    def test_serial_path(self):
        from repro.harness.parallel import pmap
        assert pmap(_square, [4], jobs=8) == [16]
        assert pmap(_square, range(5), jobs=1) == [0, 1, 4, 9, 16]


def _square(x):
    return x * x
