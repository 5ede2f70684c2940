"""The cache-leakage scenario pack: probe-line algebra, trace shape,
end-to-end bit recovery through the ``fig_leakage`` declaration, and
the speculation fields on the wire."""

from functools import partial

import pytest

from repro.harness import units
from repro.harness.experiment import ExperimentConfig, SpecAxes
from repro.harness.figures import fig_leakage, figure_cells, run_figures
from repro.harness.leakage import (ATTACKER, LEAK_BENCHMARKS, LEAK_CLUSTER,
                                   LEAK_CORES, LEAK_MAX_CYCLES, VICTIM,
                                   build_leak_traces, geometry_for,
                                   probe_metrics, secret_bits,
                                   spec_config_for)
from repro.harness.parallel import run_units
from repro.harness.report import format_table
from repro.harness.units import SweepUnit
from repro.params import Organization
from repro.traces.events import Op

ALL_ORGS = (Organization.PRIVATE, Organization.SHARED,
            Organization.LOCO_CC, Organization.LOCO_CC_VMS_IVR)


def leak_exp(benchmark="leak_prime_probe", organization=Organization.SHARED,
             speculation="on", seed=1):
    return ExperimentConfig(benchmark=benchmark, organization=organization,
                            cores=LEAK_CORES, cluster=LEAK_CLUSTER,
                            warmup_fraction=0.0, seed=seed,
                            spec=SpecAxes(mode=speculation))


class TestGeometry:
    @pytest.mark.parametrize("org", ALL_ORGS)
    def test_probe_lines_share_home_and_set(self, org):
        """The whole probe-line table maps to one home tile, and every
        line for bit k to L2 set k — in every organization."""
        geo = geometry_for(leak_exp(organization=org))
        assert geo.n_bits <= geo.sets
        lines = geo.lines()
        assert len(lines) == geo.n_bits
        for k, row in enumerate(lines):
            assert len(row) == geo.ways + 2
            for addr in row:
                assert addr % geo.tiles == geo.home
                # the recorder's bucketing recovers k from the address
                assert ((addr - geo.probe_base) // geo.tiles) \
                    % geo.sets == k
                assert geo.probe_base <= addr < geo.probe_end

    def test_home_fits_every_clustering(self):
        geo = geometry_for(leak_exp())
        cfg = leak_exp().system_config()
        assert geo.home < cfg.cluster_size  # constant LOCO in-cluster home
        assert geo.home not in (ATTACKER, VICTIM)

    def test_secret_is_deterministic_and_nontrivial(self):
        a = secret_bits(1, 16)
        assert a == secret_bits(1, 16)
        assert a != secret_bits(2, 16)
        assert 0 < sum(a) < len(a)  # neither all-zeros nor all-ones

    def test_spec_config_carries_probe_recorder(self):
        spec = spec_config_for(leak_exp())
        geo = geometry_for(leak_exp())
        assert spec.issue
        assert spec.probe_base == geo.probe_base
        assert spec.probe_stride == geo.tiles
        assert spec.probe_mod == geo.sets
        control = spec_config_for(leak_exp(speculation="off"))
        assert not control.issue                 # control arm: squash only
        assert control.probe_base == geo.probe_base  # but same recorder


class TestLeakTraces:
    # ("bench", not "benchmark": pytest-benchmark owns that fixture name)
    @pytest.mark.parametrize("bench", LEAK_BENCHMARKS)
    def test_roles_and_populations(self, bench):
        traces, populations = build_leak_traces(leak_exp(bench))
        assert len(traces) == LEAK_CORES
        assert populations[ATTACKER] == populations[VICTIM] == 2
        assert all(populations[c] == 1 for c in range(LEAK_CORES)
                   if c not in (ATTACKER, VICTIM))
        # bystander cores are idle; only the victim speculates
        for core, trace in enumerate(traces):
            if core not in (ATTACKER, VICTIM):
                assert trace == []
        assert not any(ev.op is Op.SPEC_LOAD for ev in traces[ATTACKER])
        assert any(ev.op is Op.SPEC_LOAD for ev in traces[VICTIM])

    def test_victim_touches_encode_the_secret(self):
        exp = leak_exp()
        geo = geometry_for(exp)
        secret = secret_bits(exp.seed, geo.n_bits)
        traces, _ = build_leak_traces(exp)
        spec_addrs = [ev.line_addr for ev in traces[VICTIM]
                      if ev.op is Op.SPEC_LOAD]
        # prime+probe: two same-set conflict touches per set bit
        assert len(spec_addrs) == 2 * sum(secret)
        touched_bits = {((a - geo.probe_base) // geo.tiles) % geo.sets
                        for a in spec_addrs}
        assert touched_bits == {k for k, b in enumerate(secret) if b}

    def test_unknown_benchmark_rejected(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError):
            build_leak_traces(leak_exp(benchmark="leak_nonsense"))


class TestEndToEnd:
    PRIME_PROBE = partial(fig_leakage, benchmarks=["leak_prime_probe"])

    def test_prime_probe_distinguishes_organizations(self):
        """The acceptance-criteria run: with speculation on, the shared
        L2 leaks the full secret while the private L2 stays near
        chance; the control arm (speculation off) never leaks."""
        cells = figure_cells(self.PRIME_PROBE)
        assert len(cells) == 8          # 4 organizations x 2 arms
        # each config read once more, in the same simulation: the
        # transient loads the victim issued, and that the run finished
        extra = [SweepUnit(c.exp, c.max_cycles, ("spec_issued", "finished"))
                 for c in cells]
        values = run_units(cells + extra)
        (_title, _paper, rows), = self.PRIME_PROBE(
            dict(zip(cells, values)).__getitem__)
        assert rows["SHARED"]["prime_probe/on"] == 1.0
        assert rows["PRIVATE"]["prime_probe/on"] < 0.7
        assert rows["SHARED"]["prime_probe/off"] < 0.7
        assert rows["PRIVATE"]["prime_probe/off"] < 0.7
        # the channel is carried by transient traffic, nothing else
        for unit, value in zip(extra, values[len(cells):]):
            if unit.exp.spec.mode == "on":
                assert value["spec_issued"] > 0
            else:
                assert value["spec_issued"] == 0
            assert value["finished"]

    def test_report_formats_per_org_columns(self):
        (title, _paper, rows), = run_figures(
            {"leak": self.PRIME_PROBE})["leak"]
        text = format_table(title, rows)
        assert "SHARED" in text
        assert "prime_probe/on" in text
        assert "prime_probe/off" in text
        assert "1.000" in text

    def test_table_pins_every_organization_and_arm(self):
        """The published table at seed 1: both scenarios x the four
        organizations x speculation off/on (7/16 and 9/16 are the
        chance-level recoveries of this secret)."""
        (_title, _paper, rows), = run_figures(
            {"leak": fig_leakage})["leak"]
        low, high = 7 / 16, 9 / 16
        assert rows == {
            "PRIVATE": {"prime_probe/off": low, "prime_probe/on": low,
                        "evict_reload/off": low, "evict_reload/on": 1.0},
            "SHARED": {"prime_probe/off": low, "prime_probe/on": 1.0,
                       "evict_reload/off": low, "evict_reload/on": 1.0},
            "LOCO_CC": {"prime_probe/off": low, "prime_probe/on": 1.0,
                        "evict_reload/off": low, "evict_reload/on": 1.0},
            "LOCO_CC_VMS_IVR": {
                "prime_probe/off": low, "prime_probe/on": low,
                "evict_reload/off": high, "evict_reload/on": high}}

    @pytest.mark.parametrize("speculation", ["off", "on"])
    def test_probe_metrics_cell_runs_in_both_arms(self, speculation):
        """Every bucket's counters exist from the start, so a bit with
        no slow probe (some bit, in both arms) reads 0 instead of
        being an unknown metric."""
        exp = leak_exp(speculation=speculation)
        value = SweepUnit(exp, LEAK_MAX_CYCLES, probe_metrics(exp)).run()
        n_bits = geometry_for(exp).n_bits
        assert len(value) == 2 * n_bits
        assert min(value[f"leak_slow_b{k}"] for k in range(n_bits)) == 0
        assert min(value[f"leak_probes_b{k}"] for k in range(n_bits)) > 0

    def test_second_run_is_served_from_the_row_cache(self, tmp_path,
                                                     monkeypatch):
        first = run_figures({"leak": fig_leakage}, cache_dir=str(tmp_path))
        assert len(list(tmp_path.glob("*.json"))) == 16

        def poisoned(*args, **kwargs):
            raise AssertionError("cached leak cells must not simulate")

        monkeypatch.setattr(units, "run_benchmark", poisoned)
        assert run_figures({"leak": fig_leakage},
                           cache_dir=str(tmp_path)) == first


class TestSpeculationOnTheWire:
    def test_sweep_unit_round_trips_spec_fields(self):
        exp = leak_exp(speculation="on")
        unit = SweepUnit(exp, max_cycles=1000, metric="runtime")
        again = SweepUnit.from_wire(unit.to_wire())
        assert again == unit
        assert again.exp.spec == exp.spec
        assert again.exp.spec.mode == "on"

    def test_speculating_units_never_batch(self):
        from repro.batch.grouping import batchable
        base = ExperimentConfig(benchmark="water_spatial",
                                organization=Organization.SHARED,
                                cores=1, cluster=(1, 1), scale=0.04)
        assert batchable(SweepUnit(base, 1000, "runtime"))
        spec = ExperimentConfig(benchmark="water_spatial",
                                organization=Organization.SHARED,
                                cores=1, cluster=(1, 1), scale=0.04,
                                spec=SpecAxes(mode="on"))
        assert not batchable(SweepUnit(spec, 1000, "runtime"))
