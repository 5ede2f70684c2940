"""Tests for the experiment harness: configs, reports, figure drivers."""

import importlib.util
import json
import os
from functools import partial

import pytest

from repro.errors import TraceError
from repro.harness import units
from repro.harness.experiment import (ExperimentConfig, clear_trace_cache,
                                      run_benchmark)
from repro.harness.report import format_table, normalize
from repro.harness import figures
from repro.params import NocKind, Organization
from repro.traces.multiprogram import CLUSTER_SHAPE


class TestExperimentConfig:
    def test_system_config_honours_fields(self):
        exp = ExperimentConfig(benchmark="lu",
                               organization=Organization.LOCO_CC,
                               cores=64, noc=NocKind.CONVENTIONAL,
                               cluster=(8, 1))
        cfg = exp.system_config()
        assert cfg.organization is Organization.LOCO_CC
        assert cfg.noc.kind is NocKind.CONVENTIONAL
        assert cfg.cluster_width == 8 and cfg.cluster_height == 1
        # default 1/8 cache scale
        assert cfg.l1.size_bytes == 2 * 1024
        assert cfg.l2.size_bytes == 8 * 1024

    def test_cache_scale_opt_out(self):
        exp = ExperimentConfig(benchmark="lu",
                               organization=Organization.SHARED,
                               cache_scale=1.0)
        cfg = exp.system_config()
        assert cfg.l2.size_bytes == 64 * 1024

    def test_run_benchmark_smoke(self):
        exp = ExperimentConfig(benchmark="water_spatial",
                               organization=Organization.SHARED,
                               scale=0.05)
        r = run_benchmark(exp)
        assert r.finished and r.runtime > 0

    def test_trace_cache_pairs_runs(self):
        """Two organizations on the same benchmark must replay the same
        traces (paired comparison)."""
        clear_trace_cache()
        r1 = run_benchmark(ExperimentConfig(
            benchmark="water_spatial", organization=Organization.SHARED,
            scale=0.05))
        r2 = run_benchmark(ExperimentConfig(
            benchmark="water_spatial", organization=Organization.PRIVATE,
            scale=0.05))
        assert r1.instructions == r2.instructions

    def test_table2_workload_smoke(self):
        r = run_benchmark(ExperimentConfig(
            "W0", Organization.LOCO_CC_VMS_IVR,
            cluster=CLUSTER_SHAPE["W0"], scale=0.05))
        assert r.finished

    #: captured (scale 0.05, seed 1) from the separate multi-program
    #: run function, at the commit before ``run_benchmark`` absorbed it
    WORKLOAD_PINS = [
        ("W0", Organization.SHARED,
         dict(runtime=14863, offchip_accesses=2169,
              mpki=111.45399372524817,
              l2_hit_latency=16.905817174515235)),
        ("W5", Organization.LOCO_CC_VMS_IVR,
         dict(runtime=14113, offchip_accesses=2007,
              mpki=103.21584769745304,
              l2_hit_latency=12.39292364990689)),
        ("W8", Organization.LOCO_CC,
         dict(runtime=14226, offchip_accesses=1910,
              mpki=108.96146107413713,
              l2_hit_latency=12.754347826086956,
              search_delay=29.32936507936508)),
    ]

    @pytest.mark.parametrize("workload,org,pin", WORKLOAD_PINS,
                             ids=[p[0] for p in WORKLOAD_PINS])
    def test_table2_workload_golden_pins(self, workload, org, pin):
        got = units.SweepUnit(ExperimentConfig(
            workload, org, cluster=CLUSTER_SHAPE[workload], scale=0.05),
            metric=figures.METRICS).run()
        assert {m: got[m] for m in pin} == pin

    def test_table2_workload_on_wrong_core_count_is_a_trace_error(self):
        with pytest.raises(TraceError, match="needs 64 cores"):
            run_benchmark(ExperimentConfig("W0", Organization.SHARED,
                                           cores=16))


class TestReport:
    def test_normalize(self):
        vals = {"a": 2.0, "b": 4.0}
        n = normalize(vals, "a")
        assert n == {"a": 1.0, "b": 2.0}

    def test_normalize_zero_baseline(self):
        assert normalize({"a": 0.0, "b": 1.0}, "a") == {"a": 0.0, "b": 0.0}

    def test_format_table_has_rows_and_avg(self):
        rows = {"x": {"c1": 1.0, "c2": 2.0},
                "y": {"c1": 3.0, "c2": 4.0}}
        text = format_table("T", rows)
        assert "== T ==" in text
        assert "x" in text and "y" in text
        assert "AVG" in text
        assert "2.000" in text  # AVG of c1

    def test_format_table_missing_cells(self):
        rows = {"x": {"c1": 1.0}}
        text = format_table("T", rows, columns=["c1", "c2"])
        assert "-" in text

    def test_format_empty(self):
        assert "(no data)" in format_table("T", {})


class TestFigureDrivers:
    """Tiny-scale smoke runs of the figure declarations through
    ``run_figures`` (full-scale shape checks live in benchmarks/)."""

    SCALE = 0.04

    def _tables(self, fig, **subset):
        subset = subset or {"benchmarks": ["water_spatial"]}
        return figures.run_figures(
            {"fig": partial(fig, scale=self.SCALE, **subset)})["fig"]

    def test_figure6(self):
        (title, _paper, rows), = self._tables(figures.fig6)
        assert "water_spatial" in rows
        assert "Figure 6" in format_table(title, rows)

    def test_figure7(self):
        (_title, _paper, rows), = self._tables(figures.fig7)
        assert set(rows["water_spatial"]) == {"Shared", "LOCO"}

    def test_figure9(self):
        (_title, _paper, rows), = self._tables(figures.fig9)
        assert "LOCO CC+VMS" in rows["water_spatial"]

    def test_figure11(self):
        (_title, _paper, rows), = self._tables(figures.fig11)
        cells = rows["water_spatial"]
        assert cells["Shared"] == 1.0
        assert len(cells) == 4

    def test_figure14(self):
        titles = [title for title, _paper, _rows
                  in self._tables(figures.fig14)]
        assert [t.split(":")[0] for t in titles] == [
            "Figure 14a", "Figure 14b", "Figure 14c", "Figure 14d"]

    def test_figure15(self):
        (_, _, offchip), (_, _, runtime) = self._tables(
            figures.fig15, workloads=["W0"])
        assert "W0" in offchip and "W0" in runtime

    def test_figure16(self):
        _mpki, (_title, _paper, runtime) = self._tables(figures.fig16)
        assert "water_spatial" in runtime


class TestFigureMatrix:
    """Figures are declarations executed through ``run_units``: one
    enumeration of cells, shared across figures and backends."""

    SCALE = 0.04
    BENCH = ["water_spatial"]

    def _figs(self):
        return {
            "fig6": partial(figures.fig6, benchmarks=self.BENCH,
                            scale=self.SCALE),
            "fig15": partial(figures.fig15, workloads=["W0"],
                             scale=self.SCALE),
        }

    def test_rows_equal_across_backends(self, tmp_path, monkeypatch):
        serial = figures.run_figures(self._figs())
        pooled = figures.run_figures(self._figs(), jobs=2,
                                     cache_dir=str(tmp_path))
        assert pooled == serial
        assert len(list(tmp_path.glob("*.json"))) == 5  # 2 + 3 cells

        def poisoned(*args, **kwargs):
            raise AssertionError("warm cache must not simulate")

        monkeypatch.setattr(units, "run_benchmark", poisoned)
        assert figures.run_figures(
            self._figs(), cache_dir=str(tmp_path)) == serial

    def test_figure7_matches_run_benchmark_reference(self):
        by_org = {org: run_benchmark(ExperimentConfig(
            benchmark="water_spatial", organization=org,
            scale=self.SCALE)).l2_hit_latency
            for org in (Organization.PRIVATE, Organization.SHARED,
                        Organization.LOCO_CC_VMS_IVR)}
        base = by_org[Organization.PRIVATE]
        (_title, _paper, rows), = figures.run_figures({"fig7": partial(
            figures.fig7, benchmarks=self.BENCH,
            scale=self.SCALE)})["fig7"]
        assert rows == {"water_spatial": {
            "Shared": by_org[Organization.SHARED] - base,
            "LOCO": by_org[Organization.LOCO_CC_VMS_IVR] - base}}

    def test_shared_cells_simulate_once(self, monkeypatch):
        figs = {f"fig{n}": partial(fig, benchmarks=self.BENCH,
                                   scale=self.SCALE)
                for n, fig in ((6, figures.fig6), (7, figures.fig7),
                               (8, figures.fig8))}
        # declared without simulating: 2 + 3 + 2 reads of 3 cells
        declared = [c for fig in figs.values()
                    for c in figures.figure_cells(fig)]
        assert len(declared) == 7 and len(set(declared)) == 3
        assert len({c.key() for c in declared}) == 3
        ran = []
        real = units.run_benchmark

        def counting(exp, **kwargs):
            ran.append(exp.organization)
            return real(exp, **kwargs)

        monkeypatch.setattr(units, "run_benchmark", counting)
        tables = figures.run_figures(figs)
        assert sorted(o.value for o in ran) == sorted(
            o.value for o in (Organization.SHARED, Organization.PRIVATE,
                              Organization.LOCO_CC_VMS_IVR))
        assert [title for title, _paper, _rows in tables["fig8"]] == [
            "Figure 8: L2 MPKI (64c)"]


class TestRunExperimentsScript:
    PATH = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "scripts", "run_experiments.py")

    @pytest.fixture()
    def script(self):
        spec = importlib.util.spec_from_file_location(
            "run_experiments_script", self.PATH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # must not parse argv or simulate
        return module

    def test_imports_cleanly_and_has_no_private_executor(self, script,
                                                         capsys):
        with pytest.raises(SystemExit) as exit_info:
            script.main(["--help"])
        assert exit_info.value.code == 0
        assert "--jobs" in capsys.readouterr().out
        with open(self.PATH) as f:
            source = f.read()
        assert "ProcessPoolExecutor" not in source
        assert "ServiceClient" not in source

    def test_one_bad_cell_fails_its_figure_only(self, script, tmp_path,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)  # experiments_results.json lands here
        monkeypatch.setattr(script, "paper_figures", lambda scale: {
            "fig6": partial(figures.fig6, benchmarks=["water_spatial"],
                            scale=scale),
            "fig9": partial(figures.fig9, benchmarks=["water_spatial"],
                            scale=scale)})
        ran = []
        real = units.run_benchmark

        def flaky(exp, **kwargs):
            ran.append(exp.organization)
            if exp.organization is Organization.PRIVATE:
                raise RuntimeError("boom")
            return real(exp, **kwargs)

        monkeypatch.setattr(units, "run_benchmark", flaky)
        assert script.main(["0.04", "out.md"]) == 1
        text = (tmp_path / "out.md").read_text()
        assert "## fig6\n\nFAILED: RuntimeError: boom" in text
        assert "## Figure 9: on-chip data search delay (64c)" in text
        assert "water_spatial" in text
        # the retry served fig6's finished SHARED cell from the cache
        assert ran.count(Organization.SHARED) == 1
        results = json.loads(
            (tmp_path / "experiments_results.json").read_text())
        assert results["fig6"].startswith("FAILED: ")
        assert results["fig9"][0][0].startswith("Figure 9")
