"""Dataflow workloads: systolic GEMM wavefronts + 2D stencil halos.

One GEMM and one stencil cell run under every cache organization (the
tier-1 dataflow smoke CI step), trace generation and full runs are
pinned deterministic, and the wavefront structure (edge streaming,
neighbour pushes) is checked directly on the generated events.
"""

from __future__ import annotations

import pytest

from repro.errors import TraceError
from repro.harness.experiment import (ExperimentConfig, HierarchyAxes,
                                      run_benchmark)
from repro.params import Organization
from repro.traces.dataflow import DATAFLOW_BENCHMARKS, dataflow_traces
from repro.traces.events import SPM_STRIDE, Op, instruction_count

ORGS = [Organization.PRIVATE, Organization.SHARED,
        Organization.LOCO_CC, Organization.LOCO_CC_VMS_IVR]


class TestGenerators:
    @pytest.mark.parametrize("name", DATAFLOW_BENCHMARKS)
    def test_deterministic_across_calls(self, name):
        a = dataflow_traces(name, 16, scale=0.25, seed=5)
        b = dataflow_traces(name, 16, scale=0.25, seed=5)
        assert a == b
        assert dataflow_traces(name, 16, scale=0.25, seed=6) != a

    def test_non_square_grid_rejected(self):
        with pytest.raises(TraceError):
            dataflow_traces("dataflow_gemm", 12)

    def test_unknown_name_rejected(self):
        with pytest.raises(TraceError):
            dataflow_traces("dataflow_fft", 16)

    def test_gemm_wavefront_structure(self):
        traces = dataflow_traces("dataflow_gemm", 16, scale=0.25)
        side = 4
        for core, events in enumerate(traces):
            r, c = divmod(core, side)
            pushes = {ev.line_addr // SPM_STRIDE for ev in events
                      if ev.op is Op.SPM_REMOTE}
            expect = set()
            if c + 1 < side:
                expect.add(core + 1)       # A flows east
            if r + 1 < side:
                expect.add(core + side)    # B flows south
            assert pushes == expect
            # only edge tiles stream operands from memory
            coherent_loads = sum(ev.op is Op.LOAD for ev in events)
            assert (coherent_loads > 0) == (r == 0 or c == 0)

    def test_stencil_pushes_to_all_neighbours(self):
        traces = dataflow_traces("dataflow_stencil", 16, scale=0.25)
        side = 4
        for core, events in enumerate(traces):
            r, c = divmod(core, side)
            pushes = {ev.line_addr // SPM_STRIDE for ev in events
                      if ev.op is Op.SPM_REMOTE}
            degree = (r > 0) + (r + 1 < side) + (c > 0) + (c + 1 < side)
            assert len(pushes) == degree
            assert any(ev.op is Op.BARRIER for ev in events)

    def test_spm_ops_commit_as_instructions(self):
        events = dataflow_traces("dataflow_gemm", 4, scale=0.1)[0]
        spm_ops = sum(ev.op.is_spm for ev in events)
        assert spm_ops > 0
        assert instruction_count(events) == \
            sum(ev.gap + 1 for ev in events)


class TestPerOrganizationSmoke:
    @pytest.mark.parametrize("org", ORGS, ids=[o.value for o in ORGS])
    @pytest.mark.parametrize("bench", DATAFLOW_BENCHMARKS)
    def test_one_cell(self, bench, org):
        exp = ExperimentConfig(bench, org, cores=16, cluster=(2, 2),
                               scale=0.1, hierarchy=HierarchyAxes(0.5))
        result = run_benchmark(exp, max_cycles=5_000_000)
        assert result.finished
        assert result.spm_refs > 0
        assert result.spm_remote_ops > 0
        # coherence invariants hold with SPM traffic on the fabric
        # (run_benchmark already ran check_token_conservation)

    @pytest.mark.parametrize("bench", DATAFLOW_BENCHMARKS)
    def test_op_count_fingerprint_stable_across_repeats(self, bench):
        exp = ExperimentConfig(bench, Organization.SHARED, cores=16,
                               cluster=(2, 2), scale=0.1,
                               hierarchy=HierarchyAxes(0.5))
        a = run_benchmark(exp, max_cycles=5_000_000)
        b = run_benchmark(exp, max_cycles=5_000_000)
        assert a.runtime == b.runtime
        assert a.instructions == b.instructions
        assert a.stats.to_dict() == b.stats.to_dict()
