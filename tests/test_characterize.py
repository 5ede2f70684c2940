"""Tests for trace characterization and topology visualization."""

import pytest

from repro.noc.topology import ClusterMap, Mesh
from repro.noc.visualize import (render_clusters, render_homes, render_mesh,
                                 render_path, render_vms_tree)
from repro.noc.vms import VirtualMesh
from repro.traces.benchmarks import get_benchmark
from repro.traces.characterize import (capacity_pressure, characterize,
                                       profile_report)
from repro.traces.events import Op, TraceEvent
from repro.traces.synthetic import WorkloadSpec, generate_traces
from tests.conftest import xy_path


class TestCharacterize:
    def test_empty(self):
        p = characterize([[], []])
        assert p.total_refs == 0
        assert p.footprint_lines == 0
        assert p.sharing_ratio == 0.0

    def test_counts(self):
        traces = [
            [TraceEvent(Op.LOAD, 0x1, gap=2), TraceEvent(Op.STORE, 0x2)],
            [TraceEvent(Op.LOAD, 0x1), TraceEvent(Op.BARRIER, 0)],
        ]
        p = characterize(traces)
        assert p.total_refs == 3
        assert p.total_instructions == 2 + 1 + 1 + 1 + 1
        assert p.write_fraction == pytest.approx(1 / 3)
        assert p.footprint_lines == 2
        assert p.shared_lines == 1          # 0x1 touched by both
        assert p.max_sharers == 2
        assert p.barriers == 1

    def test_presets_match_their_intent(self):
        """The benchmark presets must actually exhibit the properties
        their definitions claim."""
        for name, expect_shared in [("blackscholes", True),
                                    ("swaptions", False)]:
            spec = get_benchmark(name, scale=0.2)
            p = characterize(generate_traces(spec, 64, seed=1))
            if expect_shared:
                assert p.shared_access_fraction > 0.3
            else:
                assert p.shared_access_fraction < 0.3

    def test_swaptions_is_imbalanced(self):
        spec = get_benchmark("swaptions", scale=0.3)
        p = characterize(generate_traces(spec, 64, seed=1))
        assert p.imbalance_ratio > 2.0

    def test_uniform_has_wide_sharers(self):
        barnes = characterize(generate_traces(
            get_benchmark("barnes", scale=0.2), 64, seed=1))
        water = characterize(generate_traces(
            get_benchmark("water_spatial", scale=0.2), 64, seed=1))
        assert barnes.max_sharers > water.max_sharers

    def test_capacity_pressure(self):
        spec = WorkloadSpec(name="c", refs_per_core=200, private_lines=64,
                            shared_lines=32, shared_fraction=0.3)
        p = characterize(generate_traces(spec, 4, seed=1))
        pressure = capacity_pressure(p, l2_slice_lines=16, cluster_size=4,
                                     num_clusters=1)
        assert pressure["private_slice"] > 1.0
        assert set(pressure) == {"private_slice", "cluster", "chip"}

    def test_report_renders(self):
        spec = WorkloadSpec(name="c", refs_per_core=50, private_lines=32,
                            shared_lines=16)
        text = profile_report(characterize(generate_traces(spec, 2)))
        assert "footprint" in text and "write fraction" in text


class TestVisualize:
    def test_mesh_grid(self):
        text = render_mesh(Mesh(4, 4))
        rows = text.splitlines()
        assert len(rows) == 4
        # bottom row is row 0 (paper Figure 1 orientation)
        assert rows[-1].split() == ["0", "1", "2", "3"]
        assert rows[0].split() == ["12", "13", "14", "15"]

    def test_cluster_labels(self):
        cm = ClusterMap(Mesh(4, 4), 2, 2)
        text = render_clusters(cm)
        assert "c0" in text and "c3" in text

    def test_homes_marked(self):
        cm = ClusterMap(Mesh(8, 8), 4, 4)
        text = render_homes(cm, line_addr=11)
        assert text.count("*") == 4

    def test_vms_tree_covers_members(self):
        cm = ClusterMap(Mesh(8, 8), 4, 4)
        vms = VirtualMesh(cm, 11)
        text = render_vms_tree(vms, vms.members[0])
        for member in vms.members[1:]:
            assert f"tile {member}" in text

    def test_path_markers(self):
        mesh = Mesh(4, 4)
        path = xy_path(mesh, 0, 15)
        text = render_path(mesh, path)
        assert "S" in text and "D" in text
