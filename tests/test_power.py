"""Tests for the DSENT-style router area/power model."""

import pytest

from repro.harness.figures import figure_cells, fig_router
from repro.harness.report import format_table
from repro.noc.power import compare, router_budget
from repro.params import NocConfig, NocKind


def cfg(kind):
    return NocConfig(kind=kind)


class TestRouterBudget:
    def test_conventional_is_unity(self):
        b = router_budget(cfg(NocKind.CONVENTIONAL))
        assert b.ports == 5
        assert b.area == pytest.approx(1.0)
        assert b.power == pytest.approx(1.0)

    def test_smart_slightly_above_conventional(self):
        smart = router_budget(cfg(NocKind.SMART))
        conv = router_budget(cfg(NocKind.CONVENTIONAL))
        assert 1.0 < smart.area < 1.3
        assert 1.0 < smart.power < 1.2

    def test_high_radix_port_count(self):
        assert router_budget(cfg(NocKind.FLATTENED_BUTTERFLY)).ports == 20

    def test_paper_ratios(self):
        """Paper: high-radix has 6.7x area and 2.3x power vs SMART."""
        area, power = compare(cfg(NocKind.FLATTENED_BUTTERFLY),
                              cfg(NocKind.SMART))
        assert area == pytest.approx(6.7, rel=0.05)
        assert power == pytest.approx(2.3, rel=0.05)

    def test_hpc_scales_smart_cost(self):
        small = router_budget(NocConfig(kind=NocKind.SMART, hpc_max=2))
        big = router_budget(NocConfig(kind=NocKind.SMART, hpc_max=8))
        assert big.area > small.area
        assert big.power > small.power

    def test_report(self):
        """The budgets are one zero-cell table of the figure matrix."""
        assert figure_cells(fig_router) == []
        (title, paper, rows), = fig_router(None)
        assert "6.7x area" in paper and "2.3x power" in paper
        assert rows["HighRadix"]["ports"] == 20
        assert rows["Conv"] == {"ports": 5, "area": 1.0, "power": 1.0}
        assert (rows["HighRadix"]["area"] / rows["SMART"]["area"]
                == pytest.approx(6.7, rel=0.05))
        text = format_table(title, rows)
        assert "SMART" in text and "HighRadix" in text and "ports" in text
