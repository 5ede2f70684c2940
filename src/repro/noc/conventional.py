"""Conventional state-of-the-art mesh NoC baseline.

Hop-by-hop traversal: a 1-cycle router pipeline plus a 1-cycle link, so
2 cycles per hop best case (paper Section 2, citing [38]); flits stop
and buffer at every router. No VMS hardware broadcast — multicasts fall
back to serial unicast copies from the source (base-class behaviour).
"""

from __future__ import annotations

from typing import Optional

from repro.noc.router import BaseNetwork
from repro.noc.topology import Mesh
from repro.params import NocConfig
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats


class ConventionalNetwork(BaseNetwork):
    """Baseline mesh: 2 cycles/hop, single-hop traversals."""

    allow_partial = False
    max_hops_per_move = 1

    def __init__(self, sim: Simulator, mesh: Mesh, config: NocConfig,
                 stats: Optional[Stats] = None,
                 name: str = "conventional") -> None:
        super().__init__(sim, mesh, config, stats, name)
        # router pipeline + link traversal per hop
        self.wait_cycles = config.router_pipeline + 1
