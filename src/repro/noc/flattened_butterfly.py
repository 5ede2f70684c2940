"""High-radix (Flattened-Butterfly) NoC baseline.

The paper's alternative use of clockless repeated wires: dedicated
physical express channels from every router to its 1-, 2-, 3- and
4-hop neighbours in each dimension (radix ~20), so any home node within
a 4x4 cluster is one express hop away. The price is a multi-stage
router: arbitration across 20 ports needs a >= 4-stage pipeline
(paper cites [27, 28, 40]), so each hop costs
``high_radix_pipeline + 1`` cycles — and unlike SMART this cost is paid
at *every* traversal, including short local ones. That is exactly why
the paper finds LOCO + high-radix underperforming even LOCO +
conventional NoC inside clusters.

Express channels are dedicated wires, so a k-hop traversal claims one
channel keyed ``(src, dst)`` rather than a chain of unit links; there
are no premature stops.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.noc.router import BaseNetwork, Link
from repro.noc.topology import Mesh
from repro.params import NocConfig
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats


class FlattenedButterflyNetwork(BaseNetwork):
    """Flattened butterfly with express links up to ``hpc_max`` hops."""

    allow_partial = False

    def __init__(self, sim: Simulator, mesh: Mesh, config: NocConfig,
                 stats: Optional[Stats] = None, name: str = "fbfly") -> None:
        super().__init__(sim, mesh, config, stats, name)
        self.max_hops_per_move = config.hpc_max
        self.wait_cycles = config.high_radix_pipeline + 1
        # The deep arbitration pipeline is paid at injection too — this
        # is exactly why the paper finds high-radix LOCO slow locally.
        self.injection_delay = config.high_radix_pipeline

    def _compute_plan(self, at: int, leg_dst: int
                      ) -> Tuple[List[Link], List[int]]:
        """One express channel covering up to hpc_max hops along the
        current XY dimension. The channel is a single dedicated link
        keyed by its endpoints."""
        nxt, moved = self.mesh.xy_next_stop(at, leg_dst,
                                            self.max_hops_per_move)
        if moved == 0:
            return [], []
        return [(at, nxt)], [nxt]
