"""SMART NoC: single-cycle multi-hop traversal with VMS broadcast.

SMART behaviour on top of the shared engine:

* A traversal covers up to ``HPCmax`` hops along one dimension in a
  single cycle (clockless repeaters), after a 1-cycle SSR setup —
  2 cycles per SMART-hop in the best case (paper Section 2).
* Contention can stop a flit prematurely at any intermediate router
  (distance-priority SSR arbitration, handled by the base engine's
  position-by-position link claiming).
* SMART 1D: no bypass at turns — the base planner stops at turns.
* VMS broadcast (paper Section 3.2): at every home router of the
  virtual mesh, the flit ejects a copy and forks fresh flits toward its
  XY-tree children, each leg always aiming for the next home router.
"""

from __future__ import annotations

from typing import Optional

from repro.noc.packet import Packet
from repro.noc.router import BaseNetwork
from repro.noc.topology import Mesh
from repro.params import NocConfig
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats


class SmartNetwork(BaseNetwork):
    """SMART mesh with HPCmax-hop single-cycle traversals."""

    wait_cycles = 2          # SSR cycle + ST-LT cycle per SMART-hop
    allow_partial = True     # premature stops under contention

    def __init__(self, sim: Simulator, mesh: Mesh, config: NocConfig,
                 stats: Optional[Stats] = None, name: str = "smart") -> None:
        super().__init__(sim, mesh, config, stats, name)
        self.max_hops_per_move = config.hpc_max
        self._c_mcast_forks = self.stats.counter(f"{name}.mcast_forks")

    # ------------------------------------------------------------------
    def multicast(self, packet: Packet, vms) -> None:
        """Hardware tree broadcast over a VMS.

        The source home router forks flits toward each of its XY-tree
        children; every home router hit repeats (eject + fork). SSRs for
        a leg always request the full distance to the next home router,
        so flits stop exactly at home routers unless contention stops
        them early (then they resume with fresh SSRs, like unicasts).
        """
        packet.injected_at = self.sim.cycle
        self._c_mcast_injected.value += 1
        root = packet.src
        # Each copy is an in-flight delivery (and record) of its own.
        for child in vms.tree_children(root, root):
            self._enqueue_nic(packet.clone_for(root, child, root, vms))

    def _fork(self, flit: Packet, cycle: int) -> None:
        # Arrived at a home router on the VMS and delivered a copy
        # there; now fork toward tree children. Each branch wins the
        # switch and sends a fresh SSR next cycle, then traverses: 2
        # cycles per VMS leg best case (Figure 3: 4 legs = 8 cycles).
        root, vms = flit.mcast_root, flit.vms
        for child in vms.tree_children(root, flit.at):
            branch = flit.clone_for(flit.at, child, root, vms)
            branch.order = (flit.injected_at, self._flit_seq)
            self._flit_seq += 1
            self._in_flight += 1
            self._buffer_flit(branch, cycle + self.wait_cycles)
            self._c_mcast_forks.value += 1
