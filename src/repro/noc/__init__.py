"""Network-on-chip models: SMART, conventional mesh, flattened butterfly,
and ``FABRICS``, the network class of each :class:`NocKind`."""

from repro.noc.packet import Packet, VirtualNetwork
from repro.noc.topology import Coord, Mesh, ClusterMap
from repro.noc.vms import VirtualMesh, xy_tree_children
from repro.noc.smart import SmartNetwork
from repro.noc.conventional import ConventionalNetwork
from repro.noc.flattened_butterfly import FlattenedButterflyNetwork
from repro.noc.power import RouterBudget, compare, router_budget
from repro.params import NocKind

FABRICS = {
    NocKind.SMART: SmartNetwork,
    NocKind.CONVENTIONAL: ConventionalNetwork,
    NocKind.FLATTENED_BUTTERFLY: FlattenedButterflyNetwork,
}

__all__ = [
    "FABRICS",
    "RouterBudget",
    "compare",
    "router_budget",
    "Packet",
    "VirtualNetwork",
    "Coord",
    "Mesh",
    "ClusterMap",
    "VirtualMesh",
    "xy_tree_children",
    "SmartNetwork",
    "ConventionalNetwork",
    "FlattenedButterflyNetwork",
]
