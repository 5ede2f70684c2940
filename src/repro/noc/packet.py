"""Network packets and virtual networks.

Packets are modelled at head-flit granularity: the head flit arbitrates
through the network (SSRs, switch allocation); body flits follow the
path the head set up, so a multi-flit packet is not simulated
flit-by-flit: it holds each link it crosses for ``size_flits`` cycles
(link bandwidth) and is delivered at head-flit arrival + 1 NIC cycle
(see the ``repro.noc.router`` module docstring).

A packet carries no id: it is the object the network hands to the
receiver, told apart by its payload. What orders packets in flight is
the network's own flit age sequence (``BaseNetwork._flit_seq``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Optional, Tuple


class VirtualNetwork(IntEnum):
    """The five virtual networks of Table 1, by message class.

    Separate VNs break protocol-level deadlock cycles: requests can
    never block responses, and writebacks drain independently.
    """

    REQUEST = 0        # L1->L2 / L2->directory requests, VMS broadcasts
    FORWARD = 1        # directory-forwarded requests, invalidations
    RESPONSE = 2       # data + ack responses
    WRITEBACK = 3      # evictions / writebacks to memory
    MIGRATION = 4      # IVR victim migration traffic


@dataclass(slots=True)
class Packet:
    """One network packet (head-flit granularity).

    Attributes
    ----------
    src, dst:
        Tile ids. ``dst`` is None for multicasts, which carry
        ``mcast_group`` instead (a VMS id understood by SMART routers).
    vn:
        Virtual network (message class) — arbitration is VN-aware.
    size_flits:
        1 for control, ``1 + ceil(line/link)`` for data packets.
    payload:
        Opaque object handed to the destination's receive callback
        (a coherence message).
    """

    src: int
    dst: Optional[int]
    vn: VirtualNetwork
    size_flits: int = 1
    payload: Any = None
    mcast_group: Optional[Tuple[int, ...]] = None
    injected_at: int = -1
    delivered_at: int = -1

    def __post_init__(self) -> None:
        if self.dst is None and not self.mcast_group:
            raise ValueError("packet needs a dst or a multicast group")
        if self.size_flits < 1:
            raise ValueError("size_flits must be >= 1")

    @property
    def is_multicast(self) -> bool:
        return self.mcast_group is not None

    @property
    def latency(self) -> int:
        """Network latency of a delivered packet (injection to ejection)."""
        if self.delivered_at < 0 or self.injected_at < 0:
            raise ValueError("packet not yet delivered")
        return self.delivered_at - self.injected_at

    def clone_for(self, dst: int) -> "Packet":
        """A unicast copy of this packet targeting ``dst`` (multicast fork)."""
        return Packet(src=self.src, dst=dst, vn=self.vn,
                      size_flits=self.size_flits, payload=self.payload,
                      injected_at=self.injected_at)
