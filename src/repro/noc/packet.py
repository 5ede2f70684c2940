"""Network packets and virtual networks.

Packets are modelled at head-flit granularity: the head flit arbitrates
through the network (SSRs, switch allocation); body flits follow the
path the head set up, so a multi-flit packet is not simulated
flit-by-flit: it holds each link it crosses for ``size_flits`` cycles
(link bandwidth) and is delivered at head-flit arrival + 1 NIC cycle
(see the ``repro.noc.router`` module docstring).

A :class:`Packet` is its own head flit: the object the sender injects
is the object the routers move and the object handed to the receiver.
It carries no id — packets are told apart by their payload, and what
orders them in flight is the network's flit age sequence
(``BaseNetwork._flit_seq``, stamped into ``order``).
"""

from __future__ import annotations

from enum import IntEnum
from typing import Any, Optional


class VirtualNetwork(IntEnum):
    """The five virtual networks of Table 1, by message class.

    Separate VNs break protocol-level deadlock cycles: requests can
    never block responses, and writebacks drain independently. The
    protocol declares each message kind's class
    (``repro.coherence.messages.VN_OF_KIND``); the fabrics model the
    separation as pooled buffer capacity (``num_vns * vcs_per_vn *
    vc_depth`` per router), so a packet carries no VN field.
    """

    REQUEST = 0        # L1->L2 / L2->directory requests, VMS broadcasts
    FORWARD = 1        # directory-forwarded requests, invalidations
    RESPONSE = 2       # data + ack responses
    WRITEBACK = 3      # evictions / writebacks to memory
    MIGRATION = 4      # IVR victim migration traffic


class Packet:
    """One network packet, which is also its head flit in flight.

    The sender sets ``src, dst`` (tile ids; ``dst`` is where this
    packet ejects — the template handed to ``multicast()`` has
    ``dst=None`` and every delivered copy names its own receiver),
    ``size_flits`` (1 for control, ``1 + ceil(line/link)`` for data)
    and ``payload`` (opaque object for the destination's receive
    callback — a coherence message). The network stamps
    ``injected_at`` / ``delivered_at``.

    The router owns the rest and sets them itself: ``at`` (the router
    holding the flit), ``order`` (the age-priority sort key
    ``(injected_at, seq)``, computed once when the flit enters the
    fabric so the per-cycle arbitration sort needs no Python-level
    key), ``ready`` (first cycle the flit may traverse) and ``plan``
    (the interned route plan from ``at`` toward ``dst``) whenever the
    flit is buffered at a router, ``got`` (how many of the plan's links
    this tick's arbitration granted) for every mover of a tick, and
    ``mcast_root`` / ``vms`` on a copy riding a VMS tree (it ejects at
    ``dst``, the next home router, and forks there).
    """

    __slots__ = ("src", "dst", "size_flits", "payload", "injected_at",
                 "delivered_at", "at", "order", "ready", "plan", "got",
                 "mcast_root", "vms")

    def __init__(self, src: int, dst: Optional[int], size_flits: int = 1,
                 payload: Any = None) -> None:
        self.src = src
        self.dst = dst
        self.size_flits = size_flits
        self.payload = payload
        self.injected_at = -1
        self.delivered_at = -1
        self.mcast_root = None
        self.vms = None

    @property
    def latency(self) -> int:
        """Network latency of a delivered packet (injection to ejection)."""
        if self.delivered_at < 0 or self.injected_at < 0:
            raise ValueError("packet not yet delivered")
        return self.delivered_at - self.injected_at

    def clone_for(self, at: int, dst: int, mcast_root: Optional[int] = None,
                  vms=None) -> "Packet":
        """A copy of this packet entering the fabric at ``at`` and
        ejecting at ``dst`` — the one place a packet copy is made
        (serial-unicast fallback, VMS root, VMS fork)."""
        copy = Packet(self.src, dst, self.size_flits, self.payload)
        copy.injected_at = self.injected_at
        copy.at = at
        copy.mcast_root = mcast_root
        copy.vms = vms
        return copy
