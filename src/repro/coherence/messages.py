"""Coherence message vocabulary.

Every packet payload in the system is a :class:`Msg`. Messages are
small, explicit records: the kind says what to do, ``unit`` says which
controller on the destination tile handles it, and the optional fields
carry protocol state (token counts, ack expectations, IVR metadata).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Optional

from repro.noc.packet import VirtualNetwork


class Unit(Enum):
    """Which controller on a tile consumes the message."""

    L1 = auto()
    L2 = auto()
    MC = auto()
    SPM = auto()            # software-managed scratchpad (non-coherent)


class MsgKind(Enum):
    # ----- level 1: L1 <-> home L2 -----
    GETS = auto()           # L1 read request
    GETX = auto()           # L1 write / upgrade request
    DATA_L1 = auto()        # home grants data to L1 (writable flag)
    INV_L1 = auto()         # home invalidates an L1 sharer
    ACK_INV_L1 = auto()     # L1 -> home (dirty flag if an M copy died)
    WB_L1 = auto()          # L1 evicts an M line back to home
    RECALL_L1 = auto()      # home pulls latest data from the dirty L1
    RECALL_RESP = auto()    # dirty L1 -> home

    # ----- memory interface -----
    MEM_READ = auto()       # fetch a line from off-chip
    MEM_DATA = auto()       # memory response
    MEM_WB = auto()         # write a line off-chip

    # ----- level 2, directory flavour (private / shared-miss / LOCO CC) --
    DIR_GETS = auto()       # L2/home -> directory
    DIR_GETX = auto()
    DIR_FWD_GETS = auto()   # directory -> current owner
    DIR_FWD_GETX = auto()
    DIR_INV = auto()        # directory -> sharer L2
    DIR_ACK = auto()        # sharer L2 -> requestor (inv done)
    DATA_L2 = auto()        # owner L2 or memory -> requestor L2
    DIR_WB = auto()         # owner L2 evicts: data + dir update
    DIR_DONE = auto()       # requestor confirms fill; directory commits
    #                         the new owner/sharer state and unblocks the
    #                         line's queued requests

    # ----- level 2, token/VMS flavour -----
    TOK_GETS = auto()       # broadcast on VMS (+ unicast to MC)
    TOK_GETX = auto()
    TOK_DATA = auto()       # data + tokens (+ owner token)
    TOK_ACK = auto()        # tokens only (no data)
    TOK_WB = auto()         # return tokens (+ dirty data) to memory
    PERSIST_START = auto()  # starvation escalation: ask MC for the grant
    PERSIST_GRANT = auto()
    PERSIST_DONE = auto()

    # ----- IVR -----
    IVR_MIGRATE = auto()    # victim line hops to another cluster's home

    # ----- scratchpad (non-coherent crossbar-style remote access) -----
    # Scratchpad traffic never touches the directory or token machinery:
    # a remote read/write is a point-to-point exchange with the owning
    # tile's SPM unit, riding the ordinary request/response VNs so it
    # shares (and contends for) fabric bandwidth with coherence traffic.
    SPM_READ = auto()       # core -> remote SPM: read one slot
    SPM_WRITE = auto()      # core -> remote SPM: write one slot (data)
    SPM_DATA = auto()       # remote SPM -> core: read reply (data)
    SPM_ACK = auto()        # remote SPM -> core: write acknowledged


#: VN assignment per message class — requests, forwards, responses,
#: writebacks and migrations ride separate virtual networks so protocol
#: dependency cycles cannot deadlock in the fabric (Table 1: 5 VNs).
VN_OF_KIND = {
    MsgKind.GETS: VirtualNetwork.REQUEST,
    MsgKind.GETX: VirtualNetwork.REQUEST,
    MsgKind.DIR_GETS: VirtualNetwork.REQUEST,
    MsgKind.DIR_GETX: VirtualNetwork.REQUEST,
    MsgKind.TOK_GETS: VirtualNetwork.REQUEST,
    MsgKind.TOK_GETX: VirtualNetwork.REQUEST,
    MsgKind.MEM_READ: VirtualNetwork.REQUEST,
    MsgKind.PERSIST_START: VirtualNetwork.REQUEST,
    MsgKind.INV_L1: VirtualNetwork.FORWARD,
    MsgKind.RECALL_L1: VirtualNetwork.FORWARD,
    MsgKind.DIR_FWD_GETS: VirtualNetwork.FORWARD,
    MsgKind.DIR_FWD_GETX: VirtualNetwork.FORWARD,
    MsgKind.DIR_INV: VirtualNetwork.FORWARD,
    MsgKind.PERSIST_GRANT: VirtualNetwork.FORWARD,
    MsgKind.DATA_L1: VirtualNetwork.RESPONSE,
    MsgKind.ACK_INV_L1: VirtualNetwork.RESPONSE,
    MsgKind.RECALL_RESP: VirtualNetwork.RESPONSE,
    MsgKind.DIR_ACK: VirtualNetwork.RESPONSE,
    MsgKind.DATA_L2: VirtualNetwork.RESPONSE,
    MsgKind.MEM_DATA: VirtualNetwork.RESPONSE,
    MsgKind.TOK_DATA: VirtualNetwork.RESPONSE,
    MsgKind.TOK_ACK: VirtualNetwork.RESPONSE,
    MsgKind.PERSIST_DONE: VirtualNetwork.RESPONSE,
    MsgKind.DIR_DONE: VirtualNetwork.RESPONSE,
    MsgKind.WB_L1: VirtualNetwork.WRITEBACK,
    MsgKind.MEM_WB: VirtualNetwork.WRITEBACK,
    MsgKind.DIR_WB: VirtualNetwork.WRITEBACK,
    MsgKind.TOK_WB: VirtualNetwork.WRITEBACK,
    MsgKind.IVR_MIGRATE: VirtualNetwork.MIGRATION,
    MsgKind.SPM_READ: VirtualNetwork.REQUEST,
    MsgKind.SPM_WRITE: VirtualNetwork.REQUEST,
    MsgKind.SPM_DATA: VirtualNetwork.RESPONSE,
    MsgKind.SPM_ACK: VirtualNetwork.RESPONSE,
}

#: Kinds whose packets carry a full cache line (header + payload flits).
DATA_KINDS = frozenset({
    MsgKind.DATA_L1, MsgKind.DATA_L2, MsgKind.MEM_DATA, MsgKind.TOK_DATA,
    MsgKind.WB_L1, MsgKind.MEM_WB, MsgKind.DIR_WB, MsgKind.TOK_WB,
    MsgKind.IVR_MIGRATE, MsgKind.RECALL_RESP,
    # SPM writes push a line-sized payload; read replies return one.
    MsgKind.SPM_WRITE, MsgKind.SPM_DATA,
})

# Hot-path per-member attributes, attached once at import: CPython's
# ``Enum.__hash__`` is a Python-level function, so enum-keyed dict
# probes (``VN_OF_KIND[kind]``, ``kind in DATA_KINDS``, enum-keyed
# dispatch tables) cost a Python call per delivered message. A plain
# instance attribute (``kind.vn``, ``kind.carries_data``) or a list
# indexed by the dense ``kind.idx`` is a C-level fetch. Members pickle
# by name, so snapshots re-derive these on import, never embed them.
for _i, _k in enumerate(MsgKind):
    _k.idx = _i
    _k.vn = VN_OF_KIND[_k]
    _k.carries_data = _k in DATA_KINDS
for _i, _u in enumerate(Unit):
    _u.idx = _i
del _i, _k, _u


def dispatch_table(default, routes):
    """A controller class's message dispatch, indexed by the dense
    ``MsgKind.idx``: ``routes`` pairs kinds with plain functions, called
    as ``fn(controller, msg)``; every other kind gets ``default``. Keep
    it a class attribute: a per-instance table of bound methods made
    each controller a reference cycle of its own."""
    table = [default] * len(MsgKind)
    for kind, fn in routes:
        table[kind.idx] = fn
    return table


@dataclass(slots=True)
class Msg:
    """One coherence message (the payload of one network packet)."""

    kind: MsgKind
    line_addr: int
    src_tile: int
    unit: Unit                       # destination unit
    requestor: int = -1              # core tile the transaction serves
    writable: bool = False           # DATA_L1: grant M instead of S
    dirty: bool = False              # ack/response carries modified data
    ack_count: int = 0               # acks the requestor should expect
    tokens: int = 0                  # token-protocol token transfer
    owner_token: bool = False
    timestamp: int = 0               # IVR: last-access coarse timestamp
    migrations: int = 0              # IVR: replacement counter
    persistent: bool = False         # token request under persistent grant
    nack: bool = False               # forwarded request raced an eviction
    exclusive: bool = False          # fill may install E (no other sharers)
    offchip: bool = False            # fill involved off-chip memory
    home_hit: bool = False           # fill was a home-L2 hit (Fig 7 stat)
    fwd: bool = False                # INV/ACK belongs to a forwarded op,
    #                                  not the home's own transaction
    value: Optional[int] = None      # shadow value of the carried line
    #                                  (None = message carries no data)

    def __repr__(self) -> str:
        return (f"Msg({self.kind.name} line={self.line_addr:#x} "
                f"src={self.src_tile} req={self.requestor})")
