"""Cache line state: MSI at L1, MOESI at L2 (paper Table 1).

A :class:`CacheLine` carries everything any controller in the system
needs; unused fields stay at their defaults (e.g. L1 lines never use
``sharers`` or ``tokens``). A line holds no placement of its own: where
it sits in its set's recency order is the array's business.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Set


class L1State(Enum):
    """MSI states for L1 lines.

    ``readable``/``writable`` are plain per-member attributes attached
    at import (below), not properties: state tests run on every cache
    access, and a property costs a Python-level descriptor call where
    an instance attribute is a C-level fetch.
    """

    I = "I"  # noqa: E741 - canonical protocol letter
    S = "S"
    M = "M"


class L2State(Enum):
    """MOESI states for L2 lines (hot flags attached at import, as for
    :class:`L1State`).

    ``is_owner``: owner states respond with data to remote requests
    (paper Section 3.4: "the one with ownership, i.e. in O state,
    responds"). E/M imply ownership; O is shared-with-ownership.
    """

    I = "I"  # noqa: E741
    S = "S"
    E = "E"
    O = "O"  # noqa: E741
    M = "M"


# Import-time member flags. Enum members pickle by name, so snapshots
# re-derive these on import and never embed them.
for _s in L1State:
    _s.readable = _s is not L1State.I
    _s.writable = _s is L1State.M
for _s in L2State:
    _s.readable = _s is not L2State.I
    _s.writable = _s in (L2State.M, L2State.E)
    _s.is_owner = _s in (L2State.M, L2State.O, L2State.E)
    _s.dirty = _s in (L2State.M, L2State.O)
del _s


@dataclass(slots=True)
class CacheLine:
    """One resident cache line.

    Attributes
    ----------
    line_addr:
        Line address (byte address >> log2(line size)).
    l1_state / l2_state:
        Only the level that owns the array uses its field.
    sharers:
        Directory bit-vector (as a set of tile/core ids) of L1 sharers
        in the local cluster — LOCO's 16-bit per-cluster vector.
    tokens:
        Token-coherence token count held by this L2 copy (inter-cluster
        protocol); the sum over all copies + memory equals the token
        count of the address.
    owner_token:
        Whether this copy holds the owner token (must respond to
        remote requests, carries dirty data responsibility).
    timestamp:
        Coarse last-access timestamp used by IVR victim arbitration.
    migrations:
        IVR replacement-counter value carried with the line.
    """

    line_addr: int
    l1_state: L1State = L1State.I
    l2_state: L2State = L2State.I
    sharers: Set[int] = field(default_factory=set)
    tokens: int = 0
    owner_token: bool = False
    timestamp: int = 0
    migrations: int = 0
    #: tile id of the L1 holding this line in M state (None if clean in
    #: all L1s) — the home uses it to recall the latest data.
    dirty_l1: "int | None" = None
    #: shadow value: the version token of the store whose data this copy
    #: holds (0 = the initial memory image). Written by the value-level
    #: oracle at store commit, carried by every data-bearing message, so
    #: the fuzz harness can check that loads observe the architecturally
    #: latest store. Versions of one address are totally ordered (bigger
    #: = newer), so merge points take ``max`` to stay order-safe when
    #: two in-flight writebacks of the same line cross.
    shadow: int = 0

    def touch(self, now_ts: int) -> None:
        """Record an access at coarse timestamp ``now_ts``."""
        self.timestamp = now_ts

    @property
    def valid(self) -> bool:
        return self.l1_state is not L1State.I or self.l2_state is not L2State.I
