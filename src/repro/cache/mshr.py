"""Miss Status Holding Registers.

One MSHR tracks one outstanding transaction for a line address at a
controller: the request kind, who asked, the phase it is in and the
typed records its controller hangs on it. ``MshrFile`` enforces the
one-transaction-per-line invariant that every controller relies on for
race freedom (secondary requests to a busy line are queued behind the
MSHR and replayed when it retires).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.errors import ProtocolError

#: Phases of a home-L2 SERVE transaction, in order. ``COLLECTING`` is
#: the second level gathering data / tokens / acks (re-entered when a
#: parked grant falls back to the miss path), ``FILLING`` the completed
#: collection waiting for a way, ``GRANTING`` the hand-over to the
#: requesting L1, which waits on local L1 replies only.
ALLOCATED, COLLECTING, FILLING, GRANTING = (
    "allocated", "collecting", "filling", "granting")


@dataclass(slots=True)
class Mshr:
    """One outstanding transaction."""

    line_addr: int
    kind: str                      # home L2: "SERVE" / "EVICT";
    #                                L1: "GETS" / "GETX"
    requestor: int = -1            # tile/core id that initiated it
    issued_cycle: int = 0
    deferred: List[Any] = field(default_factory=list)  # queued secondaries
    # -- home L2 ---------------------------------------------------------
    phase: str = ALLOCATED
    msg: Any = None                # SERVE: the L1's GETS / GETX
    victim: Any = None             # EVICT: the line being disposed
    round: Any = None              # live L1 reply round (l2_home.ReplyRound)
    fetch: Any = None              # the second level's collection state
    #                                (TokenFetch / DirFetch; the shared
    #                                home's is just memory's value)
    home_hit: bool = False         # served without a second-level fetch
    miss_cycle: Optional[int] = None  # when the second level was entered
    offchip: bool = False          # the fill involved off-chip memory
    wb_value: Optional[int] = None  # WB_L1 that landed while refetching
    # -- L1 --------------------------------------------------------------
    callbacks: Optional[List[Any]] = None  # completions of merged accesses
    spec: bool = False             # wrong-path load: uncounted, droppable
    poisoned: bool = False         # invalidated while the fill was in flight

    def __repr__(self) -> str:
        return (f"Mshr({self.kind} line={self.line_addr:#x} "
                f"req={self.requestor} {self.phase})")


class MshrFile:
    """The MSHR file of one controller (bounded, per-line exclusive)."""

    def __init__(self, capacity: int = 16) -> None:
        if capacity < 1:
            raise ProtocolError("MSHR capacity must be >= 1")
        self.capacity = capacity
        self._entries: Dict[int, Mshr] = {}

    def get(self, line_addr: int) -> Optional[Mshr]:
        return self._entries.get(line_addr)

    def busy(self, line_addr: int) -> bool:
        return line_addr in self._entries

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def allocate(self, line_addr: int, kind: str, requestor: int = -1,
                 issued_cycle: int = 0, force: bool = False) -> Mshr:
        """Allocate an entry. ``force`` bypasses the capacity cap — used
        for transactions that must not stall on structural hazards
        (evictions completing an already-granted fill)."""
        entries = self._entries
        if line_addr in entries:
            raise ProtocolError(
                f"line {line_addr:#x} already has an MSHR "
                f"({entries[line_addr]})")
        if len(entries) >= self.capacity and not force:  # inlined .full
            raise ProtocolError("MSHR file full (caller must check first)")
        entry = Mshr(line_addr, kind, requestor, issued_cycle)
        entries[line_addr] = entry
        return entry

    def retire(self, line_addr: int) -> List[Any]:
        """Free the entry; returns any deferred secondary requests that
        were queued behind it, for the caller to replay in order."""
        entry = self._entries.pop(line_addr, None)
        if entry is None:
            raise ProtocolError(f"no MSHR for line {line_addr:#x}")
        return entry.deferred

    def defer(self, line_addr: int, request: Any) -> None:
        entry = self._entries.get(line_addr)
        if entry is None:
            raise ProtocolError(f"no MSHR for line {line_addr:#x} to defer to")
        entry.deferred.append(request)

    def entries(self) -> List[Mshr]:
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)
