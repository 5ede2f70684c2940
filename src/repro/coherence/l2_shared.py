"""Distributed shared L2 baseline (paper Section 4.1).

Each line has exactly one home tile chip-wide (``line % num_tiles``);
the home's directory tracks L1 sharers across the whole chip (the
non-scalable full bit-vector the paper charges nothing for, per its
generous assumption). Because the home's L2 slice is the *only* L2 copy
of the line on chip, the second level is trivial: a home miss goes
straight to memory, and a valid line is always writable at the home
(E on fill, M after a write) — no other L2 ever needs invalidating.
"""

from __future__ import annotations

from repro.cache.line import CacheLine, L2State
from repro.cache.mshr import Mshr
from repro.coherence.context import SystemContext
from repro.coherence.l2_home import HomeL2Base
from repro.coherence.messages import Msg, MsgKind, Unit
from repro.coherence.shadow import merge_shadow
from repro.errors import ProtocolError


class SharedL2Controller(HomeL2Base):
    """Home slice of the distributed shared cache."""

    def _can_write(self, line: CacheLine) -> bool:
        return line.l2_state.readable  # sole L2 copy: always upgradable

    def _note_write(self, line: CacheLine) -> None:
        line.l2_state = L2State.M

    def _fetch(self, mshr: Mshr, exclusive: bool) -> None:
        req = Msg(MsgKind.MEM_READ, mshr.line_addr, self.tile, Unit.MC,
                  requestor=self.tile)
        self.ctx.send(req, self.ctx.mc_tile(mshr.line_addr))

    def _upgrade(self, mshr: Mshr, line: CacheLine) -> None:
        raise ProtocolError("shared home never needs a level-2 upgrade")

    def _dispose_victim(self, victim: CacheLine) -> None:
        if victim.l2_state.dirty:
            wb = Msg(MsgKind.MEM_WB, victim.line_addr, self.tile, Unit.MC,
                     requestor=self.tile, dirty=True, value=victim.shadow)
            self.ctx.send(wb, self.ctx.mc_tile(victim.line_addr))

    def _orphan_wb(self, msg: Msg) -> None:
        wb = Msg(MsgKind.MEM_WB, msg.line_addr, self.tile, Unit.MC,
                 requestor=self.tile, dirty=True, value=msg.value)
        self.ctx.send(wb, self.ctx.mc_tile(msg.line_addr))

    def _on_mem_data(self, msg: Msg) -> None:
        mshr = self.mshrs.get(msg.line_addr)
        if mshr is None:
            raise ProtocolError(f"unsolicited MEM_DATA at {self.tile}")
        mshr.fetch = msg.value  # all this second level collects
        self._fill(mshr, offchip=True)

    def _apply_fill(self, mshr: Mshr, line: CacheLine) -> None:
        line.shadow = merge_shadow(line.shadow, mshr.fetch)
        line.l2_state = L2State.E

    _level2_routes = ((MsgKind.MEM_DATA, _on_mem_data),)
