"""Directory-based second level: private baseline and LOCO CC.

One class serves both organizations because the protocol is identical —
only the *participants* differ:

* PRIVATE — every tile's L2 is a peer; the memory-controller directory
  tracks per-tile sharers/owner chip-wide (paper Section 4.1).
* LOCO_CC — every cluster's home L2 (for the line) is a peer; the
  directory tracks sharers/owner at *cluster* granularity, which is the
  clustered-cache-without-VMS configuration of Section 4.2.

Transaction shape (MOESI, forward-from-owner):

1. home miss/upgrade -> DIR_GETS/DIR_GETX to the line's memory
   controller;
2. the directory (after ``directory_latency``) forwards to the owner
   and/or invalidates sharers, or fetches from memory; it sends the
   requestor a DIR_ACK header carrying how many sharer acks to expect;
3. the requestor completes when it has the header + data + all acks.

Races: a forwarded request can reach an L2 that just evicted the line
(its DIR_WB still in flight). The peer answers with a NACK and the
requestor retries through the directory, which by then has processed
the writeback — guaranteed progress without a three-phase directory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from repro.cache.line import CacheLine, L2State
from repro.cache.mshr import GRANTING, Mshr
from repro.coherence.l2_home import HomeL2Base
from repro.coherence.messages import Msg, MsgKind, Unit
from repro.coherence.shadow import merge_shadow, merge_shadow_opt
from repro.errors import ProtocolError

_RETRY_DELAY = 20  # cycles before re-asking the directory after a NACK


@dataclass(slots=True)
class DirFetch:
    """What one request through the directory has gathered
    (``mshr.fetch``): complete with the data, the directory's header
    and as many sharer acks as the header announced. A NACK-retry
    starts a fresh record that keeps only the retry count."""

    want_x: bool
    nack_retries: int = 0
    data_seen: bool = False
    header_need: Optional[int] = None  # acks the header announced
    acks_got: int = 0
    exclusive: bool = False            # the fill may install E
    offchip: bool = False
    value: Optional[int] = None        # newest shadow value seen


class DirectoryL2Controller(HomeL2Base):
    """Home L2 slice with a directory-based global level."""

    # ------------------------------------------------------------------
    # hooks: local write permission
    # ------------------------------------------------------------------
    def _can_write(self, line: CacheLine) -> bool:
        return line.l2_state in (L2State.M, L2State.E)

    def _note_write(self, line: CacheLine) -> None:
        line.l2_state = L2State.M

    # ------------------------------------------------------------------
    # requestor side
    # ------------------------------------------------------------------
    def _fetch(self, mshr: Mshr, exclusive: bool) -> None:
        prev: Optional[DirFetch] = mshr.fetch
        mshr.fetch = DirFetch(exclusive,
                              prev.nack_retries if prev is not None else 0)
        kind = MsgKind.DIR_GETX if exclusive else MsgKind.DIR_GETS
        req = Msg(kind, mshr.line_addr, self.tile, Unit.MC,
                  requestor=self.tile)
        self.ctx.send(req, self.ctx.mc_tile(mshr.line_addr))

    def _upgrade(self, mshr: Mshr, line: CacheLine) -> None:
        # An upgrade is a GETX through the directory; data may be
        # re-delivered, which is harmless.
        self._fetch(mshr, exclusive=True)

    def _maybe_complete(self, mshr: Mshr) -> None:
        f: DirFetch = mshr.fetch
        if not f.data_seen or f.header_need is None:
            return
        if f.acks_got < f.header_need:
            return
        # Confirm to the directory: it commits owner/sharer state and
        # unblocks queued requests for this line.
        done = Msg(MsgKind.DIR_DONE, mshr.line_addr, self.tile, Unit.MC,
                   requestor=self.tile, writable=f.want_x,
                   exclusive=f.exclusive)
        self.ctx.send(done, self.ctx.mc_tile(mshr.line_addr))
        self._fill(mshr, offchip=f.offchip)

    def _apply_fill(self, mshr: Mshr, line: CacheLine) -> None:
        f: DirFetch = mshr.fetch
        line.shadow = merge_shadow(line.shadow, f.value)
        if f.want_x:
            line.l2_state = L2State.M
        elif f.exclusive:
            line.l2_state = L2State.E
        else:
            line.l2_state = L2State.S

    # ------------------------------------------------------------------
    # level-2 message handling
    # ------------------------------------------------------------------
    def _handle_level2(self, msg: Msg) -> None:
        kind = msg.kind
        if kind is MsgKind.DATA_L2:
            self._on_data_l2(msg)
        elif kind is MsgKind.DIR_ACK:
            self._on_dir_ack(msg)
        elif kind in (MsgKind.DIR_FWD_GETS, MsgKind.DIR_FWD_GETX):
            self._on_forward(msg)
        elif kind is MsgKind.DIR_INV:
            self._on_dir_inv(msg)
        else:
            raise ProtocolError(f"directory L2 at {self.tile} got {msg}")

    def _on_data_l2(self, msg: Msg) -> None:
        mshr = self.mshrs.get(msg.line_addr)
        f: Optional[DirFetch] = mshr.fetch if mshr is not None else None
        if f is None:
            # Late data after a NACK-retry already completed: drop (the
            # directory's view was updated when it dispatched this).
            return
        if msg.nack:
            # The forward raced an eviction or an in-flight fill at the
            # old owner: retry through the directory with backoff (the
            # target's own transaction needs time to complete).
            self.ctx.stats.counter("dir_nacks").inc()
            delay = min(_RETRY_DELAY * (2 ** f.nack_retries), 800)
            f.nack_retries += 1
            self.ctx.sim.call_after(delay, partial(self._refetch, mshr))
            return
        f.data_seen = True
        f.exclusive = f.exclusive or msg.exclusive
        f.offchip = f.offchip or msg.offchip
        f.value = merge_shadow_opt(f.value, msg.value)
        self._maybe_complete(mshr)

    def _refetch(self, mshr: Mshr) -> None:
        if self.mshrs.get(mshr.line_addr) is not mshr:
            return  # completed meanwhile
        self._fetch(mshr, mshr.fetch.want_x)

    def _on_dir_ack(self, msg: Msg) -> None:
        """Either the directory's header (ack_count >= 0, src = MC tile)
        or a sharer's invalidation ack (src = sharer tile)."""
        mshr = self.mshrs.get(msg.line_addr)
        f: Optional[DirFetch] = mshr.fetch if mshr is not None else None
        if f is None:
            return  # stray ack after retry completion: safe to drop
        if msg.fwd:          # a sharer's invalidation ack
            f.acks_got += 1
        else:                # the directory's header
            f.header_need = msg.ack_count
        self._maybe_complete(mshr)

    # ------------------------------------------------------------------
    # peer side: forwarded requests and invalidations
    # ------------------------------------------------------------------
    def _must_defer_forward(self, line_addr: int) -> bool:
        """Forwards are never parked behind an in-flight transaction —
        cross-deferral between two requestors deadlocks (each waits for
        the other's data). Instead, a non-owner NACKs and the requestor
        retries through the directory. The single exception is a grant
        in progress: it completes using only local L1 acks, so deferring
        is safe — and serving would invalidate the line under the grant.
        """
        mshr = self.mshrs.get(line_addr)
        return mshr is not None and mshr.phase == GRANTING

    def _on_forward(self, msg: Msg) -> None:
        if self._must_defer_forward(msg.line_addr):
            self.mshrs.defer(msg.line_addr, msg)
            return
        self.ctx.sim.call_after(self.latency,
                                partial(self._forward_body, msg))

    def _forward_body(self, msg: Msg) -> None:
        # Re-check: state may have changed during the array latency.
        if self._must_defer_forward(msg.line_addr):
            self.mshrs.defer(msg.line_addr, msg)
            return
        line = self.array.lookup(msg.line_addr, touch=False)
        if line is None or not line.l2_state.is_owner:
            nack = Msg(MsgKind.DATA_L2, msg.line_addr, self.tile, Unit.L2,
                       requestor=msg.requestor, nack=True)
            self.ctx.send(nack, msg.requestor)
            return
        if msg.kind is MsgKind.DIR_FWD_GETS:
            self._local_recall(msg.line_addr,
                               partial(self._share_recalled, msg, line))
        else:  # DIR_FWD_GETX: hand everything over
            self._drop_and_purge(
                msg.line_addr, line,
                partial(self._send_data, msg, line.l2_state.dirty,
                        line.shadow))

    def _share_recalled(self, msg: Msg, line: CacheLine, _dirty: bool,
                        value: Optional[int]) -> None:
        line.shadow = merge_shadow(line.shadow, value)
        self._send_data(msg, line.l2_state.dirty, line.shadow, False, None)
        line.l2_state = L2State.O  # shared, we keep ownership

    def _send_data(self, msg: Msg, dirty: bool, value: int,
                   dirty_l1: bool, l1_value: Optional[int]) -> None:
        """Answer a forwarded request with our data, folding in what the
        local L1s handed back."""
        resp = Msg(MsgKind.DATA_L2, msg.line_addr, self.tile, Unit.L2,
                   requestor=msg.requestor, dirty=dirty or dirty_l1,
                   value=merge_shadow(value, l1_value))
        self.ctx.send(resp, msg.requestor)

    def _on_dir_inv(self, msg: Msg) -> None:
        """Invalidate our (shared) copy. Must not block on the MSHR: a
        concurrent upgrade of ours lost the race at the directory and
        the winner is waiting for this ack."""
        self._drop_and_purge(msg.line_addr,
                             self.array.lookup(msg.line_addr, touch=False),
                             partial(self._ack_dir_inv, msg))

    def _ack_dir_inv(self, msg: Msg, _dirty: bool,
                     _value: Optional[int]) -> None:
        # fwd=True marks this as a sharer ack, distinguishing it from
        # the directory's DIR_ACK header at the requestor.
        ack = Msg(MsgKind.DIR_ACK, msg.line_addr, self.tile, Unit.L2,
                  requestor=msg.requestor, fwd=True)
        self.ctx.send(ack, msg.requestor)

    # ------------------------------------------------------------------
    # victims
    # ------------------------------------------------------------------
    def _dispose_victim(self, victim: CacheLine) -> None:
        if victim.l2_state.is_owner:
            wb = Msg(MsgKind.DIR_WB, victim.line_addr, self.tile, Unit.MC,
                     requestor=self.tile, dirty=victim.l2_state.dirty,
                     value=victim.shadow)
            self.ctx.send(wb, self.ctx.mc_tile(victim.line_addr))
        # Plain S victims evict silently; the directory's stale sharer
        # bit costs one spurious DIR_INV/DIR_ACK later, never correctness.

    def _orphan_wb(self, msg: Msg) -> None:
        wb = Msg(MsgKind.DIR_WB, msg.line_addr, self.tile, Unit.MC,
                 requestor=self.tile, dirty=True, value=msg.value)
        self.ctx.send(wb, self.ctx.mc_tile(msg.line_addr))
