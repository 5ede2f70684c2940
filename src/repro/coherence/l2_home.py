"""Home-L2 controller base: the first-level (intra-cluster) protocol.

Every organization's L2 home behaves identically toward its L1s — a
directory-based inclusive MOESI home that tracks L1 sharers, recalls
dirty L1 data, invalidates sharers on writes, and evicts inclusively.
Subclasses supply the *second level*: where data comes from on a home
miss (memory, a chip-wide directory, or a token broadcast over a VMS),
and where victims go (writeback, directory notify, or IVR migration).

Concurrency discipline:

* One live transaction per line via the MSHR file; later requests for a
  busy line are deferred and replayed at retire. ``mshr.phase`` says
  where a SERVE transaction is (allocated -> collecting -> filling ->
  granting) and the second level's collection state hangs on
  ``mshr.fetch``; nothing is keyed by string.
* Every job that asks the local L1s for something — the read grant's
  recall, the write grant's invalidations, an eviction, a forward
  purge or recall — is one :class:`ReplyRound`: one handler for
  ACK_INV_L1 and RECALL_RESP, one WB_L1 feed, one completion rule.
* Remote-initiated work (forwarded GETS/GETX, invalidations, token
  grabs) must NOT block on the line MSHR — that deadlocks two homes
  waiting on each other. Its rounds (*forward ops*) are keyed
  separately in ``_fwd_ops`` and tag their INV/RECALL messages
  ``fwd=True`` so each reply finds its round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional

from repro.cache.array import CacheArray
from repro.cache.line import CacheLine, L2State
from repro.cache.mshr import COLLECTING, FILLING, GRANTING, Mshr, MshrFile
from repro.coherence.context import SystemContext
from repro.coherence.messages import Msg, MsgKind, Unit, dispatch_table
from repro.coherence.shadow import merge_shadow, merge_shadow_opt
from repro.errors import ProtocolError

#: Test-only fault injection (the fuzz harness's mutation smoke): when
#: True, a write grant "forgets" to invalidate one sharer, leaving a
#: stale readable L1 copy — the classic missed-invalidation bug the
#: value oracle and the epoch SWMR check must both catch.
INJECT_SKIP_SHARER_INV = False


@dataclass(slots=True)
class ReplyRound:
    """One round of INV_L1 / RECALL_L1 to local L1s and what they hand
    back.

    A home transaction hangs its round on the MSHR (``mshr.round``):
    dirty data is absorbed into the line or victim as it arrives and
    ``cont()`` continues the transaction. A forward op's round lives in
    ``_fwd_ops`` (``mshr`` is None): the data is kept here for
    ``cont(dirty, value)``, after which the purges queued behind the op
    are re-run and the grants that waited for its data are retried.

    The dirty holder's data comes back on its reply or, when that L1
    evicted concurrently, on the crossing WB_L1 (an M eviction always
    writes back) — in either order. A nack from the holder means it
    poisoned its in-flight grant: the modified copy never existed and
    nothing is owed (``dirty_holder`` is cleared).
    """

    mshr: Optional[Mshr]
    pending: int                      # replies still expected
    dirty_holder: Optional[int]       # the L1 that owes its data
    cont: Callable
    dirty: bool = False               # modified data came back
    value: Optional[int] = None       # ... the newest of it
    #: forward op only: (cont, targets) purges queued behind it, and
    #: the grants parked until its data lands
    queue: List = field(default_factory=list)
    waiters: List = field(default_factory=list)


class HomeL2Base:
    """Shared first-level home behaviour; see module docstring."""

    def __init__(self, ctx: SystemContext, tile: int) -> None:
        self.ctx = ctx
        self.tile = tile
        # The coherent slice may be smaller than config.l2 when the
        # tile donates SRAM to a scratchpad (reconfigurable hierarchy);
        # on default hierarchies l2_config_for returns config.l2 itself.
        l2_cfg = ctx.l2_config_for(tile)
        self.array = CacheArray(l2_cfg,
                                index_stride=ctx.home_interleave())
        self.mshrs = MshrFile(capacity=16)
        self.latency = l2_cfg.access_latency
        self._fwd_ops: Dict[int, ReplyRound] = {}
        self._overflow: List[Msg] = []  # requests parked on a full MSHR file
        ctx.register(tile, Unit.L2, self.handle)
        # Bound once: these fire for every L2 access/fill.
        st = ctx.stats
        self._c_l2_accesses = st.counter("l2_accesses")
        self._c_l2_hits = st.counter("l2_hits")
        self._c_l2_misses = st.counter("l2_misses")
        self._c_l2_upgrades = st.counter("l2_upgrades")
        self._c_fills_onchip = st.counter("fills_onchip")
        self._c_fills_offchip = st.counter("fills_offchip")
        self._s_search_delay = st.sampler("search_delay")

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def __init_subclass__(cls, **kwargs) -> None:
        """Each concrete home gets its own first-level table, so the
        kinds not claimed here resolve to that subclass's
        ``_handle_level2`` (second level)."""
        super().__init_subclass__(**kwargs)
        cls._dispatch = dispatch_table(cls._handle_level2, (
            (MsgKind.GETS, cls._serve_request),
            (MsgKind.GETX, cls._serve_request),
            (MsgKind.WB_L1, cls._on_wb_l1),
            (MsgKind.ACK_INV_L1, cls._on_l1_reply),
            (MsgKind.RECALL_RESP, cls._on_l1_reply)))

    def handle(self, msg: Msg) -> None:
        self._dispatch[msg.kind.idx](self, msg)

    # ------------------------------------------------------------------
    # first-level service
    # ------------------------------------------------------------------
    def _serve_request(self, msg: Msg) -> None:
        line_addr = msg.line_addr
        if self.mshrs.busy(line_addr):
            self.mshrs.defer(line_addr, msg)
            return
        if self.mshrs.full:
            # Structural hazard: park the request; replayed on retire.
            self._overflow.append(msg)
            self.ctx.stats.counter("mshr_overflow").inc()
            return
        mshr = self.mshrs.allocate(line_addr, "SERVE",
                                   requestor=msg.requestor,
                                   issued_cycle=self.ctx.sim.cycle)
        mshr.msg = msg
        self._c_l2_accesses.value += 1
        self.ctx.sim.call_after(self.latency,
                                partial(self._serve_body, mshr))

    def _serve_body(self, mshr: Mshr) -> None:
        msg: Msg = mshr.msg
        line = self.array.lookup(msg.line_addr)
        if msg.kind is MsgKind.GETS:
            if line is not None and line.l2_state.readable:
                self._c_l2_hits.value += 1
                mshr.home_hit = True
                self._grant_read(mshr, line)
            else:
                self._c_l2_misses.value += 1
                self._miss(mshr, exclusive=False)
        else:  # GETX
            if line is not None and self._can_write(line):
                self._c_l2_hits.value += 1
                mshr.home_hit = True
                self._grant_write(mshr, line)
            elif line is not None and line.l2_state.readable:
                self._c_l2_upgrades.value += 1
                self._miss(mshr, exclusive=True, held=line)
            else:
                self._c_l2_misses.value += 1
                self._miss(mshr, exclusive=True)

    def _miss(self, mshr: Mshr, exclusive: bool,
              held: Optional[CacheLine] = None) -> None:
        """Enter the second level — or fall back to it from a parked
        grant, which must leave GRANTING: forwards would otherwise be
        deferred behind our fetch (the cross-deferral deadlock)."""
        mshr.phase = COLLECTING
        if mshr.miss_cycle is None:
            mshr.miss_cycle = self.ctx.sim.cycle
        if held is not None:
            self._upgrade(mshr, held)
        else:
            self._fetch(mshr, exclusive)

    # -- L1 reply rounds ---------------------------------------------------
    def _start_round(self, line_addr: int, kind: MsgKind,
                     targets: List[int], dirty_holder: Optional[int],
                     cont: Callable, mshr: Optional[Mshr] = None) -> None:
        """Send ``kind`` (INV_L1 / RECALL_L1) to ``targets`` and open
        the round their replies belong to: ``mshr``'s, or with none the
        line's forward op."""
        rnd = ReplyRound(mshr, len(targets), dirty_holder, cont)
        if mshr is None:
            self._fwd_ops[line_addr] = rnd
            requestor = self.tile
        else:
            mshr.round = rnd
            requestor = mshr.requestor
        for t in targets:
            self.ctx.send(Msg(kind, line_addr, self.tile, Unit.L1,
                              requestor=requestor, fwd=mshr is None), t)

    def _parked_on_forward_op(self, line_addr: int, retry: Callable) -> bool:
        """A forward recall/purge of the line's dirty L1 data is in
        flight (it already cleared ``dirty_l1``): our copy is stale
        until that data lands, and invalidations of ours would race it
        and strip the holder first, leaving the op waiting forever for
        data that came back on our ack instead. Park ``retry`` on the
        op; it re-checks permissions at completion (the op may have
        demoted or removed the line)."""
        op = self._fwd_ops.get(line_addr)
        if op is None or op.dirty_holder is None:
            return False
        op.waiters.append(retry)
        return True

    # -- read grant ------------------------------------------------------
    def _grant_read(self, mshr: Mshr, line: CacheLine) -> None:
        mshr.phase = GRANTING
        if self._parked_on_forward_op(line.line_addr,
                                      partial(self._regrant_read, mshr)):
            return
        holder = line.dirty_l1
        if holder is not None and holder != mshr.requestor:
            line.dirty_l1 = None  # holder downgrades to S on recall
            self._start_round(line.line_addr, MsgKind.RECALL_L1, [holder],
                              holder, partial(self._finish_read, mshr, line),
                              mshr)
            return
        self._finish_read(mshr, line)

    def _regrant_read(self, mshr: Mshr) -> None:
        fresh = self.array.lookup(mshr.line_addr, touch=False)
        if fresh is not None and fresh.l2_state.readable:
            self._grant_read(mshr, fresh)
        else:
            self._miss(mshr, exclusive=False)

    def _finish_read(self, mshr: Mshr, line: CacheLine) -> None:
        req = mshr.requestor
        line.sharers.add(req)
        line.touch(self.ctx.timestamp.now())
        self._send_grant(mshr, writable=False, value=line.shadow)
        self._retire(mshr)

    # -- write grant -----------------------------------------------------
    def _grant_write(self, mshr: Mshr, line: CacheLine) -> None:
        mshr.phase = GRANTING
        if self._parked_on_forward_op(line.line_addr,
                                      partial(self._regrant_write, mshr)):
            return
        req = mshr.requestor
        targets = sorted(line.sharers - {req})
        if INJECT_SKIP_SHARER_INV and targets:
            targets = targets[1:]
        if targets:
            # No data is owed: the writer overwrites the whole line.
            self._start_round(line.line_addr, MsgKind.INV_L1, targets, None,
                              partial(self._finish_write, mshr, line), mshr)
            line.sharers = {req} & line.sharers
            line.dirty_l1 = None
            return
        self._finish_write(mshr, line)

    def _regrant_write(self, mshr: Mshr) -> None:
        fresh = self.array.lookup(mshr.line_addr, touch=False)
        if fresh is not None and self._can_write(fresh):
            self._grant_write(mshr, fresh)
        elif fresh is not None and fresh.l2_state.readable:
            self._miss(mshr, exclusive=True, held=fresh)
        else:
            self._miss(mshr, exclusive=True)

    def _finish_write(self, mshr: Mshr, line: CacheLine) -> None:
        req = mshr.requestor
        self._note_write(line)
        line.sharers = {req}
        line.dirty_l1 = req
        line.touch(self.ctx.timestamp.now())
        self._send_grant(mshr, writable=True, value=line.shadow)
        self._retire(mshr)

    def _send_grant(self, mshr: Mshr, writable: bool,
                    value: Optional[int] = None) -> None:
        grant = Msg(MsgKind.DATA_L1, mshr.line_addr, self.tile, Unit.L1,
                    requestor=mshr.requestor, writable=writable,
                    home_hit=mshr.home_hit, offchip=mshr.offchip,
                    value=value)
        self.ctx.send(grant, mshr.requestor)

    def _retire(self, mshr: Mshr) -> None:
        deferred = self.mshrs.retire(mshr.line_addr)
        for item in deferred:
            self.handle(item)
        while self._overflow and not self.mshrs.full:
            self._serve_request(self._overflow.pop(0))

    # ------------------------------------------------------------------
    # fills and evictions
    # ------------------------------------------------------------------
    def _fill(self, mshr: Mshr, offchip: bool) -> None:
        """Second-level data arrived: install (``_apply_fill`` sets the
        line's state from what the subclass collected in
        ``mshr.fetch``) and grant."""
        mshr.phase = FILLING
        mshr.offchip = offchip
        if not offchip:
            delay = self.ctx.sim.cycle - mshr.miss_cycle
            self._s_search_delay.add(delay)
            self._c_fills_onchip.inc()
        else:
            self._c_fills_offchip.inc()
        self._try_install(mshr)

    def _try_install(self, mshr: Mshr) -> None:
        # Re-check fullness every time: while our eviction waited
        # for L1 acks, a concurrent fill may have taken the way. The
        # continuation holds the MSHR, never the other way round:
        # retired transactions are to be freed by refcount alone.
        if self.array.set_full(mshr.line_addr):
            self._make_room(mshr.line_addr,
                            partial(self._try_install, mshr))
        else:
            self._install(mshr)

    def _install(self, mshr: Mshr) -> None:
        existing = self.array.lookup(mshr.line_addr, touch=True)
        if existing is None:
            existing, evicted = self.array.allocate(mshr.line_addr)
            if evicted is not None:
                raise ProtocolError("allocate evicted despite make-room")
        self._apply_fill(mshr, existing)
        # A WB_L1 that landed while the fill was in flight carries
        # newer data than the fill source; fold it in.
        existing.shadow = merge_shadow(existing.shadow, mshr.wb_value)
        existing.touch(self.ctx.timestamp.now())
        if mshr.msg.kind is MsgKind.GETS:
            self._grant_read(mshr, existing)
        else:
            self._grant_write(mshr, existing)

    def _make_room(self, line_addr: int, cont: Callable[[], None]) -> None:
        victim = self._pick_victim(line_addr)
        if victim is None:
            # Every way is mid-transaction; retry shortly.
            self.ctx.sim.call_after(
                self.latency, partial(self._retry_make_room, line_addr, cont))
            return
        self.array.invalidate(victim.line_addr)
        ev = self.mshrs.allocate(victim.line_addr, "EVICT",
                                 requestor=self.tile,
                                 issued_cycle=self.ctx.sim.cycle,
                                 force=True)
        ev.victim = victim
        self.ctx.stats.counter("l2_evictions").inc()
        targets = sorted(victim.sharers)
        dirty_holder = victim.dirty_l1
        victim.sharers = set()
        victim.dirty_l1 = None
        if targets:
            # A dirty L1 copy must hand its data back before the victim
            # is disposed: disposing early would write back stale data
            # and strand the newest value in flight.
            self._start_round(victim.line_addr, MsgKind.INV_L1, targets,
                              dirty_holder, partial(self._evicted, ev, cont),
                              ev)
        else:
            self._evicted(ev, cont)

    def _evicted(self, ev: Mshr, cont: Callable[[], None]) -> None:
        self._dispose_victim(ev.victim)
        self._retire(ev)
        cont()

    def _retry_make_room(self, line_addr: int, cont: Callable[[], None]) -> None:
        if self.array.set_full(line_addr):
            self._make_room(line_addr, cont)
        else:
            cont()

    def _pick_victim(self, line_addr: int) -> Optional[CacheLine]:
        for cand in self.array.victim_ranking(line_addr):
            if not self.line_busy(cand.line_addr):
                return cand
        return None

    def line_busy(self, line_addr: int) -> bool:
        """A live transaction (MSHR or forward op) owns this line here."""
        return self.mshrs.busy(line_addr) or line_addr in self._fwd_ops

    # ------------------------------------------------------------------
    # L1 responses
    # ------------------------------------------------------------------
    @staticmethod
    def _absorb_dirty(line: CacheLine, value: Optional[int]) -> None:
        """An L1's modified data lands in ``line`` (resident, or a
        victim awaiting disposal): the newest value wins and a clean
        copy keeps (or gains) dirty ownership at L2."""
        line.shadow = merge_shadow(line.shadow, value)
        if line.l2_state is L2State.E:
            line.l2_state = L2State.M
        elif line.l2_state is L2State.S:
            line.l2_state = L2State.O

    def _on_wb_l1(self, msg: Msg) -> None:
        line_addr = msg.line_addr
        op = self._fwd_ops.get(line_addr)
        mshr = self.mshrs.get(line_addr)
        line = self.array.lookup(line_addr, touch=False)
        if line is not None:
            if line.dirty_l1 == msg.src_tile:
                line.dirty_l1 = None
            line.sharers.discard(msg.src_tile)
            self._absorb_dirty(line, msg.value)
        elif mshr is not None and mshr.victim is not None:
            # Raced our own eviction: merge into the victim so the
            # disposal writes the newest data back.
            self._absorb_dirty(mshr.victim, msg.value)
        elif mshr is not None:
            # A refetch of a line we gave away: the fill in flight is
            # staler than this data; merge at install time, and push
            # the value off-chip so other homes converge too.
            mshr.wb_value = merge_shadow_opt(mshr.wb_value, msg.value)
            self._orphan_wb(msg)
        elif op is None:
            # True orphan: the home no longer tracks the line at all.
            # Forward the dirty data to the second level so the
            # committed value is never lost.
            self._orphan_wb(msg)
        # A round whose dirty L1 evicted concurrently gets its data
        # through this writeback instead of the holder's reply.
        for rnd in (mshr.round if mshr is not None else None, op):
            if rnd is not None:
                rnd.dirty = True
                rnd.value = merge_shadow_opt(rnd.value, msg.value)
                self._round_step(line_addr, rnd)

    def _on_l1_reply(self, msg: Msg) -> None:
        """ACK_INV_L1 / RECALL_RESP: one reply of the line's forward op
        (``msg.fwd``) or of its own transaction's round."""
        if msg.fwd:
            rnd = self._fwd_ops.get(msg.line_addr)
        else:
            mshr = self.mshrs.get(msg.line_addr)
            rnd = mshr.round if mshr is not None else None
        if rnd is None or rnd.pending <= 0:
            raise ProtocolError(
                f"stray {msg.kind.name} at {self.tile}: {msg}")
        rnd.pending -= 1
        if msg.dirty:
            rnd.dirty = True
            rnd.value = merge_shadow_opt(rnd.value, msg.value)
            if rnd.mshr is not None:
                target = rnd.mshr.victim or self.array.lookup(
                    msg.line_addr, touch=False)
                if target is not None:
                    self._absorb_dirty(target, msg.value)
        elif msg.nack and msg.src_tile == rnd.dirty_holder:
            rnd.dirty_holder = None
        self._round_step(msg.line_addr, rnd)

    def _round_step(self, line_addr: int, rnd: ReplyRound) -> None:
        """Complete ``rnd`` once no reply is pending and the data it is
        owed has arrived. All replies in and all clean means the dirty
        L1 evicted concurrently and its data rides a WB_L1 still in
        flight: continuing now would grant, dispose or surrender stale
        data, so the round stays open until ``_on_wb_l1`` feeds it."""
        if rnd.pending or (rnd.dirty_holder is not None and not rnd.dirty):
            return
        if rnd.mshr is not None:
            rnd.mshr.round = None
            rnd.cont()
            return
        del self._fwd_ops[line_addr]
        rnd.cont(rnd.dirty, rnd.value)
        for queued_cont, queued_targets in rnd.queue:
            # Re-run with the targets captured at queue time (if any);
            # with none, re-derive — sharer sets may have changed.
            self._local_purge(line_addr, queued_cont,
                              targets=queued_targets)
        for waiter in rnd.waiters:
            waiter()

    # ------------------------------------------------------------------
    # forward ops: remote-initiated local purge / recall
    # ------------------------------------------------------------------
    def _local_purge(self, line_addr: int,
                     cont: Callable[[bool, Optional[int]], None],
                     targets: Optional[List[int]] = None,
                     dirty_holder: Optional[int] = None) -> None:
        """Invalidate all local L1 copies of ``line_addr``, then
        ``cont(dirty_seen, dirty_value)``. Never blocks on the line MSHR.

        ``targets`` lets the caller pass a sharer list captured before
        it removed the line from the array (surrender paths invalidate
        synchronously so concurrent merges cannot target a doomed line);
        such callers must pass ``dirty_holder`` captured alongside.
        """
        op = self._fwd_ops.get(line_addr)
        if op is not None:
            # Queue behind the active op, KEEPING the captured targets:
            # the caller may already have removed the line from the
            # array, so a later re-derivation would find no sharers and
            # leave the captured L1 copies alive — stale readable
            # copies surviving a remote write (fuzzer-found). The
            # dirty holder is not kept: by completion the active op has
            # collected its data (every op covers the then-dirty L1).
            op.queue.append((cont, targets))
            return
        if targets is None:
            line = self.array.lookup(line_addr, touch=False)
            targets = sorted(line.sharers) if line is not None else []
            if line is not None:
                dirty_holder = line.dirty_l1
                line.sharers = set()
                line.dirty_l1 = None
        if not targets:
            cont(False, None)
            return
        self._start_round(line_addr, MsgKind.INV_L1, targets, dirty_holder,
                          cont)

    def _drop_and_purge(self, line_addr: int, line: Optional[CacheLine],
                        cont: Callable[[bool, Optional[int]], None]) -> None:
        """Surrender ``line`` (None: not resident): out of the array at
        once, so nothing merges into a doomed line while the purge of
        the L1 copies captured here is in flight."""
        targets = sorted(line.sharers) if line is not None else []
        dirty_holder = line.dirty_l1 if line is not None else None
        self.array.invalidate(line_addr)
        self._local_purge(line_addr, cont, targets=targets,
                          dirty_holder=dirty_holder)

    def _local_recall(self, line_addr: int,
                      cont: Callable[[bool, Optional[int]], None]) -> None:
        """Pull the latest data from a dirty local L1 (downgrade to S),
        then ``cont(dirty_seen, dirty_value)``."""
        op = self._fwd_ops.get(line_addr)
        if op is not None:
            op.queue.append((cont, None))
            return
        line = self.array.lookup(line_addr, touch=False)
        if line is None or line.dirty_l1 is None:
            cont(False, None)
            return
        holder = line.dirty_l1
        line.dirty_l1 = None
        self._start_round(line_addr, MsgKind.RECALL_L1, [holder], holder,
                          cont)

    def _orphan_wb(self, msg: Msg) -> None:
        """An L1 writeback arrived for a line this home no longer tracks
        (it was surrendered/evicted while the WB_L1 was in flight).
        Subclasses forward the dirty data to their second level so the
        committed value reaches memory."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # subclass hooks
    # ------------------------------------------------------------------
    def _can_write(self, line: CacheLine) -> bool:
        raise NotImplementedError

    def _note_write(self, line: CacheLine) -> None:
        raise NotImplementedError

    def _fetch(self, mshr: Mshr, exclusive: bool) -> None:
        raise NotImplementedError

    def _apply_fill(self, mshr: Mshr, line: CacheLine) -> None:
        raise NotImplementedError

    def _upgrade(self, mshr: Mshr, line: CacheLine) -> None:
        raise NotImplementedError

    def _dispose_victim(self, victim: CacheLine) -> None:
        raise NotImplementedError

    def _handle_level2(self, msg: Msg) -> None:
        raise ProtocolError(f"L2 at tile {self.tile} got {msg}")
