"""Home-L2 controller base: the first-level (intra-cluster) protocol.

Every organization's L2 home behaves identically toward its L1s — a
directory-based inclusive MOESI home that tracks L1 sharers, recalls
dirty L1 data, invalidates sharers on writes, and evicts inclusively.
Subclasses supply the *second level*: where data comes from on a home
miss (memory, a chip-wide directory, or a token broadcast over a VMS),
and where victims go (writeback, directory notify, or IVR migration).

Concurrency discipline:

* One live transaction per line via the MSHR file; later requests for a
  busy line are deferred and replayed at retire.
* Remote-initiated work (forwarded GETS/GETX, invalidations, token
  grabs) must NOT block on the line MSHR — that deadlocks two homes
  waiting on each other. It runs through per-line *forward ops* keyed
  separately, using ``fwd=True`` tagged INV/RECALL messages so acks
  route to the right waiter.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from repro.cache.array import CacheArray
from repro.cache.line import CacheLine, L2State
from repro.cache.mshr import Mshr, MshrFile
from repro.coherence.context import SystemContext
from repro.coherence.messages import Msg, MsgKind, Unit
from repro.coherence.shadow import merge_shadow, merge_shadow_opt
from repro.errors import ProtocolError

#: Test-only fault injection (the fuzz harness's mutation smoke): when
#: True, a write grant "forgets" to invalidate one sharer, leaving a
#: stale readable L1 copy — the classic missed-invalidation bug the
#: value oracle and the epoch SWMR check must both catch.
INJECT_SKIP_SHARER_INV = False


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
        self._fwd_ops: Dict[int, Dict] = {}
        self._overflow: List[Msg] = []  # requests parked on a full MSHR file
        self._build_dispatch()
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
    def _build_dispatch(self) -> None:
        """First-level dispatch table of bound methods, indexed by the
        dense import-time ``MsgKind.idx`` (enum-keyed dicts pay a
        Python-level Enum.__hash__ per probe); anything not claimed
        here belongs to the subclass's second level. Derived state:
        excluded from snapshots (a per-tile table of bound methods
        bloats every image) and rebuilt on restore."""
        self._dispatch = [self._handle_level2] * len(MsgKind)
        for kind, fn in ((MsgKind.GETS, self._serve_request),
                         (MsgKind.GETX, self._serve_request),
                         (MsgKind.WB_L1, self._on_wb_l1),
                         (MsgKind.ACK_INV_L1, self._on_ack_inv),
                         (MsgKind.RECALL_RESP, self._on_recall_resp)):
            self._dispatch[kind.idx] = fn

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_dispatch"]  # derived; rebuilt in __setstate__
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._build_dispatch()

    def handle(self, msg: Msg) -> None:
        self._dispatch[msg.kind.idx](msg)

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
        mshr.scratch["msg"] = msg
        self._c_l2_accesses.value += 1
        self.ctx.sim.call_after(self.latency,
                                partial(self._serve_body, mshr))

    def _serve_body(self, mshr: Mshr) -> None:
        msg: Msg = mshr.scratch["msg"]
        line = self.array.lookup(msg.line_addr)
        if msg.kind is MsgKind.GETS:
            if line is not None and line.l2_state.readable:
                self._c_l2_hits.value += 1
                mshr.scratch["home_hit"] = True
                self._grant_read(mshr, line)
            else:
                self._start_miss(mshr, exclusive=False)
        else:  # GETX
            if line is not None and self._can_write(line):
                self._c_l2_hits.value += 1
                mshr.scratch["home_hit"] = True
                self._grant_write(mshr, line)
            elif line is not None and line.l2_state.readable:
                self._c_l2_upgrades.value += 1
                mshr.scratch["miss_cycle"] = self.ctx.sim.cycle
                self._upgrade(mshr, line)
            else:
                self._start_miss(mshr, exclusive=True)

    def _start_miss(self, mshr: Mshr, exclusive: bool) -> None:
        self._c_l2_misses.value += 1
        mshr.scratch["miss_cycle"] = self.ctx.sim.cycle
        self._fetch(mshr, exclusive)

    # -- read grant ------------------------------------------------------
    def _grant_read(self, mshr: Mshr, line: CacheLine) -> None:
        mshr.scratch["granting"] = True
        req = mshr.requestor
        op = self._fwd_ops.get(line.line_addr)
        if op is not None and op.get("need_dirty"):
            # A forward recall/purge of the dirty L1 data is in flight
            # (it already cleared ``dirty_l1``): our copy is stale until
            # that data lands, so granting now would serve a stale line.
            # Park the grant as an op waiter and retry at completion.
            op.setdefault("waiters", []).append(
                partial(self._regrant_read, mshr))
            return
        if line.dirty_l1 is not None and line.dirty_l1 != req:
            holder = line.dirty_l1
            mshr.scratch["cont"] = partial(self._finish_read, mshr, line)
            recall = Msg(MsgKind.RECALL_L1, line.line_addr, self.tile,
                         Unit.L1, requestor=req)
            line.dirty_l1 = None  # holder downgrades to S on recall
            self.ctx.send(recall, holder)
            return
        self._finish_read(mshr, line)

    def _regrant_read(self, mshr: Mshr) -> None:
        fresh = self.array.lookup(mshr.line_addr, touch=False)
        if fresh is not None and fresh.l2_state.readable:
            self._grant_read(mshr, fresh)
        else:
            # Back to the miss path: drop the granting flag or forwards
            # would be deferred behind our fetch (the cross-deferral
            # deadlock).
            mshr.scratch.pop("granting", None)
            mshr.scratch.setdefault("miss_cycle", self.ctx.sim.cycle)
            self._fetch(mshr, exclusive=False)

    def _finish_read(self, mshr: Mshr, line: CacheLine) -> None:
        req = mshr.requestor
        line.sharers.add(req)
        line.touch(self.ctx.timestamp.now())
        self._send_grant(mshr, writable=False, value=line.shadow)
        self._retire(mshr)

    # -- write grant -----------------------------------------------------
    def _grant_write(self, mshr: Mshr, line: CacheLine) -> None:
        mshr.scratch["granting"] = True
        req = mshr.requestor
        op = self._fwd_ops.get(line.line_addr)
        if op is not None and op.get("need_dirty"):
            # A forward recall of the dirty L1 data is in flight. Our
            # invalidations would race it and strip the holder first,
            # leaving the recall waiting forever for data that came
            # back on our ack instead. Park until the op completes,
            # then re-check permissions (the op may have demoted us).
            op.setdefault("waiters", []).append(
                partial(self._regrant_write, mshr))
            return
        targets = sorted(line.sharers - {req})
        if INJECT_SKIP_SHARER_INV and targets:
            targets = targets[1:]
        if targets:
            mshr.pending_acks = len(targets)
            mshr.scratch["cont"] = partial(self._finish_write, mshr, line)
            for t in targets:
                inv = Msg(MsgKind.INV_L1, line.line_addr, self.tile, Unit.L1,
                          requestor=req)
                self.ctx.send(inv, t)
            line.sharers = {req} & line.sharers
            line.dirty_l1 = None
            return
        self._finish_write(mshr, line)

    def _regrant_write(self, mshr: Mshr) -> None:
        fresh = self.array.lookup(mshr.line_addr, touch=False)
        if fresh is not None and self._can_write(fresh):
            self._grant_write(mshr, fresh)
            return
        # Back to the miss path: drop the granting flag or forwards
        # would be deferred behind our fetch (the cross-deferral
        # deadlock).
        mshr.scratch.pop("granting", None)
        mshr.scratch.setdefault("miss_cycle", self.ctx.sim.cycle)
        if fresh is not None and fresh.l2_state.readable:
            self._upgrade(mshr, fresh)
        else:
            self._fetch(mshr, exclusive=True)

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
        msg: Msg = mshr.scratch["msg"]
        grant = Msg(MsgKind.DATA_L1, msg.line_addr, self.tile, Unit.L1,
                    requestor=mshr.requestor, writable=writable,
                    home_hit=mshr.scratch.get("home_hit", False),
                    offchip=mshr.scratch.get("offchip", False),
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
        ``mshr.scratch``) and grant."""
        mshr.scratch["offchip"] = offchip
        if not offchip:
            delay = self.ctx.sim.cycle - mshr.scratch["miss_cycle"]
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
        wbv = mshr.scratch.get("wb_value")
        if wbv is not None:
            existing.shadow = merge_shadow(existing.shadow, wbv)
        existing.touch(self.ctx.timestamp.now())
        msg: Msg = mshr.scratch["msg"]
        if msg.kind is MsgKind.GETS:
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
        ev.scratch["victim"] = victim
        self.ctx.stats.counter("l2_evictions").inc()
        targets = sorted(victim.sharers)
        dirty_holder = victim.dirty_l1
        victim.sharers = set()
        victim.dirty_l1 = None
        if targets:
            ev.pending_acks = len(targets)
            ev.scratch["cont"] = partial(self._evicted, ev, cont)
            # A dirty L1 copy must hand its data back before the victim
            # is disposed — via a dirty invalidation ack, or (if the L1
            # evicted concurrently) via the crossing WB_L1. Disposing
            # early would write back stale data and strand the newest
            # value in flight.
            ev.scratch["need_dirty"] = dirty_holder is not None
            ev.scratch["dirty_holder"] = dirty_holder
            for t in targets:
                inv = Msg(MsgKind.INV_L1, victim.line_addr, self.tile,
                          Unit.L1, requestor=self.tile)
                self.ctx.send(inv, t)
        else:
            self._evicted(ev, cont)

    def _evicted(self, ev: Mshr, cont: Callable[[], None]) -> None:
        self._dispose_victim(ev.scratch["victim"])
        self._retire(ev)
        cont()

    def _retry_make_room(self, line_addr: int, cont: Callable[[], None]) -> None:
        if self.array.set_full(line_addr):
            self._make_room(line_addr, cont)
        else:
            cont()

    def _pick_victim(self, line_addr: int) -> Optional[CacheLine]:
        for cand in self.array.victim_ranking(line_addr):
            if self.mshrs.busy(cand.line_addr):
                continue
            if cand.line_addr in self._fwd_ops:
                continue
            return cand
        return None

    # ------------------------------------------------------------------
    # L1 responses
    # ------------------------------------------------------------------
    def _on_wb_l1(self, msg: Msg) -> None:
        # Feed any forward op first: a purge/recall whose dirty L1
        # evicted concurrently receives its data through this writeback.
        op = self._fwd_ops.get(msg.line_addr)
        if op is not None:
            op["dirty"] = True
            op["value"] = merge_shadow_opt(op["value"], msg.value)
        line = self.array.lookup(msg.line_addr, touch=False)
        if line is not None:
            if line.dirty_l1 == msg.src_tile:
                line.dirty_l1 = None
            line.sharers.discard(msg.src_tile)
            line.shadow = merge_shadow(line.shadow, msg.value)
            # The L1's modified data lands here; the line keeps (or
            # gains) dirty ownership at L2.
            if line.l2_state in (L2State.E, L2State.S):
                line.l2_state = (L2State.M if line.l2_state is L2State.E
                                 else L2State.O)
            mshr = self.mshrs.get(msg.line_addr)
            if mshr is not None and mshr.kind == "SERVE":
                if mshr.scratch.pop("awaiting_wb", False):
                    # A clean RECALL_RESP raced us; the grant was held
                    # for this data — continue it now.
                    mshr.scratch.pop("cont")()
                else:
                    mshr.scratch["wb_merged"] = True
        else:
            mshr = self.mshrs.get(msg.line_addr)
            victim = mshr.scratch.get("victim") if mshr is not None else None
            if victim is not None:
                # Raced our own eviction: merge into the victim so the
                # disposal writes the newest data back.
                victim.shadow = merge_shadow(victim.shadow, msg.value)
                if victim.l2_state in (L2State.E, L2State.S):
                    victim.l2_state = (L2State.M
                                       if victim.l2_state is L2State.E
                                       else L2State.O)
                if mshr.scratch.pop("awaiting_wb", False):
                    mshr.scratch.pop("cont")()
                else:
                    mshr.scratch["wb_merged"] = True
            elif mshr is not None and mshr.kind == "SERVE":
                # A refetch of a line we gave away: the fill in flight
                # is staler than this data; merge at install time, and
                # push the value off-chip so other homes converge too.
                mshr.scratch["wb_value"] = merge_shadow_opt(
                    mshr.scratch.get("wb_value"), msg.value)
                self._orphan_wb(msg)
            elif op is None:
                # True orphan: the home no longer tracks the line at
                # all. Forward the dirty data to the second level so
                # the committed value is never lost.
                self._orphan_wb(msg)
        if op is not None and op.pop("awaiting_wb", False) \
                and op["pending"] == 0:
            self._complete_fwd_op(msg.line_addr, op)

    def _on_ack_inv(self, msg: Msg) -> None:
        if msg.fwd:
            self._fwd_ack(msg)
            return
        mshr = self.mshrs.get(msg.line_addr)
        if mshr is None or mshr.pending_acks <= 0:
            raise ProtocolError(f"stray ACK_INV_L1 at {self.tile}: {msg}")
        mshr.pending_acks -= 1
        if msg.dirty:
            mshr.scratch["dirty_ack"] = True
            victim = mshr.scratch.get("victim")
            target = (victim if victim is not None
                      else self.array.lookup(msg.line_addr, touch=False))
            if target is not None:
                target.shadow = merge_shadow(target.shadow, msg.value)
            if victim is not None and victim.l2_state in (L2State.E,
                                                          L2State.S):
                victim.l2_state = (L2State.M if victim.l2_state is L2State.E
                                   else L2State.O)
        elif msg.nack and msg.src_tile == mshr.scratch.get("dirty_holder"):
            # The believed-dirty holder poisoned its in-flight grant:
            # the modified copy never existed, nothing to wait for.
            mshr.scratch["need_dirty"] = False
        if mshr.pending_acks == 0:
            if mshr.scratch.get("need_dirty") \
                    and not mshr.scratch.get("dirty_ack") \
                    and not mshr.scratch.get("wb_merged"):
                # The dirty L1 evicted concurrently: its data is in a
                # WB_L1 still in flight (an M eviction always writes
                # back). Hold the transaction until it lands.
                mshr.scratch["awaiting_wb"] = True
                return
            cont = mshr.scratch.pop("cont")
            cont()

    def _on_recall_resp(self, msg: Msg) -> None:
        if msg.fwd:
            self._fwd_ack(msg)
            return
        mshr = self.mshrs.get(msg.line_addr)
        if mshr is None:
            raise ProtocolError(f"stray RECALL_RESP at {self.tile}: {msg}")
        line = self.array.lookup(msg.line_addr, touch=False)
        if msg.dirty:
            if line is not None:
                line.shadow = merge_shadow(line.shadow, msg.value)
                if line.l2_state in (L2State.E, L2State.S):
                    line.l2_state = (L2State.M if line.l2_state is L2State.E
                                     else L2State.O)
        elif not msg.nack and not mshr.scratch.pop("wb_merged", False):
            # Clean response to a recall of a believed-dirty copy: the
            # holder evicted concurrently and its data rides a WB_L1
            # still in flight. Granting now would serve stale data;
            # _on_wb_l1 continues the transaction when it lands.
            mshr.scratch["awaiting_wb"] = True
            return
        cont = mshr.scratch.pop("cont")
        cont()

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
            op["queue"].append((cont, targets))
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
        self._fwd_ops[line_addr] = {"pending": len(targets), "dirty": False,
                                    "value": None,
                                    "need_dirty": dirty_holder is not None,
                                    "dirty_holder": dirty_holder,
                                    "cont": cont, "queue": []}
        for t in targets:
            inv = Msg(MsgKind.INV_L1, line_addr, self.tile, Unit.L1,
                      requestor=self.tile, fwd=True)
            self.ctx.send(inv, t)

    def _local_recall(self, line_addr: int,
                      cont: Callable[[bool, Optional[int]], None]) -> None:
        """Pull the latest data from a dirty local L1 (downgrade to S),
        then ``cont(dirty_seen, dirty_value)``."""
        op = self._fwd_ops.get(line_addr)
        if op is not None:
            op["queue"].append((cont, None))
            return
        line = self.array.lookup(line_addr, touch=False)
        if line is None or line.dirty_l1 is None:
            cont(False, None)
            return
        holder = line.dirty_l1
        line.dirty_l1 = None
        self._fwd_ops[line_addr] = {"pending": 1, "dirty": False,
                                    "value": None, "need_dirty": True,
                                    "dirty_holder": holder,
                                    "cont": cont, "queue": []}
        recall = Msg(MsgKind.RECALL_L1, line_addr, self.tile, Unit.L1,
                     requestor=self.tile, fwd=True)
        self.ctx.send(recall, holder)

    def _fwd_ack(self, msg: Msg) -> None:
        op = self._fwd_ops.get(msg.line_addr)
        if op is None:
            raise ProtocolError(f"stray fwd ack at {self.tile}: {msg}")
        op["pending"] -= 1
        if msg.dirty:
            op["dirty"] = True
            op["value"] = merge_shadow_opt(op["value"], msg.value)
        elif msg.nack and msg.src_tile == op.get("dirty_holder"):
            op["need_dirty"] = False  # the holder's grant was poisoned
        if op["pending"] == 0:
            if op["need_dirty"] and op["value"] is None:
                # The dirty L1 evicted concurrently; its data rides a
                # WB_L1 still in flight. Hold the op open — _on_wb_l1
                # completes it when the writeback lands.
                op["awaiting_wb"] = True
                return
            self._complete_fwd_op(msg.line_addr, op)

    def _complete_fwd_op(self, line_addr: int, op: Dict) -> None:
        del self._fwd_ops[line_addr]
        op["cont"](op["dirty"], op["value"])
        for queued_cont, queued_targets in op["queue"]:
            # Re-run with the targets captured at queue time (if any);
            # with none, re-derive — sharer sets may have changed.
            self._local_purge(line_addr, queued_cont,
                              targets=queued_targets)
        for waiter in op.get("waiters", []):
            waiter()

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
