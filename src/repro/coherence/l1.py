"""L1 cache controller — MSI, one per tile (paper Table 1).

The L1 talks only to its home L2 (strictly hierarchical: "L1 cache is
allowed to communicate only with L2 caches"). Which tile hosts the home
L2 depends on the organization and is resolved by the context:

* private — the local tile;
* shared — ``line_addr % num_tiles`` anywhere on chip;
* LOCO — the ``HNid`` home inside the local cluster.

State machine (stable states I/S/M; transient states live in MSHRs):

* read hit (S/M) — done after the 1-cycle L1 latency;
* write hit (M) — done after 1 cycle;
* read miss (I) — GETS to home, install S on DATA_L1;
* write miss/upgrade (I/S) — GETX to home, install M on DATA_L1;
* INV_L1 from home — invalidate, ack (carrying data if we were M);
* RECALL_L1 from home — supply data, downgrade M -> S;
* eviction of an M victim — WB_L1 to the victim's home.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Tuple

from repro.cache.array import CacheArray
from repro.cache.line import CacheLine, L1State
from repro.cache.mshr import MshrFile
from repro.coherence.context import SystemContext
from repro.coherence.messages import Msg, MsgKind, Unit, dispatch_table
from repro.errors import ProtocolError

DoneCb = Callable[[], None]


class L1Controller:
    """The private L1 data cache of one tile."""

    def __init__(self, ctx: SystemContext, tile: int) -> None:
        self.ctx = ctx
        self.tile = tile
        self.array = CacheArray(ctx.config.l1)
        self.mshrs = MshrFile(capacity=8)
        self.latency = ctx.config.l1.access_latency
        #: consecutive poisoned fills per line, for reissue backoff
        self._poison_streak: dict = {}
        ctx.register(tile, Unit.L1, self.handle)
        # Bound once: these fire on every memory reference / fill.
        st = ctx.stats
        self._c_l1_hits = st.counter("l1_hits")
        self._c_l1_misses = st.counter("l1_misses")
        self._s_l2_hit_latency = st.sampler("l2_hit_latency")
        self._s_onchip_latency = st.sampler("l2_access_latency_onchip")
        self._s_miss_latency = st.sampler("miss_latency")

    # ------------------------------------------------------------------
    # core-facing API
    # ------------------------------------------------------------------
    def access(self, line_addr: int, is_write: bool, done: DoneCb,
               speculative: bool = False) -> None:
        """Issue one memory reference; ``done`` fires when it completes.

        ``speculative`` accesses are wrong-path loads: they move real
        protocol traffic (perturbing cache/LRU/MSHR state and timing)
        but are architecturally invisible — the oracle tags them as
        transient instead of value-checking them, they are counted
        under ``spec_l1_*`` instead of the committed hit/miss counters,
        and under structural pressure (MSHR file full) they drop
        rather than stall the core."""
        if self.ctx.shadow is not None:
            done = (self.ctx.shadow.bind_transient(self, line_addr, done)
                    if speculative else
                    self.ctx.shadow.bind(self, line_addr, is_write, done))
        self.ctx.sim.call_after(self.latency,
                                partial(self._access_body, line_addr,
                                        is_write, done, speculative))

    def _access_body(self, line_addr: int, is_write: bool, done: DoneCb,
                     spec: bool = False) -> None:
        mshr = self.mshrs.get(line_addr)
        if mshr is not None:
            # A transaction is in flight for this line: queue behind it.
            mshr.deferred.append((line_addr, is_write, done, spec))
            return
        line = self.array.lookup(line_addr)
        if line is not None and self._hit(line, is_write):
            if spec:
                self.ctx.stats.counter("spec_l1_hits").inc()
            else:
                self._c_l1_hits.value += 1
            done()
            return
        if spec:
            if len(self.mshrs._entries) >= self.mshrs.capacity - 1:
                # A real front-end would stall speculation on a
                # structural hazard; dropping keeps the committed
                # stream unstalled — the last MSHR slot is reserved for
                # it (each core has at most one committed access in
                # flight, so one slot is always enough).
                self.ctx.stats.counter("spec_dropped").inc()
                done()
                return
            self.ctx.stats.counter("spec_l1_misses").inc()
        else:
            self._c_l1_misses.value += 1
        kind = "GETX" if is_write else "GETS"
        mshr = self.mshrs.allocate(line_addr, kind, requestor=self.tile,
                                   issued_cycle=self.ctx.sim.cycle)
        mshr.callbacks = [done]
        mshr.spec = spec
        req_kind = MsgKind.GETX if is_write else MsgKind.GETS
        home = self.ctx.home_tile(self.tile, line_addr)
        msg = Msg(req_kind, line_addr, self.tile, Unit.L2,
                  requestor=self.tile)
        self.ctx.send(msg, home)

    @staticmethod
    def _hit(line: CacheLine, is_write: bool) -> bool:
        if is_write:
            return line.l1_state.writable
        return line.l1_state.readable

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def handle(self, msg: Msg) -> None:
        fn = self._dispatch[msg.kind.idx]
        if fn is None:
            raise ProtocolError(f"L1 at tile {self.tile} got {msg}")
        fn(self, msg)

    def _on_data(self, msg: Msg) -> None:
        line_addr = msg.line_addr
        mshr = self.mshrs.get(line_addr)
        if mshr is None:
            raise ProtocolError(f"unsolicited DATA_L1 for {line_addr:#x} "
                                f"at tile {self.tile}")
        if mshr.poisoned:
            # An INV/RECALL was processed while this fill was in
            # flight: the copy it installs was invalidated before it
            # arrived (the invalidator's transaction has already
            # completed on that assumption). Installing it would leave
            # a stale, unbacked copy — discard the fill and reissue the
            # waiting accesses so they observe post-invalidation data.
            # Reissue under randomized exponential backoff: symmetric
            # hot-line writers would otherwise poison each other's
            # fills in a deterministic limit cycle (livelock).
            self.ctx.stats.counter("l1_poisoned_fills").inc()
            was_write = mshr.kind == "GETX"
            was_spec = mshr.spec
            cbs: List[DoneCb] = mshr.callbacks
            deferred = self.mshrs.retire(line_addr)
            streak = min(self._poison_streak.get(line_addr, 0) + 1, 8)
            self._poison_streak[line_addr] = streak
            delay = self.ctx.rng.randint("l1_poison_backoff",
                                         1, 16 * (1 << streak))
            self.ctx.sim.call_after(
                delay, partial(self._reissue, line_addr, was_write,
                               was_spec, cbs, deferred))
            return
        self._poison_streak.pop(line_addr, None)
        line = self.array.lookup(line_addr, touch=True)
        if line is None:
            line = self._install(line_addr)
        line.l1_state = L1State.M if msg.writable else L1State.S
        if msg.value is not None:
            line.shadow = msg.value  # the home's data, as delivered
        # latency accounting (Fig 7): issue-to-grant for on-chip fills.
        # Speculative transactions stay out of the samplers — squashed
        # traffic must not contaminate committed latency metrics.
        if not mshr.spec:
            elapsed = self.ctx.sim.cycle - mshr.issued_cycle
            if msg.home_hit:
                self._s_l2_hit_latency.add(elapsed)
            if not msg.offchip:
                self._s_onchip_latency.add(elapsed)
            self._s_miss_latency.add(elapsed)
        cbs: List[DoneCb] = mshr.callbacks
        deferred = self.mshrs.retire(line_addr)
        for cb in cbs:
            cb()
        for args in deferred:
            self._access_body(*args)

    def _reissue(self, line_addr: int, was_write: bool, was_spec: bool,
                 cbs: List[DoneCb], deferred: List[Tuple]) -> None:
        for cb in cbs:
            self._access_body(line_addr, was_write, cb, was_spec)
        for args in deferred:
            self._access_body(*args)

    def _install(self, line_addr: int) -> CacheLine:
        """Allocate space for a fill, evicting an L1 victim if needed."""
        if self.array.set_full(line_addr):
            victim = self._pick_victim(line_addr)
            self.array.invalidate(victim.line_addr)
            if victim.l1_state is L1State.M:
                home = self.ctx.home_tile(self.tile, victim.line_addr)
                wb = Msg(MsgKind.WB_L1, victim.line_addr, self.tile, Unit.L2,
                         requestor=self.tile, dirty=True,
                         value=victim.shadow)
                self.ctx.send(wb, home)
            # S victims evict silently: the home's sharer list goes
            # stale, which is safe because every INV_L1 is acked even
            # when the line is absent.
        new_line, evicted = self.array.allocate(line_addr)
        if evicted is not None:
            raise ProtocolError("allocate evicted after explicit make-room")
        return new_line

    def _pick_victim(self, line_addr: int) -> CacheLine:
        for cand in self.array.victim_ranking(line_addr):
            if not self.mshrs.busy(cand.line_addr):
                return cand
        raise ProtocolError(
            f"L1 tile {self.tile}: all ways of set for {line_addr:#x} "
            f"have in-flight transactions")

    def _no_data_coming(self, line_addr: int) -> bool:
        """True when a writable grant the home may still believe in was
        (or will be) discarded: a fill is pending (it gets poisoned) or
        the last fill attempt was already discarded (live poison
        streak, reissue still backing off). Either way no modified data
        will ever arrive from this L1 for the line."""
        mshr = self.mshrs.get(line_addr)
        if mshr is not None:
            mshr.poisoned = True
            return True
        return line_addr in self._poison_streak

    def _on_inv(self, msg: Msg) -> None:
        line = self.array.invalidate(msg.line_addr)
        dirty = line is not None and line.l1_state is L1State.M
        nack = not dirty and self._no_data_coming(msg.line_addr)
        ack = Msg(MsgKind.ACK_INV_L1, msg.line_addr, self.tile, Unit.L2,
                  requestor=msg.requestor, dirty=dirty, fwd=msg.fwd,
                  nack=nack, value=line.shadow if dirty else None)
        self.ctx.send(ack, msg.src_tile)

    def _on_recall(self, msg: Msg) -> None:
        line = self.array.lookup(msg.line_addr, touch=False)
        dirty = False
        nack = False
        if line is not None and line.l1_state is L1State.M:
            dirty = True
            line.l1_state = L1State.S  # downgrade, keep a readable copy
        else:
            # The recalled M grant is still in flight (it gets poisoned
            # and reissued) or was already discarded: tell the home the
            # modified data it expects never existed. Otherwise the
            # line is absent/clean and a WB_L1 already carried (or no
            # one ever had) the dirty data.
            nack = self._no_data_coming(msg.line_addr)
        resp = Msg(MsgKind.RECALL_RESP, msg.line_addr, self.tile, Unit.L2,
                   requestor=msg.requestor, dirty=dirty, fwd=msg.fwd,
                   nack=nack, value=line.shadow if dirty else None)
        self.ctx.send(resp, msg.src_tile)

    _dispatch = dispatch_table(None, ((MsgKind.DATA_L1, _on_data),
                                      (MsgKind.INV_L1, _on_inv),
                                      (MsgKind.RECALL_L1, _on_recall)))

    # ------------------------------------------------------------------
    def resident_state(self, line_addr: int) -> L1State:
        line = self.array.lookup(line_addr, touch=False)
        return line.l1_state if line is not None else L1State.I
