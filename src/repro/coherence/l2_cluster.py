"""LOCO cluster home L2: token coherence over VMS broadcasts + IVR.

This is the paper's contribution (Sections 3.2-3.4). Each cluster's
home node for a line may hold a replica; inter-cluster coherence is a
token protocol (the paper evaluates Token Coherence on the unordered
virtual meshes):

* every line has ``T = num_clusters`` tokens plus one *owner token*;
  uncached tokens live at the line's memory controller;
* a reader needs data + >= 1 token; a writer must collect all T;
* on a home L2 miss, the home broadcasts TOK_GETS/TOK_GETX over the
  line's VMS (hardware XY-tree multicast on SMART) and unicasts the
  same request to the memory controller (Figure 4b: "the request is
  sent to off-chip memory as well");
* only the owner responds with data (Figure 4b step 3); on TOK_GETX
  every holder first invalidates its local L1 sharers, then surrenders
  all tokens (Figure 4c);
* requests that starve (token split races) retry with backoff and
  finally escalate to a *persistent request* serialized at the memory
  controller — the same forward-progress mechanism as Token Coherence.

IVR (Section 3.3): home victims migrate to the same-HNid home of a
random other cluster carrying a coarse timestamp and a replacement
counter; the colder line loses and moves on; at the threshold (4) the
line is written back. A full outgoing NIC queue forces a direct
writeback (deadlock avoidance). The replacement counter resets when a
demand access touches the line (a useful line earns a fresh journey).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Optional

from repro.cache.line import CacheLine, L2State
from repro.cache.mshr import ALLOCATED, COLLECTING, FILLING, GRANTING, Mshr
from repro.coherence.context import SystemContext
from repro.coherence.l2_home import HomeL2Base
from repro.coherence.messages import Msg, MsgKind, Unit
from repro.coherence.shadow import merge_shadow, merge_shadow_opt
from repro.errors import ProtocolError

#: Test-only fault injection (the fuzz harness's mutation smoke): when
#: True, grant-window protection is disabled, re-introducing the PR 1
#: race — a peer TOK_GETS/GETX served mid-grant surrenders the tokens
#: and leaves a second stale L1 M copy. The fuzzer must catch this.
INJECT_GRANT_WINDOW_BUG = False

#: cycles before the first re-broadcast of an unsatisfied token request
#: (just above a memory round trip, so normal fills never retry)
_TIMEOUT_BASE = 400
#: timeout growth factor per retry
_BACKOFF = 1.4
#: broadcasts before escalating to a persistent request
_MAX_RETRIES = 4
#: NIC backlog above which IVR falls back to a direct writeback
_IVR_BACKLOG_LIMIT = 16


@dataclass(slots=True)
class TokenFetch:
    """What one token collection has gathered (``mshr.fetch``). It is
    created by ``_fetch`` — or by a migrant that lands between MSHR
    allocation and ``_fetch`` — and dropped when ``_apply_fill`` moves
    its tokens onto the line, so a refetch always starts from zero."""

    want_x: bool = False
    tokens: int = 0
    owner: bool = False               # the owner token is among them
    dirty: bool = False
    value: Optional[int] = None       # newest shadow value seen
    data_seen: bool = False           # tokens alone are not a fill
    offchip: bool = False
    retries: int = 0                  # re-broadcasts so far
    persist_requested: bool = False   # PERSIST_START sent
    persist_granted: bool = False     # ... and granted by the MC
    timeout_ev: Any = None            # the pending re-broadcast's Event

    def merge(self, tokens: int, owner: bool, dirty: bool,
              value: Optional[int]) -> None:
        """The token merge rule: tokens add, owner and dirty OR, the
        newest value wins."""
        self.tokens += tokens
        self.owner = self.owner or owner
        self.dirty = self.dirty or dirty
        self.value = merge_shadow_opt(self.value, value)


class TokenL2Controller(HomeL2Base):
    """Cluster home slice running the token/VMS inter-cluster protocol."""

    def __init__(self, ctx: SystemContext, tile: int) -> None:
        super().__init__(ctx, tile)
        self.total_tokens = ctx.cluster_map.num_clusters
        self.my_cluster = ctx.cluster_map.cluster_of(tile)

    # ------------------------------------------------------------------
    # hooks: local write permission
    # ------------------------------------------------------------------
    def _can_write(self, line: CacheLine) -> bool:
        return line.tokens == self.total_tokens

    def _note_write(self, line: CacheLine) -> None:
        line.l2_state = L2State.M

    # ------------------------------------------------------------------
    # requestor side
    # ------------------------------------------------------------------
    def _fetch(self, mshr: Mshr, exclusive: bool,
               held_line: Optional[CacheLine] = None) -> None:
        # A record already here holds the migrants that arrived between
        # MSHR allocation and now: token+data responses for this very
        # collection.
        f = mshr.fetch
        if f is None:
            f = mshr.fetch = TokenFetch()
        f.want_x = exclusive
        if held_line is not None:
            # Upgrade: our tokens move into the MSHR so concurrent
            # remote GETX see ``line.tokens == 0`` and cannot
            # double-count them.
            f.merge(held_line.tokens, held_line.owner_token,
                    held_line.l2_state.dirty, held_line.shadow)
            f.data_seen = True
            held_line.tokens = 0
            held_line.owner_token = False
        self._maybe_complete(mshr)
        if mshr.phase == COLLECTING:
            self._broadcast(mshr)

    def _upgrade(self, mshr: Mshr, line: CacheLine) -> None:
        self._fetch(mshr, exclusive=True, held_line=line)

    def _broadcast(self, mshr: Mshr) -> None:
        f: TokenFetch = mshr.fetch
        kind = MsgKind.TOK_GETX if f.want_x else MsgKind.TOK_GETS
        msg = Msg(kind, mshr.line_addr, self.tile, Unit.L2,
                  requestor=self.tile, persistent=f.persist_granted)
        vms = self.ctx.vms_of_line(mshr.line_addr)
        if len(vms.members) > 1:
            self.ctx.multicast(msg, vms)
        mc_msg = Msg(kind, mshr.line_addr, self.tile, Unit.MC,
                     requestor=self.tile, persistent=f.persist_granted)
        self.ctx.send(mc_msg, self.ctx.mc_tile(mshr.line_addr))
        self.ctx.stats.counter("tok_broadcasts").inc()
        timeout = int(_TIMEOUT_BASE * (_BACKOFF ** f.retries))
        jitter = self.ctx.rng.randint("tok_backoff", 0, 64)
        f.timeout_ev = self.ctx.sim.schedule(
            timeout + jitter, partial(self._on_timeout, mshr))

    def _on_timeout(self, mshr: Mshr) -> None:
        if self.mshrs.get(mshr.line_addr) is not mshr:
            return  # completed
        f: TokenFetch = mshr.fetch
        f.retries += 1
        self.ctx.stats.counter("tok_retries").inc()
        if f.retries >= _MAX_RETRIES and not f.persist_requested:
            f.persist_requested = True
            self.ctx.stats.counter("tok_persistent").inc()
            start = Msg(MsgKind.PERSIST_START, mshr.line_addr, self.tile,
                        Unit.MC, requestor=self.tile)
            self.ctx.send(start, self.ctx.mc_tile(mshr.line_addr))
            return  # re-broadcast when the grant arrives
        self._broadcast(mshr)

    def _on_persist_grant(self, msg: Msg) -> None:
        mshr = self.mshrs.get(msg.line_addr)
        f: Optional[TokenFetch] = mshr.fetch if mshr is not None else None
        if f is None or not f.persist_requested or f.persist_granted:
            # The transaction that asked completed before the grant
            # arrived (whatever holds the line's MSHR now never asked):
            # release immediately.
            done = Msg(MsgKind.PERSIST_DONE, msg.line_addr, self.tile,
                       Unit.MC, requestor=self.tile)
            self.ctx.send(done, self.ctx.mc_tile(msg.line_addr))
            return
        f.persist_granted = True
        if f.timeout_ev is not None:
            f.timeout_ev.cancel()
        self._broadcast(mshr)

    def _merge_into_line(self, line: CacheLine, msg: Msg) -> None:
        """Tokens (and data) for a line we hold: conservation is the
        protocol's correctness backbone, so they are never dropped."""
        line.tokens += msg.tokens
        line.owner_token = line.owner_token or msg.owner_token
        if msg.dirty:
            line.shadow = merge_shadow(line.shadow, msg.value)
        if msg.owner_token:
            line.l2_state = self._owned_state(
                line.tokens, msg.dirty or line.l2_state.dirty)

    def _absorb_tokens(self, msg: Msg) -> None:
        """Token response with no live transaction (late response after a
        retry already completed): merge into the resident line, or
        return to memory."""
        line = self.array.lookup(msg.line_addr, touch=False)
        if line is not None and line.l2_state.readable:
            self._merge_into_line(line, msg)
            return
        self._token_writeback(msg.line_addr, msg.tokens, msg.owner_token,
                              msg.dirty, msg.value)

    def _collect(self, f: TokenFetch, msg: Msg) -> None:
        """A token response or a migrant joins the collection."""
        f.merge(msg.tokens, msg.owner_token, msg.dirty, msg.value)
        f.offchip = f.offchip or msg.offchip
        if msg.kind.carries_data:   # TOK_DATA, IVR_MIGRATE; not TOK_ACK
            f.data_seen = True

    def _on_token_response(self, msg: Msg) -> None:
        mshr = self.mshrs.get(msg.line_addr)
        if mshr is None or mshr.phase != COLLECTING:
            self._absorb_tokens(msg)
            return
        self._collect(mshr.fetch, msg)
        self._maybe_complete(mshr)

    def _maybe_complete(self, mshr: Mshr) -> None:
        f: TokenFetch = mshr.fetch
        enough = (f.tokens == self.total_tokens if f.want_x
                  else f.tokens >= 1)
        if mshr.phase != COLLECTING or not (enough and f.data_seen):
            return
        # _fill leaves COLLECTING: token handlers stop touching this MSHR
        if f.timeout_ev is not None:
            f.timeout_ev.cancel()
            f.timeout_ev = None
        if f.persist_requested:
            done = Msg(MsgKind.PERSIST_DONE, mshr.line_addr, self.tile,
                       Unit.MC, requestor=self.tile)
            self.ctx.send(done, self.ctx.mc_tile(mshr.line_addr))
        self._fill(mshr, offchip=f.offchip)

    def _apply_fill(self, mshr: Mshr, line: CacheLine) -> None:
        # the collection is final (nothing touches it once the phase
        # has left COLLECTING) and spent: its tokens live on the line now
        f: TokenFetch = mshr.fetch
        mshr.fetch = None
        line.tokens = f.tokens
        line.owner_token = f.owner
        line.shadow = merge_shadow(line.shadow, f.value)
        if f.want_x:
            line.l2_state = L2State.M
        elif line.owner_token:
            line.l2_state = self._owned_state(line.tokens, f.dirty)
        else:
            line.l2_state = L2State.S

    def _owned_state(self, tokens: int, dirty: bool) -> L2State:
        if tokens == self.total_tokens:
            return L2State.M if dirty else L2State.E
        # Owner while other token holders exist: O (owned, maybe stale
        # in memory) regardless of dirtiness — the owner carries the
        # writeback responsibility either way.
        return L2State.O

    # ------------------------------------------------------------------
    # level-2 message handling
    # ------------------------------------------------------------------
    def _peer_gets_later(self, msg: Msg) -> None:
        self.ctx.sim.call_after(self.latency, partial(self._peer_gets, msg))

    def _peer_getx_later(self, msg: Msg) -> None:
        self.ctx.sim.call_after(self.latency, partial(self._peer_getx, msg))

    # -- grant-window protection ----------------------------------------
    def _defer_if_granting(self, msg: Msg) -> bool:
        """Park a peer token request while a local SERVE transaction is
        in its fill/grant window, replaying it at retire.

        Once token collection completes (the phase leaves COLLECTING)
        the transaction is handing the line to a local L1 and only waits
        on a free way and on intra-cluster INV/RECALL acks —
        surrendering tokens *now* would
        invalidate the line out from under the grant continuation, which
        then completes on the dead line and leaves a stale L1 M copy
        (write-serialization violation). Deferral here cannot deadlock:
        the grant depends only on local L1s, which always ack promptly.
        Requests racing an MSHR still *collecting* must NOT be deferred
        — two collecting homes would park each other's requests forever;
        they are resolved by the surrender-priority rule below instead.
        """
        if INJECT_GRANT_WINDOW_BUG:
            return False
        mshr = self.mshrs.get(msg.line_addr)
        if mshr is not None and mshr.phase in (FILLING, GRANTING):
            self.mshrs.defer(msg.line_addr, msg)
            self.ctx.stats.counter("tok_grant_window_defers").inc()
            return True
        return False

    # -- peer read: only the owner responds -----------------------------
    def _peer_gets(self, msg: Msg) -> None:
        if msg.requestor == self.tile:
            return
        if self._defer_if_granting(msg):
            return
        line = self.array.lookup(msg.line_addr, touch=False)
        mshr = self.mshrs.get(msg.line_addr)
        if line is not None and line.owner_token and line.tokens >= 1:
            self._owner_serve_gets(msg, line)
            return
        if (msg.persistent and mshr is not None
                and mshr.phase == COLLECTING and mshr.fetch.tokens > 1
                and (mshr.fetch.data_seen
                     or (line is not None and line.l2_state.readable))):
            # A collector with valid data (an upgrade, or a fetch whose
            # data already arrived) can spare a plain token for a
            # starving persistent reader.
            f: TokenFetch = mshr.fetch
            v = f.value
            if v is None and line is not None and line.l2_state.readable:
                v = line.shadow
            f.tokens -= 1
            resp = Msg(MsgKind.TOK_DATA, msg.line_addr, self.tile, Unit.L2,
                       requestor=msg.requestor, tokens=1, value=v)
            self.ctx.send(resp, msg.requestor)
        # otherwise: not the owner — stay silent.

    def _owner_serve_gets(self, msg: Msg, line: CacheLine) -> None:
        if line.tokens > 1:
            line.tokens -= 1
            if line.l2_state in (L2State.M, L2State.E):
                line.l2_state = L2State.O  # now shared, we keep ownership
            # Recall the latest data from a dirty local L1 first.
            self._local_recall(msg.line_addr,
                               partial(self._share_recalled, msg, line))
        else:
            # Last token: the owner token (and our copy) leaves with it.
            self._drop_and_purge(
                msg.line_addr, line,
                partial(self._surrender, msg, 1, True, line.l2_state.dirty,
                        line.shadow))

    def _share_recalled(self, msg: Msg, line: CacheLine, recall_dirty: bool,
                        value: Optional[int]) -> None:
        line.shadow = merge_shadow(line.shadow, value)
        if recall_dirty:
            line.l2_state = L2State.O
        resp = Msg(MsgKind.TOK_DATA, msg.line_addr, self.tile, Unit.L2,
                   requestor=msg.requestor, tokens=1, value=line.shadow)
        self.ctx.send(resp, msg.requestor)

    def _surrender(self, msg: Msg, tokens: int, owner: bool, dirty: bool,
                   value: Optional[int], purge_dirty: bool,
                   purge_value: Optional[int]) -> None:
        """The local L1 copies are gone: hand ``tokens`` to the
        requesting home, with the data (``value`` not None) folded over
        what the L1 purge brought back."""
        resp = Msg(MsgKind.TOK_DATA if owner else MsgKind.TOK_ACK,
                   msg.line_addr, self.tile, Unit.L2,
                   requestor=msg.requestor, tokens=tokens,
                   owner_token=owner, dirty=dirty or purge_dirty,
                   value=(None if value is None
                          else merge_shadow(value, purge_value)))
        self.ctx.send(resp, msg.requestor)

    # -- peer write: every holder surrenders everything ------------------
    def _peer_getx(self, msg: Msg) -> None:
        if msg.requestor == self.tile:
            return
        if self._defer_if_granting(msg):
            return
        line = self.array.lookup(msg.line_addr, touch=False)
        if line is not None and line.tokens > 0:
            # (a doomed-but-resident line would silently swallow tokens
            # merged into it during the purge)
            self._drop_and_purge(
                msg.line_addr, line,
                partial(self._surrender, msg, line.tokens, line.owner_token,
                        line.l2_state.dirty, line.shadow))
            return
        mshr = self.mshrs.get(msg.line_addr)
        if (mshr is not None and mshr.phase == COLLECTING
                and mshr.fetch.tokens > 0
                and (msg.persistent or msg.requestor < self.tile)):
            # Surrender accumulated tokens to the persistent winner —
            # or, for ordinary races, to the lower-numbered home: a
            # deterministic priority that resolves token splits without
            # waiting out retry timeouts (hot-line write races would
            # otherwise convoy). Starvation of high-numbered homes is
            # still bounded by persistent-request escalation.
            f: TokenFetch = mshr.fetch
            tokens, owner, dirty = f.tokens, f.owner, f.dirty
            # only an owner's data travels with its tokens
            value = (f.value or 0) if owner else None
            f.tokens = 0
            f.owner = False
            if owner:
                f.data_seen = False
            # An *upgrading* collector's tokens came with a resident
            # readable copy (moved into the MSHR by _fetch). Handing
            # them to a remote writer hands the copy away too: the line
            # and its L1 sharers must die now, or stale S copies
            # survive the remote write and serve stale reads
            # (fuzzer-found write-serialization violation).
            if line is not None:
                dirty = dirty or line.l2_state.dirty
                if owner:
                    value = merge_shadow(value, line.shadow)
                self._drop_and_purge(
                    msg.line_addr, line,
                    partial(self._surrender, msg, tokens, owner, dirty,
                            value))
            else:
                self._surrender(msg, tokens, owner, dirty, value,
                                False, None)

    # ------------------------------------------------------------------
    # victims: IVR or token writeback
    # ------------------------------------------------------------------
    def _dispose_victim(self, victim: CacheLine) -> None:
        if victim.tokens <= 0:
            return
        if self._should_migrate(victim):
            self._send_migrate(victim, victim.migrations + 1)
        else:
            self._token_writeback(victim.line_addr, victim.tokens,
                                  victim.owner_token,
                                  victim.l2_state.dirty, victim.shadow)

    def _orphan_wb(self, msg: Msg) -> None:
        # Tokens already left with the line; only the data goes back.
        self._token_writeback(msg.line_addr, 0, False, True, msg.value)

    def _should_migrate(self, victim: CacheLine) -> bool:
        if not self.ctx.config.organization.uses_ivr:
            return False
        if self.ctx.cluster_map.num_clusters < 2:
            return False
        if victim.migrations + 1 >= self.ctx.config.ivr.replacement_threshold:
            return False
        # Deadlock avoidance (Section 3.3): never wait on a full
        # outgoing queue — write back off-chip instead.
        if self.ctx.network.nic_backlog(self.tile) > _IVR_BACKLOG_LIMIT:
            self.ctx.stats.counter("ivr_backlog_writebacks").inc()
            return False
        return True

    def _send_migrate(self, line: CacheLine, migrations: int) -> None:
        target = self._pick_ivr_target(line.line_addr)
        msg = Msg(MsgKind.IVR_MIGRATE, line.line_addr, self.tile, Unit.L2,
                  requestor=self.tile, tokens=line.tokens,
                  owner_token=line.owner_token, dirty=line.l2_state.dirty,
                  timestamp=line.timestamp, migrations=migrations,
                  value=line.shadow)
        self.ctx.stats.counter("ivr_migrations").inc()
        self.ctx.send(msg, target)

    def _pick_ivr_target(self, line_addr: int) -> int:
        cm = self.ctx.cluster_map
        hnid = cm.hnid_of_line(line_addr)
        others = [c for c in range(cm.num_clusters) if c != self.my_cluster]
        if self.ctx.config.ivr.target_policy == "round_robin":
            idx = self.ctx.stats.counter("ivr_rr_cursor")
            target = others[idx.value % len(others)]
            idx.inc()
        else:
            target = self.ctx.rng.choice("ivr", others)
        return cm.home_tile(target, hnid)

    def _token_writeback(self, line_addr: int, tokens: int, owner: bool,
                         dirty: bool, value: Optional[int] = None) -> None:
        wb = Msg(MsgKind.TOK_WB, line_addr, self.tile, Unit.MC,
                 requestor=self.tile, tokens=tokens, owner_token=owner,
                 dirty=dirty, value=value)
        self.ctx.send(wb, self.ctx.mc_tile(line_addr))

    # -- receiving a migrant ---------------------------------------------
    def _on_migrate(self, msg: Msg) -> None:
        mshr = self.mshrs.get(msg.line_addr)
        if mshr is not None and mshr.phase == COLLECTING:
            # We are fetching this very line: the migrant IS a data +
            # token response (deferring it behind our own MSHR would
            # deadlock — the MSHR is waiting for these tokens).
            self._collect(mshr.fetch, msg)
            self.ctx.stats.counter("ivr_fetch_merges").inc()
            self._maybe_complete(mshr)
            return
        line = self.array.lookup(msg.line_addr, touch=False)
        if line is not None:
            # We already hold a copy: merge tokens (conservation!).
            self._merge_into_line(line, msg)
            line.timestamp = max(line.timestamp, msg.timestamp)
            self.ctx.stats.counter("ivr_merges").inc()
            return
        if mshr is not None:
            if mshr.kind == "SERVE" and mshr.phase == ALLOCATED:
                # Pre-fetch window: the serve transaction was allocated
                # but hasn't reached _fetch yet — start its collection
                # with the migrant (deferring would deadlock).
                if mshr.fetch is None:
                    mshr.fetch = TokenFetch()
                self._collect(mshr.fetch, msg)
                return
            # EVICT in progress, or a completed collection mid-fill:
            # replay once the transaction retires.
            self.mshrs.defer(msg.line_addr, msg)
            return
        if not self.array.set_full(msg.line_addr):
            self._install_migrant(msg)
            return
        cand = self._ivr_local_victim(msg.line_addr)
        if cand is None or not msg.timestamp > cand.timestamp:
            # Deny: the migrant is older (or nothing evictable) — send it
            # onward or write it back at the threshold (Figure 5 step 4).
            self._forward_or_writeback(msg)
            return
        # Accept: evict the colder local line onward, install the migrant.
        self.array.invalidate(cand.line_addr)
        if cand.migrations + 1 >= self.ctx.config.ivr.replacement_threshold \
                or self.ctx.cluster_map.num_clusters < 2:
            self._token_writeback(cand.line_addr, cand.tokens,
                                  cand.owner_token, cand.l2_state.dirty,
                                  cand.shadow)
            self.ctx.stats.counter("ivr_threshold_writebacks").inc()
        else:
            self._send_migrate(cand, cand.migrations + 1)
        self._install_migrant(msg)

    def _ivr_local_victim(self, line_addr: int) -> Optional[CacheLine]:
        """A local line IVR may displace: not mid-transaction and with no
        L1 sharers: displacing a shared line would need an invalidation
        round nested inside the migration being installed."""
        for cand in self.array.victim_ranking(line_addr):
            if not (self.line_busy(cand.line_addr) or cand.sharers
                    or cand.dirty_l1 is not None):
                return cand
        return None

    def _forward_or_writeback(self, msg: Msg) -> None:
        migrations = msg.migrations + 1
        if migrations >= self.ctx.config.ivr.replacement_threshold or \
                self.ctx.network.nic_backlog(self.tile) > _IVR_BACKLOG_LIMIT:
            self._token_writeback(msg.line_addr, msg.tokens,
                                  msg.owner_token, msg.dirty, msg.value)
            self.ctx.stats.counter("ivr_threshold_writebacks").inc()
            return
        target = self._pick_ivr_target(msg.line_addr)
        onward = Msg(MsgKind.IVR_MIGRATE, msg.line_addr, self.tile, Unit.L2,
                     requestor=msg.requestor, tokens=msg.tokens,
                     owner_token=msg.owner_token, dirty=msg.dirty,
                     timestamp=msg.timestamp, migrations=migrations,
                     value=msg.value)
        self.ctx.stats.counter("ivr_forwards").inc()
        self.ctx.send(onward, target)

    def _install_migrant(self, msg: Msg) -> None:
        line, evicted = self.array.allocate(msg.line_addr)
        if evicted is not None:
            raise ProtocolError("migrant install evicted unexpectedly")
        line.tokens = msg.tokens
        line.owner_token = msg.owner_token
        line.timestamp = msg.timestamp
        line.migrations = msg.migrations
        if msg.value is not None:
            line.shadow = msg.value
        if msg.owner_token:
            line.l2_state = self._owned_state(line.tokens, msg.dirty)
        else:
            line.l2_state = L2State.S
        self.ctx.stats.counter("ivr_installs").inc()

    # ------------------------------------------------------------------
    # demand touches reset the migration counter
    # ------------------------------------------------------------------
    def _finish_read(self, mshr: Mshr, line: CacheLine) -> None:
        line.migrations = 0
        super()._finish_read(mshr, line)

    def _finish_write(self, mshr: Mshr, line: CacheLine) -> None:
        line.migrations = 0
        super()._finish_write(mshr, line)

    _level2_routes = ((MsgKind.TOK_DATA, _on_token_response),
                      (MsgKind.TOK_ACK, _on_token_response),
                      (MsgKind.TOK_GETS, _peer_gets_later),
                      (MsgKind.TOK_GETX, _peer_getx_later),
                      (MsgKind.PERSIST_GRANT, _on_persist_grant),
                      (MsgKind.IVR_MIGRATE, _on_migrate))
