"""Memory controllers (Table 1: 4 controllers, one per edge, 200-cycle
access latency; directory access costs 10 cycles).

One class plays three roles, selected by the messages it receives:

* plain memory (shared baseline): MEM_READ -> MEM_DATA, MEM_WB sink;
* chip-wide directory (private baseline, LOCO CC): DIR_GETS/DIR_GETX
  are serialized through ``directory_latency``, then forwarded to the
  owner, fanned out as invalidations, or served from memory;
* token home (LOCO VMS): holds the tokens of uncached lines, answers
  TOK_GETS/TOK_GETX when it is the owner / has spare tokens, absorbs
  TOK_WB, and arbitrates persistent requests (one grant per line at a
  time, FIFO).

Off-chip traffic accounting for Figure 10 happens here: every memory
data fetch bumps ``offchip_fetches``; every dirty writeback bumps
``offchip_writebacks``.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Deque, Dict, Optional, Tuple

from repro.coherence.context import SystemContext
from repro.coherence.directory import Directory
from repro.coherence.messages import Msg, MsgKind, Unit, dispatch_table
from repro.errors import ProtocolError


class MemoryController:
    """One of the edge memory controllers."""

    def __init__(self, ctx: SystemContext, tile: int) -> None:
        self.ctx = ctx
        self.tile = tile
        self.mem_latency = ctx.config.memory.access_latency
        self.dir_latency = ctx.config.memory.directory_latency
        self.directory = Directory(f"mc{tile}")
        # shadow-value image of off-chip memory: line -> version of the
        # last store written back (absent = initial image, version 0).
        # Merges take the per-address max so two crossing writebacks of
        # one line cannot regress the stored value.
        self._values: Dict[int, int] = {}
        # token bookkeeping: line -> (tokens held by memory, mem is owner)
        self._tokens: Dict[int, int] = {}
        self._owner: Dict[int, bool] = {}
        self._total_tokens = ctx.cluster_map.num_clusters
        # persistent-request arbiter: line -> queue of requestor tiles
        self._persist: Dict[int, Deque[int]] = {}
        # off-chip traffic counters, bound by the first fetch /
        # writeback: a counter that exists is part of the result, so
        # they are not created before something counts
        self._c_fetches = None
        self._c_writebacks = None
        ctx.register(tile, Unit.MC, self.handle)

    # ------------------------------------------------------------------
    def handle(self, msg: Msg) -> None:
        fn = self._dispatch[msg.kind.idx]
        if fn is None:
            raise ProtocolError(f"MC at tile {self.tile} got {msg}")
        fn(self, msg)

    def _dir_request_later(self, msg: Msg) -> None:
        self.ctx.sim.call_after(self.dir_latency,
                                partial(self._dir_request, msg))

    def _dir_writeback_later(self, msg: Msg) -> None:
        self.ctx.sim.call_after(self.dir_latency,
                                partial(self._dir_writeback, msg))

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    def _count_fetch(self) -> None:
        c = self._c_fetches
        if c is None:
            c = self._c_fetches = self.ctx.stats.counter("offchip_fetches")
        c.value += 1

    def _count_writeback(self, msg: Msg) -> None:
        if msg.dirty:
            c = self._c_writebacks
            if c is None:
                c = self._c_writebacks = \
                    self.ctx.stats.counter("offchip_writebacks")
            c.value += 1
            self._merge_value(msg)

    def _merge_value(self, msg: Msg) -> None:
        if msg.value is not None:
            cur = self._values.get(msg.line_addr, 0)
            if msg.value > cur:
                self._values[msg.line_addr] = msg.value

    def mem_value(self, line_addr: int) -> int:
        """Shadow value of the off-chip copy of a line."""
        return self._values.get(line_addr, 0)

    # ------------------------------------------------------------------
    # plain memory (shared baseline)
    # ------------------------------------------------------------------
    def _mem_read(self, msg: Msg) -> None:
        self._fetch_for(msg, MsgKind.MEM_DATA)

    def _fetch_for(self, msg: Msg, kind: MsgKind, tokens: int = 0,
                   owner_token: bool = False,
                   exclusive: bool = False) -> None:
        """One off-chip fetch: answer ``msg`` with the line's data,
        ``mem_latency`` cycles from now."""
        self._count_fetch()
        self.ctx.sim.call_after(
            self.mem_latency,
            partial(self._respond, msg, kind, tokens, owner_token, exclusive))

    def _respond(self, msg: Msg, kind: MsgKind, tokens: int,
                 owner_token: bool, exclusive: bool) -> None:
        resp = Msg(kind, msg.line_addr, self.tile, Unit.L2,
                   requestor=msg.requestor, tokens=tokens,
                   owner_token=owner_token, exclusive=exclusive,
                   offchip=True, value=self.mem_value(msg.line_addr))
        self.ctx.send(resp, msg.requestor)

    # ------------------------------------------------------------------
    # directory flavour (private / LOCO CC)
    # ------------------------------------------------------------------
    def _dir_request(self, msg: Msg) -> None:
        """Dispatch (or queue) a directory transaction.

        The entry is busy from dispatch until the requestor's DIR_DONE;
        other requestors queue. A retry from the current grantee (after
        a forward NACKed against a racing eviction) re-dispatches using
        the by-then-updated stable state. Owner/sharer state commits
        only at DIR_DONE.
        """
        entry = self.directory.entry(msg.line_addr)
        if entry.busy and msg.requestor != entry.grantee:
            entry.queue.append(msg)
            self.ctx.stats.counter("dir_queued").inc()
            return
        entry.busy = True
        entry.grantee = msg.requestor
        self._dir_dispatch(entry, msg)

    def _dir_dispatch(self, entry, msg: Msg) -> None:
        requestor = msg.requestor
        exclusive = msg.kind is MsgKind.DIR_GETX
        owner = entry.owner
        if not exclusive:
            self._send_header(msg, ack_count=0)
            if owner is not None and owner != requestor:
                fwd = Msg(MsgKind.DIR_FWD_GETS, msg.line_addr, self.tile,
                          Unit.L2, requestor=requestor)
                self.ctx.send(fwd, owner)
            elif owner == requestor:
                # Re-read by the owner (e.g. after losing only its L1
                # copies): confirm from its own data.
                resp = Msg(MsgKind.DATA_L2, msg.line_addr, self.tile,
                           Unit.L2, requestor=requestor)
                self.ctx.send(resp, requestor)
            else:
                # No on-chip owner: memory supplies the data. E is legal
                # only when nobody else holds the line.
                can_e = not entry.sharers and owner is None
                self._fetch_for(msg, MsgKind.DATA_L2, exclusive=can_e)
        else:
            invalidatees = sorted(entry.sharers - {requestor})
            self._send_header(msg, ack_count=len(invalidatees))
            for t in invalidatees:
                inv = Msg(MsgKind.DIR_INV, msg.line_addr, self.tile,
                          Unit.L2, requestor=requestor)
                self.ctx.send(inv, t)
            if owner is not None and owner != requestor:
                fwd = Msg(MsgKind.DIR_FWD_GETX, msg.line_addr, self.tile,
                          Unit.L2, requestor=requestor)
                self.ctx.send(fwd, owner)
            elif owner == requestor or requestor in entry.sharers:
                # Upgrade by a current holder: it already has the data,
                # so the directory grants permissions without a memory
                # fetch (a plain confirmation response).
                resp = Msg(MsgKind.DATA_L2, msg.line_addr, self.tile,
                           Unit.L2, requestor=requestor)
                self.ctx.send(resp, requestor)
            else:
                self._fetch_for(msg, MsgKind.DATA_L2)

    def _dir_done(self, msg: Msg) -> None:
        """The grantee's fill completed: commit state, unblock the line."""
        entry = self.directory.entry(msg.line_addr)
        if not entry.busy or entry.grantee != msg.requestor:
            return  # stale DONE (e.g. duplicate) — ignore
        if msg.writable:          # GETX: new sole owner
            entry.owner = msg.requestor
            entry.sharers = set()
        elif msg.exclusive:       # GETS granted E
            entry.owner = msg.requestor
        else:                     # plain GETS
            entry.sharers.add(msg.requestor)
        entry.busy = False
        entry.grantee = None
        if entry.queue:
            nxt = entry.queue.pop(0)
            entry.busy = True
            entry.grantee = nxt.requestor
            self.ctx.sim.call_after(self.dir_latency,
                                    partial(self._dir_dispatch, entry, nxt))
        else:
            self.directory.drop_if_empty(msg.line_addr)

    def _send_header(self, msg: Msg, ack_count: int) -> None:
        header = Msg(MsgKind.DIR_ACK, msg.line_addr, self.tile, Unit.L2,
                     requestor=msg.requestor, ack_count=ack_count)
        self.ctx.send(header, msg.requestor)

    def _dir_writeback(self, msg: Msg) -> None:
        entry = self.directory.peek(msg.line_addr)
        if entry is not None and entry.owner == msg.src_tile:
            entry.owner = None
            entry.sharers.discard(msg.src_tile)
            self.directory.drop_if_empty(msg.line_addr)
        self._count_writeback(msg)

    # ------------------------------------------------------------------
    # token flavour (LOCO VMS)
    # ------------------------------------------------------------------
    def _mem_tokens(self, line_addr: int) -> Tuple[int, bool]:
        return (self._tokens.get(line_addr, self._total_tokens),
                self._owner.get(line_addr, True))

    def _set_mem_tokens(self, line_addr: int, tokens: int,
                        owner: bool) -> None:
        self._tokens[line_addr] = tokens
        self._owner[line_addr] = owner

    def _token_request(self, msg: Msg) -> None:
        tokens, owner = self._mem_tokens(msg.line_addr)
        exclusive = msg.kind is MsgKind.TOK_GETX
        if not exclusive:
            if not owner:
                return  # an on-chip owner will respond with the data
            # Memory is the owner: send the data with all spare tokens
            # (all T when uncached -> the requestor installs E).
            self._set_mem_tokens(msg.line_addr, 0, False)
            self._fetch_for(msg, MsgKind.TOK_DATA, tokens, owner_token=True)
            return
        # GETX: surrender whatever memory holds.
        if tokens == 0 and not owner:
            return
        self._set_mem_tokens(msg.line_addr, 0, False)
        if owner:
            self._fetch_for(msg, MsgKind.TOK_DATA, tokens, owner_token=True)
        else:
            resp = Msg(MsgKind.TOK_ACK, msg.line_addr, self.tile, Unit.L2,
                       requestor=msg.requestor, tokens=tokens)
            self.ctx.send(resp, msg.requestor)

    def _token_writeback(self, msg: Msg) -> None:
        tokens, owner = self._mem_tokens(msg.line_addr)
        new_tokens = tokens + msg.tokens
        if new_tokens > self._total_tokens:
            raise ProtocolError(
                f"token overflow for line {msg.line_addr:#x}: "
                f"{new_tokens} > {self._total_tokens}")
        self._set_mem_tokens(msg.line_addr, new_tokens,
                             owner or msg.owner_token)
        self._count_writeback(msg)

    # ------------------------------------------------------------------
    # persistent-request arbiter
    # ------------------------------------------------------------------
    def _persist_start(self, msg: Msg) -> None:
        q = self._persist.setdefault(msg.line_addr, deque())
        q.append(msg.requestor)
        if len(q) == 1:
            self._grant(msg.line_addr)

    def _grant(self, line_addr: int) -> None:
        q = self._persist.get(line_addr)
        if not q:
            return
        grant = Msg(MsgKind.PERSIST_GRANT, line_addr, self.tile, Unit.L2,
                    requestor=q[0])
        self.ctx.send(grant, q[0])

    def _persist_done(self, msg: Msg) -> None:
        q = self._persist.get(msg.line_addr)
        if not q or q[0] != msg.requestor:
            return  # duplicate / late DONE: ignore
        q.popleft()
        if q:
            self._grant(msg.line_addr)
        else:
            del self._persist[msg.line_addr]

    _dispatch = dispatch_table(None, (
        (MsgKind.MEM_READ, _mem_read),
        (MsgKind.MEM_WB, _count_writeback),
        (MsgKind.DIR_GETS, _dir_request_later),
        (MsgKind.DIR_GETX, _dir_request_later),
        (MsgKind.DIR_DONE, _dir_done),
        (MsgKind.DIR_WB, _dir_writeback_later),
        (MsgKind.TOK_GETS, _token_request),
        (MsgKind.TOK_GETX, _token_request),
        (MsgKind.TOK_WB, _token_writeback),
        (MsgKind.PERSIST_START, _persist_start),
        (MsgKind.PERSIST_DONE, _persist_done)))

    # ------------------------------------------------------------------
    # introspection for tests
    # ------------------------------------------------------------------
    def token_state(self, line_addr: int) -> Tuple[int, bool]:
        """(tokens, owner) held by memory for a line."""
        return self._mem_tokens(line_addr)
