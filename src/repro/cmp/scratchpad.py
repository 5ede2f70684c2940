"""Per-tile software-managed scratchpad (reconfigurable hierarchy).

Each tile of a :class:`~repro.params.HierarchyConfig`-partitioned
machine carves ``scratchpad_fraction`` of its L2 SRAM into a
:class:`ScratchpadUnit`: a flat, tag-less, *non-coherent* slot array
addressed by software. The global scratchpad address space is

    addr = tile * SPM_STRIDE + slot

so a trace event's address names both the owning tile and the slot.
Local accesses cost ``spm_latency`` cycles (SRAM without tag match or
coherence). Remote accesses are crossbar-style point-to-point
exchanges with the owning tile's unit, riding the existing NoC as
``SPM_READ``/``SPM_WRITE`` requests and ``SPM_DATA``/``SPM_ACK``
responses — they share (and contend for) fabric bandwidth with the
coherence traffic, which is exactly the interaction the dataflow
scenarios measure.

The unit is ordinary snapshot state: slot contents and pending
callbacks pickle with the rest of the machine (bound-method handlers
only — see the snapshot picklability invariant in ROADMAP.md).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Tuple

from repro.coherence.context import SystemContext
from repro.coherence.messages import Msg, MsgKind, Unit
from repro.errors import ProtocolError
from repro.traces.events import SPM_STRIDE, spm_addr  # noqa: F401 — the
#   address convention is shared with the trace generators

DoneCb = Callable[[], None]


class ScratchpadUnit:
    """One tile's software-managed scratchpad bank."""

    def __init__(self, ctx: SystemContext, tile: int,
                 capacity_lines: int, latency: int) -> None:
        self.ctx = ctx
        self.tile = tile
        #: slots this bank holds; addresses wrap modulo capacity so the
        #: same trace runs on any partition size (smaller banks just
        #: alias more)
        self.capacity = max(1, capacity_lines)
        self.latency = latency
        #: sparse slot contents (shadow values, snapshot state)
        self.data: Dict[int, int] = {}
        self._writes_applied = 0
        #: blocking remote ops in flight, keyed by global address (the
        #: core blocks on SPM_LOAD/SPM_STORE, so at most one lives here)
        self._pending: Dict[int, DoneCb] = {}
        ctx.register(tile, Unit.SPM, self.handle)
        st = ctx.stats
        self._c_local = st.counter("spm_local_accesses")
        self._c_remote_reads = st.counter("spm_remote_reads")
        self._c_remote_writes = st.counter("spm_remote_writes")
        self._c_pushes = st.counter("spm_pushes")

    # ------------------------------------------------------------------
    # core-facing API
    # ------------------------------------------------------------------
    def owner_of(self, addr: int) -> int:
        return (addr // SPM_STRIDE) % self.ctx.mesh.num_tiles

    def _slot(self, addr: int) -> int:
        return (addr % SPM_STRIDE) % self.capacity

    def load(self, addr: int, done: DoneCb) -> None:
        """Blocking scratchpad read; ``done`` fires on completion."""
        owner = self.owner_of(addr)
        if owner == self.tile:
            self._c_local.value += 1
            self.ctx.sim.call_after(self.latency, done)
            return
        self._c_remote_reads.value += 1
        self._await(addr, done)
        self.ctx.send(Msg(MsgKind.SPM_READ, addr, self.tile, Unit.SPM,
                          requestor=self.tile), owner)

    def store(self, addr: int, done: DoneCb) -> None:
        """Blocking scratchpad write; ``done`` fires on the ack."""
        owner = self.owner_of(addr)
        if owner == self.tile:
            self._c_local.value += 1
            self._apply_write(addr)
            self.ctx.sim.call_after(self.latency, done)
            return
        self._c_remote_writes.value += 1
        self._await(addr, done)
        self.ctx.send(Msg(MsgKind.SPM_WRITE, addr, self.tile, Unit.SPM,
                          requestor=self.tile), owner)

    def push(self, addr: int) -> None:
        """Fire-and-forget remote write (the systolic forward op): the
        payload rides the NoC, the owner applies it, no ack comes back.
        A push to the local bank is just a local write."""
        self._c_pushes.value += 1
        owner = self.owner_of(addr)
        if owner == self.tile:
            self._apply_write(addr)
            return
        # requestor=-1 marks "no ack wanted" to the owning unit
        self.ctx.send(Msg(MsgKind.SPM_WRITE, addr, self.tile, Unit.SPM,
                          requestor=-1), owner)

    def _await(self, addr: int, done: DoneCb) -> None:
        if addr in self._pending:
            raise ProtocolError(
                f"SPM tile {self.tile}: blocking op already in flight "
                f"for {addr:#x}")
        self._pending[addr] = done

    def _apply_write(self, addr: int) -> None:
        self._writes_applied += 1
        self.data[self._slot(addr)] = self._writes_applied

    # ------------------------------------------------------------------
    # message handling
    # ------------------------------------------------------------------
    def handle(self, msg: Msg) -> None:
        kind = msg.kind
        if kind is MsgKind.SPM_READ:
            self.ctx.sim.call_after(self.latency,
                                    partial(self._reply_read, msg))
        elif kind is MsgKind.SPM_WRITE:
            self.ctx.sim.call_after(self.latency,
                                    partial(self._apply_remote, msg))
        elif kind is MsgKind.SPM_DATA or kind is MsgKind.SPM_ACK:
            done = self._pending.pop(msg.line_addr, None)
            if done is None:
                raise ProtocolError(
                    f"SPM tile {self.tile}: unsolicited {msg}")
            done()
        else:
            raise ProtocolError(f"SPM at tile {self.tile} got {msg}")

    def _reply_read(self, msg: Msg) -> None:
        value = self.data.get(self._slot(msg.line_addr))
        self.ctx.send(Msg(MsgKind.SPM_DATA, msg.line_addr, self.tile,
                          Unit.SPM, requestor=msg.requestor, value=value),
                      msg.src_tile)

    def _apply_remote(self, msg: Msg) -> None:
        self._apply_write(msg.line_addr)
        if msg.requestor >= 0:
            self.ctx.send(Msg(MsgKind.SPM_ACK, msg.line_addr, self.tile,
                              Unit.SPM, requestor=msg.requestor),
                          msg.src_tile)
