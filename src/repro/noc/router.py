"""Shared cycle-level network engine.

All three fabrics (SMART, conventional, flattened butterfly) share this
engine; they differ only in how far a buffered flit may move per
traversal, how long it waits between traversals (router pipeline + SSR),
which physical links a traversal claims, and whether a flit may be
*prematurely stopped* partway through its planned traversal.

Modelling decisions:

* Head-flit granularity: a traversal claims its links for
  ``size_flits`` cycles so body flits consume link bandwidth. The
  receiver callback fires at head-flit arrival + 1 NIC cycle — the
  serialization tail is modelled only as those link reservations, not
  as extra delivery latency.
* Arbitration is distance-priority, as in SMART SSR arbitration: the
  engine claims links position-by-position, so a flit whose very next
  link this is (a "local" flit) always beats a flit trying to bypass
  through. Ties break by flit age, preventing starvation.
* Buffer space is enforced at the router where a flit stops; bypassed
  routers hold nothing. Injection queues (NICs) are unbounded, but
  flits only enter a router when its buffers have room.

Host-side layout: a ``Packet`` is its own head flit — the routers move
the object the sender injected, and ``flit`` below names a packet in
that role; it stops for good at ``flit.dst`` (the destination of a
unicast, the next home router of a VMS tree copy, which ejects there
and forks). Route plans are interned once per ``(at, dst)`` into a flat
table of ``(link_ids, routers, hops)`` tuples, link reservations live
in a flat list indexed by link id, and an arbitration claim is the
stamp ``link_busy[id] = cycle`` — see ``BaseNetwork.__init__``.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from operator import attrgetter
from typing import (Callable, Deque, Dict, List, Optional, Sequence, Set,
                    Tuple)

from repro.errors import NetworkError
from repro.noc.packet import Packet
from repro.noc.topology import Mesh
from repro.params import NocConfig
from repro.sim.kernel import Simulator
from repro.sim.stats import Stats

Link = Tuple[int, int]  # directed (src_tile, dst_tile)
#: an interned route plan: per hop the link id claimed and the router
#: reached, and the hop count
Plan = Tuple[Tuple[int, ...], Tuple[int, ...], int]


#: C-level sort key for the age-priority arbitration sort
_order_of = attrgetter("order")


class BaseNetwork:
    """Common buffered-mesh machinery; subclasses set traversal policy.

    Subclass knobs:

    * ``wait_cycles`` — cycles between arriving at a router and being
      able to traverse again (2 = 1-cycle router + 1-cycle link, or
      SSR + ST-LT for SMART; 5 for the 4-stage high-radix router).
    * ``max_hops_per_move`` — mesh hops coverable per traversal.
    * ``allow_partial`` — premature stops (SMART yes, others no).

    Which physical links a traversal claims is the planner's business
    (``_compute_plan``): a chain of unit mesh links by default, one
    dedicated express channel on the flattened butterfly.
    """

    wait_cycles = 2
    max_hops_per_move = 1
    allow_partial = False
    #: cycles between NIC injection and first traversal (the first
    #: router stage overlaps injection on shallow-pipeline routers)
    injection_delay = 1

    def __init__(self, sim: Simulator, mesh: Mesh, config: NocConfig,
                 stats: Optional[Stats] = None, name: str = "noc") -> None:
        self.sim = sim
        self.mesh = mesh
        self.config = config
        self.stats = stats if stats is not None else Stats()
        self.name = name
        n = mesh.num_tiles
        # One flat buffer list per tile. VN separation is a *capacity*
        # concept here (the pooled occupancy check below); keeping one
        # list per tile instead of per (tile, vn) halves the per-cycle
        # mover scan, and arbitration order is unaffected because the
        # mover sort key (injected_at, seq) is a total order.
        self._buffers: List[List[Packet]] = [[] for _ in range(n)]
        self._occupancy: List[int] = [0] * n
        self._capacity = config.num_vns * config.vcs_per_vn * config.vc_depth
        self._nic_queues: List[Deque[Packet]] = [deque() for _ in range(n)]
        # Flits direct-injected this cycle (already buffered, tick not
        # yet run). nic_backlog() adds them so the fast path below is
        # invisible to observers: IVR reads backlog from handlers in
        # the same event phase, and must see exactly what the
        # queue-until-tick path would have shown. Cleared at tick
        # start — the moment _drain_nics would have drained the queue.
        self._nic_pending: Dict[int, int] = {}
        self._receivers: List[Optional[Callable[[Packet], None]]] = [None] * n
        # Physical links are interned to dense ids the first time a plan
        # uses them; ``_link_busy[id]`` is the last cycle the link is
        # taken (-1 = never used). Arbitration claims a link by stamping
        # the current cycle, the winner's serialization tail overwrites
        # the stamp, and either way the link reads free once
        # ``_link_busy[id] < cycle``.
        self._link_ids: Dict[Link, int] = {}
        self._link_busy: List[int] = []
        self._active: Set[int] = set()
        self._nic_active: Set[int] = set()  # tiles with a NIC backlog
        self._in_flight = 0
        # Age tie-break: flits are numbered as they enter the fabric.
        # Machine state, so a restored network keeps numbering above
        # every flit its image carries.
        self._flit_seq = 0
        # packets that reached their ``dst`` in the latest tick; they
        # are delivered next cycle
        self._ejects: List[Packet] = []
        self._tid = sim.add_ticker(self)
        # Route plans depend only on (at, dst) on a static mesh: each is
        # computed once, interned to a ``(link_ids, routers, hops)``
        # tuple, and kept in a flat table indexed ``at * n + dst``.
        self._n = n
        self._plans: List[Optional[Plan]] = [None] * (n * n)
        # Hot-path stat objects, bound once: Stats lookups and the
        # f-string name construction are measurable per-flit costs.
        st = self.stats
        self._c_injected = st.counter(f"{name}.injected")
        self._c_mcast_injected = st.counter(f"{name}.mcast_injected")
        self._c_delivered = st.counter(f"{name}.delivered")
        self._c_flit_hops = st.counter(f"{name}.flit_hops")
        self._c_premature = st.counter(f"{name}.premature_stops")
        self._c_arb_losses = st.counter(f"{name}.arb_losses")
        self._c_backoff = st.counter(f"{name}.buffer_backoff")
        self._s_latency = st.sampler(f"{name}.latency")

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def attach(self, tile: int, receiver: Callable[[Packet], None]) -> None:
        """Register the callback invoked when a packet ejects at ``tile``."""
        self._receivers[tile] = receiver

    def send(self, packet: Packet) -> None:
        """Inject a unicast packet at ``packet.src`` this cycle."""
        src, dst = packet.src, packet.dst
        if dst is None:
            raise NetworkError("packet needs a dst (or use multicast())")
        packet.injected_at = self.sim.cycle
        self._c_injected.value += 1
        if dst == src:
            # Loopback through the NIC: one cycle, no link or buffer
            # touched (so nothing of _enqueue_nic's checks applies).
            self._in_flight += 1
            self.sim.call_after(1, partial(self._deliver_local, packet))
            return
        packet.at = src
        self._enqueue_nic(packet)

    def multicast(self, packet: Packet, vms) -> None:
        """Broadcast ``packet`` from ``packet.src`` to every other member
        of the virtual mesh ``vms``. Base fabrics (no VMS hardware
        support) fall back to serial unicasts from the source — the
        paper's "15 copies sent from the source" case."""
        packet.injected_at = self.sim.cycle
        self._c_mcast_injected.value += 1
        src = packet.src
        for member in vms.members:
            if member != src:
                self._enqueue_nic(packet.clone_for(src, member))

    @property
    def in_flight(self) -> int:
        """Packets injected but not yet delivered (all copies counted)."""
        return self._in_flight

    def nic_backlog(self, tile: int) -> int:
        """Flits injected at ``tile`` and not yet past the tick-phase
        drain (queued + same-cycle direct injections). Controllers use
        this to detect output-queue pressure (IVR deadlock avoidance);
        it is an architectural observable, so the direct-injection
        fast path must not change what it reports."""
        return len(self._nic_queues[tile]) + self._nic_pending.get(tile, 0)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _deliver_local(self, packet: Packet) -> None:
        cycle = self.sim.cycle
        packet.delivered_at = cycle
        self._in_flight -= 1
        self._c_delivered.value += 1
        self._s_latency.add(cycle - packet.injected_at)
        receiver = self._receivers[packet.src]
        if receiver is None:
            raise NetworkError(f"no receiver attached at tile {packet.src}")
        receiver(packet)

    def _enqueue_nic(self, flit: Packet) -> None:
        # Where outside input enters the fabric: the flat plan table
        # must never be indexed out of range, and a packet occupies its
        # links for at least its head flit.
        tile = flit.at
        leg_dst = flit.dst
        n = self._n
        if not 0 <= leg_dst < n:
            raise NetworkError(f"tile {leg_dst} out of range")
        if flit.size_flits < 1:
            raise NetworkError("size_flits must be >= 1")
        self._in_flight += 1
        seq = self._flit_seq
        self._flit_seq = seq + 1
        flit.order = (flit.injected_at, seq)
        active = self._active
        if not active:
            # Asleep exactly when no tile is active: tick() reports
            # bool(_active) to the kernel and tiles only leave in tick.
            self.sim.wake(self._tid)
        active.add(tile)
        # Injection happens in the event phase, always before this
        # cycle's tick phase, so when the NIC has no backlog and the
        # router has buffer room we can do now exactly what
        # _drain_nics would do at tick start — skipping the deque
        # round-trip. The `not queue` guard preserves FIFO order
        # behind an existing backlog, and ``_nic_pending`` keeps the
        # nic_backlog() observable identical to the queued path.
        occupancy = self._occupancy
        if not self._nic_queues[tile] and occupancy[tile] < self._capacity:
            # inlined _buffer_flit (hot)
            flit.ready = self.sim.cycle + self.injection_delay
            plan = self._plans[tile * n + leg_dst]
            if plan is None:
                plan = self._intern_plan(tile, leg_dst)
            flit.plan = plan
            self._buffers[tile].append(flit)
            occupancy[tile] += 1
            pending = self._nic_pending
            pending[tile] = pending.get(tile, 0) + 1
        else:
            self._nic_queues[tile].append(flit)
            self._nic_active.add(tile)

    def _buffer_flit(self, flit: Packet, ready: int) -> None:
        """Place ``flit`` in the router at ``flit.at``, first able to
        traverse at cycle ``ready``, with its plan from there to
        ``flit.dst``."""
        tile = flit.at
        flit.ready = ready
        plan = self._plans[tile * self._n + flit.dst]
        if plan is None:
            plan = self._intern_plan(tile, flit.dst)
        flit.plan = plan
        self._buffers[tile].append(flit)
        self._occupancy[tile] += 1
        self._active.add(tile)

    def _fire_ejects(self) -> None:
        """Deliver the packets the latest tick ejected (see
        ``_finish_moves``), in ejection order, one cycle after their
        head flits arrived."""
        cycle = self.sim.cycle
        ejects = self._ejects
        self._ejects = []
        receivers = self._receivers
        add_latency = self._s_latency.add
        for packet in ejects:
            packet.delivered_at = cycle
            self._in_flight -= 1
            add_latency(cycle - packet.injected_at)
            receiver = receivers[packet.at]
            if receiver is None:
                raise NetworkError(
                    f"no receiver attached at tile {packet.at}")
            receiver(packet)

    # -- route planning (subclass hook: _compute_plan) ------------------
    def _intern_plan(self, at: int, leg_dst: int) -> Plan:
        """Plan-table miss: compute the plan once, give its links dense
        ids, and store it. A flit is only ever buffered short of its leg
        destination (it ejects on arrival), so an empty plan is a bug."""
        links, routers = self._compute_plan(at, leg_dst)
        if not links:
            raise NetworkError(f"flit at {at} has no route to {leg_dst}")
        ids = self._link_ids
        link_ids = []
        for link in links:
            link_id = ids.get(link)
            if link_id is None:
                link_id = ids[link] = len(self._link_busy)
                self._link_busy.append(-1)
            link_ids.append(link_id)
        plan = self._plans[at * self._n + leg_dst] = (
            tuple(link_ids), tuple(routers), len(link_ids))
        return plan

    def _compute_plan(self, at: int, leg_dst: int
                      ) -> Tuple[List[Link], List[int]]:
        """Default planner: unit-link XY walk of up to
        ``max_hops_per_move`` hops along one dimension (X first, then
        Y; SMART 1D never bypasses a turn). Tile ids are row-major, so
        a unit step is ``at +- 1`` or ``at +- width``."""
        if not (0 <= at < self._n and 0 <= leg_dst < self._n):
            raise NetworkError(f"tile {at} or {leg_dst} out of range")
        width = self.mesh.width
        y, x = divmod(at, width)
        dst_y, dst_x = divmod(leg_dst, width)
        if x != dst_x:
            step, hops = (1, dst_x - x) if dst_x > x else (-1, x - dst_x)
        else:
            step, hops = ((width, dst_y - y) if dst_y > y
                          else (-width, y - dst_y))
        links: List[Link] = []
        routers: List[int] = []
        for _ in range(min(hops, self.max_hops_per_move)):
            links.append((at, at + step))
            at += step
            routers.append(at)
        return links, routers

    # -- main per-cycle evaluation --------------------------------------
    def tick(self, cycle: int) -> bool:
        if self._nic_pending:
            # direct injections are now "past the drain": stop counting
            # them in nic_backlog(), exactly when the queued path would
            self._nic_pending.clear()
        if self._nic_active:
            self._drain_nics(cycle)
        occupancy = self._occupancy
        buffers = self._buffers
        movers = [flit for tile in self._active
                  if occupancy[tile]  # else NIC backlog only; nothing to move
                  for flit in buffers[tile] if flit.ready <= cycle]
        if movers:
            if len(movers) > 1:
                # Age-priority (injected_at, seq) total order: gather
                # order is irrelevant, so buffers need no VN structure.
                movers.sort(key=_order_of)
                self._arbitrate_and_move(movers, cycle)
            else:
                self._move_single(movers[0], cycle)
        # _active is maintained in place (tiles leave in _finish_moves
        # the moment they empty), so no per-tick rebuild is needed.
        return bool(self._active)

    def _drain_nics(self, cycle: int) -> None:
        occupancy = self._occupancy
        capacity = self._capacity
        ready = cycle + self.injection_delay
        for tile in list(self._nic_active):
            q = self._nic_queues[tile]
            while q and occupancy[tile] < capacity:
                self._buffer_flit(q.popleft(), ready)
            if not q:
                self._nic_active.discard(tile)

    def _move_single(self, flit: Packet, cycle: int) -> None:
        """Uncontended fast path: with one mover this cycle only
        physical link reservations (serialization tails) can stop the
        flit. Identical outcome to running the general arbiter on a
        singleton list."""
        link_busy = self._link_busy
        got = 0
        for link in flit.plan[0]:
            if link_busy[link] >= cycle:
                break
            link_busy[link] = cycle
            got += 1
        flit.got = got
        self._finish_moves((flit,), cycle)

    def _arbitrate_and_move(self, movers: List[Packet], cycle: int) -> None:
        link_busy = self._link_busy
        # Distance-priority arbitration: position 0 (local) claims
        # first. A claim is the stamp ``link_busy[id] = cycle``: it
        # blocks every later mover this tick, whether or not the
        # claimant ends up moving, and reads free again next cycle. A
        # flit that fails to claim its next link stops for the cycle
        # (``got`` = links claimed so far), so only still-advancing
        # flits are rescanned per position (``movers`` is
        # priority-ordered already).
        live = movers
        pos = 0
        while live:
            advancing: List[Packet] = []
            nxt = pos + 1
            for flit in live:
                plan = flit.plan
                link = plan[0][pos]
                if link_busy[link] >= cycle:
                    flit.got = pos  # flit stops before this link
                    continue
                link_busy[link] = cycle
                if nxt < plan[2]:
                    advancing.append(flit)
                else:
                    flit.got = nxt
            live = advancing
            pos = nxt
        self._finish_moves(movers, cycle)

    def _finish_moves(self, movers: Sequence[Packet], cycle: int) -> None:
        """The one copy of the post-arbitration rules, in priority
        order over the tick's movers (each has its ``got`` set):
        all-or-nothing release, back-off from full routers (cannot stop
        where there is no buffer space; the leg destination ejects,
        needing none), link reservations, then move or charge an
        arbitration loss.

        A flit that reaches its leg destination ejects: the packet is
        delivered at head-flit arrival + 1 NIC cycle; the serialization
        tail of a multi-flit packet is modelled only as link
        *bandwidth* (the reservations below), matching how packet
        latency is normally reported. Only this loop ejects and nothing
        else schedules during the tick phase, so one event per tick —
        scheduled by the tick's first ejection — delivers the whole
        batch exactly where per-packet events would have fired."""
        occupancy = self._occupancy
        capacity = self._capacity
        link_busy = self._link_busy
        buffers = self._buffers
        nic_queues = self._nic_queues
        active = self._active
        plans = self._plans
        n = self._n
        ejects = self._ejects
        ready = cycle + self.wait_cycles
        flit_hops = premature = losses = backoff = 0
        for flit in movers:
            got = flit.got
            links, routers, full = flit.plan
            if got < full and not self.allow_partial:
                got = 0  # all-or-nothing fabrics release their claims
            leg_dst = flit.dst
            while got:
                to = routers[got - 1]
                if to == leg_dst or occupancy[to] < capacity:
                    break
                got -= 1
                backoff += 1
            if not got:
                flit.ready = cycle + 1  # fresh SSR / re-arbitrate next cycle
                losses += 1
                continue
            size = flit.size_flits
            if size > 1:
                # body flits hold the links past this cycle (a 1-flit
                # packet's tail is the claim stamp already there)
                tail = cycle + size - 1
                for link in links if got == full else links[:got]:
                    link_busy[link] = tail
            flit_hops += got * size
            if got < full:
                premature += 1
            src = flit.at
            buffers[src].remove(flit)
            left = occupancy[src] = occupancy[src] - 1
            # In-place _active maintenance: this is the only place a
            # tile's occupancy can drop, so tick never rebuilds the set.
            if not left and not nic_queues[src]:
                active.discard(src)
            flit.at = to
            if to == leg_dst:
                if not ejects:
                    self.sim.call_after(1, self._fire_ejects)
                ejects.append(flit)
                if flit.vms is not None:
                    self._fork(flit, cycle)
            else:
                # inlined _buffer_flit (hot)
                flit.ready = ready
                plan = plans[to * n + leg_dst]
                if plan is None:
                    plan = self._intern_plan(to, leg_dst)
                flit.plan = plan
                buffers[to].append(flit)
                occupancy[to] += 1
                active.add(to)
        self._c_flit_hops.value += flit_hops
        self._c_delivered.value += len(ejects)
        if losses:
            self._c_arb_losses.value += losses
        if premature:
            self._c_premature.value += premature
        if backoff:
            self._c_backoff.value += backoff

    def _fork(self, flit: Packet, cycle: int) -> None:
        """Multicast hook: ``flit`` (``flit.vms`` set) just ejected a
        copy at a home router of its tree. Only a fabric with hardware
        tree broadcast creates such flits (see SmartNetwork)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def occupancy(self, tile: int) -> int:
        return self._occupancy[tile]
