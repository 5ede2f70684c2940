"""Vectorized lockstep engine for single-tile sweep cells.

At one tile the discrete-event machine degenerates into a strict
per-event recurrence: every trace event fully completes (its grant
delivered, its completion cycle known in closed form) before the next
one issues, because a single in-order core blocks on each memory
reference and the only controllers are its own L1, the lone home L2
slice, and one memory controller. That makes S independent cells of
the same *shape* (cache geometry + latency class) executable in
lockstep: tag/state/LRU state becomes ``(S*sets, ways)`` NumPy arrays,
and the per-event Python dispatch cost — the dominant cost of the
scalar simulator — is paid once per batch instead of once per run.

Bit-exactness is the contract, not an aspiration: the engine
reproduces the scalar path's cycle-accurate stat attribution,
including the two *deferred* stat effects that can land after the
warmup mark or be dropped at the end-of-run event-queue drain:

* a dirty L1 victim's ``WB_L1`` is injected at the install cycle C but
  *delivered* (delivered counter + latency sample) at C+1;
* a dirty directory-organization L2 victim's ``DIR_WB`` is counted as
  an off-chip writeback by the memory controller only at C+10
  (delivery + ``directory_latency``).

Both are modelled as one pending "slot" per lane, flushed when
simulated time passes their fire cycle, snapshotted around the warmup
mark exactly as the kernel orders them, and dropped when they fire
after the lane's finish cycle — the kernel runs every event at a
cycle <= F before the stop predicate is evaluated and never runs the
rest.

Closed-form event timing (t = issue cycle of the reference,
``l1``/``l2``/``mem``/``dir`` the configured latencies, hop = 1):

=====================  =============================================
L1 hit                 C = t + l1
L2 hit (incl. S->M)    C = t + l1 + 1 + l2 + 1
L2 miss, shared        data B = t + l1 + l2 + mem + 3, C = D + 1
L2 miss, directory     data B = t + l1 + l2 + mem + dir + 3
victim recall          D = B + 2 when the L2 victim has an L1 copy
                       registered (INV_L1/ACK round trip), else D = B
=====================  =============================================

Everything outside this closed form (multi-tile meshes, VMS/token
organizations, full-system spin loops) is *out of scope by design*:
:mod:`repro.batch.grouping` routes such units to the scalar path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cmp.system import RunResult
from repro.sim.stats import Stats
from repro.traces.events import Op, TraceEvent

_OP_READ, _OP_WRITE, _OP_BARRIER = 0, 1, 2

#: trace-mode opcode classes (LOCK/UNLOCK are plain stores in trace
#: mode; full-system units are never batched)
_OP_CODE = {Op.LOAD: _OP_READ, Op.STORE: _OP_WRITE, Op.LOCK: _OP_WRITE,
            Op.UNLOCK: _OP_WRITE, Op.BARRIER: _OP_BARRIER}


@dataclass(frozen=True)
class GroupShape:
    """Everything that must agree for cells to share one lockstep batch."""

    org_kind: str  # "shared" | "dir" (PRIVATE and LOCO_CC time identically)
    l1_sets: int
    l1_ways: int
    l2_sets: int
    l2_ways: int
    l1_lat: int
    l2_lat: int
    mem_lat: int
    dir_lat: int


@dataclass
class LaneSpec:
    """One sweep cell: packed trace + completion bookkeeping inputs."""

    ops: np.ndarray    # (L,) int8 opcode classes
    addrs: np.ndarray  # (L,) int64 line addresses
    gaps: np.ndarray   # (L,) int64 issue gaps
    mark_event: int    # 0-based event index placing the warmup mark, -1 none
    max_cycles: int
    config: Any        # SystemConfig for the RunResult


def pack_trace(trace: List[TraceEvent]
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columnarize one core trace (cacheable per (benchmark, seed, ...))."""
    n = len(trace)
    ops = np.fromiter((_OP_CODE[e.op] for e in trace), np.int8, count=n)
    addrs = np.fromiter((e.line_addr for e in trace), np.int64, count=n)
    gaps = np.fromiter((e.gap for e in trace), np.int64, count=n)
    return ops, addrs, gaps


def mark_event_of(warmup_fraction: float, trace_len: int) -> int:
    """The 0-based event index whose execution places the warmup mark
    (mirrors ``CmpSystem``'s WarmupTracker threshold), or -1 when no
    mark is ever placed."""
    if warmup_fraction <= 0.0 or trace_len == 0:
        return -1
    threshold = int(warmup_fraction * trace_len)
    if threshold < 1 or threshold > trace_len:
        return -1
    return threshold - 1


# Scalar-path creation order of the always-created stats (insurance
# only: dict comparisons are order-insensitive, but keeping the order
# identical removes one way for future wire formats to drift).
_EAGER_COUNTERS = (
    "smart.injected", "smart.mcast_injected", "smart.delivered",
    "smart.flit_hops", "smart.premature_stops", "smart.arb_losses",
    "smart.buffer_backoff", "smart.mcast_forks",
    "l2_accesses", "l2_hits", "l2_misses", "l2_upgrades",
    "fills_onchip", "fills_offchip",
    "l1_hits", "l1_misses",
    "instructions", "mem_refs", "cores_finished",
)


class _Batch:
    """Lockstep state for one group of lanes (internal)."""

    def __init__(self, shape: GroupShape, lanes: List[LaneSpec]) -> None:
        self.shape = shape
        self.lanes = lanes
        S = len(lanes)
        lengths = np.array([len(l.ops) for l in lanes], np.int64)
        # Longest-first lane order makes the active set a prefix, so the
        # per-event step never needs an activity mask.
        self.order = sorted(range(S), key=lambda i: -int(lengths[i]))
        self.L = lengths[self.order]
        self.neg_l = -self.L
        lmax = int(self.L[0]) if S else 0
        self.lmax = lmax
        self.ops = np.zeros((S, lmax), np.int8)
        self.addrs = np.zeros((S, lmax), np.int64)
        self.gaps = np.zeros((S, lmax), np.int64)
        self.mark_map: Dict[int, List[int]] = {}
        for row, li in enumerate(self.order):
            lane = lanes[li]
            n = len(lane.ops)
            self.ops[row, :n] = lane.ops
            self.addrs[row, :n] = lane.addrs
            self.gaps[row, :n] = lane.gaps
            if lane.mark_event >= 0:
                self.mark_map.setdefault(lane.mark_event, []).append(row)

        sh = shape
        self.l1_tag = np.full((S * sh.l1_sets, sh.l1_ways), -1, np.int64)
        self.l1_mod = np.zeros((S * sh.l1_sets, sh.l1_ways), bool)
        self.l1_stamp = np.zeros((S * sh.l1_sets, sh.l1_ways), np.int64)
        self.l1_ctr = np.zeros(S, np.int64)
        self.l2_tag = np.full((S * sh.l2_sets, sh.l2_ways), -1, np.int64)
        self.l2_mod = np.zeros((S * sh.l2_sets, sh.l2_ways), bool)
        self.l2_shr = np.zeros((S * sh.l2_sets, sh.l2_ways), bool)
        self.l2_stamp = np.zeros((S * sh.l2_sets, sh.l2_ways), np.int64)
        self.l2_ctr = np.zeros(S, np.int64)

        z = lambda: np.zeros(S, np.int64)  # noqa: E731
        self.C = z()
        self.instr = z()
        self.mem_refs = z()
        self.l1_hits = z()
        self.l1_misses = z()
        self.l2_acc = z()
        self.l2_hit = z()
        self.l2_miss = z()
        self.l2_evict = z()
        self.off_wb = z()
        self.inj = z()
        self.dlv = z()
        self.l2hit_n = z()
        self.miss_n = z()
        self.miss_tot = z()
        # Pending deferred stat slots (fire cycle, -1 = none).
        self.slot_wb_l1 = np.full(S, -1, np.int64)
        self.slot_dir_wb = np.full(S, -1, np.int64)
        self.mark_snap: List[Optional[Dict[str, Any]]] = [None] * S

        self.dir_org = sh.org_kind == "dir"
        self.hit_c = sh.l1_lat + sh.l2_lat + 2
        self.hit_elapsed = sh.l2_lat + 2
        self.b_off = sh.l1_lat + sh.l2_lat + sh.mem_lat + 3 \
            + (sh.dir_lat if self.dir_org else 0)
        self.miss_msgs = 6 if self.dir_org else 4

    # ------------------------------------------------------------------
    def _flush_due(self, n: int, upto: np.ndarray) -> None:
        """Apply pending deferred stat slots whose fire cycle has been
        reached (the kernel always runs them before a same-cycle core
        event: they were scheduled earlier, so their seq is lower)."""
        sa = self.slot_wb_l1[:n]
        due = (sa >= 0) & (sa <= upto)
        if due.any():
            self.dlv[:n][due] += 1
            sa[due] = -1
        sb = self.slot_dir_wb[:n]
        due = (sb >= 0) & (sb <= upto)
        if due.any():
            self.off_wb[:n][due] += 1
            sb[due] = -1

    def _miss_sample(self, lanes: np.ndarray, values) -> None:
        self.miss_n[lanes] += 1
        self.miss_tot[lanes] += values

    def _stat_state(self, row: int, cores_finished: int) -> Dict[str, Any]:
        """One lane's statistics in :meth:`Stats.to_wire` form: every
        counter the scalar machine has created by now and every
        sampler's (count, total). Taken at the mark event — after its
        instruction slot is charged and before its memory reference
        issues, exactly where ``WarmupTracker.note_ref`` fires in the
        scalar core — and at the end of the run."""
        l2m = int(self.l2_miss[row])
        d = int(self.dlv[row])
        counters = dict.fromkeys(_EAGER_COUNTERS, 0)
        counters.update({
            "smart.injected": int(self.inj[row]),
            "smart.delivered": d,
            "l2_accesses": int(self.l2_acc[row]),
            "l2_hits": int(self.l2_hit[row]),
            "l2_misses": l2m,
            "fills_offchip": l2m,
            "l1_hits": int(self.l1_hits[row]),
            "l1_misses": int(self.l1_misses[row]),
            "instructions": int(self.instr[row]),
            "mem_refs": int(self.mem_refs[row]),
            "cores_finished": cores_finished,
        })
        # Lazily-created counters exist only once something incremented
        # them (a final dirty eviction whose deferred writeback was
        # dropped never creates offchip_writebacks — just as the scalar
        # MC handler never runs).
        for name, value in (("offchip_fetches", l2m),
                            ("l2_evictions", int(self.l2_evict[row])),
                            ("offchip_writebacks", int(self.off_wb[row]))):
            if value:
                counters[name] = value
        n_hit = int(self.l2hit_n[row])
        hit = (n_hit, float(n_hit * self.hit_elapsed))
        samplers = {
            "smart.latency": (d, float(d)),
            "search_delay": (0, 0.0),
            "l2_hit_latency": hit,
            "l2_access_latency_onchip": hit,
            "miss_latency": (int(self.miss_n[row]),
                             float(self.miss_tot[row])),
        }
        return {"counters": counters, "samplers": samplers}

    # ------------------------------------------------------------------
    def run(self) -> None:
        sh = self.shape
        l1_sets, l2_sets = sh.l1_sets, sh.l2_sets
        l1_lat = sh.l1_lat
        for k in range(self.lmax):
            n = int(np.searchsorted(self.neg_l, -k, side="left"))
            if n == 0:
                break
            gap = self.gaps[:n, k]
            opk = self.ops[:n, k]
            t = self.C[:n] + gap
            self._flush_due(n, t)
            self.instr[:n] += gap + 1
            for row in self.mark_map.get(k, ()):
                self.mark_snap[row] = self._stat_state(row, 0)
            bar = opk == _OP_BARRIER
            if bar.any():
                self.C[:n][bar] = t[bar]
                mem = np.flatnonzero(~bar)
                if mem.size == 0:
                    continue
            else:
                mem = np.arange(n)
            self.mem_refs[mem] += 1
            am = self.addrs[:n, k][mem]
            wm = opk[mem] == _OP_WRITE
            tm = t[mem]
            row1 = mem * l1_sets + am % l1_sets
            eq1 = self.l1_tag[row1] == am[:, None]
            fnd = eq1.any(1)
            way1 = eq1.argmax(1)
            if fnd.any():
                fl = mem[fnd]  # lookup touch: hits AND S->M upgrades
                self.l1_ctr[fl] += 1
                self.l1_stamp[row1[fnd], way1[fnd]] = self.l1_ctr[fl]
            hit = fnd & (self.l1_mod[row1, way1] | ~wm)
            hi = mem[hit]
            if hi.size:
                self.l1_hits[hi] += 1
                self.C[hi] = tm[hit] + l1_lat
            msk = ~hit
            if msk.any():
                self._step_miss(mem[msk], am[msk], wm[msk], tm[msk],
                                fnd[msk], row1[msk], way1[msk])
        self._finish()

    def _step_miss(self, mi, a, w, tt, upg, row1m, way1m) -> None:
        """One event's L1-miss machinery for the lanes that missed."""
        sh = self.shape
        self.l1_misses[mi] += 1
        l2row = mi * sh.l2_sets + a % sh.l2_sets
        eq2 = self.l2_tag[l2row] == a[:, None]
        f2 = eq2.any(1)
        way2 = eq2.argmax(1)
        self.l2_acc[mi] += 1
        cc = np.empty(mi.size, np.int64)
        if f2.any():
            h = np.flatnonzero(f2)
            lanes, r, wy = mi[h], l2row[h], way2[h]
            self.l2_hit[lanes] += 1
            self.l2_ctr[lanes] += 1
            self.l2_stamp[r, wy] = self.l2_ctr[lanes]
            self.l2_shr[r, wy] = True
            self.l2_mod[r, wy] |= w[h]
            cc[h] = tt[h] + self.hit_c
            self.inj[lanes] += 2  # request + grant
            self.dlv[lanes] += 2
            self.l2hit_n[lanes] += 1
            self._miss_sample(lanes, self.hit_elapsed)
        m2 = np.flatnonzero(~f2)
        if m2.size:
            cc[m2] = self._l2_miss(mi[m2], a[m2], w[m2], tt[m2], l2row[m2])
        # L1-side completion at C: grant to an existing S line upgrades
        # it in place; otherwise install (with a possible dirty victim).
        up = np.flatnonzero(upg)
        if up.size:
            lanes = mi[up]
            self.l1_ctr[lanes] += 1
            self.l1_stamp[row1m[up], way1m[up]] = self.l1_ctr[lanes]
            self.l1_mod[row1m[up], way1m[up]] = True
        ins = np.flatnonzero(~upg)
        if ins.size:
            self._l1_install(mi[ins], row1m[ins], a[ins], w[ins], cc[ins])
        self.C[mi] = cc

    def _l2_miss(self, lanes, a, w, tt, r) -> np.ndarray:
        """Off-chip fill at the home L2, with eviction machinery."""
        sh = self.shape
        self.l2_miss[lanes] += 1
        self.inj[lanes] += self.miss_msgs
        self.dlv[lanes] += self.miss_msgs
        b = tt + self.b_off
        d = b.copy()
        tags = self.l2_tag[r]
        full = (tags != -1).all(1)
        ways_in = np.empty(lanes.size, np.int64)
        if full.any():
            fu = np.flatnonzero(full)
            rf, lf = r[fu], lanes[fu]
            vway = self.l2_stamp[rf].argmin(1)
            ways_in[fu] = vway
            vtag = self.l2_tag[rf, vway]
            vmod = self.l2_mod[rf, vway]
            vshr = self.l2_shr[rf, vway]
            self.l2_evict[lf] += 1
            ack_dirty = np.zeros(fu.size, bool)
            if vshr.any():
                # Registered L1 copy: INV_L1/ACK round trip (2 messages
                # and 2 cycles even when the L1 evicted the line
                # silently and answers with a clean ack).
                sv = np.flatnonzero(vshr)
                lsv = lf[sv]
                self.inj[lsv] += 2
                self.dlv[lsv] += 2
                d[fu[sv]] = b[fu[sv]] + 2
                r1v = lsv * sh.l1_sets + vtag[sv] % sh.l1_sets
                e1v = self.l1_tag[r1v] == vtag[sv][:, None]
                present = e1v.any(1)
                pw = e1v.argmax(1)
                if present.any():
                    rr = r1v[present]
                    ww = pw[present]
                    ack_dirty[sv[present]] = self.l1_mod[rr, ww]
                    self.l1_tag[rr, ww] = -1
                    self.l1_mod[rr, ww] = False
                    self.l1_stamp[rr, ww] = 0
            vdirty = vmod | ack_dirty
            if self.dir_org:
                self.inj[lf] += 1  # DIR_WB is sent for every owner victim
                self.dlv[lf] += 1
                dd = np.flatnonzero(vdirty)
                if dd.size:
                    # The MC counts the off-chip writeback only after
                    # delivery + directory latency: a deferred slot.
                    ldd = lf[dd]
                    stale = self.slot_dir_wb[ldd] >= 0
                    self.off_wb[ldd[stale]] += 1
                    self.slot_dir_wb[ldd] = d[fu[dd]] + 1 + sh.dir_lat
            else:
                dd = np.flatnonzero(vdirty)
                if dd.size:
                    ldd = lf[dd]
                    self.inj[ldd] += 1  # MEM_WB, counted at delivery = C
                    self.dlv[ldd] += 1
                    self.off_wb[ldd] += 1
        nf = np.flatnonzero(~full)
        if nf.size:
            ways_in[nf] = (tags[nf] == -1).argmax(1)
        self.l2_tag[r, ways_in] = a
        self.l2_mod[r, ways_in] = w  # GETX fills write-grant straight to M
        self.l2_shr[r, ways_in] = True
        self.l2_ctr[lanes] += 1
        self.l2_stamp[r, ways_in] = self.l2_ctr[lanes]
        cc = d + 1
        self._miss_sample(lanes, cc - (tt + sh.l1_lat))
        return cc

    def _l1_install(self, lanes, r1, a, w, cc) -> None:
        sh = self.shape
        tags = self.l1_tag[r1]
        full = (tags != -1).all(1)
        wsel = np.empty(lanes.size, np.int64)
        if full.any():
            fv = np.flatnonzero(full)
            wsel[fv] = self.l1_stamp[r1[fv]].argmin(1)
            vtag = self.l1_tag[r1[fv], wsel[fv]]
            vmod = self.l1_mod[r1[fv], wsel[fv]]
            mb = np.flatnonzero(vmod)
            if mb.size:
                # Dirty L1 victim: WB_L1 injected at C; its delivery
                # stats land at C+1 (deferred slot), but the L2-side
                # state effects are safe to apply now — nothing can
                # observe the line before the next event's L2 access.
                lwb = lanes[fv[mb]]
                self.inj[lwb] += 1
                vtb = vtag[mb]
                r2 = lwb * sh.l2_sets + vtb % sh.l2_sets
                e2 = self.l2_tag[r2] == vtb[:, None]
                assert e2.any(1).all(), "L1 victim not L2-resident"
                w2 = e2.argmax(1)
                self.l2_shr[r2, w2] = False
                self.l2_mod[r2, w2] = True
                stale = self.slot_wb_l1[lwb] >= 0
                self.dlv[lwb[stale]] += 1
                self.slot_wb_l1[lwb] = cc[fv[mb]] + 1
        nf = np.flatnonzero(~full)
        if nf.size:
            wsel[nf] = (tags[nf] == -1).argmax(1)
        self.l1_tag[r1, wsel] = a
        self.l1_mod[r1, wsel] = w
        self.l1_ctr[lanes] += 1
        self.l1_stamp[r1, wsel] = self.l1_ctr[lanes]

    # ------------------------------------------------------------------
    def _finish(self) -> None:
        """End-of-run queue drain: the kernel runs every event at a
        cycle <= the finish cycle before the stop predicate halts the
        loop, and never runs the rest — late deferred slots are
        dropped, exactly like their scalar counterparts."""
        f = self.C
        for slot, acc in ((self.slot_wb_l1, self.dlv),
                          (self.slot_dir_wb, self.off_wb)):
            due = (slot >= 0) & (slot <= f)
            if due.any():
                acc[due] += 1
            slot[:] = -1

    def results(self) -> List[Optional[RunResult]]:
        """Per-lane results in the caller's lane order (None = the lane
        exceeded its cycle limit and must take the scalar path, which
        raises the canonical SimulationError)."""
        out: List[Optional[RunResult]] = [None] * len(self.lanes)
        for row, li in enumerate(self.order):
            lane = self.lanes[li]
            runtime = int(self.C[row])
            if runtime > lane.max_cycles:
                continue
            out[li] = self._build_result(row, lane, runtime)
        return out

    def _build_result(self, row: int, lane: LaneSpec,
                      runtime: int) -> RunResult:
        wire = self._stat_state(row, 1)
        mark = self.mark_snap[row]
        if mark is not None:
            wire["mark_counters"] = mark["counters"]
            wire["mark_samplers"] = mark["samplers"]
        return RunResult(config=lane.config, runtime=runtime,
                         instructions=int(self.instr[row]),
                         stats=Stats.from_wire(wire),
                         finished=True, per_core_finish=[runtime])


def simulate_group(shape: GroupShape,
                   lanes: List[LaneSpec]) -> List[Optional[RunResult]]:
    """Run one lockstep batch; one result (or None = fall back to the
    scalar path) per lane, in input order."""
    batch = _Batch(shape, lanes)
    batch.run()
    return batch.results()
