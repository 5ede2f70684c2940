"""Dataflow workload generators: systolic GEMM and 2D stencil.

These produce NoC traffic patterns the coherence benchmarks never
exercise (ROADMAP item 5; grounding: Versa's reconfigurable systolic
multiprocessor). Both are parameterized by the tile grid — each core's
trace is a function of its (row, col) position in the square mesh —
and speak the scratchpad ops of :mod:`repro.traces.events`:

* ``dataflow_gemm`` — a systolic GEMM wavefront. Edge tiles stream
  operand panels in from memory (coherent LOADs); every tile runs
  MAC waves over its local scratchpad operands and *forwards* them to
  its east/south neighbours with fire-and-forget ``SPM_REMOTE``
  pushes (nearest-neighbour, direction-biased traffic); accumulators
  live in local scratchpad; the C tile drains to memory with coherent
  STOREs at the end.

* ``dataflow_stencil`` — a 2D Jacobi-style halo exchange. Every
  iteration each tile pushes its halo edges to its 4 neighbours
  (``SPM_REMOTE``), synchronizes on a barrier, reads the received
  halos (``SPM_LOAD``), then sweeps its interior in scratchpad, with
  an occasional coherent access to a shared residual line (the
  convergence check — the only coherence traffic in the steady state).

On an all-cache machine the same traces degrade gracefully: every SPM
op executes as a coherent access to the same address (see
``Core._do_spm``), which makes scratchpad-vs-cache a paired
comparison. Generation is deterministic given (name, cores, scale,
seed) — the end-to-end benchmark's ``traces.events`` count and row
digests depend on it.
"""

from __future__ import annotations

import math
from typing import List

from repro.errors import TraceError
from repro.sim.rng import RngStreams
from repro.traces.events import Op, TraceEvent, spm_addr

__all__ = ["DATAFLOW_BENCHMARKS", "dataflow_traces"]

DATAFLOW_BENCHMARKS = ("dataflow_gemm", "dataflow_stencil")

#: slot map within each tile's scratchpad bank (small, so even thin
#: partitions hold the working set; larger banks just alias less)
_A_SLOTS = 32           # operand-A wavefront buffer
_B_SLOTS = 32           # operand-B wavefront buffer
_ACC_SLOTS = 16         # GEMM accumulators
_HALO_SLOTS = 8         # stencil halo landing zone (2 per edge)
_INTERIOR_SLOTS = 64    # stencil interior block

#: coherent address regions (distinct from the synthetic generator's
#: carving and from the SPM global space)
_STREAM_BASE = 1 << 27      # per-tile DRAM streaming panels
_STREAM_STRIDE = 1 << 12
_RESIDUAL_LINE = 1 << 28    # chip-wide stencil residual line


def _grid_side(num_cores: int) -> int:
    side = math.isqrt(num_cores)
    if side * side != num_cores:
        raise TraceError(
            f"dataflow workloads need a square tile grid; "
            f"{num_cores} cores is not a perfect square")
    return side


def dataflow_traces(name: str, num_cores: int, scale: float = 1.0,
                    seed: int = 1) -> List[List[TraceEvent]]:
    """Per-core traces for one dataflow benchmark."""
    if name == "dataflow_gemm":
        return _gemm_traces(num_cores, scale, seed)
    if name == "dataflow_stencil":
        return _stencil_traces(num_cores, scale, seed)
    raise TraceError(f"unknown dataflow benchmark {name!r}; "
                     f"choose from {list(DATAFLOW_BENCHMARKS)}")


# ---------------------------------------------------------------------------
# systolic GEMM wavefront
# ---------------------------------------------------------------------------
def _gemm_traces(num_cores: int, scale: float,
                 seed: int) -> List[List[TraceEvent]]:
    side = _grid_side(num_cores)
    waves = max(2, int(round(160 * scale)))
    rng = RngStreams(seed)
    traces = []
    for core in range(num_cores):
        r, c = divmod(core, side)
        stream = rng.stream(f"dataflow.gemm.core{core}")
        events: List[TraceEvent] = []
        stream_base = _STREAM_BASE + core * _STREAM_STRIDE
        for k in range(waves):
            a_slot = k % _A_SLOTS
            b_slot = _A_SLOTS + k % _B_SLOTS
            # Edge tiles stream fresh operand panels from memory; the
            # DRAM panels are strided so consecutive waves touch fresh
            # lines (streaming, near-zero temporal reuse).
            if c == 0:
                events.append(TraceEvent(
                    Op.LOAD, stream_base + 2 * k, int(stream.integers(2))))
            if r == 0:
                events.append(TraceEvent(
                    Op.LOAD, stream_base + 2 * k + 1,
                    int(stream.integers(2))))
            # Consume this wave's operands from local scratchpad.
            events.append(TraceEvent(
                Op.SPM_LOAD, spm_addr(core, a_slot), 0))
            events.append(TraceEvent(
                Op.SPM_LOAD, spm_addr(core, b_slot),
                6 + int(stream.integers(4))))  # the MAC burst
            # Accumulate locally, then forward the operands along the
            # wavefront: A east, B south (fire-and-forget pushes).
            events.append(TraceEvent(
                Op.SPM_STORE,
                spm_addr(core, _A_SLOTS + _B_SLOTS + k % _ACC_SLOTS), 0))
            if c + 1 < side:
                events.append(TraceEvent(
                    Op.SPM_REMOTE, spm_addr(core + 1, a_slot), 0))
            if r + 1 < side:
                events.append(TraceEvent(
                    Op.SPM_REMOTE, spm_addr(core + side, b_slot), 0))
        # Drain the C tile to memory (coherent stores, one per
        # accumulator) — the only write-shared-with-nothing traffic.
        for s in range(_ACC_SLOTS):
            events.append(TraceEvent(
                Op.SPM_LOAD,
                spm_addr(core, _A_SLOTS + _B_SLOTS + s), 0))
            events.append(TraceEvent(
                Op.STORE, stream_base + (1 << 10) + s,
                1 + int(stream.integers(2))))
        traces.append(events)
    return traces


# ---------------------------------------------------------------------------
# 2D stencil halo exchange
# ---------------------------------------------------------------------------
def _stencil_traces(num_cores: int, scale: float,
                    seed: int) -> List[List[TraceEvent]]:
    side = _grid_side(num_cores)
    iters = max(1, int(round(24 * scale)))
    interior_ops = 20
    rng = RngStreams(seed)
    halo_base = _A_SLOTS + _B_SLOTS + _ACC_SLOTS  # after the GEMM map
    interior_base = halo_base + _HALO_SLOTS
    traces = []
    for core in range(num_cores):
        r, c = divmod(core, side)
        stream = rng.stream(f"dataflow.stencil.core{core}")
        events: List[TraceEvent] = []
        # (neighbour tile, halo slot pair index on the receiver): we
        # push into the slot pair of the edge *facing us*.
        neighbours = []
        if r > 0:
            neighbours.append((core - side, 2))    # north nbr, its south edge
        if r + 1 < side:
            neighbours.append((core + side, 0))    # south nbr, its north edge
        if c > 0:
            neighbours.append((core - 1, 6))       # west nbr, its east edge
        if c + 1 < side:
            neighbours.append((core + 1, 4))       # east nbr, its west edge
        for t in range(iters):
            # 1. push our halo edges (2 lines per edge, fire-and-forget)
            for nbr, slot_pair in neighbours:
                for j in range(2):
                    events.append(TraceEvent(
                        Op.SPM_REMOTE,
                        spm_addr(nbr, halo_base + slot_pair + j), 0))
            # 2. iteration barrier (free sync in trace mode)
            events.append(TraceEvent(Op.BARRIER, t, 0))
            # 3. read the halos our neighbours pushed
            for _nbr, slot_pair in neighbours:
                events.append(TraceEvent(
                    Op.SPM_LOAD, spm_addr(core, halo_base + slot_pair), 0))
            # 4. interior sweep in local scratchpad
            for i in range(interior_ops):
                slot = interior_base + int(stream.integers(_INTERIOR_SLOTS))
                op = Op.SPM_STORE if i % 4 == 3 else Op.SPM_LOAD
                events.append(TraceEvent(
                    op, spm_addr(core, slot), 2 + int(stream.integers(3))))
            # 5. convergence check: everyone reads the shared residual
            #    line; one tile per grid-diagonal updates it (coherent
            #    traffic that contends with the halo pushes on the NoC)
            events.append(TraceEvent(Op.LOAD, _RESIDUAL_LINE, 0))
            if (r + c) % side == t % side:
                events.append(TraceEvent(Op.STORE, _RESIDUAL_LINE, 0))
        traces.append(events)
    return traces
