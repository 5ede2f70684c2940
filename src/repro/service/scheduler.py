"""Pure scheduling state machine for the sweep coordinator.

No sockets, no threads, no clocks — the coordinator's
:class:`~repro.service.sessions.Sessions` calls this object directly;
keeping the policy pure makes every scheduling property (order,
requeue, dedup) unit-testable without a fleet.

Policy:

* **One FIFO** — pending units wait in one global order: ``add_job``
  and a retry append at the back, and a worker with a free slot takes
  the head. Which units could share a warmup image is not the fleet's
  concern: workers run every unit cold (``run_units`` already makes one
  cell of every config in a call), and warmup reuse across calls is a
  local ``warmup_cache``.
* **Two slots per worker** (:data:`SLOTS`) — a worker holds the unit
  it is running, ``busy[0]``, and the next one, which it runs as soon
  as the first is done. Its result then never waits on a coordinator
  round trip before the next unit starts.
* **Fault tolerance** — when a worker is removed, its in-flight units
  go back to the *front* of the queue in dispatch order, so survivors
  pick the orphaned work up immediately. Only the running unit is
  charged an attempt: the ones queued behind it never ran.
* **Idempotent completion** — a (job, idx) completes at most once.
  Late duplicate results (a worker declared dead that was merely slow,
  a unit retried after a kill that had actually finished) are reported
  as duplicates and must be dropped by the caller. Retried units stay
  bit-identical because runs are seeded by config, never by worker.

The queue is a deque plus the set of its members, so assignment pops
the head and never scans; only the rare removals from elsewhere (a
requeued copy whose result raced in, a retry moving to the front, a
cancelled job's leftovers) do.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Set, Tuple

from repro.harness.units import SweepUnit

__all__ = ["Scheduler", "Assignment", "DEFAULT_MAX_ATTEMPTS", "SLOTS"]

#: a unit that errors on this many distinct attempts fails its job —
#: the simulator is deterministic, so one genuine failure would repeat
#: on every worker; >1 attempts only paper over death-adjacent noise.
DEFAULT_MAX_ATTEMPTS = 3

#: units one worker holds at once: the one it runs and the next one
SLOTS = 2

UnitId = Tuple[str, int]  # (job_id, index within the job)


@dataclass
class Assignment:
    job_id: str
    idx: int
    unit: SweepUnit


@dataclass
class _UnitState:
    unit: SweepUnit
    attempts: int = 0


@dataclass
class _WorkerState:
    name: str
    busy: List[UnitId] = field(default_factory=list)  # [0] is running
    completed: int = 0


@dataclass
class _JobState:
    units: List[SweepUnit]
    done: Set[int] = field(default_factory=set)


class Scheduler:
    def __init__(self, max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> None:
        self.max_attempts = max_attempts
        self._workers: Dict[str, _WorkerState] = {}
        self._jobs: Dict[str, _JobState] = {}
        self._units: Dict[UnitId, _UnitState] = {}
        # the queue in order, and the same units as a set
        self._pending: Deque[UnitId] = deque()
        self._queued: Set[UnitId] = set()
        self.requeues = 0
        self.duplicates = 0

    def _enqueue(self, uid: UnitId, front: bool = False) -> None:
        if front:
            if uid in self._queued:  # one copy only: it moves to the front
                self._pending.remove(uid)
            self._pending.appendleft(uid)
        else:
            self._pending.append(uid)
        self._queued.add(uid)

    # ---- workers -----------------------------------------------------
    def add_worker(self, name: str) -> None:
        if name in self._workers:
            raise ValueError(f"worker {name!r} already registered")
        self._workers[name] = _WorkerState(name)

    def remove_worker(self, name: str
                      ) -> Tuple[List[UnitId], List[UnitId]]:
        """Drop a worker; requeue its in-flight units at the front of
        the queue, in dispatch order.

        Returns ``(requeued, fatal)``: a death consumes the running
        unit's attempt just like a ``unit_error`` does, so a unit that
        reliably *kills* its worker (OOM, segfaulting extension)
        exhausts ``max_attempts`` and lands in ``fatal`` instead of
        livelocking a self-respawning fleet forever. The caller fails
        the fatal units' jobs. A unit queued behind the running one
        never ran, so its attempt is refunded — a killer must not take
        an innocent unit of another job down with it."""
        w = self._workers.pop(name, None)
        if w is None:
            return [], []
        requeued: List[UnitId] = []
        fatal: List[UnitId] = []
        for pos, uid in enumerate(w.busy):
            state = self._units.get(uid)
            if state is None:
                continue  # completed elsewhere, or its job is gone
            if pos:
                state.attempts -= 1
            elif state.attempts >= self.max_attempts:
                fatal.append(uid)
                continue
            requeued.append(uid)
        for uid in reversed(requeued):
            self._enqueue(uid, front=True)
        self.requeues += len(requeued)
        return requeued, fatal

    def worker_view(self, name: str) -> Optional[_WorkerState]:
        return self._workers.get(name)

    def free_workers(self) -> List[str]:
        """Workers with a free slot, in sign-in order."""
        return [n for n, w in self._workers.items()
                if len(w.busy) < SLOTS]

    # ---- jobs --------------------------------------------------------
    def add_job(self, job_id: str, units: List[SweepUnit],
                skip: Optional[Set[int]] = None) -> None:
        """Register a job; ``skip`` holds indices already resolved from
        the result cache (they are marked done immediately)."""
        if job_id in self._jobs:
            raise ValueError(f"job {job_id!r} already exists")
        job = _JobState(units=list(units))
        self._jobs[job_id] = job
        for idx, unit in enumerate(units):
            if skip is not None and idx in skip:
                job.done.add(idx)
                continue
            uid = (job_id, idx)
            self._units[uid] = _UnitState(unit)
            self._enqueue(uid)

    def cancel_job(self, job_id: str) -> None:
        """Forget a job (its client went away): pending units are
        dropped; in-flight results will be reported as duplicates."""
        job = self._jobs.pop(job_id, None)
        if job is None:
            return
        uids = [(job_id, idx) for idx in range(len(job.units))]
        for uid in uids:
            self._units.pop(uid, None)
        dropped = self._queued.intersection(uids)
        if dropped:
            self._queued -= dropped
            self._pending = deque(u for u in self._pending
                                  if u not in dropped)

    def job_done(self, job_id: str) -> bool:
        job = self._jobs[job_id]
        return len(job.done) == len(job.units)

    def job_remaining(self, job_id: str) -> int:
        job = self._jobs[job_id]
        return len(job.units) - len(job.done)

    # ---- assignment --------------------------------------------------
    def next_unit_for(self, name: str) -> Optional[Assignment]:
        """Hand the head of the queue to a free slot of ``name`` and
        mark it in-flight. None when both slots are taken or nothing is
        pending."""
        w = self._workers[name]
        if len(w.busy) >= SLOTS or not self._pending:
            return None
        pick = self._pending.popleft()
        self._queued.discard(pick)
        state = self._units[pick]
        w.busy.append(pick)
        state.attempts += 1
        return Assignment(pick[0], pick[1], state.unit)

    def dispatch(self) -> List[Tuple[str, Assignment]]:
        """Fill every free slot from the queue: ``(worker, assignment)``
        pairs in assignment order. Each pass gives every free worker one
        unit (breadth first), so a short queue spreads over the fleet
        before any worker takes a second unit."""
        out: List[Tuple[str, Assignment]] = []
        while self._pending:
            passed = len(out)
            for name in self.free_workers():
                a = self.next_unit_for(name)
                if a is not None:
                    out.append((name, a))
            if len(out) == passed:
                break
        return out

    # ---- completion --------------------------------------------------
    def complete(self, name: str, job_id: str, idx: int) -> str:
        """Record a result arrival. Returns ``"fresh"`` when this is
        the first completion of a live unit, ``"duplicate"`` when the
        unit already completed (drop the value), ``"unknown"`` for jobs
        this scheduler never saw (e.g. pre-restart leftovers)."""
        w = self._workers.get(name)
        uid = (job_id, idx)
        if w is not None and uid in w.busy:
            w.busy.remove(uid)
        job = self._jobs.get(job_id)
        if job is None:
            return "unknown"
        if idx in job.done or uid not in self._units:
            self.duplicates += 1
            return "duplicate"
        del self._units[uid]
        # a requeued copy may still sit in pending if the "dead" worker
        # raced its result in before reassignment — drop it
        if uid in self._queued:
            self._queued.discard(uid)
            self._pending.remove(uid)
        job.done.add(idx)
        if w is not None:
            w.completed += 1
        return "fresh"

    def fail(self, name: str, job_id: str, idx: int) -> str:
        """Record a unit error. Returns ``"retry"`` (requeued) or
        ``"fatal"`` (attempts exhausted; caller fails the job) or
        ``"ignored"`` (stale)."""
        w = self._workers.get(name)
        uid = (job_id, idx)
        if w is not None and uid in w.busy:
            w.busy.remove(uid)
        state = self._units.get(uid)
        if state is None or job_id not in self._jobs:
            return "ignored"
        if state.attempts >= self.max_attempts:
            return "fatal"
        # a stale unit_error can race the death-requeue of the same
        # uid (remove_worker already put it back); a second pending
        # copy would later be assigned concurrently or dangle after
        # completion, so requeue only when absent
        if uid not in self._queued:
            self._enqueue(uid)
        return "retry"

    # ---- introspection ----------------------------------------------
    def pending_count(self) -> int:
        return len(self._pending)

    def in_flight(self) -> Dict[str, List[UnitId]]:
        return {n: list(w.busy) for n, w in self._workers.items()
                if w.busy}

    def stats(self) -> Dict[str, int]:
        return {
            "workers": len(self._workers),
            "pending": len(self._pending),
            "in_flight": sum(map(len, self.in_flight().values())),
            "jobs": len(self._jobs),
            "requeues": self.requeues,
            "duplicates": self.duplicates,
        }
