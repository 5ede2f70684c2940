"""Pure scheduling state machine for the sweep coordinator.

No sockets, no threads, no clocks — the coordinator drives this object
from its event loop; keeping the policy pure makes every scheduling
property (order, requeue, dedup) unit-testable without a fleet.

Policy:

* **One FIFO** — pending units wait in one global order: ``add_job``
  and a retry append at the back, and an idle worker takes the head.
  Which units could share a warmup image is not the fleet's concern:
  workers run every unit cold (``run_units`` already makes one cell of
  every config in a call), and warmup reuse across calls is a local
  ``warmup_cache``.
* **Fault tolerance** — when a worker is removed, its in-flight unit
  goes back to the *front* of the queue, so survivors pick the
  orphaned work up immediately.
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

__all__ = ["Scheduler", "Assignment", "DEFAULT_MAX_ATTEMPTS"]

#: a unit that errors on this many distinct attempts fails its job —
#: the simulator is deterministic, so one genuine failure would repeat
#: on every worker; >1 attempts only paper over death-adjacent noise.
DEFAULT_MAX_ATTEMPTS = 3

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
    busy: Optional[UnitId] = None
    completed: int = 0


@dataclass
class _JobState:
    units: List[SweepUnit]
    done: Set[int] = field(default_factory=set)
    failed: bool = False


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
        """Drop a worker; requeue its in-flight unit (front of queue).

        Returns ``(requeued, fatal)``: a death consumes the unit's
        current attempt just like a ``unit_error`` does, so a unit
        that reliably *kills* its worker (OOM, segfaulting extension)
        exhausts ``max_attempts`` and lands in ``fatal`` instead of
        livelocking a self-respawning fleet forever. The caller fails
        the fatal units' jobs."""
        w = self._workers.pop(name, None)
        if w is None:
            return [], []
        requeued: List[UnitId] = []
        fatal: List[UnitId] = []
        if w.busy is not None and w.busy in self._units:
            if self._units[w.busy].attempts >= self.max_attempts:
                fatal.append(w.busy)
            else:
                self._enqueue(w.busy, front=True)
                requeued.append(w.busy)
                self.requeues += 1
        return requeued, fatal

    def worker_names(self) -> List[str]:
        return list(self._workers)

    def worker_view(self, name: str) -> _WorkerState:
        return self._workers[name]

    def idle_workers(self) -> List[str]:
        return [n for n, w in self._workers.items() if w.busy is None]

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
        """Hand the head of the queue to an idle worker and mark it
        in-flight. None when the worker is busy or nothing is pending."""
        w = self._workers[name]
        if w.busy is not None or not self._pending:
            return None
        pick = self._pending.popleft()
        self._queued.discard(pick)
        state = self._units[pick]
        w.busy = pick
        state.attempts += 1
        return Assignment(pick[0], pick[1], state.unit)

    # ---- completion --------------------------------------------------
    def complete(self, name: str, job_id: str, idx: int) -> str:
        """Record a result arrival. Returns ``"fresh"`` when this is
        the first completion of a live unit, ``"duplicate"`` when the
        unit already completed (drop the value), ``"unknown"`` for jobs
        this scheduler never saw (e.g. pre-restart leftovers)."""
        w = self._workers.get(name)
        uid = (job_id, idx)
        if w is not None and w.busy == uid:
            w.busy = None
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
        if w is not None and w.busy == uid:
            w.busy = None
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

    def fail_job(self, job_id: str) -> None:
        job = self._jobs.get(job_id)
        if job is not None:
            job.failed = True
        self.cancel_job(job_id)

    # ---- introspection ----------------------------------------------
    def pending_count(self) -> int:
        return len(self._pending)

    def in_flight(self) -> Dict[str, UnitId]:
        return {n: w.busy for n, w in self._workers.items()
                if w.busy is not None}

    def stats(self) -> Dict[str, int]:
        return {
            "workers": len(self._workers),
            "pending": len(self._pending),
            "in_flight": len(self.in_flight()),
            "jobs": len(self._jobs),
            "requeues": self.requeues,
            "duplicates": self.duplicates,
        }
