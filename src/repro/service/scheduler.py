"""Pure scheduling state machine for the sweep coordinator.

No sockets, no threads, no clocks — the coordinator holds a lock and
drives this object; keeping the policy pure makes every scheduling
property (affinity, requeue, dedup) unit-testable without a fleet.

Policy:

* **Warmup-prefix affinity** — units sharing a ``warmup_key`` (their
  :class:`ExperimentConfig` prefix) are routed to the worker that
  *owns* that prefix, so each warmup image is built once and every
  later unit of the prefix forks from the worker's local copy. An idle
  worker first drains its own prefixes, then claims an unowned one.
  It never steals a prefix whose owner is alive: affinity is worth a
  little tail latency (a stolen unit would re-simulate the whole
  warmup anyway, which is the work stealing would be trying to save).
* **Fault tolerance** — when a worker is removed, its in-flight unit
  goes back to the *front* of the queue and its prefix ownerships are
  released, so survivors pick the orphaned work up immediately.
* **Idempotent completion** — a (job, idx) completes at most once.
  Late duplicate results (a worker declared dead that was merely slow,
  a unit retried after a kill that had actually finished) are reported
  as duplicates and must be dropped by the caller. Retried units stay
  bit-identical because runs are seeded by config, never by worker.

The queue is one global order (``add_job`` / retry append at the back,
a dead worker's unit goes to the front) held as an index, so
assignment never scans it: every pending unit has a sequence number
(``_seq``: back positive and rising, front negative and falling), a
FIFO per prefix (``_queues``), and per owner — ``None`` for unowned —
a heap of ``(head sequence, prefix)`` (``_ready``). "First pending unit
this worker owns, else first of an unowned prefix" is the top live
entry of two heaps. Heap entries are never removed in place: one is
live while its prefix still belongs to that heap's owner and still has
that sequence number at its head, and dead ones are dropped when they
surface. A unit's prefix hash is computed once, in ``add_job``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
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
    prefix: str
    attempts: int = 0


@dataclass
class _WorkerState:
    name: str
    busy: Optional[UnitId] = None
    prefixes: Set[str] = field(default_factory=set)
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
        self._prefix_owner: Dict[str, str] = {}
        # the pending index (module docstring)
        self._seq: Dict[UnitId, int] = {}
        self._last_seq = 0
        self._queues: Dict[str, Deque[UnitId]] = {}
        self._ready: Dict[Optional[str], List[Tuple[int, str]]] = {None: []}
        self.requeues = 0
        self.duplicates = 0

    # ---- pending index -----------------------------------------------
    @property
    def _pending(self) -> List[UnitId]:
        """The queue in order — for snapshots and tests; nothing on
        the dispatch path reads it."""
        return sorted(self._seq, key=self._seq.__getitem__)

    def _advertise(self, prefix: str) -> None:
        """``prefix`` has a new head or a new owner: list it with its
        current owner's heap."""
        entry = (self._seq[self._queues[prefix][0]], prefix)
        heappush(self._ready[self._prefix_owner.get(prefix)], entry)

    def _enqueue(self, uid: UnitId, front: bool = False) -> None:
        prefix = self._units[uid].prefix
        queue = self._queues.get(prefix)
        if queue is None:
            queue = self._queues[prefix] = deque()
        self._last_seq += 1
        if front:
            if uid in self._seq:  # one copy only: it moves to the front
                queue.remove(uid)
            self._seq[uid] = -self._last_seq
            queue.appendleft(uid)
        else:
            self._seq[uid] = self._last_seq
            queue.append(uid)
        if queue[0] == uid:
            self._advertise(prefix)

    def _unqueue(self, uid: UnitId, prefix: str) -> None:
        """Take a pending unit out: O(1) at the head of its prefix
        (every assignment), a scan of that one prefix otherwise."""
        del self._seq[uid]
        queue = self._queues[prefix]
        if queue[0] != uid:
            queue.remove(uid)
        else:
            queue.popleft()
            if queue:
                self._advertise(prefix)
            else:
                del self._queues[prefix]

    def _first_ready(self, owner: Optional[str]) -> Optional[UnitId]:
        """The first pending unit among ``owner``'s prefixes."""
        heap = self._ready[owner]
        while heap:
            seq, prefix = heap[0]
            queue = self._queues.get(prefix)
            if (queue is not None and self._seq[queue[0]] == seq
                    and self._prefix_owner.get(prefix) == owner):
                return queue[0]
            heappop(heap)
        return None

    # ---- workers -----------------------------------------------------
    def add_worker(self, name: str) -> None:
        if name in self._workers:
            raise ValueError(f"worker {name!r} already registered")
        self._workers[name] = _WorkerState(name)
        self._ready[name] = []

    def remove_worker(self, name: str
                      ) -> Tuple[List[UnitId], List[UnitId]]:
        """Drop a worker; requeue its in-flight unit (front of queue)
        and release its prefix ownerships.

        Returns ``(requeued, fatal)``: a death consumes the unit's
        current attempt just like a ``unit_error`` does, so a unit
        that reliably *kills* its worker (OOM, segfaulting extension)
        exhausts ``max_attempts`` and lands in ``fatal`` instead of
        livelocking a self-respawning fleet forever. The caller fails
        the fatal units' jobs."""
        w = self._workers.pop(name, None)
        if w is None:
            return [], []
        del self._ready[name]
        for prefix in w.prefixes:
            if self._prefix_owner.get(prefix) == name:
                del self._prefix_owner[prefix]
                if prefix in self._queues:
                    self._advertise(prefix)
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
            self._units[uid] = _UnitState(unit, unit.warmup_key)
            self._enqueue(uid)

    def cancel_job(self, job_id: str) -> None:
        """Forget a job (its client went away): pending units are
        dropped; in-flight results will be reported as duplicates."""
        job = self._jobs.pop(job_id, None)
        if job is None:
            return
        touched: Set[str] = set()
        for idx in range(len(job.units)):
            uid = (job_id, idx)
            state = self._units.pop(uid, None)
            if state is not None and self._seq.pop(uid, None) is not None:
                touched.add(state.prefix)
        for prefix in touched:
            queue = deque(u for u in self._queues[prefix]
                          if u[0] != job_id)
            if queue:
                self._queues[prefix] = queue
                self._advertise(prefix)
            else:
                del self._queues[prefix]

    def job_done(self, job_id: str) -> bool:
        job = self._jobs[job_id]
        return len(job.done) == len(job.units)

    def job_remaining(self, job_id: str) -> int:
        job = self._jobs[job_id]
        return len(job.units) - len(job.done)

    # ---- assignment --------------------------------------------------
    def next_unit_for(self, name: str) -> Optional[Assignment]:
        """Pick the next unit for an idle worker (affinity-aware) and
        mark it in-flight. None when nothing is assignable."""
        w = self._workers[name]
        if w.busy is not None:
            return None
        pick = self._first_ready(name)
        if pick is None:
            pick = self._first_ready(None)  # claim an unowned prefix
        if pick is None:
            return None
        state = self._units[pick]
        prefix = state.prefix
        self._prefix_owner.setdefault(prefix, name)
        self._unqueue(pick, prefix)
        w.prefixes.add(prefix)
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
        state = self._units.pop(uid)
        # a requeued copy may still sit in pending if the "dead" worker
        # raced its result in before reassignment — drop it
        if uid in self._seq:
            self._unqueue(uid, state.prefix)
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
        if uid not in self._seq:
            self._enqueue(uid)
        return "retry"

    def fail_job(self, job_id: str) -> None:
        job = self._jobs.get(job_id)
        if job is not None:
            job.failed = True
        self.cancel_job(job_id)

    # ---- introspection ----------------------------------------------
    def pending_count(self) -> int:
        return len(self._seq)

    def in_flight(self) -> Dict[str, UnitId]:
        return {n: w.busy for n, w in self._workers.items()
                if w.busy is not None}

    def stats(self) -> Dict[str, int]:
        return {
            "workers": len(self._workers),
            "pending": len(self._seq),
            "in_flight": len(self.in_flight()),
            "jobs": len(self._jobs),
            "requeues": self.requeues,
            "duplicates": self.duplicates,
        }
