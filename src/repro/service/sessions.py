"""The coordinator's sessions, as one pure state machine.

Workers sign in, take ``assign`` frames and answer ``result`` /
``unit_error`` / ``heartbeat``; clients ``submit`` jobs and get
``accepted``, one ``row`` per unit, then ``done`` (or ``job_failed``).
Every such decision, the job and worker tables and the result memo live
in one :class:`Sessions`, driven by four synchronous inputs —
:meth:`~Sessions.hello`, :meth:`~Sessions.frame`,
:meth:`~Sessions.closed` and :meth:`~Sessions.tick` — where a
connection is anything with ``send(msg)`` and ``close()`` and ``now``
is the owner's monotonic time. Nothing here reads a clock, opens a
socket or awaits, so a test plays workers and a client from a ``for``
loop (``tests/test_service_sessions.py``).

Each input calls the :class:`~repro.service.scheduler.Scheduler` this
object owns directly and then sends what follows from it — the
``welcome``, ``row`` or ``assign`` frames — before it returns, so
nothing interleaves between a result arriving and its row leaving.
After :meth:`~Sessions.stop` every input is ignored: nothing is
mutated or sent but the workers' ``shutdown``.

A worker that closes, errs or stays silent past ``heartbeat_timeout``
is dropped and its in-flight units are requeued. Results are
deduplicated per (job, idx) and memoized by unit config hash in
:attr:`Sessions.memo` (wire values, full results included), so retries
stay idempotent and a resubmit re-simulates nothing. With a
``cache_dir``, metric rows also go to the row store every sweep uses
(:func:`~repro.harness.units.load_row` /
:func:`~repro.harness.units.store_row`): a restarted coordinator, or a
local ``run_units(cache_dir=)``, over that directory serves them.
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigError
from repro.harness.units import SweepUnit, load_row, store_row
from repro.service.errors import FrameError
from repro.service.protocol import (PROTOCOL_VERSION, check_protocol,
                                    frame_field)
from repro.service.scheduler import Scheduler

__all__ = ["Sessions"]

log = logging.getLogger(__name__)


@dataclass
class _WorkerConn:
    name: str
    conn: Any
    pid: Optional[int] = None
    last_seen: float = 0.0


@dataclass
class _Job:
    job_id: str
    client: Any
    units: List[SweepUnit]
    remaining: int
    from_cache: int = 0


class Sessions:
    """Jobs, workers and the result memo of one coordinator (module
    docstring). ``on_shutdown()`` fires when a client asks the fleet to
    shut down; the owner decides when to stop."""

    def __init__(self, *, on_shutdown: Callable[[], None],
                 cache_dir: Optional[str] = None,
                 heartbeat_timeout: float = 8.0) -> None:
        self.cache_dir = cache_dir
        self.heartbeat_timeout = heartbeat_timeout
        self.on_shutdown = on_shutdown
        self.sched = Scheduler()
        self.memo: Dict[str, Any] = {}  # unit key -> wire value
        self.workers: Dict[str, _WorkerConn] = {}
        self.jobs: Dict[str, _Job] = {}
        # conn -> its worker (None: a client), for every live session
        self._sessions: Dict[Any, Optional[_WorkerConn]] = {}
        self._stopping = False
        self._job_seq = self._worker_seq = 0
        # counters surfaced via status (and asserted by the tests)
        self.served_from_cache = self.rows_streamed = 0
        self.units_completed = self.heartbeats_seen = 0

    # ------------------------------------------------------------------
    # the four inputs
    # ------------------------------------------------------------------
    def hello(self, conn: Any, msg: Dict[str, Any], now: float) -> bool:
        """A connection's first frame. Returns whether its session
        continues."""
        if self._stopping:
            return False
        if msg.get("type") != "hello":
            raise FrameError(f"expected hello, got {msg.get('type')!r}")
        check_protocol(msg, peer="peer")
        role = msg.get("role")
        if role not in ("worker", "client"):
            raise FrameError(f"unknown role {role!r}")
        if role == "client":
            self._sessions[conn] = None
            conn.send({"type": "welcome", "protocol": PROTOCOL_VERSION})
            return True
        self._worker_seq += 1
        name = msg.get("name") or f"worker-{self._worker_seq}"
        while name in self.workers:
            name = f"{name}.{self._worker_seq}"  # names must be unique
        worker = _WorkerConn(name, conn, pid=msg.get("pid"), last_seen=now)
        self.workers[name] = self._sessions[conn] = worker
        self.sched.add_worker(name)
        conn.send({"type": "welcome", "name": name,
                   "protocol": PROTOCOL_VERSION})
        log.info("worker %s (pid %s) joined", name, worker.pid)
        self._dispatch()
        return True

    def frame(self, conn: Any, msg: Dict[str, Any], now: float) -> bool:
        """One frame after the hello. Returns whether the session
        continues; frames after the session ended are ignored."""
        if self._stopping or conn not in self._sessions:
            return False
        worker = self._sessions[conn]
        kind = msg["type"]
        if worker is None:
            return self._client_frame(conn, kind, msg)
        worker.last_seen = now
        if kind == "heartbeat":
            self.heartbeats_seen += 1
        elif kind == "result":
            self._on_result(worker, msg)
        elif kind == "unit_error":
            self._on_unit_error(worker, msg)
        elif kind == "bye":
            return False
        else:
            raise FrameError(f"unexpected {kind!r} from worker")
        return True

    def closed(self, conn: Any, now: float) -> None:
        """The connection ended: a worker's in-flight units are
        requeued, a client abandons its unfinished jobs. Idempotent."""
        if self._stopping:
            return
        worker = self._sessions.get(conn, False)  # None: a client
        if worker:
            self._drop_worker(worker, "connection closed")
        elif worker is None:
            del self._sessions[conn]
            for job in [j for j in self.jobs.values() if j.client is conn]:
                del self.jobs[job.job_id]
                self.sched.cancel_job(job.job_id)

    def tick(self, now: float) -> None:
        """Drop every worker silent for longer than
        ``heartbeat_timeout``."""
        if self._stopping:
            return
        for worker in [w for w in self.workers.values()
                       if now - w.last_seen > self.heartbeat_timeout]:
            self._drop_worker(worker, "heartbeat timeout")

    def stop(self) -> None:
        """Teardown: dismiss the workers and ignore every later input."""
        self._stopping = True
        for worker in self.workers.values():
            worker.conn.send({"type": "shutdown"})

    # ------------------------------------------------------------------
    # workers and clients
    # ------------------------------------------------------------------
    def _drop_worker(self, worker: _WorkerConn, reason: str) -> None:
        """Requeue a dropped worker's units. Units whose attempts a
        repeated worker-killer exhausted fail their jobs instead of
        circling through yet another worker."""
        del self.workers[worker.name]
        del self._sessions[worker.conn]
        worker.conn.close()
        requeued, fatal = self.sched.remove_worker(worker.name)
        for job_id, idx in fatal:
            self._fail_job(job_id, idx,
                           f"unit killed its worker {self.sched.max_attempts}"
                           f" times (last: {worker.name}, {reason})")
        log.info("worker %s left (%s); requeued %s", worker.name, reason,
                 [f"{j}#{i}" for j, i in requeued])
        self._dispatch()

    def _on_result(self, worker: _WorkerConn, msg: Dict[str, Any]) -> None:
        job_id = frame_field(msg, "job", str)
        idx = frame_field(msg, "idx", int)
        if "value" not in msg:
            raise FrameError("malformed 'result' frame: no 'value'")
        value = msg["value"]
        verdict = self.sched.complete(worker.name, job_id, idx)
        if verdict != "fresh":
            log.info("dropped %s result %s#%d from %s", verdict, job_id,
                     idx, worker.name)
        else:
            job = self.jobs[job_id]
            job.remaining -= 1
            self.units_completed += 1
            self._store_result(job.units[idx], value)
            job.client.send({"type": "row", "job": job_id, "idx": idx,
                             "value": value})
            self.rows_streamed += 1
            if job.remaining == 0:
                self._finish_job(job)
        self._dispatch()

    def _on_unit_error(self, worker: _WorkerConn,
                       msg: Dict[str, Any]) -> None:
        job_id = frame_field(msg, "job", str)
        idx = frame_field(msg, "idx", int)
        error = msg.get("error", "unknown unit error")
        if msg.get("traceback"):
            log.info("worker traceback for %s#%d:\n%s", job_id, idx,
                     msg["traceback"])
        verdict = self.sched.fail(worker.name, job_id, idx)
        log.info("unit %s#%d failed on %s (%s): %s", job_id, idx,
                 worker.name, verdict, error)
        if verdict == "fatal":
            self._fail_job(job_id, idx, error)
        self._dispatch()

    def _client_frame(self, conn: Any, kind: str,
                      msg: Dict[str, Any]) -> bool:
        if kind == "ping":
            conn.send({"type": "pong"})
        elif kind == "status":
            conn.send(self._status_reply())
        elif kind == "submit":
            self._on_submit(conn, msg)
        elif kind == "shutdown":
            conn.send({"type": "bye"})
            self.on_shutdown()
            return False
        elif kind == "bye":
            return False
        else:
            raise FrameError(f"unexpected {kind!r} from client")
        return True

    def _on_submit(self, conn: Any, msg: Dict[str, Any]) -> None:
        try:
            units = [SweepUnit.from_wire(w) for w in msg["units"]]
        except (ConfigError, KeyError, TypeError) as exc:
            # malformed submits get the typed error reply the protocol
            # promises, not a bare connection drop (ConfigError is a
            # ReproError, which the owner's read loop would not catch)
            raise FrameError(f"malformed submit: {exc}") from exc
        self._job_seq += 1
        job_id = f"job-{self._job_seq}"
        cached = []
        for idx, unit in enumerate(units):
            key = unit.key()
            if key not in self.memo:
                value = load_row(self.cache_dir, unit)
                if value is None:
                    continue
                self.memo[key] = value
            cached.append([idx, self.memo[key]])
        self.served_from_cache += len(cached)
        job = _Job(job_id, conn, units, remaining=len(units) - len(cached),
                   from_cache=len(cached))
        log.info("%s: %d units (%d from cache)", job_id, len(units),
                 len(cached))
        conn.send({"type": "accepted", "job": job_id, "total": len(units),
                   "cached": cached})
        if job.remaining == 0:  # the memo served it all
            self._finish_job(job)
            return
        self.jobs[job_id] = job
        self.sched.add_job(job_id, units, skip={idx for idx, _ in cached})
        self._dispatch()

    def _finish_job(self, job: _Job) -> None:
        log.info("%s: done (cached=%d)", job.job_id, job.from_cache)
        # release the scheduler's job state too (unit lists would
        # otherwise accumulate for the coordinator's lifetime, and
        # status would report finished jobs as live)
        if self.jobs.pop(job.job_id, None) is not None:
            self.sched.cancel_job(job.job_id)
        job.client.send({"type": "done", "job": job.job_id,
                         "from_cache": job.from_cache})

    def _fail_job(self, job_id: str, idx: int, error: str) -> None:
        job = self.jobs.pop(job_id, None)
        if job is not None:  # else it already ended
            self.sched.cancel_job(job_id)
            job.client.send({"type": "job_failed", "job": job_id,
                             "idx": idx, "error": error})

    def _status_reply(self) -> Dict[str, Any]:
        workers = []
        for name, w in self.workers.items():
            view = self.sched.worker_view(name)
            workers.append({"name": name, "pid": w.pid,
                            "completed": view.completed,
                            "busy": [list(u) for u in view.busy]})
        stats = self.sched.stats()
        stats.update(served_from_cache=self.served_from_cache,
                     rows_streamed=self.rows_streamed,
                     units_completed=self.units_completed,
                     heartbeats_seen=self.heartbeats_seen,
                     results_cached=len(self.memo))
        return {"type": "status_reply", "workers": workers,
                "stats": stats, "pid": os.getpid()}

    def _dispatch(self) -> None:
        """Fill free worker slots from the queue and send the
        ``assign`` frames."""
        for name, a in self.sched.dispatch():
            self.workers[name].conn.send(
                {"type": "assign", "job": a.job_id, "idx": a.idx,
                 "unit": a.unit.to_wire()})

    def _store_result(self, unit: SweepUnit, value: Any) -> None:
        """Memoize one wire value and store its row. A failed write is
        logged, not raised: a coordinator on a full or read-only disk
        keeps serving from memory."""
        self.memo[unit.key()] = value
        try:
            store_row(self.cache_dir, unit, value)
        except OSError as exc:
            log.warning("row of %s not stored: %s", unit.key(), exc)
