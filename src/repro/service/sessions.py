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
socket or awaits, so a test plays workers, a client and three replicas
from a ``for`` loop (``tests/test_service_sessions.py``).

Every scheduler mutation is a command committed through the
:class:`~repro.service.cluster.ClusterManager` this object owns and
applied by each replica's :class:`~repro.service.replica.SchedulerMachine`
once a majority holds it; the ``welcome``, ``row`` or ``assign`` frames
that follow are its continuation, a bound method or a ``partial``. A
quorum of one leads from its first instant, runs the continuation
before ``commit`` returns — nothing interleaves between a result
arriving and its row leaving — and retains no log. Only the ready
leader serves (the others answer ``hello`` with a ``redirect``; a new
leader is ready once its ``reset`` committed). A failed commit ends the
session of the peer whose frame caused it with the typed ``error``
frame; a failed cleanup commit is dropped — the next leader's ``reset``
supersedes it.

A worker that closes, errs or stays silent past ``heartbeat_timeout``
is dropped and its in-flight units are requeued. Results are
deduplicated per (job, idx) and memoized by unit config hash — in the
replicated memo, and on disk under ``cache_dir`` — so retries stay
idempotent and a resubmit (after fail-over, or to a restarted
coordinator over a warm cache directory) re-simulates nothing.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigError
from repro.harness.units import SweepUnit
from repro.service.cluster import ClusterConfig, ClusterManager
from repro.service.errors import FrameError, ServiceError
from repro.service.protocol import (PROTOCOL_VERSION, check_protocol,
                                    frame_field)
from repro.service.replica import SchedulerMachine
from repro.sim.snapshot import save_file

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
    """Jobs, workers and the result memo of one coordinator replica
    (module docstring). ``on_shutdown()`` fires when a ``shutdown``
    command commits; the owner decides when to stop."""

    def __init__(self, cfg: ClusterConfig, links: Dict[int, Any], *,
                 seed: int, now: float, on_shutdown: Callable[[], None],
                 cache_dir: Optional[str] = None,
                 heartbeat_timeout: float = 8.0) -> None:
        self.cache_dir = cache_dir
        self.heartbeat_timeout = heartbeat_timeout
        self.on_shutdown = on_shutdown
        self.machine = SchedulerMachine()
        self.sched = self.machine.sched
        self.workers: Dict[str, _WorkerConn] = {}
        self.jobs: Dict[str, _Job] = {}
        # conn -> its worker (None: a client), for every live session
        self._sessions: Dict[Any, Optional[_WorkerConn]] = {}
        self._lead_ready = self._fleet_shutdown = self._stopping = False
        self._job_seq = self._worker_seq = 0
        # counters surfaced via status (and asserted by the tests)
        self.served_from_cache = self.rows_streamed = 0
        self.units_completed = self.heartbeats_seen = 0
        self.mgr = ClusterManager(cfg, self.machine, links, seed=seed,
                                  on_apply=self._on_apply,
                                  on_role_change=self._on_role_change)
        self.mgr.start(now)

    # ------------------------------------------------------------------
    # the four inputs
    # ------------------------------------------------------------------
    def hello(self, conn: Any, msg: Dict[str, Any], now: float) -> bool:
        """A connection's first frame. Returns whether its session
        continues (a follower's ``redirect`` ends it)."""
        if msg.get("type") != "hello":
            raise FrameError(f"expected hello, got {msg.get('type')!r}")
        check_protocol(msg, peer="peer")
        role = msg.get("role")
        if role not in ("worker", "client"):
            raise FrameError(f"unknown role {role!r}")
        if not (self.mgr.is_leader and self._lead_ready):
            conn.send({"type": "redirect", "term": self.mgr.core.term,
                       "leader": self.mgr.leader_address})
            return False
        if role == "client":
            self._sessions[conn] = None
            conn.send({"type": "welcome", "protocol": PROTOCOL_VERSION})
            return True
        self._worker_seq += 1
        name = msg.get("name") or f"worker-{self._worker_seq}"
        while name in self.workers or name in self.sched.worker_names():
            name = f"{name}.{self._worker_seq}"  # names must be unique
        # the name is taken from here on, welcomed or not
        worker = _WorkerConn(name, conn, pid=msg.get("pid"), last_seen=now)
        self.workers[name] = self._sessions[conn] = worker
        self._commit({"op": "worker_add", "name": name},
                     partial(self._signed_in, worker), peer=conn)
        return True

    def frame(self, conn: Any, msg: Dict[str, Any], now: float) -> bool:
        """One frame after the hello. Returns whether the session
        continues; frames after the session ended are ignored."""
        if conn not in self._sessions:
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
        self._end(conn)

    def tick(self, now: float) -> None:
        """Step the consensus manager and drop every worker silent for
        longer than ``heartbeat_timeout``."""
        self.mgr.tick(now)
        for worker in [w for w in self.workers.values()
                       if now - w.last_seen > self.heartbeat_timeout]:
            self._drop_worker(worker, "heartbeat timeout")

    def stop(self) -> None:
        """Teardown: fail pending commits and commit nothing more. The
        workers are dismissed when the fleet stops with this replica."""
        self._stopping = True
        self.mgr.stop()
        if self._fleet_shutdown or not self.mgr.core.peers():
            for worker in self.workers.values():
                worker.conn.send({"type": "shutdown"})

    # ------------------------------------------------------------------
    # the commit path
    # ------------------------------------------------------------------
    def _commit(self, cmd: Dict[str, Any],
                then: Optional[Callable[[Any], None]] = None,
                peer: Any = None) -> None:
        """The one write path to scheduler state: replicate ``cmd`` to
        a majority, apply it, then ``then(result)``. A failed commit
        ends the session of ``peer`` — whose frame caused it, or who
        waits on it — with the typed error; without a peer it is
        dropped (the next leader's ``reset`` supersedes it)."""
        if not self._stopping:  # else quorum traffic is torn down
            self.mgr.commit(cmd, partial(self._settled, cmd, then, peer))

    def _settled(self, cmd: Dict[str, Any],
                 then: Optional[Callable[[Any], None]], peer: Any,
                 result: Any, error: Optional[ServiceError]) -> None:
        if error is None:
            if then is not None:
                then(result)
        elif peer is not None:
            self._end(peer, error)
        else:
            log.info("command %r dropped: %s", cmd.get("op"), error)

    def _end(self, conn: Any, error: Optional[ServiceError] = None) -> None:
        """End ``conn``'s session, if live; ``error`` tells the peer why."""
        worker = self._sessions.get(conn, False)  # None: a client
        if worker is not False and error is not None:
            conn.send({"type": "error", "error": str(error)})
            conn.close()
        if worker:
            self._drop_worker(worker, str(error or "connection closed"))
        elif worker is None:
            del self._sessions[conn]
            for job in [j for j in self.jobs.values() if j.client is conn]:
                del self.jobs[job.job_id]
                self._commit({"op": "job_cancel", "job": job.job_id})

    def _on_apply(self, cmd: Dict[str, Any], result: Any) -> None:
        """Fires on every replica for every committed command."""
        if cmd.get("op") == "shutdown":
            self._fleet_shutdown = True
            self.on_shutdown()

    def _on_role_change(self, won: bool) -> None:
        if won:
            # a clean worker/job slate on every replica, then serve
            self._commit({"op": "reset"}, self._reset_done)
            return
        # Deposed: drop every client/worker session (they re-sign-in
        # with the new leader, whose reset command rebuilds the
        # machine); replica links stay up — they carry the consensus.
        self._lead_ready = False
        self.jobs.clear()
        self.workers.clear()
        sessions, self._sessions = self._sessions, {}
        for conn in sessions:
            conn.close()

    def _reset_done(self, result: Any) -> None:
        self._lead_ready = True
        log.info("leader ready (reset committed)")

    # ------------------------------------------------------------------
    # workers and clients
    # ------------------------------------------------------------------
    def _signed_in(self, worker: _WorkerConn, result: Any) -> None:
        if self.workers.get(worker.name) is not worker:
            return  # dropped while worker_add was committing
        worker.conn.send({"type": "welcome", "name": worker.name,
                          "protocol": PROTOCOL_VERSION})
        log.info("worker %s (pid %s) joined", worker.name, worker.pid)
        self._dispatch()

    def _drop_worker(self, worker: _WorkerConn, reason: str) -> None:
        del self.workers[worker.name]
        del self._sessions[worker.conn]
        worker.conn.close()
        self._commit({"op": "worker_remove", "name": worker.name},
                     partial(self._reaped, worker.name, reason))

    def _reaped(self, name: str, reason: str, res: Any) -> None:
        """Units whose attempts a repeated worker-killer exhausted fail
        their jobs instead of circling through yet another worker."""
        for job_id, idx in res["fatal"]:
            self._fail_job(job_id, idx,
                           f"unit killed its worker {self.sched.max_attempts}"
                           f" times (last: {name}, {reason})")
        log.info("worker %s left (%s); requeued %s", name, reason,
                 [f"{j}#{i}" for j, i in res["requeued"]])
        self._dispatch()

    def _on_result(self, worker: _WorkerConn, msg: Dict[str, Any]) -> None:
        job_id = frame_field(msg, "job", str)
        idx = frame_field(msg, "idx", int)
        if "value" not in msg:
            raise FrameError("malformed 'result' frame: no 'value'")
        value = msg["value"]
        # the memo key rides the command so every replica's machine
        # learns the value — that is what makes fail-over cheap
        job = self.jobs.get(job_id)
        key = (job.units[idx].key()
               if job is not None and 0 <= idx < len(job.units) else None)
        self._commit({"op": "complete", "name": worker.name,
                      "job": job_id, "idx": idx, "key": key,
                      "value": value},
                     partial(self._completed, worker.name, job_id, idx,
                             key, value), peer=worker.conn)

    def _completed(self, name: str, job_id: str, idx: int,
                   key: Optional[str], value: Any, verdict: Any) -> None:
        job = self.jobs.get(job_id)
        if verdict != "fresh" or job is None:
            log.info("dropped %s result %s#%d from %s", verdict, job_id,
                     idx, name)
        else:
            job.remaining -= 1
            self.units_completed += 1
            self._store_result(key, value)
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
        self._commit({"op": "unit_fail", "name": worker.name,
                      "job": job_id, "idx": idx},
                     partial(self._unit_failed, worker.name, job_id, idx,
                             error), peer=worker.conn)

    def _unit_failed(self, name: str, job_id: str, idx: int, error: str,
                     verdict: Any) -> None:
        log.info("unit %s#%d failed on %s (%s): %s", job_id, idx, name,
                 verdict, error)
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
            # the whole quorum goes down via the log, so the decision
            # survives any single replica
            self._commit({"op": "shutdown"})
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
        # globally unique across leaders: a surviving worker's stale
        # in-flight result must never complete a *different* job that
        # reused the id under a new leader
        job_id = (f"job-r{self.mgr.cfg.node_id}."
                  f"{self.mgr.core.term}.{self._job_seq}")
        cached = []
        for idx, unit in enumerate(units):
            value = self._load_result(unit)
            if value is not None:
                cached.append([idx, value[0]])
        self.served_from_cache += len(cached)
        job = _Job(job_id, conn, units, remaining=len(units) - len(cached),
                   from_cache=len(cached))
        accepted = {"type": "accepted", "job": job_id,
                    "total": len(units), "cached": cached}
        log.info("%s: %d units (%d from cache)", job_id, len(units),
                 len(cached))
        if job.remaining == 0:  # the memo served it all: nothing to log
            conn.send(accepted)
            self._finish_job(job)
            return
        # live before the commit lands, so a client that vanishes
        # meanwhile cancels it; replicated before "accepted", so a
        # quorum owns every job a client has heard of
        self.jobs[job_id] = job
        self._commit({"op": "job_add", "job": job_id, "units": msg["units"],
                      "skip": [idx for idx, _ in cached]},
                     partial(self._accepted, accepted), peer=conn)

    def _accepted(self, accepted: Dict[str, Any], result: Any) -> None:
        job = self.jobs.get(accepted["job"])
        if job is not None:
            job.client.send(accepted)
            self._dispatch()

    def _finish_job(self, job: _Job) -> None:
        done = {"type": "done", "job": job.job_id,
                "from_cache": job.from_cache}
        log.info("%s: done (cached=%d)", job.job_id, job.from_cache)
        if self.jobs.pop(job.job_id, None) is None:
            job.client.send(done)  # the machine never saw it
            return
        # release the scheduler's job state too (unit lists would
        # otherwise accumulate for the coordinator's lifetime, and
        # status would report finished jobs as live)
        self._commit({"op": "job_cancel", "job": job.job_id},
                     partial(self._tell, job.client, done), peer=job.client)

    def _fail_job(self, job_id: str, idx: int, error: str) -> None:
        job = self.jobs.pop(job_id, None)
        if job is not None:  # else a commit already released it
            self._commit({"op": "job_fail", "job": job_id},
                         partial(self._tell, job.client,
                                 {"type": "job_failed", "job": job_id,
                                  "idx": idx, "error": error}),
                         peer=job.client)

    def _tell(self, conn: Any, frame: Dict[str, Any], result: Any) -> None:
        """A continuation that sends ``frame`` on ``conn``, unless its
        session ended while the commit was landing."""
        if conn in self._sessions:
            conn.send(frame)

    def _status_reply(self) -> Dict[str, Any]:
        workers = [{"name": name, "pid": w.pid, "completed": v.completed,
                    "busy": [list(u) for u in v.busy]}
                   for name, w in self.workers.items()
                   # no view while the worker_add is still committing
                   if (v := self.sched.worker_view(name)) is not None]
        stats = self.sched.stats()
        stats.update(served_from_cache=self.served_from_cache,
                     rows_streamed=self.rows_streamed,
                     units_completed=self.units_completed,
                     heartbeats_seen=self.heartbeats_seen,
                     results_cached=len(self.machine.memo))
        return {"type": "status_reply", "workers": workers,
                "stats": stats, "pid": os.getpid(),
                "cluster": self.mgr.status()}

    def _dispatch(self) -> None:
        """Fill free worker slots from the queue. One replicated
        ``dispatch`` command runs the whole assignment loop inside the
        machine, so every replica agrees on who runs what; the leader
        then sends the ``assign`` frames."""
        if self.sched.free_workers() and self.sched.pending_count():
            self._commit({"op": "dispatch"}, self._assign)

    def _assign(self, assignments: List[Dict[str, Any]]) -> None:
        for a in assignments:
            # a worker gone inside the commit window: its worker_remove
            # commit requeues the unit (a unit of a job gone meanwhile
            # still goes out — its result frees the worker's slot)
            worker = self.workers.get(a["worker"])
            if worker is not None:
                worker.conn.send({"type": "assign", "job": a["job"],
                                  "idx": a["idx"], "unit": a["unit"]})

    # ------------------------------------------------------------------
    # result memo (idempotency + restart warm cache)
    # ------------------------------------------------------------------
    def _cache_path(self, key: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, f"{key}.result.json")

    def _load_result(self, unit: SweepUnit):
        """Returns a 1-tuple holding the memoized value, or None."""
        key = unit.key()
        if key in self.machine.memo:
            return (self.machine.memo[key],)
        if self.cache_dir is not None:
            try:
                with open(self._cache_path(key)) as f:
                    value = json.load(f)["value"]
            except (OSError, ValueError, KeyError):
                return None
            self.machine.memo[key] = value
            return (value,)
        return None

    def _store_result(self, key: Optional[str], value: Any) -> None:
        """Persist one memoized value to the cache directory (the
        in-memory memo is the machine's — the ``complete`` command
        already recorded it). A failed write is non-fatal, and
        ``save_file`` removes its staging file when it fails: a
        long-lived coordinator on a full/read-only disk must not shed
        tmp litter on every completion."""
        if key is None:
            return
        self.machine.memo[key] = value  # idempotent next to the command
        if self.cache_dir is not None and isinstance(
                value, (int, float, dict)):
            try:
                os.makedirs(self.cache_dir, exist_ok=True)
                save_file(self._cache_path(key), json.dumps(
                    {"key": key, "value": value}).encode())
            except OSError:
                pass
