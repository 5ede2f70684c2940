"""The sweep coordinator: accepts jobs, shards units across workers.

One listening socket serves both roles; the first message of every
connection is a ``hello`` naming its role (and, mandatorily, its
protocol version):

* **workers** register, then loop receiving ``assign`` messages and
  pushing ``result``/``unit_error``/``heartbeat``;
* **clients** ``submit`` jobs (lists of wire-encoded
  :class:`~repro.harness.units.SweepUnit`, the one unit type), then
  receive ``row``
  messages streamed as units complete, closed by ``done`` (or
  ``job_failed``). ``status``/``ping``/``shutdown`` are one-shot
  requests.

Fault tolerance: a worker that EOFs, errors, or misses heartbeats past
``heartbeat_timeout`` is dropped and its in-flight units requeued at the
front of the queue (:class:`~repro.service.scheduler.Scheduler`).
Results are deduplicated per (job, idx) *and* memoized by unit config
hash — in memory always, on disk when ``cache_dir`` is given — so
retried units stay idempotent and a restarted coordinator with a warm
cache directory serves repeat jobs without re-simulating anything.

Concurrency model: a single-threaded asyncio event loop (running in
one background thread so ``start()``/``stop()`` keep their blocking
API). Every connection — accepted or dialed — is one
:class:`~repro.service.transport.Connection`: a reader coroutine plus
one writer task draining a per-connection queue, so sends never block
the loop and a peer that stops draining its receive buffer becomes a
bounded ``SEND_TIMEOUT`` abort of its own connection — not a wedged
fleet. Scheduler, job table and result memo are touched only from the
loop thread: there are no locks, and no thread-per-connection ceiling
— one coordinator holds hundreds of idle worker connections at the
cost of one queue and two tasks each (``tests/test_service_scale.py``
storms 512 of them). There is one timer coroutine (:meth:`_timer`): it
compares worker ``last_seen`` stamps against monotonic ``loop.time()``
and steps the consensus state machine. The heavy work happens in
worker *processes*, never here.

Replication: every coordinator is one replica of the quorum its
:class:`~repro.service.cluster.ClusterConfig` names — without one, the
only member of a quorum of one at the bound address. Every scheduler
mutation flows through :meth:`_commit` — a command appended to the
replicated log, applied by each replica's
:class:`~repro.service.replica.SchedulerMachine` once a majority
holds it. The :class:`~repro.service.cluster.ClusterManager` is a pure
state machine; this module owns everything timed or connected around
it — the future a commit resolves, one reconnecting outbound link per
peer (:meth:`_peer_link`) and the timer that calls ``tick``. Only the
(ready) leader serves clients and workers; the others answer ``hello``
with a ``redirect``. A coordinator without peers leads from its first
instant (it never redirects), commits without suspending and retains
no log.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
from dataclasses import dataclass
from functools import partial
from typing import Any, Coroutine, Dict, List, Optional, Set

from repro.errors import ConfigError
from repro.harness.units import SweepUnit
from repro.service.cluster import (TICK_INTERVAL, ClusterConfig,
                                   ClusterManager)
from repro.service.errors import (FrameError, ProtocolMismatch,
                                  ServiceError)
from repro.service.protocol import PROTOCOL_VERSION, check_protocol
from repro.service.replica import SchedulerMachine
from repro.service.transport import Connection
from repro.sim.snapshot import save_file

__all__ = ["Coordinator"]

#: accept backlog — sized for bursts of a whole fleet signing in at
#: once (``tests/test_service_scale.py`` dials 512 in one loop)
_BACKLOG = 1024


#: pause between a replica link's loss and its next dial
RECONNECT_INTERVAL = 0.3


def _settle(fut: asyncio.Future, result: Any,
            error: Optional[ServiceError]) -> None:
    """A commit's ``done``: resolve the future its caller awaits
    (unless that caller was cancelled meanwhile)."""
    if fut.done():
        return
    if error is not None:
        fut.set_exception(error)
    else:
        fut.set_result(result)


@dataclass
class _WorkerConn:
    name: str
    conn: Connection
    pid: Optional[int] = None
    last_seen: float = 0.0


@dataclass
class _Job:
    job_id: str
    client: Connection
    units: List[Any]
    values: List[Any]
    remaining: int
    from_cache: int = 0


class Coordinator:
    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 cache_dir: Optional[str] = None,
                 heartbeat_timeout: float = 8.0,
                 monitor_interval: float = 0.5,
                 cluster: Optional[ClusterConfig] = None,
                 verbose: bool = False) -> None:
        self.host = host
        self.port = port
        self.cache_dir = cache_dir
        self.heartbeat_timeout = heartbeat_timeout
        self.monitor_interval = monitor_interval
        self.cluster = cluster
        self.verbose = verbose

        # The replicated state: one pure scheduler + result memo.
        # _sched/_results alias into the machine so status (and the
        # tests poking them) read the same state the log applies to.
        self._machine = SchedulerMachine()
        self._sched = self._machine.sched
        self._workers: Dict[str, _WorkerConn] = {}
        self._jobs: Dict[str, _Job] = {}
        self._results = self._machine.memo   # unit key -> value (memo)
        self._cluster_mgr: ClusterManager  # built in _main, after bind
        # peer id -> our outbound connection to it (None while down);
        # shared with the manager, which sends through it
        self._links: Dict[int, Optional[Connection]] = {}
        self._replica_conns: Set[Connection] = set()
        # a new leader serves only after its reset command committed
        self._lead_ready = False
        # one replica stopping must not stop the fleet's workers; only
        # a committed shutdown command (or the last replica) does
        self._fleet_shutdown = False
        self._job_seq = 0
        self._worker_seq = 0
        self._conns: Set[Connection] = set()
        self._conn_tasks: Set[asyncio.Task] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._shutdown_evt: Optional[asyncio.Event] = None
        self._stopping = False  # loop-side flag: teardown has begun
        # counters surfaced via status (and asserted by the tests)
        self.served_from_cache = 0
        self.rows_streamed = 0
        self.units_completed = 0
        self.heartbeats_seen = 0

    # ------------------------------------------------------------------
    # lifecycle (thread-facing API — unchanged from the threaded tier)
    # ------------------------------------------------------------------
    def start(self) -> str:
        """Start the event-loop thread, bind, return ``host:port``."""
        self._thread = threading.Thread(target=self._thread_main,
                                        daemon=True,
                                        name="coordinator-loop")
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._start_error is not None:
            raise self._start_error
        if not self._ready.is_set():
            raise ServiceError("coordinator event loop failed to start")
        return self.address

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def stop(self) -> None:
        """Shut down: tell workers to exit, close every connection.
        Thread-safe and idempotent; blocks until the loop exits."""
        thread = self._thread
        if thread is None:
            self._stopped.set()
            return
        loop = self._loop
        if not self._stopped.is_set() and loop is not None:
            try:
                loop.call_soon_threadsafe(self._request_shutdown)
            except RuntimeError:
                pass  # loop already closed
        if threading.current_thread() is not thread:
            thread.join(timeout=10.0)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`stop` is called (e.g. via a client
        ``shutdown`` message). Returns True when stopped."""
        return self._stopped.wait(timeout)

    def _log(self, msg: str) -> None:
        if self.verbose:
            print(f"[coordinator] {msg}", flush=True)

    # ------------------------------------------------------------------
    # event loop
    # ------------------------------------------------------------------
    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                loop.close()
                self._stopped.set()

    def _request_shutdown(self) -> None:
        if self._shutdown_evt is not None:
            self._shutdown_evt.set()

    # ------------------------------------------------------------------
    # replication plumbing
    # ------------------------------------------------------------------
    def _leading(self) -> bool:
        """May this node serve clients and workers right now?"""
        return self._cluster_mgr.is_leader and self._lead_ready

    async def _commit(self, cmd: Dict[str, Any]) -> Any:
        """The one write path to scheduler state: replicate the
        command to a majority, apply it, return the machine's result.
        Raises :class:`ServiceError` on lost leadership or a lost
        quorum. When this node *is* the majority the future is done
        before it is awaited, and awaiting a done future does not
        suspend — nothing interleaves between a result arriving and
        its row leaving."""
        assert self._loop is not None
        fut = self._loop.create_future()
        self._cluster_mgr.commit(cmd, partial(_settle, fut))
        return await fut

    async def _try_commit(self, cmd: Dict[str, Any]) -> Any:
        """Commit for cleanup paths: lost leadership just drops the
        command (the next leader's ``reset`` supersedes it)."""
        if self._stopping:
            return None  # quorum traffic already torn down
        try:
            return await self._commit(cmd)
        except ServiceError as exc:
            self._log(f"command {cmd.get('op')!r} dropped: {exc}")
            return None

    def _redirect_frame(self) -> Dict[str, Any]:
        return {"type": "redirect", "term": self._cluster_mgr.core.term,
                "leader": self._cluster_mgr.leader_address}

    def _on_apply(self, cmd: Dict[str, Any], result: Any) -> None:
        """Fires on every replica for every committed command."""
        if cmd.get("op") == "shutdown":
            self._fleet_shutdown = True
            mgr = self._cluster_mgr
            if mgr.is_leader and mgr.core.peers():
                # let the commit-index broadcast reach the followers
                # before this loop starts tearing connections down
                assert self._loop is not None
                self._loop.call_later(0.3, self._request_shutdown)
            else:
                self._request_shutdown()

    def _spawn(self, coro: Coroutine) -> None:
        """Run ``coro`` as a task this coordinator's teardown awaits."""
        task = asyncio.ensure_future(coro)
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    def _on_role_change(self, won: bool) -> None:
        if won:
            self._spawn(self._assume_leadership())
            return
        # Deposed: drop every client/worker session (they re-sign-in
        # with the new leader, whose reset command rebuilds the
        # machine); replica links stay up — they carry the consensus.
        self._lead_ready = False
        self._jobs.clear()
        self._workers.clear()
        for conn in list(self._conns):
            if conn not in self._replica_conns:
                conn.close()

    async def _assume_leadership(self) -> None:
        """Won an election: commit a ``reset`` so every replica agrees
        the worker/job slate is clean, then open for business."""
        if (await self._try_commit({"op": "reset"}) == "ok"
                and self._cluster_mgr.is_leader):
            self._lead_ready = True
            self._log("leader ready (reset committed)")

    async def _main(self) -> None:
        self._shutdown_evt = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle_conn, self.host, self.port,
                backlog=_BACKLOG)
        except OSError as exc:
            self._start_error = ServiceError(
                f"cannot bind {self.host}:{self.port}: {exc}")
            self._ready.set()
            return
        self.port = server.sockets[0].getsockname()[1]
        # no configured membership: a quorum of one, at the bound address
        self.cluster = self.cluster or ClusterConfig(
            node_id=0, addresses=[self.address])
        self._cluster_mgr = mgr = ClusterManager(
            self.cluster, self._machine, self._links,
            seed=os.getpid() ^ self.cluster.node_id,
            on_apply=self._on_apply,
            on_role_change=self._on_role_change, log_fn=self._log)
        assert self._loop is not None
        mgr.start(self._loop.time())
        self._ready.set()
        self._log(f"coordinator listening on {self.address} "
                  f"(single-threaded event loop, replica "
                  f"{self.cluster.node_id}/{self.cluster.n_nodes})")
        background = [asyncio.create_task(self._timer())] + [
            asyncio.create_task(self._peer_link(peer))
            for peer in mgr.core.peers()]
        try:
            await self._shutdown_evt.wait()
        finally:
            self._stopping = True
            for task in background:
                task.cancel()
            await asyncio.gather(*background, return_exceptions=True)
            mgr.stop()
            server.close()
            await server.wait_closed()
            if self._fleet_shutdown or not self._cluster_mgr.core.peers():
                for w in list(self._workers.values()):
                    w.conn.send({"type": "shutdown"})
            for conn in list(self._conns):
                conn.close()
            handlers = [t for t in self._conn_tasks if not t.done()]
            if handlers:
                await asyncio.wait(handlers, timeout=3.0)
            for t in handlers:
                if not t.done():
                    t.cancel()
            if handlers:
                await asyncio.wait(handlers, timeout=1.0)
            for conn in list(self._conns):
                conn.abort()

    # ------------------------------------------------------------------
    # per-connection handling
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        conn = Connection(reader, writer)
        self._conns.add(conn)
        try:
            hello = await conn.read(30.0)
            if hello.get("type") == "replica-hello":
                check_protocol(hello, peer="replica peer")
                await self._serve_replica(conn, hello)
            elif hello.get("type") != "hello":
                raise FrameError(f"expected hello, got "
                                 f"{hello.get('type')!r}")
            else:
                check_protocol(hello, peer="peer")
                role = hello.get("role")
                if role == "worker":
                    await self._serve_worker(conn, hello)
                elif role == "client":
                    await self._serve_client(conn)
                else:
                    raise FrameError(f"unknown role {role!r}")
        except asyncio.TimeoutError:
            pass  # never said hello — drop silently
        except (ServiceError, OSError, ConnectionError) as exc:
            if not self._stopping:
                self._log(f"connection dropped: {exc}")
            error = {"type": "error", "error": str(exc)}
            if isinstance(exc, ProtocolMismatch):
                error["code"] = "protocol-mismatch"
                error["expected"] = PROTOCOL_VERSION
            conn.send(error)
        finally:
            self._conns.discard(conn)
            conn.close()
            await conn.wait_closed()

    # ------------------------------------------------------------------
    # replica side
    # ------------------------------------------------------------------
    async def _serve_replica(self, conn: Connection,
                             hello: Dict[str, Any]) -> None:
        assert self._loop is not None
        node = hello.get("node")
        if node not in self._cluster_mgr.core.peers():
            # consensus frames from a non-member could depose the leader
            raise FrameError(f"replica {node!r} is not a member of "
                             f"this quorum")
        self._log(f"replica {node} connected")
        self._replica_conns.add(conn)
        try:
            while not self._stopping:
                msg = await conn.read()
                self._cluster_mgr.handle_message(msg, conn.send,
                                                 self._loop.time())
        finally:
            self._replica_conns.discard(conn)

    async def _peer_link(self, peer: int) -> None:
        """Our outbound link to replica ``peer``: dial, say
        ``replica-hello``, feed what comes back to the manager, and
        redial forever — a dead peer is a normal condition (the quorum
        rule, not the link, decides what that means)."""
        assert self._loop is not None and self.cluster is not None
        while True:
            conn = None
            try:
                conn = await Connection.open(
                    self.cluster.addresses[peer], 5.0)
                conn.send({"type": "replica-hello",
                           "node": self.cluster.node_id,
                           "protocol": PROTOCOL_VERSION})
                self._links[peer] = conn
                while True:
                    self._cluster_mgr.handle_message(
                        await conn.read(), conn.send, self._loop.time())
            except (OSError, ServiceError, asyncio.TimeoutError):
                pass
            finally:
                self._links[peer] = None
                if conn is not None:
                    conn.abort()
            await asyncio.sleep(RECONNECT_INTERVAL)

    # ------------------------------------------------------------------
    # worker side
    # ------------------------------------------------------------------
    async def _serve_worker(self, conn: Connection,
                            hello: Dict[str, Any]) -> None:
        assert self._loop is not None
        if not self._leading():
            conn.send(self._redirect_frame())
            return
        base = hello.get("name")
        while True:  # registration must survive an await-window race
            self._worker_seq += 1
            name = base or f"worker-{self._worker_seq}"
            if (name in self._workers  # names must be unique
                    or name in self._sched.worker_names()):
                name = f"{name}.{self._worker_seq}"
            if await self._commit({"op": "worker_add",
                                   "name": name}) == "ok":
                break
            base = name  # replicated slate still holds it; re-suffix
        worker = _WorkerConn(name, conn, pid=hello.get("pid"),
                             last_seen=self._loop.time())
        self._workers[name] = worker
        conn.send({"type": "welcome", "name": name,
                   "protocol": PROTOCOL_VERSION})
        self._log(f"worker {name} (pid {worker.pid}) joined")
        await self._dispatch()
        try:
            while not self._stopping:
                msg = await conn.read()
                worker.last_seen = self._loop.time()
                kind = msg["type"]
                if kind == "heartbeat":
                    self.heartbeats_seen += 1
                    continue
                if kind == "result":
                    await self._on_result(name, msg)
                elif kind == "unit_error":
                    await self._on_unit_error(name, msg)
                elif kind == "bye":
                    break
                else:
                    raise FrameError(f"unexpected {kind!r} from worker")
        finally:
            await self._drop_worker(name, "connection closed")

    async def _drop_worker(self, name: str, reason: str) -> None:
        worker = self._workers.pop(name, None)
        if worker is None:
            return
        worker.conn.close()
        if self._stopping or not self._leading():
            return  # the (next) leader's reset rebuilds the slate
        requeued = await self._reap_worker(name, reason)
        self._log(f"worker {name} left ({reason}); requeued "
                  f"{[f'{j}#{i}' for j, i in requeued]}")
        await self._dispatch()

    async def _reap_worker(self, name: str, reason: str):
        """Remove ``name`` from the scheduler; units whose attempts a
        repeated worker-killer already exhausted fail their jobs
        instead of circling through yet another worker."""
        res = await self._try_commit({"op": "worker_remove",
                                      "name": name})
        if not isinstance(res, dict) or "fatal" not in res:
            return []  # commit dropped (deposed) — reset cleans up
        for job_id, idx in res["fatal"]:
            await self._fail_job(
                job_id, idx,
                f"unit killed its worker {self._sched.max_attempts} "
                f"times (last: {name}, {reason})")
        return [tuple(u) for u in res["requeued"]]

    async def _fail_job(self, job_id: str, idx: int,
                        error: str) -> None:
        job = self._jobs.pop(job_id, None)
        await self._try_commit({"op": "job_fail", "job": job_id})
        if job is not None:
            job.client.send({"type": "job_failed", "job": job_id,
                             "idx": idx, "error": error})

    async def _on_result(self, name: str, msg: Dict[str, Any]) -> None:
        job_id, idx = msg["job"], msg["idx"]
        value = msg["value"]
        # the memo key rides the command so every replica's machine
        # learns the value — that is what makes fail-over cheap
        job = self._jobs.get(job_id)
        key = None
        if job is not None and 0 <= idx < len(job.units):
            key = job.units[idx].key()
        verdict = await self._commit({"op": "complete", "name": name,
                                      "job": job_id, "idx": idx,
                                      "key": key, "value": value})
        job = self._jobs.get(job_id)  # re-fetch: awaits interleave
        if verdict != "fresh" or job is None:
            self._log(f"dropped {verdict} result {job_id}#{idx} "
                      f"from {name}")
            await self._dispatch()
            return
        job.values[idx] = value
        job.remaining -= 1
        self.units_completed += 1
        self._store_result(key, value)
        self._send_row(job, idx, value)
        if job.remaining == 0:
            await self._finish_job(job)
        await self._dispatch()

    async def _on_unit_error(self, name: str,
                             msg: Dict[str, Any]) -> None:
        job_id, idx = msg["job"], msg["idx"]
        error = msg.get("error", "unknown unit error")
        verdict = await self._commit({"op": "unit_fail", "name": name,
                                      "job": job_id, "idx": idx})
        self._log(f"unit {job_id}#{idx} failed on {name} "
                  f"({verdict}): {error}")
        tb = msg.get("traceback")
        if tb:
            self._log(f"worker traceback for {job_id}#{idx}:\n{tb}")
        if verdict == "fatal":
            await self._fail_job(job_id, idx, error)
        await self._dispatch()

    # ------------------------------------------------------------------
    # client side
    # ------------------------------------------------------------------
    async def _serve_client(self, conn: Connection) -> None:
        if not self._leading():
            conn.send(self._redirect_frame())
            return
        conn.send({"type": "welcome", "protocol": PROTOCOL_VERSION})
        submitted: List[str] = []
        try:
            while not self._stopping:
                msg = await conn.read()
                kind = msg["type"]
                if kind == "ping":
                    conn.send({"type": "pong"})
                elif kind == "status":
                    conn.send(self._status_reply())
                elif kind == "submit":
                    submitted.append(await self._on_submit(conn, msg))
                elif kind == "shutdown":
                    conn.send({"type": "bye"})
                    # the whole quorum goes down via the log, so the
                    # decision survives any single replica
                    await self._try_commit({"op": "shutdown"})
                    return
                elif kind == "bye":
                    return
                else:
                    raise FrameError(f"unexpected {kind!r} from client")
        finally:
            # a client that vanishes abandons its unfinished jobs
            for job_id in submitted:
                if job_id in self._jobs:
                    del self._jobs[job_id]
                    await self._try_commit({"op": "job_cancel",
                                            "job": job_id})

    async def _on_submit(self, conn: Connection,
                         msg: Dict[str, Any]) -> str:
        try:
            units = [SweepUnit.from_wire(w) for w in msg["units"]]
        except (ConfigError, KeyError, TypeError) as exc:
            # malformed submits get the typed error reply the protocol
            # promises, not a bare connection drop (ConfigError is a
            # ReproError, which _handle_conn would not catch)
            raise FrameError(f"malformed submit: {exc}") from exc
        self._job_seq += 1
        # globally unique across leaders: a surviving worker's stale
        # in-flight result must never complete a *different* job that
        # reused the id under a new leader
        job_id = (f"job-r{self.cluster.node_id}."
                  f"{self._cluster_mgr.core.term}.{self._job_seq}")
        job = _Job(job_id=job_id, client=conn, units=units,
                   values=[None] * len(units), remaining=len(units))
        cached: List[List[Any]] = []
        skip: Set[int] = set()
        for idx, unit in enumerate(units):
            value = self._load_result(unit)
            if value is not None:
                job.values[idx] = value[0]
                job.remaining -= 1
                skip.add(idx)
                cached.append([idx, value[0]])
                self.served_from_cache += 1
        job.from_cache = len(skip)
        if job.remaining > 0:
            # replicate before accepting: once the client hears
            # "accepted", a quorum already owns the job
            await self._commit({"op": "job_add", "job": job_id,
                                "units": msg["units"],
                                "skip": sorted(skip)})
        self._jobs[job_id] = job
        conn.send({"type": "accepted", "job": job_id,
                   "total": len(units), "cached": cached})
        self._log(f"{job_id}: {len(units)} units "
                  f"({len(skip)} from cache)")
        if job.remaining == 0:
            await self._finish_job(job)
        else:
            await self._dispatch()
        return job_id

    def _send_row(self, job: _Job, idx: int, value: Any) -> None:
        job.client.send({"type": "row", "job": job.job_id,
                         "idx": idx, "value": value})
        self.rows_streamed += 1

    async def _finish_job(self, job: _Job) -> None:
        self._jobs.pop(job.job_id, None)
        # release the scheduler's job state too (unit lists would
        # otherwise accumulate for the coordinator's lifetime, and
        # status would report finished jobs as live)
        await self._try_commit({"op": "job_cancel",
                                "job": job.job_id})
        job.client.send({"type": "done", "job": job.job_id,
                         "from_cache": job.from_cache})
        self._log(f"{job.job_id}: done (cached={job.from_cache})")

    def _status_reply(self) -> Dict[str, Any]:
        workers = []
        for name, w in self._workers.items():
            view = self._sched.worker_view(name)
            workers.append({
                "name": name, "pid": w.pid,
                "busy": [list(u) for u in view.busy],
                "completed": view.completed,
            })
        stats = self._sched.stats()
        stats.update(served_from_cache=self.served_from_cache,
                     rows_streamed=self.rows_streamed,
                     units_completed=self.units_completed,
                     heartbeats_seen=self.heartbeats_seen,
                     results_cached=len(self._results))
        return {"type": "status_reply", "workers": workers,
                "stats": stats, "pid": os.getpid(),
                "cluster": self._cluster_mgr.status()}

    # ------------------------------------------------------------------
    # dispatch + liveness
    # ------------------------------------------------------------------
    async def _dispatch(self) -> None:
        """Fill free worker slots from the queue. One replicated
        ``dispatch`` command runs the whole assignment loop inside the
        machine, so every replica agrees on who runs what; the leader
        then sends the ``assign`` frames."""
        if not self._sched.free_workers() or (
                self._sched.pending_count() == 0):
            return  # nothing could be assigned — skip the log entry
        assignments = await self._try_commit({"op": "dispatch"})
        if not isinstance(assignments, list):
            return  # deposed mid-commit; the new leader redispatches
        for a in assignments:
            worker = self._workers.get(a["worker"])
            if a["job"] not in self._jobs or worker is None:
                # conn vanished inside the commit window — its
                # worker_remove commit requeues the unit
                continue
            worker.conn.send({"type": "assign", "job": a["job"],
                              "idx": a["idx"], "unit": a["unit"]})

    async def _timer(self) -> None:
        """The one clock: steps the consensus state machine and checks
        worker liveness. A quorum with peers needs ``tick`` every
        ``TICK_INTERVAL``; without peers nothing is ever due between
        liveness checks, so the loop wakes only for those."""
        assert self._loop is not None
        period = self.monitor_interval
        if self._cluster_mgr.core.peers():
            period = min(period, TICK_INTERVAL)
        while True:
            await asyncio.sleep(period)
            now = self._loop.time()
            self._cluster_mgr.tick(now)
            for name, w in self._workers.items():
                if now - w.last_seen > self.heartbeat_timeout:
                    # not awaited: a commit that waits on the quorum
                    # expires in tick(), which runs from this loop
                    self._spawn(self._drop_worker(name,
                                                  "heartbeat timeout"))

    # ------------------------------------------------------------------
    # result memo (idempotency + restart warm cache)
    # ------------------------------------------------------------------
    def _cache_path(self, key: str) -> str:
        assert self.cache_dir is not None
        return os.path.join(self.cache_dir, f"{key}.result.json")

    def _load_result(self, unit):
        """Returns a 1-tuple holding the memoized value, or None."""
        key = unit.key()
        if key in self._results:
            return (self._results[key],)
        if self.cache_dir is not None:
            try:
                with open(self._cache_path(key)) as f:
                    value = json.load(f)["value"]
            except (OSError, ValueError, KeyError):
                return None
            self._results[key] = value
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
        self._results[key] = value  # idempotent next to the command
        if self.cache_dir is not None and isinstance(
                value, (int, float, dict)):
            try:
                os.makedirs(self.cache_dir, exist_ok=True)
                save_file(self._cache_path(key), json.dumps(
                    {"key": key, "value": value}).encode())
            except OSError:
                pass
