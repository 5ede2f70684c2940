"""The sweep worker: a persistent simulation process.

A worker connects to the coordinator, names itself, and loops: receive
an ``assign``, simulate the unit, send the ``result`` (or a
``unit_error``). The socket side is a small asyncio event loop (the
same non-blocking transport discipline as the coordinator); the
simulation itself runs on the worker's one executor thread, so
heartbeats keep flowing while a unit is compute-bound — the GIL
switches threads every few milliseconds, which is what lets the
coordinator's liveness monitor tell "slow simulation" from "dead
process".

The coordinator keeps two units assigned to each worker (the
scheduler's ``SLOTS``), so the next unit is already queued when a
result goes out. The single executor thread runs them strictly one at
a time, in arrival order. When the session ends (``stop()``, a lost
coordinator) a queued unit that has not started is cancelled and never
runs; the coordinator requeues it without charging an attempt.

Sign-in is :class:`~repro.service.protocol.SignIn` with a budget of
0: one try, and the worker exits when its session ends (the fleet
CLI respawns it).

A worker keeps no state between assignments: each unit runs cold
through ``SweepUnit.run``, exactly as a serial sweep without a
``warmup_cache`` would run it (warmup images are a local store of the
caller's, never shipped to the fleet).

Runnable standalone as ``python -m repro.service worker --connect
HOST:PORT`` (:mod:`repro.service.__main__`), which is what
``scripts/sweep_service.py`` (and the chaos tests, which SIGKILL these
processes) launch. The process helpers at the top of this module
spawn those entries — a worker or a coordinator — for the fleet CLI,
the examples and the tests.
"""

from __future__ import annotations

import asyncio
import logging
import os
import socket
import threading
import traceback
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional

from repro.harness.units import SweepUnit
from repro.service.errors import (ConnectionClosed, FrameError,
                                  ProtocolMismatch, ServiceError)
from repro.service.protocol import (PROTOCOL_VERSION, SignIn,
                                    encode_frame, frame_field,
                                    raise_for_error)
from repro.service.transport import Connection, parse_address

__all__ = ["Worker", "parse_address", "service_child_env",
           "spawn_worker_process", "spawn_coordinator_process",
           "pick_free_ports"]

log = logging.getLogger(__name__)

def service_child_env() -> Dict[str, str]:
    """Environment for spawned service processes: this checkout's
    ``src`` prepended to ``PYTHONPATH``.

    .../src/repro/service/worker.py -> .../src (three levels up).
    This used to stop one level short (.../src/repro), which made
    `import repro` fail in the child whenever the parent had no
    usable PYTHONPATH of its own — a CLI-launched fleet then
    respawn-looped instead of serving (tests masked it by exporting
    PYTHONPATH=src, which children inherit).
    """
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn_service_process(argv: list, verbose: bool, capture: bool):
    """The one spawn recipe: ``python -m repro.service *argv`` as an
    OS process with this checkout's ``src`` on ``PYTHONPATH`` — shared
    by the fleet CLI, the examples and the chaos tests that SIGKILL the
    result. ``capture=True`` silences it. Returns the ``Popen``."""
    import subprocess
    import sys

    cmd = [sys.executable, "-m", "repro.service", *argv]
    if verbose:
        cmd.append("--verbose")
    sink = subprocess.DEVNULL if capture else None
    return subprocess.Popen(cmd, env=service_child_env(),
                            stdout=sink, stderr=sink)


def spawn_worker_process(address: str, *, name: Optional[str] = None,
                         verbose: bool = False, capture: bool = False):
    """Start a worker process attached to the coordinator at
    ``address``."""
    argv = ["worker", "--connect", address]
    if name:
        argv += ["--name", name]
    return spawn_service_process(argv, verbose, capture)


def spawn_coordinator_process(address: str, *,
                              cache_dir: Optional[str] = None,
                              heartbeat_timeout: Optional[float] = None,
                              verbose: bool = False,
                              capture: bool = False):
    """Start a coordinator process listening on ``address``."""
    argv = ["coordinator", "--bind", address]
    if cache_dir:
        argv += ["--cache-dir", cache_dir]
    if heartbeat_timeout is not None:
        argv += ["--heartbeat-timeout", str(heartbeat_timeout)]
    return spawn_service_process(argv, verbose, capture)


def pick_free_ports(n: int, host: str = "127.0.0.1") -> List[int]:
    """Reserve ``n`` distinct free TCP ports. The sockets are held
    open while picking (so the kernel cannot hand the same port out
    twice), then closed — a brief race with other processes remains,
    which is fine for tests and single-operator fleets; production
    deployments pass explicit ports."""
    socks = []
    try:
        for _ in range(n):
            s = socket.socket()
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            s.bind((host, 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


class Worker:
    """One persistent simulation worker (see module docstring)."""

    def __init__(self, address: str, *, name: Optional[str] = None,
                 heartbeat_interval: float = 2.0) -> None:
        parse_address(address)  # a bad address fails here, undialed
        self.address = address
        self.name = name
        self.heartbeat_interval = heartbeat_interval
        self.units_run = 0
        self.signins = 0  # successful registrations (tests watch this)
        self._stopping = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_evt: Optional[asyncio.Event] = None
        self._conn: Optional[Connection] = None
        # one thread: assigned units run one at a time, in arrival order
        self._executor = ThreadPoolExecutor(max_workers=1,
                                            thread_name_prefix="sim")

    # ------------------------------------------------------------------
    def run(self) -> None:
        """Connect and serve assignments until the coordinator says
        ``shutdown`` or goes away. Blocks (drives a private event
        loop; safe to call from a non-main thread)."""
        try:
            asyncio.run(self._main())
        finally:
            self._stopping.set()
            self._loop = None
            # the running unit finishes; a queued one never starts
            self._executor.shutdown(wait=True, cancel_futures=True)

    def stop(self) -> None:
        """Ask a (possibly threaded) worker to exit after its current
        unit. Thread-safe."""
        self._stopping.set()
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(self._request_stop)
            except RuntimeError:
                pass  # loop already gone

    def _request_stop(self) -> None:
        if self._stop_evt is not None:
            self._stop_evt.set()

    # ------------------------------------------------------------------
    async def _heartbeat(self, conn: Connection) -> None:
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            conn.send({"type": "heartbeat"})

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_evt = asyncio.Event()
        # the lifecycle is the fleet CLI's respawner's: one try, and
        # exit when the session ends
        conn = await self._sign_in(SignIn(self.address, 0.0,
                                          self._loop.time()))
        if conn is not None:
            log.info("worker %s: registered with %s", self.name,
                     self.address)
            await self._serve(conn)

    async def _sign_in(self, signin: SignIn) -> Optional[Connection]:
        """The connection ``signin`` found, or None once stopped or past
        its budget; a refusal it deems final propagates."""
        while not self._stopping.is_set():
            now = self._loop.time()
            try:
                address = signin.dial(now)
            except ServiceError as exc:
                log.info("worker %s: %s; giving up",
                         self.name or os.getpid(), exc)
                return None
            if address is None:
                await asyncio.sleep(signin.wake - now)
                continue
            conn = None
            try:
                conn = await Connection.open(address, 30.0)
                conn.send({"type": "hello", "role": "worker",
                           "protocol": PROTOCOL_VERSION,
                           "name": self.name, "pid": os.getpid()})
                welcome = signin.reply(await conn.read(30.0))
                self.name = welcome.get("name", self.name)
                conn, welcomed = None, conn
                return welcomed
            except (ConnectionClosed, FrameError, OSError) as exc:
                log.info("worker %s: %s unreachable (%s)",
                         self.name or os.getpid(), address, exc)
                signin.failed(exc)
            finally:
                if conn is not None:
                    conn.close()
                    await conn.wait_closed()
        return None

    async def _serve(self, conn: Connection) -> None:
        """Serve assignments until the session ends: on ``shutdown``,
        :meth:`stop` or a lost coordinator."""
        self.signins += 1
        self._conn = conn
        tasks: set = set()
        heartbeat = asyncio.create_task(self._heartbeat(conn))
        read_loop = asyncio.create_task(self._read_loop(conn, tasks))
        stop_wait = asyncio.create_task(self._stop_evt.wait())
        tasks.update({heartbeat, read_loop, stop_wait})
        try:
            done, _pending = await asyncio.wait(
                {read_loop, stop_wait}, return_when=asyncio.FIRST_COMPLETED)
            if read_loop in done:
                read_loop.result()  # surface protocol-level errors
        except ProtocolMismatch:
            raise
        except (ServiceError, OSError) as exc:
            # a lost or stalled coordinator, a malformed frame or the
            # coordinator's typed error ends the session quietly; the
            # coordinator requeues anything it owed
            log.info("worker %s: session ended (%s)", self.name, exc)
        finally:
            # a unit finishing after the session drops its reply, and
            # cancelling a queued unit's task keeps it from ever
            # starting; the coordinator reassigns both
            self._conn = None
            for t in tasks:
                t.cancel()
            try:
                await asyncio.gather(*tasks, return_exceptions=True)
            finally:
                conn.close()
                await conn.wait_closed()

    async def _read_loop(self, conn: Connection, tasks: set) -> None:
        while True:
            msg = await conn.read()
            raise_for_error(msg)
            kind = msg.get("type")
            if kind == "assign":
                # the reply names both: without them the session ends
                frame_field(msg, "job", str)
                frame_field(msg, "idx", int)
                task = asyncio.create_task(self._run_assign(msg))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            elif kind == "shutdown":
                log.info("worker %s: shutdown requested", self.name)
                return
            else:
                raise ServiceError(f"unexpected {kind!r} from "
                                   f"coordinator")

    # ------------------------------------------------------------------
    async def _run_assign(self, msg: Dict[str, Any]) -> None:
        """Simulate one assignment off-loop (the executor thread,
        after any unit assigned before it) and send the reply. The loop
        — and the heartbeat — stay live throughout."""
        loop = asyncio.get_running_loop()
        frame = await loop.run_in_executor(self._executor, self._execute,
                                           msg)
        if self._conn is not None:  # else: torn down while simulating
            self._conn.send_frame(frame)

    def _execute(self, msg: Dict[str, Any]) -> bytes:
        """The compute path (runs on the executor thread): decode the
        unit, simulate, reduce, and encode the reply frame — inside
        the ``try``, so a value the wire cannot carry is a
        ``unit_error`` like any other failure, never a silent loss of
        the reply."""
        job_id, idx = msg["job"], msg["idx"]
        try:
            unit = SweepUnit.from_wire(msg["unit"])
            frame = encode_frame({
                "type": "result", "job": job_id, "idx": idx,
                "value": unit.encode_value(unit.run())})
            self.units_run += 1
            log.info("worker %s: %s#%s done", self.name, job_id, idx)
        except Exception as exc:  # a bad unit must not kill the worker
            log.info("worker %s: %s#%s failed: %s", self.name, job_id,
                     idx, exc, exc_info=True)
            frame = encode_frame({
                "type": "unit_error", "job": job_id, "idx": idx,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc()})
        return frame
