"""The sweep worker: a persistent simulation process.

A worker connects to the coordinator, names itself, and loops: receive
an ``assign``, simulate the unit, send the ``result`` (or a
``unit_error``). The socket side is a small asyncio event loop (the
same non-blocking transport discipline as the coordinator); the
simulation itself runs in an executor thread, so heartbeats keep
flowing while a unit is compute-bound — the GIL switches threads every
few milliseconds, which is what lets the coordinator's liveness
monitor tell "slow simulation" from "dead process".

A worker keeps no state between assignments: each unit runs cold
through ``SweepUnit.run``, exactly as a serial sweep without a
``warmup_cache`` would run it (warmup images are a local store of the
caller's, never shipped to the fleet).

Runnable standalone::

    PYTHONPATH=src python -m repro.service worker --connect HOST:PORT

which is what ``scripts/sweep_service.py`` (and the chaos tests, which
SIGKILL these processes) launch.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import threading
import traceback
from typing import Any, Dict, Optional

from repro.harness.units import SweepUnit
from repro.service.errors import (ConnectionClosed, FrameError,
                                  ProtocolMismatch, ServiceError)
from repro.service.protocol import PROTOCOL_VERSION, encode_frame
from repro.service.transport import (Connection, LeaderHunt, Redirected,
                                     check_welcome, parse_address,
                                     parse_addresses, raise_for_error)

__all__ = ["Worker", "parse_address", "parse_addresses",
           "service_child_env"]

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
    """Start a worker process attached to ``address`` (which may be a
    comma-separated replica list)."""
    argv = ["worker", "--connect", address]
    if name:
        argv += ["--name", name]
    return spawn_service_process(argv, verbose, capture)


class Worker:
    """One persistent simulation worker (see module docstring)."""

    def __init__(self, address: str, *, name: Optional[str] = None,
                 heartbeat_interval: float = 2.0,
                 failover_timeout: float = 60.0,
                 verbose: bool = False) -> None:
        self.address = address
        self.addresses = parse_addresses(address)
        self.name = name
        self.heartbeat_interval = heartbeat_interval
        #: replicated fleets only: how long to hunt for a (new) leader
        #: after losing the coordinator before giving up
        self.failover_timeout = failover_timeout
        self.verbose = verbose
        self.units_run = 0
        self.signins = 0  # successful registrations (tests watch this)
        self._leader_hint: Optional[str] = None
        self._stopping = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_evt: Optional[asyncio.Event] = None
        self._conn: Optional[Connection] = None

    def _log(self, msg: str) -> None:
        if self.verbose:
            print(f"[worker {self.name or os.getpid()}] {msg}", flush=True)

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
        if self._stopping.is_set():  # stop() raced run()
            return
        # Session loop: sign in somewhere, serve until the connection
        # ends, then (several addresses only) hunt for the new leader.
        # A single-address worker exits on loss — the fleet CLI's
        # respawner owns its lifecycle.
        window_start = self._loop.time()
        while not self._stopping.is_set():
            outcome = await self._session()
            if outcome == "shutdown" or self._stopping.is_set():
                return
            if len(self.addresses) == 1:
                return
            if outcome == "served":
                # we *were* registered; leader died — restart the
                # fail-over clock and go hunt for its successor
                window_start = self._loop.time()
                continue
            if (self._loop.time() - window_start
                    > self.failover_timeout):
                self._log("no leader answered within "
                          f"{self.failover_timeout:.0f}s; giving up")
                return
            await asyncio.sleep(0.4)

    async def _session(self) -> str:
        """One sign-in attempt: dial the replicas (last-known leader
        first), follow ``redirect`` frames, then serve assignments
        until the connection ends.

        Returns ``"shutdown"`` (coordinator said stop / stop() was
        called), ``"served"`` (registered, then lost the leader) or
        ``"unreachable"`` (nobody welcomed us this round).
        Protocol-level complaints (:class:`ProtocolMismatch`,
        :class:`ServiceError`) stay loud and propagate."""
        hunt = LeaderHunt(self.addresses, self._leader_hint)
        self._leader_hint = None
        for addr in hunt:
            if self._stopping.is_set():
                break
            try:
                return await self._serve_at(addr)
            except Redirected as red:  # a follower named the leader
                self._log(f"{addr} redirects to {red.leader!r}")
                self._leader_hint = red.leader
                hunt.redirect(red.leader)
            except (ConnectionClosed, FrameError, OSError,
                    asyncio.TimeoutError) as exc:
                self._log(f"{addr} unreachable ({exc})")
            except ProtocolMismatch:
                raise
            except ServiceError as exc:
                # a replica mid-election can answer with a transient
                # error; with one address that is final, with several
                # the next candidate (or the next round) resolves it
                if len(self.addresses) == 1:
                    raise
                self._log(f"{addr} rejected sign-in ({exc})")
        return "unreachable"

    async def _serve_at(self, address: str) -> str:
        conn = await Connection.open(address, 30.0)
        tasks: set = set()
        registered = False
        try:
            conn.send({"type": "hello", "role": "worker",
                       "protocol": PROTOCOL_VERSION,
                       "name": self.name, "pid": os.getpid()})
            welcome = check_welcome(await conn.read(30.0))
            self.name = welcome.get("name", self.name)
            self._leader_hint = address
            self.signins += 1
            registered = True
            self._conn = conn
            self._log(f"registered with {address}")
            heartbeat = asyncio.create_task(self._heartbeat(conn))
            read_loop = asyncio.create_task(self._read_loop(conn, tasks))
            stop_wait = asyncio.create_task(self._stop_evt.wait())
            tasks.update({heartbeat, read_loop, stop_wait})
            done, _pending = await asyncio.wait(
                {read_loop, stop_wait},
                return_when=asyncio.FIRST_COMPLETED)
            if read_loop in done:
                read_loop.result()  # surface protocol-level errors
            return "shutdown"
        except (ConnectionClosed, FrameError, OSError,
                asyncio.TimeoutError) as exc:
            # transport-level loss (incl. a close racing a frame
            # mid-flight at shutdown, and a stalled coordinator our
            # send pump gave up on) ends this *session* quietly — the
            # coordinator requeues anything it owed; only
            # protocol-level complaints above stay loud
            if not registered:
                raise
            self._log(f"coordinator went away ({exc})")
            return "served"
        except ProtocolMismatch:
            raise
        except ServiceError as exc:
            # e.g. the leader lost its quorum mid-session and erred
            # out our connection — re-sign-in, don't die loudly
            if registered and len(self.addresses) > 1:
                self._log(f"coordinator error ({exc}); re-signing in")
                return "served"
            raise
        finally:
            # a unit finishing between coordinators drops its reply;
            # the (re-signed-in) leader reassigns it, so that is safe
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
                task = asyncio.create_task(self._run_assign(msg))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            elif kind == "shutdown":
                self._log("shutdown requested")
                return
            else:
                raise ServiceError(f"unexpected {kind!r} from "
                                   f"coordinator")

    # ------------------------------------------------------------------
    async def _run_assign(self, msg: Dict[str, Any]) -> None:
        """Simulate one assignment off-loop (executor thread) and send
        the reply. The loop — and the heartbeat — stay live
        throughout."""
        loop = asyncio.get_running_loop()
        frame = await loop.run_in_executor(None, self._execute, msg)
        if self._conn is not None:  # else: torn down while simulating
            self._conn.send_frame(frame)

    def _execute(self, msg: Dict[str, Any]) -> bytes:
        """The compute path (runs in an executor thread): decode the
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
            self._log(f"{job_id}#{idx} done")
        except Exception as exc:  # a bad unit must not kill the worker
            self._log(f"{job_id}#{idx} failed: {exc}\n"
                      f"{traceback.format_exc()}")
            frame = encode_frame({
                "type": "unit_error", "job": job_id, "idx": idx,
                "error": f"{type(exc).__name__}: {exc}",
                "traceback": traceback.format_exc()})
        return frame


def main(argv: Optional[list] = None) -> int:
    cli = argparse.ArgumentParser(
        description="Persistent sweep-service worker.")
    cli.add_argument("--connect", required=True, metavar="HOST:PORT",
                     help="coordinator address (comma-separate the "
                          "replicas of a clustered coordinator)")
    cli.add_argument("--name", default=None,
                     help="worker name (default: coordinator-assigned)")
    cli.add_argument("--heartbeat", type=float, default=2.0,
                     metavar="SECONDS", help="heartbeat interval")
    cli.add_argument("--failover-timeout", type=float, default=60.0,
                     metavar="SECONDS",
                     help="replicated fleets: give up after this long "
                          "without any leader answering")
    cli.add_argument("--verbose", action="store_true")
    args = cli.parse_args(argv)
    worker = Worker(args.connect, name=args.name,
                    heartbeat_interval=args.heartbeat,
                    failover_timeout=args.failover_timeout,
                    verbose=args.verbose)
    try:
        worker.run()
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
