"""The sweep worker: a persistent simulation process.

A worker connects to the coordinator, names itself, and loops: receive
an ``assign``, simulate the unit, send the ``result`` (or a
``unit_error``). The socket side is a small asyncio event loop (the
same non-blocking transport discipline as the coordinator); the
simulation itself runs in an executor thread, so heartbeats keep
flowing while a unit is compute-bound — the GIL switches threads every
few milliseconds, which is what lets the coordinator's liveness
monitor tell "slow simulation" from "dead process".

Warmup affinity is realized *here*: the worker keeps one
:class:`~repro.harness.experiment.WarmupImageCache` per warmup
directory (plus a process-local in-memory cache for jobs without one)
that lives across assignments. Because the coordinator routes every
unit of a ``warmup_key`` prefix to the prefix's owner, the first unit
builds the image in this cache and every later unit forks from it.
Each ``result`` carries the build/hit *delta* for its unit, so the
coordinator can attribute warmup work to jobs exactly.

Runnable standalone::

    PYTHONPATH=src python -m repro.service worker --connect HOST:PORT

which is what ``scripts/sweep_service.py`` (and the chaos tests, which
SIGKILL these processes) launch.
"""

from __future__ import annotations

import argparse
import asyncio
import os
import socket
import threading
import traceback
from typing import Any, Dict, Optional, Tuple

from repro.harness.experiment import WarmupImageCache
from repro.harness.units import SweepUnit
from repro.service.errors import (ConnectionClosed, FrameError,
                                  ProtocolMismatch, ServiceError)
from repro.service.protocol import (PROTOCOL_VERSION, FrameDecoder,
                                    encode_frame, read_msg_async)

__all__ = ["Worker", "parse_address", "parse_addresses", "LeaderHunt",
           "service_child_env"]


class _Redirected(Exception):
    """Internal control flow: a follower answered with ``redirect``."""

    def __init__(self, leader: Optional[str]) -> None:
        super().__init__(leader)
        self.leader = leader


class _BoundedImageCache(WarmupImageCache):
    """Memory-only image cache with LRU eviction.

    A worker lives for the fleet's lifetime; without a warmup
    directory it would pin one whole-machine snapshot blob per prefix
    it ever owned. Affinity makes the *recent* prefixes the hot ones,
    so a small LRU keeps the forking payoff while bounding RSS.
    An evicted image costs one warmup re-simulation, never
    correctness."""

    def __init__(self, max_images: int) -> None:
        super().__init__(None)
        self.max_images = max_images

    def get(self, key):
        blob = self._mem.get(key)
        if blob is not None:  # refresh recency (dicts keep order)
            del self._mem[key]
            self._mem[key] = blob
        return blob

    def put(self, key, blob) -> None:
        self._mem.pop(key, None)
        self._mem[key] = blob
        while len(self._mem) > self.max_images:
            del self._mem[next(iter(self._mem))]


def parse_address(address: str) -> Tuple[str, int]:
    """``host:port`` -> ``(host, port)`` (IPv4/hostname form)."""
    host, sep, port = address.rpartition(":")
    if not sep or not port.isdigit():
        raise ServiceError(f"bad service address {address!r} "
                           f"(expected host:port)")
    return host or "127.0.0.1", int(port)


def parse_addresses(address: str) -> list:
    """``host:port[,host:port...]`` -> list of addresses (validated).

    One address is a quorum of one; several are the replicas of a
    larger one — clients and workers dial until one answers
    ``welcome`` (following ``redirect`` frames to the leader)."""
    addrs = [a.strip() for a in address.split(",") if a.strip()]
    if not addrs:
        raise ServiceError(f"bad service address {address!r}")
    for a in addrs:
        parse_address(a)
    return addrs


class LeaderHunt:
    """The dial order of one sign-in round: the last-known leader,
    then the configured replicas; :meth:`redirect` moves the leader a
    follower named to the front — unless it was already dialed, and at
    most ``2 * len(addresses)`` times, so stale hints end the round."""

    def __init__(self, addresses: list, hint: Optional[str] = None) -> None:
        self._todo = list(dict.fromkeys(
            ([hint] if hint else []) + addresses))
        self._dialed: set = set()
        self._redirects_left = 2 * len(addresses)

    def __iter__(self):
        while self._todo:
            self._dialed.add(self._todo[0])
            yield self._todo.pop(0)

    def redirect(self, leader: Optional[str]) -> None:
        if leader and self._redirects_left and leader not in self._dialed:
            self._todo = [leader] + [a for a in self._todo if a != leader]
            self._redirects_left -= 1


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
                 max_memory_images: int = 8,
                 failover_timeout: float = 60.0,
                 verbose: bool = False) -> None:
        self.address = address
        self.addresses = parse_addresses(address)
        self.name = name
        self.heartbeat_interval = heartbeat_interval
        self.max_memory_images = max_memory_images
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
        self._sendq: Optional[asyncio.Queue] = None
        # one image cache per warmup directory, living across
        # assignments — the affinity payoff. None key = memory-only.
        self._images: Dict[Optional[str], WarmupImageCache] = {}

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
    def _send(self, msg: Dict[str, Any]) -> None:
        """Queue one message for the send pump (encode errors surface
        here, at the caller)."""
        self._send_frame(encode_frame(msg))

    def _send_frame(self, frame: bytes) -> None:
        if self._sendq is None:
            # a unit finished while we were between coordinators; the
            # (re-signed-in) leader reassigns it, so dropping is safe
            raise ServiceError("not connected")
        self._sendq.put_nowait(frame)

    async def _send_pump(self, writer: asyncio.StreamWriter) -> None:
        assert self._sendq is not None
        while True:
            frame = await self._sendq.get()
            writer.write(frame)
            await writer.drain()

    async def _heartbeat(self) -> None:
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            self._send({"type": "heartbeat"})

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
            except _Redirected as red:
                hunt.redirect(red.leader)  # a follower named the leader
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
        host, port = parse_address(address)
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), 30.0)
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        decoder = FrameDecoder()
        tasks: set = set()
        self._sendq = asyncio.Queue()
        pump = asyncio.create_task(self._send_pump(writer))
        registered = False
        try:
            self._send({"type": "hello", "role": "worker",
                        "protocol": PROTOCOL_VERSION,
                        "name": self.name, "pid": os.getpid()})
            welcome = await asyncio.wait_for(
                read_msg_async(reader, decoder), 30.0)
            if welcome.get("type") == "redirect":
                leader = welcome.get("leader")
                self._leader_hint = leader
                self._log(f"{address} redirects to {leader!r}")
                raise _Redirected(leader)
            if welcome.get("type") == "error":
                if welcome.get("code") == "protocol-mismatch":
                    raise ProtocolMismatch(
                        f"coordinator rejected worker: "
                        f"{welcome.get('error')}")
                raise ServiceError(f"coordinator rejected worker: "
                                   f"{welcome.get('error')}")
            if welcome.get("type") != "welcome":
                raise ServiceError(f"expected welcome, got "
                                   f"{welcome.get('type')!r}")
            if welcome.get("protocol") != PROTOCOL_VERSION:
                raise ProtocolMismatch(
                    f"coordinator speaks protocol "
                    f"{welcome.get('protocol')!r}, this worker speaks "
                    f"{PROTOCOL_VERSION}")
            self.name = welcome.get("name", self.name)
            self._leader_hint = address
            self.signins += 1
            registered = True
            self._log(f"registered with {address}")
            heartbeat = asyncio.create_task(self._heartbeat())
            read_loop = asyncio.create_task(
                self._read_loop(reader, decoder, tasks))
            stop_wait = asyncio.create_task(self._stop_evt.wait())
            tasks.update({heartbeat, read_loop, stop_wait})
            done, _pending = await asyncio.wait(
                {read_loop, stop_wait, pump},
                return_when=asyncio.FIRST_COMPLETED)
            if read_loop in done:
                read_loop.result()  # surface protocol-level errors
            return "shutdown"
        except (ConnectionClosed, FrameError, OSError,
                asyncio.TimeoutError) as exc:
            # transport-level loss (incl. a close racing a frame
            # mid-flight at shutdown) ends this *session* quietly —
            # the coordinator requeues anything it owed; only
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
            self._sendq = None
            for t in list(tasks) + [pump]:
                t.cancel()
            try:
                await asyncio.gather(*tasks, pump,
                                     return_exceptions=True)
            except asyncio.CancelledError:
                pass
            try:
                writer.close()
                await asyncio.wait_for(writer.wait_closed(), 2.0)
            except (OSError, ConnectionError, asyncio.TimeoutError):
                pass

    async def _read_loop(self, reader: asyncio.StreamReader,
                         decoder: FrameDecoder, tasks: set) -> None:
        while True:
            msg = await read_msg_async(reader, decoder)
            kind = msg.get("type")
            if kind == "assign":
                task = asyncio.create_task(self._run_assign(msg))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            elif kind == "shutdown":
                self._log("shutdown requested")
                return
            elif kind == "error":
                raise ServiceError(f"coordinator error: "
                                   f"{msg.get('error')}")
            else:
                raise ServiceError(f"unexpected {kind!r} from "
                                   f"coordinator")

    # ------------------------------------------------------------------
    def _images_for(self, warmup_dir: Optional[str]) -> WarmupImageCache:
        cache = self._images.get(warmup_dir)
        if cache is None:
            if warmup_dir is None:  # memory-only: bound the blobs
                cache = _BoundedImageCache(self.max_memory_images)
            else:  # disk-backed caches hold nothing in RAM
                cache = WarmupImageCache(warmup_dir)
            self._images[warmup_dir] = cache
        return cache

    async def _run_assign(self, msg: Dict[str, Any]) -> None:
        """Simulate one assignment off-loop (executor thread) and send
        the reply. The loop — and the heartbeat — stay live
        throughout."""
        loop = asyncio.get_running_loop()
        frame = await loop.run_in_executor(None, self._execute, msg)
        try:
            self._send_frame(frame)
        except ServiceError:
            pass  # connection already torn down

    def _execute(self, msg: Dict[str, Any]) -> bytes:
        """The compute path (runs in an executor thread): decode the
        unit, simulate, reduce, and encode the reply frame — inside
        the ``try``, so a value the wire cannot carry is a
        ``unit_error`` like any other failure, never a silent loss of
        the reply."""
        job_id, idx = msg["job"], msg["idx"]
        try:
            unit = SweepUnit.from_wire(msg["unit"])
            images: Optional[WarmupImageCache] = None
            if msg.get("warmup_snapshots"):
                images = self._images_for(msg.get("warmup_dir"))
            builds0 = images.misses if images is not None else 0
            hits0 = images.hits if images is not None else 0
            value = unit.encode_value(unit.run(warmup_images=images))
            frame = encode_frame({
                "type": "result", "job": job_id, "idx": idx,
                "value": value,
                "warm_builds": (images.misses - builds0) if images else 0,
                "warm_hits": (images.hits - hits0) if images else 0,
            })
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
