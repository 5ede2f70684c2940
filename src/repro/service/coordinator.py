"""The sweep coordinator: the sockets, tasks and clock around
:class:`~repro.service.sessions.Sessions`, the pure state machine that
makes every job, worker and memo decision.

One listening socket serves workers and clients. A peer's ``hello``
and every later frame go to ``Sessions``; on EOF or an error the peer
gets the typed ``error`` frame and ``Sessions.closed`` ends its
session. The one timer (:meth:`_timer`) calls ``Sessions.tick`` with
monotonic ``loop.time()`` every ``monitor_interval``.

Concurrency model: a single-threaded asyncio event loop, in one
background thread so ``start()``/``stop()`` keep their blocking API.
Every connection is one :class:`~repro.service.transport.Connection`
(a reader plus a writer task draining a per-connection queue), so sends
never block the loop and a peer that stops reading aborts only its own
connection, at ``SEND_TIMEOUT``. ``Sessions`` is touched only from the
loop thread: no locks, and no thread-per-connection ceiling
(``tests/test_service_scale.py`` storms 512 worker connections).
"""

from __future__ import annotations

import asyncio
import logging
import threading
from typing import Optional, Set

from repro.service.errors import ProtocolMismatch, ServiceError
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.sessions import Sessions
from repro.service.transport import Connection

__all__ = ["Coordinator"]

log = logging.getLogger(__name__)

#: accept backlog — sized for bursts of a whole fleet signing in at
#: once (``tests/test_service_scale.py`` dials 512 in one loop)
_BACKLOG = 1024


class Coordinator:
    def __init__(self, host: str = "127.0.0.1", port: int = 0, *,
                 cache_dir: Optional[str] = None,
                 heartbeat_timeout: float = 8.0,
                 monitor_interval: float = 0.5) -> None:
        self.host = host
        self.port = port
        self.monitor_interval = monitor_interval
        self.sessions = Sessions(on_shutdown=self._request_shutdown,
                                 cache_dir=cache_dir,
                                 heartbeat_timeout=heartbeat_timeout)
        self._conns: Set[Connection] = set()
        self._conn_tasks: Set[asyncio.Task] = set()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._stopped = threading.Event()
        self._start_error: Optional[BaseException] = None
        self._shutdown_evt: Optional[asyncio.Event] = None
        self._stopping = False  # loop-side flag: teardown has begun

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
        self._ready.set()
        log.info("coordinator listening on %s (single-threaded event "
                 "loop)", self.address)
        timer = asyncio.create_task(self._timer())
        try:
            await self._shutdown_evt.wait()
        finally:
            self._stopping = True
            self.sessions.stop()
            timer.cancel()
            await asyncio.gather(timer, return_exceptions=True)
            server.close()
            await server.wait_closed()
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

    async def _timer(self) -> None:
        """The one clock: checks worker liveness."""
        assert self._loop is not None
        while True:
            await asyncio.sleep(self.monitor_interval)
            self.sessions.tick(self._loop.time())

    # ------------------------------------------------------------------
    # connections
    # ------------------------------------------------------------------
    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        conn = Connection(reader, writer)
        self._conns.add(conn)
        loop = asyncio.get_running_loop()
        try:
            live = self.sessions.hello(conn, await conn.read(30.0),
                                       loop.time())
            while live and not self._stopping:
                live = self.sessions.frame(conn, await conn.read(),
                                           loop.time())
        except asyncio.TimeoutError:
            pass  # never said hello — drop silently
        except (ServiceError, OSError) as exc:
            if not self._stopping:
                log.info("connection dropped: %s", exc)
            error = {"type": "error", "error": str(exc)}
            if isinstance(exc, ProtocolMismatch):
                error["code"] = "protocol-mismatch"
                error["expected"] = PROTOCOL_VERSION
            conn.send(error)
        finally:
            self.sessions.closed(conn, loop.time())
            self._conns.discard(conn)
            conn.close()
            await conn.wait_closed()
