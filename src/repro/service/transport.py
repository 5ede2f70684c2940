"""Framed connections: the one of each every peer shares.

One connection class per I/O style, one read loop in each, both over
the incremental :class:`~repro.service.protocol.FrameDecoder`, which
owns the EOF rule (clean between frames: :class:`ConnectionClosed`;
mid-frame: :class:`FrameError`):

* :class:`Connection` — the event-loop connection of the coordinator
  (its accepted sockets) and the worker. Sends
  are queued, never awaited by the caller; one pump task drains the
  queue with a ``send_timeout``-bounded ``drain()`` per frame. A peer
  that stops reading therefore aborts *its own* connection at the
  bound, which wakes that connection's reader with
  :class:`ConnectionClosed` — the ordinary teardown path — and blocks
  nobody else.
* :class:`SyncTransport` — the blocking peer (the sweep client, the
  tests' raw peers): a non-blocking socket driven by a ``selectors``
  poll. Calls *block* (a sweep client is a batch consumer; blocking on
  the row stream is the progress loop) but never in a kernel
  ``recv``/``send`` they cannot bound: a monotonic deadline raises
  ``socket.timeout`` for the caller to translate.

:func:`parse_address` reads the one coordinator address; when to dial
it, and what the reply to a ``hello`` means, is the pure
:class:`~repro.service.protocol.SignIn`.
"""

from __future__ import annotations

import asyncio
import selectors
import socket
import time
from typing import Any, Dict, Optional, Tuple

from repro.service.errors import ConnectionClosed, ServiceError
from repro.service.protocol import FrameDecoder, encode_frame

__all__ = ["Connection", "SyncTransport", "SEND_TIMEOUT",
           "parse_address"]

_RECV_CHUNK = 1 << 16

#: how long one frame may sit in a :class:`Connection`'s socket buffer
#: before the peer counts as stalled and the connection is aborted
SEND_TIMEOUT = 30.0


# ----------------------------------------------------------------------
# addresses
# ----------------------------------------------------------------------
def parse_address(address: str) -> Tuple[str, int]:
    """``host:port`` -> ``(host, port)`` (IPv4/hostname form). A
    comma-separated list is refused: the fleet has one coordinator."""
    host, sep, port = address.rpartition(":")
    if "," in address or not sep or not port.isdigit():
        raise ServiceError(f"bad service address {address!r} "
                           f"(expected one host:port)")
    return host or "127.0.0.1", int(port)


# ----------------------------------------------------------------------
# the event-loop connection
# ----------------------------------------------------------------------
class Connection:
    """One live framed connection, owned entirely by its event loop
    (module docstring). Must be created on a running loop."""

    __slots__ = ("send_timeout", "_reader", "_writer", "_decoder",
                 "_queue", "_closing", "_pump_task")

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter,
                 send_timeout: float = SEND_TIMEOUT) -> None:
        self.send_timeout = send_timeout
        self._reader = reader
        self._writer = writer
        self._decoder = FrameDecoder()
        self._queue: asyncio.Queue = asyncio.Queue()
        self._closing = False
        sock = writer.get_extra_info("socket")
        if sock is not None and sock.family in (socket.AF_INET,
                                                 socket.AF_INET6):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        # drain() returns only once the kernel took the whole frame, so
        # the bound below is per frame and close() finds nothing left
        writer.transport.set_write_buffer_limits(high=0)
        self._pump_task = asyncio.create_task(self._pump())

    @classmethod
    async def open(cls, address: str, timeout: float) -> "Connection":
        """Dial ``host:port`` (at most ``timeout`` seconds)."""
        host, port = parse_address(address)
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(host, port), timeout)
        return cls(reader, writer)

    # -- sending -------------------------------------------------------
    def send(self, msg: Dict[str, Any]) -> None:
        """Queue one message (encoding errors surface here, transport
        errors surface as connection teardown)."""
        self.send_frame(encode_frame(msg))

    def send_frame(self, frame: bytes) -> None:
        """Queue one already-encoded frame; dropped once closing."""
        if not self._closing:
            self._queue.put_nowait(frame)

    async def _pump(self) -> None:
        try:
            while True:
                frame = await self._queue.get()
                if frame is None:  # close(): everything queued is out
                    self._writer.close()
                    return
                self._writer.write(frame)
                await asyncio.wait_for(self._writer.drain(),
                                       self.send_timeout)
        except (asyncio.TimeoutError, OSError):
            # Stalled or dead peer. close() would wait for the socket
            # buffer it will never take; abort() drops it, and the
            # connection-lost callback is what wakes our reader.
            self._writer.transport.abort()
        finally:
            self._closing = True

    # -- receiving -----------------------------------------------------
    async def read(self, timeout: Optional[float] = None
                   ) -> Dict[str, Any]:
        """Await one complete message (``asyncio.TimeoutError`` past
        ``timeout``); EOF and malformed framing raise as the decoder
        rules."""
        if timeout is not None:
            return await asyncio.wait_for(self.read(), timeout)
        while True:
            msg = self._decoder.next_message()
            if msg is not None:
                return msg
            try:
                chunk = await self._reader.read(_RECV_CHUNK)
            except OSError as exc:
                raise ConnectionClosed(f"connection lost: {exc}") from exc
            if not chunk:
                raise self._decoder.eof()
            self._decoder.feed(chunk)

    # -- teardown ------------------------------------------------------
    def close(self) -> None:
        """Flush queued frames, then close the transport."""
        if not self._closing:
            self._closing = True
            self._queue.put_nowait(None)

    async def wait_closed(self, timeout: float = 2.0) -> None:
        """Wait for :meth:`close` to finish, at most ``timeout``; a
        peer too slow to take the tail is aborted instead."""
        try:
            await asyncio.wait_for(self._writer.wait_closed(), timeout)
        except (asyncio.TimeoutError, OSError):
            pass
        finally:  # also on cancellation; a no-op after a clean close
            self.abort()

    def abort(self) -> None:
        """Drop the connection now, unsent frames included."""
        self._closing = True
        self._pump_task.cancel()
        self._writer.transport.abort()


# ----------------------------------------------------------------------
# the blocking connection
# ----------------------------------------------------------------------
class SyncTransport:
    """Blocking-API framed messaging over a non-blocking socket."""

    def __init__(self, sock: socket.socket) -> None:
        sock.setblocking(False)
        self._sock = sock
        self._decoder = FrameDecoder()
        self._sel = selectors.DefaultSelector()
        self._sel.register(sock, selectors.EVENT_READ)
        self._closed = False

    @classmethod
    def open(cls, address: str, timeout: float) -> "SyncTransport":
        """Dial ``host:port`` (at most ``timeout`` seconds)."""
        sock = socket.create_connection(parse_address(address),
                                        timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return cls(sock)

    # ------------------------------------------------------------------
    def _wait(self, events: int, deadline: Optional[float]) -> None:
        """Poll until the socket is ready for ``events``; raise
        ``socket.timeout`` at the monotonic ``deadline``."""
        self._sel.modify(self._sock, events)
        while True:
            if deadline is None:
                budget = None
            else:
                budget = deadline - time.monotonic()
                if budget <= 0:
                    raise socket.timeout("transport deadline exceeded")
            if self._sel.select(budget):
                return

    # ------------------------------------------------------------------
    def send(self, msg: Dict[str, Any],
             timeout: Optional[float] = 30.0) -> None:
        """Write one frame completely (bounded by ``timeout``)."""
        view = memoryview(encode_frame(msg))
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while view:
            try:
                sent = self._sock.send(view)
                view = view[sent:]
            except (BlockingIOError, InterruptedError):
                self._wait(selectors.EVENT_WRITE, deadline)
            except OSError as exc:
                raise ConnectionClosed(f"connection lost: {exc}") from exc

    def recv(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until one complete message is available.

        Raises :class:`ConnectionClosed` on clean EOF between frames,
        :class:`FrameError` on mid-frame truncation or malformed
        framing, and ``socket.timeout`` at the deadline.
        """
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        while True:
            msg = self._decoder.next_message()
            if msg is not None:
                return msg
            self._wait(selectors.EVENT_READ, deadline)
            try:
                chunk = self._sock.recv(_RECV_CHUNK)
            except (BlockingIOError, InterruptedError):
                continue  # spurious readiness
            except OSError as exc:
                raise ConnectionClosed(f"connection lost: {exc}") from exc
            if not chunk:
                raise self._decoder.eof()
            self._decoder.feed(chunk)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sel.unregister(self._sock)
        except (KeyError, ValueError, OSError):
            pass
        self._sel.close()
        try:
            self._sock.close()
        except OSError:
            pass
