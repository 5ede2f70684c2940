"""Python client of the distributed sweep service.

:class:`ServiceClient` speaks the client half of the protocol: submit
a job (a list of :class:`~repro.harness.units.SweepUnit`, the one unit
type), consume the ``row`` stream, and return the values in unit order
— full ``RunResult`` units included (metric None): the worker
wire-encodes the result and the client decodes it back against the
unit's own config, so every experiment rides the fleet. The harness
entry points (``sweep(service=...)``, ``run_units(service=...)``)
build on :meth:`ServiceClient.run_units`.

The client's API is deliberately synchronous — a sweep is a batch, and
the coordinator streams rows as they finish, so blocking on the socket
*is* the progress loop. Underneath, the socket is non-blocking
(:class:`~repro.service.transport.SyncTransport`, the same transport
discipline as the event-loop coordinator), which is what makes
``row_timeout`` a real deadline on every wait instead of a per-recv
kernel timeout. ``on_row`` gives callers a live hook (progress bars,
incremental plotting) without threads.

When to dial, how long to lull and when to give up is
:class:`~repro.service.protocol.SignIn` (budget ``connect_timeout``); a
job's rows are :class:`~repro.service.protocol.JobRows`. A coordinator
lost mid-job is a typed :class:`~repro.service.errors.JobFailed`;
:meth:`ServiceClient.reconnect` then dials it again (a restarted
coordinator over the same ``cache_dir`` serves finished units back).
"""

from __future__ import annotations

import socket
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.harness.units import SweepUnit
from repro.service.errors import (ConnectionClosed, FrameError, JobFailed,
                                  ProtocolMismatch, ServiceError)
from repro.service.protocol import (PROTOCOL_VERSION, JobRows, SignIn,
                                    raise_for_error)
from repro.service.transport import SyncTransport, parse_address

__all__ = ["ServiceClient"]


class ServiceClient:
    """One connection to a sweep coordinator (usable as a context
    manager). Not thread-safe; open one client per thread. A bad
    ``address`` raises :class:`ServiceError` before anything is
    dialed."""

    def __init__(self, address: str, *,
                 connect_timeout: float = 30.0,
                 row_timeout: Optional[float] = None) -> None:
        parse_address(address)
        self.address = address
        self.connect_timeout = connect_timeout
        self.row_timeout = row_timeout
        #: from_cache of the last finished job (units the memo served)
        self.last_job_stats: Dict[str, int] = {}
        self._transport: Optional[SyncTransport] = None
        self.reconnect()

    def reconnect(self) -> None:
        """Drop the current connection (if any) and sign in with the
        coordinator within ``connect_timeout``: also the retry hook after
        a coordinator restart (a job in flight must be resubmitted; the
        coordinator's result memo makes that cheap)."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None
        signin = SignIn(self.address, self.connect_timeout,
                        time.monotonic())
        while self._transport is None:
            now = time.monotonic()
            address = signin.dial(now)
            if address is None:
                time.sleep(signin.wake - now)
                continue
            timeout = signin.deadline - now
            transport = None
            try:
                transport = SyncTransport.open(address, timeout)
                transport.send({"type": "hello", "role": "client",
                                "protocol": PROTOCOL_VERSION},
                               timeout=timeout)
                signin.reply(transport.recv(timeout=timeout))
                self._transport, transport = transport, None
            except (OSError, ConnectionClosed, FrameError) as exc:
                signin.failed(exc)
            finally:
                if transport is not None:
                    transport.close()

    # ------------------------------------------------------------------
    def _recv(self) -> Dict[str, Any]:
        assert self._transport is not None
        try:
            msg = self._transport.recv(timeout=self.row_timeout)
        except socket.timeout:
            raise ServiceError(
                f"no message from coordinator within "
                f"{self.row_timeout}s") from None
        raise_for_error(msg)
        return msg

    def close(self) -> None:
        if self._transport is None:
            return
        try:
            self._transport.send({"type": "bye"})
        except (OSError, ServiceError):
            pass
        self._transport.close()
        self._transport = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def ping(self) -> bool:
        self._transport.send({"type": "ping"})
        return self._recv().get("type") == "pong"

    def status(self) -> Dict[str, Any]:
        """Fleet snapshot: per-worker rows + scheduler/cache stats."""
        self._transport.send({"type": "status"})
        reply = self._recv()
        if reply.get("type") != "status_reply":
            raise ServiceError(f"expected status_reply, got "
                               f"{reply.get('type')!r}")
        return reply

    def shutdown(self) -> None:
        """Stop the whole fleet (coordinator tells workers to exit)."""
        self._transport.send({"type": "shutdown"})
        try:
            self._recv()  # bye
        except (ServiceError, ConnectionClosed):
            pass

    # ------------------------------------------------------------------
    def run_units(self, units: Sequence[SweepUnit], *,
                  on_row: Optional[Callable[[int, Any], None]] = None
                  ) -> List[Any]:
        """Submit one job and block until every row arrived.

        Returns values in unit order (same contract as the in-process
        :func:`repro.harness.parallel.run_units`) — including full
        ``RunResult`` objects for metric-None units, decoded from
        their wire encoding against each unit's own config. Workers run
        every unit cold. Raises :class:`JobFailed` when a unit exhausts
        its retries, or when the session ends mid-job.
        """
        rows = JobRows(units, on_row)
        try:
            self._transport.send(rows.submit())
            while not rows.frame(self._recv()):
                pass
        except (JobFailed, ProtocolMismatch):
            raise  # final verdicts
        except ServiceError as exc:  # the session ended mid-job
            raise JobFailed(
                f"coordinator went away with {rows.remaining} rows "
                f"outstanding ({exc})") from None
        self.last_job_stats = {"from_cache": rows.from_cache}
        return rows.values
