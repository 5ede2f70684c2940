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

Whom to dial, how long to lull and when to give up is
:class:`~repro.service.protocol.SignIn` (budget ``connect_timeout``); a
job's rows across fail-overs are :class:`~repro.service.protocol.JobRows`.
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
from repro.service.transport import SyncTransport, parse_addresses

__all__ = ["ServiceClient"]

#: leader-flap backstop: how many times one ``run_units`` call will
#: resubmit after losing its coordinator before giving up
_MAX_RESUBMITS = 8


class ServiceClient:
    """One connection to a sweep coordinator (usable as a context
    manager). Not thread-safe; open one client per thread.

    ``address`` may be a comma-separated replica list; the client then
    dials until one replica answers ``welcome``, following ``redirect``
    frames to the current leader, and :meth:`run_units` transparently
    fails over (rediscover + resubmit — safe because per-(job, idx)
    completion is idempotent and the replicated result memo serves
    already-finished units without re-simulation)."""

    def __init__(self, address: str, *,
                 connect_timeout: float = 30.0,
                 row_timeout: Optional[float] = None) -> None:
        self.address = address
        self.addresses = parse_addresses(address)
        self.connect_timeout = connect_timeout
        self.row_timeout = row_timeout
        #: fail-over is on exactly when there is more than one replica
        #: to fail over *to* (a single-address coordinator's death
        #: stays a typed JobFailed)
        self.failover = len(self.addresses) > 1
        #: where the last successful handshake landed (the leader)
        self.leader_address: Optional[str] = None
        #: from_cache of the last finished job (units the memo served)
        self.last_job_stats: Dict[str, int] = {}
        self._transport: Optional[SyncTransport] = None
        self.reconnect()

    def reconnect(self) -> None:
        """Drop the current connection (if any) and find a coordinator
        that welcomes us — the leader, in a replicated fleet — within
        ``connect_timeout``: also the retry hook after a coordinator
        restart or fail-over (a job in flight must be resubmitted; the
        coordinator's result memo makes that cheap)."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None
        signin = SignIn(self.addresses, self.connect_timeout,
                        time.monotonic(), self.leader_address)
        self.leader_address = None
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
                if signin.reply(transport.recv(timeout=timeout)):
                    self._transport, transport = transport, None
            except (OSError, ConnectionClosed, FrameError) as exc:
                signin.failed(exc)
            finally:
                if transport is not None:
                    transport.close()
        self.leader_address = signin.leader

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
        its retries.
        """
        rows = JobRows(units, on_row)
        resubmits = 0
        while True:
            try:
                self._transport.send(rows.submit())
                while not rows.frame(self._recv()):
                    pass
                self.last_job_stats = {"from_cache": rows.from_cache}
                return rows.values
            except (JobFailed, ProtocolMismatch):
                raise  # final verdicts, never retried
            except ServiceError as exc:  # the session ended mid-job
                if not self.failover:
                    raise JobFailed(
                        f"coordinator went away with {rows.remaining} "
                        f"rows outstanding ({exc})") from None
                resubmits += 1
                if resubmits > _MAX_RESUBMITS:
                    raise JobFailed(
                        f"gave up after {_MAX_RESUBMITS} fail-overs "
                        f"with {rows.remaining} rows outstanding "
                        f"(last: {exc})") from None
                # rediscover the leader and resubmit everything: the
                # replicated memo serves finished units back instantly
                try:
                    self.reconnect()
                except ProtocolMismatch:
                    raise
                except ServiceError as exc2:
                    raise JobFailed(
                        f"fail-over found no leader: {exc2}") from None
