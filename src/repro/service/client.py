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
"""

from __future__ import annotations

import socket
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.harness.units import SweepUnit
from repro.service.errors import (ConnectionClosed, JobFailed,
                                  ProtocolMismatch, ServiceError)
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.transport import (LeaderHunt, Redirected,
                                     SyncTransport, check_welcome,
                                     parse_addresses, raise_for_error)

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
        #: warm_builds / warm_hits / from_cache of the last finished job
        self.last_job_stats: Dict[str, int] = {}
        self._transport: Optional[SyncTransport] = None
        self._connect()

    def _handshake(self, address: str,
                   timeout: float) -> SyncTransport:
        """Dial one replica; returns the transport on ``welcome``,
        raises ``Redirected`` when it points elsewhere."""
        transport = SyncTransport.open(address, timeout)
        try:
            transport.send({"type": "hello", "role": "client",
                            "protocol": PROTOCOL_VERSION},
                           timeout=timeout)
            check_welcome(self._recv_on(transport, timeout))
        except BaseException:
            transport.close()
            raise
        return transport

    def _connect(self) -> None:
        """Find a coordinator that welcomes us — the leader, in a
        replicated fleet — within ``connect_timeout`` overall."""
        deadline = time.monotonic() + self.connect_timeout
        last_exc: Optional[BaseException] = None
        while True:
            hunt = LeaderHunt(self.addresses, self.leader_address)
            self.leader_address = None
            for addr in hunt:
                budget = deadline - time.monotonic()
                if budget <= 0:
                    break
                try:
                    transport = self._handshake(addr, budget)
                except Redirected as red:
                    hunt.redirect(red.leader)
                    continue
                except ProtocolMismatch:
                    raise
                except (OSError, ServiceError) as exc:
                    last_exc = exc
                    continue
                self._transport = transport
                self.leader_address = addr
                return
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"no coordinator reachable at {self.address} "
                    f"within {self.connect_timeout}s"
                    + (f" (last error: {last_exc})" if last_exc
                       else ""))
            time.sleep(0.3)  # mid-election lull; let a leader emerge

    def reconnect(self) -> None:
        """Drop the current connection (if any) and re-handshake — the
        retry hook after a coordinator restart or fail-over (any job
        that was in flight must be resubmitted; the coordinator's
        result memo makes that cheap)."""
        if self._transport is not None:
            self._transport.close()
            self._transport = None
        self._connect()

    # ------------------------------------------------------------------
    def _recv_on(self, transport: SyncTransport,
                 timeout: Optional[float]) -> Dict[str, Any]:
        try:
            msg = transport.recv(timeout=timeout)
        except socket.timeout:
            raise ServiceError(
                f"no message from coordinator within "
                f"{timeout}s") from None
        raise_for_error(msg)
        return msg

    def _recv(self) -> Dict[str, Any]:
        assert self._transport is not None
        return self._recv_on(self._transport, self.row_timeout)

    def _send(self, msg: Dict[str, Any]) -> None:
        assert self._transport is not None
        self._transport.send(msg)

    def close(self) -> None:
        if self._transport is None:
            return
        try:
            self._send({"type": "bye"})
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
        self._send({"type": "ping"})
        return self._recv().get("type") == "pong"

    def status(self) -> Dict[str, Any]:
        """Fleet snapshot: per-worker rows + scheduler/cache stats."""
        self._send({"type": "status"})
        reply = self._recv()
        if reply.get("type") != "status_reply":
            raise ServiceError(f"expected status_reply, got "
                               f"{reply.get('type')!r}")
        return reply

    def shutdown(self) -> None:
        """Stop the whole fleet (coordinator tells workers to exit)."""
        self._send({"type": "shutdown"})
        try:
            self._recv()  # bye
        except (ServiceError, ConnectionClosed):
            pass

    # ------------------------------------------------------------------
    def run_units(self, units: Sequence[SweepUnit], *,
                  warmup_snapshots: bool = False,
                  warmup_dir: Optional[str] = None,
                  on_row: Optional[Callable[[int, Any], None]] = None
                  ) -> List[Any]:
        """Submit one job and block until every row arrived.

        Returns values in unit order (same contract as the in-process
        :func:`repro.harness.parallel.run_units`) — including full
        ``RunResult`` objects for metric-None units, decoded from
        their wire encoding against each unit's own config.
        ``warmup_dir`` must be a directory visible to the *workers* (a
        shared filesystem for a multi-host fleet); without one, each
        worker keeps its own in-memory image cache, which affinity
        sharding still exploits. Raises :class:`JobFailed` when a unit
        exhausts its retries.
        """
        wire = [u.to_wire() for u in units]
        values: List[Any] = [None] * len(units)
        got = [False] * len(units)
        state = {"remaining": len(units)}
        resubmits = 0
        while True:
            try:
                return self._attempt(units, wire, values, got, state,
                                     warmup_snapshots, warmup_dir,
                                     on_row)
            except (JobFailed, ProtocolMismatch):
                raise  # final verdicts, never retried
            except (ConnectionClosed, ServiceError) as exc:
                if not self.failover:
                    raise JobFailed(
                        f"coordinator went away with "
                        f"{state['remaining']} rows outstanding "
                        f"({exc})") from None
                resubmits += 1
                if resubmits > _MAX_RESUBMITS:
                    raise JobFailed(
                        f"gave up after {_MAX_RESUBMITS} fail-overs "
                        f"with {state['remaining']} rows outstanding "
                        f"(last: {exc})") from None
                # rediscover the leader and resubmit everything: the
                # replicated memo serves finished units back instantly
                try:
                    self.reconnect()
                except ProtocolMismatch:
                    raise
                except (OSError, ServiceError) as exc2:
                    raise JobFailed(
                        f"fail-over found no leader: {exc2}") from None

    def _attempt(self, units: Sequence[SweepUnit], wire: List[Any],
                 values: List[Any], got: List[bool],
                 state: Dict[str, int], warmup_snapshots: bool,
                 warmup_dir: Optional[str],
                 on_row: Optional[Callable[[int, Any], None]]
                 ) -> List[Any]:
        """One submit + row-stream cycle. Mutates ``values``/``got``/
        ``state`` in place so a fail-over retry never re-fires
        ``on_row`` for rows the caller already saw."""
        self._send({
            "type": "submit", "units": wire,
            "warmup_snapshots": warmup_snapshots,
            "warmup_dir": warmup_dir,
        })
        accepted = self._recv()
        if accepted.get("type") != "accepted":
            raise ServiceError(f"expected accepted, got "
                               f"{accepted.get('type')!r}")
        job_id = accepted["job"]

        def accept(idx: int, wire_value: Any) -> None:
            value = units[idx].decode_value(wire_value)
            values[idx] = value
            if not got[idx]:
                got[idx] = True
                state["remaining"] -= 1
                if on_row is not None:
                    on_row(idx, value)

        # units the memo served ride the accept itself (when that is
        # all of them, the coordinator still sends done with the stats)
        for idx, value in accepted.get("cached", []):
            accept(idx, value)
        while True:  # exits via "done" (all rows), JobFailed, or error
            try:
                msg = self._recv()
            except ConnectionClosed:
                raise ConnectionClosed(
                    f"{job_id}: coordinator went away with "
                    f"{state['remaining']} rows outstanding") from None
            kind = msg.get("type")
            if kind == "row" and msg.get("job") == job_id:
                accept(msg["idx"], msg["value"])
            elif kind == "done" and msg.get("job") == job_id:
                if state["remaining"]:
                    raise JobFailed(
                        f"{job_id}: done with {state['remaining']} "
                        f"rows missing")
                self.last_job_stats = {
                    "warm_builds": msg.get("warm_builds", 0),
                    "warm_hits": msg.get("warm_hits", 0),
                    "from_cache": msg.get("from_cache", 0),
                }
                return values
            elif kind == "job_failed" and msg.get("job") == job_id:
                raise JobFailed(f"{job_id}: unit #{msg.get('idx')} "
                                f"failed permanently: {msg.get('error')}")
            else:
                raise ServiceError(f"unexpected {kind!r} while waiting "
                                   f"for {job_id} rows")
