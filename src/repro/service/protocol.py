"""Length-prefixed JSON wire protocol for the sweep service.

One frame = a 4-byte big-endian payload length followed by a UTF-8
JSON object with a ``type`` field. JSON keeps the protocol inspectable
and version-tolerant; float round-tripping through ``json`` is exact
(repr-based), so metric values survive the wire bit-identically.

The decoder is *incremental* (:class:`FrameDecoder`): feed it whatever
``recv`` returned — single bytes, half frames, three frames at once —
and it yields complete messages. Anything malformed (oversized length
prefix, garbage JSON, a non-object payload, an unknown ``type``)
raises a typed :class:`FrameError` immediately instead of hanging or
desynchronizing, and a stream that ends mid-frame is distinguishable
from a clean close (:class:`ConnectionClosed`).

The peers' decisions are pure objects here, driven with ``now`` passed
in: :class:`SignIn` (when to dial, how long to lull, when to give up)
and :class:`JobRows` (a client's rows of one job). The stepped test
(``tests/test_service_sessions.py``) drives the very same ones.
"""

from __future__ import annotations

import json
import struct
from typing import (Any, Callable, Dict, Iterator, List, Optional,
                    Sequence)

from repro.service.errors import (ConnectionClosed, FrameError, JobFailed,
                                  ProtocolMismatch, ServiceError)

__all__ = ["PROTOCOL_VERSION", "MAX_FRAME", "MESSAGE_TYPES",
           "SIGNIN_LULL", "encode_frame", "FrameDecoder", "check_protocol",
           "frame_field", "raise_for_error", "SignIn", "JobRows"]

#: Version 10: the fleet has one coordinator. The frame that sent a
#: peer on to the leading replica and the five consensus frames between
#: replicas are gone, and ``status_reply`` has no ``cluster`` entry; a
#: v9 peer given a replica list would wait for a pointer to the leader
#: that no coordinator sends.
#: (Version 9: an encoded ``RunResult``'s ``stats`` is
#: :meth:`~repro.sim.stats.Stats.to_wire` — each sampler is
#: ``[count, total]`` (v8 sent six fields per sampler and two more
#: stats keys), so a v8 peer could not decode a v9 full-result value
#: (nor a v9 peer a v8 one).
#: Version 8: a worker holds two ``assign``s at once (the one it runs
#: and the next) and must run them one at a time, in arrival order.
#: Frames are byte-identical to v7's, but a v7 worker would run the two
#: concurrently in executor threads.
#: Version 7: the fleet carries no warmup images. ``submit`` and
#: ``assign`` lose their warmup flag and image directory, ``result``
#: and ``done`` their image build / fork counts, and every worker runs
#: every unit cold — a v6 client that asked for warmup forking would
#: have it silently ignored. Unit frames are byte-identical to v6's.
#: Version 6: ``kind: "sweep"`` is the only unit kind. A Table-2
#: multi-program workload is a sweep unit whose ``benchmark`` names it
#: (``"W0"``-``"W9"``), so a v5 worker's preset table would not know
#: the name and a v6 coordinator refuses a v5 client's
#: ``kind: "workload"`` submit; default sweep frames are byte-identical
#: to v5's.
#: Version 5: sweep units may carry the reconfigurable-hierarchy axes
#: (``scratchpad_fraction``/``spm_latency``) in their wire form; a
#: default-hierarchy unit's frame is byte-identical to v4, but a v4
#: worker would silently run a scratchpad-partitioned unit on the
#: all-cache machine and return rows from the wrong hardware.
#: Version 4: sweep units carry the speculative-front-end fields
#: (``speculation``/``spec_window``/``spec_rate``) in their wire form —
#: a v3 worker would silently run a speculation-on unit with
#: speculation off and return committed-only rows missing every
#: ``leak_*`` counter.
#: Version 3 added coordinator replication (retired in v10): a frame
#: telling a client or worker which replica leads, and the consensus
#: frames (votes, log appends and their acks) between replicas. A v2
#: peer would treat the pointer to the leader as an unknown frame and
#: hang against a follower, which is exactly the drift the mandatory
#: version field catches.
#: Version 2 made the ``protocol`` field in ``hello``/``welcome``
#: mandatory and gave unit/value payloads a ``kind`` discriminator
#: plus full-``RunResult`` encodings — see
#: :mod:`repro.harness.units`.)
PROTOCOL_VERSION = 10

#: hard payload ceiling — a submit of ~100k units is a few MB; anything
#: past this is a corrupt or hostile length prefix, not a real message.
MAX_FRAME = 64 * 1024 * 1024

#: pause before dialing again after a sign-in that found nobody
SIGNIN_LULL = 0.3

_LEN = struct.Struct("!I")

MESSAGE_TYPES = frozenset({
    # session establishment (both directions)
    "hello", "welcome",
    # client -> coordinator
    "submit", "status", "ping", "shutdown", "bye",
    # coordinator -> client
    "accepted", "row", "done", "job_failed", "status_reply", "pong",
    # coordinator <-> worker
    "assign", "result", "unit_error", "heartbeat",
    # either direction: fatal protocol-level complaint before drop
    "error",
})


def encode_frame(msg: Dict[str, Any]) -> bytes:
    """Serialize one message to its wire frame."""
    if not isinstance(msg, dict) or msg.get("type") not in MESSAGE_TYPES:
        raise FrameError(f"cannot encode message with type "
                         f"{msg.get('type') if isinstance(msg, dict) else msg!r}")
    payload = json.dumps(msg, separators=(",", ":"), sort_keys=True).encode()
    if len(payload) > MAX_FRAME:
        raise FrameError(f"frame payload {len(payload)} bytes exceeds "
                         f"MAX_FRAME {MAX_FRAME}")
    return _LEN.pack(len(payload)) + payload


class FrameDecoder:
    """Incremental frame parser; byte-chunking agnostic.

    ``feed(data)`` appends received bytes; iterate (or call
    :meth:`next_message`) to drain complete messages. The decoder keeps
    at most one frame of lookahead buffered. ``max_frame`` bounds the
    accepted payload length (default :data:`MAX_FRAME`); a length
    prefix past the bound raises :class:`FrameError` the moment the
    prefix is readable — allocation for it never happens.
    """

    def __init__(self, max_frame: int = MAX_FRAME) -> None:
        self._buf = bytearray()
        self.max_frame = max_frame

    @property
    def at_boundary(self) -> bool:
        """True when no partial frame is buffered (a clean EOF point)."""
        return not self._buf

    def eof(self) -> ServiceError:
        """The error a reader raises when its stream ends here: the
        one copy of the EOF rule, shared by both read loops
        (:mod:`repro.service.transport`)."""
        if self.at_boundary:
            return ConnectionClosed("peer closed the connection")
        return FrameError("stream truncated mid-frame")

    def feed(self, data: bytes) -> None:
        self._buf.extend(data)
        # Reject a poisoned length prefix as soon as it is readable:
        # waiting for max_frame bytes that will never come is the hang
        # the typed error exists to prevent.
        if len(self._buf) >= _LEN.size:
            (length,) = _LEN.unpack_from(self._buf, 0)
            if length > self.max_frame:
                raise FrameError(f"frame length {length} exceeds "
                                 f"max frame {self.max_frame}")

    def next_message(self) -> Optional[Dict[str, Any]]:
        if len(self._buf) < _LEN.size:
            return None
        (length,) = _LEN.unpack_from(self._buf, 0)
        if length > self.max_frame:
            raise FrameError(f"frame length {length} exceeds "
                             f"max frame {self.max_frame}")
        end = _LEN.size + length
        if len(self._buf) < end:
            return None
        payload = bytes(self._buf[_LEN.size:end])
        del self._buf[:end]
        try:
            msg = json.loads(payload)
        except ValueError as exc:
            raise FrameError(f"frame payload is not JSON: {exc}") from exc
        if not isinstance(msg, dict):
            raise FrameError(f"frame payload is not an object: "
                             f"{type(msg).__name__}")
        if msg.get("type") not in MESSAGE_TYPES:
            raise FrameError(f"unknown message type {msg.get('type')!r}")
        return msg

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        while True:
            msg = self.next_message()
            if msg is None:
                return
            yield msg


def check_protocol(msg: Dict[str, Any], *, peer: str) -> None:
    """Validate the mandatory ``protocol`` field of a handshake frame.

    Both absence and a wrong value raise :class:`ProtocolMismatch` —
    a peer that omits the field predates it, which is the same drift
    the field exists to catch.
    """
    got = msg.get("protocol")
    if got != PROTOCOL_VERSION:
        raise ProtocolMismatch(
            f"{peer} speaks protocol {got!r}, this end speaks "
            f"{PROTOCOL_VERSION}; refusing to interoperate across "
            f"drifted builds")


def frame_field(msg: Dict[str, Any], key: str, kind: type) -> Any:
    """``msg[key]``, which the peer must have sent as a ``kind``."""
    value = msg.get(key)
    if type(value) is not kind:
        raise FrameError(f"malformed {msg.get('type')!r} frame: {key!r} "
                         f"must be {kind.__name__}, got {value!r}")
    return value


def raise_for_error(msg: Dict[str, Any]) -> None:
    """Raise the typed exception an ``error`` frame carries."""
    if msg.get("type") == "error":
        kind = (ProtocolMismatch if msg.get("code") == "protocol-mismatch"
                else ServiceError)
        raise kind(f"coordinator error: {msg.get('error')}")


class SignIn:
    """One peer's sign-in with the coordinator, client and worker alike.

    :meth:`dial` says whether to dial ``address`` at ``now``; the owner
    hands back the reply to its ``hello`` (:meth:`reply`) or the dial's
    error (:meth:`failed`). A dial that found nobody is followed by a
    :data:`SIGNIN_LULL`; the first dial past ``budget`` raises
    :class:`ServiceError` instead. The first dial of all is always made,
    so a budget of 0 is one try."""

    def __init__(self, address: str, budget: float, now: float) -> None:
        self.address, self.budget = address, budget
        self.deadline, self.wake = now + budget, now
        self.dials = 0
        self.last_error: Optional[BaseException] = None
        self._lull = False  # a dial went out: lull before the next

    def dial(self, now: float) -> Optional[str]:
        """The address to dial, or None until :attr:`wake`."""
        if now < self.wake:
            return None
        if self.dials and now >= self.deadline:
            raise ServiceError(
                f"no coordinator reachable at {self.address} within "
                f"{self.budget}s (last error: {self.last_error})")
        if self._lull:
            self._lull = False
            self.wake = now + SIGNIN_LULL
            return None
        self.dials += 1
        self._lull = True
        return self.address

    def failed(self, exc: BaseException) -> None:
        self.last_error = exc

    def reply(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """The ``welcome``; anything else is a refusal, which is final:
        a typed ``error`` frame raises its error, a stray frame
        :class:`ServiceError`."""
        if msg.get("type") != "welcome":
            raise_for_error(msg)
            raise ServiceError(f"expected welcome, got {msg.get('type')!r}")
        check_protocol(msg, peer="coordinator")
        return msg


class JobRows:
    """A client's rows of one job.

    :meth:`submit` builds the ``submit`` frame (every unit: the memo
    serves finished ones back) and :meth:`frame` takes the stream —
    ``accepted`` with the memo's rows, a ``row`` per unit, then
    ``done``. ``on_row(idx, value)`` fires once per idx. A unit needs
    ``to_wire()`` and ``decode_value()`` (``SweepUnit``)."""

    def __init__(self, units: Sequence[Any],
                 on_row: Optional[Callable[[int, Any], None]] = None
                 ) -> None:
        self.units, self.on_row = units, on_row
        self.values: List[Any] = [None] * len(units)
        self.received: set = set()
        self.from_cache = 0
        self.job: Optional[str] = None  # the job id, once accepted

    @property
    def remaining(self) -> int:
        return len(self.units) - len(self.received)

    def submit(self) -> Dict[str, Any]:
        return {"type": "submit", "units": [u.to_wire() for u in self.units]}

    def frame(self, msg: Dict[str, Any]) -> bool:
        """Take one frame; True once the job is done. ``job_failed``, or
        ``done`` short of rows, raises :class:`JobFailed`; a malformed
        row :class:`FrameError`; an error or stray frame its error."""
        raise_for_error(msg)
        kind = msg.get("type")
        if self.job is None:
            if kind != "accepted":
                raise ServiceError(f"expected accepted, got {kind!r}")
            self.job = frame_field(msg, "job", str)
            for pair in frame_field(msg, "cached", list):
                if type(pair) is not list or len(pair) != 2:
                    raise FrameError(f"malformed cached row {pair!r}")
                self._take(*pair)
        elif msg.get("job") != self.job or kind not in (
                "row", "done", "job_failed"):
            raise ServiceError(f"unexpected {kind!r} while waiting for "
                               f"{self.job} rows")
        elif kind == "row":
            if "value" not in msg:
                raise FrameError("malformed 'row' frame: no 'value'")
            self._take(msg.get("idx"), msg["value"])
        elif kind == "job_failed":
            raise JobFailed(f"{self.job}: unit #{msg.get('idx')} failed "
                            f"permanently: {msg.get('error')}")
        elif self.remaining:
            raise JobFailed(f"{self.job}: done with {self.remaining} "
                            f"rows missing")
        else:
            self.from_cache = msg.get("from_cache", 0)
            return True
        return False

    def _take(self, idx: Any, wire_value: Any) -> None:
        if type(idx) is not int or not 0 <= idx < len(self.units):
            raise FrameError(f"{self.job}: no unit #{idx!r} among "
                             f"{len(self.units)}")
        self.values[idx] = self.units[idx].decode_value(wire_value)
        if idx not in self.received:
            self.received.add(idx)
            if self.on_row is not None:
                self.on_row(idx, self.values[idx])
