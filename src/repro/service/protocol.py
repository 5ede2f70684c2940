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
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, Iterator, Optional

from repro.service.errors import (ConnectionClosed, FrameError,
                                  ProtocolMismatch, ServiceError)

__all__ = ["PROTOCOL_VERSION", "MAX_FRAME", "MESSAGE_TYPES",
           "encode_frame", "FrameDecoder", "check_protocol"]

#: Version 8: a worker holds two ``assign``s at once (the one it runs
#: and the next) and must run them one at a time, in arrival order.
#: Frames are byte-identical to v7's, but a v7 worker would run the two
#: concurrently in executor threads.
#: (Version 7: the fleet carries no warmup images. ``submit`` and
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
#: Version 3 added coordinator replication. ``redirect`` tells a client or
#: worker which replica currently leads (follow it, don't retry here);
#: ``replica-hello`` opens a replica-to-replica link, over which the
#: consensus traffic flows (``replica-vote``/``replica-vote-reply``
#: elections, ``replica-append``/``replica-append-ack`` log
#: replication — see :mod:`repro.service.replica`. A v2 peer would
#: treat a redirect as an unknown frame and hang against a follower,
#: which is exactly the drift the mandatory version field catches.
#: Version 2 made the ``protocol`` field in ``hello``/``welcome``
#: mandatory and gave unit/value payloads a ``kind`` discriminator
#: plus full-``RunResult`` encodings — see
#: :mod:`repro.harness.units`.)
PROTOCOL_VERSION = 8

#: hard payload ceiling — a submit of ~100k units is a few MB; anything
#: past this is a corrupt or hostile length prefix, not a real message.
MAX_FRAME = 64 * 1024 * 1024

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
    # replica -> client/worker: you reached a follower, go there
    "redirect",
    # replica <-> replica: consensus traffic (repro.service.replica)
    "replica-hello", "replica-vote", "replica-vote-reply",
    "replica-append", "replica-append-ack",
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
