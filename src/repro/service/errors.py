"""Error types of the distributed sweep service.

Everything the service raises deliberately derives from
:class:`ServiceError` (itself a :class:`repro.errors.ReproError`), so
callers can treat "the service failed" as one catchable condition
while the typed subclasses keep the failure modes distinguishable in
tests and logs.
"""

from __future__ import annotations

from repro.errors import ReproError


class ServiceError(ReproError):
    """Base class for distributed-sweep-service failures."""


class FrameError(ServiceError):
    """A wire frame was malformed: oversized length prefix, truncated
    mid-frame stream, non-JSON payload, or a message without a known
    ``type``. Framing errors are never retried — the peer connection is
    dropped (a corrupt stream cannot be resynchronized)."""


class ProtocolMismatch(ServiceError):
    """The two ends of a connection speak different protocol versions
    (or one end predates the mandatory version field). Raised instead
    of silently interoperating across drifted builds — a coordinator
    replies with a typed ``error`` frame carrying
    ``code="protocol-mismatch"`` and then drops the connection."""


class ConnectionClosed(ServiceError):
    """The peer closed the connection at a frame boundary (clean EOF).

    Distinct from :class:`FrameError` so 'worker went away' can be
    handled (requeue its units) without masking protocol corruption.
    """


class JobFailed(ServiceError):
    """A sweep job failed permanently: a unit errored on every retry,
    or the coordinator went away before streaming all rows."""
