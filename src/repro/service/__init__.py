"""Distributed sweep service: coordinator / worker / client.

The experiment layer's third execution backend (after the serial loop
and the process pool): a :class:`~repro.service.coordinator.Coordinator`
accepts sweep jobs over a length-prefixed JSON socket protocol, hands
their units in one FIFO order to persistent
:class:`~repro.service.worker.Worker` processes, two at a time per
worker (each runs them one after the other, every unit cold — warmup
images stay with the caller), requeues the in-flight
units of dead workers, and streams rows back to
:class:`~repro.service.client.ServiceClient` as they complete. Rows are
bit-identical to ``sweep(jobs=0)`` — runs are seeded by config, results
are deduplicated per unit, and retries are idempotent.

There is one coordinator per fleet. Its pure
:class:`~repro.service.sessions.Sessions` calls the
:class:`~repro.service.scheduler.Scheduler` directly; a client that
loses it mid-job gets a typed :class:`JobFailed`, and a coordinator
restarted over the same ``cache_dir`` serves finished metric rows back
from the row store a local ``sweep(cache_dir=)`` shares, without
re-simulating them.

Entry points: ``scripts/sweep_service.py`` (launch a fleet),
``sweep(..., service="host:port")`` (use one), and
``examples/distributed_sweep.py`` (the tour).
"""

from repro.service.client import ServiceClient
from repro.service.coordinator import Coordinator
from repro.service.errors import (ConnectionClosed, FrameError, JobFailed,
                                  ProtocolMismatch, ServiceError)
from repro.service.protocol import (MAX_FRAME, MESSAGE_TYPES,
                                    PROTOCOL_VERSION, FrameDecoder,
                                    encode_frame)
from repro.service.scheduler import Scheduler
from repro.service.transport import Connection, SyncTransport, parse_address
from repro.service.worker import (Worker, pick_free_ports,
                                  spawn_coordinator_process,
                                  spawn_worker_process)

__all__ = [
    "Coordinator", "Worker", "ServiceClient", "Scheduler",
    "parse_address", "pick_free_ports", "spawn_coordinator_process",
    "spawn_worker_process",
    "ServiceError", "FrameError", "ConnectionClosed",
    "JobFailed", "ProtocolMismatch",
    "PROTOCOL_VERSION", "MAX_FRAME", "MESSAGE_TYPES", "FrameDecoder",
    "encode_frame", "Connection", "SyncTransport",
]
