"""Distributed sweep service: coordinator / worker / client.

The experiment layer's third execution backend (after the serial loop
and the process pool): a :class:`~repro.service.coordinator.Coordinator`
accepts sweep jobs over a length-prefixed JSON socket protocol, hands
their units in one FIFO order to idle persistent
:class:`~repro.service.worker.Worker` processes (each runs every unit
cold — warmup images stay with the caller), requeues the in-flight
units of dead workers, and streams rows back to
:class:`~repro.service.client.ServiceClient` as they complete. Rows are
bit-identical to ``sweep(jobs=0)`` — runs are seeded by config, results
are deduplicated per unit, and retries are idempotent.

Every coordinator commits scheduler commands through a consensus log
(:mod:`repro.service.replica`); a lone one is a quorum of one. Start N
of them with a :class:`~repro.service.cluster.ClusterConfig` and they
elect a leader and replicate that log; clients and workers follow
``redirect`` frames to the leader and fail over when it dies.

Entry points: ``scripts/sweep_service.py`` (launch a fleet,
``--replicas N`` for a replicated one), ``sweep(..., service=
"host:port")`` (use one), and ``examples/distributed_sweep.py``
(the tour).
"""

from repro.service.client import ServiceClient
from repro.service.cluster import (ClusterConfig, ClusterManager,
                                   pick_free_ports,
                                   spawn_coordinator_process)
from repro.service.coordinator import Coordinator
from repro.service.errors import (ConnectionClosed, FrameError, JobFailed,
                                  ProtocolMismatch, ServiceError,
                                  WorkerLost)
from repro.service.protocol import (MAX_FRAME, MESSAGE_TYPES,
                                    PROTOCOL_VERSION, FrameDecoder,
                                    encode_frame)
from repro.service.replica import (ConsensusCore, ReplicaLog,
                                   SchedulerMachine)
from repro.service.scheduler import Scheduler
from repro.service.transport import (Connection, SyncTransport,
                                     parse_address, parse_addresses)
from repro.service.worker import Worker

__all__ = [
    "Coordinator", "Worker", "ServiceClient", "Scheduler",
    "parse_address", "parse_addresses",
    "ClusterConfig", "ClusterManager", "ConsensusCore", "ReplicaLog",
    "SchedulerMachine", "pick_free_ports", "spawn_coordinator_process",
    "ServiceError", "FrameError", "ConnectionClosed", "WorkerLost",
    "JobFailed", "ProtocolMismatch",
    "PROTOCOL_VERSION", "MAX_FRAME", "MESSAGE_TYPES", "FrameDecoder",
    "encode_frame", "Connection", "SyncTransport",
]
