"""Many-connection smoke: the event-loop coordinator at fan-in scale.

The thread-per-connection tier died at a few hundred sockets (one OS
thread each); the asyncio rewrite is supposed to make connection count
a non-event. This campaign pins that: 512 simulated workers sign in
and heartbeat through one coordinator, the fleet drains cleanly, and
the same coordinator instance then serves a real job — all under hard
internal deadlines so a regression shows up as a failure, not a hung
CI job.
"""

from __future__ import annotations

import resource
import threading
import time

import pytest

from repro.harness.experiment import ExperimentConfig
from repro.harness.units import SweepUnit
from repro.params import Organization
from repro.service import Coordinator, ServiceClient, Worker
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.transport import SyncTransport

N_FAKE = 512
DEADLINE = 120.0  # hard cap on every wait in this file

# CI runners default to a 1024 soft fd limit; 512 client-side sockets,
# their 512 selectors and 512 accepted server-side sockets (one
# process) need more.
_soft, _hard = resource.getrlimit(resource.RLIMIT_NOFILE)
_want = 4096 if _hard == resource.RLIM_INFINITY else min(_hard, 4096)
if _soft < _want:
    resource.setrlimit(resource.RLIMIT_NOFILE, (_want, _hard))


def _await_stats(address: str, pred, what: str,
                 timeout: float = DEADLINE):
    deadline = time.monotonic() + timeout
    stats = None
    with ServiceClient(address, row_timeout=30.0) as client:
        while time.monotonic() < deadline:
            stats = client.status()["stats"]
            if pred(stats):
                return stats
            time.sleep(0.02)
    raise AssertionError(f"coordinator never {what}; last: {stats}")


def _sign_in(address: str, name: str) -> SyncTransport:
    peer = SyncTransport.open(address, 30.0)
    peer.send({"type": "hello", "role": "worker",
               "protocol": PROTOCOL_VERSION, "name": name, "pid": 0})
    return peer


class TestManyConnections:
    def test_sign_in_storm_heartbeats_and_drain(self):
        """512 workers connect, heartbeat twice, and leave; the
        coordinator tracks every arrival and departure."""
        coord = Coordinator(heartbeat_timeout=DEADLINE,
                            monitor_interval=5.0)
        address = coord.start()
        conns = []
        try:
            for i in range(N_FAKE):
                conns.append(_sign_in(address, f"fw{i}"))
            for peer in conns:
                assert peer.recv(timeout=30.0)["type"] == "welcome"
            for _ in range(2):
                for peer in conns:
                    peer.send({"type": "heartbeat"})
            stats = _await_stats(
                address,
                lambda s: (s["workers"] == N_FAKE and
                           s["heartbeats_seen"] >= 2 * N_FAKE),
                f"saw {N_FAKE} workers and their heartbeats")
            assert stats["workers"] == N_FAKE
            for peer in conns:
                peer.send({"type": "bye"})
            _await_stats(address, lambda s: s["workers"] == 0,
                         "drained to 0 workers")
        finally:
            for peer in conns:
                peer.close()
            coord.stop()

    def test_coordinator_serves_real_job_after_storm(self):
        """The same coordinator instance that absorbed the storm then
        runs a real unit through real workers — scale must not corrupt
        scheduler or connection state."""
        coord = Coordinator(heartbeat_timeout=DEADLINE,
                            monitor_interval=5.0)
        address = coord.start()
        conns = []
        workers = []
        threads = []
        try:
            for i in range(N_FAKE):
                conns.append(_sign_in(address, f"fw{i}"))
            for peer in conns:
                assert peer.recv(timeout=30.0)["type"] == "welcome"
            _await_stats(address, lambda s: s["workers"] == N_FAKE,
                         f"registered {N_FAKE} workers")
            for peer in conns:
                peer.send({"type": "bye"})
                peer.close()
            conns.clear()
            _await_stats(address, lambda s: s["workers"] == 0,
                         "drained the storm")

            workers = [Worker(address, name=f"rw{i}",
                              heartbeat_interval=0.5) for i in range(2)]
            threads = [threading.Thread(target=w.run, daemon=True)
                       for w in workers]
            for t in threads:
                t.start()
            _await_stats(address, lambda s: s["workers"] == 2,
                         "registered the real workers")
            unit = SweepUnit(
                ExperimentConfig(benchmark="water_spatial",
                                 organization=Organization.SHARED,
                                 scale=0.04, warmup_fraction=0.5),
                50_000_000, "runtime")
            with ServiceClient(address, row_timeout=DEADLINE) as client:
                values = client.run_units([unit])
            assert values == [unit.run()]
        finally:
            for peer in conns:
                peer.close()
            coord.stop()
            for w in workers:
                w.stop()
            for t in threads:
                t.join(timeout=10)
