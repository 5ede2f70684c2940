"""End-to-end sweep-service campaign: fleets must be invisible.

``sweep(service=addr)`` must return rows bit-identical to the serial
``sweep()`` — same values, same order — because every unit is seeded by
its config, deduplicated by its hash, and reduced by the same shared
:class:`SweepUnit` path on every backend. These tests run real
coordinators with threaded workers (cheap, deterministic) and one
3-process fleet for the figure-matrix equivalence the service exists
to serve; the kill-and-requeue campaign lives in
``test_service_chaos.py``.
"""

from __future__ import annotations

import json
import socket
import struct
import threading
import time

import pytest

from repro.harness.experiment import (ExperimentConfig, HierarchyAxes,
                                      WarmupImageCache)
from repro.harness.sweep import sweep
from repro.harness.units import SweepUnit
from repro.params import Organization
from repro.service import (ConnectionClosed, Coordinator, JobFailed,
                           ProtocolMismatch, ServiceClient, ServiceError,
                           Worker)
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.transport import SyncTransport
from repro.service.worker import spawn_worker_process

BENCH = "water_spatial"
AXES = dict(organization=[Organization.SHARED, Organization.LOCO_CC],
            scale=[0.04], warmup_fraction=[0.5])
METRICS = ["runtime", "mpki", "offchip_accesses"]


def _wait_for_workers(address: str, count: int,
                      timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    with ServiceClient(address, row_timeout=10.0) as client:
        while time.monotonic() < deadline:
            if client.status()["stats"]["workers"] >= count:
                return
            time.sleep(0.05)
    raise AssertionError(f"fleet never reached {count} workers")


@pytest.fixture
def fleet():
    """Factory for a coordinator + N threaded in-process workers."""
    running = []

    def make(workers: int = 3, **coord_kw):
        coord = Coordinator(**coord_kw)
        address = coord.start()
        objs = [Worker(address, name=f"tw{i}",
                       heartbeat_interval=0.5)
                for i in range(workers)]
        threads = [threading.Thread(target=w.run, daemon=True)
                   for w in objs]
        for t in threads:
            t.start()
        running.append((coord, objs, threads))
        _wait_for_workers(address, workers)
        return coord, address

    yield make
    for coord, objs, threads in running:
        coord.stop()
        for w in objs:
            w.stop()
        for t in threads:
            t.join(timeout=5)


def units_of(axes, metrics):
    return [SweepUnit(ExperimentConfig(benchmark=BENCH,
                                       organization=org, scale=scale,
                                       warmup_fraction=wf),
                      50_000_000, m)
            for org in axes["organization"]
            for scale in axes["scale"]
            for wf in axes["warmup_fraction"]
            for m in metrics]


#: a Table-2 workload is a benchmark name; the paper's 4x1 shape for W0
W0_AXES = dict(organization=[Organization.SHARED,
                             Organization.LOCO_CC_VMS_IVR],
               cluster=[(4, 1)], scale=[0.04])


@pytest.fixture(scope="module")
def w0_serial():
    return sweep("W0", metric="runtime", **W0_AXES)


class TestEquivalence:
    def test_rows_bit_identical_to_serial(self, fleet):
        _coord, address = fleet(workers=3)
        cold = sweep(BENCH, metric=METRICS, **AXES)
        svc = sweep(BENCH, metric=METRICS, service=address, **AXES)
        assert svc == cold

    @pytest.mark.parametrize("backend",
                             ["jobs2", "warmup_snapshots", "service"])
    def test_table2_workload_rows_bit_identical_to_serial(
            self, backend, fleet, w0_serial, tmp_path):
        """Multi-program cells ride every backend like any other
        benchmark name — warmup forking included."""
        assert all(r["runtime"] > 0 for r in w0_serial)
        if backend == "jobs2":
            assert sweep("W0", metric="runtime", jobs=2,
                         **W0_AXES) == w0_serial
        elif backend == "service":
            _coord, address = fleet(workers=2)
            assert sweep("W0", metric="runtime", service=address,
                         **W0_AXES) == w0_serial
        else:
            store = WarmupImageCache(str(tmp_path))
            for hits in (0, 2):  # the second call forks every cell
                assert sweep("W0", metric="runtime",
                             warmup_snapshots=True, warmup_cache=store,
                             **W0_AXES) == w0_serial
                assert (store.misses, store.hits) == (2, hits)

    def test_order_stable_under_config_hash_sort(self, fleet):
        """The acceptance framing: values AND order must match the
        serial path after sorting by unit hash (a worker finishing
        out of order must not reorder the returned rows)."""
        _coord, address = fleet(workers=3)
        units = units_of(AXES, ["runtime", "mpki"])
        with ServiceClient(address) as client:
            values = client.run_units(units)
        serial = [u.run() for u in units]
        svc_sorted = sorted(zip(units, values), key=lambda p: p[0].key())
        ser_sorted = sorted(zip(units, serial), key=lambda p: p[0].key())
        assert [v for _, v in svc_sorted] == [v for _, v in ser_sorted]

    def test_dataflow_rows_bit_identical_to_serial(self, fleet):
        """Protocol-v5 coverage: hierarchy-partitioned dataflow units
        ride the wire to 3 workers and come back bit-identical to the
        serial sweep — including the scratchpad crossover pair (the
        0.0-fraction twin is a byte-identical v4-style frame)."""
        _coord, address = fleet(workers=3)
        axes = dict(organization=[Organization.SHARED],
                    cores=[16], cluster=[(2, 2)], scale=[0.1],
                    hierarchy=[HierarchyAxes(fraction, latency)
                               for fraction in (0.0, 0.5)
                               for latency in (2, 4)])
        for bench in ("dataflow_gemm", "dataflow_stencil"):
            cold = sweep(bench, metric=["runtime", "mpki"], **axes)
            svc = sweep(bench, metric=["runtime", "mpki"],
                        service=address, **axes)
            assert svc == cold

    def test_process_fleet_matches_serial_small_figure_matrix(self):
        """3 real worker processes serving the small figure table —
        the distributed analogue of ``sweep(jobs=N)`` equivalence."""
        axes = dict(organization=[Organization.SHARED,
                                  Organization.LOCO_CC,
                                  Organization.LOCO_CC_VMS_IVR],
                    scale=[0.04], warmup_fraction=[0.5])
        coord = Coordinator()
        address = coord.start()
        procs = [spawn_worker_process(address, name=f"pw{i}",
                                      capture=True)
                 for i in range(3)]
        try:
            _wait_for_workers(address, 3)
            cold = sweep(BENCH, metric=["runtime", "mpki"], **axes)
            svc = sweep(BENCH, metric=["runtime", "mpki"],
                        service=address, **axes)
            assert svc == cold
            with ServiceClient(address) as client:
                stats = client.status()["stats"]
                # one unit per config reaches the fleet: the two
                # metrics of a row are one simulation
                assert stats["units_completed"] == 3
                assert stats["workers"] == 3
        finally:
            coord.stop()
            for p in procs:
                try:
                    p.wait(timeout=10)
                except Exception:
                    p.kill()


class TestWireCompleteness:
    """The PR-6 guarantee: every unit the local backends accept rides
    the fleet too — full ``RunResult`` cells and multi-program
    workload units round-trip through workers bit-identically."""

    def test_full_run_result_round_trips_through_fleet(self, fleet):
        _coord, address = fleet(workers=2)
        units = units_of(AXES, [None])  # metric=None -> full results
        with ServiceClient(address) as client:
            values = client.run_units(units)
        local = [u.run() for u in units]
        for got, want in zip(values, local):
            assert type(got).__name__ == "RunResult"
            # RunResult equality is identity-ish through Stats; compare
            # the full serialized state plus the derived metrics the
            # figures actually read.
            assert got.to_dict() == want.to_dict()
            for m in METRICS:
                from repro.harness.units import metric_of
                assert metric_of(got, m) == metric_of(want, m)

    def test_full_result_rows_match_serial_sweep(self, fleet):
        _coord, address = fleet(workers=2)
        cold = sweep(BENCH, metric=None, **AXES)
        svc = sweep(BENCH, metric=None, service=address, **AXES)
        assert [r["result"].to_dict() for r in svc] == \
               [r["result"].to_dict() for r in cold]

    def test_one_machine_under_two_names_is_one_fleet_cell(self, fleet):
        """Private and LOCO with one-tile clusters are one machine:
        ``run_units`` ships one cell, and each row is what its config
        gets alone, its own ``system_config()`` included."""
        _coord, address = fleet(workers=2)
        axes = dict(organization=[Organization.PRIVATE,
                                  Organization.LOCO_CC],
                    cores=[16], cluster=[(1, 1)], scale=[0.04])
        svc = sweep(BENCH, metric=None, service=address, **axes)
        alone = [SweepUnit(ExperimentConfig(
                     BENCH, org, cores=16, cluster=(1, 1),
                     scale=0.04)).run() for org in axes["organization"]]
        with ServiceClient(address) as client:
            assert client.status()["stats"]["units_completed"] == 1
        for row, want in zip(svc, alone):
            assert row["result"].config == want.config
            assert row["result"].to_dict() == want.to_dict()

    def test_workload_unit_round_trips_through_fleet(self, fleet):
        _coord, address = fleet(workers=2)
        units = [SweepUnit(ExperimentConfig(
                     "W0", org, cluster=(4, 1), scale=0.02), metric=metric)
                 for org, metric in (
                     (Organization.SHARED, "runtime"),
                     (Organization.LOCO_CC_VMS_IVR,
                      ("runtime", "offchip_accesses")))]
        with ServiceClient(address) as client:
            values = client.run_units(units)
        assert values == [u.run() for u in units]

    def test_full_results_served_from_memo(self, fleet):
        """Encoded RunResults persist in the coordinator memo like any
        scalar: a resubmit decodes the cached wire dict."""
        coord, address = fleet(workers=2)
        units = units_of(AXES, [None])
        with ServiceClient(address) as client:
            first = client.run_units(units)
            again = client.run_units(units)
            assert client.last_job_stats["from_cache"] == len(units)
        assert [r.to_dict() for r in again] == \
               [r.to_dict() for r in first]
        assert coord.sessions.served_from_cache == len(units)


class TestResultCache:
    def test_resubmit_served_from_memo_without_simulation(self, fleet):
        coord, address = fleet(workers=2)
        with ServiceClient(address) as client:
            first = client.run_units(units_of(AXES, ["runtime"]))
            completed = coord.sessions.units_completed
            again = client.run_units(units_of(AXES, ["runtime"]))
            assert again == first
            assert client.last_job_stats["from_cache"] == len(first)
        assert coord.sessions.units_completed == completed  # no re-run
        assert coord.sessions.served_from_cache == len(first)

    def test_disk_cache_matches_local_cache_keys(self, fleet, tmp_path):
        """The coordinator writes its rows through the local sweep's
        row store: one ``<key>.json`` per unit."""
        _coord, address = fleet(workers=2, cache_dir=str(tmp_path))
        units = units_of(AXES, ["runtime"])
        with ServiceClient(address) as client:
            client.run_units(units)
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            sorted(f"{u.key()}.json" for u in units)

    def test_local_rows_serve_a_coordinator_without_workers(
            self, fleet, tmp_path):
        """One directory, local sweep first: a coordinator over it
        answers the whole job from disk, with no worker to run it."""
        from repro.harness.parallel import run_units
        units = units_of(AXES, ["runtime", ("runtime", "mpki")])
        local = run_units(units, cache_dir=str(tmp_path))
        coord, address = fleet(workers=0, cache_dir=str(tmp_path))
        with ServiceClient(address, row_timeout=10.0) as client:
            assert client.run_units(units) == local
            assert client.last_job_stats["from_cache"] == len(units)
        assert coord.sessions.units_completed == 0

    def test_coordinator_rows_serve_a_local_sweep(self, fleet, tmp_path):
        """One directory, coordinator first: a local sweep over it
        finds every row and never dials the (dead) fleet address."""
        from repro.harness.parallel import run_units
        _coord, address = fleet(workers=2, cache_dir=str(tmp_path))
        units = units_of(AXES, ["runtime", ("runtime", "mpki")])
        with ServiceClient(address) as client:
            served = client.run_units(units)
        assert run_units(units, cache_dir=str(tmp_path),
                         service="127.0.0.1:1") == served

    def test_full_results_stay_off_disk(self, fleet, tmp_path):
        """A full ``RunResult`` is memoized in RAM only: nothing lands
        in the cache directory, and a resubmit is still served."""
        coord, address = fleet(workers=1, cache_dir=str(tmp_path))
        units = units_of(AXES, [None])[:1]
        with ServiceClient(address) as client:
            (first,) = client.run_units(units)
            (again,) = client.run_units(units)
            assert client.last_job_stats["from_cache"] == 1
        assert list(tmp_path.iterdir()) == []
        assert again.to_dict() == first.to_dict()
        assert coord.sessions.units_completed == 1

    def test_local_cache_dir_short_circuits_service(self, fleet,
                                                    tmp_path):
        from repro.harness.parallel import run_units
        _coord, address = fleet(workers=2)
        units = units_of(AXES, ["runtime"])
        first = run_units(units, cache_dir=str(tmp_path),
                          service=address)
        # a second call finds every value locally; it must not even
        # need the fleet (point it at a dead address to prove it)
        again = run_units(units, cache_dir=str(tmp_path),
                          service="127.0.0.1:1")
        assert again == first


class TestFailureModes:
    def test_bad_unit_fails_job_but_not_fleet(self, fleet):
        _coord, address = fleet(workers=2)
        bad = SweepUnit(ExperimentConfig(benchmark="no_such_bench",
                                         organization=Organization.SHARED,
                                         scale=0.04),
                        1_000_000, "runtime")
        with ServiceClient(address) as client:
            with pytest.raises(JobFailed):
                client.run_units([bad])
        # the fleet survives and serves the next job
        with ServiceClient(address) as client:
            rows = client.run_units(units_of(AXES, ["runtime"]))
            assert len(rows) == 2

    @pytest.mark.parametrize("case", ["non_numeric_metric",
                                      "unencodable_value"])
    def test_unencodable_reply_fails_typed_and_worker_survives(
            self, case, fleet, monkeypatch):
        """A value the wire cannot carry must come back as a
        ``unit_error``: ``metric="stats"`` used to pass ``metric_of``,
        kill ``Worker._run_assign`` inside ``encode_frame`` and leave
        the unit assigned to a heartbeating worker forever. The metric
        is now refused at the source, and the worker encodes its reply
        inside the ``try`` for any value that still gets that far."""
        _coord, address = fleet(workers=1)
        exp = ExperimentConfig(BENCH, Organization.SHARED, scale=0.04)
        if case == "non_numeric_metric":
            bad, error = SweepUnit(exp, metric="stats"), "unknown metric"
        else:
            bad, error = SweepUnit(exp, metric="runtime"), "TypeError"
            monkeypatch.setattr(SweepUnit, "encode_value",
                                lambda self, value: object())
        started = time.monotonic()
        with ServiceClient(address, row_timeout=60.0) as client:
            with pytest.raises(JobFailed, match=error):
                client.run_units([bad])
        assert time.monotonic() - started < 30.0
        monkeypatch.undo()
        # the one worker is still signed in and serves a good unit
        with ServiceClient(address, row_timeout=60.0) as client:
            assert client.status()["stats"]["workers"] == 1
            assert client.run_units(units_of(AXES, ["runtime"])) == \
                [u.run() for u in units_of(AXES, ["runtime"])]

    def test_client_reconnect_after_coordinator_restart(self):
        """`reconnect()` is the documented retry hook: a client that
        outlives a coordinator restart re-handshakes on the same
        address and the fleet serves it again."""
        coord = Coordinator()
        address = coord.start()
        port = int(address.rsplit(":", 1)[1])
        client = ServiceClient(address, row_timeout=5.0)
        try:
            assert client.ping()
            coord.stop()
            with pytest.raises((ServiceError, ConnectionClosed)):
                client.status()
            coord2 = Coordinator(port=port)
            assert coord2.start() == address
            try:
                client.reconnect()
                assert client.ping()
                assert client.status()["stats"]["workers"] == 0
            finally:
                coord2.stop()
        finally:
            client.close()
            coord.stop()

    def test_protocol_version_mismatch_rejected(self, fleet):
        _coord, address = fleet(workers=0)
        # a build from the future, v9 (whose peers take replica lists
        # and wait for a pointer to the leader), v8 (whose full-result
        # values carry the old stats encoding), v7 (whose workers would
        # run two assigns at once), v6 (the last one that shipped warmup
        # fields) and v5 (the last one that shipped a second unit kind)
        for version, role in ((999, "client"), (9, "worker"), (9, "client"),
                              (8, "worker"), (8, "client"),
                              (7, "worker"), (7, "client"), (6, "client"),
                              (5, "client")):
            peer = SyncTransport.open(address, 5)
            try:
                peer.send({"type": "hello", "role": role,
                           "protocol": version})
                reply = peer.recv(timeout=5)
                assert reply["type"] == "error"
                assert reply["code"] == "protocol-mismatch"
                assert reply["expected"] == PROTOCOL_VERSION == 10
                assert "protocol" in reply["error"]
            finally:
                peer.close()

    def test_hello_without_protocol_field_rejected(self, fleet):
        """The version field is mandatory: a peer that omits it
        predates the field, which is exactly the drift it catches."""
        _coord, address = fleet(workers=0)
        peer = SyncTransport.open(address, 5)
        try:
            peer.send({"type": "hello", "role": "client"})
            reply = peer.recv(timeout=5)
            assert reply["type"] == "error"
            assert reply["code"] == "protocol-mismatch"
        finally:
            peer.close()

    def test_malformed_submit_gets_typed_error_reply(self, fleet):
        """A wire unit that fails validation (ConfigError) must come
        back as a typed error frame, not a silent connection drop."""
        _coord, address = fleet(workers=0)
        peer = SyncTransport.open(address, 5)
        try:
            peer.send({"type": "hello", "role": "client",
                       "protocol": PROTOCOL_VERSION})
            assert peer.recv(timeout=5)["type"] == "welcome"
            peer.send({"type": "submit",
                       "units": [{"benchmark": "barnes",
                                  "organization": "no_such_org"}]})
            reply = peer.recv(timeout=5)
            assert reply["type"] == "error"
            assert "malformed submit" in reply["error"]
        finally:
            peer.close()

    def test_unknown_role_rejected(self, fleet):
        """A hello with a role the coordinator does not serve gets the
        typed error frame — and so does a v9 coordinator replica's
        ``replica-hello``, a frame type no longer on the wire."""
        coord, address = fleet(workers=0)
        for first in ({"type": "hello", "role": "wizard",
                       "protocol": PROTOCOL_VERSION},
                      {"type": "replica-hello", "node": 1,
                       "protocol": PROTOCOL_VERSION}):
            payload = json.dumps(first).encode()
            sock = socket.create_connection(("127.0.0.1",
                                             coord.port), 5)
            peer = SyncTransport(sock)
            try:
                # raw bytes: encode_frame refuses unknown types
                sock.sendall(struct.pack("!I", len(payload)) + payload)
                reply = peer.recv(timeout=5)
                assert reply["type"] == "error", first
            finally:
                peer.close()
        with ServiceClient(address) as client:  # still serving
            assert client.ping()


class TestOperations:
    def test_ping_and_status_shape(self, fleet):
        _coord, address = fleet(workers=2)
        with ServiceClient(address) as client:
            assert client.ping()
            reply = client.status()
        assert len(reply["workers"]) == 2
        for key in ("workers", "pending", "in_flight", "requeues",
                    "duplicates", "served_from_cache", "rows_streamed",
                    "units_completed", "heartbeats_seen"):
            assert key in reply["stats"]

    def test_finished_jobs_are_released_everywhere(self, fleet):
        """Scheduler job state must not leak after completion: status
        reports 0 live jobs once the rows are streamed."""
        _coord, address = fleet(workers=2)
        with ServiceClient(address) as client:
            client.run_units(units_of(AXES, ["runtime"]))
            stats = client.status()["stats"]
        assert stats["jobs"] == 0
        assert stats["pending"] == 0
        assert stats["in_flight"] == 0

    def test_stop_still_dismisses_the_workers(self):
        """``Coordinator.stop()`` with no client ``shutdown`` before it
        sends every signed-in worker the ``shutdown`` frame."""
        coord = Coordinator()
        address = coord.start()
        peer = SyncTransport.open(address, 10)
        try:
            peer.send({"type": "hello", "role": "worker", "name": "raw",
                       "protocol": PROTOCOL_VERSION, "pid": 1})
            assert peer.recv(timeout=10)["type"] == "welcome"
            coord.stop()
            assert peer.recv(timeout=10) == {"type": "shutdown"}
        finally:
            peer.close()
            coord.stop()

    def test_shutdown_stops_fleet_and_worker_threads(self, fleet):
        coord, address = fleet(workers=2)
        with ServiceClient(address) as client:
            client.shutdown()
        assert coord.wait(timeout=10)
