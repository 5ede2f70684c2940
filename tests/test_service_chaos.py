"""Chaos campaign: the fleet must survive what processes do — die.

Four failure injections, each asserting the invariant that makes the
service trustworthy for figure tables:

* **SIGKILL a busy worker** — the coordinator requeues its in-flight
  units onto a survivor, and the final row set is *bit-identical* to a
  serial sweep: nothing lost, nothing duplicated, nothing perturbed
  (retried units are seeded by config, never by worker).
* **Coordinator restart over a warm result cache** — a new coordinator
  with the same ``cache_dir`` serves the repeated job without a single
  worker attached.
* **Coordinator dies mid-job** — the client gets a typed
  :class:`JobFailed`, not a hang.
* **The result-cache store hits filesystem trouble** — no
  ``.tmp-*`` staging residue may survive a failed store.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.harness.experiment import ExperimentConfig
from repro.harness.units import SweepUnit
from repro.params import Organization
from repro.service import (Coordinator, JobFailed, ServiceClient, Worker,
                           pick_free_ports, spawn_coordinator_process)
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.sessions import Sessions
from repro.service.transport import SyncTransport
from repro.service.worker import spawn_worker_process

BENCH = "water_spatial"


def unit(seed: int = 1, scale: float = 0.04,
         metric="runtime") -> SweepUnit:
    return SweepUnit(ExperimentConfig(benchmark=BENCH,
                                      organization=Organization.SHARED,
                                      scale=scale, warmup_fraction=0.5,
                                      seed=seed),
                     50_000_000, metric)


def _wait_for_workers(address: str, count: int,
                      timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    with ServiceClient(address, row_timeout=10.0) as client:
        while time.monotonic() < deadline:
            if client.status()["stats"]["workers"] >= count:
                return
            time.sleep(0.05)
    raise AssertionError(f"fleet never reached {count} workers")


class TestWorkerKill:
    def test_sigkill_busy_worker_requeues_and_rows_stay_identical(self):
        """Kill the worker simulating the long unit, mid-simulation:
        the unit must land on a survivor and every value must match
        the serial path."""
        # one long unit (~2.5s: a fat kill window) + five short ones
        units = [unit(seed=9, scale=0.2)] + \
                [unit(seed=s) for s in range(1, 6)]
        coord = Coordinator()
        address = coord.start()
        procs = [spawn_worker_process(address, name=f"cw{i}", capture=True)
                 for i in range(3)]
        try:
            _wait_for_workers(address, 3)
            values: list = []
            errors: list = []

            def submit() -> None:
                try:
                    with ServiceClient(address) as client:
                        values.extend(client.run_units(units))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            runner = threading.Thread(target=submit)
            runner.start()
            # find the worker simulating the long unit (idx 0: the
            # running one is busy[0]) and SIGKILL it while it is busy
            victim_pid = None
            with ServiceClient(address, row_timeout=10.0) as mon:
                deadline = time.monotonic() + 30.0
                while time.monotonic() < deadline:
                    for w in mon.status()["workers"]:
                        if w["busy"] and w["busy"][0][1] == 0:
                            victim_pid = w["pid"]
                            break
                    if victim_pid is not None:
                        break
                    time.sleep(0.02)
            assert victim_pid is not None, \
                "long unit was never observed in flight"
            os.kill(victim_pid, signal.SIGKILL)
            runner.join(timeout=120)
            assert not runner.is_alive()
            assert not errors, errors
            # bit-identical to the serial path: nothing lost, nothing
            # duplicated, nothing perturbed by the retry
            assert values == [u.run() for u in units]
            with ServiceClient(address, row_timeout=10.0) as mon:
                stats = mon.status()["stats"]
            assert stats["workers"] == 2
            assert stats["requeues"] >= 1
            assert stats["rows_streamed"] == len(units)
        finally:
            coord.stop()
            for p in procs:
                if p.poll() is None:
                    p.terminate()
            for p in procs:
                try:
                    p.wait(timeout=10)
                except Exception:
                    p.kill()

    def test_fleet_survives_kill_between_jobs(self):
        """A worker killed while idle: later jobs just use the rest."""
        coord = Coordinator()
        address = coord.start()
        procs = [spawn_worker_process(address, name=f"iw{i}", capture=True)
                 for i in range(2)]
        try:
            _wait_for_workers(address, 2)
            with ServiceClient(address) as client:
                first = client.run_units([unit(seed=1)])
                os.kill(procs[0].pid, signal.SIGKILL)
                # the drop is noticed via EOF; the next job must not
                # hang even if it races the reaper
                again = client.run_units([unit(seed=2)])
            assert first == [unit(seed=1).run()]
            assert again == [unit(seed=2).run()]
        finally:
            coord.stop()
            for p in procs:
                if p.poll() is None:
                    p.terminate()
            for p in procs:
                try:
                    p.wait(timeout=10)
                except Exception:
                    p.kill()


class TestCoordinatorRestart:
    def test_restart_with_warm_cache_serves_without_workers(self,
                                                            tmp_path):
        units = [unit(seed=1), unit(seed=2)]
        first = Coordinator(cache_dir=str(tmp_path))
        address = first.start()
        worker = Worker(address, name="w0", heartbeat_interval=0.5)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        _wait_for_workers(address, 1)
        with ServiceClient(address) as client:
            values = client.run_units(units)
        first.stop()
        worker.stop()
        thread.join(timeout=10)

        second = Coordinator(cache_dir=str(tmp_path))
        address2 = second.start()
        try:
            with ServiceClient(address2) as client:
                again = client.run_units(units)  # zero workers attached
                assert client.last_job_stats["from_cache"] == len(units)
            assert again == values
            assert second.sessions.served_from_cache == len(units)
            assert second.sessions.units_completed == 0
        finally:
            second.stop()

    def test_cold_restart_without_cache_needs_workers(self, tmp_path):
        """Counter-test: restarting *without* the cache directory must
        not hallucinate results — the job waits for workers, and a
        fresh worker serves it."""
        units = [unit(seed=1)]
        first = Coordinator(cache_dir=str(tmp_path))
        address = first.start()
        worker = Worker(address, name="w0", heartbeat_interval=0.5)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        _wait_for_workers(address, 1)
        with ServiceClient(address) as client:
            values = client.run_units(units)
        first.stop()
        worker.stop()
        thread.join(timeout=10)

        second = Coordinator()  # no cache_dir: memory only, empty
        address2 = second.start()
        worker2 = Worker(address2, name="w1", heartbeat_interval=0.5)
        thread2 = threading.Thread(target=worker2.run, daemon=True)
        thread2.start()
        try:
            _wait_for_workers(address2, 1)
            with ServiceClient(address2) as client:
                again = client.run_units(units)
                assert client.last_job_stats["from_cache"] == 0
            assert again == values
            assert second.sessions.units_completed == 1
        finally:
            second.stop()
            worker2.stop()
            thread2.join(timeout=10)


class TestSpawnedCoordinatorOptions:
    def test_heartbeat_timeout_reaches_the_spawned_coordinator(self):
        """``fleet --heartbeat-timeout T`` goes through
        ``spawn_coordinator_process``; it used to drop T on the floor
        (every spawned coordinator ran with 8 s). A worker that signs in
        and then falls silent must be dropped on *our* clock."""
        address = f"127.0.0.1:{pick_free_ports(1)[0]}"
        proc = spawn_coordinator_process(address, heartbeat_timeout=0.5,
                                         capture=True)
        mute = None
        try:
            with ServiceClient(address, row_timeout=10.0) as mon:
                mute = SyncTransport.open(address, 10)
                mute.send(
                    {"type": "hello", "role": "worker", "name": "mute",
                     "protocol": PROTOCOL_VERSION, "pid": 1})
                assert mute.recv(timeout=10)["type"] == "welcome"
                signed_in = time.monotonic()
                assert mon.status()["stats"]["workers"] == 1
                while mon.status()["stats"]["workers"]:
                    assert time.monotonic() - signed_in < 3.0, \
                        "silent worker outlived --heartbeat-timeout 0.5"
                    time.sleep(0.05)
        finally:
            if mute is not None:
                mute.close()
            proc.terminate()
            try:
                proc.wait(timeout=10)
            except Exception:
                proc.kill()


class TestCacheStoreHygiene:
    @staticmethod
    def _sessions(cache_dir: str) -> Sessions:
        return Sessions(on_shutdown=lambda: None, cache_dir=cache_dir)

    def test_no_tmp_residue_when_replace_fails(self, tmp_path):
        """A directory squatting on the destination makes the final
        ``os.replace`` fail — the ``.tmp-*`` staging file must not
        leak (it used to, on exactly this path)."""
        sessions = self._sessions(str(tmp_path))
        key = unit(seed=1).key()
        os.makedirs(sessions._cache_path(key))
        sessions._store_result(key, 123)
        assert sessions.memo[key] == 123  # memo unaffected
        residue = [p for p in os.listdir(tmp_path) if ".tmp" in p]
        assert residue == []

    def test_no_tmp_residue_in_readonly_cache_dir(self, tmp_path):
        """A read-only cache directory must degrade to memory-only —
        no exception out of the store, no staging residue. (When the
        suite runs as root the write may succeed despite the mode
        bits; the residue assertion holds either way.)"""
        cache = tmp_path / "cache"
        cache.mkdir()
        os.chmod(cache, 0o555)
        try:
            sessions = self._sessions(str(cache))
            key = unit(seed=1).key()
            sessions._store_result(key, 456)
            assert sessions.memo[key] == 456
            residue = [p.name for p in cache.iterdir()
                       if ".tmp" in p.name]
            assert residue == []
        finally:
            os.chmod(cache, 0o755)


class TestCoordinatorDeath:
    def test_client_gets_typed_failure_not_a_hang(self):
        coord = Coordinator()
        address = coord.start()
        worker = Worker(address, name="w0", heartbeat_interval=0.5)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        _wait_for_workers(address, 1)
        # short unit first: its row arriving triggers the crash while
        # the long unit is still simulating
        units = [unit(seed=1), unit(seed=9, scale=0.2)]

        def crash_on_first_row(idx, value):
            threading.Thread(target=coord.stop, daemon=True).start()

        try:
            with ServiceClient(address, row_timeout=60.0) as client:
                with pytest.raises(JobFailed):
                    client.run_units(units, on_row=crash_on_first_row)
        finally:
            coord.stop()
            worker.stop()
            thread.join(timeout=10)
