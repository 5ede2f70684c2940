#!/usr/bin/env python3
"""Launch and operate a distributed sweep fleet.

Subcommands::

    fleet        a coordinator + N worker processes on this host
    status       fleet snapshot (workers, queue depth, cache counters)
    shutdown     stop the whole fleet

Typical single-host session::

    python scripts/sweep_service.py fleet --workers 4 \
        --bind 127.0.0.1:7077 --cache-dir .service_cache &
    python - <<'PY'
    from repro.harness.sweep import sweep
    from repro.params import Organization
    rows = sweep("water_spatial", metric="runtime",
                 service="127.0.0.1:7077",
                 organization=list(Organization), scale=[0.2])
    PY
    python scripts/sweep_service.py shutdown --connect 127.0.0.1:7077

Multi-host: run ``python -m repro.service coordinator --bind
HOST:PORT`` on one machine and ``python -m repro.service worker
--connect HOST:PORT`` on the others. Workers share nothing but the
coordinator: each runs every unit cold. A warmup-image store
(``run_experiments.py --warmup-cache``, ``sweep(warmup_cache=...)``)
is local only and never reaches the fleet.

``fleet`` launches its coordinator as a child process. A client's
``shutdown`` ends it with rc 0 and the fleet winds down with rc 0; a
coordinator that dies otherwise ends the fleet with rc 1. Restarting
it over the same ``--cache-dir`` serves every finished metric row back
from the row store a local ``sweep(cache_dir=...)`` shares.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import time
from typing import List, Optional

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")
if REPO_SRC not in sys.path:
    sys.path.insert(0, REPO_SRC)

from repro.service.client import ServiceClient           # noqa: E402
from repro.service.errors import ServiceError            # noqa: E402
from repro.service.worker import (parse_address,         # noqa: E402
                                  pick_free_ports,
                                  spawn_coordinator_process,
                                  spawn_worker_process)


#: a worker that dies faster than this after (re)spawn counts toward
#: the consecutive-crash streak of its fleet slot
_FLEET_MIN_UPTIME = 5.0


def cmd_fleet(args) -> int:
    """``fleet``: a coordinator process + the workers.

    A dead worker slot is respawned (the coordinator already requeued
    its units). The coordinator exiting rc 0 means a client asked for
    ``shutdown`` — wind the fleet down; any other exit fails the
    fleet."""
    host, port = parse_address(args.bind)
    address = f"{host}:{port or pick_free_ports(1, host)[0]}"
    coordinator: Optional[subprocess.Popen] = None
    procs: List[subprocess.Popen] = []
    spawned_at = [0.0] * args.workers
    crash_streak = [0] * args.workers
    rc = 0

    def spawn_worker(i: int) -> subprocess.Popen:
        spawned_at[i] = time.monotonic()
        return spawn_worker_process(address, name=f"w{i}",
                                    verbose=not args.quiet)

    # SIGTERM runs the same orderly teardown as Ctrl-C: wrappers (the
    # CI trap, service managers) send TERM to this process only, and
    # without this handler Python would die before the terminate/
    # SIGKILL sweep below — leaking children that hold the caller's
    # stdout pipe open (and, in CI, hang the step).
    def _on_term(signum, frame):
        raise KeyboardInterrupt

    prev_term = signal.signal(signal.SIGTERM, _on_term)
    try:
        coordinator = spawn_coordinator_process(
            address, cache_dir=args.cache_dir,
            heartbeat_timeout=args.heartbeat_timeout,
            verbose=not args.quiet)
        print(f"coordinator on {address}; starting {args.workers} "
              f"workers", flush=True)
        # a worker exits when nobody answers, so the workers start
        # once the coordinator does
        ServiceClient(address, connect_timeout=30.0).close()
        procs += [spawn_worker(i) for i in range(args.workers)]
        while not rc:
            # workers found dead *before* the tick are respawned only
            # if the coordinator still runs after it: a fleet told to
            # shut down loses its workers first, and must not regrow them
            dead = [i for i, p in enumerate(procs) if p.poll() is not None]
            time.sleep(1.0)
            code = coordinator.poll()
            if code == 0:
                break  # a client asked for shutdown
            if code is not None:
                print(f"coordinator exited rc={code}", file=sys.stderr,
                      flush=True)
                rc = 1
                break
            for i in dead:
                # a slot whose worker keeps dying straight after spawn
                # (bad install, port mismatch, OOM on arrival) must not
                # respawn forever: exit nonzero so wrapping scripts/CI
                # see the failure instead of a livelock
                uptime = time.monotonic() - spawned_at[i]
                crash_streak[i] = (crash_streak[i] + 1
                                   if uptime < _FLEET_MIN_UPTIME else 1)
                if crash_streak[i] > args.max_respawns:
                    print(f"worker w{i} crashed {crash_streak[i]} times in "
                          f"a row within {_FLEET_MIN_UPTIME:.0f}s of spawn "
                          f"(last rc={procs[i].returncode}); giving up",
                          file=sys.stderr, flush=True)
                    rc = 1
                    break
                print(f"worker w{i} exited rc={procs[i].returncode}; "
                      f"respawning", flush=True)
                procs[i] = spawn_worker(i)
    except ServiceError as exc:
        print(f"the coordinator never answered: {exc}", file=sys.stderr,
              flush=True)
        rc = 1
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, prev_term)
    children = procs + ([coordinator] if coordinator is not None else [])
    for p in children:
        if p.poll() is None:
            p.terminate()
    deadline = time.monotonic() + 5.0
    for p in children:
        try:
            p.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            p.send_signal(signal.SIGKILL)
    return rc


def cmd_status(args) -> int:
    with ServiceClient(args.connect, row_timeout=10.0) as client:
        reply = client.status()
    stats = reply["stats"]
    print(f"fleet @ {args.connect}: {stats['workers']} workers, "
          f"{stats['pending']} pending, {stats['in_flight']} in flight, "
          f"{stats['jobs']} jobs")
    print(f"  completed={stats['units_completed']} "
          f"rows={stats['rows_streamed']} "
          f"cache_hits={stats['served_from_cache']} "
          f"requeues={stats['requeues']} "
          f"duplicates={stats['duplicates']}")
    for w in reply["workers"]:
        busy = " ".join(f"{job}#{idx}" for job, idx in w["busy"]) or "idle"
        print(f"  {w['name']:12s} pid={w['pid']} {busy:14s} "
              f"completed={w['completed']}")
    return 0


def cmd_shutdown(args) -> int:
    with ServiceClient(args.connect, row_timeout=10.0) as client:
        client.shutdown()
    print(f"fleet @ {args.connect} stopped")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    cli = argparse.ArgumentParser(
        description="Distributed sweep fleet operations.")
    sub = cli.add_subparsers(dest="command", required=True)

    def common(p, bind=False, connect=False):
        p.add_argument("--quiet", action="store_true")
        if bind:
            p.add_argument("--bind", default="127.0.0.1:0",
                           metavar="HOST:PORT",
                           help="listen address (port 0 = ephemeral)")
            p.add_argument("--cache-dir", default=None, metavar="DIR",
                           help="metric row store (shared with "
                                "sweep(cache_dir=))")
            p.add_argument("--heartbeat-timeout", type=float, default=8.0)
        if connect:
            p.add_argument("--connect", required=True,
                           metavar="HOST:PORT",
                           help="coordinator address")

    p = sub.add_parser("fleet",
                       help="coordinator + N local workers (respawning)")
    common(p, bind=True)
    p.add_argument("--workers", type=int, default=os.cpu_count() or 2)
    p.add_argument("--max-respawns", type=int, default=5,
                   help="consecutive fast crashes of one worker slot "
                        "before the fleet gives up and exits nonzero")
    p.set_defaults(fn=cmd_fleet)

    p = sub.add_parser("status", help="print a fleet snapshot")
    common(p, connect=True)
    p.set_defaults(fn=cmd_status)

    p = sub.add_parser("shutdown", help="stop the fleet")
    common(p, connect=True)
    p.set_defaults(fn=cmd_shutdown)

    args = cli.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
