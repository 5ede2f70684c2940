"""``python -m repro.service ROLE …`` — process entry points.

Roles::

    worker       --connect HOST:PORT [--name N] [--heartbeat S] [--verbose]
    coordinator  [--bind HOST:PORT] [--cache-dir DIR]
                 [--heartbeat-timeout S] [--verbose]

``--verbose`` puts the ``repro.service`` loggers' INFO records on
stdout; without it only warnings reach stderr.

A dedicated dispatcher (rather than ``-m repro.service.worker``) keeps
runpy from importing the worker module twice — once via the package
``__init__`` and once as ``__main__`` — which would duplicate its
module-level state. ``scripts/sweep_service.py`` is the operator CLI;
this entry is what it (and the chaos tests) actually spawn.
"""

from __future__ import annotations

import argparse
import logging
import sys


def main(argv=None) -> int:
    cli = argparse.ArgumentParser(prog="python -m repro.service")
    roles = cli.add_subparsers(dest="role", required=True)
    worker_cli = roles.add_parser("worker")
    worker_cli.add_argument("--connect", required=True,
                            metavar="HOST:PORT",
                            help="coordinator address")
    worker_cli.add_argument("--name", default=None,
                            help="worker name (default: "
                                 "coordinator-assigned)")
    worker_cli.add_argument("--heartbeat", type=float, default=2.0,
                            metavar="SECONDS", help="heartbeat interval")
    coord_cli = roles.add_parser("coordinator")
    coord_cli.add_argument("--bind", default="127.0.0.1:0",
                           metavar="HOST:PORT")
    coord_cli.add_argument("--cache-dir", default=None, metavar="DIR")
    coord_cli.add_argument("--heartbeat-timeout", type=float, default=8.0)
    for role in (worker_cli, coord_cli):
        role.add_argument("--verbose", action="store_true")
    args = cli.parse_args(argv)
    if args.verbose:
        logging.basicConfig(stream=sys.stdout,
                            format="[%(name)s] %(message)s")
        logging.getLogger("repro.service").setLevel(logging.INFO)
    if args.role == "worker":
        from repro.service.worker import Worker
        try:
            Worker(args.connect, name=args.name,
                   heartbeat_interval=args.heartbeat).run()
        except KeyboardInterrupt:
            pass
        return 0
    from repro.service.coordinator import Coordinator
    from repro.service.transport import parse_address
    host, port = parse_address(args.bind)
    coord = Coordinator(host=host, port=port, cache_dir=args.cache_dir,
                        heartbeat_timeout=args.heartbeat_timeout)
    print(f"coordinator on {coord.start()}", flush=True)
    try:
        coord.wait()
    except KeyboardInterrupt:
        coord.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
