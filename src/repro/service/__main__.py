"""``python -m repro.service ROLE …`` — process entry points.

Roles::

    worker       --connect HOST:PORT[,HOST:PORT…] [--name N] [--verbose]
    coordinator  [--bind HOST:PORT] [--cache-dir DIR] [--verbose]
                 [--node-id I --peers HOST:PORT,HOST:PORT,…]

``--node-id``/``--peers`` name the quorum this coordinator is one
replica of (see :mod:`repro.service.cluster`; without them it is a
quorum of one); every replica must be started with the same
``--peers`` list, and ``--bind`` must equal entry ``--node-id`` of it.
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
                            help="coordinator address (comma-separate "
                                 "the replicas of a clustered one)")
    worker_cli.add_argument("--name", default=None,
                            help="worker name (default: "
                                 "coordinator-assigned)")
    worker_cli.add_argument("--heartbeat", type=float, default=2.0,
                            metavar="SECONDS", help="heartbeat interval")
    worker_cli.add_argument("--failover-timeout", type=float,
                            default=60.0, metavar="SECONDS",
                            help="replicated fleets: give up after this "
                                 "long without any leader answering")
    coord_cli = roles.add_parser("coordinator")
    coord_cli.add_argument("--bind", default="127.0.0.1:0",
                           metavar="HOST:PORT")
    coord_cli.add_argument("--cache-dir", default=None, metavar="DIR")
    coord_cli.add_argument("--heartbeat-timeout", type=float, default=8.0)
    coord_cli.add_argument("--node-id", type=int, default=None,
                           help="replica index into --peers (cluster mode)")
    coord_cli.add_argument("--peers", default=None,
                           metavar="HOST:PORT,HOST:PORT,…",
                           help="full replica address list (cluster mode)")
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
                   heartbeat_interval=args.heartbeat,
                   failover_timeout=args.failover_timeout).run()
        except KeyboardInterrupt:
            pass
        return 0
    from repro.service.cluster import ClusterConfig
    from repro.service.coordinator import Coordinator
    from repro.service.transport import parse_address, parse_addresses
    cluster = None
    if (args.node_id is None) != (args.peers is None):
        coord_cli.error("--node-id and --peers go together")
    if args.peers is not None:
        cluster = ClusterConfig(node_id=args.node_id,
                                addresses=parse_addresses(args.peers),
                                state_dir=args.cache_dir)
        if args.bind == "127.0.0.1:0":
            args.bind = cluster.addresses[args.node_id]
    host, port = parse_address(args.bind)
    coord = Coordinator(host=host, port=port, cache_dir=args.cache_dir,
                        heartbeat_timeout=args.heartbeat_timeout,
                        cluster=cluster)
    print(f"coordinator on {coord.start()}", flush=True)
    try:
        coord.wait()
    except KeyboardInterrupt:
        coord.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
