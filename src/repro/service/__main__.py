"""``python -m repro.service ROLE …`` — process entry points.

Roles::

    worker       --connect HOST:PORT[,HOST:PORT…] [--name N] [--verbose]
    coordinator  [--bind HOST:PORT] [--cache-dir DIR] [--verbose]
                 [--node-id I --peers HOST:PORT,HOST:PORT,…]

``--node-id``/``--peers`` name the quorum this coordinator is one
replica of (see :mod:`repro.service.cluster`; without them it is a
quorum of one); every replica must be started with the same
``--peers`` list, and ``--bind`` must equal entry ``--node-id`` of it.

A dedicated dispatcher (rather than ``-m repro.service.worker``) keeps
runpy from importing the worker module twice — once via the package
``__init__`` and once as ``__main__`` — which would duplicate its
module-level state. ``scripts/sweep_service.py`` is the operator CLI;
this entry is what it (and the chaos tests) actually spawn.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] not in ("worker", "coordinator"):
        print("usage: python -m repro.service {worker|coordinator} …",
              file=sys.stderr)
        return 2
    role, rest = argv[0], argv[1:]
    if role == "worker":
        from repro.service.worker import main as worker_main
        return worker_main(rest)
    cli = argparse.ArgumentParser(prog="python -m repro.service "
                                       "coordinator")
    cli.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT")
    cli.add_argument("--cache-dir", default=None, metavar="DIR")
    cli.add_argument("--heartbeat-timeout", type=float, default=8.0)
    cli.add_argument("--node-id", type=int, default=None,
                     help="replica index into --peers (cluster mode)")
    cli.add_argument("--peers", default=None,
                     metavar="HOST:PORT,HOST:PORT,…",
                     help="full replica address list (cluster mode)")
    cli.add_argument("--verbose", action="store_true")
    args = cli.parse_args(rest)
    from repro.service.cluster import ClusterConfig
    from repro.service.coordinator import Coordinator
    from repro.service.transport import parse_address, parse_addresses
    cluster = None
    if (args.node_id is None) != (args.peers is None):
        cli.error("--node-id and --peers go together")
    if args.peers is not None:
        cluster = ClusterConfig(node_id=args.node_id,
                                addresses=parse_addresses(args.peers),
                                state_dir=args.cache_dir)
        if args.bind == "127.0.0.1:0":
            args.bind = cluster.addresses[args.node_id]
    host, port = parse_address(args.bind)
    coord = Coordinator(host=host, port=port, cache_dir=args.cache_dir,
                        heartbeat_timeout=args.heartbeat_timeout,
                        cluster=cluster, verbose=args.verbose)
    print(f"coordinator on {coord.start()}", flush=True)
    try:
        coord.wait()
    except KeyboardInterrupt:
        coord.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
