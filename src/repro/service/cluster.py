"""Cluster membership, leader election and replication driver.

The timed half of coordinator replication, as a state machine its
owner steps: a :class:`ClusterManager` drives the pure
:class:`~repro.service.replica.ConsensusCore` from three inputs —
:meth:`~ClusterManager.tick` (the owner's clock),
:meth:`~ClusterManager.handle_message` (a consensus frame arrived) and
:meth:`~ClusterManager.commit` (the leader's one write path) — and
sends through whatever link objects the owner keeps in ``links``. It
holds no socket, task or clock of its own, so the coordinator steps it
from its event loop and a test steps three of them from a ``for`` loop
over a float (``tests/test_service_replica.py::TestSteppedCluster``):

* an election timer: a follower that hears no leader before its
  election deadline becomes a candidate and solicits votes; the
  deadline is drawn once each time the timer is armed (start, a
  granted vote, an accepted append) and staggered by node id plus
  seeded jitter, so replica 0 usually wins the first election without
  split votes;
* a leader lease: the leader broadcasts ``replica-append`` heartbeats
  every :data:`HEARTBEAT_INTERVAL`, which is what re-arms everyone
  else's election timer;
* :meth:`~ClusterManager.commit`: append a scheduler command to the
  log, replicate, call ``done(result, None)`` when a majority holds it
  and it applied — or ``done(None, ServiceError)`` on lost leadership
  or at the :data:`COMMIT_TIMEOUT` deadline, which ``tick`` checks; a
  leader whose commit expires steps down (CheckQuorum).

A lone coordinator runs all of this with itself as the only member.
No peer means no heartbeat to wait for — :meth:`ClusterManager.start`
wins the election on the spot; the leader alone is the majority, so
``done`` fires before :meth:`~ClusterManager.commit` returns; and since
entries are retained only for peers' catch-up, a peerless core drops
each one once applied (with peers the whole log stays, as before).

Clients and workers never see any of this: a replica that is not the
(ready) leader answers their ``hello`` with a ``redirect`` frame
naming the current leader, and the client/worker transports follow
it. On winning an election a new leader first commits a ``reset``
command — every worker re-signs-in, every client resubmits, and the
replicated result memo serves back whatever had already finished, so
a SIGKILLed leader costs one election plus some re-simulation of
in-flight units, never a wrong or missing row.
"""

from __future__ import annotations

import logging
import os
import random
import socket
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.service.errors import FrameError, ServiceError
from repro.service.replica import LEADER, ConsensusCore, SchedulerMachine
from repro.service.worker import spawn_service_process

__all__ = ["ClusterConfig", "ClusterManager", "HEARTBEAT_INTERVAL",
           "ELECTION_TIMEOUT", "COMMIT_TIMEOUT", "TICK_INTERVAL",
           "spawn_coordinator_process", "pick_free_ports"]

log = logging.getLogger(__name__)

#: leader lease: a leader re-sends ``replica-append`` this often
HEARTBEAT_INTERVAL = 0.25
#: replica 0's base election timeout; replica ``i`` waits
#: ``1 + 0.4 * i`` times as long, plus up to 20 % seeded jitter
ELECTION_TIMEOUT = 1.5
#: a command not committed this long after :meth:`ClusterManager.commit`
#: fails its ``done`` (quorum lost)
COMMIT_TIMEOUT = 5.0
#: how often the owner must call :meth:`ClusterManager.tick` for the
#: three periods above to be honoured
TICK_INTERVAL = 0.05

#: ``done(result, error)`` — exactly one of the two is not None
Done = Callable[[Any, Optional[ServiceError]], None]


@dataclass
class ClusterConfig:
    """Static replica membership: ``addresses[i]`` is the client-facing
    (and peer-facing) address of replica ``i``; ``node_id`` says which
    one this process is. All replicas must be started with the same
    address list."""
    node_id: int
    addresses: List[str]
    #: directory for this replica's durable (term, vote) file — without
    #: it a restarted replica can grant a second, conflicting vote in a
    #: term it already voted in (see :mod:`repro.service.replica`)
    state_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if not (0 <= self.node_id < len(self.addresses)):
            raise ServiceError(
                f"node_id {self.node_id} outside the replica list "
                f"({len(self.addresses)} addresses)")

    @property
    def n_nodes(self) -> int:
        return len(self.addresses)


class ClusterManager:
    """Drives one replica's consensus participation (module docstring).

    ``links[peer]`` is whatever currently carries frames to that peer
    — anything with ``send(msg)`` — or None while the owner has no
    connection to it; the owner keeps the mapping current. A frame for
    a disconnected peer is dropped: every consensus message is
    re-driven by a timer (heartbeats, election retries), so loss is
    only latency. ``seed`` seeds the election jitter.

    ``on_apply(cmd, result)`` fires for every committed command on
    every replica (leader and followers alike); ``on_role_change(bool)``
    fires on this node's own leadership transitions.
    """

    def __init__(self, cfg: ClusterConfig, machine: SchedulerMachine,
                 links: Dict[int, Any], *, seed: int,
                 on_apply: Callable[[Dict[str, Any], Any], None],
                 on_role_change: Callable[[bool], None]) -> None:
        self.cfg = cfg
        self.machine = machine
        self.links = links
        state_path = (os.path.join(cfg.state_dir,
                                   f"replica{cfg.node_id}.state.json")
                      if cfg.state_dir else None)
        self.core = ConsensusCore(cfg.node_id, cfg.n_nodes,
                                  state_path=state_path)
        self.on_apply = on_apply
        self.on_role_change = on_role_change
        #: log index -> (done, deadline, op), in index = deadline order
        self._pending: Dict[int, Tuple[Done, float, Any]] = {}
        self._now = 0.0  # the latest time the owner told us
        self._last_broadcast = 0.0
        self._election_due = 0.0
        self._rng = random.Random(seed)

    # -- lifecycle -----------------------------------------------------
    def start(self, now: float) -> None:
        self._now = now
        if self.core.peers():
            self._arm_election()
        else:  # no peer to hear from or outvote us: lead from now on
            self._start_election()

    def stop(self) -> None:
        self._fail_pending("cluster shutting down")

    # -- introspection -------------------------------------------------
    @property
    def is_leader(self) -> bool:
        return self.core.role == LEADER

    @property
    def leader_address(self) -> Optional[str]:
        if self.core.leader_id is None:
            return None
        return self.cfg.addresses[self.core.leader_id]

    def status(self) -> Dict[str, Any]:
        return {"node": self.cfg.node_id, "term": self.core.term,
                "role": self.core.role, "leader": self.leader_address,
                "commit": self.core.commit_index,
                "log": self.core.log.last_index(),
                "peers_connected": sum(
                    1 for link in self.links.values()
                    if link is not None)}

    # -- the three inputs ----------------------------------------------
    def tick(self, now: float) -> None:
        """The owner's clock: heartbeat and expire overdue commits
        (leader), or stand for election at the deadline (others)."""
        self._now = now
        if self.core.role == LEADER:
            if now - self._last_broadcast >= HEARTBEAT_INTERVAL:
                self._broadcast_appends()
            expired = [i for i, (_, deadline, _) in self._pending.items()
                       if now >= deadline]
            if expired:
                # CheckQuorum: leading on, it would commit the entry
                # (continuation failed) if the quorum came back
                self.core.step_down()
                self._arm_election()
                for index in expired:
                    done, _, op = self._pending.pop(index)
                    done(None, ServiceError(
                        f"command {op!r} not committed within "
                        f"{COMMIT_TIMEOUT}s (quorum lost?)"))
                self._lost_leadership()
        elif now >= self._election_due:
            self._arm_election()
            self._start_election()

    def commit(self, cmd: Dict[str, Any], done: Done) -> None:
        """The leader's write path: append ``cmd``, replicate to a
        majority, apply, then ``done(result, None)`` with the machine's
        (deterministic) result — before this call returns when this
        node alone is the majority. ``done(None, ServiceError)`` when
        this node is not the leader, loses leadership first, or the
        quorum cannot be reached in time."""
        if self.core.role != LEADER:
            done(None, ServiceError("not the leader"))
            return
        index = self.core.append_command(cmd)
        self._pending[index] = (done, self._now + COMMIT_TIMEOUT,
                                cmd.get("op"))
        self._apply_committed()
        if index in self._pending:
            self._broadcast_appends()

    def handle_message(self, msg: Dict[str, Any],
                       send: Callable[[Dict[str, Any]], None],
                       now: float) -> None:
        """Process one consensus frame; ``send`` answers on whichever
        connection the frame arrived on."""
        self._now = now
        was_leader = self.core.role == LEADER
        kind = msg.get("type")
        try:
            if kind == "replica-vote":
                reply = self.core.on_vote(msg)
                if reply["granted"]:
                    self._arm_election()
                send(reply)
            elif kind == "replica-vote-reply":
                if self.core.on_vote_reply(msg):
                    self._became_leader()
            elif kind == "replica-append":
                ack = self.core.on_append(msg)
                if ack["ok"]:
                    self._arm_election()
                    self._apply_committed()
                send(ack)
            elif kind == "replica-append-ack":
                if self.core.on_append_ack(msg):
                    self._apply_committed()
                    # propagate the new commit index promptly
                    self._broadcast_appends()
                elif (self.core.role == LEADER
                      and msg["term"] == self.core.term):
                    # keep streaming: more entries, or a nack retry
                    peer = msg["follower"]
                    if (self.core.next_index.get(peer, 1)
                            <= self.core.log.last_index()
                            or not msg["ok"]):
                        self._send_append(peer)
            else:
                raise FrameError(f"unexpected {kind!r} on a replica "
                                 f"link")
        except KeyError as exc:
            raise FrameError(f"malformed consensus frame {kind!r}: "
                             f"missing {exc}") from exc
        if was_leader and self.core.role != LEADER:
            self._lost_leadership()

    # -- internals -----------------------------------------------------
    def _arm_election(self) -> None:
        """(Re)start the election timer: one jitter draw per arming,
        so the number of draws never depends on the tick cadence."""
        self._election_due = (
            self._now + ELECTION_TIMEOUT * (1.0 + 0.4 * self.cfg.node_id)
            + self._rng.uniform(0.0, 0.2 * ELECTION_TIMEOUT))

    def _start_election(self) -> None:
        request = self.core.start_election()
        log.info("replica %d: starting election for term %d",
                 self.cfg.node_id, self.core.term)
        if self.core.on_vote_reply(  # count our own vote uniformly
                {"type": "replica-vote-reply", "term": self.core.term,
                 "voter": self.cfg.node_id, "granted": True}):
            self._became_leader()
            return
        for link in self.links.values():
            if link is not None:
                link.send(request)

    def _became_leader(self) -> None:
        log.info("replica %d: leader of term %d", self.cfg.node_id,
                 self.core.term)
        self._broadcast_appends()
        self.on_role_change(True)

    def _lost_leadership(self) -> None:
        log.info("replica %d: deposed (term %d)", self.cfg.node_id,
                 self.core.term)
        self._fail_pending("leadership lost before commit")
        self.on_role_change(False)

    def _fail_pending(self, reason: str) -> None:
        pending, self._pending = self._pending, {}
        for done, _, _ in pending.values():
            done(None, ServiceError(reason))

    def _send_append(self, peer: int) -> None:
        link = self.links.get(peer)
        if link is not None:
            link.send(self.core.append_for(peer))

    def _broadcast_appends(self) -> None:
        self._last_broadcast = self._now
        for peer in self.core.peers():
            self._send_append(peer)

    def _apply_committed(self) -> None:
        for index, cmd in self.core.take_committed():
            result = self.machine.apply(cmd)
            # first: the waiter's continuation may commit and apply more
            self.on_apply(cmd, result)
            waiter = self._pending.pop(index, None)
            if waiter is not None:
                waiter[0](result, None)


# ----------------------------------------------------------------------
# process helpers (fleet CLI, chaos tests, CI smoke)
# ----------------------------------------------------------------------
def pick_free_ports(n: int, host: str = "127.0.0.1") -> List[int]:
    """Reserve ``n`` distinct free TCP ports. The sockets are held
    open while picking (so the kernel cannot hand the same port out
    twice), then closed — a brief race with other processes remains,
    which is fine for tests and single-operator fleets; production
    deployments pass explicit ports."""
    socks = []
    try:
        for _ in range(n):
            s = socket.socket()
            s.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            s.bind((host, 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def spawn_coordinator_process(addresses: List[str], node_id: int, *,
                              cache_dir: Optional[str] = None,
                              heartbeat_timeout: Optional[float] = None,
                              verbose: bool = False,
                              capture: bool = False):
    """Start replica ``node_id`` of ``addresses`` as an OS process —
    the twin of :func:`~repro.service.worker.spawn_worker_process`."""
    argv = ["coordinator", "--bind", addresses[node_id],
            "--node-id", str(node_id), "--peers", ",".join(addresses)]
    if cache_dir:
        argv += ["--cache-dir", cache_dir]
    if heartbeat_timeout is not None:
        argv += ["--heartbeat-timeout", str(heartbeat_timeout)]
    return spawn_service_process(argv, verbose, capture)
