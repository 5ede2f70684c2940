"""Cluster membership, leader election and replication driver.

The async half of coordinator replication: a :class:`ClusterManager`
lives on its coordinator's event loop and drives the pure
:class:`~repro.service.replica.ConsensusCore` over the wire —

* one lazily-reconnecting :class:`_PeerLink` per peer replica (the
  same length-prefixed frames as every other service connection,
  opened with ``replica-hello``);
* an election ticker: a follower that hears no leader within its
  election timeout becomes a candidate and solicits votes; timeouts
  are staggered by node id (plus jitter) so replica 0 usually wins
  the first election without split votes;
* a leader lease: the leader broadcasts ``replica-append`` heartbeats
  every ``heartbeat_interval``, which is what resets everyone else's
  election timer;
* :meth:`commit`: the leader's one write path — append a scheduler
  command to the log, replicate, resolve the caller's future when a
  majority holds it and it applies.

A lone coordinator runs all of this with itself as the only member.
No peer means no heartbeat to wait for — :meth:`ClusterManager.start`
wins the election on the spot and no ticker runs; the leader alone is
the majority, so :meth:`commit` returns without suspending; and since
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

import asyncio
import os
import random
import socket
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.service.errors import (ConnectionClosed, FrameError,
                                  ServiceError)
from repro.service.protocol import (PROTOCOL_VERSION, FrameDecoder,
                                    encode_frame, read_msg_async)
from repro.service.replica import LEADER, ConsensusCore, SchedulerMachine
from repro.service.worker import parse_address, spawn_service_process

__all__ = ["ClusterConfig", "ClusterManager",
           "spawn_coordinator_process", "pick_free_ports"]


@dataclass
class ClusterConfig:
    """Static replica membership: ``addresses[i]`` is the client-facing
    (and peer-facing) address of replica ``i``; ``node_id`` says which
    one this process is. All replicas must be started with the same
    address list."""
    node_id: int
    addresses: List[str]
    heartbeat_interval: float = 0.25
    election_timeout: float = 1.5
    commit_timeout: float = 5.0
    reconnect_interval: float = 0.3
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


class _PeerLink:
    """One outbound connection to a peer replica, reconnecting with
    backoff forever (a dead peer is a normal condition — the quorum
    rule, not the link, decides what that means). Messages sent while
    disconnected are dropped: every consensus message is re-driven by
    a timer (heartbeats, election retries), so loss is only latency."""

    def __init__(self, manager: "ClusterManager", peer_id: int) -> None:
        self.manager = manager
        self.peer_id = peer_id
        self.connected = False
        self._queue: Optional[asyncio.Queue] = None
        self._task = asyncio.create_task(self._run())

    def send(self, msg: Dict[str, Any]) -> None:
        q = self._queue
        if q is not None:
            try:
                q.put_nowait(encode_frame(msg))
            except asyncio.QueueFull:
                pass  # peer is stalled; timers re-drive what matters

    async def close(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except (asyncio.CancelledError, Exception):
            pass

    async def _pump(self, writer: asyncio.StreamWriter) -> None:
        assert self._queue is not None
        while True:
            frame = await self._queue.get()
            writer.write(frame)
            await asyncio.wait_for(writer.drain(), 10.0)

    async def _run(self) -> None:
        cfg = self.manager.cfg
        host, port = parse_address(cfg.addresses[self.peer_id])
        while True:
            writer = pump = None
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(host, port), 5.0)
                sock = writer.get_extra_info("socket")
                if sock is not None:
                    sock.setsockopt(socket.IPPROTO_TCP,
                                    socket.TCP_NODELAY, 1)
                self._queue = asyncio.Queue(maxsize=1024)
                writer.write(encode_frame(
                    {"type": "replica-hello",
                     "node": cfg.node_id,
                     "protocol": PROTOCOL_VERSION}))
                await writer.drain()
                self.connected = True
                pump = asyncio.create_task(self._pump(writer))
                decoder = FrameDecoder()
                while True:
                    msg = await read_msg_async(reader, decoder)
                    self.manager.handle_message(msg, self.send)
            except (OSError, ConnectionClosed, FrameError,
                    ServiceError, asyncio.TimeoutError):
                pass
            finally:
                self.connected = False
                self._queue = None
                if pump is not None:
                    pump.cancel()
                if writer is not None:
                    try:
                        writer.close()
                    except (OSError, RuntimeError):
                        pass
            await asyncio.sleep(cfg.reconnect_interval)


class ClusterManager:
    """Drives one replica's consensus participation (module docstring).

    Owned by its coordinator; everything runs on — and only on — the
    coordinator's event loop thread.

    ``on_apply(cmd, result)`` fires for every committed command on
    every replica (leader and followers alike); ``on_role_change(bool)``
    fires on this node's own leadership transitions.
    """

    def __init__(self, cfg: ClusterConfig, machine: SchedulerMachine, *,
                 on_apply: Callable[[Dict[str, Any], Any], None],
                 on_role_change: Callable[[bool], None],
                 log_fn: Callable[[str], None] = lambda s: None) -> None:
        self.cfg = cfg
        self.machine = machine
        state_path = (os.path.join(cfg.state_dir,
                                   f"replica{cfg.node_id}.state.json")
                      if cfg.state_dir else None)
        self.core = ConsensusCore(cfg.node_id, cfg.n_nodes,
                                  state_path=state_path)
        self.on_apply = on_apply
        self.on_role_change = on_role_change
        self._log = log_fn
        self._links: Dict[int, _PeerLink] = {}
        self._waiters: Dict[int, asyncio.Future] = {}
        self._ticker: Optional[asyncio.Task] = None
        self._last_contact = 0.0
        self._last_broadcast = 0.0
        self._rng = random.Random(os.getpid() ^ cfg.node_id)

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        self._last_contact = asyncio.get_running_loop().time()
        for peer in self.core.peers():
            self._links[peer] = _PeerLink(self, peer)
        if self._links:
            self._ticker = asyncio.create_task(self._tick_loop())
        else:  # no peer to hear from or outvote us: lead from now on
            self._start_election()

    async def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
        for link in self._links.values():
            await link.close()
        self._fail_waiters("cluster shutting down")

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
                    1 for l in self._links.values() if l.connected)}

    # -- the leader's write path ---------------------------------------
    async def commit(self, cmd: Dict[str, Any]) -> Any:
        """Append ``cmd``, replicate to a majority, apply, and return
        the machine's (deterministic) result. Raises
        :class:`ServiceError` when this node is not the leader or the
        quorum cannot be reached in time."""
        if self.core.role != LEADER:
            raise ServiceError("not the leader")
        index = self.core.append_command(cmd)
        fut = asyncio.get_running_loop().create_future()
        self._waiters[index] = fut
        self._apply_committed()
        if fut.done():  # a quorum of one: applied without suspending
            return fut.result()
        self._broadcast_appends()
        try:
            return await asyncio.wait_for(fut, self.cfg.commit_timeout)
        except asyncio.TimeoutError:
            self._waiters.pop(index, None)
            raise ServiceError(
                f"command {cmd.get('op')!r} not committed within "
                f"{self.cfg.commit_timeout}s (quorum lost?)") from None

    # -- message handling (inbound conns and peer links) ---------------
    def handle_message(self, msg: Dict[str, Any],
                       send: Callable[[Dict[str, Any]], None]) -> None:
        """Process one consensus frame; ``send`` answers on whichever
        connection the frame arrived on."""
        loop = asyncio.get_running_loop()
        was_leader = self.core.role == LEADER
        kind = msg.get("type")
        try:
            if kind == "replica-vote":
                reply = self.core.on_vote(msg)
                if reply["granted"]:
                    self._last_contact = loop.time()
                send(reply)
            elif kind == "replica-vote-reply":
                if self.core.on_vote_reply(msg):
                    self._became_leader()
            elif kind == "replica-append":
                ack = self.core.on_append(msg)
                if ack["ok"]:
                    self._last_contact = loop.time()
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
    def _election_timeout(self) -> float:
        base = self.cfg.election_timeout
        return (base * (1.0 + 0.4 * self.cfg.node_id)
                + self._rng.uniform(0.0, 0.2 * base))

    async def _tick_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(
                min(0.05, self.cfg.heartbeat_interval / 4))
            now = loop.time()
            if self.core.role == LEADER:
                if (now - self._last_broadcast
                        >= self.cfg.heartbeat_interval):
                    self._broadcast_appends()
            elif now - self._last_contact >= self._election_timeout():
                self._last_contact = now
                self._start_election()

    def _start_election(self) -> None:
        request = self.core.start_election()
        self._log(f"replica {self.cfg.node_id}: starting election "
                  f"for term {self.core.term}")
        if self.core.on_vote_reply(  # count our own vote uniformly
                {"type": "replica-vote-reply", "term": self.core.term,
                 "voter": self.cfg.node_id, "granted": True}):
            self._became_leader()
            return
        for link in self._links.values():
            link.send(request)

    def _became_leader(self) -> None:
        self._log(f"replica {self.cfg.node_id}: leader of term "
                  f"{self.core.term}")
        self._broadcast_appends()
        self.on_role_change(True)

    def _lost_leadership(self) -> None:
        self._log(f"replica {self.cfg.node_id}: deposed (term "
                  f"{self.core.term})")
        self._fail_waiters("leadership lost before commit")
        self.on_role_change(False)

    def _fail_waiters(self, reason: str) -> None:
        for fut in self._waiters.values():
            if not fut.done():
                fut.set_exception(ServiceError(reason))
        self._waiters.clear()

    def _send_append(self, peer: int) -> None:
        link = self._links.get(peer)
        if link is not None:
            link.send(self.core.append_for(peer))

    def _broadcast_appends(self) -> None:
        self._last_broadcast = asyncio.get_running_loop().time()
        for peer in self.core.peers():
            self._send_append(peer)

    def _apply_committed(self) -> None:
        for index, cmd in self.core.take_committed():
            result = self.machine.apply(cmd)
            fut = self._waiters.pop(index, None)
            if fut is not None and not fut.done():
                fut.set_result(result)
            self.on_apply(cmd, result)


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
