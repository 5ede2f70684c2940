"""The fleet's sessions without a socket: exactly-once rows under a
seeded fault schedule, stepped under a clock the test owns.

Three workers and a client drive :class:`~repro.service.sessions.Sessions`
as the coordinator does (``hello`` / ``frame`` / ``closed`` / ``tick``),
against a quorum of one and three replicas (``SteppedFleet``). They sign
in through the real ``SignIn`` on the fleet clock, and the client's rows
go through the real ``JobRows``; only the fault schedule is the test's,
and no unit is ever simulated. Each seed has out-of-order and duplicate
results, ``unit_error`` retries up to a fatal one, a worker killed
holding two units, a silent worker whose stale result arrives after the
drop, a client that vanishes mid-job, and one leader cut off.
"""

from __future__ import annotations

import json
import logging
import random
import socket
from collections import deque

import pytest

from repro.harness.experiment import ExperimentConfig
from repro.harness.units import SweepUnit
from repro.params import Organization
from repro.service.cluster import COMMIT_TIMEOUT
from repro.service.errors import ConnectionClosed, JobFailed, ServiceError
from repro.service.protocol import PROTOCOL_VERSION, JobRows, SignIn
from tests.conftest import FakeConn, SteppedFleet

STEP_MS = 50
HEARTBEAT_TIMEOUT = 1.0
N_UNITS = 6
#: the client's three jobs: the first has a unit that always errors
BATCHES = [[SweepUnit(ExperimentConfig("water_spatial", Organization.SHARED,
                                       scale=0.04, seed=100 * b + i + 1),
                      50_000_000, "runtime")
            for i in range(N_UNITS)] for b in range(3)]
#: the leader cut off in the last job: isolated (till deposed, or past
#: COMMIT_TIMEOUT), or deaf (its followers hear it; it hears nothing)
PARTITIONS = [("isolated", 3.0), ("isolated", 6.0), ("deaf", 6.0)]


def value_of(seed: int) -> int:
    """A worker's answer for the unit of ``seed``: nothing simulated."""
    return seed * 10


class Peer(FakeConn):
    """One connection: every frame Sessions sends lands in the
    schedule's transcript, and an open connection's in ``inbox``."""

    def __init__(self, world: "World", name: str, node: int) -> None:
        super().__init__()
        self.world, self.name, self.node = world, name, node
        self.inbox: deque = deque()
        self.hung_up = False  # the owner's read loop has ended

    def send(self, msg) -> None:
        msg = json.loads(json.dumps(msg))
        self.world.transcript.append((self.name, self.closed, msg))
        if self.closed:
            self.world.late.append(msg)
        else:
            self.inbox.append(msg)


class World:
    """One seeded schedule: the fleet, the actors, what they saw."""

    def __init__(self, seed: int, replicas: int, partition=None) -> None:
        self.rng = random.Random(seed)
        self.fleet = SteppedFleet(seed, n=replicas, step_ms=STEP_MS,
                                  sessions=True,
                                  heartbeat_timeout=HEARTBEAT_TIMEOUT)
        self.partition = partition or self.rng.choice(PARTITIONS)
        self.transcript, self.late = [], []  # late: on a closed conn
        self.seen: set = set()   # the faults this schedule reached
        self.dials = 0
        # a unit of the first job errs always, one of the last once
        self.poison = BATCHES[0][self.rng.randrange(N_UNITS)].exp.seed
        self.vanish_after = self.rng.randint(1, N_UNITS)  # 2nd job's rows
        self.flaky = BATCHES[2][self.rng.randrange(N_UNITS)].exp.seed
        self.client = Client(self)
        self.workers = [Worker(self, f"w{i}") for i in range(3)]

    @property
    def now(self) -> float:
        return self.fleet.now

    def send(self, conn: Peer, msg) -> None:
        """The owner's read loop hands one frame to Sessions."""
        if not self.fleet.nodes[conn.node].frame(conn, msg, self.now):
            self.hang_up(conn)

    def hang_up(self, conn: Peer) -> None:
        """The read loop ends: EOF, a ``bye``, or a closed session."""
        conn.close()
        conn.hung_up = True
        self.fleet.nodes[conn.node].closed(conn, self.now)

    def step(self) -> None:
        self.fleet.step()
        for actor in [self.client] + self.workers:
            actor.step()

    def run(self) -> None:
        """Until the client ran all its jobs and no worker is silent or
        link cut; then everyone says ``bye`` and the quorum settles."""
        fleet, heal_at = self.fleet, None
        while not self.client.finished or fleet.cut or any(
                self.now < w.silent_until for w in self.workers):
            assert self.now < 60.0, "the schedule never finished"
            self.step()
            if heal_at is None and len(fleet.nodes) > 1 \
                    and self.client.batch == 2 and self.client.rows.received:
                kind, span = self.partition
                leader = fleet.leader()
                fleet.isolate(leader)
                if kind == "deaf":  # only what is sent to it is lost
                    fleet.cut = {c for c in fleet.cut if c[1] == leader}
                heal_at = self.now + span
                self.seen.add(kind)
            if heal_at is not None and self.now >= heal_at:
                fleet.cut = set()
        for worker in self.workers:
            worker.leave()
        fleet.run(5.0)


class Actor:
    """What the real peers share: a :class:`SignIn` on the fleet clock
    picks whom to dial and reads the reply; its welcome is the session."""

    def __init__(self, world: World, name: str, role: str) -> None:
        self.world, self.name = world, name
        self.hello = {"type": "hello", "role": role, "name": name,
                      "protocol": PROTOCOL_VERSION, "pid": 1}
        self.conn = None     # the session
        self.leader = None   # where the last session was
        self.signin = None   # the hunt for the next one
        self.dialed = None   # its connection awaiting the hello's reply

    def sign_in(self) -> bool:
        """One step of the hunt; True once welcomed."""
        w = self.world
        self.signin = self.signin or SignIn(w.fleet.addrs, 30.0, w.now,
                                            self.leader)
        if self.dialed is None:
            address = self.signin.dial(w.now)
            if address is None:
                return False  # the lull between rounds
            w.dials, node = w.dials + 1, w.fleet.addrs.index(address)
            conn = self.dialed = Peer(w, f"{self.name}#{w.dials}", node)
            if not w.fleet.nodes[node].hello(conn, self.hello, w.now):
                w.hang_up(conn)  # a redirect: the reply is in the inbox
        conn = self.dialed
        if not conn.inbox and not conn.closed:
            return False  # the reply is not in yet
        self.dialed = None
        if not conn.inbox:
            self.signin.failed(ConnectionClosed("closed before a reply"))
        elif self.signin.reply(conn.inbox.popleft()):
            self.conn, self.leader = conn, self.signin.leader
            self.signin = None
            return True
        w.hang_up(conn)
        return False

    def session_ended(self) -> bool:
        """Hang up a session the coordinator closed; True if none."""
        if self.conn is not None and self.conn.closed:
            self.world.hang_up(self.conn)
            self.conn = None
        return self.conn is None


class Worker(Actor):
    """Answers what it holds in a seeded order, falls silent or dies
    once, and re-signs-in after losing its session."""

    def __init__(self, world: World, name: str) -> None:
        super().__init__(world, name, "worker")
        self.held: list = []       # assigns, in arrival order
        self.silent_until = 0.0
        self.silenced = False

    def answer(self, assign):
        unit, w = assign["unit"], self.world
        reply = {"job": assign["job"], "idx": assign["idx"]}
        if unit["seed"] in (w.poison, w.flaky):
            if unit["seed"] == w.flaky:
                w.flaky = None
            w.seen.add("unit_error")
            return dict(reply, type="unit_error", error="boom")
        return dict(reply, type="result", value=value_of(unit["seed"]))

    def step(self) -> None:
        w = self.world
        if w.now < self.silent_until:
            return
        if self.silenced:
            self.silenced = False
            assert self.conn.closed, "silent past the timeout, not dropped"
        if self.held and self.conn.closed and not self.conn.hung_up:
            # a result in flight at the drop reaches the coordinator
            w.send(self.conn, self.answer(self.held[0]))
            w.seen.add("stale_result")
        if self.session_ended():
            self.held = []
            self.sign_in()
            return
        while self.conn.inbox:
            msg = self.conn.inbox.popleft()
            if msg["type"] == "assign":
                self.held.append(msg)
        if self._fault():
            return
        roll = w.rng.random()
        if roll < 0.3:
            w.send(self.conn, {"type": "heartbeat"})
        elif roll < 0.8 and self.held:
            pos = 0
            if len(self.held) > 1 and (w.rng.random() < 0.3
                                       or "out_of_order" not in w.seen):
                pos = len(self.held) - 1
                w.seen.add("out_of_order")
            reply = self.answer(self.held.pop(pos))
            w.send(self.conn, reply)
            if not self.conn.closed and (w.rng.random() < 0.15
                                         or "duplicate" not in w.seen):
                w.send(self.conn, reply)
                w.seen.add("duplicate")

    def _fault(self) -> bool:
        """Once per schedule, while the client runs its second job: one
        worker dies holding two units, another falls silent."""
        w = self.world
        if w.client.batch != 1:
            return False
        if "killed" not in w.seen and len(self.held) == 2:
            w.seen.add("killed")
            w.hang_up(self.conn)  # the process died; the socket EOFs
            self.conn, self.held = None, []
            self.silent_until = w.now + 0.3  # the respawn
            return True
        if "killed" in w.seen and "silent" not in w.seen and self.held:
            w.seen.add("silent")
            self.silenced = True
            self.silent_until = w.now + HEARTBEAT_TIMEOUT + 0.5
            return True
        return False

    def leave(self) -> None:
        if self.conn is not None and not self.conn.closed:
            self.world.send(self.conn, {"type": "bye"})


class Client(Actor):
    """Runs ``BATCHES`` one after the other, a :class:`JobRows` each,
    resubmits whenever its session ends, and vanishes mid second job."""

    def __init__(self, world: World) -> None:
        super().__init__(world, "client", "client")
        self.batch = 0
        self.rows = JobRows(BATCHES[0])
        self.ledgers: list = []   # each finished batch's JobRows
        self.jobs: dict = {}  # job id -> (its batch, its frames)
        self.finished = False

    def step(self) -> None:
        w = self.world
        if self.finished:
            return
        if self.session_ended():
            if self.sign_in():
                w.send(self.conn, self.rows.submit())
            return
        # frames sent before a close are read; a vanished client's lost
        while self.conn.inbox and not self.conn.hung_up:
            msg = self.conn.inbox.popleft()
            if "job" in msg:
                self.jobs.setdefault(msg["job"], (self.batch, []))[1] \
                    .append(msg)
            try:
                ended = self.rows.frame(msg)
            except JobFailed:
                ended = True
            except ServiceError:  # the error frame of a failed commit
                w.hang_up(self.conn)
                return
            if ended:
                self._ended(msg["job"])
            elif (self.batch == 1 and len(self.rows.received)
                    >= w.vanish_after and "vanished" not in w.seen):
                w.seen.add("vanished")
                w.hang_up(self.conn)

    def _ended(self, job: str) -> None:
        """A job ended: the replica serving it holds nothing of it."""
        snap = self.world.fleet.nodes[self.conn.node].machine.snapshot()
        assert job not in snap["jobs"]
        assert all(j != job for j, _ in snap["pending"])
        assert not [u for u in snap["attempts"] if u.startswith(job + "#")]
        self.ledgers.append(self.rows)
        self.batch += 1
        if self.batch < len(BATCHES):
            self.rows = JobRows(BATCHES[self.batch])
            self.world.send(self.conn, self.rows.submit())
        else:
            self.world.send(self.conn, {"type": "bye"})
            self.finished = True


def check_job(batch: int, frames) -> str:
    """One job as the client heard it: every unit exactly once — in
    ``accepted.cached`` or as one ``row`` with the worker's value —
    then one ``done``; or one ``job_failed`` and nothing after it; or
    nothing final, when the client's session ended first. Returns the
    final frame's type."""
    accepted, *rest = frames
    assert accepted["type"] == "accepted"
    assert all(m["type"] == "row" for m in rest[:-1]), rest
    got = dict(accepted["cached"])
    for msg in rest:
        if msg["type"] == "row":
            assert msg["idx"] not in got, f"{msg['job']}#{msg['idx']} twice"
            got[msg["idx"]] = msg["value"]
    assert got == {idx: value_of(BATCHES[batch][idx].exp.seed)
                   for idx in got}
    final = rest[-1]["type"] if rest else "accepted"
    if final == "done":
        assert sorted(got) == list(range(N_UNITS))
        assert rest[-1]["from_cache"] == len(accepted["cached"])
    return final


def run_schedule(seed: int, replicas: int, partition=None):
    """Play one seed; check everything; return what must replay."""
    world = World(seed, replicas, partition)
    world.run()
    client = world.client
    finals = [(batch, check_job(batch, frames))
              for batch, frames in client.jobs.values()]
    # every job ended or was abandoned; each batch's last job ended,
    # the first one on its poisoned unit
    last = {batch: final for batch, final in finals}
    assert last == {0: "job_failed", 1: "done", 2: "done"}, finals
    # the ledgers kept every value across vanish, resubmits, partition
    for batch, rows in enumerate(client.ledgers[1:], 1):
        assert rows.values == [value_of(u.exp.seed)
                               for u in BATCHES[batch]]
    assert world.late == []  # no assign — nothing — on a closed conn
    snaps = world.fleet.snapshots()
    assert len(set(snaps)) == 1
    snap = json.loads(snaps[0])
    assert (snap["jobs"], snap["pending"], snap["attempts"],
            snap["workers"]) == ({}, [], {}, {})
    expected = {"unit_error", "out_of_order", "duplicate", "killed",
                "silent", "stale_result", "vanished"}
    if replicas > 1:
        expected.add(world.partition[0])
    assert expected <= world.seen, expected - world.seen
    return world.transcript, snaps


class TestSteppedSessions:
    """No socket, no sleep, no event loop: the sessions under a clock
    and a network the test owns."""

    @pytest.fixture(autouse=True)
    def _no_sockets(self, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("stepped sessions opened a socket")
        monkeypatch.setattr(socket, "socket", refuse)

    @pytest.mark.parametrize("replicas", [1, 3])
    @pytest.mark.parametrize("seed", range(20))
    def test_every_unit_reaches_the_client_exactly_once(self, seed,
                                                         replicas):
        assert run_schedule(seed, replicas) == run_schedule(seed, replicas)

    @pytest.mark.parametrize("seed", range(3))
    def test_a_deaf_leader_steps_down_and_every_row_arrives(self, seed):
        """CheckQuorum: no ack reaches the leader, its commits expire and
        it steps down; the next leader's ``reset`` makes all resubmit.
        Leading on, it committed the expired entries once acks returned:
        a ``complete`` became a row nobody streamed; the client hung."""
        run_schedule(seed, 3, partition=("deaf", COMMIT_TIMEOUT + 1.0))


def _solo():
    """A quorum of one, ready to serve."""
    return SteppedFleet(0, n=1, sessions=True).nodes[0]


def _trio():
    """Three replicas, past the first election and its ``reset``."""
    fleet = SteppedFleet(0, n=3, sessions=True)
    fleet.run(4.0)
    return fleet, fleet.nodes[fleet.leader()]


def _sign_in(sessions, role: str, now: float = 0.0, **fields) -> FakeConn:
    conn = FakeConn()
    assert sessions.hello(conn, dict(type="hello", role=role,
                                     protocol=PROTOCOL_VERSION, **fields),
                          now)
    return conn


class TestDirected:
    def test_a_job_the_memo_serves_in_full_commits_nothing(self):
        """A resubmitted finished job gets ``done`` right after
        ``accepted``, and the log gains no entry (it used to commit a
        ``job_cancel`` for a job the machine never saw — a quorum round
        trip before ``done``)."""
        sessions = _solo()
        worker = _sign_in(sessions, "worker", name="w")
        client = _sign_in(sessions, "client")
        submit = JobRows(BATCHES[0][:1]).submit()
        sessions.frame(client, submit, 0.0)
        (assign,) = [m for m in worker.sent if m["type"] == "assign"]
        sessions.frame(worker, {"type": "result", "job": assign["job"],
                                "idx": 0, "value": 7}, 0.0)
        applied = sessions.machine.applied
        client.sent.clear()
        sessions.frame(client, submit, 0.0)
        accepted, done = client.sent
        assert (accepted["type"], accepted["cached"]) == ("accepted",
                                                          [[0, 7]])
        assert (done["type"], done["from_cache"]) == ("done", 1)
        assert sessions.machine.applied == applied
        assert sessions.served_from_cache == 1

    def test_worker_sign_in_logs_at_info(self, caplog):
        sessions = _solo()
        with caplog.at_level(logging.INFO, logger="repro.service"):
            _sign_in(sessions, "worker", name="w7", pid=42)
        assert [(r.name, r.levelno, r.getMessage())
                for r in caplog.records if "joined" in r.getMessage()] \
            == [("repro.service.sessions", logging.INFO,
                 "worker w7 (pid 42) joined")]

    def test_a_session_that_ends_before_its_commit_lands_hears_nothing(
            self):
        """With peers a commit lands a round trip later: a worker gone
        before its ``worker_add`` lands is never welcomed, a client gone
        before its ``job_add`` lands is never accepted, and neither
        leaves anything in the replicated state."""
        fleet, leader = _trio()
        worker = _sign_in(leader, "worker", fleet.now, name="w")
        client = _sign_in(leader, "client", fleet.now)
        leader.frame(client, JobRows(BATCHES[0]).submit(), fleet.now)
        for conn in (worker, client):
            conn.close()
            leader.closed(conn, fleet.now)
        fleet.run(1.0)
        assert worker.sent == []
        assert [m["type"] for m in client.sent] == ["welcome"]
        snaps = fleet.snapshots()
        assert len(set(snaps)) == 1
        snap = json.loads(snaps[0])
        assert (snap["workers"], snap["jobs"], snap["pending"]) \
            == ({}, {}, [])

    def test_a_client_gone_before_its_job_cancel_lands_hears_no_done(
            self):
        """The last row goes out and the job's ``job_cancel`` starts
        committing; a client that closes before it lands is never sent
        the ``done``, and the job still leaves the replicated state."""
        fleet, leader = _trio()
        worker = _sign_in(leader, "worker", fleet.now, name="w")
        client = _sign_in(leader, "client", fleet.now)
        leader.frame(client, JobRows(BATCHES[0][:1]).submit(), fleet.now)
        fleet.run(0.5)
        (assign,) = [m for m in worker.sent if m["type"] == "assign"]
        leader.frame(worker, {"type": "result", "job": assign["job"],
                              "idx": 0, "value": 7}, fleet.now)
        while client.sent[-1]["type"] != "row":
            fleet.deliver()  # frame by frame, up to the completion
        assert fleet.wire, "the job_cancel landed with the row"
        client.close()
        leader.closed(client, fleet.now)
        fleet.run(1.0)
        assert [m["type"] for m in client.sent] == [
            "welcome", "accepted", "row"]
        snaps = fleet.snapshots()
        assert len(set(snaps)) == 1
        assert json.loads(snaps[0])["jobs"] == {}

    def test_a_failed_commit_ends_its_peer_session_with_the_error(self):
        """An isolated leader cannot commit a worker's result: past
        ``COMMIT_TIMEOUT`` the worker gets the typed error frame and
        its session ends (it re-signs-in elsewhere)."""
        fleet, leader = _trio()
        worker = _sign_in(leader, "worker", fleet.now, name="w")
        client = _sign_in(leader, "client", fleet.now)
        leader.frame(client, JobRows(BATCHES[0]).submit(), fleet.now)
        fleet.run(0.5)
        assign = next(m for m in worker.sent if m["type"] == "assign")
        fleet.isolate(fleet.leader())
        leader.frame(worker, {"type": "result", "job": assign["job"],
                              "idx": assign["idx"], "value": 1}, fleet.now)
        fleet.run(COMMIT_TIMEOUT + 0.1)
        assert worker.closed
        assert worker.sent[-1]["type"] == "error"
        assert "not committed within" in worker.sent[-1]["error"]
        assert not leader.frame(worker, {"type": "heartbeat"}, fleet.now)
