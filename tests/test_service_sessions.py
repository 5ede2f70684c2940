"""The coordinator's sessions without a socket: exactly-once rows under
a seeded fault schedule, stepped under a clock the test owns.

:class:`~repro.service.sessions.Sessions` is driven the way the
coordinator drives it — ``hello`` / ``frame`` / ``closed`` / ``tick`` —
by actors playing three workers and one client over fake connections,
against a quorum of one and against three replicas on in-memory links
(``SteppedFleet``). No unit is ever simulated: a worker answers an
``assign`` with a value derived from the unit it names. Each seed's
schedule has out-of-order and duplicate results, ``unit_error``
retries up to a fatal one, a worker closed while it holds two units, a
worker silent past the heartbeat timeout whose stale result arrives
after the drop, a client that vanishes mid-job and resubmits, and —
with three replicas — one isolated leader, after which the actors
resubmit as ``ServiceClient`` and ``Worker`` do.
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
from repro.service.protocol import PROTOCOL_VERSION
from tests.conftest import FakeConn, SteppedFleet

STEP_MS = 50
HEARTBEAT_TIMEOUT = 1.0
N_UNITS = 6
#: the client's three jobs: the first has a unit that always errors
BATCHES = [[SweepUnit(ExperimentConfig("water_spatial",
                                       Organization.SHARED, scale=0.04,
                                       seed=100 * b + i + 1),
                      50_000_000, "runtime").to_wire()
            for i in range(N_UNITS)] for b in range(3)]


def value_of(unit) -> int:
    """What a worker answers for ``unit``: no simulation, just a value
    every replica's memo and the client can check."""
    return unit["seed"] * 10


class Peer(FakeConn):
    """One connection of the schedule: every frame Sessions sends lands
    in the schedule's transcript, and an open connection's in
    ``inbox``."""

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

    def __init__(self, seed: int, replicas: int) -> None:
        self.rng = random.Random(seed)
        self.fleet = SteppedFleet(seed, n=replicas, step_ms=STEP_MS,
                                  sessions=True,
                                  heartbeat_timeout=HEARTBEAT_TIMEOUT)
        self.transcript: list = []
        self.late: list = []     # frames sent on a closed connection
        self.seen: set = set()   # the faults this schedule reached
        self.dials = 0
        self.poison = self.rng.randrange(N_UNITS)  # of the first job
        self.vanish_after = self.rng.randint(1, N_UNITS)  # 2nd job's rows
        self.flaky = self.rng.randrange(N_UNITS)   # errs once per unit
        self.erred: set = set()  # the flaky units' seeds that erred
        self.client = Client(self)
        self.workers = [Worker(self, f"w{i}") for i in range(3)]

    @property
    def now(self) -> float:
        return self.fleet.now

    def dial(self, name: str, hello, hint):
        """Sign in as ``ServiceClient`` and ``Worker`` do: the last
        leader first, then every replica, following redirects."""
        todo = list(dict.fromkeys(
            ([hint] if hint is not None else [])
            + list(range(len(self.fleet.nodes)))))
        while todo:
            node = todo.pop(0)
            self.dials += 1
            conn = Peer(self, f"{name}@{node}#{self.dials}", node)
            if self.fleet.nodes[node].hello(conn, hello, self.now):
                return conn
            leader = conn.inbox[-1]["leader"]
            self.hang_up(conn)
            if leader is not None:
                nxt = self.fleet.addrs.index(leader)
                if nxt in todo:
                    todo.remove(nxt)
                    todo.insert(0, nxt)
        return None

    def send(self, conn: Peer, msg) -> None:
        """The owner's read loop hands one frame to Sessions."""
        if not self.fleet.nodes[conn.node].frame(conn, msg, self.now):
            self.hang_up(conn)

    def hang_up(self, conn: Peer) -> None:
        """The read loop ends: EOF, the peer's ``bye``, or the session
        closed from the coordinator's side."""
        conn.close()
        conn.hung_up = True
        self.fleet.nodes[conn.node].closed(conn, self.now)

    def step(self) -> None:
        self.fleet.step()
        for actor in [self.client] + self.workers:
            actor.step()

    def run(self) -> None:
        """Until the client has run all its jobs and no worker is
        silent, with the leader isolated once during the last job
        (three replicas); then every actor says ``bye`` and the quorum
        settles."""
        heal_at = None
        while not self.client.finished or any(
                self.now < w.silent_until for w in self.workers):
            assert self.now < 60.0, "the schedule never finished"
            self.step()
            if (len(self.fleet.nodes) > 1 and heal_at is None
                    and self.client.batch == 2 and self.client.rows):
                leader = self.fleet.leader()
                self.fleet.isolated = {leader}
                # 3 s: deposed on heal; 6 s: its commits time out first
                heal_at = self.now + self.rng.choice([3.0, 6.0])
                self.seen.add("isolation")
            if heal_at is not None and self.now >= heal_at:
                self.fleet.isolated = set()
        for worker in self.workers:
            worker.leave()
        self.fleet.run(1.0)


class Worker:
    """A worker: runs nothing, answers what it holds in a seeded order,
    falls silent or dies once, and re-signs-in after losing its
    session."""

    def __init__(self, world: World, name: str) -> None:
        self.world, self.name = world, name
        self.conn = None
        self.hint = None
        self.welcomed = False
        self.held: list = []       # assigns, in arrival order
        self.silent_until = 0.0
        self.silenced = False

    def answer(self, assign):
        unit, w = assign["unit"], self.world
        reply = {"job": assign["job"], "idx": assign["idx"]}
        poisoned = unit["seed"] == BATCHES[0][w.poison]["seed"]
        if poisoned or (assign["idx"] == w.flaky
                        and unit["seed"] not in w.erred):
            w.erred.add(unit["seed"])
            w.seen.add("unit_error")
            return dict(reply, type="unit_error", error="boom")
        return dict(reply, type="result", value=value_of(unit))

    def step(self) -> None:
        w = self.world
        if w.now < self.silent_until:
            return
        if self.silenced:
            self.silenced = False
            assert self.conn.closed, "silent past the timeout, not dropped"
        if self.conn is not None and self.conn.closed:
            if self.held and not self.conn.hung_up:
                # a result in flight when the coordinator ended the
                # session reaches it after the drop
                w.send(self.conn, self.answer(self.held[0]))
                w.seen.add("stale_result")
            if not self.conn.hung_up:
                w.hang_up(self.conn)
            self.conn = None
        if self.conn is None:
            self.welcomed, self.held = False, []
            self.conn = w.dial(self.name, {
                "type": "hello", "role": "worker", "name": self.name,
                "protocol": PROTOCOL_VERSION, "pid": 1}, self.hint)
            if self.conn is None:
                self.silent_until = w.now + 0.3  # until the next round
            else:
                self.hint = self.conn.node
            return
        while self.conn.inbox:
            msg = self.conn.inbox.popleft()
            if msg["type"] == "welcome":
                self.welcomed = True
            elif msg["type"] == "assign":
                self.held.append(msg)
        if not self.welcomed:
            return
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
            self.conn = None
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


class Client:
    """The client: runs ``BATCHES`` one job after the other, resubmits
    (as ``ServiceClient`` does) whenever its session ends, and vanishes
    once in the middle of its second job."""

    def __init__(self, world: World) -> None:
        self.world = world
        self.conn = None
        self.hint = None
        self.batch = 0
        self.jobs: dict = {}     # job id -> its frames, in order
        self.batch_of: dict = {}  # job id -> the batch it runs
        self.rows = 0            # rows of the job it waits on
        self.finished = False
        self.next_dial = 0.0

    def submit(self) -> None:
        self.rows = 0
        self.world.send(self.conn, {"type": "submit",
                                    "units": BATCHES[self.batch]})

    def step(self) -> None:
        w = self.world
        if self.finished:
            return
        if self.conn is not None and self.conn.closed:
            if not self.conn.hung_up:
                w.hang_up(self.conn)
            self.conn = None
        if self.conn is None:
            if w.now < self.next_dial:
                return
            self.conn = w.dial("client", {
                "type": "hello", "role": "client",
                "protocol": PROTOCOL_VERSION}, self.hint)
            if self.conn is None:
                self.next_dial = w.now + 0.3  # a lull: let a leader emerge
            else:
                self.hint = self.conn.node
                self.submit()
            return
        while self.conn.inbox and not self.conn.closed:
            msg = self.conn.inbox.popleft()
            if msg["type"] in ("welcome", "error"):
                continue  # an error ends the session: resubmit
            self.batch_of.setdefault(msg["job"], self.batch)
            self.jobs.setdefault(msg["job"], []).append(msg)
            self.rows += msg["type"] == "row"
            if msg["type"] in ("done", "job_failed"):
                self._ended(msg["job"])
            elif (self.batch == 1 and self.rows == w.vanish_after
                    and "vanished" not in w.seen):
                w.seen.add("vanished")  # unread frames are lost
                w.hang_up(self.conn)
        if self.conn.closed:
            self.conn = None

    def _ended(self, job: str) -> None:
        """A job ended: the replica serving it holds nothing of it."""
        snap = self.world.fleet.nodes[self.conn.node].machine.snapshot()
        assert job not in snap["jobs"]
        assert all(j != job for j, _ in snap["pending"])
        assert not [u for u in snap["attempts"] if u.startswith(job + "#")]
        self.batch += 1
        if self.batch < len(BATCHES):
            self.submit()
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
    assert got == {idx: value_of(BATCHES[batch][idx]) for idx in got}
    final = rest[-1]["type"] if rest else "accepted"
    if final == "done":
        assert sorted(got) == list(range(N_UNITS))
        assert rest[-1]["from_cache"] == len(accepted["cached"])
    return final


def run_schedule(seed: int, replicas: int):
    """Play one seed; check everything; return what must replay."""
    world = World(seed, replicas)
    world.run()
    client = world.client
    finals = [(client.batch_of[job], check_job(client.batch_of[job], fr))
              for job, fr in client.jobs.items()]
    # every job ended or was abandoned; each batch's last job ended,
    # the first one on its poisoned unit
    last = {batch: final for batch, final in finals}
    assert last == {0: "job_failed", 1: "done", 2: "done"}, finals
    assert world.late == []  # no assign — nothing — on a closed conn
    snaps = world.fleet.snapshots()
    assert len(set(snaps)) == 1
    snap = json.loads(snaps[0])
    assert (snap["jobs"], snap["pending"], snap["attempts"],
            snap["workers"]) == ({}, [], {}, {})
    expected = {"unit_error", "out_of_order", "duplicate", "killed",
                "silent", "stale_result", "vanished"}
    if replicas > 1:
        expected.add("isolation")
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
        submit = {"type": "submit", "units": BATCHES[0][:1]}
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
        leader.frame(client, {"type": "submit", "units": BATCHES[0]},
                     fleet.now)
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
        leader.frame(client, {"type": "submit", "units": BATCHES[0][:1]},
                     fleet.now)
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
        leader.frame(client, {"type": "submit", "units": BATCHES[0]},
                     fleet.now)
        fleet.run(0.5)
        assign = next(m for m in worker.sent if m["type"] == "assign")
        fleet.isolated = {fleet.leader()}
        leader.frame(worker, {"type": "result", "job": assign["job"],
                              "idx": assign["idx"], "value": 1}, fleet.now)
        fleet.run(COMMIT_TIMEOUT + 0.1)
        assert worker.closed
        assert worker.sent[-1]["type"] == "error"
        assert "not committed within" in worker.sent[-1]["error"]
        assert not leader.frame(worker, {"type": "heartbeat"}, fleet.now)
