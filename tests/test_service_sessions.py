"""The fleet's sessions without a socket: exactly-once rows under a
seeded fault schedule, stepped under a clock the test owns.

One or three workers and a client drive one
:class:`~repro.service.sessions.Sessions` as the coordinator does
(``hello`` / ``frame`` / ``closed`` / ``tick``). They sign in through
the real ``SignIn`` on the test's clock, and the client's rows go
through the real ``JobRows``; only the fault schedule is the test's,
and no unit is ever simulated. Each seed has out-of-order and duplicate
results, ``unit_error`` retries up to a fatal one, a worker killed
holding two units, a silent worker whose stale result arrives after the
drop, and a client that vanishes mid-job.
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
from repro.service.errors import JobFailed
from repro.service.protocol import PROTOCOL_VERSION, JobRows, SignIn
from repro.service.sessions import Sessions
from tests.conftest import FakeConn

STEP_MS = 50
HEARTBEAT_TIMEOUT = 1.0
N_UNITS = 6
#: the client's three jobs: the first has a unit that always errors
BATCHES = [[SweepUnit(ExperimentConfig("water_spatial", Organization.SHARED,
                                       scale=0.04, seed=100 * b + i + 1),
                      50_000_000, "runtime")
            for i in range(N_UNITS)] for b in range(3)]
#: where the actors' ``SignIn`` dials: the one coordinator
ADDRESS = "coordinator:1"


def value_of(seed: int) -> int:
    """A worker's answer for the unit of ``seed``: nothing simulated."""
    return seed * 10


def leftovers(sessions: Sessions) -> dict:
    """Every piece of scheduler state a job or worker could leave."""
    sched = sessions.sched
    return {"jobs": sorted(sched._jobs), "pending": list(sched._pending),
            "attempts": sorted(sched._units),
            "workers": sorted(sched._workers)}


class Peer(FakeConn):
    """One connection: every frame Sessions sends lands in the
    schedule's transcript, and an open connection's in ``inbox``."""

    def __init__(self, world: "World", name: str) -> None:
        super().__init__()
        self.world, self.name = world, name
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
    """One seeded schedule: the coordinator, the actors, what they
    saw."""

    def __init__(self, seed: int, workers: int) -> None:
        self.rng = random.Random(seed)
        self.now_ms = 0
        self.sessions = Sessions(on_shutdown=lambda: None,
                                 heartbeat_timeout=HEARTBEAT_TIMEOUT)
        self.transcript, self.late = [], []  # late: on a closed conn
        self.seen: set = set()   # the faults this schedule reached
        self.dials = 0
        # a unit of the first job errs always, one of the last once
        self.poison = BATCHES[0][self.rng.randrange(N_UNITS)].exp.seed
        self.vanish_after = self.rng.randint(1, N_UNITS)  # 2nd job's rows
        self.flaky = BATCHES[2][self.rng.randrange(N_UNITS)].exp.seed
        self.client = Client(self)
        self.workers = [Worker(self, f"w{i}") for i in range(workers)]

    @property
    def now(self) -> float:
        return self.now_ms / 1000

    def send(self, conn: Peer, msg) -> None:
        """The owner's read loop hands one frame to Sessions."""
        if not self.sessions.frame(conn, msg, self.now):
            self.hang_up(conn)

    def hang_up(self, conn: Peer) -> None:
        """The read loop ends: EOF, a ``bye``, or a closed session."""
        conn.close()
        conn.hung_up = True
        self.sessions.closed(conn, self.now)

    def step(self) -> None:
        self.now_ms += STEP_MS
        self.sessions.tick(self.now)
        for actor in [self.client] + self.workers:
            actor.step()

    def run(self) -> None:
        """Until the client ran all its jobs and no worker is silent;
        then everyone says ``bye``."""
        while not self.client.finished or any(
                self.now < w.silent_until for w in self.workers):
            assert self.now < 60.0, "the schedule never finished"
            self.step()
        for worker in self.workers:
            worker.leave()


class Actor:
    """What the real peers share: a :class:`SignIn` on the test's clock
    dials and reads the reply; its welcome is the session."""

    def __init__(self, world: World, name: str, role: str) -> None:
        self.world, self.name = world, name
        self.hello = {"type": "hello", "role": role, "name": name,
                      "protocol": PROTOCOL_VERSION, "pid": 1}
        self.conn = None     # the session

    def sign_in(self) -> None:
        """Dial and say hello; the welcome (or the typed refusal
        ``SignIn.reply`` raises) is in the inbox before ``hello``
        returns."""
        w = self.world
        signin = SignIn(ADDRESS, 30.0, w.now)
        assert signin.dial(w.now) == ADDRESS
        w.dials += 1
        conn = Peer(w, f"{self.name}#{w.dials}")
        assert w.sessions.hello(conn, self.hello, w.now)
        signin.reply(conn.inbox.popleft())
        self.conn = conn

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
        worker dies holding two units, then one (the same, when it is
        alone) falls silent."""
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
    """Runs ``BATCHES`` one after the other, a :class:`JobRows` per
    submit, resubmits whenever its session ends, and vanishes mid
    second job."""

    def __init__(self, world: World) -> None:
        super().__init__(world, "client", "client")
        self.batch = 0
        self.rows = None  # a fresh JobRows at each submit
        self.ledgers: list = []   # each finished batch's JobRows
        self.jobs: dict = {}  # job id -> (its batch, its frames)
        self.finished = False

    def step(self) -> None:
        w = self.world
        if self.finished:
            return
        if self.session_ended():
            self.sign_in()
            self.rows = JobRows(BATCHES[self.batch])
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
            if ended:
                self._ended(msg["job"])
            elif (self.batch == 1 and len(self.rows.received)
                    >= w.vanish_after and "vanished" not in w.seen):
                w.seen.add("vanished")
                w.hang_up(self.conn)

    def _ended(self, job: str) -> None:
        """A job ended: the scheduler holds nothing of it."""
        sched = self.world.sessions.sched
        assert job not in sched._jobs
        assert all(j != job for j, _ in sched._pending)
        assert all(j != job for j, _ in sched._units)
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


def run_schedule(seed: int, workers: int):
    """Play one seed; check everything; return what must replay."""
    world = World(seed, workers)
    world.run()
    client = world.client
    finals = [(batch, check_job(batch, frames))
              for batch, frames in client.jobs.values()]
    # every job ended or was abandoned; each batch's last job ended,
    # the first one on its poisoned unit
    last = {batch: final for batch, final in finals}
    assert last == {0: "job_failed", 1: "done", 2: "done"}, finals
    # the resubmit after the vanish collected every value
    for batch, rows in enumerate(client.ledgers[1:], 1):
        assert rows.values == [value_of(u.exp.seed)
                               for u in BATCHES[batch]]
    assert world.late == []  # no assign — nothing — on a closed conn
    left = leftovers(world.sessions)
    assert left == {"jobs": [], "pending": [], "attempts": [],
                    "workers": []}
    expected = {"unit_error", "out_of_order", "duplicate", "killed",
                "silent", "stale_result", "vanished"}
    assert expected <= world.seen, expected - world.seen
    return world.transcript, world.sessions.memo


class TestSteppedSessions:
    """No socket, no sleep, no event loop: the sessions under a clock
    the test owns."""

    @pytest.fixture(autouse=True)
    def _no_sockets(self, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("stepped sessions opened a socket")
        monkeypatch.setattr(socket, "socket", refuse)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("seed", range(20))
    def test_every_unit_reaches_the_client_exactly_once(self, seed,
                                                         workers):
        assert run_schedule(seed, workers) == run_schedule(seed, workers)


def _solo():
    """A coordinator's sessions, ready to serve."""
    return Sessions(on_shutdown=lambda: None)


def _sign_in(sessions, role: str, now: float = 0.0, **fields) -> FakeConn:
    conn = FakeConn()
    assert sessions.hello(conn, dict(type="hello", role=role,
                                     protocol=PROTOCOL_VERSION, **fields),
                          now)
    return conn


class TestDirected:
    def test_a_job_the_memo_serves_in_full_commits_nothing(self):
        """A resubmitted finished job gets ``done`` right after
        ``accepted``, and the scheduler never sees it (it used to be
        added only to be cancelled again before ``done``)."""
        sessions = _solo()
        worker = _sign_in(sessions, "worker", name="w")
        client = _sign_in(sessions, "client")
        submit = JobRows(BATCHES[0][:1]).submit()
        sessions.frame(client, submit, 0.0)
        (assign,) = [m for m in worker.sent if m["type"] == "assign"]
        sessions.frame(worker, {"type": "result", "job": assign["job"],
                                "idx": 0, "value": 7}, 0.0)
        added = []
        real_add_job = sessions.sched.add_job
        sessions.sched.add_job = lambda *a, **kw: (added.append(a[0]),
                                                   real_add_job(*a, **kw))
        client.sent.clear()
        sessions.frame(client, submit, 0.0)
        accepted, done = client.sent
        assert (accepted["type"], accepted["cached"]) == ("accepted",
                                                          [[0, 7]])
        assert (done["type"], done["from_cache"]) == ("done", 1)
        assert added == []
        assert leftovers(sessions)["jobs"] == []
        assert sessions.served_from_cache == 1

    @pytest.mark.parametrize("stored", [
        {"unit": "?", "value": "junk"}, {"unit": "?", "value": {"bogus": 1}},
        [1, 2], 7], ids=["str_value", "dict_value", "list_file", "int_file"])
    def test_a_malformed_stored_row_is_a_miss(self, stored, tmp_path):
        """A row file that does not hold a ``runtime`` number is neither
        served nor raised: the submit is accepted with nothing cached."""
        unit = BATCHES[0][0]
        (tmp_path / (unit.key() + ".json")).write_text(json.dumps(stored))
        sessions = Sessions(on_shutdown=lambda: None,
                            cache_dir=str(tmp_path))
        client = _sign_in(sessions, "client")
        assert sessions.frame(client, JobRows([unit]).submit(), 0.0)
        (accepted,) = client.sent[1:]
        assert (accepted["type"], accepted["cached"]) == ("accepted", [])
        assert sessions.memo == {} and sessions.served_from_cache == 0

    def test_worker_sign_in_logs_at_info(self, caplog):
        sessions = _solo()
        with caplog.at_level(logging.INFO, logger="repro.service"):
            _sign_in(sessions, "worker", name="w7", pid=42)
        assert [(r.name, r.levelno, r.getMessage())
                for r in caplog.records if "joined" in r.getMessage()] \
            == [("repro.service.sessions", logging.INFO,
                 "worker w7 (pid 42) joined")]

    def test_a_result_row_leaves_before_frame_returns(self):
        """The scheduler is called directly: a ``result`` frame's ``row``
        (and the job's ``done``) is on the client's connection when
        ``frame`` returns — nothing interleaves between the two."""
        sessions = _solo()
        worker = _sign_in(sessions, "worker", name="w1")
        client = _sign_in(sessions, "client")
        sessions.frame(client, JobRows(BATCHES[0][:1]).submit(), 0.0)
        (assign,) = [m for m in worker.sent if m["type"] == "assign"]
        sessions.frame(worker, {"type": "result", "job": assign["job"],
                                "idx": assign["idx"], "value": 7}, 0.0)
        assert [m["type"] for m in client.sent] == [
            "welcome", "accepted", "row", "done"]
        assert client.sent[2]["value"] == 7

    def test_after_stop_only_the_workers_shutdown_is_sent(self):
        """``stop`` dismisses the workers; every input after it — a
        hello, a result, a submit, a close, a tick past every deadline
        — is ignored: nothing is sent and no state changes."""
        sessions = _solo()
        worker = _sign_in(sessions, "worker", name="w")
        client = _sign_in(sessions, "client")
        sessions.frame(client, JobRows(BATCHES[0]).submit(), 0.0)
        assign = next(m for m in worker.sent if m["type"] == "assign")

        def state():
            return (leftovers(sessions), sessions.sched.stats(),
                    dict(sessions.memo), sorted(sessions.workers),
                    sorted(sessions.jobs), sessions.units_completed,
                    sessions.rows_streamed, sessions.heartbeats_seen)

        before = state()
        sent = (list(worker.sent), list(client.sent))
        sessions.stop()
        assert worker.sent[len(sent[0]):] == [{"type": "shutdown"}]
        assert client.sent == sent[1]
        newcomer = FakeConn()
        assert not sessions.hello(newcomer, {
            "type": "hello", "role": "worker", "name": "late",
            "protocol": PROTOCOL_VERSION}, 1.0)
        assert not sessions.frame(worker, {
            "type": "result", "job": assign["job"], "idx": assign["idx"],
            "value": 7}, 1.0)
        assert not sessions.frame(worker, {"type": "heartbeat"}, 1.0)
        assert not sessions.frame(client, JobRows(BATCHES[1]).submit(),
                                  1.0)
        sessions.tick(10 ** 6)
        for conn in (worker, client, newcomer):
            sessions.closed(conn, 10 ** 6)
        assert newcomer.sent == []
        assert worker.sent[len(sent[0]):] == [{"type": "shutdown"}]
        assert client.sent == sent[1]
        assert not (worker.closed or client.closed)
        assert state() == before
