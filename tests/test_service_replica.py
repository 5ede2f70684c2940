"""Replicated-coordinator campaign: consensus, convergence, fail-over.

Three layers, mirroring the architecture:

* :class:`SchedulerMachine` — the fuzzed command-log determinism
  property: N machines fed the same command log must converge
  **bit-identically** (canonical-JSON snapshots compared as strings).
  This is the replication safety argument in test form — if it holds,
  any replica can take over leadership with exactly the scheduler
  state the dead leader had.
* :class:`ConsensusCore` — the Raft-style rules as pure unit tests:
  one vote per term, the up-to-date log restriction, log-matching
  conflict truncation, majority commit (current term only),
  exactly-once delivery of committed entries.
* the live cluster — 3 in-process replicas behind one comma-separated
  address: rows bit-identical to serial, leader death between submit
  and first row survived transparently, resubmits memo-served without
  re-simulation, workers re-signing-in to the new leader.

The process-level leader-SIGKILL campaign lives in
``test_service_chaos.py``.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time

import pytest

from repro.harness.experiment import ExperimentConfig
from repro.harness.units import SweepUnit
from repro.params import Organization
from repro.service import (ClusterConfig, ClusterManager, Coordinator,
                           ServiceClient, ServiceError, Worker,
                           pick_free_ports)
from repro.service.protocol import PROTOCOL_VERSION
from repro.service.replica import (CANDIDATE, FOLLOWER, LEADER,
                                   ConsensusCore, ReplicaLog,
                                   SchedulerMachine)
from repro.service.scheduler import Assignment
from repro.service.transport import SyncTransport
from tests.conftest import FakeConn, SteppedFleet

BENCH = "water_spatial"


def unit(seed: int = 1, scale: float = 0.04,
         metric="runtime") -> SweepUnit:
    return SweepUnit(ExperimentConfig(benchmark=BENCH,
                                      organization=Organization.SHARED,
                                      scale=scale, warmup_fraction=0.5,
                                      seed=seed),
                     50_000_000, metric)


# ----------------------------------------------------------------------
# determinism property: same log -> bit-identical machines
# ----------------------------------------------------------------------
def _wire_units():
    return [unit(seed=s, metric=m).to_wire()
            for s in (1, 2, 3) for m in ("runtime", "mpki")]


def _fuzz_log(seed: int):
    """Drive a reference machine with a random-but-valid command
    stream (dispatch output feeds completes/failures, like the live
    coordinator) plus deliberate garbage, and return the log."""
    rng = random.Random(seed)
    wires = _wire_units()
    ref = SchedulerMachine()
    log = []

    def do(cmd):
        # round-trip through JSON: replicas only ever see wire-shaped
        # commands, so the log must be JSON-canonical
        cmd = json.loads(json.dumps(cmd))
        log.append(cmd)
        return ref.apply(cmd)

    workers, inflight = [], []
    wseq = jseq = 0
    for _ in range(rng.randrange(60, 100)):
        roll = rng.random()
        if roll < 0.18 or not workers:
            wseq += 1
            workers.append(f"w{wseq}")
            do({"op": "worker_add", "name": workers[-1]})
        elif roll < 0.28:
            name = workers.pop(rng.randrange(len(workers)))
            do({"op": "worker_remove", "name": name})
            inflight = [a for a in inflight if a["worker"] != name]
        elif roll < 0.45:
            jseq += 1
            n = rng.randrange(1, 4)
            do({"op": "job_add", "job": f"j{jseq}",
                "units": [rng.choice(wires) for _ in range(n)],
                "skip": []})
        elif roll < 0.60:
            out = do({"op": "dispatch"})
            if isinstance(out, list):
                inflight.extend(out)
        elif roll < 0.80 and inflight:
            a = inflight.pop(rng.randrange(len(inflight)))
            key = SweepUnit.from_wire(a["unit"]).key()
            if rng.random() < 0.7:
                do({"op": "complete", "name": a["worker"],
                    "job": a["job"], "idx": a["idx"], "key": key,
                    "value": rng.randrange(10_000)})
            else:
                do({"op": "unit_fail", "name": a["worker"],
                    "job": a["job"], "idx": a["idx"]})
        elif roll < 0.85 and jseq:
            do({"op": rng.choice(["job_cancel", "job_fail"]),
                "job": f"j{rng.randrange(1, jseq + 1)}"})
        elif roll < 0.90:
            # malformed commands must be deterministic no-op markers
            do(rng.choice([{"op": "no_such_op"},
                           {"op": "complete"},       # missing keys
                           {"op": "job_add", "job": "jX",
                            "units": [{"kind": "bogus"}]},
                           {"no": "op at all"}]))
        elif roll < 0.95:
            do({"op": "reset"})
            workers, inflight = [], []
        else:
            do({"op": "dispatch"})
    return log, ref


class FifoModel:
    """The scheduling policy at its plainest: one list, scanned, and two
    slots per worker. It speaks the part of the :class:`Scheduler` API
    that :class:`SchedulerMachine` drives."""

    def __init__(self, max_attempts: int = 3) -> None:
        self.max_attempts = max_attempts
        self.busy = {}       # worker -> its in-flight uids, running first
        self._jobs = {}      # job -> its units
        self.attempts = {}   # every live (not yet completed) uid
        self.pending = []

    def worker_names(self):
        return list(self.busy)

    def free_workers(self):
        return [w for w, uids in self.busy.items() if len(uids) < 2]

    def add_worker(self, name):
        self.busy[name] = []

    def remove_worker(self, name):
        """The running unit pays for the death; the ones behind it
        never ran and get their attempt back."""
        requeued, fatal = [], []
        for pos, uid in enumerate(self.busy.pop(name, [])):
            if uid not in self.attempts:
                continue
            if pos:
                self.attempts[uid] -= 1
            elif self.attempts[uid] >= self.max_attempts:
                fatal.append(uid)
                continue
            requeued.append(uid)
        for uid in reversed(requeued):
            self.pending = [uid] + [u for u in self.pending if u != uid]
        return requeued, fatal

    def add_job(self, job, units, skip):
        self._jobs[job] = units
        for idx in range(len(units)):
            if idx not in skip:
                self.attempts[(job, idx)] = 0
                self.pending.append((job, idx))

    def cancel_job(self, job):
        for idx in range(len(self._jobs.pop(job, []))):
            self.attempts.pop((job, idx), None)
        self.pending = [u for u in self.pending if u[0] != job]

    fail_job = cancel_job

    def next_unit_for(self, name):
        if len(self.busy[name]) >= 2 or not self.pending:
            return None
        job, idx = uid = self.pending.pop(0)
        self.busy[name].append(uid)
        self.attempts[uid] += 1
        return Assignment(job, idx, self._jobs[job][idx])

    def _release(self, name, uid):
        if uid in self.busy.get(name, []):
            self.busy[name].remove(uid)

    def complete(self, name, job, idx):
        self._release(name, (job, idx))
        if job not in self._jobs:
            return "unknown"
        if self.attempts.pop((job, idx), None) is None:
            return "duplicate"
        self.pending = [u for u in self.pending if u != (job, idx)]
        return "fresh"

    def fail(self, name, job, idx):
        self._release(name, (job, idx))
        if (job, idx) not in self.attempts:
            return "ignored"
        if self.attempts[(job, idx)] >= self.max_attempts:
            return "fatal"
        if (job, idx) not in self.pending:
            self.pending.append((job, idx))
        return "retry"


class TestMachineDeterminism:
    @pytest.mark.parametrize("seed", range(10))
    def test_fuzzed_log_matches_the_scanning_scheduler(self, seed):
        """The convergence test below compares the code with itself;
        this compares it with :class:`FifoModel`: the same result for
        every command (verdicts, requeues, the assignment sequence) and
        the same ``pending`` order, slots and attempt counts after every
        command. The log must fill both slots of some worker, or the
        second slot and its refund rule went untested."""
        log, _ref = _fuzz_log(seed)
        machine, model = SchedulerMachine(), SchedulerMachine()
        model.sched = FifoModel()
        most_in_flight = 0
        for cmd in log:
            assert machine.apply(cmd) == model.apply(cmd), cmd
            sched = machine.sched
            assert list(sched._pending) == model.sched.pending
            assert {n: w.busy for n, w in sched._workers.items()} \
                == model.sched.busy
            assert {u: st.attempts for u, st in sched._units.items()} \
                == model.sched.attempts
            most_in_flight = max([most_in_flight] + [
                len(w.busy) for w in sched._workers.values()])
        assert most_in_flight == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_fuzzed_log_converges_bit_identically(self, seed):
        log, ref = _fuzz_log(seed)
        machines = [SchedulerMachine() for _ in range(3)]
        results = [[m.apply(cmd) for cmd in log] for m in machines]
        # every replica computes the same per-command results...
        assert results[0] == results[1] == results[2]
        # ...and the same final state, compared as canonical JSON so
        # "identical" means bit-identical, not merely ==
        snaps = [json.dumps(m.snapshot(), sort_keys=True)
                 for m in machines + [ref]]
        assert len(set(snaps)) == 1

    def test_apply_is_total(self):
        """No command — however malformed — may raise out of apply:
        a replica must never crash out of the committed log."""
        m = SchedulerMachine()
        for cmd in [{}, {"op": None}, {"op": "worker_remove"},
                    {"op": "job_add", "job": "j", "units": "nope"},
                    {"op": "complete", "name": 3, "job": [], "idx": {}}]:
            out = m.apply(cmd)
            assert isinstance(out, dict) and "error" in out

    def test_memo_survives_reset(self):
        """The reset on leader change clears workers and jobs but not
        the memo — that is what makes fail-over cheap."""
        m = SchedulerMachine()
        m.apply({"op": "worker_add", "name": "w1"})
        m.apply({"op": "job_add", "job": "j1",
                 "units": [_wire_units()[0]], "skip": []})
        (a,) = m.apply({"op": "dispatch"})
        key = SweepUnit.from_wire(a["unit"]).key()
        m.apply({"op": "complete", "name": "w1", "job": "j1",
                 "idx": 0, "key": key, "value": 42})
        m.apply({"op": "reset"})
        snap = m.snapshot()
        assert snap["workers"] == {} and snap["jobs"] == {}
        assert m.memo == {key: 42}


# ----------------------------------------------------------------------
# consensus core rules
# ----------------------------------------------------------------------
class TestConsensusCore:
    def test_election_needs_majority_and_one_vote_per_term(self):
        a, b, c = (ConsensusCore(i, 3) for i in range(3))
        req = a.start_election()
        assert a.role == CANDIDATE and a.term == 1
        assert b.on_vote(req)["granted"]
        # b already voted for a this term: a rival is denied
        rival = dict(req, candidate=2)
        assert not b.on_vote(rival)["granted"]
        # a's own vote + b's grant = majority of 3
        assert a.on_vote_reply({"type": "replica-vote-reply",
                                "term": 1, "voter": 1, "granted": True})
        assert a.role == LEADER and a.leader_id == 0
        # c grants too, but the reply changes nothing
        assert not a.on_vote_reply(c.on_vote(req))
        assert a.role == LEADER

    def test_vote_denied_to_stale_log(self):
        voter = ConsensusCore(1, 3)
        voter.log.append(2, {"op": "dispatch"})  # term-2 entry
        stale = {"type": "replica-vote", "term": 3, "candidate": 0,
                 "last_index": 0, "last_term": 0}
        assert not voter.on_vote(stale)["granted"]
        fresh = {"type": "replica-vote", "term": 4, "candidate": 2,
                 "last_index": 1, "last_term": 2}
        assert voter.on_vote(fresh)["granted"]

    def test_higher_term_deposes_leader(self):
        a = ConsensusCore(0, 3)
        a.start_election()
        a.on_vote_reply({"type": "replica-vote-reply", "term": 1,
                         "voter": 1, "granted": True})
        assert a.role == LEADER
        a.on_vote({"type": "replica-vote", "term": 5, "candidate": 2,
                   "last_index": 0, "last_term": 0})
        assert a.role == FOLLOWER and a.term == 5

    def _elect(self, n=3):
        nodes = [ConsensusCore(i, n) for i in range(n)]
        req = nodes[0].start_election()
        for peer in nodes[1:]:
            nodes[0].on_vote_reply(peer.on_vote(req))
        assert nodes[0].role == LEADER
        return nodes

    def test_replication_commits_on_majority_exactly_once(self):
        leader, f1, f2 = self._elect()
        leader.append_command({"op": "worker_add", "name": "w1"})
        leader.append_command({"op": "dispatch"})
        assert leader.commit_index == 0  # nothing acked yet
        ack = f1.on_append(leader.append_for(1))
        assert ack["ok"] and ack["match"] == 2
        assert leader.on_append_ack(ack)  # majority (leader + f1)
        assert leader.commit_index == 2
        delivered = leader.take_committed()
        assert [c["op"] for _, c in delivered] == ["worker_add",
                                                   "dispatch"]
        assert leader.take_committed() == []  # exactly once
        # f2 catches up and learns the commit index from the append
        ack2 = f2.on_append(leader.append_for(2))
        assert ack2["ok"]
        assert f2.commit_index == 2
        assert len(f2.take_committed()) == 2

    def test_follower_truncates_conflicting_suffix(self):
        log = ReplicaLog()
        log.append(1, {"op": "a"})
        log.append(1, {"op": "b"})      # uncommitted, from a dead term
        log.splice(1, [(2, {"op": "c"}), (2, {"op": "d"})])
        assert log.entries == [(1, {"op": "a"}), (2, {"op": "c"}),
                               (2, {"op": "d"})]
        # idempotent redelivery of the same prefix changes nothing
        log.splice(1, [(2, {"op": "c"})])
        assert log.last_index() == 3

    def test_append_rejected_on_log_mismatch_then_backs_up(self):
        leader, f1, _ = self._elect()
        for i in range(3):
            leader.append_command({"op": "dispatch", "n": i})
        # follower is empty; an append claiming prev_index=2 must nack
        leader.next_index[1] = 3
        nack = f1.on_append(leader.append_for(1))
        assert not nack["ok"]
        assert leader.on_append_ack(nack) is False
        assert leader.next_index[1] < 3  # cursor backed up
        # after enough retries the logs converge
        for _ in range(5):
            ack = f1.on_append(leader.append_for(1))
            leader.on_append_ack(ack)
            if ack["ok"] and ack["match"] == 3:
                break
        assert f1.log.last_index() == 3
        assert leader.commit_index == 3

    def test_commit_restricted_to_current_term(self):
        """A new leader must not count majorities for entries of older
        terms until one of its own entries commits (the Raft figure-8
        rule)."""
        leader, f1, _ = self._elect()
        leader.append_command({"op": "dispatch"})
        # leadership changes hands: f1 wins term 2 with the entry
        ack = f1.on_append(leader.append_for(1))
        req = f1.start_election()
        f1.on_vote_reply(leader.on_vote(req))
        assert f1.role == LEADER and f1.term == 2
        # replicating the old-term entry alone does not commit it
        ack = leader.on_append(f1.append_for(0))
        assert ack["ok"]
        f1.on_append_ack(ack)
        assert f1.commit_index == 0
        # ...but a current-term entry on top commits both
        f1.append_command({"op": "reset"})
        ack = leader.on_append(f1.append_for(0))
        f1.on_append_ack(ack)
        assert f1.commit_index == 2

    def test_single_node_cluster_self_commits(self):
        solo = ConsensusCore(0, 1)
        solo.start_election()
        assert solo.on_vote_reply({"type": "replica-vote-reply",
                                   "term": 1, "voter": 0,
                                   "granted": True})
        solo.append_command({"op": "dispatch"})
        assert solo.commit_index == 1

    def test_peerless_core_retains_no_delivered_entries(self):
        """Entries exist for peers' catch-up: a core without peers
        drops what it delivered, and the indices keep counting."""
        solo = ConsensusCore(0, 1)
        solo.start_election()
        solo.on_vote_reply({"type": "replica-vote-reply", "term": 1,
                            "voter": 0, "granted": True})
        for n in range(1, 6):
            assert solo.append_command({"op": "dispatch", "n": n}) == n
            assert solo.take_committed() == [
                (n, {"op": "dispatch", "n": n})]
            assert solo.log.entries == []
            assert solo.log.last_index() == solo.commit_index == n
            assert solo.log.term_at(n) == 1
        assert solo.take_committed() == []
        # an undelivered tail is kept until it is delivered
        solo.append_command({"op": "reset"})
        assert len(solo.log.entries) == 1
        # the next election still advertises the true log position
        req = solo.start_election()
        assert (req["last_index"], req["last_term"]) == (6, 1)

    def test_log_offset_keeps_matching_and_splicing_exact(self):
        log = ReplicaLog()
        for n in range(1, 5):
            log.append(1, {"n": n})
        log.discard_through(2)
        assert (log.base, log.last_index(), len(log.entries)) == (2, 4, 2)
        assert log.term_at(2) == 1 and log.command_at(3) == {"n": 3}
        assert log.matches(2, 1) and log.matches(4, 1)
        assert not log.matches(1, 1)   # discarded: cannot vouch for it
        assert not log.matches(5, 1)
        assert log.slice_from(3, 64) == [(1, {"n": 3}), (1, {"n": 4})]
        log.splice(3, [(2, {"n": "x"}), (2, {"n": "y"})])  # conflict @4
        assert log.slice_from(3, 64) == [
            (1, {"n": 3}), (2, {"n": "x"}), (2, {"n": "y"})]
        assert log.last_index() == 5 and log.term_at(5) == 2

    def test_leader_with_peers_retains_log_for_empty_rejoiner(self):
        """Retention is unchanged when peers exist: a follower that
        rejoins with an empty log is caught up from index 1."""
        leader, f1, _ = self._elect()
        for n in range(5):
            leader.append_command({"op": "dispatch", "n": n})
            leader.on_append_ack(f1.on_append(leader.append_for(1)))
        assert leader.commit_index == 5
        assert len(leader.take_committed()) == 5
        assert leader.log.base == 0 and len(leader.log.entries) == 5
        reborn = ConsensusCore(2, 3)  # node 2 lost its (memory) log
        for _ in range(20):
            ack = reborn.on_append(leader.append_for(2))
            leader.on_append_ack(ack)
            if ack["ok"] and ack["match"] == 5:
                break
        assert reborn.log.entries == leader.log.entries
        assert [i for i, _ in reborn.take_committed()] == [1, 2, 3, 4, 5]


# ----------------------------------------------------------------------
# (term, vote) durability
# ----------------------------------------------------------------------
class TestConsensusPersistence:
    """A restarted replica must remember its term and its vote — an
    amnesiac voter can grant two candidates the same term and elect two
    leaders at once."""

    def test_restart_refuses_conflicting_same_term_vote(self, tmp_path):
        path = str(tmp_path / "replica1.state.json")
        candidate = ConsensusCore(0, 3)
        req = candidate.start_election()
        voter = ConsensusCore(1, 3, state_path=path)
        assert voter.on_vote(req)["granted"]
        # crash, restart from the same state file
        reborn = ConsensusCore(1, 3, state_path=path)
        assert reborn.term == 1
        assert reborn.voted_for == 0
        rival = dict(req, candidate=2)
        assert not reborn.on_vote(rival)["granted"]
        # re-granting the SAME candidate is safe (Raft's idempotent vote)
        assert reborn.on_vote(req)["granted"]
        # ...whereas without persistence the rival would have won the
        # second vote, splitting the term between two leaders
        amnesiac = ConsensusCore(1, 3)
        assert amnesiac.on_vote(req)["granted"]
        forgot = ConsensusCore(1, 3)
        assert forgot.on_vote(rival)["granted"]

    def test_candidate_persists_its_own_term_and_vote(self, tmp_path):
        path = str(tmp_path / "replica0.state.json")
        a = ConsensusCore(0, 3, state_path=path)
        a.start_election()
        reborn = ConsensusCore(0, 3, state_path=path)
        assert reborn.term == 1
        assert reborn.voted_for == 0  # cannot vote for a rival in term 1

    def test_persisted_blob_is_json_atomic_publish(self, tmp_path):
        path = tmp_path / "state.json"
        core = ConsensusCore(0, 3, state_path=str(path))
        core.start_election()
        blob = json.loads(path.read_text())
        assert blob == {"term": 1, "voted_for": 0}
        assert list(tmp_path.glob("*")) == [path]  # no temp droppings

    def test_corrupt_or_missing_state_starts_fresh(self, tmp_path):
        path = tmp_path / "state.json"
        fresh = ConsensusCore(0, 3, state_path=str(path))  # missing: fine
        assert fresh.term == 0 and fresh.voted_for is None
        path.write_text("{not json")
        core = ConsensusCore(0, 3, state_path=str(path))
        assert core.term == 0 and core.voted_for is None
        core.start_election()  # and the file heals on the next persist
        assert json.loads(path.read_text())["term"] == 1


# ----------------------------------------------------------------------
# three stepped managers, in-memory links, a float clock
# ----------------------------------------------------------------------
class TestSteppedCluster:
    """Open item 1's first schedule family: no socket, no sleep, no
    event loop — the consensus tier under a clock the test owns."""

    @pytest.fixture(autouse=True)
    def _no_sockets(self, monkeypatch):
        def refuse(*args, **kw):
            raise AssertionError("a stepped cluster opened a socket")
        monkeypatch.setattr(socket, "socket", refuse)

    @staticmethod
    def _schedule(seed: int, step_ms: int = 10):
        """One fixed fault schedule; returns everything observable."""
        fleet = SteppedFleet(seed, step_ms=step_ms)
        outcomes: list = []

        def commit(node, cmd):
            fleet.mgrs[node].commit(
                cmd, lambda result, error: outcomes.append(
                    (cmd["op"], result, error and str(error))))

        # 1. first election: replica 0's stagger wins it
        fleet.run(4.0)
        first = fleet.leader()
        assert fleet.leaders == [(fleet.mgrs[first].core.term, first)]

        # 2. a commit needs a majority ack: not done when commit
        # returns, done one delivery round later, on every machine
        # once the next heartbeat carried the commit index
        commit(first, {"op": "worker_add", "name": "w0"})
        assert outcomes == []
        fleet.step()
        assert outcomes == [("worker_add", "ok", None)]
        commit(first, {"op": "job_add", "job": "j1",
                       "units": _wire_units(), "skip": [0]})
        commit(first, {"op": "dispatch"})
        fleet.run(1.0)
        assert len(outcomes) == 3 and outcomes[2][1][0]["worker"] == "w0"
        assert len(set(fleet.snapshots())) == 1
        assert fleet.machines[0].applied == 3

        # 3. cut the leader off mid-commit: the others elect a
        # higher-term leader; the old one still thinks it leads, and
        # its pending commit has neither completed nor failed yet
        fleet.isolate(first)
        commit(first, {"op": "worker_add", "name": "lost"})
        fleet.run(4.0)
        rest = [i for i in range(3) if i != first]
        second = fleet.leader(among=rest)
        assert fleet.mgrs[second].core.term > fleet.mgrs[first].core.term
        assert fleet.mgrs[first].is_leader and len(outcomes) == 3

        # 4. heal: the new leader's heartbeat deposes the old one,
        # whose pending done fires — once, with the typed error —
        # and whose uncommitted entry is truncated away
        fleet.cut = set()
        commit(second, {"op": "worker_add", "name": "w1"})
        fleet.run(8.0)  # past COMMIT_TIMEOUT: still exactly once
        assert fleet.leader() == second
        assert [o[0] for o in outcomes] == [
            "worker_add", "job_add", "dispatch", "worker_add",
            "worker_add"]
        assert outcomes[3] == ("worker_add", None,
                               "leadership lost before commit")
        assert outcomes[4] == ("worker_add", "ok", None)
        assert len(set(fleet.snapshots())) == 1
        assert fleet.machines[first].sched.worker_names() == ["w0", "w1"]

        # every term had at most one leader
        terms = [term for term, _node in fleet.leaders]
        assert len(terms) == len(set(terms))
        return fleet.leaders, outcomes, fleet.snapshots()

    @pytest.mark.parametrize("seed", range(20))
    def test_three_replica_schedule_replays_from_its_seed(self, seed):
        assert self._schedule(seed) == self._schedule(seed)

    def test_on_apply_fires_in_log_order_when_a_continuation_commits(
            self):
        """A quorum of one applies a command its first ``done`` commits
        inside that ``done``; ``on_apply`` must still see log order (the
        nested command's fired first when the waiter ran before it)."""
        applied = []
        mgr = ClusterManager(
            ClusterConfig(node_id=0, addresses=["127.0.0.1:1"]),
            SchedulerMachine(), {}, seed=0,
            on_apply=lambda cmd, result: applied.append(cmd["name"]),
            on_role_change=lambda won: None)
        mgr.start(0.0)
        mgr.commit({"op": "worker_add", "name": "first"},
                   lambda result, error: mgr.commit(
                       {"op": "worker_add", "name": "second"},
                       lambda result, error: None))
        assert applied == ["first", "second"]
        assert mgr.machine.sched.worker_names() == applied

    def test_isolated_leader_commit_expires_at_the_deadline(self):
        """Never healed: the deposed-by-nobody leader's pending commit
        fails in ``tick`` at COMMIT_TIMEOUT, exactly once."""
        from repro.service.cluster import COMMIT_TIMEOUT
        fleet = SteppedFleet(seed=5)
        fleet.run(4.0)
        first = fleet.leader()
        fleet.isolate(first)
        errors: list = []
        fleet.mgrs[first].commit(
            {"op": "worker_add", "name": "lost"},
            lambda result, error: errors.append((fleet.now, error)))
        began = fleet.now
        fleet.run(COMMIT_TIMEOUT - 0.1)
        assert errors == []
        fleet.run(3.0)
        ((when, error),) = errors
        assert isinstance(error, ServiceError)
        assert "not committed within" in str(error)
        assert when - began == pytest.approx(COMMIT_TIMEOUT, abs=0.011)

    def test_history_does_not_depend_on_tick_cadence(self):
        """The election deadline is drawn when the timer is armed, not
        on every tick (the old ticker re-rolled the jitter each ≤ 50 ms
        wake, so the draw count — and every later draw — depended on
        how often it woke)."""
        for seed in range(5):
            fine, *_ = self._schedule(seed, step_ms=10)
            coarse, *_ = self._schedule(seed, step_ms=50)
            assert fine == coarse
        mgr = SteppedFleet(seed=3).mgrs[2]  # every link's wire unread
        due, rolls = mgr._election_due, mgr._rng.getstate()
        assert 1.8 * 1.5 <= due <= 2.0 * 1.5  # stagger + 20 % jitter
        for ms in range(10, int(due * 1000), 10):
            mgr.tick(ms / 1000)
        assert (mgr._election_due, mgr._rng.getstate()) == (due, rolls)
        assert mgr.core.term == 0
        mgr.tick(due)
        assert mgr.core.term == 1 and mgr.core.role == CANDIDATE
        assert mgr._election_due >= due + 1.8 * 1.5  # re-armed from now


# ----------------------------------------------------------------------
# live in-process cluster
# ----------------------------------------------------------------------
def _start_cluster(n=3, **coord_kw):
    addrs = [f"127.0.0.1:{p}" for p in pick_free_ports(n)]
    coords = []
    for i in range(n):
        host, port = addrs[i].rsplit(":", 1)
        c = Coordinator(host=host, port=int(port),
                        cluster=ClusterConfig(node_id=i,
                                              addresses=addrs),
                        **coord_kw)
        c.start()
        coords.append(c)
    return coords, addrs


def _wait_for_workers(address: str, count: int,
                      timeout: float = 30.0) -> None:
    deadline = time.monotonic() + timeout
    with ServiceClient(address, row_timeout=10.0) as client:
        while time.monotonic() < deadline:
            if client.status()["stats"]["workers"] >= count:
                return
            time.sleep(0.05)
    raise AssertionError(f"fleet never reached {count} workers")


def _dial(address: str, *frames) -> SyncTransport:
    """Raw peer with ``frames`` already written."""
    peer = SyncTransport.open(address, 10)
    for frame in frames:
        peer.send(frame, timeout=10)
    return peer


def _assert_stranger_cannot_depose(coord: Coordinator) -> None:
    """A ``replica-hello`` from a node outside the membership gets the
    typed error frame before any consensus frame is handled: its
    term-99 vote request must not touch the leader."""
    core = coord.sessions.mgr.core
    before = (core.term, core.role, sorted(coord.sessions.workers))
    assert before[1] == LEADER and before[2]
    peer = _dial(coord.address,
                 {"type": "replica-hello", "node": 7,
                  "protocol": PROTOCOL_VERSION},
                 {"type": "replica-vote", "term": 99, "candidate": 7,
                  "last_index": 10 ** 6, "last_term": 99})
    try:
        reply = peer.recv(timeout=10)
    finally:
        peer.close()
    assert reply["type"] == "error"
    assert "not a member" in reply["error"]
    with ServiceClient(coord.address) as client:  # still serving
        status = client.status()
    assert status["cluster"]["term"] == before[0]
    assert (core.term, core.role, sorted(coord.sessions.workers)) == before
    assert sorted(w["name"] for w in status["workers"]) == before[2]


class TestQuorumOfOne:
    """``Coordinator()`` is a one-member quorum on the same commit
    path as any replica — with none of a quorum's waiting."""

    def test_first_hello_is_welcomed_by_the_term_1_leader(self):
        coord = Coordinator()
        address = coord.start()
        try:
            peer = _dial(address, {"type": "hello", "role": "client",
                                   "protocol": PROTOCOL_VERSION})
            try:
                assert peer.recv(timeout=10)["type"] == "welcome"
                peer.send({"type": "status"})
                cluster = peer.recv(timeout=10)["cluster"]
            finally:
                peer.close()
            assert cluster["role"] == "leader"
            assert cluster["term"] == 1
            assert cluster["leader"] == address
            assert cluster["peers_connected"] == 0
        finally:
            coord.stop()

    def test_commit_never_suspends_without_peers(self):
        """The leader alone is the majority: ``done`` fires before
        ``commit`` returns, so a ``result`` frame's ``row`` is on the
        client's connection when ``Sessions.frame`` returns — nothing
        can interleave between a result arriving and its row leaving."""
        machine = SchedulerMachine()
        mgr = ClusterManager(
            ClusterConfig(node_id=0, addresses=["127.0.0.1:1"]),
            machine, {}, seed=0, on_apply=lambda cmd, result: None,
            on_role_change=lambda won: None)
        mgr.start(0.0)  # no election wait either
        assert mgr.is_leader and mgr.core.term == 1
        outcomes = []
        mgr.commit({"op": "worker_add", "name": "w0"},
                   lambda result, error: outcomes.append((result, error)))
        assert outcomes == [("ok", None)]
        assert machine.sched.worker_names() == ["w0"]
        mgr.tick(10 ** 6)  # nothing pending, nothing to expire
        assert outcomes == [("ok", None)]

        sessions = SteppedFleet(0, n=1, sessions=True).nodes[0]
        worker, client = FakeConn(), FakeConn()
        assert sessions.hello(worker, {"type": "hello", "role": "worker",
                                       "protocol": PROTOCOL_VERSION,
                                       "name": "w1"}, 0.0)
        assert sessions.hello(client, {"type": "hello", "role": "client",
                                       "protocol": PROTOCOL_VERSION}, 0.0)
        sessions.frame(client, {"type": "submit",
                                "units": _wire_units()[:1]}, 0.0)
        ((job, idx),) = [(m["job"], m["idx"]) for m in worker.sent
                         if m["type"] == "assign"]
        sessions.frame(worker, {"type": "result", "job": job, "idx": idx,
                                "value": 7}, 0.0)
        assert [m["type"] for m in client.sent] == [
            "welcome", "accepted", "row", "done"]
        assert client.sent[2]["value"] == 7

    def test_log_is_not_retained_but_keeps_counting(self):
        coord = Coordinator()
        address = coord.start()
        worker = Worker(address, name="w0", heartbeat_interval=0.5)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            _wait_for_workers(address, 1)
            with ServiceClient(address) as client:
                for seed in (1, 2, 3):
                    units = [unit(seed=seed), unit(seed=seed,
                                                   metric="mpki")]
                    assert client.run_units(units) == [
                        u.run() for u in units]
                cluster = client.status()["cluster"]
            core = coord.sessions.mgr.core
            assert core.log.entries == []
            assert cluster["log"] == cluster["commit"] \
                == coord.sessions.machine.applied >= 3 * 4
        finally:
            coord.stop()
            worker.stop()
            thread.join(timeout=10)

    def test_stop_still_dismisses_the_workers(self):
        """No committed ``shutdown`` needed: the last replica of a
        quorum stopping *is* the fleet stopping."""
        coord = Coordinator()
        address = coord.start()
        peer = _dial(address, {"type": "hello", "role": "worker",
                               "protocol": PROTOCOL_VERSION,
                               "name": "raw", "pid": 1})
        try:
            assert peer.recv(timeout=10)["type"] == "welcome"
            coord.stop()
            assert peer.recv(timeout=10) == {"type": "shutdown"}
        finally:
            peer.close()
            coord.stop()

    def test_client_shutdown_skips_the_follower_grace(self):
        """The 0.3 s pause lets a commit-index broadcast reach the
        followers; without followers nothing is scheduled later."""
        coord = Coordinator()
        address = coord.start()
        loop = coord._loop
        graces = []
        real_call_later = loop.call_later

        def spy(delay, callback, *args, **kw):
            if callback == coord._request_shutdown:
                graces.append(delay)
            return real_call_later(delay, callback, *args, **kw)

        loop.call_later = spy
        with ServiceClient(address) as client:
            client.shutdown()
        assert coord.wait(timeout=10)
        assert graces == []

    def test_stranger_replica_cannot_depose_a_fresh_coordinator(self):
        coord = Coordinator()
        address = coord.start()
        worker = Worker(address, name="w0", heartbeat_interval=0.5)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            _wait_for_workers(address, 1)
            _assert_stranger_cannot_depose(coord)
        finally:
            coord.stop()
            worker.stop()
            thread.join(timeout=10)


class TestReplicatedCluster:
    def test_rows_bit_identical_and_leader_death_is_a_non_event(self):
        """The tentpole, in one in-process campaign: a 3-replica
        cluster serves rows bit-identical to serial; the leader dying
        between submit and first row is survived transparently (no
        JobFailed); the resubmitted work is memo-served; the worker
        re-signs-in to the new leader."""
        coords, addrs = _start_cluster(3)
        addr_list = ",".join(addrs)
        worker = Worker(addr_list, name="w0", heartbeat_interval=0.5,
                        failover_timeout=60.0)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            _wait_for_workers(addr_list, 1)
            # phase 1: plain equivalence through the quorum
            warm = [unit(seed=1), unit(seed=2)]
            with ServiceClient(addr_list) as client:
                values = client.run_units(warm)
                assert values == [u.run() for u in warm]
                leader = client.leader_address
            assert leader in addrs

            # phase 2: kill the leader between submit and first row
            # (long unit first: nothing completes in the kill window)
            units = [unit(seed=9, scale=0.2), unit(seed=3)]
            got_rows = []
            result: list = []
            errors: list = []

            def submit():
                try:
                    with ServiceClient(addr_list,
                                       connect_timeout=60.0) as c:
                        result.extend(c.run_units(
                            units, on_row=lambda i, v:
                            got_rows.append(i)))
                        result.append(c.last_job_stats)
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            runner = threading.Thread(target=submit)
            runner.start()
            time.sleep(0.5)  # submit landed; long unit simulating
            assert not got_rows, "kill window missed the submit gap"
            for c in coords:
                if c.address == leader:
                    c.stop()
            runner.join(timeout=120)
            assert not runner.is_alive()
            assert not errors, errors
            stats = result.pop()
            assert result == [u.run() for u in units]
            assert sorted(got_rows) == [0, 1]

            # phase 3: resubmit is memo-served, zero re-simulation
            with ServiceClient(addr_list, connect_timeout=60.0) as c:
                again = c.run_units(units)
                assert again == result
                assert c.last_job_stats["from_cache"] == len(units)
                assert c.leader_address != leader
            # the worker re-signed-in at least once after the kill
            assert worker.signins >= 2, stats
        finally:
            for c in coords:
                c.stop()
            worker.stop()
            thread.join(timeout=10)

    def test_followers_redirect_and_status_names_the_leader(self):
        coords, addrs = _start_cluster(3)
        try:
            with ServiceClient(",".join(addrs)) as client:
                status = client.status()
                cluster = status["cluster"]
                assert cluster["role"] == "leader"
                assert cluster["leader"] == client.leader_address
                assert status["pid"] > 0
                # every coordinator agrees who leads
                deadline = time.monotonic() + 10.0
                while time.monotonic() < deadline:
                    leaders = {c.sessions.mgr.leader_address
                               for c in coords}
                    if leaders == {client.leader_address}:
                        break
                    time.sleep(0.05)
                assert leaders == {client.leader_address}
        finally:
            for c in coords:
                c.stop()

    def test_solo_address_client_keeps_typed_failure(self):
        """Fail-over is opt-in by address count: a single-address
        client still gets the PR-6 JobFailed contract (pinned by
        test_service_chaos.TestCoordinatorDeath too)."""
        coords, addrs = _start_cluster(1)
        worker = Worker(addrs[0], name="w0", heartbeat_interval=0.5)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            with ServiceClient(addrs[0]) as client:
                assert client.failover is False
                _wait_for_workers(addrs[0], 1)
                units = [unit(seed=1), unit(seed=2, metric="mpki")]
                assert client.run_units(units) == [u.run() for u in units]
        finally:
            for c in coords:
                c.stop()
            worker.stop()
            thread.join(timeout=10)

    def test_stranger_replica_cannot_depose_a_live_leader(self):
        coords, addrs = _start_cluster(3)
        addr_list = ",".join(addrs)
        worker = Worker(addr_list, name="w0", heartbeat_interval=0.5)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            _wait_for_workers(addr_list, 1)
            with ServiceClient(addr_list) as client:
                leader = client.leader_address
            _assert_stranger_cannot_depose(
                next(c for c in coords if c.address == leader))
        finally:
            for c in coords:
                c.stop()
            worker.stop()
            thread.join(timeout=10)

    def test_cluster_shutdown_rides_the_log(self):
        """One client shutdown stops every replica, not just the
        leader it reached."""
        coords, addrs = _start_cluster(3)
        with ServiceClient(",".join(addrs)) as client:
            client.shutdown()
        for c in coords:
            assert c.wait(timeout=15.0), \
                f"replica {c.address} did not stop"

    def test_cluster_config_validates_node_id(self):
        with pytest.raises(ServiceError):
            ClusterConfig(node_id=3, addresses=["a:1", "b:2"])
        with pytest.raises(ServiceError):
            ClusterConfig(node_id=-1, addresses=["a:1"])
