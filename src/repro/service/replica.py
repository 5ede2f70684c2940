"""Replicated scheduler state machine: consensus core + command apply.

This module is the *pure* half of coordinator replication — no
sockets, no clocks, no tasks — mirroring the split that made the
scheduler replicable in the first place:

* :class:`SchedulerMachine` wraps one
  :class:`~repro.service.scheduler.Scheduler` plus the result memo and
  applies JSON *commands* to it deterministically. Every replica
  applies the same committed command log to its own machine, and
  because the scheduler is a pure state machine over ordered dicts and
  deques, N replicas fed the same log converge **bit-identically**
  (pinned by the fuzzed-log determinism property test). ``apply`` is
  total: malformed or stale commands return error markers instead of
  raising, so a replica can never crash out of the log.
* :class:`ReplicaLog` is the consensus log: ``(term, command)``
  entries with the Raft log-matching check and conflict truncation.
* :class:`ConsensusCore` is a Raft-style consensus core as pure
  message handlers — feed it ``replica-vote``/``replica-append``
  frames, get reply frames and committed entries back. Leader lease
  timing (election timeouts, heartbeat cadence) lives in
  :mod:`repro.service.cluster`, which drives this core from the
  coordinator's event loop.

Safety model: terms are monotonic, a node votes once per term, votes
are only granted to candidates whose log is at least as up to date,
and a leader only counts an entry committed once a majority holds it
and it belongs to the current term. The *(term, vote)* pair is
persisted (atomic mkstemp+rename publish, loaded on construction) when
a ``state_path`` is configured: without it, a replica killed after
granting a vote could restart within the same term and vote for a
*different* candidate, electing two leaders for one term. The **log**
is deliberately not persisted — a killed replica rejoins with an empty
log (the vote rule's log-recency check still holds: an empty log never
out-votes a longer one) and is caught up from the leader. That trades
the ability to survive a full-cluster power loss — which the result
cache directory already covers — for minimal recovery machinery. The
deeper reason the service can afford such a small consensus kernel is
that the *simulation* is deterministic and completion is idempotent:
losing replicated state can cost re-simulation, never wrong rows.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.harness.units import SweepUnit
from repro.service.scheduler import DEFAULT_MAX_ATTEMPTS, Scheduler

__all__ = ["SchedulerMachine", "ReplicaLog", "ConsensusCore",
           "FOLLOWER", "CANDIDATE", "LEADER"]

FOLLOWER = "follower"
CANDIDATE = "candidate"
LEADER = "leader"


# ----------------------------------------------------------------------
# deterministic command application
# ----------------------------------------------------------------------
class SchedulerMachine:
    """One replica's replicated state: a pure scheduler + result memo.

    Commands are JSON objects ``{"op": ..., ...}``; :meth:`apply`
    returns a JSON-safe result (the leader uses it to answer the peer
    that caused the command; followers discard it — but it is
    deterministic, so every replica computes the same one).
    """

    def __init__(self, max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> None:
        self.sched = Scheduler(max_attempts)
        self.memo: Dict[str, Any] = {}  # unit key -> wire value
        self.applied = 0                # commands applied so far

    # -- command handlers ---------------------------------------------
    def apply(self, cmd: Dict[str, Any]) -> Any:
        self.applied += 1
        op = cmd.get("op")
        handler = _APPLIERS.get(op)
        if handler is None:
            return {"error": f"unknown op {op!r}"}
        try:
            return handler(self, cmd)
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            # a malformed command is applied as a deterministic no-op
            # marker on every replica — never a crash on one of them
            return {"error": f"{type(exc).__name__}: {exc}"}

    def _op_worker_add(self, cmd: Dict[str, Any]) -> Any:
        name = cmd["name"]
        if name in self.sched.worker_names():
            return {"error": "duplicate"}
        self.sched.add_worker(name)
        return "ok"

    def _op_worker_remove(self, cmd: Dict[str, Any]) -> Any:
        requeued, fatal = self.sched.remove_worker(cmd["name"])
        return {"requeued": [list(u) for u in requeued],
                "fatal": [list(u) for u in fatal]}

    def _op_job_add(self, cmd: Dict[str, Any]) -> Any:
        job_id = cmd["job"]
        if job_id in self.sched._jobs:
            return {"error": "duplicate"}
        units = [SweepUnit.from_wire(w) for w in cmd["units"]]
        self.sched.add_job(job_id, units, skip=set(cmd.get("skip", [])))
        return "ok"

    def _op_job_cancel(self, cmd: Dict[str, Any]) -> Any:
        self.sched.cancel_job(cmd["job"])
        return "ok"

    def _op_job_fail(self, cmd: Dict[str, Any]) -> Any:
        self.sched.fail_job(cmd["job"])
        return "ok"

    def _op_dispatch(self, cmd: Dict[str, Any]) -> Any:
        """Fill free worker slots from the queue — the whole loop as
        one logged command, so every replica agrees on who runs what.
        Each pass gives every free worker one unit (breadth first)."""
        out: List[Dict[str, Any]] = []
        while True:
            assigned = False
            for name in self.sched.free_workers():
                a = self.sched.next_unit_for(name)
                if a is None:
                    continue
                out.append({"worker": name, "job": a.job_id,
                            "idx": a.idx, "unit": a.unit.to_wire()})
                assigned = True
            if not assigned:
                return out

    def _op_complete(self, cmd: Dict[str, Any]) -> Any:
        verdict = self.sched.complete(cmd["name"], cmd["job"],
                                      cmd["idx"])
        if verdict == "fresh" and cmd.get("key") is not None:
            self.memo[cmd["key"]] = cmd["value"]
        return verdict

    def _op_unit_fail(self, cmd: Dict[str, Any]) -> Any:
        return self.sched.fail(cmd["name"], cmd["job"], cmd["idx"])

    def _op_reset(self, cmd: Dict[str, Any]) -> Any:
        """Leadership changed: every worker must re-sign-in and every
        client must resubmit (the memo survives, so finished units are
        served back without re-simulation)."""
        for name in list(self.sched.worker_names()):
            self.sched.remove_worker(name)
        for job_id in list(self.sched._jobs):
            self.sched.cancel_job(job_id)
        return "ok"

    def _op_shutdown(self, cmd: Dict[str, Any]) -> Any:
        """Marker only — the cluster layer reacts to its commit; the
        machine itself has nothing to tear down."""
        return "ok"

    # -- canonical snapshot (the convergence witness) ------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-canonical view of the whole replicated state. Two
        machines that applied the same command log must return equal
        snapshots — the determinism property test asserts exactly
        that, and ``status`` surfaces its hashable summary."""
        s = self.sched
        return {
            "workers": {
                name: {"busy": [list(u) for u in w.busy],
                       "completed": w.completed}
                for name, w in s._workers.items()},
            "jobs": {
                job_id: {"done": sorted(j.done), "failed": j.failed,
                         "units": len(j.units)}
                for job_id, j in s._jobs.items()},
            "pending": [list(u) for u in s._pending],
            "attempts": {f"{j}#{i}": st.attempts
                         for (j, i), st in s._units.items()},
            "requeues": s.requeues,
            "duplicates": s.duplicates,
            "memo": dict(self.memo),
            "applied": self.applied,
        }


_APPLIERS = {
    "worker_add": SchedulerMachine._op_worker_add,
    "worker_remove": SchedulerMachine._op_worker_remove,
    "job_add": SchedulerMachine._op_job_add,
    "job_cancel": SchedulerMachine._op_job_cancel,
    "job_fail": SchedulerMachine._op_job_fail,
    "dispatch": SchedulerMachine._op_dispatch,
    "complete": SchedulerMachine._op_complete,
    "unit_fail": SchedulerMachine._op_unit_fail,
    "reset": SchedulerMachine._op_reset,
    "shutdown": SchedulerMachine._op_shutdown,
}


# ----------------------------------------------------------------------
# consensus log
# ----------------------------------------------------------------------
class ReplicaLog:
    """The ordered ``(term, command)`` log. Indices are 1-based (0 is
    the empty sentinel), matching the Raft convention so the matching
    rule reads like the paper's. Entries exist for peers' catch-up: a
    core without peers discards what it delivered, and ``base`` (the
    dropped prefix) keeps the indices counting."""

    def __init__(self) -> None:
        self.entries: List[Tuple[int, Dict[str, Any]]] = []
        self.base = 0        # entries dropped from the front
        self.base_term = 0   # term of entry ``base`` (0: the sentinel)

    def last_index(self) -> int:
        return self.base + len(self.entries)

    def term_at(self, index: int) -> int:
        if index == self.base:
            return self.base_term
        return self.entries[index - self.base - 1][0]

    def command_at(self, index: int) -> Dict[str, Any]:
        return self.entries[index - self.base - 1][1]

    def append(self, term: int, cmd: Dict[str, Any]) -> int:
        self.entries.append((term, cmd))
        return self.last_index()

    def matches(self, prev_index: int, prev_term: int) -> bool:
        """Log-matching check: do we hold ``prev_index`` with
        ``prev_term``? (index 0 always matches — the empty prefix)."""
        return (self.base <= prev_index <= self.last_index()
                and self.term_at(prev_index) == prev_term)

    def splice(self, prev_index: int,
               entries: List[Tuple[int, Dict[str, Any]]]) -> None:
        """Install ``entries`` after ``prev_index``, truncating any
        conflicting suffix (same index, different term). Idempotent
        for re-delivered prefixes."""
        for offset, (term, cmd) in enumerate(entries):
            index = prev_index + 1 + offset
            if index <= self.last_index():
                if self.term_at(index) == term:
                    continue  # already have it
                del self.entries[index - self.base - 1:]  # conflict
            self.entries.append((term, cmd))

    def slice_from(self, index: int, limit: int
                   ) -> List[Tuple[int, Dict[str, Any]]]:
        """Entries starting at 1-based ``index`` (at most ``limit``)."""
        start = index - self.base - 1
        return self.entries[start:start + limit]

    def discard_through(self, index: int) -> None:
        """Forget the entries up to ``index``; indices are unchanged."""
        self.base_term = self.term_at(index)
        del self.entries[:index - self.base]
        self.base = index


# ----------------------------------------------------------------------
# consensus core (pure message handlers)
# ----------------------------------------------------------------------

#: per-append entry batch bound — keeps any single ``replica-append``
#: frame far below MAX_FRAME even when entries carry full RunResult
#: values, while still catching a rejoined-empty replica up quickly
APPEND_BATCH = 64


class ConsensusCore:
    """Raft-style consensus state for one replica, as pure handlers.

    The cluster driver feeds wire messages in and sends the returned
    reply frames out; committed entries are surfaced through
    :meth:`take_committed` for the driver to apply to its
    :class:`SchedulerMachine`. Nothing here touches a socket or a
    clock, which is what makes the election/replication rules unit
    testable with plain dicts.
    """

    def __init__(self, node_id: int, n_nodes: int,
                 state_path: Optional[str] = None) -> None:
        self.node_id = node_id
        self.n_nodes = n_nodes
        self.term = 0
        self.voted_for: Optional[int] = None
        self.role = FOLLOWER
        self.leader_id: Optional[int] = None
        self.log = ReplicaLog()
        self.commit_index = 0
        self.delivered = 0            # entries handed to take_committed
        self._votes: set = set()
        # leader-only replication cursors, rebuilt on every election
        self.next_index: Dict[int, int] = {}
        self.match_index: Dict[int, int] = {}
        self.state_path = state_path
        self._load_state()

    # -- (term, vote) durability ---------------------------------------
    def _load_state(self) -> None:
        if self.state_path is None:
            return
        try:
            with open(self.state_path) as f:
                blob = json.load(f)
            term = int(blob["term"])
            voted = blob["voted_for"]
        except (OSError, ValueError, KeyError, TypeError):
            # no file yet / corrupt or torn leftovers: start fresh —
            # a node that lost its state is at worst a brand-new voter
            return
        self.term = term
        self.voted_for = None if voted is None else int(voted)

    def _persist_state(self) -> None:
        """Publish (term, voted_for) atomically *before* any reply that
        depends on them leaves this node — the Raft durability point
        that keeps a restarted replica from double-voting in a term."""
        if self.state_path is None:
            return
        from repro.sim.snapshot import save_file
        blob = json.dumps({"term": self.term,
                           "voted_for": self.voted_for}).encode()
        os.makedirs(os.path.dirname(self.state_path) or ".", exist_ok=True)
        save_file(self.state_path, blob)

    @property
    def majority(self) -> int:
        return self.n_nodes // 2 + 1

    def peers(self) -> List[int]:
        return [i for i in range(self.n_nodes) if i != self.node_id]

    # -- term discipline ----------------------------------------------
    def _observe_term(self, term: int) -> None:
        """Any message from a higher term deposes candidates/leaders."""
        if term > self.term:
            self.term = term
            self.voted_for = None
            self.role = FOLLOWER
            self.leader_id = None
            self._votes.clear()
            self._persist_state()

    # -- elections -----------------------------------------------------
    def start_election(self) -> Dict[str, Any]:
        """Become a candidate; returns the vote request to broadcast."""
        self.term += 1
        self.role = CANDIDATE
        self.leader_id = None
        self.voted_for = self.node_id
        self._votes = {self.node_id}
        self._persist_state()
        return {"type": "replica-vote", "term": self.term,
                "candidate": self.node_id,
                "last_index": self.log.last_index(),
                "last_term": self.log.term_at(self.log.last_index())}

    def on_vote(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """Handle a vote request; returns the reply frame."""
        self._observe_term(msg["term"])
        up_to_date = (
            (msg["last_term"], msg["last_index"]) >=
            (self.log.term_at(self.log.last_index()),
             self.log.last_index()))
        granted = (msg["term"] == self.term and up_to_date and
                   self.voted_for in (None, msg["candidate"]))
        if granted:
            self.voted_for = msg["candidate"]
            self._persist_state()
        return {"type": "replica-vote-reply", "term": self.term,
                "voter": self.node_id, "granted": granted}

    def on_vote_reply(self, msg: Dict[str, Any]) -> bool:
        """Count a vote; returns True the moment this node wins."""
        self._observe_term(msg["term"])
        if (self.role != CANDIDATE or msg["term"] != self.term
                or not msg["granted"]):
            return False
        self._votes.add(msg["voter"])
        if len(self._votes) >= self.majority:
            self.role = LEADER
            self.leader_id = self.node_id
            last = self.log.last_index()
            self.next_index = {p: last + 1 for p in self.peers()}
            self.match_index = {p: 0 for p in self.peers()}
            return True
        return False

    def step_down(self) -> None:
        """A leader that lost its quorum: the term and vote stand."""
        self.role = FOLLOWER
        self.leader_id = None

    # -- leader side: appending & committing ---------------------------
    def append_command(self, cmd: Dict[str, Any]) -> int:
        """Leader-only: put a command in the log; returns its index."""
        assert self.role == LEADER
        index = self.log.append(self.term, cmd)
        self.advance_commit()  # a quorum of one commits here and now
        return index

    def append_for(self, peer: int) -> Dict[str, Any]:
        """Build the next ``replica-append`` for ``peer`` (entries
        from its cursor; a bare heartbeat when it is caught up)."""
        assert self.role == LEADER
        nxt = self.next_index[peer]
        prev = nxt - 1
        entries = self.log.slice_from(nxt, APPEND_BATCH)
        return {"type": "replica-append", "term": self.term,
                "leader": self.node_id, "prev_index": prev,
                "prev_term": self.log.term_at(prev),
                "entries": [[t, c] for t, c in entries],
                "commit": self.commit_index}

    def on_append_ack(self, msg: Dict[str, Any]) -> bool:
        """Update a follower's cursor; returns True when the commit
        index advanced (caller should apply + broadcast)."""
        self._observe_term(msg["term"])
        if self.role != LEADER or msg["term"] != self.term:
            return False
        peer = msg["follower"]
        if msg["ok"]:
            self.match_index[peer] = max(self.match_index.get(peer, 0),
                                         msg["match"])
            self.next_index[peer] = self.match_index[peer] + 1
            return self.advance_commit()
        # log mismatch: back the cursor up and retry from earlier
        self.next_index[peer] = max(1, self.next_index[peer] - 1,
                                    msg.get("match", 0) + 1)
        return False

    def advance_commit(self) -> bool:
        """Commit every index a majority holds, current term only."""
        advanced = False
        for index in range(self.commit_index + 1,
                           self.log.last_index() + 1):
            holders = 1 + sum(1 for p in self.peers()
                              if self.match_index.get(p, 0) >= index)
            if holders >= self.majority and \
                    self.log.term_at(index) == self.term:
                self.commit_index = index
                advanced = True
        return advanced

    # -- follower side -------------------------------------------------
    def on_append(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        """Handle a leader append; returns the ack frame."""
        self._observe_term(msg["term"])
        if msg["term"] < self.term:
            return {"type": "replica-append-ack", "term": self.term,
                    "follower": self.node_id, "ok": False, "match": 0}
        self.role = FOLLOWER
        self.leader_id = msg["leader"]
        if not self.log.matches(msg["prev_index"], msg["prev_term"]):
            return {"type": "replica-append-ack", "term": self.term,
                    "follower": self.node_id, "ok": False,
                    "match": self.commit_index}
        entries = [(t, c) for t, c in msg["entries"]]
        self.log.splice(msg["prev_index"], entries)
        match = msg["prev_index"] + len(entries)
        self.commit_index = max(self.commit_index,
                                min(msg["commit"], match))
        return {"type": "replica-append-ack", "term": self.term,
                "follower": self.node_id, "ok": True, "match": match}

    # -- applying ------------------------------------------------------
    def take_committed(self) -> List[Tuple[int, Dict[str, Any]]]:
        """Committed-but-undelivered entries as ``(index, command)``;
        each is returned exactly once, in log order."""
        out = []
        while self.delivered < self.commit_index:
            self.delivered += 1
            out.append((self.delivered,
                        self.log.command_at(self.delivered)))
        if not self.peers():  # nobody to catch up: retain nothing
            self.log.discard_through(self.delivered)
        return out
