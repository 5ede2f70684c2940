"""Value-level memory oracle for the protocol stress harness.

The simulator is timing-directed: no data bytes flow through it. The
oracle retrofits *shadow values* — whole-line version tokens — so that
data correctness becomes checkable:

* every committed store is assigned a fresh, globally increasing
  version number, written to the committing L1's copy
  (``CacheLine.shadow``) and recorded as the line's architectural
  value;
* every data-bearing protocol message carries the shadow of the line it
  moves (``Msg.value``), and every merge point in the controllers takes
  the per-address ``max`` (versions of one address are totally ordered
  by commit time);
* every committed load reads the shadow of the L1 copy it hit and must
  observe exactly the architectural value — anything else means the
  protocol let a core read stale data (missed invalidation, stale M
  copy, lost writeback, reordered data response).

The oracle attaches to a system through ``SystemContext.shadow``; when
it is ``None`` (the default) the only cost in the simulator is one
attribute test per L1 access.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class ShadowViolation:
    """One load that observed something other than the latest store."""

    cycle: int
    tile: int
    line_addr: int
    expected: int            # version of the last committed store
    observed: int            # version the load actually returned
    last_writer: Optional[Tuple[int, int]]  # (tile, cycle) of expected

    def __str__(self) -> str:
        who = (f"tile {self.last_writer[0]} @cycle {self.last_writer[1]}"
               if self.last_writer else "<initial memory>")
        return (f"cycle {self.cycle}: load at tile {self.tile} of line "
                f"{self.line_addr:#x} observed v{self.observed}, expected "
                f"v{self.expected} (written by {who})")


class ShadowOracle:
    """Tracks architectural memory values and checks load commits.

    Violations are collected, not raised: a fuzz run finishes its trace
    (deterministically) and the harness inspects :attr:`violations`
    afterwards, which keeps failure reproduction and shrinking simple.
    Collection stops after ``max_violations`` so a badly broken protocol
    cannot flood memory.
    """

    def __init__(self, max_violations: int = 64) -> None:
        self.committed: Dict[int, int] = {}         # line -> version
        self.store_counts: Dict[int, int] = {}      # line -> #stores
        self.last_writer: Dict[int, Tuple[int, int]] = {}
        self.violations: List[ShadowViolation] = []
        self.max_violations = max_violations
        self.loads_checked = 0
        self.stores_committed = 0
        #: squashed speculative reads observed (never value-checked:
        #: a wrong-path load may legitimately see any version)
        self.transient_reads = 0
        #: of those, reads that did *not* observe the architecturally
        #: latest value — the transient-state signal, not a violation
        self.transient_stale = 0
        self._next_version = 1

    # ------------------------------------------------------------------
    def bind(self, l1, line_addr: int, is_write: bool,
             done: Callable[[], None]) -> Callable[[], None]:
        """Wrap an L1 access completion callback with the commit hook.

        Called by :meth:`L1Controller.access` when an oracle is
        attached; the wrapped callback commits the access against the
        oracle at the exact cycle the core sees it complete."""
        return partial(self._commit_then, l1, line_addr, is_write, done)

    def _commit_then(self, l1, line_addr: int, is_write: bool,
                     done: Callable[[], None]) -> None:
        self.commit(l1, line_addr, is_write)
        done()

    def bind_transient(self, l1, line_addr: int,
                       done: Callable[[], None]) -> Callable[[], None]:
        """Wrap a *speculative* load's completion callback.

        Transient accesses are tagged, never checked: they must not
        contribute to ``loads_checked``/``violations`` (a squashed load
        is architecturally invisible), but they are counted so the
        harness can see how much wrong-path traffic a run generated and
        whether any of it observed non-architectural state."""
        return partial(self._squash_then, l1, line_addr, done)

    def _squash_then(self, l1, line_addr: int,
                     done: Callable[[], None]) -> None:
        self.transient_reads += 1
        line = l1.array.lookup(line_addr, touch=False)
        observed = line.shadow if line is not None else -1
        if observed != self.committed.get(line_addr, 0):
            self.transient_stale += 1
        done()

    def commit(self, l1, line_addr: int, is_write: bool) -> None:
        line = l1.array.lookup(line_addr, touch=False)
        cycle = l1.ctx.sim.cycle
        if is_write:
            self.stores_committed += 1
            version = self._next_version
            self._next_version += 1
            self.committed[line_addr] = version
            self.store_counts[line_addr] = \
                self.store_counts.get(line_addr, 0) + 1
            self.last_writer[line_addr] = (l1.tile, cycle)
            if line is not None:
                line.shadow = version
            else:
                self._violate(cycle, l1.tile, line_addr,
                              expected=version, observed=-1)
            return
        self.loads_checked += 1
        expected = self.committed.get(line_addr, 0)
        observed = line.shadow if line is not None else -1
        if observed != expected:
            self._violate(cycle, l1.tile, line_addr, expected, observed)

    def _violate(self, cycle: int, tile: int, line_addr: int,
                 expected: int, observed: int) -> None:
        if len(self.violations) >= self.max_violations:
            return
        self.violations.append(ShadowViolation(
            cycle=cycle, tile=tile, line_addr=line_addr,
            expected=expected, observed=observed,
            last_writer=self.last_writer.get(line_addr)))

    # ------------------------------------------------------------------
    @property
    def clean(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        return (f"oracle: {self.stores_committed} stores, "
                f"{self.loads_checked} loads checked, "
                f"{len(self.violations)} violations")


def merge_shadow(current: int, value: Optional[int]) -> int:
    """Order-safe merge of incoming dirty data into a held copy: versions
    of one address only ever grow, so the newest wins even when two
    in-flight writebacks of the same line are delivered out of order."""
    if value is None:
        return current
    return value if value > current else current


def merge_shadow_opt(acc: Optional[int],
                     value: Optional[int]) -> Optional[int]:
    """merge_shadow over an optional accumulator (None = no data seen
    yet) — the idiom of every in-flight value collector (the second
    levels' fetch records, reply rounds, ``Mshr.wb_value``)."""
    if acc is None:
        return value
    return merge_shadow(acc, value)
