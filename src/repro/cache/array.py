"""Set-associative cache array.

Pure storage + replacement: no protocol logic lives here. Controllers
look lines up, allocate (receiving the victim line, if any, to handle),
and invalidate. Set indexing uses the line address modulo the number of
sets, i.e. the bits just above the offset, as in the paper's address
layout (Tag | Index | HNid | Offset — the HNid bits are consumed by
home-node selection before the array sees the address; we fold that in
by indexing with the full line address, which preserves uniformity).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.cache.line import CacheLine
from repro.cache.replacement import LruPolicy
from repro.errors import ConfigError
from repro.params import CacheConfig


class CacheArray:
    """A ``num_sets x assoc`` array of :class:`CacheLine` slots.

    ``index_stride`` strips the home-interleaving bits before set
    indexing: a distributed cache that picks the home node from the low
    ``log2(stride)`` bits of the line address must index its sets with
    the bits *above* them, or every line homed at one slice collapses
    into the same few sets (an address-interleaved slice only ever sees
    addresses congruent mod ``stride``).
    """

    def __init__(self, config: CacheConfig, index_stride: int = 1) -> None:
        if index_stride < 1:
            raise ConfigError("index_stride must be >= 1")
        self.config = config
        self.index_stride = index_stride
        self.num_sets = config.num_sets
        self.assoc = config.assoc
        LruPolicy(self.assoc)  # validate assoc eagerly
        # A set is materialised by its first ``allocate``. Until then it
        # holds nothing of its own: every untouched set shares one
        # never-written empty dict and two immutable way maps, so all
        # read-only queries answer as an empty set would, and
        # ``_policies[idx] is None`` marks it. A materialised LRU set
        # costs one dict and three short lists (its policy is a list
        # of ways, LRU first).
        self._sets: List[Dict[int, CacheLine]] = [{}] * self.num_sets
        self._policies: List[Optional[LruPolicy]] = [None] * self.num_sets
        # way bookkeeping: each resident line carries its own way
        # (``CacheLine.way``) and the reverse way -> line_addr map
        # (None = free) makes victim resolution an O(1) list index —
        # no parallel addr->way dict to probe on the hot paths.
        self._addr_of_way: List[Sequence[Optional[int]]] = \
            [(None,) * self.assoc] * self.num_sets
        self._free_ways: List[Sequence[int]] = \
            [tuple(range(self.assoc))] * self.num_sets

    def set_index(self, line_addr: int) -> int:
        return (line_addr // self.index_stride) % self.num_sets

    # ------------------------------------------------------------------
    def lookup(self, line_addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line or None. ``touch`` updates LRU."""
        # set_index inlined: this is the hottest method of the array.
        idx = (line_addr // self.index_stride) % self.num_sets
        line = self._sets[idx].get(line_addr)
        if line is not None and touch:
            self._policies[idx].touch(line.way)
        return line

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._sets[
            (line_addr // self.index_stride) % self.num_sets]

    # ------------------------------------------------------------------
    def allocate(self, line_addr: int) -> Tuple[CacheLine, Optional[CacheLine]]:
        """Install a fresh line; returns ``(new_line, evicted_line)``.

        The caller owns the evicted line (must write back / migrate /
        drop it per protocol). Raises if the line is already resident.
        """
        idx = (line_addr // self.index_stride) % self.num_sets
        if line_addr in self._sets[idx]:
            raise ConfigError(f"line {line_addr:#x} already resident")
        policy = self._policies[idx]
        if policy is None:
            policy = self._policies[idx] = LruPolicy(self.assoc)
            self._sets[idx] = {}
            self._addr_of_way[idx] = [None] * self.assoc
            self._free_ways[idx] = list(range(self.assoc))
        victim: Optional[CacheLine] = None
        if self._free_ways[idx]:
            way = self._free_ways[idx].pop()
        else:
            way = policy.victim()
            victim_addr = self._inverse_way(idx, way)
            victim = self._sets[idx].pop(victim_addr)
            victim.way = -1
        line = CacheLine(line_addr, way)
        self._sets[idx][line_addr] = line
        self._addr_of_way[idx][way] = line_addr
        policy.touch(way)
        return line, victim

    def victim_candidate(self, line_addr: int) -> Optional[CacheLine]:
        """The line that WOULD be evicted to make room for ``line_addr``
        (None if a free way exists). Does not modify the array — used by
        IVR to compare timestamps before committing (paper Section 3.3)."""
        idx = (line_addr // self.index_stride) % self.num_sets
        if line_addr in self._sets[idx] or self._free_ways[idx]:
            return None
        way = self._policies[idx].victim()
        return self._sets[idx][self._inverse_way(idx, way)]

    def victim_ranking(self, line_addr: int) -> List[CacheLine]:
        """Resident lines of ``line_addr``'s set, most-evictable first.

        Controllers use this to pick a victim while skipping lines with
        in-flight transactions (which must not be evicted mid-flight).
        """
        idx = self.set_index(line_addr)
        policy = self._policies[idx]
        if policy is None:
            return []
        lines = self._sets[idx]
        addr_of_way = self._addr_of_way[idx]
        return [lines[addr_of_way[w]] for w in policy.victim_ranking()
                if addr_of_way[w] is not None]

    def set_full(self, line_addr: int) -> bool:
        idx = (line_addr // self.index_stride) % self.num_sets
        return not self._free_ways[idx] and line_addr not in self._sets[idx]

    def invalidate(self, line_addr: int) -> Optional[CacheLine]:
        """Remove and return the line (None if absent)."""
        idx = (line_addr // self.index_stride) % self.num_sets
        line = self._sets[idx].pop(line_addr, None)
        if line is None:
            return None
        way = line.way
        line.way = -1
        self._addr_of_way[idx][way] = None
        self._free_ways[idx].append(way)
        return line

    # ------------------------------------------------------------------
    def _inverse_way(self, idx: int, way: int) -> int:
        addr = self._addr_of_way[idx][way]
        if addr is None:
            raise ConfigError(f"way {way} of set {idx} not mapped")
        return addr

    def lines(self) -> Iterator[CacheLine]:
        for s in self._sets:
            yield from s.values()

    @property
    def resident_count(self) -> int:
        return sum(len(s) for s in self._sets)

    def set_occupancy(self, line_addr: int) -> int:
        return len(self._sets[self.set_index(line_addr)])
