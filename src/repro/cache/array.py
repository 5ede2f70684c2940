"""Set-associative LRU cache array.

Pure storage + replacement: no protocol logic lives here. Controllers
look lines up, allocate (receiving the victim line, if any, to handle),
and invalidate. Set indexing uses the line address modulo the number of
sets, i.e. the bits just above the offset, as in the paper's address
layout (Tag | Index | HNid | Offset — the HNid bits are consumed by
home-node selection before the array sees the address; we fold that in
by indexing with the full line address, which preserves uniformity).

A set is one ``dict`` of its resident lines in recency order, LRU
first: a touching lookup moves its line to the end, and a full set
evicts its first key. Ways have no identity of their own — a set only
ever needs to know which lines it holds and which of them is oldest.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.cache.line import CacheLine
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
        # A set is materialised by its first ``allocate``. Until then
        # every untouched set shares ``_empty``, one never-written dict,
        # so read-only queries answer as an empty set would. The marker
        # is an attribute, not a module constant: pickle keeps the
        # sharing within one image, so a restored array still knows it.
        self._empty: Dict[int, CacheLine] = {}
        self._sets: List[Dict[int, CacheLine]] = [self._empty] * self.num_sets

    def set_index(self, line_addr: int) -> int:
        return (line_addr // self.index_stride) % self.num_sets

    # ------------------------------------------------------------------
    def lookup(self, line_addr: int, touch: bool = True) -> Optional[CacheLine]:
        """Return the resident line or None. ``touch`` makes it MRU."""
        # set_index inlined: this is the hottest method of the array.
        lines = self._sets[(line_addr // self.index_stride) % self.num_sets]
        if touch:
            line = lines.pop(line_addr, None)
            if line is not None:
                lines[line_addr] = line
            return line
        return lines.get(line_addr)

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._sets[
            (line_addr // self.index_stride) % self.num_sets]

    # ------------------------------------------------------------------
    def allocate(self, line_addr: int) -> Tuple[CacheLine, Optional[CacheLine]]:
        """Install a fresh line as MRU; returns ``(new_line, evicted_line)``.

        The caller owns the evicted line (must write back / migrate /
        drop it per protocol). Raises if the line is already resident.
        """
        idx = (line_addr // self.index_stride) % self.num_sets
        lines = self._sets[idx]
        if line_addr in lines:
            raise ConfigError(f"line {line_addr:#x} already resident")
        if lines is self._empty:
            lines = self._sets[idx] = {}
        victim: Optional[CacheLine] = None
        if len(lines) >= self.assoc:
            victim = lines.pop(next(iter(lines)))
        line = lines[line_addr] = CacheLine(line_addr)
        return line, victim

    def victim_ranking(self, line_addr: int) -> List[CacheLine]:
        """Resident lines of ``line_addr``'s set, most-evictable first.

        Controllers use this to pick a victim while skipping lines with
        in-flight transactions (which must not be evicted mid-flight);
        IVR also compares the first evictable line's timestamp with a
        migrant's (paper Section 3.3).
        """
        return list(self._sets[self.set_index(line_addr)].values())

    def set_full(self, line_addr: int) -> bool:
        lines = self._sets[(line_addr // self.index_stride) % self.num_sets]
        return len(lines) >= self.assoc and line_addr not in lines

    def invalidate(self, line_addr: int) -> Optional[CacheLine]:
        """Remove and return the line (None if absent)."""
        return self._sets[
            (line_addr // self.index_stride) % self.num_sets
        ].pop(line_addr, None)

    # ------------------------------------------------------------------
    def lines(self) -> Iterator[CacheLine]:
        for s in self._sets:
            yield from s.values()

    @property
    def resident_count(self) -> int:
        return sum(len(s) for s in self._sets)
