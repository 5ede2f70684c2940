"""Replacement policy for set-associative arrays.

``LruPolicy`` is the paper's implied policy. Policies are per-*set*
objects so state never leaks across sets.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigError


class LruPolicy:
    """True LRU over the ways of one set.

    The recency order is a plain list of way numbers, LRU first and
    MRU last. ``touch`` runs on every cache lookup: re-touching the MRU
    way (the common hit) is one compare, anything else a ``remove`` +
    ``append`` over at most ``assoc`` small ints. A list is cheap to
    build and to keep, which matters more than O(1) reordering at
    these sizes: a figure job materialises tens of thousands of sets,
    and a hash-linked order per set is the machine's largest
    allocation site.
    """

    __slots__ = ("assoc", "_order")

    def __init__(self, assoc: int) -> None:
        if assoc < 1:
            raise ConfigError("associativity must be >= 1")
        self.assoc = assoc
        self._order: List[int] = list(range(assoc))

    def touch(self, way: int) -> None:
        order = self._order
        if order[-1] != way:
            order.remove(way)
            order.append(way)

    def victim(self) -> int:
        return self._order[0]

    def victim_ranking(self) -> List[int]:
        """Ways ordered from most- to least-evictable."""
        return list(self._order)
