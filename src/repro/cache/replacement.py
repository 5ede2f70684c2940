"""Replacement policies for set-associative arrays.

``LruPolicy`` is the paper's implied policy; ``PseudoLruPolicy``
(tree-PLRU) is provided for ablations — it approximates LRU with one
bit per internal tree node, which is what real L2s typically build.
Policies are per-*set* objects so state never leaks across sets.
"""

from __future__ import annotations

from typing import Dict, List

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


class PseudoLruPolicy:
    """Tree-PLRU: one bit per internal node of a binary tree over ways.

    Requires power-of-two associativity (as hardware PLRU does).
    """

    __slots__ = ("assoc", "_bits")

    def __init__(self, assoc: int) -> None:
        if assoc < 1 or assoc & (assoc - 1):
            raise ConfigError("PLRU needs power-of-two associativity")
        self.assoc = assoc
        self._bits: Dict[int, int] = {}

    def touch(self, way: int) -> None:
        node = 1
        span = self.assoc
        while span > 1:
            span //= 2
            go_right = way % (span * 2) >= span
            # Point the bit AWAY from the touched way.
            self._bits[node] = 0 if go_right else 1
            node = node * 2 + (1 if go_right else 0)

    def victim(self) -> int:
        node = 1
        way = 0
        span = self.assoc
        while span > 1:
            span //= 2
            bit = self._bits.get(node, 0)
            if bit:
                way += span
            node = node * 2 + bit
        return way

    def victim_ranking(self) -> List[int]:
        """Approximate ranking: PLRU victim first, then remaining ways."""
        first = self.victim()
        return [first] + [w for w in range(self.assoc) if w != first]


_POLICIES = {"lru": LruPolicy, "plru": PseudoLruPolicy}


def make_policy(name: str, assoc: int):
    """Factory: 'lru' or 'plru'."""
    if name not in _POLICIES:
        raise ConfigError(f"unknown replacement policy {name!r}")
    return _POLICIES[name](assoc)
