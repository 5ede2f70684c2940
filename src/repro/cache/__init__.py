"""Cache substrate: lines, set-associative LRU arrays, MSHRs, timestamps.

Replacement is not a separate object: each set of a
:class:`CacheArray` is one dict of its lines in recency order.
"""

from repro.cache.line import CacheLine, L1State, L2State
from repro.cache.array import CacheArray
from repro.cache.mshr import Mshr, MshrFile
from repro.cache.timestamp import CoarseTimestamp

__all__ = [
    "CacheLine",
    "L1State",
    "L2State",
    "CacheArray",
    "Mshr",
    "MshrFile",
    "CoarseTimestamp",
]
