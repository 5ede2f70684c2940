"""Cache substrate: lines, set-associative arrays, MSHRs, timestamps."""

from repro.cache.line import CacheLine, L1State, L2State
from repro.cache.array import CacheArray
from repro.cache.replacement import LruPolicy
from repro.cache.mshr import Mshr, MshrFile
from repro.cache.timestamp import CoarseTimestamp

__all__ = [
    "CacheLine",
    "L1State",
    "L2State",
    "CacheArray",
    "LruPolicy",
    "Mshr",
    "MshrFile",
    "CoarseTimestamp",
]
