"""Discrete-event simulation substrate: kernel, statistics, RNG streams."""

from repro.sim.kernel import Event, Simulator
from repro.sim.rng import RngStreams
from repro.sim.stats import Counter, LatencySampler, Stats

__all__ = [
    "Event",
    "Simulator",
    "RngStreams",
    "Counter",
    "LatencySampler",
    "Stats",
]
