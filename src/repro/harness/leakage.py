"""Cache-leakage scenario pack: transient-execution side channels.

Builds the prime+probe / evict+reload experiments (``leak_*``
benchmarks) and recovers the victim's secret from the attacker's probe
timing, per L2 organization. The channel under test is the classic
Spectre-style one: a victim core's *squashed* speculative loads perturb
cache state; the attacker never sees the secret architecturally, only
through the timing of its own committed probe loads.

Address algebra
---------------
Every probe line for secret bit ``k`` is::

    lines[k][j] = LEAK_BASE + H + T * (k + S * j)

with ``T`` = num_tiles, ``S`` = L2 sets per slice, ``H`` a small home
residue. Because ``LEAK_BASE`` is divisible by ``T * S`` this maps, for
every ``j``, to

* the **same home tile** in every organization (shared: ``addr % T`` is
  constant; LOCO: ``H < cluster_size`` keeps the in-cluster HNid
  constant; private: the requestor's own tile by definition), and
* the **same L2 set** ``k`` (mod ``S``) at that home, and
* **one L1 set** at the attacker — with more probe lines than L1 ways
  the attacker self-thrashes its L1, so re-probes are guaranteed to
  reach the home L2, which is where the signal lives.

Bit recovery is organization-independent:
``k = ((addr - probe_base) // T) % S`` — the core's probe recorder
(:class:`repro.cmp.core.SpecConfig` probe fields) uses exactly this to
bucket probe timings into ``leak_probes_b{k}`` / ``leak_slow_b{k}``.

The *control arm* runs the identical traces with ``SpecAxes(mode="off")``:
the victim's SPEC_LOADs are squashed without issuing, so any recovery
accuracy above chance there would mean the channel is not actually
carried by transient traffic.

This module is the scenario algebra only. The leakage table is a
figure declaration, :func:`repro.harness.figures.fig_leakage`: one
cell per scenario x organization x arm, each reduced to its
:func:`probe_metrics` counters, so leak cells run, cache and ship like
every other figure cell.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Mapping, Tuple

from repro.errors import ConfigError
from repro.traces.adversarial import (LEAK_BASE, leak_evict_reload,
                                      leak_prime_probe)

#: attacker / victim tile placement: adjacent tiles so every clustered
#: organization keeps them in one cluster (the LOCO channel needs a
#: shared home L2 slice)
ATTACKER = 0
VICTIM = 1

#: secret width (capped at the L2 set count — each bit owns one set)
N_BITS = 16

#: the leakage benchmarks the experiment layer dispatches here
LEAK_BENCHMARKS = ("leak_prime_probe", "leak_evict_reload")


@dataclass(frozen=True)
class LeakGeometry:
    """The probe-line table and recorder parameters for one config."""

    tiles: int
    sets: int
    ways: int
    n_bits: int
    home: int
    threshold: int           # probe latency >= this counts as slow
    probe_base: int
    probe_end: int

    def lines(self) -> List[List[int]]:
        """``lines[k][j]`` per the module-docstring algebra; ``ways + 2``
        conflict lines per bit (prime set + two victim lines)."""
        return [[self.probe_base + self.tiles * (k + self.sets * j)
                 for j in range(self.ways + 2)]
                for k in range(self.n_bits)]


def geometry_for(exp: "ExperimentConfig") -> LeakGeometry:
    cfg = exp.system_config()
    tiles = cfg.num_tiles
    sets = cfg.l2.num_sets
    ways = cfg.l2.assoc
    if LEAK_BASE % (tiles * sets) != 0:
        raise ConfigError(
            f"LEAK_BASE {LEAK_BASE:#x} not divisible by num_tiles*l2_sets "
            f"({tiles}*{sets}); the same-home/same-set algebra breaks")
    # H < cluster_size keeps the LOCO in-cluster home residue constant
    # across the whole table; H != ATTACKER/VICTIM parks the shared-org
    # home away from the probing tiles when the mesh allows it.
    home = min(3, cfg.cluster_size - 1, tiles - 1)
    n_bits = min(N_BITS, sets)
    probe_base = LEAK_BASE + home
    probe_end = probe_base + tiles * ((n_bits - 1) + sets * (ways + 1)) + 1
    return LeakGeometry(tiles=tiles, sets=sets, ways=ways, n_bits=n_bits,
                        home=home,
                        threshold=cfg.memory.access_latency,
                        probe_base=probe_base, probe_end=probe_end)


def secret_bits(seed: int, n_bits: int) -> List[int]:
    """The victim's secret: a deterministic function of the seed (so
    every backend rebuilds the same traces) that is *not* a trivial
    pattern (all-zeros would make inverted-polarity bugs invisible)."""
    digest = hashlib.sha256(f"leak-secret|{seed}".encode()).digest()
    return [(digest[i // 8] >> (i % 8)) & 1 for i in range(n_bits)]


def build_leak_traces(exp: "ExperimentConfig"
                      ) -> Tuple[List[List["TraceEvent"]], List[int]]:
    """Trace builder behind ``_traces_for`` for ``leak_*`` benchmarks."""
    if exp.benchmark not in LEAK_BENCHMARKS:
        raise ConfigError(f"unknown leakage benchmark {exp.benchmark!r}; "
                          f"known: {list(LEAK_BENCHMARKS)}")
    if exp.cores <= max(ATTACKER, VICTIM):
        raise ConfigError(f"leakage scenarios need at least "
                          f"{max(ATTACKER, VICTIM) + 1} cores, "
                          f"got {exp.cores}")
    geo = geometry_for(exp)
    secret = secret_bits(exp.seed, geo.n_bits)
    builder = (leak_prime_probe if exp.benchmark == "leak_prime_probe"
               else leak_evict_reload)
    return builder(exp.cores, secret, geo.lines(), geo.ways,
                   attacker=ATTACKER, victim=VICTIM)


def spec_config_for(exp: "ExperimentConfig") -> "SpecConfig":
    """The per-core :class:`SpecConfig` an experiment's cores run with.

    Ordinary benchmarks with ``spec.mode == "on"`` get the speculative
    front-end without a probe recorder; ``leak_*`` benchmarks get the
    recorder in both arms (``issue`` off is the control arm)."""
    from repro.cmp.core import SpecConfig
    issue = exp.spec.mode != "off"
    if not exp.benchmark.startswith("leak_"):
        return SpecConfig(issue=issue, window=exp.spec.window,
                          rate=exp.spec.rate)
    geo = geometry_for(exp)
    return SpecConfig(issue=issue, window=exp.spec.window,
                      rate=exp.spec.rate,
                      probe_base=geo.probe_base, probe_end=geo.probe_end,
                      probe_stride=geo.tiles, probe_mod=geo.sets,
                      probe_threshold=geo.threshold)


# ----------------------------------------------------------------------
# bit recovery
# ----------------------------------------------------------------------
#: the leakage experiment's machine shape: one 4x4 mesh, 2x2 clusters
#: (attacker tile 0 and victim tile 1 share a cluster), default cache
#: scaling. Small enough for CI, big enough that every organization is
#: exercised meaningfully.
LEAK_CORES = 16
LEAK_CLUSTER = (2, 2)
LEAK_MAX_CYCLES = 5_000_000


def probe_metrics(exp: "ExperimentConfig") -> Tuple[str, ...]:
    """The counters a leak cell reduces to: what :func:`recover_bits`
    reads, ``leak_probes_b{k}`` and ``leak_slow_b{k}`` per secret bit."""
    return tuple(f"leak_{kind}_b{k}"
                 for k in range(geometry_for(exp).n_bits)
                 for kind in ("probes", "slow"))


def recover_bits(counts: Mapping[str, float],
                 exp: "ExperimentConfig") -> List[int]:
    """Attacker's guess of the secret, from its probe-timing counters
    (``{name: count}`` over :func:`probe_metrics`).

    prime+probe: a *slow* probe in bit k's set means the victim evicted
    primed lines — bit 1. evict+reload has inverted polarity: a *fast*
    reload means the victim's transient load refetched the target.
    """
    bits = []
    for k in range(geometry_for(exp).n_bits):
        probes = counts[f"leak_probes_b{k}"]
        slow = counts[f"leak_slow_b{k}"]
        if exp.benchmark == "leak_prime_probe":
            bits.append(1 if slow > 0 else 0)
        else:
            bits.append(1 if probes > 0 and slow == 0 else 0)
    return bits


def recovery_accuracy(counts: Mapping[str, float],
                      exp: "ExperimentConfig") -> float:
    """Fraction of secret bits the attacker recovered correctly.

    1.0 = the channel leaks every bit; ~0.5 = indistinguishable from
    guessing (what a closed channel and the control arm should show).
    """
    secret = secret_bits(exp.seed, geometry_for(exp).n_bits)
    guess = recover_bits(counts, exp)
    return sum(g == s for g, s in zip(guess, secret)) / len(secret)
