"""Invariant checkers (public API).

These verify the properties every correct run must satisfy, either on a
quiesced :class:`~repro.cmp.system.CmpSystem` (the default, as the test
suite's property tests use them) or — with ``allow_transient=True`` —
at an arbitrary event boundary *during* a run, where lines with an
in-flight home transaction are skipped. The fuzz harness installs
:func:`check_epoch` on a kernel epoch hook to catch invariant breaks
the moment they happen instead of only after quiescence.

Checker map:

* :func:`check_single_writer` — SWMR across L1s (holds at every event
  boundary, no transient filter needed).
* :func:`check_inclusion` / :func:`check_sharer_lists` — inclusive
  hierarchy and directory coverage of L1 copies.
* :func:`check_home_metadata` — L2 line metadata for lines with or
  without L1 copies: a stale ``dirty_l1`` pointer (the home believing
  an L1 holds modified data that no L1 has) and out-of-domain sharer
  bits, both invisible to :func:`check_sharer_lists` when no L1 copy
  remains.
* :func:`check_directory` — home placement and memory-directory state:
  every resident L2 copy is tracked, every registered owner exists.
* :func:`check_shadow_values` — when a value oracle is attached, every
  readable copy on chip (and, absent a dirty copy, memory) holds the
  architecturally last-committed store.
"""

from __future__ import annotations

from typing import List

from repro.cache.line import L1State
from repro.cmp.system import CmpSystem
from repro.errors import SimulationError
from repro.params import Organization


def _home_busy(system: CmpSystem, home: int, line_addr: int) -> bool:
    """A live transaction (MSHR or forward op) owns this line at its
    home — mid-run checks must not inspect it."""
    return system.l2s[home].line_busy(line_addr)


def check_single_writer(system: CmpSystem) -> List[str]:
    """SWMR: at most one M copy of any line across all L1s, and never
    alongside S copies. Holds at every event boundary (homes collect
    all invalidation acks before granting M), so it needs no transient
    filtering. Returns a list of violation strings (empty = clean);
    raises nothing so callers can aggregate."""
    violations: List[str] = []
    lines = set()
    for l1 in system.l1s:
        lines.update(ln.line_addr for ln in l1.array.lines())
    for addr in lines:
        m = [t for t in range(system.config.num_tiles)
             if system.l1s[t].resident_state(addr) is L1State.M]
        s = [t for t in range(system.config.num_tiles)
             if system.l1s[t].resident_state(addr) is L1State.S]
        if len(m) > 1:
            violations.append(f"line {addr:#x}: M copies at {m}")
        if m and s:
            violations.append(
                f"line {addr:#x}: M at {m} coexists with S at {s}")
    return violations


def check_inclusion(system: CmpSystem,
                    allow_transient: bool = False) -> List[str]:
    """Inclusive hierarchy: every valid L1 line must be resident at its
    home L2. With ``allow_transient`` lines mid-transaction at the home
    (eviction invalidation rounds, surrenders) are skipped."""
    violations: List[str] = []
    for tile in range(system.config.num_tiles):
        l1 = system.l1s[tile]
        for line in l1.array.lines():
            if line.l1_state is L1State.I:
                continue
            home = system.ctx.home_tile(tile, line.line_addr)
            if allow_transient and _home_busy(system, home, line.line_addr):
                continue
            if system.l2s[home].array.lookup(line.line_addr,
                                             touch=False) is None:
                violations.append(
                    f"line {line.line_addr:#x}: L1 copy at tile {tile} "
                    f"but home L2 {home} has no line")
    return violations


def check_sharer_lists(system: CmpSystem,
                       allow_transient: bool = False) -> List[str]:
    """Every valid L1 copy must appear in its home's sharer list (the
    reverse may not hold — silent S evictions leave stale bits, which
    is legal)."""
    violations: List[str] = []
    for tile in range(system.config.num_tiles):
        l1 = system.l1s[tile]
        for line in l1.array.lines():
            if line.l1_state is L1State.I:
                continue
            home = system.ctx.home_tile(tile, line.line_addr)
            if allow_transient and _home_busy(system, home, line.line_addr):
                continue
            home_line = system.l2s[home].array.lookup(line.line_addr,
                                                      touch=False)
            if home_line is not None and tile not in home_line.sharers:
                violations.append(
                    f"line {line.line_addr:#x}: L1 at {tile} missing "
                    f"from home {home} sharer list {home_line.sharers}")
    return violations


def _sharer_domain(system: CmpSystem, home: int) -> set:
    """The L1 tiles a home L2 may legally list as sharers."""
    org = system.config.organization
    if org is Organization.PRIVATE:
        return {home}
    if org is Organization.SHARED:
        return set(range(system.config.num_tiles))
    cm = system.ctx.cluster_map
    cluster = cm.cluster_of(home)
    return {t for t in range(system.config.num_tiles)
            if cm.cluster_of(t) == cluster}


def check_home_metadata(system: CmpSystem,
                        allow_transient: bool = False) -> List[str]:
    """L2-side metadata for every resident line — including lines with
    *no* L1 copies, which :func:`check_sharer_lists` (driven by L1
    residency) never inspects:

    * a set ``dirty_l1`` pointer must name an L1 that actually holds
      the line in M (a stale pointer makes the home recall garbage);
    * the dirty holder must be on the sharer list;
    * sharer bits must stay inside the organization's legal domain
      (private: the local tile; LOCO: the home's cluster).
    """
    violations: List[str] = []
    for home in range(system.config.num_tiles):
        l2 = system.l2s[home]
        domain = _sharer_domain(system, home)
        for line in l2.array.lines():
            addr = line.line_addr
            stray = line.sharers - domain
            if stray:
                violations.append(
                    f"line {addr:#x}: home {home} lists out-of-domain "
                    f"sharers {sorted(stray)}")
            holder = line.dirty_l1
            if holder is None:
                continue
            if allow_transient and _home_busy(system, home, addr):
                continue
            if holder not in line.sharers:
                violations.append(
                    f"line {addr:#x}: home {home} dirty_l1={holder} "
                    f"not in sharer list {line.sharers}")
            # The residency of the dirty holder is only checkable at
            # quiescence: mid-run, the holder may have evicted with its
            # WB_L1 (which clears the pointer) still in flight.
            if allow_transient:
                continue
            if system.l1s[holder].resident_state(addr) is not L1State.M:
                violations.append(
                    f"line {addr:#x}: home {home} dirty_l1={holder} "
                    f"but that L1 holds "
                    f"{system.l1s[holder].resident_state(addr).value}")
    return violations


def check_directory(system: CmpSystem) -> List[str]:
    """Home placement and second-level directory state (quiesced only).

    * every resident L2 copy must live at a tile that is a legal home
      for the line (shared: the chip-wide home; LOCO: the cluster home);
    * for the directory-based organizations, every readable L2 copy
      must be registered at the line's memory-controller directory, and
      every registered owner must actually hold the line in an owner
      state — the directory-side stale-bit leak.
    """
    violations: List[str] = []
    org = system.config.organization
    for tile in range(system.config.num_tiles):
        for line in system.l2s[tile].array.lines():
            # ctx.home_tile is the single source of truth for home
            # placement: "the home for this line as seen from this
            # tile" must be the tile itself for any resident copy.
            legal = system.ctx.home_tile(tile, line.line_addr)
            if tile != legal:
                violations.append(
                    f"line {line.line_addr:#x}: resident at L2 {tile}, "
                    f"which is not its home ({legal})")
    if org in (Organization.PRIVATE, Organization.LOCO_CC):
        by_mc = {t: mc for t, mc in zip(system.ctx.mc_tiles, system.mcs)}
        for tile in range(system.config.num_tiles):
            for line in system.l2s[tile].array.lines():
                if not line.l2_state.readable:
                    continue
                mc = by_mc[system.ctx.mc_tile(line.line_addr)]
                entry = mc.directory.peek(line.line_addr)
                holders = entry.all_holders() if entry is not None else set()
                if tile not in holders:
                    violations.append(
                        f"line {line.line_addr:#x}: L2 copy at {tile} "
                        f"unknown to the directory (holders {holders})")
                if line.l2_state.is_owner and \
                        (entry is None or entry.owner != tile):
                    violations.append(
                        f"line {line.line_addr:#x}: owner-state copy at "
                        f"{tile} but directory owner is "
                        f"{entry.owner if entry else None}")
        for mc in system.mcs:
            for entry in mc.directory.entries():
                if entry.busy:
                    violations.append(
                        f"line {entry.line_addr:#x}: directory entry "
                        f"busy at quiescence (grantee {entry.grantee})")
                if entry.owner is None:
                    continue
                owner_line = system.l2s[entry.owner].array.lookup(
                    entry.line_addr, touch=False)
                if owner_line is None or not owner_line.l2_state.is_owner:
                    violations.append(
                        f"line {entry.line_addr:#x}: directory owner "
                        f"{entry.owner} holds no owner-state copy")
    return violations


def check_shadow_values(system: CmpSystem) -> List[str]:
    """Value-level end state (quiesced, oracle attached): every readable
    copy on chip holds the architecturally latest store, and when no
    dirty copy exists on chip, memory does too. Catches lost
    writebacks and stale fills that no load happened to observe."""
    oracle = system.ctx.shadow
    if oracle is None:
        return []
    violations: List[str] = []
    dirty_on_chip = set()
    for tile in range(system.config.num_tiles):
        for line in system.l1s[tile].array.lines():
            if line.l1_state is L1State.M:
                dirty_on_chip.add(line.line_addr)
        for line in system.l2s[tile].array.lines():
            if line.l2_state.dirty:
                dirty_on_chip.add(line.line_addr)
    for tile in range(system.config.num_tiles):
        for line in system.l1s[tile].array.lines():
            if not line.l1_state.readable:
                continue
            expect = oracle.committed.get(line.line_addr, 0)
            if line.shadow != expect:
                violations.append(
                    f"line {line.line_addr:#x}: L1 {tile} holds "
                    f"v{line.shadow}, committed v{expect}")
        for line in system.l2s[tile].array.lines():
            if not line.l2_state.readable:
                continue
            if line.dirty_l1 is not None:
                # Write-back semantics: the authoritative copy is the
                # dirty L1 (checked above); the L2 image is legally
                # stale until a recall or writeback refreshes it.
                continue
            expect = oracle.committed.get(line.line_addr, 0)
            if line.shadow != expect:
                violations.append(
                    f"line {line.line_addr:#x}: L2 {tile} "
                    f"({line.l2_state.value}) holds v{line.shadow}, "
                    f"committed v{expect}")
    by_mc = {t: mc for t, mc in zip(system.ctx.mc_tiles, system.mcs)}
    for addr, expect in oracle.committed.items():
        if addr in dirty_on_chip:
            continue
        mem = by_mc[system.ctx.mc_tile(addr)].mem_value(addr)
        if mem != expect:
            violations.append(
                f"line {addr:#x}: no dirty copy on chip but memory "
                f"holds v{mem}, committed v{expect}")
    return violations


def check_epoch(system: CmpSystem) -> List[str]:
    """The mid-run subset, safe at any event boundary: SWMR plus the
    transient-filtered structural checks. Token conservation and the
    quiesce-only checks are excluded (tokens and data are legitimately
    in flight mid-run)."""
    return (check_single_writer(system)
            + check_inclusion(system, allow_transient=True)
            + check_sharer_lists(system, allow_transient=True)
            + check_home_metadata(system, allow_transient=True))


def check_all(system: CmpSystem, raise_on_violation: bool = True
              ) -> List[str]:
    """Run every quiesced-state checker (plus token conservation for VMS
    organizations); optionally raise :class:`SimulationError` listing
    all violations."""
    violations = (check_single_writer(system)
                  + check_inclusion(system)
                  + check_sharer_lists(system)
                  + check_home_metadata(system)
                  + check_directory(system)
                  + check_shadow_values(system))
    try:
        system.check_token_conservation()
    except SimulationError as exc:
        violations.append(str(exc))
    if violations and raise_on_violation:
        raise SimulationError(
            "invariant violations:\n  " + "\n  ".join(violations))
    return violations
