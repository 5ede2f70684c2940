"""BatchSim correctness: lockstep rows must be bit-identical to scalar.

Three layers of defense, all tier-1:

* a seeded differential fuzz campaign — random single-tile cells
  across every batchable organization, benchmarks, scales, seeds,
  cache pressures and warmup fractions (including the 0.0 / 1.0
  edges), each compared to the scalar simulator on the *full wire
  encoding* of the RunResult (every counter, every sampler's
  count/total, the warmup mark — not just headline metrics);
* grouping/fallback unit tests — mixed shapes, batch of 1,
  non-batchable metrics/organizations/core counts, cycle-limit lanes
  (which must surface the scalar path's canonical error);
* end-to-end ``sweep(batch=...)`` equivalence on mixed axes, where
  batchable and non-batchable cells share one grid.
"""

import random

import pytest

from repro.batch import BATCHABLE_METRICS, batchable, run_batched
from repro.batch.grouping import group_shape
from repro.errors import SimulationError
from repro.harness.experiment import ExperimentConfig
from repro.harness.sweep import sweep
from repro.harness.units import SweepUnit, encode_result
from repro.params import Organization

BATCH_ORGS = [Organization.SHARED, Organization.PRIVATE,
              Organization.LOCO_CC]


def _exp(org=Organization.SHARED, **kw):
    kw.setdefault("benchmark", "water_spatial")
    kw.setdefault("scale", 0.04)
    return ExperimentConfig(organization=org, cores=1, cluster=(1, 1),
                            **kw)


def _diff(scalar, batched):
    """Full bit-exactness check with a readable failure."""
    es, eb = encode_result(scalar), encode_result(batched)
    assert es == eb, {k: (es[k], eb[k]) for k in es if es[k] != eb[k]}


# ---------------------------------------------------------------------------
# differential fuzz campaign
# ---------------------------------------------------------------------------

def test_differential_fuzz_batched_vs_scalar():
    rng = random.Random(20260808)
    units = []
    for _ in range(36):
        units.append(SweepUnit(_exp(
            org=rng.choice(BATCH_ORGS),
            benchmark=rng.choice(["water_spatial", "fft", "canneal",
                                  "radix", "lu"]),
            seed=rng.randrange(1, 1000),
            scale=rng.choice([0.02, 0.04, 0.06]),
            warmup_fraction=rng.choice([0.0, 0.1, 0.35, 0.9, 1.0]),
            cache_scale=rng.choice([0.125, 0.0625, 0.03125]))))
    got = run_batched(units, batch=8)
    assert len(got) == len(units), "every fuzz cell must be batchable"
    evictions = writebacks = marked = 0
    for i, unit in enumerate(units):
        scalar = unit.run()
        _diff(scalar, got[i])
        if scalar.stats.value("l2_evictions"):
            evictions += 1
        if scalar.stats.value("offchip_writebacks"):
            writebacks += 1
        if scalar.stats.marked:
            marked += 1
    # the campaign must actually exercise the hard machinery, not
    # coast on hit-only lanes
    assert evictions > 0 and writebacks > 0 and marked > 0


# ---------------------------------------------------------------------------
# grouping and fallback
# ---------------------------------------------------------------------------

def test_batchable_predicate():
    assert batchable(SweepUnit(_exp()))
    assert batchable(SweepUnit(_exp(), metric="runtime"))
    assert batchable(SweepUnit(_exp(), metric=("runtime", "mpki")))
    # multi-tile, VMS/token organizations, full-system spins and
    # unaudited metrics all fall back to the scalar path
    assert not batchable(SweepUnit(ExperimentConfig(
        benchmark="water_spatial", organization=Organization.SHARED,
        cores=16, cluster=(2, 2), scale=0.04)))
    assert not batchable(SweepUnit(_exp(Organization.LOCO_CC_VMS)))
    assert not batchable(SweepUnit(_exp(Organization.LOCO_CC_VMS_IVR)))
    assert not batchable(SweepUnit(_exp(full_system=True)))
    assert "l2_misses" not in BATCHABLE_METRICS
    assert not batchable(SweepUnit(_exp(), metric="l2_misses"))
    assert not batchable(SweepUnit(_exp(), metric=("runtime",
                                                   "l2_misses")))


def test_mixed_shapes_group_separately():
    a = SweepUnit(_exp(seed=1))
    b = SweepUnit(_exp(seed=2, cache_scale=0.0625))  # different geometry
    c = SweepUnit(_exp(seed=3))
    assert group_shape(a) == group_shape(c) != group_shape(b)
    got = run_batched([a, b, c], batch=8)
    assert set(got) == {0, 1, 2}
    for i, unit in enumerate((a, b, c)):
        _diff(unit.run(), got[i])


def test_batch_of_one_and_degenerate_sizes():
    unit = SweepUnit(_exp(seed=5))
    got = run_batched([unit], batch=1)
    assert set(got) == {0}
    _diff(unit.run(), got[0])
    assert run_batched([unit], batch=0) == {}
    assert run_batched([], batch=8) == {}


def test_non_batchable_units_left_for_scalar_path():
    good = SweepUnit(_exp(seed=1), metric="runtime")
    bad_metric = SweepUnit(_exp(seed=2), metric="l2_misses")
    bad_org = SweepUnit(_exp(Organization.LOCO_CC_VMS, seed=3),
                        metric="runtime")
    got = run_batched([good, bad_metric, bad_org], batch=8)
    assert set(got) == {0}
    assert got[0] == good.run()


def test_cycle_limit_lane_falls_back_to_canonical_error():
    unit = SweepUnit(_exp(seed=7), max_cycles=100)
    # the batcher runs the lane, sees it exceed its horizon, and
    # declines it — the scalar path then raises the canonical error
    assert run_batched([unit], batch=4) == {}
    with pytest.raises(SimulationError, match="cycle limit"):
        unit.run()
    with pytest.raises(SimulationError, match="cycle limit"):
        sweep("water_spatial", metric="runtime", batch=4,
              max_cycles=100, organization=[Organization.SHARED],
              cores=[1], cluster=[(1, 1)], scale=[0.04], seed=[7])


# ---------------------------------------------------------------------------
# end-to-end sweep equivalence
# ---------------------------------------------------------------------------

def test_sweep_batch_rows_identical_mixed_axes():
    """One grid mixing batchable and fallback cells: identical rows,
    identical order, with and without batching (and through the pool
    path, which applies batching before forking workers)."""
    axes = dict(organization=[Organization.SHARED, Organization.PRIVATE,
                              Organization.LOCO_CC,
                              Organization.LOCO_CC_VMS],
                cores=[1], cluster=[(1, 1)], seed=[1, 2],
                scale=[0.03], warmup_fraction=[0.35])
    plain = sweep("fft", metric=("runtime", "mpki"), **axes)
    batched = sweep("fft", metric=("runtime", "mpki"), batch=8, **axes)
    assert batched == plain
    pooled = sweep("fft", metric=("runtime", "mpki"), batch=8, jobs=2,
                   **axes)
    assert pooled == plain


def test_sweep_batch_multi_tile_all_fallback():
    """A 16-core grid is entirely outside batch coverage: batch=S must
    be a pure no-op on the rows."""
    axes = dict(organization=[Organization.SHARED], cores=[16],
                cluster=[(2, 2)], scale=[0.03], seed=[1])
    assert sweep("water_spatial", metric="runtime", batch=8, **axes) \
        == sweep("water_spatial", metric="runtime", **axes)
