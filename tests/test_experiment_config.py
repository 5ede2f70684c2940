"""The ExperimentConfig axis-group redesign: compatibility pins.

``unit_key``/``warmup_key`` hash ``repr(ExperimentConfig)`` and the
on-disk sweep caches / warmup images are keyed by them, so the grouped
``spec``/``hierarchy`` sub-configs must leave every pre-redesign
config's repr, keys and v4 wire form *byte-identical*. The hex pins
below were captured on the flat-field implementation immediately
before the regrouping — they are the regression contract, not derived
values.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.harness.experiment import (SWEEP_AXES, ExperimentConfig,
                                      HierarchyAxes, SpecAxes, warmup_key)
from repro.harness.sweep import _validate_axes, sweep
from repro.harness.units import SweepUnit
from repro.params import NocKind, Organization

#: (config factory, flat-era repr tail check, unit_key, warmup_key,
#:  v4 wire JSON) — captured pre-redesign
FLAT_ERA_PINS = [
    (
        lambda: ExperimentConfig(benchmark="water_spatial",
                                 organization=Organization.SHARED),
        "ExperimentConfig(benchmark='water_spatial', "
        "organization=<Organization.SHARED: 'shared'>, cores=64, "
        "noc=<NocKind.SMART: 'smart'>, cluster=(4, 4), scale=1.0, "
        "full_system=False, seed=1, warmup_fraction=0.35, "
        "cache_scale=0.125, speculation='off', spec_window=8, "
        "spec_rate=0.0)",
        "39b5d91a5c4b9e161ab7d37f",
        "4dec51010ffafb94dbbc821e",
        '{"benchmark": "water_spatial", "cache_scale": 0.125, '
        '"cluster": [4, 4], "cores": 64, "full_system": false, '
        '"kind": "sweep", "max_cycles": 1000000, "metric": "runtime", '
        '"noc": "smart", "organization": "shared", "scale": 1.0, '
        '"seed": 1, "spec_rate": 0.0, "spec_window": 8, '
        '"speculation": "off", "warmup_fraction": 0.35}',
    ),
    (
        lambda: ExperimentConfig(
            benchmark="canneal", organization=Organization.LOCO_CC_VMS_IVR,
            cores=16, cluster=(2, 2), scale=0.05, seed=7,
            spec=SpecAxes(mode="on", window=4, rate=0.01)),
        None,
        "a6e75b658b1ae9088915eb48",
        "a5163352c9c7187fb4fa2242",
        None,
    ),
    (
        # every positional field, then the keyword-only spec group
        lambda: ExperimentConfig("lu", Organization.PRIVATE, 16,
                                 NocKind.CONVENTIONAL, (2, 2), 0.5, True,
                                 3, 0.2, 0.25, spec=SpecAxes("on", 2, 0.5)),
        None,
        "8ff73924a42c860d8ae0f2c0",
        "bed0a93c50a98ad23ebbd08c",
        '{"benchmark": "lu", "cache_scale": 0.25, "cluster": [2, 2], '
        '"cores": 16, "full_system": true, "kind": "sweep", '
        '"max_cycles": 1000000, "metric": "runtime", '
        '"noc": "conventional", "organization": "private", '
        '"scale": 0.5, "seed": 3, "spec_rate": 0.5, "spec_window": 2, '
        '"speculation": "on", "warmup_fraction": 0.2}',
    ),
]


class TestFlatEraPins:
    @pytest.mark.parametrize("pin", FLAT_ERA_PINS,
                             ids=["default", "spec_kwargs", "positional"])
    def test_repr_keys_and_wire_byte_identical(self, pin):
        make, want_repr, want_unit_key, want_warmup_key, want_wire = pin
        exp = make()
        if want_repr is not None:
            assert repr(exp) == want_repr
        unit = SweepUnit(exp, 1_000_000, "runtime")
        assert unit.key() == want_unit_key
        assert warmup_key(exp) == want_warmup_key
        if want_wire is not None:
            assert json.dumps(unit.to_wire(), sort_keys=True) == want_wire

    def test_default_wire_has_no_hierarchy_keys(self):
        wire = SweepUnit(FLAT_ERA_PINS[0][0](), 1_000_000,
                         "runtime").to_wire()
        assert "scratchpad_fraction" not in wire
        assert "spm_latency" not in wire


class TestGroupedFlatEquivalence:
    """The flat spellings of the grouped axes are gone: one config
    spelling, so nothing can bind a flat-era argument by accident."""

    @pytest.mark.parametrize("kw", [
        dict(speculation="on", spec=SpecAxes()),
        dict(spec_window=4, spec=SpecAxes()),
        dict(spec_rate=0.1, spec=SpecAxes()),
        dict(scratchpad_fraction=0.1, hierarchy=HierarchyAxes()),
        dict(spm_latency=3, hierarchy=HierarchyAxes()),
    ])
    def test_grouped_and_flat_together_rejected(self, kw):
        with pytest.raises(TypeError, match="unexpected keyword"):
            ExperimentConfig("lu", Organization.PRIVATE, **kw)

    def test_flat_spellings_rejected(self):
        with pytest.raises(TypeError, match="unexpected keyword"):
            ExperimentConfig("lu", Organization.PRIVATE, speculation="on")
        # the flat-era 13-positional call must not bind "on" to spec
        with pytest.raises(TypeError, match="positional"):
            ExperimentConfig("lu", Organization.PRIVATE, 16,
                             NocKind.CONVENTIONAL, (2, 2), 0.5, True,
                             3, 0.2, 0.25, "on", 2, 0.5)
        exp = ExperimentConfig("lu", Organization.PRIVATE,
                               spec=SpecAxes(mode="on"))
        for name in ("speculation", "spec_window", "spec_rate",
                     "scratchpad_fraction", "spm_latency"):
            assert not hasattr(exp, name)
            with pytest.raises(ConfigError, match="unknown sweep axis"):
                sweep("lu", organization=[Organization.PRIVATE],
                      **{name: [1]})

    def test_replace_and_pickle(self):
        exp = ExperimentConfig(benchmark="lu",
                               organization=Organization.SHARED,
                               spec=SpecAxes(mode="on"),
                               hierarchy=HierarchyAxes(0.5))
        clone = dataclasses.replace(exp, seed=9)
        assert clone.seed == 9
        assert clone.spec == exp.spec
        assert clone.hierarchy == exp.hierarchy
        assert pickle.loads(pickle.dumps(exp)) == exp

    def test_hierarchy_extends_repr_and_identity(self):
        base = ExperimentConfig(benchmark="lu",
                                organization=Organization.SHARED)
        part = dataclasses.replace(base,
                                   hierarchy=HierarchyAxes(0.5, 2))
        assert repr(part) == repr(base)[:-1] + \
            ", hierarchy=HierarchyAxes(scratchpad_fraction=0.5, " \
            "spm_latency=2))"
        assert warmup_key(part) != warmup_key(base)
        assert SweepUnit(part, 1, None).key() != \
            SweepUnit(base, 1, None).key()

    def test_hierarchy_axes_validated(self):
        with pytest.raises(ConfigError):
            HierarchyAxes(scratchpad_fraction=1.0)
        with pytest.raises(ConfigError):
            HierarchyAxes(scratchpad_fraction=-0.1)
        with pytest.raises(ConfigError):
            HierarchyAxes(spm_latency=0)


class TestSweepAxes:
    def test_grouped_spellings_are_valid_axes(self):
        _validate_axes({"spec": [SpecAxes()],
                        "hierarchy": [HierarchyAxes()], "seed": [1]})

    def test_unknown_axis_still_rejected(self):
        with pytest.raises(ConfigError):
            _validate_axes({"scratchpad": [0.5]})

    def test_sweep_axes_are_the_config_fields(self):
        assert SWEEP_AXES == {f.name for f in
                              dataclasses.fields(ExperimentConfig)}
        assert {"benchmark", "spec", "hierarchy"} <= SWEEP_AXES


_configs = st.builds(
    ExperimentConfig,
    benchmark=st.sampled_from(["water_spatial", "lu", "canneal",
                               "dataflow_gemm", "dataflow_stencil"]),
    organization=st.sampled_from(list(Organization)),
    cores=st.sampled_from([1, 16, 64]),
    noc=st.sampled_from(list(NocKind)),
    cluster=st.sampled_from([(1, 1), (2, 2), (4, 4)]),
    scale=st.sampled_from([0.05, 0.25, 1.0]),
    full_system=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
    warmup_fraction=st.sampled_from([0.0, 0.35, 0.5]),
    cache_scale=st.sampled_from([0.125, 0.25, 1.0]),
    spec=st.builds(SpecAxes,
                   mode=st.sampled_from(["off", "on"]),
                   window=st.integers(1, 64),
                   rate=st.sampled_from([0.0, 0.01, 0.5])),
    hierarchy=st.builds(HierarchyAxes,
                        scratchpad_fraction=st.sampled_from(
                            [0.0, 0.25, 0.5, 0.875]),
                        spm_latency=st.integers(1, 8)))

_metrics = st.one_of(st.none(), st.sampled_from(["runtime", "mpki"]),
                     st.tuples(st.just("runtime"), st.just("mpki")))


class TestWireV5Property:
    @settings(max_examples=200, deadline=None)
    @given(exp=_configs, max_cycles=st.integers(1, 2**40),
           metric=_metrics)
    def test_any_unit_round_trips_through_json(self, exp, max_cycles,
                                               metric):
        unit = SweepUnit(exp, max_cycles, metric)
        wire = json.loads(json.dumps(unit.to_wire()))
        back = SweepUnit.from_wire(wire)
        assert back == unit
        assert back.key() == unit.key()
        assert back.warmup_key == unit.warmup_key

    @settings(max_examples=100, deadline=None)
    @given(exp=_configs)
    def test_hierarchy_keys_ride_wire_iff_non_default(self, exp):
        wire = SweepUnit(exp, 1000, "runtime").to_wire()
        if exp.hierarchy == HierarchyAxes():
            assert "scratchpad_fraction" not in wire
            assert "spm_latency" not in wire
        else:
            assert wire["scratchpad_fraction"] == \
                exp.hierarchy.scratchpad_fraction
            assert wire["spm_latency"] == exp.hierarchy.spm_latency


class TestWorkloadNamedConfigPins:
    """A Table-2 workload is a benchmark name: its config hashes and
    wire-encodes through the one ``SweepUnit`` scheme, and ``kind:
    "sweep"`` is the only unit kind the decoder accepts."""

    def _unit(self):
        return SweepUnit(ExperimentConfig(
            "W0", Organization.LOCO_CC_VMS_IVR, cluster=(4, 1),
            scale=0.25), 1_000_000, "runtime")

    def test_repr_keys_and_wire_pinned(self):
        unit = self._unit()
        assert repr(unit.exp) == (
            "ExperimentConfig(benchmark='W0', "
            "organization=<Organization.LOCO_CC_VMS_IVR: "
            "'loco_cc_vms_ivr'>, cores=64, "
            "noc=<NocKind.SMART: 'smart'>, cluster=(4, 1), scale=0.25, "
            "full_system=False, seed=1, warmup_fraction=0.35, "
            "cache_scale=0.125, speculation='off', spec_window=8, "
            "spec_rate=0.0)")
        assert unit.key() == "b1d0d33488aac16d5e60f296"
        assert unit.warmup_key == warmup_key(unit.exp) == \
            "1db90dfc2077d6f08f0a3488"
        assert json.dumps(unit.to_wire(), sort_keys=True) == (
            '{"benchmark": "W0", "cache_scale": 0.125, '
            '"cluster": [4, 1], "cores": 64, "full_system": false, '
            '"kind": "sweep", "max_cycles": 1000000, '
            '"metric": "runtime", "noc": "smart", '
            '"organization": "loco_cc_vms_ivr", "scale": 0.25, '
            '"seed": 1, "spec_rate": 0.0, "spec_window": 8, '
            '"speculation": "off", "warmup_fraction": 0.35}')

    def test_one_decoder_accepts_only_sweep_kind(self):
        unit = self._unit()
        wire = unit.to_wire()
        assert SweepUnit.from_wire(wire) == unit
        del wire["kind"]  # v1-era frames carried no discriminator
        assert SweepUnit.from_wire(wire) == unit
        for bad in (dict(wire, kind="workload"), dict(wire, kind=None),
                    [wire], "W0"):
            with pytest.raises(ConfigError):
                SweepUnit.from_wire(bad)
