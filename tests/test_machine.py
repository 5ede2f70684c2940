"""Which configs are one machine: the equivalence pin of
:meth:`ExperimentConfig.machine`.

Private and shared homes ignore the configured cluster shape, and LOCO
with one-tile clusters is private, so several configs declare the same
machine. The reference classes below are written out by hand, and each
is checked twice: every member simulates to the same cold result, and
``machine()`` maps exactly the members of one class together.
"""

import pytest

from repro.cmp.system import HOME_L2
from repro.errors import ConfigError
from repro.harness.experiment import (ExperimentConfig, HierarchyAxes,
                                      SpecAxes, run_benchmark)
from repro.harness.units import encode_result
from repro.params import NocKind, Organization

O = Organization
BENCH = "water_spatial"
CLUSTERS = [(1, 1), (2, 2), (4, 1), (4, 4)]

#: (organization, cores, cluster) of every config the pin covers: all
#: five organizations x four cluster shapes at 16 cores, and every
#: organization at one core (where (1, 1) is the only shape)
CONFIGS = [(org, 16, c) for org in O for c in CLUSTERS] \
    + [(org, 1, (1, 1)) for org in O]

#: The reference classes: configs that are one machine. Every config of
#: ``CONFIGS`` not named here is a class of its own.
SAME_MACHINE = [
    # a private home is the tile itself, whatever the cluster; LOCO
    # with one-tile clusters is private
    [(O.PRIVATE, 16, c) for c in CLUSTERS] + [(O.LOCO_CC, 16, (1, 1))],
    # a shared home spans the mesh, whatever the cluster
    [(O.SHARED, 16, c) for c in CLUSTERS],
    [(O.PRIVATE, 1, (1, 1)), (O.LOCO_CC, 1, (1, 1))],
]

#: one-core configs that must stay apart from private although their
#: home is the same single tile: another home-L2 protocol
NOT_PRIVATE = [(O.SHARED, 1, (1, 1)), (O.LOCO_CC_VMS, 1, (1, 1)),
               (O.LOCO_CC_VMS_IVR, 1, (1, 1))]


def exp(org, cores, cluster, benchmark=BENCH):
    return ExperimentConfig(benchmark, org, cores=cores, cluster=cluster,
                            scale=0.04, seed=5)


def reference_classes():
    """``CONFIGS`` partitioned into the reference classes."""
    named = {cfg for cls in SAME_MACHINE for cfg in cls}
    return SAME_MACHINE + [[cfg] for cfg in CONFIGS if cfg not in named]


@pytest.fixture(scope="module")
def cold():
    """The cold wire encoding of each config's result, run on demand."""
    memo = {}

    def result(cfg):
        if cfg not in memo:
            memo[cfg] = encode_result(run_benchmark(exp(*cfg)))
        return memo[cfg]

    return result


class TestReferenceClasses:
    """What the simulator does; no ``machine()`` involved."""

    def test_every_config_is_in_exactly_one_class(self):
        members = [cfg for cls in reference_classes() for cfg in cls]
        assert sorted(members, key=CONFIGS.index) == CONFIGS

    @pytest.mark.parametrize("cls", SAME_MACHINE,
                             ids=["private16", "shared16", "private1"])
    def test_members_simulate_identically(self, cls, cold):
        first = cold(cls[0])
        for cfg in cls[1:]:
            assert cold(cfg) == first, cfg

    @pytest.mark.parametrize("cfg", NOT_PRIVATE,
                             ids=lambda cfg: cfg[0].value)
    def test_other_home_protocols_differ_from_private(self, cfg, cold):
        assert cold(cfg) != cold((O.PRIVATE, 1, (1, 1)))

    def test_leak_probe_table_reads_the_cluster(self):
        """A leakage scenario places its probe lines by the configured
        cluster: private leak cells of two clusters differ, while LOCO
        with one-tile clusters is still private."""
        def leak(org, cluster):
            return encode_result(run_benchmark(
                exp(org, 16, cluster, "leak_prime_probe")))

        private = leak(O.PRIVATE, (1, 1))
        assert leak(O.LOCO_CC, (1, 1)) == private
        assert leak(O.PRIVATE, (2, 2)) != private


class TestMachine:
    """``machine()`` maps exactly the reference classes together."""

    def test_partition_is_the_reference_classes(self):
        by_machine = {}
        for cfg in CONFIGS:
            by_machine.setdefault(exp(*cfg).machine(), []).append(cfg)
        assert {frozenset(cls) for cls in by_machine.values()} \
            == {frozenset(cls) for cls in reference_classes()}

    @pytest.mark.parametrize("cfg", CONFIGS,
                             ids=lambda cfg: f"{cfg[0].value}-{cfg[1]}"
                                             f"-{cfg[2][0]}x{cfg[2][1]}")
    def test_machine_is_canonical(self, cfg):
        """A machine is its own machine, and it builds the member's
        home map: the same home-L2 class over the same home cluster."""
        e = exp(*cfg)
        m = e.machine()
        assert m.machine() == m
        assert HOME_L2[m.organization] is HOME_L2[e.organization]
        assert m.system_config().home_cluster \
            == e.system_config().home_cluster
        assert m.organization.uses_vms == e.organization.uses_vms

    @pytest.mark.parametrize("axes", [
        dict(benchmark="dataflow_gemm", scale=0.1,
             hierarchy=HierarchyAxes(scratchpad_fraction=0.5)),
        dict(benchmark="fluidanimate", full_system=True),
        dict(benchmark="barnes", spec=SpecAxes(mode="on", rate=0.05)),
        dict(benchmark="barnes", noc=NocKind.CONVENTIONAL),
        dict(benchmark="barnes", noc=NocKind.FLATTENED_BUTTERFLY),
        dict(benchmark="lu", warmup_fraction=0.0, cache_scale=0.25),
    ], ids=["scratchpad", "full_system", "speculation", "conventional",
            "flattened_butterfly", "no_warmup"])
    def test_one_machine_simulates_identically_on_every_axis(self, axes):
        """The other axes do not make the cluster matter: configs that
        ``machine()`` maps together still simulate identically."""
        axes = dict(dict(cores=16, scale=0.04, seed=5), **axes)
        by_machine = {}
        for org in (O.PRIVATE, O.SHARED, O.LOCO_CC):
            for cluster in ((1, 1), (2, 2)):
                e = ExperimentConfig(organization=org, cluster=cluster,
                                     **axes)
                by_machine.setdefault(e.machine(), []).append(
                    encode_result(run_benchmark(e)))
        assert sorted(map(len, by_machine.values())) == [1, 2, 3]
        for results in by_machine.values():
            assert all(r == results[0] for r in results)

    @pytest.mark.parametrize("org", [O.LOCO_CC_VMS, O.LOCO_CC_VMS_IVR])
    def test_vms_organizations_keep_their_cluster(self, org):
        for cluster in CLUSTERS:
            assert exp(org, 16, cluster).machine() == exp(org, 16, cluster)

    def test_leak_config_keeps_its_cluster(self):
        """A leakage scenario's trace key reads the cluster (see
        ``test_leak_probe_table_reads_the_cluster``)."""
        private = exp(O.PRIVATE, 16, (1, 1), "leak_prime_probe")
        for cluster in CLUSTERS[1:]:
            e = exp(O.PRIVATE, 16, cluster, "leak_prime_probe")
            assert e.machine() == e
        assert exp(O.LOCO_CC, 16, (1, 1), "leak_prime_probe").machine() \
            == private

    def test_other_axes_are_kept(self):
        e = ExperimentConfig(BENCH, O.LOCO_CC, cores=16, cluster=(1, 1),
                             scale=0.03, seed=9, warmup_fraction=0.5,
                             cache_scale=0.25)
        assert e.machine() == ExperimentConfig(
            BENCH, O.PRIVATE, cores=16, cluster=(1, 1), scale=0.03,
            seed=9, warmup_fraction=0.5, cache_scale=0.25)

    @pytest.mark.parametrize("org", list(O))
    def test_invalid_cluster_still_raises(self, org):
        with pytest.raises(ConfigError):
            exp(org, 16, (3, 3)).machine()
