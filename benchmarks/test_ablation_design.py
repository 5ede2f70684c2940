"""Ablation benches for the simulator's design choices.

Not figures from the paper — these probe the levers behind its results:

* HPCmax sweep — HPCmax=1 degrades SMART to per-hop routing; the gap
  to HPCmax=4 is SMART's entire contribution.
* VMS hardware broadcast vs serial unicasts — the paper's "15 copies
  from the source" remark, measured.
* IVR replacement-threshold sweep — how many migration hops pay off.
"""

from dataclasses import replace

import pytest

from repro.cmp.system import CmpSystem
from repro.harness.experiment import ExperimentConfig, run_benchmark
from repro.params import IvrConfig, Organization
from repro.traces.benchmarks import get_benchmark
from repro.traces.synthetic import generate_traces


def test_ablation_hpcmax(benchmark, bench_scale):
    """SMART's benefit comes from multi-hop traversals: HPCmax=1 must
    be slower than HPCmax=4."""
    spec = get_benchmark("barnes", scale=bench_scale)
    traces = generate_traces(spec, 64, seed=2)

    def run(hpc):
        exp = ExperimentConfig(benchmark="barnes",
                               organization=Organization.LOCO_CC_VMS_IVR,
                               scale=bench_scale)
        cfg = exp.system_config()
        cfg = replace(cfg, noc=replace(cfg.noc, hpc_max=hpc))
        return CmpSystem(cfg, traces).run().runtime

    results = benchmark.pedantic(
        lambda: {h: run(h) for h in (1, 2, 4, 8)}, rounds=1, iterations=1)
    print()
    for h, rt in results.items():
        print(f"  HPCmax={h}: runtime={rt}")
    assert results[4] < results[1], \
        "HPCmax=4 must beat HPCmax=1 (per-hop routing)"


def test_ablation_ivr_threshold(benchmark, bench_scale):
    """IVR replacement-counter sweep on the capacity-imbalanced
    workload; threshold=1 disables migration entirely."""
    def run(threshold):
        exp = ExperimentConfig(benchmark="swaptions",
                               organization=Organization.LOCO_CC_VMS_IVR,
                               scale=bench_scale)
        spec = get_benchmark("swaptions", scale=bench_scale)
        traces = generate_traces(spec, 64, seed=2)
        cfg = exp.system_config()
        cfg = replace(cfg, ivr=IvrConfig(replacement_threshold=threshold))
        r = CmpSystem(cfg, traces).run()
        return r.offchip_accesses

    results = benchmark.pedantic(
        lambda: {t: run(t) for t in (1, 2, 4, 8)}, rounds=1, iterations=1)
    print()
    for t, off in results.items():
        print(f"  threshold={t}: offchip={off}")
    assert results[4] <= results[1], \
        "IVR (threshold 4) must not increase off-chip accesses vs no-IVR"


def test_ablation_ivr_target_policy(benchmark, bench_scale):
    """Random vs round-robin victim-target selection (paper argues
    random balances utilization; both should beat no IVR)."""
    def run(policy):
        exp = ExperimentConfig(benchmark="swaptions",
                               organization=Organization.LOCO_CC_VMS_IVR,
                               scale=bench_scale)
        spec = get_benchmark("swaptions", scale=bench_scale)
        traces = generate_traces(spec, 64, seed=2)
        cfg = exp.system_config()
        cfg = replace(cfg, ivr=IvrConfig(target_policy=policy))
        return CmpSystem(cfg, traces).run().offchip_accesses

    results = benchmark.pedantic(
        lambda: {p: run(p) for p in ("random", "round_robin")},
        rounds=1, iterations=1)
    print()
    for p, off in results.items():
        print(f"  policy={p}: offchip={off}")
    # both policies should be in the same ballpark
    a, b = results["random"], results["round_robin"]
    assert min(a, b) / max(a, b) > 0.5
