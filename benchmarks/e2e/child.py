"""One child process of a run: one set-up, then timed repeats of the job.

The only module of the benchmark that runs inside the simulator's
process. It prints ``setup-done`` when the warm-up job has returned (the
parent stamps ``setup_s`` on that line) and its report as one JSON line
when it ends.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
import time
import traceback
from typing import Any, Dict, List

import tracing
import workloads
from repro.cmp.system import RunResult
from repro.harness.units import encode_result


def canonical(value: Any) -> str:
    """A row as canonical JSON (a full RunResult through its exact
    wire encoding), the unit of every comparison and of rows_digest."""
    if isinstance(value, RunResult):
        value = encode_result(value)
    return json.dumps(value, sort_keys=True)


def unfinished(value: Any) -> bool:
    finished = (value.get("finished", True) if isinstance(value, dict)
                else getattr(value, "finished", True))
    return not finished


def totals(units, values) -> Dict[str, int]:
    """Simulated cycles and committed instructions of the job, each
    distinct configuration counted once (metric-reduced cells of one
    configuration share one simulation's worth of both)."""
    per_config: Dict[Any, Dict[str, Any]] = {}
    for unit, value in zip(units, values):
        seen = per_config.setdefault(unit.exp, {})
        if isinstance(value, dict):
            seen.update(value)
        elif isinstance(unit.metric, str):
            seen[unit.metric] = value
        else:
            seen.update(runtime=value.runtime,
                        instructions=value.instructions)
    return {"sim_cycles": sum(c["runtime"] for c in per_config.values()),
            "instructions": sum(c["instructions"]
                                for c in per_config.values())}


def run_job(wl):
    wl.prepare()
    try:
        t0 = time.perf_counter()
        values = wl.job()
        return time.perf_counter() - t0, values
    finally:
        wl.release()


def differing(values, baseline: List[str]) -> set:
    """Cells of a job whose rows are unlike the warm-up job's."""
    return {i for i, v in enumerate(values) if canonical(v) != baseline[i]}


def traced_job(wl, baseline: List[str], per_layer: List[str],
               report: Dict[str, Any]) -> None:
    """One more job under spans and cProfile, then the layer probes."""
    tracing.check_layer_map()
    layers = dict.fromkeys(per_layer, 0.0)
    tracer = tracing.Tracer(f"{wl.name}/seed{wl.seed}")
    job_s = statistics.median(report["job_s"])
    report["attempted"] += len(baseline)
    with tracing.Profiler() as profiler:
        wl.prepare()
        try:
            with tracer.span("job") as span, profiler.this_thread():
                values = wl.job()
            wl.live_probes(tracer, layers)
        finally:
            wl.release()
    report["failed"] += len(differing(values, baseline))
    wl.probes(tracer, profiler, layers, job_s)
    tracing.roll_up(profiler, layers)
    tracing.stat_counts(wl.full_results(values), layers)
    tracing.ratios(layers, report["sim_cycles"], report["instructions"],
                   job_s, span.seconds)
    if set(layers) - set(per_layer):
        raise SystemExit(f"layer metrics missing from BENCHMARK.json: "
                         f"{sorted(set(layers) - set(per_layer))}")
    report["layers"] = layers
    report["events"] = tracer.events()


def main(spec: Dict[str, Any]) -> int:
    wl = workloads.WORKLOADS[spec["workload"]](spec["seed"], spec["smoke"])
    cells = len(wl.units)
    report: Dict[str, Any] = {"cells": cells, "attempted": 0, "failed": 0,
                              "job_s": [], "error": None}
    try:
        report["attempted"] += cells
        warm_s, values = run_job(wl)
        print("setup-done", flush=True)
        baseline = [canonical(v) for v in values]
        bad = {i for i, v in enumerate(values) if unfinished(v)}
        report.update(totals(wl.units, values))
        report["rows_digest"] = hashlib.sha256(
            "\n".join(baseline).encode()).hexdigest()
        if spec["smoke"]:   # the warm-up job is the one (meaningless) sample
            report["job_s"] = [warm_s]
        unlike = [set()]    # per job, the warm-up first
        # Repeat by the clock, not by a count fixed from the warm-up job:
        # a slow minute on the host then costs samples, not run time.
        spent = 0.0
        while not spec["smoke"] and (
                not report["job_s"] or spent
                + statistics.median(report["job_s"]) / 2 < spec["seconds"]):
            report["attempted"] += cells
            wall, values = run_job(wl)
            spent += wall
            report["job_s"].append(wall)
            unlike.append(differing(values, baseline))
        # A cell that is wrong in the warm-up job is wrong in every
        # repeat that agrees with it.
        if spec["verify"]:
            bad |= {i for i, v in wl.reference().items()
                    if canonical(v) != baseline[i]}
        report["failed"] += sum(len(bad | d) for d in unlike)
        if spec["per_layer"]:
            traced_job(wl, baseline, spec["per_layer"], report)
    except Exception:
        traceback.print_exc()
        report["error"] = traceback.format_exc(limit=1).splitlines()[-1]
        report["failed"] += cells   # the job that raised
    usage = max(resource.getrusage(who).ru_maxrss
                for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    report["peak_rss_mb"] = usage / 1024.0
    print(json.dumps(report), flush=True)
    return 0

