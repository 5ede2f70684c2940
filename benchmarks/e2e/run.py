#!/usr/bin/env python3
"""End-to-end benchmark of the sweep backends, measured from outside.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed N]
        [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
    python3 benchmarks/e2e/run.py --agree BASE.json CHANGE.json

One closed loop, one client, one job in flight. Each workload runs in
child processes of its own (so set-up time and peak memory do not
bleed between workloads): a child imports the simulator, launches its
backend, runs one untimed warm-up job — all of that is ``setup_s`` —
and then repeats the same job on cold caches for its share of
``--seconds``. Three children per run give three set-up samples and
pool their job timings; set-up time and the two rates are those of the
run's fastest set-up and fastest job (a shared host only ever adds
time), with median and quartiles printed beside them. Rows are verified
in the same run (see README.md), and the last line of stdout is the
result as one JSON object. ``--trace 1`` runs one child that additionally
repeats the job under spans and cProfile and reports the per-layer
metrics instead; end-to-end numbers always come from
untraced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import tracing  # noqa: E402  (stdlib only; the simulator loads in children)

REPO = os.path.dirname(os.path.dirname(HERE))
with open(os.path.join(REPO, "BENCHMARK.json")) as _f:
    BENCH = json.load(_f)
WORKLOAD_NAMES = [w["name"] for w in BENCH["workloads"]]
#: set-ups (child processes) per untraced run
SETUPS = 3
#: the whole invocation must end well inside the driver's 180 s
DEADLINE_S = 170.0


# ---------------------------------------------------------------------------
# spawn the children, pool their samples, print, verify
# ---------------------------------------------------------------------------
def kill_group(proc: subprocess.Popen) -> None:
    """terminate -> wait -> kill the child's whole process group (pool
    and fleet workers included), whatever state the run ended in."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(proc.pid, sig)
        except (ProcessLookupError, PermissionError):
            break
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            continue
    proc.wait()


def run_child(spec: Dict[str, Any], work_dir: str,
              deadline: float) -> Dict[str, Any]:
    env = dict(os.environ, OMP_NUM_THREADS="1", PYTHONHASHSEED="0",
               TMPDIR=work_dir)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--child",
         json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, env=env, start_new_session=True)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()),
                               kill_group, [proc])
    watchdog.start()
    setup_s, last = None, ""
    try:
        for line in proc.stdout:
            line = line.strip()
            if line == "setup-done" and setup_s is None:
                setup_s = time.perf_counter() - t0
            elif line:
                last = line
        proc.wait()
    finally:
        watchdog.cancel()
        kill_group(proc)
    try:
        report = json.loads(last)
    except ValueError:
        raise SystemExit(f"{spec['workload']}: child exited with code "
                         f"{proc.returncode} and no report") from None
    report["setup_s"] = setup_s
    return report


def summarize(samples: List[float], unit: str,
              best=statistics.median) -> Dict[str, Any]:
    """Median, quartiles and count of ``samples``; ``best`` (``min`` for
    a time, ``max`` for a rate, else the median) picks the value."""
    med = statistics.median(samples)
    # "inclusive": with three set-up samples the exclusive method would
    # report the extremes as quartiles
    q1, _, q3 = (statistics.quantiles(samples, n=4, method="inclusive")
                 if len(samples) > 1 else (med, med, med))
    return {"value": best(samples), "unit": unit, "q1": q1, "median": med,
            "q3": q3, "n": len(samples)}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool, work_dir: str,
                 deadline: float) -> Dict[str, Any]:
    setups = 1 if (trace or smoke) else SETUPS
    reports = []
    for k in range(setups):
        spec = dict(workload=name, seed=seed, smoke=smoke,
                    seconds=seconds / SETUPS, verify=(k == 0),
                    per_layer=([m["name"] for m in BENCH["per_layer"]]
                               if trace else None))
        reports.append(run_child(spec, work_dir, deadline))
    first = reports[0]
    cells = first["cells"]
    result: Dict[str, Any] = {
        "workload": name, "seed": seed, "cells": cells,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "rows_digest": first.get("rows_digest"),
        "errors": [r["error"] for r in reports if r["error"]],
    }
    if any(r.get("rows_digest") != first.get("rows_digest")
           for r in reports):
        # the set-ups disagree on the rows: no cell of this run counts
        result["failed"] = result["attempted"]
        result["errors"].append("children disagree on rows_digest")
    walls = result["job_s"] = [w for r in reports for w in r["job_s"]]
    units = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    metrics: Dict[str, Dict[str, Any]] = {}
    if walls and not result["errors"]:
        # What a shared host adds to a set-up or a job is only ever
        # time, so the run's fastest of each is the steadiest estimate of
        # what the program costs; median and quartiles are printed too.
        metrics["setup_s"] = summarize([r["setup_s"] for r in reports],
                                       units["setup_s"], best=min)
        metrics["cells_per_s"] = summarize(
            [cells / w for w in walls], units["cells_per_s"], best=max)
        metrics["sim_kips"] = summarize(
            [first["instructions"] / w / 1e3 for w in walls],
            units["sim_kips"], best=max)
        metrics["peak_rss_mb"] = summarize(
            [r["peak_rss_mb"] for r in reports], units["peak_rss_mb"])
        metrics["sim_cycles"] = summarize([first["sim_cycles"]],
                                          units["sim_cycles"])
    metrics["failed_frac"] = summarize(
        [result["failed"] / result["attempted"]], "frac")
    if trace and "layers" in first:
        units = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
        for layer, value in first["layers"].items():
            metrics[layer] = summarize([value], units[layer])
        result["events"] = first["events"]
    result["metrics"] = metrics
    return result


def print_result(result: Dict[str, Any], trace: bool) -> None:
    name = result["workload"]
    print(f"== {name}  seed={result['seed']}  cells={result['cells']}  "
          f"attempted={result['attempted']}  failed={result['failed']}  "
          f"rows_digest={result['rows_digest']}")
    for error in result["errors"]:
        print(f"   ERROR {error}")
    print(f"   {'metric':<36}{'value':>16} {'unit':<9}"
          f"{'q1':>16}{'median':>16}{'q3':>16}{'n':>4}")
    for metric, m in result["metrics"].items():
        print(f"   {metric:<36}{m['value']:>16.6g} {m['unit']:<9}"
              f"{m['q1']:>16.6g}{m['median']:>16.6g}{m['q3']:>16.6g}"
              f"{m['n']:>4}")
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    line = {"correct": result["failed"] == 0 and not result["errors"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": {m["name"]: {
                "value": result["metrics"][m["name"]]["value"],
                "unit": m["unit"]}
                for m in wanted if m["name"] in result["metrics"]}}
    print(json.dumps(line), flush=True)


def bench_main(args: argparse.Namespace) -> int:
    if not os.path.isdir(os.path.join(tracing.SRC_ROOT, "repro")):
        print(f"run.py: no simulator at {tracing.SRC_ROOT}/repro — run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    results = {}
    try:
        for name in names:
            if not args.workload:   # a full pass gets a budget per workload
                deadline = time.monotonic() + DEADLINE_S
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), args.smoke,
                                         work_dir, deadline)
            print_result(results[name], bool(args.trace))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_root)     # unless another run is using it
        except OSError:
            pass
    if args.out:
        events = [e for r in results.values() for e in r.pop("events", [])]
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "smoke": args.smoke,
                       "results": results, "traceEvents": events}, f,
                      indent=1)
    ok = all(r["failed"] == 0 and not r["errors"] for r in results.values())
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# --agree: a change's result set against its base, within the bounds
# ---------------------------------------------------------------------------
def agree_main(base_path: str, change_path: str) -> int:
    with open(base_path) as f:
        base = json.load(f)["results"]
    with open(change_path) as f:
        change = json.load(f)["results"]
    gated = {m["name"]: m for m in BENCH["end_to_end"]}
    gated["failed_frac"] = {"better": "lower", "bound": 0.0}
    exact_units = ("count", "bytes", "cycles")
    bad = 0
    print(f"{'workload':<18}{'metric':<30}{'base':>14}{'change':>14}"
          f"{'change/base':>13}{'bound':>7}  verdict")
    for name in base:
        if name not in change:
            continue
        a_set, b_set = base[name]["metrics"], change[name]["metrics"]
        if base[name]["rows_digest"] != change[name]["rows_digest"]:
            print(f"{name:<18}rows_digest differs (informational)")
        for metric, a in a_set.items():
            b = b_set.get(metric)
            if b is None:
                continue
            gate = gated.get(metric)
            if gate is None and a["unit"] not in exact_units:
                continue    # ungated layer timings are read, not judged
            ratio = b["value"] / a["value"] if a["value"] else float(
                b["value"] != 0)
            if gate is None:
                bound, verdict = 0.0, ("ok" if a["value"] == b["value"]
                                       else "DIFFERS")
            else:
                bound = gate["bound"]
                worse_by = (ratio - 1.0 if gate["better"] == "lower"
                            else 1.0 - ratio) if a["value"] else ratio
                spread = max((m["q3"] - m["q1"]) / m["value"]
                             if m["value"] else 0.0 for m in (a, b))
                verdict = ("WORSE" if worse_by > bound else
                           "unresolved" if spread > bound and bound else
                           "ok")
            bad += verdict != "ok"
            print(f"{name:<18}{metric:<30}{a['value']:>14.6g}"
                  f"{b['value']:>14.6g}{ratio:>13.4f}{bound:>7.2f}  "
                  f"{verdict}")
    print(f"{bad} row(s) disagree" if bad else "all rows agree")
    return 1 if bad else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(BENCH["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--out", help="write the result set (and, with "
                        "--trace, the Chrome trace_event spans) here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny cell lists, one set-up, and the warm-up "
                        "job as the only timing sample")
    parser.add_argument("--agree", nargs=2, metavar=("BASE", "CHANGE"))
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        sys.path.insert(0, tracing.SRC_ROOT)
        import child    # the only import of the simulator
        return child.main(json.loads(args.child))
    if args.agree:
        return agree_main(*args.agree)
    return bench_main(args)


if __name__ == "__main__":
    sys.exit(main())
