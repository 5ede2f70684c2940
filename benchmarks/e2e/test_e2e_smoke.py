"""Smoke test of the end-to-end benchmark (``benchmarks/e2e/run.py``).

Runs every workload at ``--smoke`` sizes three times side by side —
untraced and traced under one seed, untraced under another — and
checks the contract the full-size runs rely on: every workload and
metric named in ``BENCHMARK.json`` is printed with its unit, no cell
fails, and the simulated results are a function of ``--seed`` alone.
Timings at these sizes mean nothing and are not looked at.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
RUN = [sys.executable, os.path.join(HERE, "run.py")]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_smoke_runs_agree(tmp_path):
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    runs = {"plain": ["--seed", "1"],
            "traced": ["--seed", "1", "--trace", "1"],
            "reseeded": ["--seed", "2"]}
    procs = {tag: subprocess.Popen(
                 RUN + ["--smoke", "--out", str(tmp_path / f"{tag}.json")]
                 + args, cwd=REPO, stdout=subprocess.PIPE, text=True)
             for tag, args in runs.items()}
    try:
        stdout = {tag: p.communicate(timeout=300)[0]
                  for tag, p in procs.items()}
    finally:
        for p in procs.values():
            p.kill()
            p.wait()
    for tag, p in procs.items():
        assert p.returncode == 0, (tag, stdout[tag][-2000:])
    results = {}
    for tag in runs:
        with open(tmp_path / f"{tag}.json") as f:
            results[tag] = json.load(f)["results"]

    declared = {"plain": bench["end_to_end"], "traced": bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        assert NAME.fullmatch(workload)
        for tag, result in ((t, results[t][workload]) for t in runs):
            assert result["failed"] == 0 and not result["errors"], (tag,
                                                                    result)
            assert result["metrics"]["failed_frac"]["value"] == 0
        for tag, metrics in declared.items():
            for m in metrics:
                assert NAME.fullmatch(m["name"])
                got = results[tag][workload]["metrics"][m["name"]]
                assert got["unit"] == m["unit"]
                # printed by name, with its unit, in the workload's table
                assert re.search(rf"^\s+{re.escape(m['name'])}\s+\S+\s+"
                                 rf"{re.escape(m['unit'])}\s",
                                 stdout[tag], re.M), (tag, m["name"])
        plain, traced, reseeded = (results[t][workload] for t in runs)
        assert plain["metrics"]["sim_cycles"]["value"] \
            == traced["metrics"]["sim_cycles"]["value"]
        assert plain["rows_digest"] == traced["rows_digest"]
        assert plain["rows_digest"] != reseeded["rows_digest"]
        assert plain["metrics"]["sim_cycles"]["value"] \
            != reseeded["metrics"]["sim_cycles"]["value"]

    # the last stdout line is the driver's result object
    last = json.loads(stdout["plain"].strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0
    assert sorted(last["metrics"]) == sorted(m["name"]
                                             for m in bench["end_to_end"])

    # a result set agrees with itself
    agree = subprocess.run(RUN + ["--agree", str(tmp_path / "plain.json"),
                                  str(tmp_path / "plain.json")],
                           cwd=REPO, capture_output=True, text=True,
                           timeout=60)
    assert agree.returncode == 0, agree.stdout[-2000:]
