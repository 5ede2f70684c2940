#!/usr/bin/env python3
"""Run the paper's figure matrix and write EXPERIMENTS.md.

Binds the figure declarations of ``repro.harness.figures`` to benchmark
subsets that finish in minutes and hands them to ``figures.run_figures``,
which simulates the de-duplicated union of their cells in one
``run_units`` call: in-process, on a ``--jobs N`` pool or on a
``--service HOST:PORT`` fleet (Fig 15's multi-program cells included).
Cells are deterministically seeded, so the backend does not change the
tables. If a cell fails, finished cells stay in a temporary result
cache, each figure is retried on its own, those that still fail become
``FAILED: ...`` sections and the exit status is 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import traceback
from functools import partial
from typing import Dict, List, Optional

from repro.harness import figures
from repro.harness.report import format_table

BENCHES = ["barnes", "blackscholes", "swaptions", "water_spatial"]
BENCHES_NOC = BENCHES[:3]
BENCHES_256 = ["blackscholes"]
BENCHES_FS = ["blackscholes", "water_spatial"]
WORKLOADS = ["W1", "W9"]

def paper_figures(scale: float) -> Dict[str, figures.Figure]:
    """The matrix: every figure declaration bound to its subset."""
    f = figures
    bind = partial(partial, scale=scale)  # bind(fig, **subset)
    scaling = {7: f.fig7, 8: f.fig8, 9: f.fig9, 10: f.fig10, 11: f.fig11}
    figs = {"fig6": bind(f.fig6, benchmarks=BENCHES)}
    for n, fig in scaling.items():
        figs[f"fig{n}_64"] = bind(fig, benchmarks=BENCHES)
    figs["fig12"] = bind(f.fig12, benchmarks=BENCHES_NOC)
    figs["fig13"] = bind(f.fig13, benchmarks=BENCHES_NOC)
    figs["router"] = f.fig_router  # the DSENT table: no cell, no scale
    figs["fig14"] = bind(f.fig14, benchmarks=BENCHES)
    for n, fig in scaling.items():
        figs[f"fig{n}_256"] = bind(fig, benchmarks=BENCHES_256, cores=256)
    figs["fig15"] = bind(f.fig15, workloads=WORKLOADS)
    figs["fig16"] = bind(f.fig16, benchmarks=BENCHES_FS)
    return figs


def run_matrix(figs: Dict[str, figures.Figure], **backend) -> dict:
    """All figures in one ``run_figures`` call; if a cell raises, each
    figure again on its own through the same result cache. Maps each
    name to its tables, or to a ``FAILED: ...`` line."""
    with tempfile.TemporaryDirectory(prefix="repro-figures-") as cache:
        try:
            return figures.run_figures(figs, cache_dir=cache, **backend)
        except Exception:
            traceback.print_exc()
            print("== a cell failed; retrying per figure ==", flush=True)
        sections = {}
        for name, fig in figs.items():
            try:
                sections.update(figures.run_figures(
                    {name: fig}, cache_dir=cache, **backend))
            except Exception as exc:
                traceback.print_exc()
                sections[name] = f"FAILED: {type(exc).__name__}: {exc}"
        return sections


def write_markdown(out: str, scale: float, sections: dict) -> None:
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        f"All numbers from `scripts/run_experiments.py {scale}` "
        f"(trace scale {scale}, cache scale 1/8; "
        f"benchmarks: {', '.join(BENCHES)}).",
        "",
        "Absolute values are not comparable to the paper's (different "
        "substrate, synthetic traces); the target is the SHAPE: orderings, "
        "rough ratios, crossovers. Each section quotes the paper's headline.",
        ""]
    for name, tables in sections.items():
        if isinstance(tables, str):
            lines += [f"## {name}", "", tables, ""]
            continue
        for title, paper_says, rows in tables:
            lines.append(f"## {title}")
            if paper_says:
                lines.append(f"**Paper:** {paper_says}")
            lines += ["", "```", format_table(title, rows), "```", ""]
    with open(out, "w") as f:
        f.write("\n".join(lines))


def write_leakage(out: str, **backend) -> None:
    """The --speculation path: the cache-leakage scenario pack."""
    from repro.harness.leakage import leakage_report
    table = leakage_report(**backend)
    print(table, flush=True)
    with open(out, "w") as f:
        f.write("\n".join([
            "# Transient-execution cache leakage by L2 organization",
            "",
            "From `scripts/run_experiments.py --speculation`: a victim core's "
            "*squashed* speculative loads touch secret-dependent cache sets; "
            "an attacker core recovers the secret from the timing of its own "
            "committed probe loads. Accuracy 1.0 = every bit leaks, ~0.5 = "
            "guessing; `off` columns are the control arm (no speculation).",
            "", "```", table, "```", ""]))


def main(argv: Optional[List[str]] = None) -> int:
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("scale", nargs="?", type=float, default=0.5,
                     help="trace-length scale (default 0.5)")
    cli.add_argument("out", nargs="?", default="EXPERIMENTS.md",
                     help="output markdown path")
    cli.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes for the cells (default 1)")
    cli.add_argument("--service", default=None, metavar="HOST:PORT",
                     help="sweep-service fleet to run the cells on")
    cli.add_argument("--speculation", action="store_true",
                     help="run the transient-leakage scenario pack "
                          "instead and write LEAKAGE.md")
    cli.add_argument("--warmup-cache", default=None, metavar="DIR",
                     help="directory of warmup checkpoint images kept "
                          "across runs; cells fork from them instead of "
                          "re-simulating warmup (bit-identical results)")
    args = cli.parse_args(argv)
    backend: dict = dict(jobs=args.jobs, service=args.service)
    if args.speculation:
        # don't clobber the paper matrix when no explicit path was given
        out = "LEAKAGE.md" if args.out == "EXPERIMENTS.md" else args.out
        write_leakage(out, **backend)
        print(f"wrote {out}", flush=True)
        return 0
    if args.warmup_cache is not None:
        backend.update(warmup_snapshots=True, warmup_cache=args.warmup_cache)
    sections = run_matrix(paper_figures(args.scale), **backend)
    write_markdown(args.out, args.scale, sections)
    with open("experiments_results.json", "w") as f:
        json.dump(sections, f, indent=1)
    print(f"wrote {args.out} and experiments_results.json", flush=True)
    return 1 if any(isinstance(s, str) for s in sections.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
