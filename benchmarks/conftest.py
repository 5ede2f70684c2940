"""Benchmark-suite configuration.

Each ``test_figNN_*.py`` regenerates one table/figure of the paper at a
reduced trace scale (``BENCH_SCALE``), printing the same rows/series
the paper reports and timing the headline configuration with
pytest-benchmark. Set ``REPRO_BENCH_SCALE`` to run bigger traces.

The figure benches share one session-scoped result cache
(``cache_dir``): most of their cells overlap (``blackscholes``/SHARED
is read by six figures), so each cell is simulated by the first figure
that needs it and served from the cache afterwards. The per-figure
pytest-benchmark times therefore depend on collection order — they are
``rounds=1``, ungated and recorded nowhere; the shape assertions are
what these files check.
"""

import os

import pytest

from repro.harness import figures
from repro.harness.report import format_table

#: trace-length scale for benches (EXPERIMENTS.md runs use 0.4-1.0)
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.15"))

#: benchmark subset exercised by the per-figure benches (full list in
#: EXPERIMENTS.md runs); chosen to span the paper's behaviour classes:
#: neighbour-local, chip-wide, and capacity-imbalanced.
BENCH_SET = ["blackscholes", "barnes", "swaptions"]


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_set():
    return list(BENCH_SET)


@pytest.fixture(scope="session")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("figure-cells"))


@pytest.fixture
def run_figure(benchmark, cache_dir):
    """``run_figure(partial(figures.figN, ...))``: time one figure
    declaration through ``figures.run_figures`` on the shared cell
    cache, print its tables, and return their rows in table order."""
    def run(fig):
        tables = benchmark.pedantic(
            lambda: figures.run_figures({"fig": fig},
                                        cache_dir=cache_dir)["fig"],
            rounds=1, iterations=1)
        print()
        for title, _paper, rows in tables:
            print(format_table(title, rows))
        return [rows for _title, _paper, rows in tables]
    return run
